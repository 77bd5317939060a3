package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPeerFlagsParse(t *testing.T) {
	var f peerFlags
	if err := f.Set("coord=127.0.0.1:7100"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("other=10.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if f.addrs["coord"] != "127.0.0.1:7100" {
		t.Fatalf("coord addr %q", f.addrs["coord"])
	}
	if !strings.Contains(f.String(), "coord=127.0.0.1:7100") {
		t.Fatalf("String() = %q", f.String())
	}
}

func TestPeerFlagsRejectMalformed(t *testing.T) {
	var f peerFlags
	if err := f.Set("noequals"); err == nil {
		t.Fatal("malformed peer accepted")
	}
}

// TestIntrospectionEndpointsServe builds prany-server, starts it with an
// introspection listener, and requires all four endpoint groups — /metrics,
// /txns, /trace and /debug/pprof/ — to serve well-formed output. A
// regression that breaks the -http wiring (a renamed metric family, a
// handler that stops returning JSON, a listener that never comes up) fails
// here without any cluster traffic.
func TestIntrospectionEndpointsServe(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "prany-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building prany-server: %v\n%s", err, out)
	}
	srv := exec.Command(bin,
		"-id", "smoke", "-proto", "pra",
		"-listen", "127.0.0.1:0",
		"-wal", filepath.Join(tmp, "smoke.wal"),
		"-http", "127.0.0.1:0")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Signal(syscall.SIGTERM)
		_ = srv.Wait()
	}()

	// The server logs "introspection on http://<addr>" once the listener is
	// up; that line carries the :0-resolved port.
	const announce = "introspection on http://"
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), announce); ok {
				addrCh <- strings.TrimSpace(addr)
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("server never announced its introspection address")
	}

	var txns struct {
		Count   int               `json:"count"`
		Entries []json.RawMessage `json:"entries"`
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	for _, ep := range []struct {
		path  string
		ctype string   // required Content-Type prefix
		body  []string // required substrings
		doc   any      // when non-nil, the body must unmarshal into it
	}{
		{path: "/metrics", ctype: "text/plain; version=0.0.4", body: []string{
			"# TYPE prany_span_commit_seconds histogram",
			"prany_span_commit_seconds_count",
			"prany_span_wal_force_seconds_count",
			"# TYPE prany_pt_retained gauge",
		}},
		{path: "/txns", ctype: "application/json", doc: &txns},
		{path: "/trace", ctype: "application/x-ndjson"},
		{path: "/trace?format=chrome", doc: &chrome},
		{path: "/debug/pprof/", body: []string{"goroutine"}},
	} {
		resp, err := http.Get(base + ep.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", ep.path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep.path, resp.StatusCode)
		}
		if ctype := resp.Header.Get("Content-Type"); !strings.HasPrefix(ctype, ep.ctype) {
			t.Errorf("%s: content type %q, want prefix %q", ep.path, ctype, ep.ctype)
		}
		for _, want := range ep.body {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s: missing %q", ep.path, want)
			}
		}
		if ep.doc != nil {
			if err := json.Unmarshal(body, ep.doc); err != nil {
				t.Errorf("%s: not JSON: %v", ep.path, err)
			}
		}
	}
	if txns.Count != len(txns.Entries) {
		t.Errorf("/txns count %d != %d entries", txns.Count, len(txns.Entries))
	}
}
