package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"prany/internal/wire"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): per-site counters with a site label, and one
// cumulative histogram per latency span. Every span series is emitted even
// when empty so scrapers see a stable set of names from the first scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	r.mu.Lock()
	ids := make([]string, 0, len(r.sites))
	for id := range r.sites {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)

	counter := func(name, help string, get func(c *SiteCounters) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s{site=%q} %d\n", name, id, get(r.sites[wire.SiteID(id)]))
		}
	}

	fmt.Fprintf(&b, "# HELP prany_messages_total Messages sent, by site and kind.\n# TYPE prany_messages_total counter\n")
	for _, id := range ids {
		c := r.sites[wire.SiteID(id)]
		kinds := make([]wire.MsgKind, 0, len(c.Messages))
		for k := range c.Messages {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(&b, "prany_messages_total{site=%q,kind=%q} %d\n", id, k.String(), c.Messages[k])
		}
	}
	counter("prany_forces_total", "Forced-write barriers requested.", func(c *SiteCounters) uint64 { return c.Forces })
	counter("prany_appends_total", "Log records appended.", func(c *SiteCounters) uint64 { return c.Appends })
	counter("prany_syncs_total", "Physical log flushes.", func(c *SiteCounters) uint64 { return c.Syncs })
	counter("prany_synced_records_total", "Records written by physical flushes.", func(c *SiteCounters) uint64 { return c.Synced })
	counter("prany_pt_inserts_total", "Protocol-table entries created.", func(c *SiteCounters) uint64 { return c.PTInsert })
	counter("prany_pt_deletes_total", "Protocol-table entries discarded.", func(c *SiteCounters) uint64 { return c.PTDelete })
	counter("prany_shard_waits_total", "Contended protocol-table shard-lock acquisitions.", func(c *SiteCounters) uint64 { return c.ShardWaits })
	counter("prany_checkpoints_total", "Completed log checkpoints.", func(c *SiteCounters) uint64 { return c.Checkpoints })
	counter("prany_checkpoint_collected_total", "Records garbage-collected by checkpoints.", func(c *SiteCounters) uint64 { return c.CheckpointCollected })
	counter("prany_recoveries_total", "Site recovery runs.", func(c *SiteCounters) uint64 { return c.Recoveries })
	counter("prany_recovery_scanned_total", "Stable records read by recovery scans.", func(c *SiteCounters) uint64 { return c.RecoveryScanned })
	counter("prany_recovery_suffix_total", "Recovery-scanned records after the last checkpoint record.", func(c *SiteCounters) uint64 { return c.RecoverySuffix })
	counter("prany_net_retries_total", "Transport-level send retries.", func(c *SiteCounters) uint64 { return c.NetRetries })
	counter("prany_decisions_total", "Decision records fixed durable.", func(c *SiteCounters) uint64 { return c.Decisions })
	counter("prany_frames_total", "Physical network writes.", func(c *SiteCounters) uint64 { return c.Frames })
	counter("prany_frames_batched_total", "Message frames carried by physical writes.", func(c *SiteCounters) uint64 { return c.FramesBatched })
	counter("prany_bytes_on_wire_total", "Encoded bytes written to the network.", func(c *SiteCounters) uint64 { return c.BytesOnWire })

	// The retained-entry gauge is the Theorem 2 quantity: terminated
	// transactions the site has not yet been allowed to forget.
	fmt.Fprintf(&b, "# HELP prany_pt_retained Protocol-table entries not yet discarded.\n# TYPE prany_pt_retained gauge\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "prany_pt_retained{site=%q} %d\n", id, r.sites[wire.SiteID(id)].Retained())
	}
	r.mu.Unlock()

	for _, s := range Spans() {
		snap := r.Hist(s)
		name := "prany_span_" + s.String() + "_seconds"
		fmt.Fprintf(&b, "# HELP %s Latency of the %s span.\n# TYPE %s histogram\n", name, s.String(), name)
		var cum uint64
		for i := 0; i < histBuckets-1; i++ {
			cum += snap.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", name, BucketUpper(i).Seconds(), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(&b, "%s_sum %g\n", name, snap.Sum.Seconds())
		fmt.Fprintf(&b, "%s_count %d\n", name, snap.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
