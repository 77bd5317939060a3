package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"prany/internal/wal"
	"prany/internal/wire"
)

// This file gives CrashPoint a compact textual form and exported matchers,
// so tools outside the probabilistic engine — the model checker's schedule
// strings foremost — can name, serialize and re-fire the same crash-point
// taxonomy the chaos plans draw from.
//
// The encoding is site:edge:arg:skip, where edge is one of
//
//	bf  crash before a force-write  (arg = record, e.g. commit.c)
//	af  crash after a force-write   (arg = record, e.g. prepared.p)
//	os  crash on sending a message  (arg = message kind, e.g. ACK)
//	od  crash on delivery           (arg = message kind, e.g. DECISION)
//
// Force-edge records carry their role as a .c (coordinator) or .p
// (participant) suffix, since the same kind exists in both roles.
// Examples: "coord:bf:commit.c:0", "pa:od:DECISION:1".

var edgeCodes = map[CrashEdge]string{
	BeforeForce: "bf",
	AfterForce:  "af",
	OnSend:      "os",
	OnDeliver:   "od",
}

// Encode renders the crash point in the site:edge:arg:skip form that
// ParseCrashPoint reads back.
func (cp CrashPoint) Encode() string {
	var arg string
	switch cp.Edge {
	case BeforeForce, AfterForce:
		role := "c"
		switch cp.Role {
		case wal.RolePart:
			role = "p"
		case wal.RoleAcceptor:
			role = "a"
		}
		arg = cp.Rec.String() + "." + role
	default:
		arg = cp.Msg.String()
	}
	return fmt.Sprintf("%s:%s:%s:%d", cp.Site, edgeCodes[cp.Edge], arg, cp.Skip)
}

// ParseCrashPoint reads the site:edge:arg:skip form back into a CrashPoint.
// A missing :skip suffix means 0.
func ParseCrashPoint(s string) (CrashPoint, error) {
	fields := strings.Split(s, ":")
	if len(fields) != 3 && len(fields) != 4 {
		return CrashPoint{}, fmt.Errorf("chaos: crash point %q: want site:edge:arg[:skip]", s)
	}
	cp := CrashPoint{Site: wire.SiteID(fields[0])}
	if cp.Site == "" {
		return CrashPoint{}, fmt.Errorf("chaos: crash point %q: empty site", s)
	}
	var edgeOK bool
	for edge, code := range edgeCodes {
		if code == fields[1] {
			cp.Edge, edgeOK = edge, true
			break
		}
	}
	if !edgeOK {
		return CrashPoint{}, fmt.Errorf("chaos: crash point %q: unknown edge %q", s, fields[1])
	}
	switch cp.Edge {
	case BeforeForce, AfterForce:
		kind, role, ok := strings.Cut(fields[2], ".")
		if !ok || (role != "c" && role != "p" && role != "a") {
			return CrashPoint{}, fmt.Errorf("chaos: crash point %q: want record.c, record.p or record.a, got %q", s, fields[2])
		}
		switch role {
		case "p":
			cp.Role = wal.RolePart
		case "a":
			cp.Role = wal.RoleAcceptor
		}
		rec, err := parseRecordKind(kind)
		if err != nil {
			return CrashPoint{}, fmt.Errorf("chaos: crash point %q: %w", s, err)
		}
		cp.Rec = rec
	default:
		msg, err := parseMsgKind(fields[2])
		if err != nil {
			return CrashPoint{}, fmt.Errorf("chaos: crash point %q: %w", s, err)
		}
		cp.Msg = msg
	}
	if len(fields) == 4 {
		skip, err := strconv.Atoi(fields[3])
		if err != nil || skip < 0 {
			return CrashPoint{}, fmt.Errorf("chaos: crash point %q: bad skip %q", s, fields[3])
		}
		cp.Skip = skip
	}
	return cp, nil
}

func parseRecordKind(s string) (wal.Kind, error) {
	for k := wal.KInitiation; k <= wal.KPaxosAccept; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown record kind %q", s)
}

func parseMsgKind(s string) (wire.MsgKind, error) {
	for k := wire.MsgExec; k <= wire.MsgSyncState; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown message kind %q", s)
}

// MatchesRecords reports whether the point is a force-edge point and one of
// recs matches its record selector. Skip counting is the caller's business.
func (cp CrashPoint) MatchesRecords(recs []wal.Record) bool {
	if cp.Edge != BeforeForce && cp.Edge != AfterForce {
		return false
	}
	for _, r := range recs {
		if r.Kind == cp.Rec && r.Role == cp.Role {
			return true
		}
	}
	return false
}

// MatchesSend reports whether the point fires as m leaves its sender.
func (cp CrashPoint) MatchesSend(m wire.Message) bool {
	return cp.Edge == OnSend && cp.Site == m.From && cp.Msg == m.Kind
}

// MatchesDeliver reports whether the point fires as m reaches dest.
func (cp CrashPoint) MatchesDeliver(dest wire.SiteID, m wire.Message) bool {
	return cp.Edge == OnDeliver && cp.Site == dest && cp.Msg == m.Kind
}
