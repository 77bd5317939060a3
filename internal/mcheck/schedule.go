package mcheck

import (
	"fmt"
	"strconv"
	"strings"

	"prany/internal/chaos"
	"prany/internal/core"
	"prany/internal/obs"
	"prany/internal/opcheck"
	"prany/internal/wire"
)

// action is one schedule choice in its textual form — the same encoding
// the explorer searches over and counterexample strings carry:
//
//	d:SRC>DST   deliver the head of the SRC→DST queue
//	vt          fire the coordinator's vote timeout
//	rec:SITE    recover the crashed SITE
//	byz:SRC>DST deliver the head adversarially: the Byzantine DST may
//	            forge in response (one discrete lie per action)
type action string

const voteTimeoutAction action = "vt"

func deliverAction(from, to wire.SiteID) action {
	return action("d:" + string(from) + ">" + string(to))
}

func recoverAction(id wire.SiteID) action {
	return action("rec:" + string(id))
}

func byzDeliverAction(from, to wire.SiteID) action {
	return action("byz:" + string(from) + ">" + string(to))
}

// actKind discriminates the four action forms.
type actKind uint8

const (
	actDeliver actKind = iota
	actVoteTimeout
	actRecover
	actByzDeliver
)

// parts decodes the action. arg1/arg2 are (from, to) for deliveries and
// (site, "") for recoveries.
func (a action) parts() (kind actKind, arg1, arg2 wire.SiteID, err error) {
	s := string(a)
	switch {
	case s == string(voteTimeoutAction):
		return actVoteTimeout, "", "", nil
	case strings.HasPrefix(s, "d:"):
		route := s[len("d:"):]
		i := strings.IndexByte(route, '>')
		if i <= 0 || i == len(route)-1 {
			return 0, "", "", fmt.Errorf("mcheck: malformed deliver action %q", s)
		}
		return actDeliver, wire.SiteID(route[:i]), wire.SiteID(route[i+1:]), nil
	case strings.HasPrefix(s, "byz:"):
		route := s[len("byz:"):]
		i := strings.IndexByte(route, '>')
		if i <= 0 || i == len(route)-1 {
			return 0, "", "", fmt.Errorf("mcheck: malformed byz deliver action %q", s)
		}
		return actByzDeliver, wire.SiteID(route[:i]), wire.SiteID(route[i+1:]), nil
	case strings.HasPrefix(s, "rec:"):
		site := s[len("rec:"):]
		if site == "" {
			return 0, "", "", fmt.Errorf("mcheck: malformed recover action %q", s)
		}
		return actRecover, wire.SiteID(site), "", nil
	default:
		return 0, "", "", fmt.Errorf("mcheck: unknown action %q", s)
	}
}

// Schedule is one fully-determined episode: cluster shape, fault plan and
// the choice sequence. Its string form is what prany-check prints for a
// counterexample and what -replay accepts:
//
//	strategy[/native][+aN][+down][+byz=SITE:codes]|id=Proto,...|tN|crash=enc+enc…|a1,a2,…
//
// e.g. u2pc/PrN|pa=PrA,pc=PrC|t2|crash=pc:od:DECISION:0|vt,rec:pc
// The +aN flag replicates the decision over N acceptor sites; +down makes
// coordinator crashes permanent (the E19 failure model); +byz= makes one
// site Byzantine with the given behavior codes (chaos.ParseAdversary, e.g.
// +byz=pc:li.sa). Plain schedules carry no '+' in the first field, so
// pre-E19 strings parse unchanged. An empty crash section is written
// "crash=-"; an empty action list means "settle and converge with no
// interference".
type Schedule struct {
	Strategy  core.Strategy
	Native    wire.Protocol
	Parts     []PartDecl
	Txns      int
	Crashes   []chaos.CrashPoint
	Actions   []action
	Acceptors int
	CoordDown bool
	Adversary *chaos.Adversary
}

// EncodeSchedule renders the schedule string.
func EncodeSchedule(s Schedule) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(s.Strategy.String()))
	if s.Strategy != core.StrategyPrAny {
		native := s.Native
		if !native.ParticipantProtocol() {
			native = wire.PrN
		}
		b.WriteString("/" + native.String())
	}
	if s.Acceptors > 0 {
		fmt.Fprintf(&b, "+a%d", s.Acceptors)
	}
	if s.CoordDown {
		b.WriteString("+down")
	}
	if s.Adversary != nil {
		b.WriteString("+byz=" + s.Adversary.Encode())
	}
	b.WriteByte('|')
	for i, p := range s.Parts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", p.ID, p.Proto)
	}
	fmt.Fprintf(&b, "|t%d|crash=", s.Txns)
	if len(s.Crashes) == 0 {
		b.WriteByte('-')
	}
	for i, cp := range s.Crashes {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(cp.Encode())
	}
	b.WriteByte('|')
	acts := make([]string, len(s.Actions))
	for i, a := range s.Actions {
		acts[i] = string(a)
	}
	b.WriteString(strings.Join(acts, ","))
	return b.String()
}

// ParseSchedule decodes a schedule string back into a Schedule.
func ParseSchedule(s string) (Schedule, error) {
	var out Schedule
	fields := strings.Split(strings.TrimSpace(s), "|")
	if len(fields) != 5 {
		return out, fmt.Errorf("mcheck: schedule needs 5 |-fields, got %d", len(fields))
	}

	strat := fields[0]
	if i := strings.IndexByte(strat, '+'); i >= 0 {
		for _, flag := range strings.Split(strat[i+1:], "+") {
			switch {
			case flag == "down":
				out.CoordDown = true
			case strings.HasPrefix(flag, "byz="):
				adv, err := chaos.ParseAdversary(flag[len("byz="):])
				if err != nil {
					return out, fmt.Errorf("mcheck: malformed adversary flag %q: %w", flag, err)
				}
				out.Adversary = adv
			case len(flag) > 1 && flag[0] == 'a':
				n, err := strconv.Atoi(flag[1:])
				if err != nil || n <= 0 {
					return out, fmt.Errorf("mcheck: malformed acceptor flag %q", flag)
				}
				out.Acceptors = n
			default:
				return out, fmt.Errorf("mcheck: unknown schedule flag %q", flag)
			}
		}
		strat = strat[:i]
	}
	if i := strings.IndexByte(strat, '/'); i >= 0 {
		native, err := wire.ParseProtocol(strat[i+1:])
		if err != nil {
			return out, fmt.Errorf("mcheck: native protocol: %w", err)
		}
		out.Native = native
		strat = strat[:i]
	}
	switch strings.ToLower(strat) {
	case "prany":
		out.Strategy = core.StrategyPrAny
	case "u2pc":
		out.Strategy = core.StrategyU2PC
	case "c2pc":
		out.Strategy = core.StrategyC2PC
	default:
		return out, fmt.Errorf("mcheck: unknown strategy %q", strat)
	}

	for _, decl := range strings.Split(fields[1], ",") {
		eq := strings.IndexByte(decl, '=')
		if eq <= 0 {
			return out, fmt.Errorf("mcheck: malformed participant %q", decl)
		}
		proto, err := wire.ParseProtocol(decl[eq+1:])
		if err != nil {
			return out, err
		}
		out.Parts = append(out.Parts, PartDecl{ID: wire.SiteID(decl[:eq]), Proto: proto})
	}
	if len(out.Parts) == 0 {
		return out, fmt.Errorf("mcheck: schedule declares no participants")
	}

	if !strings.HasPrefix(fields[2], "t") {
		return out, fmt.Errorf("mcheck: malformed transaction count %q", fields[2])
	}
	n, err := strconv.Atoi(fields[2][1:])
	if err != nil || n <= 0 {
		return out, fmt.Errorf("mcheck: malformed transaction count %q", fields[2])
	}
	out.Txns = n

	crash := strings.TrimPrefix(fields[3], "crash=")
	if crash == fields[3] {
		return out, fmt.Errorf("mcheck: malformed crash section %q", fields[3])
	}
	if crash != "-" && crash != "" {
		for _, enc := range strings.Split(crash, "+") {
			cp, err := chaos.ParseCrashPoint(enc)
			if err != nil {
				return out, err
			}
			out.Crashes = append(out.Crashes, cp)
		}
	}

	if fields[4] != "" {
		for _, a := range strings.Split(fields[4], ",") {
			act := action(strings.TrimSpace(a))
			if _, _, _, err := act.parts(); err != nil {
				return out, err
			}
			out.Actions = append(out.Actions, act)
		}
	}
	return out, nil
}

// Replay re-executes one schedule from scratch — the same deterministic
// machinery the explorer runs — then converges and judges it. The judge's
// report is returned alongside any divergence error (a schedule string
// from a different build or a hand-edit can name impossible actions).
func Replay(s Schedule) (*opcheck.Report, error) {
	return ReplayTraced(s, nil)
}

// ReplayTraced is Replay with a trace recorder attached to the replayed
// cluster, so the counterexample's per-transaction timeline can be rendered
// (prany-check -replay -timeline). The recorder observes; it never alters
// the schedule's execution.
func ReplayTraced(s Schedule, rec *obs.Recorder) (*opcheck.Report, error) {
	cfg := Config{
		Strategy:  s.Strategy,
		Native:    s.Native,
		Parts:     s.Parts,
		Txns:      s.Txns,
		Acceptors: s.Acceptors,
		CoordDown: s.CoordDown,
		Adversary: s.Adversary,
		Obs:       rec,
	}.withDefaults()
	ep := newEpisode(cfg, s.Crashes)
	for _, a := range s.Actions {
		if err := ep.apply(a); err != nil {
			return nil, err
		}
	}
	quiesced := ep.converge()
	if ep.err != nil {
		return nil, ep.err
	}
	return ep.judge(quiesced), nil
}
