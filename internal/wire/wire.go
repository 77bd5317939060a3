// Package wire defines the message vocabulary shared by every atomic commit
// protocol in this repository, the identifiers for sites and transactions,
// and a compact, dependency-free binary codec used by the TCP transport.
//
// The vocabulary follows the paper "Atomicity with Incompatible Presumptions"
// (Al-Houmaily & Chrysanthis, PODS 1999): PREPARE requests, YES/NO votes,
// COMMIT/ABORT decisions, decision ACKs, and recovery-time INQUIRY messages
// answered with decision replies. Subtransaction execution traffic (EXEC and
// EXEC-REPLY) is included so that a full distributed transaction — work phase
// plus commit protocol — can flow over a single transport.
package wire

import (
	"fmt"
	"strconv"
	"strings"
)

// SiteID names a site (a transaction manager plus its resource manager and
// log). Site identifiers are chosen by the deployment and must be unique
// within a cluster.
type SiteID string

// TxnID identifies a distributed transaction globally. It embeds the
// coordinator's site identifier and a coordinator-local sequence number,
// which makes identifiers unique without global coordination — the scheme
// used by tree-of-processes commit protocols.
type TxnID struct {
	Coord SiteID
	Seq   uint64
}

// String renders the identifier as "coord:seq", e.g. "siteA:42".
func (t TxnID) String() string { return string(t.Coord) + ":" + strconv.FormatUint(t.Seq, 10) }

// ParseTxnID parses the "coord:seq" form produced by TxnID.String.
func ParseTxnID(s string) (TxnID, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return TxnID{}, fmt.Errorf("wire: malformed transaction id %q", s)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return TxnID{}, fmt.Errorf("wire: malformed transaction id %q: %v", s, err)
	}
	return TxnID{Coord: SiteID(s[:i]), Seq: seq}, nil
}

// IsZero reports whether the identifier is the zero value.
func (t TxnID) IsZero() bool { return t.Coord == "" && t.Seq == 0 }

// Protocol enumerates the atomic commit protocols a site can run. The three
// participant-side protocols (PrN, PrA, PrC) are the commonly implemented
// two-phase commit variants; the remaining values are coordinator-side
// integration strategies studied by the paper.
type Protocol uint8

const (
	// PrN is presumed nothing — the basic two-phase commit protocol. The
	// coordinator force-writes both commit and abort decisions and expects
	// acknowledgments for both.
	PrN Protocol = iota
	// PrA is presumed abort: missing information about a transaction is
	// interpreted as an abort. Abort decisions are not logged by the
	// coordinator and are not acknowledged by participants.
	PrA
	// PrC is presumed commit: missing information is interpreted as a
	// commit. The coordinator force-writes an initiation record before the
	// voting phase; commit decisions are not acknowledged.
	PrC
	// PrAny is the paper's Presumed Any protocol: the coordinator records
	// each participant's protocol in a forced initiation record and adopts
	// the presumption of whichever participant inquires.
	PrAny
	// U2PC is the union two-phase commit straw man of Section 2: the
	// coordinator speaks each participant's dialect but forgets
	// transactions by its own native presumption. It violates atomicity
	// (Theorem 1) and exists here to demonstrate that violation.
	U2PC
	// C2PC is the coordinator two-phase commit straw man of Section 3: it
	// never forgets a transaction until every acknowledgment arrives, so
	// it is functionally correct but retains some transactions forever
	// (Theorem 2).
	C2PC
	// IYV is the implicit yes-vote protocol (Al-Houmaily & Chrysanthis,
	// the paper's reference [3]): a one-phase commit for fast networks.
	// The participant force-logs each operation's redo/undo before
	// acknowledging it, so every operation acknowledgment is an implicit
	// yes vote and the explicit voting phase disappears. Decisions follow
	// presumed-abort discipline: commits are force-logged and
	// acknowledged, aborts are presumed. The paper's conclusion names IYV
	// as a protocol the operational correctness criterion should extend
	// to; this implementation integrates it under PrAny.
	IYV
	// CL is the coordinator log protocol (Stamos & Cristian, the paper's
	// reference [17]): participants perform no commit-processing logging
	// at all. A CL participant ships its write set with its yes vote; the
	// coordinator force-logs it on the participant's behalf, attaches the
	// writes to decisions (so a participant that lost its volatile state
	// can still enforce), and expects acknowledgments for both outcomes —
	// its log is the participant's only stable memory, so it may forget
	// nothing until the participant has. Like IYV, CL is one of the
	// protocols the paper's conclusion proposes integrating under the
	// operational correctness criterion.
	CL
)

var protocolNames = [...]string{"PrN", "PrA", "PrC", "PrAny", "U2PC", "C2PC", "IYV", "CL"}

// String returns the conventional name of the protocol.
func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return "Protocol(" + strconv.Itoa(int(p)) + ")"
}

// Valid reports whether p is one of the defined protocols.
func (p Protocol) Valid() bool { return int(p) < len(protocolNames) }

// ParseProtocol converts a case-insensitive protocol name ("prn", "PrAny",
// ...) to its Protocol value.
func ParseProtocol(s string) (Protocol, error) {
	for i, n := range protocolNames {
		if strings.EqualFold(n, s) {
			return Protocol(i), nil
		}
	}
	return 0, fmt.Errorf("wire: unknown protocol %q", s)
}

// Presume is a presumption: the outcome assumed for a transaction nothing
// is known about. Under PresumeNothing no outcome is assumed: the answer
// must come from a record or be waited for.
type Presume uint8

// The presumptions. PresumeAbort and PresumeCommit follow Abort and Commit
// in order.
const (
	PresumeNothing Presume = iota
	PresumeAbort
	PresumeCommit
)

// Is reports whether p presumes o.
func (p Presume) Is(o Outcome) bool { return p == PresumeAbort+Presume(o) }

// Rule is one protocol's row of the paper's integration table (DESIGN.md
// §5). It states the two presumptions and the columns that do not follow
// from them; every forcing, acknowledgment and forgetting rule is a method
// derived from the row, so a new dialect is one more row.
type Rule struct {
	// Part is the outcome a participant running the protocol may be told
	// by presumption once its coordinator has forgotten: the one outcome it
	// never acknowledges. PrN and CL participants acknowledge both, so
	// theirs is PresumeNothing, as is every coordinator-only row's.
	Part Presume
	// Coord is what a coordinator running the protocol presumes for a
	// transaction it holds no records of. A participant can run exactly the
	// protocols that have one; the coordinator-only strategies (PrAny, U2PC,
	// C2PC) have none of their own.
	Coord Presume
	// OnePhase: the participant is implicitly prepared by its operation
	// acknowledgments, so the coordinator sends no PREPARE and counts it as
	// a standing yes vote (IYV).
	OnePhase bool
	// ShipsWrites: the participant logs nothing locally and ships its
	// write set with its yes vote; decisions to it carry the writes back
	// (coordinator log).
	ShipsWrites bool
	// EndsBoth: the coordinator closes the transaction with an end record
	// on both outcomes. PrAny needs it: the acks it awaits are its
	// participants', not its own row's, yet every transaction leaves it an
	// initiation record recovery would act on. This is the one forgetting
	// rule not derived from the presumptions.
	EndsBoth bool
}

// rules is the table, one row per protocol.
var rules = [...]Rule{
	PrN:   {Part: PresumeNothing, Coord: PresumeAbort},
	PrA:   {Part: PresumeAbort, Coord: PresumeAbort},
	PrC:   {Part: PresumeCommit, Coord: PresumeCommit},
	PrAny: {EndsBoth: true},
	U2PC:  {},
	C2PC:  {},
	IYV:   {Part: PresumeAbort, Coord: PresumeAbort, OnePhase: true},
	CL:    {Part: PresumeNothing, Coord: PresumeAbort, ShipsWrites: true},
}

// Rule returns p's row of the table. An undefined protocol gets the empty
// row: no participant protocol, acknowledging nothing.
func (p Protocol) Rule() Rule {
	if int(p) < len(rules) {
		return rules[p]
	}
	return Rule{}
}

// Acks reports whether a participant running the protocol acknowledges a
// decision with outcome o: every participant protocol does, except for the
// outcome its participants are presumed to learn. Coordinator-only rows
// acknowledge nothing.
func (r Rule) Acks(o Outcome) bool { return r.Coord != PresumeNothing && !r.Part.Is(o) }

// ForcesInitiation reports whether a coordinator running the protocol
// forces an initiation record before any PREPARE: unless it presumes abort,
// an undecided transaction lost in a crash would be indistinguishable from
// one it may presume (PrC and PrAny).
func (r Rule) ForcesInitiation() bool { return r.Coord != PresumeAbort }

// ForcesAbort reports whether a coordinator running the protocol forces its
// abort decision record: its participants acknowledge aborts, so it must
// remember one across a crash, and it has no initiation record to rebuild
// the abort from (PrN and CL).
func (r Rule) ForcesAbort() bool { return r.Acks(Abort) && !r.ForcesInitiation() }

// EndsOn reports whether a coordinator running the protocol writes an end
// record once the acknowledgments for outcome o are in: when it waited for
// any (Definition 2's forgetting point), and always under EndsBoth.
func (r Rule) EndsOn(o Outcome) bool { return r.EndsBoth || r.Acks(o) }

// ParticipantProtocol reports whether p is a protocol a participant can
// run: PrN, PrA, PrC, IYV or CL. Coordinator-only strategies (PrAny, U2PC,
// C2PC) are not valid participant protocols.
func (p Protocol) ParticipantProtocol() bool { return p.Rule().Coord != PresumeNothing }

// ShipsWrites reports whether p's participants ship their write sets to the
// coordinator instead of logging (see Rule.ShipsWrites).
func (p Protocol) ShipsWrites() bool { return p.Rule().ShipsWrites }

// OnePhase reports whether p eliminates the explicit voting phase (see
// Rule.OnePhase).
func (p Protocol) OnePhase() bool { return p.Rule().OnePhase }

// Presumption returns the outcome a coordinator running protocol p presumes
// for a transaction it holds no information about, and whether such a
// presumption exists. PrN's presumption is the "hidden" abort presumption
// the paper describes: after a failure, active transactions with no decision
// record are treated as aborted. PrAny has no a-priori presumption — it
// adopts the inquirer's — so ok is false, and o is Abort.
func (p Protocol) Presumption() (o Outcome, ok bool) {
	c := p.Rule().Coord
	if c == PresumeNothing {
		return Abort, false
	}
	return Outcome(c - PresumeAbort), true
}

// Acks reports whether a participant running protocol p acknowledges
// decisions with outcome o.
func (p Protocol) Acks(o Outcome) bool { return p.Rule().Acks(o) }

// Outcome is the final fate of a transaction.
type Outcome uint8

const (
	// Abort is the abort outcome. It is the zero value on purpose: an
	// unset outcome must never read as commit.
	Abort Outcome = iota
	// Commit is the commit outcome.
	Commit
)

// Valid reports whether o is one of the two defined outcomes.
func (o Outcome) Valid() bool { return o == Abort || o == Commit }

// String returns "abort" or "commit".
func (o Outcome) String() string {
	if o == Commit {
		return "commit"
	}
	return "abort"
}

// Vote is a participant's answer to a PREPARE request.
type Vote uint8

const (
	// VoteNo rejects the transaction; the participant has unilaterally
	// aborted and will not wait for a decision.
	VoteNo Vote = iota
	// VoteYes promises the participant can commit and blocks it until the
	// decision arrives.
	VoteYes
	// VoteReadOnly is the read-only optimization (Section 5 of the paper
	// lists it among the optimizations the correctness criterion covers):
	// the participant performed no updates, releases its locks at once and
	// drops out of the decision phase entirely.
	VoteReadOnly
)

// Valid reports whether v is one of the defined votes.
func (v Vote) Valid() bool { return v <= VoteReadOnly }

// String returns "no", "yes" or "read-only".
func (v Vote) String() string {
	switch v {
	case VoteYes:
		return "yes"
	case VoteReadOnly:
		return "read-only"
	default:
		return "no"
	}
}

// MsgKind discriminates protocol messages.
type MsgKind uint8

const (
	// MsgExec carries subtransaction operations from the coordinator's
	// transaction manager to a participant during the execution phase.
	MsgExec MsgKind = iota
	// MsgExecReply carries operation results (or an execution error) back.
	MsgExecReply
	// MsgPrepare starts the voting phase at one participant.
	MsgPrepare
	// MsgVote carries a participant's vote.
	MsgVote
	// MsgDecision carries the coordinator's final decision. Replies to
	// inquiries are also decision messages (with Inquiry set on the
	// request they answer).
	MsgDecision
	// MsgAck acknowledges a decision.
	MsgAck
	// MsgInquiry asks the coordinator for the outcome of a transaction the
	// sender is in doubt about (recovery traffic).
	MsgInquiry
	// MsgRecoverSite is a site-level recovery announcement from a
	// coordinator-log participant: having no log of its own, a recovering
	// CL site cannot name its in-doubt transactions, so it asks the
	// coordinator to re-drive everything outstanding for it.
	MsgRecoverSite

	// The remaining kinds belong to the replicated decision subsystem
	// (Paxos Commit, Gray & Lamport): the coordinator's decision step runs
	// one consensus instance per participant vote across 2F+1 acceptor
	// sites, so the decision survives coordinator failure.

	// MsgVoteForward is the ballot-0-optimized Phase2a: the coordinator
	// forwards the vote set (one instance value per participant, with the
	// full roster) to each acceptor, pre-authorized at ballot zero.
	MsgVoteForward
	// MsgPhase1a opens a higher ballot at an acceptor: a takeover leader
	// (or a recovering coordinator learning an outcome) asks for promises.
	MsgPhase1a
	// MsgPhase1b is the promise reply: accepted instance values with their
	// ballots (instances with none are simply absent), the roster if known,
	// and the decided outcome if this acceptor already holds one.
	MsgPhase1b
	// MsgPhase2a proposes instance values at a ballot above zero.
	MsgPhase2a
	// MsgPhase2b reports which proposed instances an acceptor accepted
	// (and durably logged) at the message's ballot.
	MsgPhase2b
	// MsgPaxosEnd tells acceptors a decided transaction has terminated at
	// the coordinator: they drop instance state and retain only a compact
	// decided tombstone.
	MsgPaxosEnd
	// MsgSyncRequest asks peer acceptors for state transfer after a
	// reboot: the peer answers from its checkpoint-image-backed state.
	MsgSyncRequest
	// MsgSyncState carries one transaction's acceptor state (instances,
	// roster, decided outcome) to a rebooted peer.
	MsgSyncState
)

var msgKindNames = [...]string{"EXEC", "EXEC-REPLY", "PREPARE", "VOTE", "DECISION", "ACK", "INQUIRY", "RECOVER-SITE",
	"VOTE-FWD", "PHASE1A", "PHASE1B", "PHASE2A", "PHASE2B", "PAXOS-END", "SYNC-REQ", "SYNC-STATE"}

// String returns the wire name of the kind, e.g. "PREPARE".
func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// Valid reports whether k is one of the defined message kinds.
func (k MsgKind) Valid() bool { return int(k) < len(msgKindNames) }

// OpKind discriminates resource-manager operations.
type OpKind uint8

const (
	// OpGet reads a key.
	OpGet OpKind = iota
	// OpPut writes a key.
	OpPut
	// OpDelete removes a key.
	OpDelete
)

// Valid reports whether k is one of the defined operation kinds.
func (k OpKind) Valid() bool { return k <= OpDelete }

// String returns "get", "put" or "delete".
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return "get"
	}
}

// Op is one resource-manager operation executed at a participant on behalf
// of a subtransaction.
type Op struct {
	Kind  OpKind
	Key   string
	Value string // ignored for get/delete
}

// Update is one key mutation with both redo (New) and undo (Old) images.
// It lives in this package because the coordinator-log protocol ships
// updates over the wire: CL participants log nothing locally and attach
// their write sets to their votes instead. The wal package aliases it.
type Update struct {
	Key       string
	Old       string
	OldExists bool
	New       string
	NewExists bool
}

// InstanceVote is one Paxos Commit instance's value: what participant Part
// voted, as proposed or accepted at some ballot. Bal is the ballot the value
// was accepted at (Phase1b replies); Free marks a Phase2a value the leader
// synthesized for a free instance — no promise-quorum member reported an
// accepted value, so the leader proposes VoteNo and fixes the abort on a
// quorum (Gray & Lamport's free-instance rule) instead of inferring it from
// the instance's absence.
type InstanceVote struct {
	Part SiteID
	Vote Vote
	Bal  uint32
	Free bool
}

// RosterEntry names one participant of a replicated-decision transaction
// with its commit protocol, so a takeover leader can decide over the full
// instance set and address every blocked participant.
type RosterEntry struct {
	ID    SiteID
	Proto Protocol
}

// Message is the single envelope exchanged between sites. Fields beyond
// Kind, Txn, From and To are meaningful only for particular kinds; unused
// fields are zero.
type Message struct {
	Kind MsgKind
	Txn  TxnID
	From SiteID
	To   SiteID

	Vote    Vote    // MsgVote
	Outcome Outcome // MsgDecision, MsgAck (echoes the acked outcome)

	Ops     []Op     // MsgExec
	Results []string // MsgExecReply: one result per Get, in order
	Err     string   // MsgExecReply: non-empty if execution failed

	// Writes carries a write set: on a CL participant's yes vote (its
	// records, shipped for the coordinator to log) and on decisions sent
	// to CL participants (so a site that lost its volatile state can still
	// enforce).
	Writes []Update

	// Proto is the sender's participant protocol. It rides on votes and
	// inquiries so a coordinator can serve sites that joined after its
	// participants'-commit-protocol table was last synchronized.
	Proto Protocol

	// Ballot orders competing leaders of the replicated decision: the
	// coordinator's fast path is ballot 0; takeover leaders and a
	// recovering coordinator use higher ballots, partitioned by leader
	// slot so two leaders never share one. Paxos kinds only.
	Ballot uint32
	// Decided marks a MsgSyncState or MsgPhase1b that carries a fixed
	// outcome (the Outcome field) rather than open instance state.
	Decided bool
	// Insts carries per-participant instance values: proposed values on
	// MsgVoteForward/MsgPhase2a, accepted values on MsgPhase1b/MsgPhase2b
	// and MsgSyncState.
	Insts []InstanceVote
	// Roster is the full participant set of the transaction, attached to
	// MsgVoteForward (and echoed on MsgPhase1b/MsgSyncState) so acceptors
	// can run a takeover over the complete instance set.
	Roster []RosterEntry

	// Rx is receive-only: the codec never encodes it. A transport's delivery
	// loop points it at that loop's Delivery for the duration of the handler
	// call; it is nil on a message handed over in-process by Send and on any
	// message that did not come off a delivery loop.
	Rx *Delivery
}

// Delivery is what a delivery loop — one inbound connection, one mailbox —
// tells the handler about where a message sits in what the loop has already
// read. The loop's goroutine owns it: a handler may use it only until it
// returns and must not hand it to another goroutine.
type Delivery struct {
	// More reports that a complete next message for the same site was
	// already read when this one was delivered: the handler will be called
	// again on this goroutine without the loop blocking in between. A handler
	// may therefore defer work (a forced write, say) past its return while
	// More is set, and must have none outstanding when it returns from a
	// message that has More clear.
	More bool
	// Stage belongs to the handler: state it keeps from one message of this
	// loop to the next. The transport never touches it.
	Stage any
}

// String renders a short human-readable form used by traces and tests.
func (m Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s->%s", m.Kind, m.Txn, m.From, m.To)
	switch m.Kind {
	case MsgVote:
		fmt.Fprintf(&b, " %s", m.Vote)
	case MsgDecision, MsgAck:
		fmt.Fprintf(&b, " %s", m.Outcome)
	case MsgExec:
		fmt.Fprintf(&b, " %d ops", len(m.Ops))
	case MsgExecReply:
		if m.Err != "" {
			fmt.Fprintf(&b, " err=%s", m.Err)
		}
	}
	return b.String()
}
