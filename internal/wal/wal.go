// Package wal implements the write-ahead log that gives every site in this
// repository its stable storage. The commit protocols of the paper are
// defined almost entirely in terms of which log records are written and
// which of them are *forced* — written through to storage that survives a
// crash — so the log models that distinction explicitly:
//
//   - Append buffers a record in volatile memory (a non-forced write).
//   - Force makes every buffered record stable (a forced write). A record
//     appended with AppendForce is stable when the call returns.
//   - Crash discards the volatile tail, exactly what a site failure does.
//
// A Log persists through a Store. MemStore keeps stable bytes in memory and
// is used by the simulator; FileStore writes checksummed records to a file
// and tolerates torn tails. Recovery reads the stable records back with
// Records, and Checkpoint garbage-collects records of terminated
// transactions by rewriting the stable image with only live records.
//
// The force barrier is shared, leader/follower: a forcing caller that finds
// no write in flight writes the whole buffer through itself, with the log
// unlocked; callers arriving meanwhile append behind it and wait, and the
// first of them performs the next write for all of them — one fsync for many
// concurrent transactions, and exactly one Store.Append on the caller's own
// goroutine when nobody else is forcing. A caller that holds several records
// to force at once (a delivery batch, see AppendForceAll) enters the barrier
// once for all of them. The protocols' forced-write points are unchanged; only
// the number of physical barriers shrinks. Stats separates the two notions:
// Forces counts requested forced writes, Syncs counts physical batches.
package wal

import (
	"errors"
	"fmt"
	"sync"

	"prany/internal/wire"
)

// Kind discriminates log records. Whether a record belongs to a site's
// coordinator role or its participant role follows from the transaction
// identifier: records whose TxnID.Coord equals the logging site are
// coordinator records.
type Kind uint8

const (
	// KInitiation is the coordinator's forced initiation (also called
	// "collecting") record of PrC and PrAny. In PrAny it names every
	// participant together with the commit protocol that participant runs.
	KInitiation Kind = iota
	// KCommit is a commit decision record: forced at coordinators before
	// the decision is sent, forced at PrN/PrA participants before the ack,
	// non-forced at PrC participants.
	KCommit
	// KAbort is an abort decision record: forced at PrN coordinators and
	// at PrN/PrC participants, non-forced at PrA participants, and never
	// written at PrA/PrC/PrAny coordinators.
	KAbort
	// KEnd is the coordinator's non-forced end record marking that every
	// expected acknowledgment arrived and the transaction's other records
	// may be garbage-collected.
	KEnd
	// KPrepared is the participant's forced prepared record, written
	// before a yes vote. It carries the subtransaction's undo/redo
	// information so the vote's promise survives a crash.
	KPrepared
	// KRemoteWrites is the coordinator-log protocol's vote record: a CL
	// participant logs nothing locally, so the coordinator force-writes
	// the participant's shipped write set on its behalf when the yes vote
	// arrives. Coord names the participant the writes belong to.
	KRemoteWrites
	// KRecCheckpoint is the recovery checkpoint record a checkpoint writes
	// at the tail of the rewritten image: a snapshot of the live
	// protocol-table entries (active-transaction set plus per-transaction
	// phase) at checkpoint time. Recovery loads the image up to the last
	// checkpoint record and replays only the suffix after it, so the scan
	// is O(active transactions + records since the checkpoint), not
	// O(history). The record is bookkeeping, not protocol state: the
	// Definition-1 judges and the model checker's state hashing ignore it.
	KRecCheckpoint
	// KPaxosPromise is an acceptor's forced promise record: before
	// answering a Phase1a with a promise, the acceptor makes the promised
	// ballot durable so a reboot cannot un-promise it. Ballot carries the
	// promised ballot; Votes names the promised instances.
	KPaxosPromise
	// KPaxosAccept is an acceptor's forced accept record: before a
	// Phase2b leaves the site, the accepted instance values (Votes) and
	// their ballot are stable — the acceptor set is the replicated
	// decision's log, so these forces are the decision's durability.
	KPaxosAccept

	// numKinds bounds the live kinds. Value 9 was the epoch-decision record
	// of an earlier format; decoding rejects it by name (ErrRetiredFormat).
	numKinds
)

var kindNames = [numKinds]string{"initiation", "commit", "abort", "end", "prepared", "remote-writes", "rec-checkpoint",
	"paxos-promise", "paxos-accept"}

// String returns the record kind's name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Role marks which of a site's two roles wrote a record. A site can
// coordinate one transaction while participating in another — or do both
// for the *same* transaction when it holds data itself — and recovery must
// not confuse the two record streams.
type Role uint8

const (
	// RoleCoord marks coordinator records (initiation, decision, end).
	RoleCoord Role = iota
	// RolePart marks participant records (prepared, decision).
	RolePart
	// RoleAcceptor marks replicated-decision acceptor records (promises,
	// accepts, decided tombstones). Keeping them out of the coordinator
	// and participant streams means recovery of those roles never scans
	// consensus state.
	RoleAcceptor

	numRoles
)

// String returns "coord", "part" or "acceptor".
func (r Role) String() string {
	switch r {
	case RolePart:
		return "part"
	case RoleAcceptor:
		return "acceptor"
	default:
		return "coord"
	}
}

// ParticipantInfo names one participant and the commit protocol it runs, as
// recorded in a PrAny initiation record.
type ParticipantInfo struct {
	ID    wire.SiteID
	Proto wire.Protocol
}

// VoteInfo is one accepted Paxos-instance value inside an acceptor record:
// the participant whose vote the instance decides, the vote accepted, and
// the ballot it was accepted at. Bal is per instance, independent of the
// record's Ballot: a KPaxosAccept snapshots every currently-accepted
// instance, and instances untouched by that accept still stand at older
// ballots, which recovery must restore verbatim.
type VoteInfo struct {
	Part wire.SiteID
	Vote wire.Vote
	Bal  uint32
}

// Update is one key mutation with both redo (New) and undo (Old) images.
// It aliases wire.Update so that coordinator-log write sets flow between
// log records and protocol messages without conversion.
type Update = wire.Update

// CheckpointPhase is the protocol-table phase a checkpoint entry records.
type CheckpointPhase uint8

const (
	// CkptVoting is a coordinator entry still collecting votes.
	CkptVoting CheckpointPhase = iota
	// CkptDraining is a decided coordinator entry awaiting acknowledgments.
	CkptDraining
	// CkptExecuting is a participant entry still executing operations.
	CkptExecuting
	// CkptPrepared is an in-doubt participant entry: prepared, undecided.
	CkptPrepared
)

// String names the phase as it appears in dumps and tests.
func (p CheckpointPhase) String() string {
	switch p {
	case CkptVoting:
		return "voting"
	case CkptDraining:
		return "draining"
	case CkptExecuting:
		return "executing"
	default:
		return "prepared"
	}
}

// CheckpointEntry is one live protocol-table entry inside a RecCheckpoint
// record: which transaction, in which of the site's roles, in what phase,
// and — when decided — with what outcome. The protocol records kept by the
// same checkpoint remain the replay source (they carry participant sets and
// write sets); the entry list is the snapshot's account of the active set,
// which recovery uses to bound and cross-check its scan.
type CheckpointEntry struct {
	Txn     wire.TxnID
	Role    Role
	Phase   CheckpointPhase
	Decided bool
	Outcome wire.Outcome
	// Coord is the coordinator to inquire at, for participant entries.
	Coord wire.SiteID
}

// Record is a single log record. Only the fields relevant to the Kind are
// populated.
type Record struct {
	// LSN is the log sequence number, assigned by Append and unique per
	// log in increasing order.
	LSN  uint64
	Kind Kind
	Role Role
	Txn  wire.TxnID

	// Participants is set on initiation records (and on PrN/PrAny
	// coordinator decision records, where the recovery procedure needs the
	// participant set to re-drive the decision phase).
	Participants []ParticipantInfo

	// Coord is set on participant prepared records: where to inquire.
	Coord wire.SiteID

	// Writes is set on prepared records: the subtransaction's undo/redo.
	Writes []Update

	// Ckpt is set on RecCheckpoint records: the live protocol-table
	// snapshot at checkpoint time.
	Ckpt []CheckpointEntry

	// Ballot is set on acceptor records: the promised ballot for
	// KPaxosPromise, the accepted ballot for KPaxosAccept.
	Ballot uint32

	// Votes is set on KPaxosAccept records: the accepted per-instance
	// values stable at that ballot.
	Votes []VoteInfo
}

// Stats counts logging activity. The commit protocols are compared by
// exactly these numbers, so the log maintains them itself.
type Stats struct {
	Appends     uint64 // records appended (forced or not)
	Forces      uint64 // forced writes requested (AppendForce counts one, AppendForceAll one per record)
	Syncs       uint64 // physical Store.Append batches (<= Forces: concurrent barriers share one)
	Synced      uint64 // records made stable by those batches
	MaxSync     uint64 // largest single batch, in records
	Stable      uint64 // records currently stable
	Checkpoints uint64 // completed checkpoints (stable-image rewrites)
}

// Log is a single site's write-ahead log. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	store   Store
	stable  []Record // records known stable
	buffer  []Record // appended but not yet stable; lost on Crash
	nextLSN uint64
	stats   Stats
	closed  bool
	tap     func(rec Record, forced bool)

	// The force barrier. writing is set while a leader is in Store.Append
	// with l.mu released; the records it is writing stay at the front of
	// buffer until the write succeeds. next collects the forcing callers that
	// arrived meanwhile. holds counts Crash, Close and Checkpoint calls that
	// are waiting on idle for the write in flight to end: while it is nonzero
	// no new round starts, so they cannot be starved by back-to-back rounds.
	writing bool
	next    *round
	holds   int
	idle    sync.Cond

	// ckptMu serializes checkpoints against each other. It is taken before
	// l.mu and held across the whole checkpoint, including the filtering and
	// the bulk rewrite that run with l.mu released.
	ckptMu sync.Mutex
	// crashEpoch increments on Crash, so a checkpoint that released l.mu
	// can detect a crash that raced it and abandon the rewrite instead of
	// committing a post-crash image swap.
	crashEpoch uint64
	// sinceCkpt counts records made stable since the last checkpoint;
	// when it reaches ckptEvery the trigger fires (once, until the next
	// checkpoint completes and re-arms it).
	sinceCkpt   int
	ckptEvery   int
	ckptTrigger func()
	ckptPending bool

	onSync func(records int)
}

// round is one pending barrier: the forcing callers that found a write in
// flight, all receiving from wake. When that write ends, one true is sent:
// the member that receives it performs the next physical write for all of
// them. The others receive false when wake is closed, once err is final.
type round struct {
	wake  chan bool
	err   error
	batch []Record // set before the true is sent: what the promoted member writes
	// lsns are the records members are blocked on, one range per member; a
	// concurrent checkpoint never collects them, dead or not.
	lsns []lsnRange
}

// lsnRange is the half-open range [lo, hi) of consecutive LSNs one forcing
// caller appended under a single hold of the log's lock.
type lsnRange struct{ lo, hi uint64 }

// SetTap installs an observer invoked for every appended record, with
// forced reporting whether the append was part of an AppendForce. Tracing
// tools use it; the tap runs under the log's lock and must not call back
// into the log.
func (l *Log) SetTap(tap func(rec Record, forced bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tap = tap
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrLost is returned to forcing callers whose records were discarded by a
// crash while they waited for a round: the force did not happen.
var ErrLost = errors.New("wal: buffered records lost in crash before force completed")

// ErrCheckpointAborted is returned when a crash raced a checkpoint's bulk
// rewrite: the staged image was abandoned and stable storage is unchanged.
var ErrCheckpointAborted = errors.New("wal: checkpoint abandoned by crash")

// Open creates a Log over store, reading back any records already stable in
// it. Opening the store a crashed log used recovers exactly the records that
// had been forced.
func Open(store Store) (*Log, error) {
	recs, err := store.Load()
	if err != nil {
		return nil, fmt.Errorf("wal: loading stable records: %w", err)
	}
	l := &Log{store: store, stable: recs}
	l.idle.L = &l.mu
	for _, r := range recs {
		if r.LSN >= l.nextLSN {
			l.nextLSN = r.LSN + 1
		}
	}
	l.stats.Stable = uint64(len(recs))
	return l, nil
}

// appendLocked buffers rec and returns its LSN. The caller holds l.mu.
func (l *Log) appendLocked(rec Record, forced bool) uint64 {
	rec.LSN = l.nextLSN
	l.nextLSN++
	l.buffer = append(l.buffer, rec)
	l.stats.Appends++
	if l.tap != nil {
		l.tap(rec, forced)
	}
	return rec.LSN
}

// Append buffers rec as a non-forced write and returns its LSN. The record
// becomes stable at the next Force (or is lost if the site crashes first).
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	return l.appendLocked(rec, false), nil
}

// Force writes every buffered record to stable storage. It is the log's
// durability barrier: when Force returns nil, all previously appended
// records survive a crash.
func (l *Log) Force() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.stats.Forces++
	if len(l.buffer) == 0 {
		l.mu.Unlock()
		return nil
	}
	return l.barrier(lsnRange{l.nextLSN - 1, l.nextLSN})
}

// AppendForce appends rec and forces the log in one call, the common forced
// write of the protocols: a nil return means rec survives a crash.
// Concurrent callers share physical writes; a caller alone pays exactly one
// Store.Append on its own goroutine.
func (l *Log) AppendForce(rec Record) (uint64, error) {
	return l.appendForce([]Record{rec})
}

// AppendForceAll appends recs in order and forces the log once: the forced
// writes of several transactions that one caller holds at the same moment
// share a single barrier instead of queueing one behind the other. A nil
// return means every record survives a crash; an error is the error of the
// one physical write that covered them all, and the records stay buffered
// for a later barrier exactly as after a failed AppendForce. While the
// caller waits, every one of the records is protected from a concurrent
// checkpoint.
func (l *Log) AppendForceAll(recs []Record) error {
	_, err := l.appendForce(recs)
	return err
}

// appendForce is AppendForceAll returning the first record's LSN.
func (l *Log) appendForce(recs []Record) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if len(recs) == 0 {
		l.mu.Unlock()
		return 0, nil
	}
	lo := l.nextLSN
	for i := range recs {
		l.appendLocked(recs[i], true)
	}
	l.stats.Forces += uint64(len(recs))
	if err := l.barrier(lsnRange{lo, l.nextLSN}); err != nil {
		return 0, err
	}
	return lo, nil
}

// barrier makes every record buffered so far stable and returns the outcome
// of the physical write that covered them. It is entered with l.mu held and
// returns with it released; lsns are the records the caller is blocked on.
//
// With no write in flight the caller leads: it writes the whole buffer
// itself. Otherwise it joins the next round and waits; when the write in
// flight ends, one member of that round is promoted to write everything
// buffered by then. A failed write reports its error to every caller whose
// record it covered and leaves the records buffered, so a later barrier
// retries them.
func (l *Log) barrier(lsns lsnRange) error {
	var r *round
	var batch []Record
	if l.writing || l.holds > 0 {
		r = l.next
		if r == nil {
			// Buffered, so the promoting send under l.mu never blocks.
			r = &round{wake: make(chan bool, 1)}
			l.next = r
		}
		r.lsns = append(r.lsns, lsns)
		l.mu.Unlock()
		if lead := <-r.wake; !lead {
			return r.err
		}
		batch = r.batch
	} else {
		batch = l.beginWriteLocked()
		l.mu.Unlock()
	}

	var err error
	if n := len(batch); n > 0 {
		if err = l.store.Append(batch); err != nil {
			err = fmt.Errorf("wal: forcing %d records: %w", n, err)
		}
	}
	l.mu.Lock()
	l.endWriteLocked(batch, err)
	l.mu.Unlock()
	if r != nil {
		r.err = err
		close(r.wake)
	}
	return err
}

// beginWriteLocked marks a write in flight over everything buffered and
// returns that batch. The batch aliases the front of l.buffer, which nobody
// modifies until endWriteLocked: appends land behind it.
func (l *Log) beginWriteLocked() []Record {
	l.writing = true
	n := len(l.buffer)
	if n > 0 {
		l.stats.Syncs++
		l.stats.Synced += uint64(n)
		if uint64(n) > l.stats.MaxSync {
			l.stats.MaxSync = uint64(n)
		}
	}
	return l.buffer[:n:n]
}

// endWriteLocked applies the outcome of the write of batch: on success the
// batch moves from the buffer to the stable records. Then it wakes whoever
// waits for the log to go idle and, unless one of them holds the barrier,
// starts the next round.
func (l *Log) endWriteLocked(batch []Record, err error) {
	if n := len(batch); n > 0 && err == nil {
		l.stable = append(growRecords(l.stable, n), batch...)
		l.stats.Stable = uint64(len(l.stable))
		l.buffer = l.buffer[:copy(l.buffer, l.buffer[n:])]
		l.sinceCkpt += n
		if l.ckptEvery > 0 && l.sinceCkpt >= l.ckptEvery && !l.ckptPending && l.ckptTrigger != nil {
			l.ckptPending = true
			l.ckptTrigger()
		}
		if l.onSync != nil {
			l.onSync(n)
		}
	}
	l.writing = false
	l.idle.Broadcast()
	l.startNextLocked()
}

// startNextLocked promotes one member of the pending round to leader, over
// everything buffered right now, unless a write is in flight or held off.
func (l *Log) startNextLocked() {
	if l.next == nil || l.writing || l.holds > 0 {
		return
	}
	r := l.next
	l.next = nil
	r.batch = l.beginWriteLocked()
	r.wake <- true
}

// holdLocked waits out the write in flight and keeps the next one from
// starting until releaseLocked: Crash, Close and the commit step of
// Checkpoint must not touch the buffer or the store under a leader's feet.
func (l *Log) holdLocked() {
	l.holds++
	for l.writing {
		l.idle.Wait()
	}
}

// releaseLocked ends a hold and lets the pending round, if any, proceed.
func (l *Log) releaseLocked() {
	l.holds--
	l.startNextLocked()
}

// failNextLocked fails every caller waiting for a round with err.
func (l *Log) failNextLocked(err error) {
	if r := l.next; r != nil {
		l.next = nil
		r.err = err
		close(r.wake)
	}
}

// SetCheckpointTrigger arms automatic checkpointing: fire is invoked once
// every time `every` records have been made stable since the last completed
// checkpoint. fire runs under the log's lock and must not call back into
// the log synchronously — hand the actual Checkpoint call to another
// goroutine. The trigger re-arms when a checkpoint completes.
func (l *Log) SetCheckpointTrigger(every int, fire func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckptEvery = every
	l.ckptTrigger = fire
}

// OnSync installs an observer invoked (under the log's lock — it must not
// call back into the log) after every physical batch write, with the number
// of records the batch made stable. Metrics collection uses it.
func (l *Log) OnSync(f func(records int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onSync = f
}

// Crash simulates a site failure: every non-forced record is lost. A write
// in flight completes first — those records made it to stable storage before
// the failure. The log remains usable (recovery reads it with Records),
// mirroring a restart on the same stable storage.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holdLocked()
	l.buffer = l.buffer[:0]
	l.crashEpoch++
	// Forcing callers still waiting for a round lost their records with the
	// buffer: their force never happened.
	l.failNextLocked(ErrLost)
	l.releaseLocked()
}

// Records returns the stable records in LSN order. The slice is a copy; the
// caller may keep it. Buffered (non-forced) records are not included: they
// are precisely what recovery cannot see.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.stable))
	copy(out, l.stable)
	return out
}

// All returns stable records followed by still-buffered ones. Tests use it
// to assert on the full logging discipline of a protocol run.
func (l *Log) All() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.stable)+len(l.buffer))
	out = append(out, l.stable...)
	out = append(out, l.buffer...)
	return out
}

// Checkpoint garbage-collects the log: it rewrites stable storage keeping
// only records for which live returns true, and drops dead buffered records
// too. It returns the number of records collected. Operational correctness
// (Definition 1, clauses 2 and 3) demands that this number eventually covers
// every record of every terminated transaction.
//
// When entries is non-nil and anything survives the rewrite, the new image
// ends with a RecCheckpoint record snapshotting entries — the live
// protocol-table state at checkpoint time — so a subsequent recovery can
// treat everything up to that record as the checkpointed image and replay
// only the suffix after it. A previous snapshot record is always dropped
// and replaced. A nil entries writes no snapshot (the judges' final
// garbage-collection pass uses this form, so a fully terminated run still
// empties its logs completely).
//
// Only the brief commit runs under the log's lock. live is the caller's
// code and may take the caller's locks — the same locks under which the
// caller appends to this log — so it is evaluated with the log unlocked,
// over a snapshot: a transaction's records only ever go from live to dead,
// so a verdict that goes stale keeps a record one checkpoint longer, never
// drops a live one. The image is staged (against a Rewriter store) off to
// the side meanwhile; concurrent appends and forces proceed against the old
// image, and records forced in between are carried into the new image at
// commit time unjudged.
func (l *Log) Checkpoint(live func(Record) bool, entries []CheckpointEntry) (int, error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	epoch := l.crashEpoch
	// Stable records are only ever appended to (or replaced, by a checkpoint
	// — and ckptMu is held), so this prefix can be read unlocked.
	boundary := len(l.stable)
	scan := l.stable[:boundary:boundary]
	buffered := append([]Record(nil), l.buffer...)
	l.mu.Unlock()

	// kept becomes the new stable slice, so it grows the way stable does: a
	// just-fit one would have the first force after every checkpoint copy
	// everything retained (an acceptor's tombstones, kept forever) under l.mu.
	var kept []Record
	for _, r := range scan {
		// A previous snapshot is superseded by this checkpoint's own.
		if r.Kind != KRecCheckpoint && live(r) {
			kept = append(growRecords(kept, 1), r)
		}
	}
	deadBuffered := make(map[uint64]bool, len(buffered))
	for _, r := range buffered {
		if !live(r) {
			deadBuffered[r.LSN] = true
		}
	}
	collected := boundary - len(kept)
	image := cloneRecords(kept)
	if entries != nil && (len(entries) > 0 || len(kept) > 0) {
		l.mu.Lock()
		snap := Record{
			Kind: KRecCheckpoint, Role: RoleCoord, LSN: l.nextLSN,
			Ckpt: append([]CheckpointEntry(nil), entries...),
		}
		l.nextLSN++
		l.mu.Unlock()
		kept = append(growRecords(kept, 1), snap)
		image = append(image, snap)
	}
	var pending PendingRewrite // nil against a store without two-phase rewrite
	var err error
	if rw, ok := l.store.(Rewriter); ok {
		// The disk-heavy half: concurrent AppendForce must not stall behind
		// it (they append to the old image; the suffix is reconciled below).
		if pending, err = rw.BeginRewrite(image); err != nil {
			return 0, fmt.Errorf("wal: checkpoint rewrite: %w", err)
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.holdLocked()
	defer l.releaseLocked()
	if l.closed || l.crashEpoch != epoch {
		if pending != nil {
			pending.Abort()
		}
		if l.closed {
			return 0, ErrClosed
		}
		return 0, ErrCheckpointAborted
	}
	// Records forced since the snapshot live only in the old image; carry
	// them over with the switch.
	suffix := l.stable[boundary:]
	if pending != nil {
		err = pending.Commit(cloneRecords(suffix))
	} else {
		err = l.store.Rewrite(append(image, suffix...))
	}
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint rewrite: %w", err)
	}

	keptBuf := l.buffer[:0:0]
	for _, r := range l.buffer {
		if deadBuffered[r.LSN] && !l.awaitedLocked(r.LSN) {
			collected++
			continue
		}
		keptBuf = append(keptBuf, r)
	}
	l.stable = append(growRecords(kept, len(suffix)), suffix...)
	l.buffer = keptBuf
	l.stats.Stable = uint64(len(l.stable))
	l.stats.Checkpoints++
	l.sinceCkpt = 0
	l.ckptPending = false
	return collected, nil
}

// SuffixAfterCheckpoint returns how many of recs sit after the last
// RecCheckpoint record — the replay suffix a recovery scan must process on
// top of the checkpointed image. With no checkpoint record the whole log is
// suffix.
func SuffixAfterCheckpoint(recs []Record) int {
	suffix := len(recs)
	for i, r := range recs {
		if r.Kind == KRecCheckpoint {
			suffix = len(recs) - i - 1
		}
	}
	return suffix
}

// ProtocolRecords counts the protocol records in recs, excluding
// RecCheckpoint snapshots — the measure clause 3 of Definition 1 bounds
// (checkpoint bookkeeping is not retained protocol state).
func ProtocolRecords(recs []Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind != KRecCheckpoint {
			n++
		}
	}
	return n
}

// awaitedLocked reports whether a forcing caller is blocked on lsn: such a
// record is owed a barrier and is never collected. With no write in flight
// (Checkpoint holds the barrier) those callers are the pending round.
func (l *Log) awaitedLocked(lsn uint64) bool {
	if l.next == nil {
		return false
	}
	for _, w := range l.next.lsns {
		if w.lo <= lsn && lsn < w.hi {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the log's activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Stable = uint64(len(l.stable))
	return s
}

// Close closes the log and its store, after the write in flight (if any)
// completes. Buffered records are discarded, as in a crash; callers that
// want them stable must Force first.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holdLocked()
	defer l.releaseLocked()
	if l.closed {
		return nil
	}
	l.closed = true
	l.buffer = nil
	l.failNextLocked(ErrClosed)
	return l.store.Close()
}
