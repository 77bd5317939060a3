// Package metrics collects the cost counters by which the paper's commit
// protocols are compared: messages by kind, forced and total log writes,
// and protocol-table residency (how many terminated transactions a
// coordinator has not yet been allowed to forget — the quantity Theorem 2
// shows grows without bound under C2PC).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prany/internal/wire"
)

// SiteCounters is one site's tallies. Values are cumulative.
type SiteCounters struct {
	Messages map[wire.MsgKind]uint64 // sent, by kind
	Forces   uint64                  // forced-write barriers requested (the protocol cost)
	Appends  uint64                  // log records appended
	PTInsert uint64                  // protocol-table entries created
	PTDelete uint64                  // protocol-table entries discarded

	// Syncs and Synced count the *physical* log flushes behind the Forces:
	// concurrent forces share one barrier, so Syncs < Forces is exactly the
	// coalescing win. Synced is the records those flushes wrote.
	Syncs  uint64
	Synced uint64
	// ShardWaits counts contended protocol-table shard-lock acquisitions —
	// how often two transactions actually collided on one shard.
	ShardWaits uint64
	// NetRetries counts transport-level delivery retries (redials and
	// rewrites after a failed send attempt) charged to the sending site.
	NetRetries uint64
	// ResendsSuppressed counts decision re-sends the coordinator's Tick
	// withheld under its exponential backoff — each one a message the
	// pre-backoff coordinator would have put on the wire.
	ResendsSuppressed uint64

	// Checkpoints and CheckpointCollected count completed log checkpoints
	// and the records they garbage-collected. Recoveries, RecoveryScanned
	// and RecoverySuffix count recovery runs, the stable records each scan
	// read, and how many of those sat after the last checkpoint record (the
	// replay suffix). With checkpointing on, RecoveryScanned is bounded by
	// the active set plus the cadence — the recovery-cost claim of the
	// replay-only state model — where without it the scan grows with
	// history.
	Checkpoints         uint64
	CheckpointCollected uint64
	Recoveries          uint64
	RecoveryScanned     uint64
	RecoverySuffix      uint64

	// Decisions counts decision records fixed durable in the local log —
	// one per transaction that logs its decision, the paper's protocol cost.
	Decisions uint64

	// Frames, FramesBatched and BytesOnWire count the *physical* network
	// writes behind the Messages, the same split Syncs/Synced make for
	// Forces: Frames is the number of wire writes (each a batch of one or
	// more message frames), FramesBatched is the message frames those
	// writes carried, and BytesOnWire is their total encoded size. With
	// frame coalescing Frames < FramesBatched is exactly the batching win;
	// the logical message counts the paper's tables assert are unchanged.
	Frames        uint64
	FramesBatched uint64
	BytesOnWire   uint64
}

// MeanFrameBatch is the average number of message frames per physical
// network write.
func (c SiteCounters) MeanFrameBatch() float64 {
	if c.Frames == 0 {
		return 0
	}
	return float64(c.FramesBatched) / float64(c.Frames)
}

// Retained is the number of protocol-table entries not yet discarded.
func (c SiteCounters) Retained() int64 { return int64(c.PTInsert) - int64(c.PTDelete) }

// TotalMessages sums message counts across kinds.
func (c SiteCounters) TotalMessages() uint64 {
	var n uint64
	for _, v := range c.Messages {
		n += v
	}
	return n
}

// Registry aggregates counters across sites. It is safe for concurrent use.
// Besides the per-site counters it carries one latency histogram per Span;
// those are lock-free and shared across sites (latency distributions are a
// cluster-level observation, unlike the per-site cost tallies).
type Registry struct {
	mu    sync.Mutex
	sites map[wire.SiteID]*SiteCounters
	hists [numSpans]Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sites: make(map[wire.SiteID]*SiteCounters)}
}

func (r *Registry) site(id wire.SiteID) *SiteCounters {
	c := r.sites[id]
	if c == nil {
		c = &SiteCounters{Messages: make(map[wire.MsgKind]uint64)}
		r.sites[id] = c
	}
	return c
}

// Message records that site from sent one message of the given kind.
func (r *Registry) Message(from wire.SiteID, kind wire.MsgKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(from).Messages[kind]++
}

// Force records a forced-write barrier at site id.
func (r *Registry) Force(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).Forces++
}

// Append records a log-record append at site id.
func (r *Registry) Append(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).Appends++
}

// Sync records one physical log flush of records records at site id.
func (r *Registry) Sync(id wire.SiteID, records int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.site(id)
	c.Syncs++
	c.Synced += uint64(records)
}

// ShardWait records one contended protocol-table shard-lock acquisition at
// site id.
func (r *Registry) ShardWait(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).ShardWaits++
}

// NetRetry records one transport-level send retry by site from.
func (r *Registry) NetRetry(from wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(from).NetRetries++
}

// ResendSuppressed records n decision re-sends withheld by site id's
// backoff in one Tick.
func (r *Registry) ResendSuppressed(id wire.SiteID, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).ResendsSuppressed += uint64(n)
}

// Decision records one decision record fixed durable at site id.
func (r *Registry) Decision(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).Decisions++
}

// Frame records one physical network write by site from carrying msgs
// message frames in bytes encoded bytes. A batch can mix messages from
// several local sites; it is charged to the site that opened it, so
// per-site frame counts are approximate in multi-site processes while the
// cluster-wide totals are exact.
func (r *Registry) Frame(from wire.SiteID, msgs, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.site(from)
	c.Frames++
	c.FramesBatched += uint64(msgs)
	c.BytesOnWire += uint64(bytes)
}

// Checkpoint records one completed log checkpoint at site id that
// garbage-collected collected records.
func (r *Registry) Checkpoint(id wire.SiteID, collected int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.site(id)
	c.Checkpoints++
	c.CheckpointCollected += uint64(collected)
}

// Recovery records one recovery run at site id: scanned stable records were
// read, of which suffix sat after the last checkpoint record.
func (r *Registry) Recovery(id wire.SiteID, scanned, suffix int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.site(id)
	c.Recoveries++
	c.RecoveryScanned += uint64(scanned)
	c.RecoverySuffix += uint64(suffix)
}

// PTInsert records a protocol-table insertion at site id.
func (r *Registry) PTInsert(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).PTInsert++
}

// PTDelete records a protocol-table discard at site id.
func (r *Registry) PTDelete(id wire.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.site(id).PTDelete++
}

// Site returns a copy of one site's counters (zero counters if unknown).
func (r *Registry) Site(id wire.SiteID) SiteCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.sites[id]
	if c == nil {
		return SiteCounters{Messages: map[wire.MsgKind]uint64{}}
	}
	out := *c
	out.Messages = make(map[wire.MsgKind]uint64, len(c.Messages))
	for k, v := range c.Messages {
		out.Messages[k] = v
	}
	return out
}

// Total returns counters summed across every site.
func (r *Registry) Total() SiteCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := SiteCounters{Messages: make(map[wire.MsgKind]uint64)}
	for _, c := range r.sites {
		for k, v := range c.Messages {
			out.Messages[k] += v
		}
		out.Forces += c.Forces
		out.Appends += c.Appends
		out.PTInsert += c.PTInsert
		out.PTDelete += c.PTDelete
		out.Syncs += c.Syncs
		out.Synced += c.Synced
		out.ShardWaits += c.ShardWaits
		out.NetRetries += c.NetRetries
		out.ResendsSuppressed += c.ResendsSuppressed
		out.Checkpoints += c.Checkpoints
		out.CheckpointCollected += c.CheckpointCollected
		out.Recoveries += c.Recoveries
		out.RecoveryScanned += c.RecoveryScanned
		out.RecoverySuffix += c.RecoverySuffix
		out.Decisions += c.Decisions
		out.Frames += c.Frames
		out.FramesBatched += c.FramesBatched
		out.BytesOnWire += c.BytesOnWire
	}
	return out
}

// Reset clears all counters and histograms.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sites = make(map[wire.SiteID]*SiteCounters)
	for i := range r.hists {
		r.hists[i].reset()
	}
}

// String renders a per-site table, sites sorted by identifier.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.sites))
	for id := range r.sites {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %9s %10s\n", "site", "msgs", "forces", "syncs", "appends", "retained", "shardwaits")
	for _, id := range ids {
		c := r.sites[wire.SiteID(id)]
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %8d %9d %10d\n", id, c.TotalMessages(), c.Forces, c.Syncs, c.Appends, c.Retained(), c.ShardWaits)
	}
	return b.String()
}
