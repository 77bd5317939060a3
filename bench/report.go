package main

import (
	"math"
	"sort"

	"prany/internal/metrics"
	"prany/internal/wal"
	"prany/internal/wire"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these names,
// units and directions, and bench_test.go holds the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"tps", "txns/s", "higher"},
	{"txn_p50_ms", "ms", "lower"},
	{"txn_p90_ms", "ms", "lower"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p90_ms", "ms", "lower"},
	{"cpu_us_per_txn", "us", "lower"},
}

var perLayerDefs = []metricDef{
	{"site.begin_us_mean", "us", "lower"},
	{"site.exec_rtt_us_p50", "us", "lower"},
	{"site.exec_rtt_us_p99", "us", "lower"},
	{"site.exec_share", "ratio", "lower"},
	{"site.commit_share", "ratio", "lower"},

	{"core.msgs_per_txn", "count", "lower"},
	{"core.handler_us_per_txn", "us", "lower"},
	{"core.self_us_per_txn", "us", "lower"},
	{"core.prepare_ms_p50", "ms", "lower"},
	{"core.decision_ms_p50", "ms", "lower"},
	{"core.ack_drain_ms_p50", "ms", "lower"},
	{"core.shard_waits_per_ktxn", "count", "lower"},
	{"core.pt_retained", "count", "lower"},
	{"core.commit_txn_ms_p50", "ms", "lower"},
	{"core.abort_txn_ms_p50", "ms", "lower"},

	{"transport.sends_per_txn", "count", "lower"},
	{"transport.send_us_mean", "us", "lower"},
	{"transport.frames_per_txn", "count", "lower"},
	{"transport.msgs_per_frame", "count", "higher"},
	{"transport.bytes_per_txn", "bytes", "lower"},
	{"transport.flush_ms_p50", "ms", "lower"},
	{"transport.net_retries", "count", "lower"},
	{"transport.rtt_us_p50", "us", "lower"},

	{"wire.encode_ns_op", "ns", "lower"},
	{"wire.decode_ns_op", "ns", "lower"},
	{"wire.allocs_op", "count", "lower"},

	{"wal.coord.forces_per_txn", "count", "lower"},
	{"wal.coord.appends_per_txn", "count", "lower"},
	{"wal.coord.recs_per_append", "count", "higher"},
	{"wal.coord.device_us_mean", "us", "lower"},
	{"wal.coord.device_busy", "ratio", "lower"},
	{"wal.coord.force_ms_p50", "ms", "lower"},
	{"wal.coord.force_wait_us_mean", "us", "lower"},
	{"wal.part.forces_per_txn", "count", "lower"},
	{"wal.part.appends_per_txn", "count", "lower"},
	{"wal.part.recs_per_append", "count", "higher"},
	{"wal.part.device_us_mean", "us", "lower"},
	{"wal.part.device_busy", "ratio", "lower"},
	{"wal.part.force_ms_p50", "ms", "lower"},
	{"wal.part.force_wait_us_mean", "us", "lower"},
	{"wal.bytes_per_txn", "bytes", "lower"},
	{"wal.fsync_probe_us", "us", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.retained_recs", "count", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"wal.recover_us_per_rec", "us", "lower"},

	{"kvstore.exec_us_mean", "us", "lower"},
	{"kvstore.exec_us_p99", "us", "lower"},
	{"kvstore.prepare_us_mean", "us", "lower"},
	{"kvstore.commit_us_mean", "us", "lower"},
	{"kvstore.abort_us_mean", "us", "lower"},
	{"kvstore.busy_us_per_txn", "us", "lower"},

	{"lockmgr.acquire_release_ns_op", "ns", "lower"},
	{"lockmgr.contended_handoff_us", "us", "lower"},

	{"consensus.msgs_per_txn", "count", "lower"},
	{"consensus.acceptor_forces_per_txn", "count", "lower"},
	{"consensus.acceptor_device_busy", "ratio", "lower"},

	{"metrics.message_ns_op", "ns", "lower"},
	{"metrics.force_ns_op", "ns", "lower"},

	{"proc.rss_mb", "MB", "lower"},
	{"proc.allocs_per_txn", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines_end", "count", "lower"},

	{"bench.fail_ratio", "ratio", "lower"},
	{"bench.txn_p99_ms", "ms", "lower"},
	{"bench.commit_p99_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.sample_n", "count", "higher"},
	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.budget_gap", "ratio", "lower"},
	{"bench.round_spread", "ratio", "lower"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midMean is the interquartile mean: the mean of the middle half of xs.
// Per-round values are summarised with it. It ignores a stalled round as a
// median does, and where a workload drifts over a run — paxos-file slows as
// its acceptors' history grows — it averages the middle rounds instead of
// reporting whichever single round falls in the middle.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func sortedNS(xs []int64) []int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// started is the transactions that ran (everything attempted but refused).
func (m *measurement) started() float64 {
	n := 0
	for i := range m.recs {
		if !m.recs[i].refused {
			n++
		}
	}
	return float64(n)
}

// byRound groups the measured transactions that ran by round (open loop:
// by slice of the window).
func (m *measurement) byRound() [][]*txnRec {
	groups := make([][]*txnRec, len(m.rounds))
	for i := range m.recs {
		if r := &m.recs[i]; !r.refused {
			groups[r.round] = append(groups[r.round], r)
		}
	}
	return groups
}

// roundTPS is per-round throughput of planned-outcome transactions.
func (m *measurement) roundTPS() []float64 {
	var out []float64
	for i, g := range m.byRound() {
		ok := 0
		for _, r := range g {
			if r.ok {
				ok++
			}
		}
		out = append(out, float64(ok)/m.rounds[i].wall.Seconds())
	}
	return out
}

// tps is the middle rounds' throughput. The open-loop window is one piece
// of work, so there it is goodput over the whole window.
func (m *measurement) tps() float64 {
	if !m.w.Open {
		return midMean(m.roundTPS())
	}
	ok := 0
	for i := range m.recs {
		if m.recs[i].ok {
			ok++
		}
	}
	return float64(ok) / (float64(m.wallNS) / 1e9)
}

func txnLatency(r *txnRec) int64    { return r.end - r.due }
func commitLatency(r *txnRec) int64 { return r.end - r.commit0 }

// roundPercentile is the interquartile mean over rounds of each round's
// exact q-quantile of lat: one stalled round moves it as little as one
// stalled round should.
func (m *measurement) roundPercentile(lat func(*txnRec) int64, q float64) float64 {
	var per []float64
	for _, g := range m.byRound() {
		if len(g) == 0 {
			continue
		}
		xs := make([]int64, len(g))
		for i, r := range g {
			xs[i] = lat(r)
		}
		per = append(per, float64(percentile(sortedNS(xs), q)))
	}
	return midMean(per)
}

// endToEnd computes the metrics a user of the system would see. They are
// taken from an untraced run. Each but setup_s is an interquartile mean over
// the measured rounds.
func endToEnd(m *measurement) map[string]float64 {
	var cpu []float64
	for i, g := range m.byRound() {
		if len(g) > 0 {
			cpu = append(cpu, float64(m.rounds[i].cpu)/1e3/float64(len(g)))
		}
	}
	return map[string]float64{
		"setup_s":        median(m.setupS),
		"tps":            m.tps(),
		"txn_p50_ms":     m.roundPercentile(txnLatency, 0.50) / 1e6,
		"txn_p90_ms":     m.roundPercentile(txnLatency, 0.90) / 1e6,
		"commit_p50_ms":  m.roundPercentile(commitLatency, 0.50) / 1e6,
		"commit_p90_ms":  m.roundPercentile(commitLatency, 0.90) / 1e6,
		"cpu_us_per_txn": midMean(cpu),
	}
}

// mergeHist sums one span's histogram over sites.
func mergeHist(regs []siteRegs, sp metrics.Span) metrics.HistSnapshot {
	var out metrics.HistSnapshot
	for _, r := range regs {
		h := r.hists[sp]
		out.Count += h.Count
		out.Sum += h.Sum
		for i := range h.Buckets {
			out.Buckets[i] += h.Buckets[i]
		}
	}
	return out
}

// walRole computes one role's WAL metrics over the sites that play it:
// Registry counters and force spans for the logical side, the store shim
// for the physical side.
func walRole(out map[string]float64, prefix string, m *measurement, nodes []int, role wal.Role) {
	txns := m.started()
	var forces, appends, recs, deviceNS, busiest float64
	var regs []siteRegs
	for _, i := range nodes {
		st := m.tr.sites[i]
		forces += float64(m.regs[i].c.Forces)
		appends += float64(st.appends[role].n.Load())
		recs += float64(st.recs[role].Load())
		deviceNS += float64(st.appends[role].ns.Load())
		// The device is shared by every role logging at the site.
		var siteNS float64
		for r := range st.appends {
			siteNS += float64(st.appends[r].ns.Load())
		}
		busiest = math.Max(busiest, ratio(siteNS, float64(m.wallNS)))
		regs = append(regs, m.regs[i])
	}
	force := mergeHist(regs, metrics.SpanWALForce)
	out[prefix+"forces_per_txn"] = ratio(forces, txns)
	out[prefix+"appends_per_txn"] = ratio(appends, txns)
	out[prefix+"recs_per_append"] = ratio(recs, appends)
	out[prefix+"device_us_mean"] = ratio(deviceNS/1e3, appends)
	out[prefix+"device_busy"] = busiest
	out[prefix+"force_ms_p50"] = float64(force.P50()) / 1e6
	out[prefix+"force_wait_us_mean"] = math.Max(0, ratio(float64(force.Sum)-deviceNS, float64(force.Count))/1e3)
}

// perLayer computes the per-layer metrics: m is the traced run, ref the
// untraced run of the same workload it is compared with, pr the probes.
func perLayer(m, ref *measurement, pr probes, selfRatio float64) map[string]float64 {
	out := make(map[string]float64, len(perLayerDefs))
	txns := m.started()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	all := []int{0, 1, 2, 3}
	parts := all[1:]

	// site: the client-side spans.
	var beginNS, execNS, commitNS, txnNS float64
	var execs, commits, aborts []int64
	for i := range m.recs {
		r := &m.recs[i]
		if r.refused {
			continue
		}
		beginNS += float64(r.begun - r.start)
		for e := 0; e < int(r.nexec); e++ {
			d := r.exec[e][1] - r.exec[e][0]
			execNS += float64(d)
			execs = append(execs, d)
		}
		commitNS += float64(r.end - r.commit0)
		txnNS += float64(r.end - r.start)
		if r.abort {
			aborts = append(aborts, r.end-r.commit0)
		} else {
			commits = append(commits, r.end-r.commit0)
		}
	}
	sortedNS(execs)
	out["site.begin_us_mean"] = ratio(beginNS/1e3, txns)
	out["site.exec_rtt_us_p50"] = float64(percentile(execs, 0.50)) / 1e3
	out["site.exec_rtt_us_p99"] = float64(percentile(execs, 0.99)) / 1e3
	out["site.exec_share"] = ratio(execNS, txnNS)
	out["site.commit_share"] = ratio(commitNS, txnNS)
	out["bench.budget_gap"] = 1 - ratio(beginNS+execNS+commitNS, txnNS)

	// core, transport, consensus: Registry counters and shim tallies.
	var msgs, paxosMsgs, shardWaits, frames, framed, bytes, retries float64
	var handlerNS, sendN, sendNS float64
	for i := range all {
		c := m.regs[i].c
		for k, n := range c.Messages {
			msgs += float64(n)
			if k >= wire.MsgVoteForward {
				paxosMsgs += float64(n)
			}
		}
		shardWaits += float64(c.ShardWaits)
		frames += float64(c.Frames)
		framed += float64(c.FramesBatched)
		bytes += float64(c.BytesOnWire)
		retries += float64(c.NetRetries)
		st := m.tr.sites[i]
		for k := range st.handler {
			handlerNS += float64(st.handler[k].ns.Load())
		}
		sendN += float64(st.sends.n.Load())
		sendNS += float64(st.sends.ns.Load())
	}
	out["core.msgs_per_txn"] = ratio(msgs, txns)
	out["core.handler_us_per_txn"] = ratio(handlerNS/1e3, txns)
	out["core.self_us_per_txn"] = ratio(handlerNS/1e3, txns) * selfRatio
	out["core.prepare_ms_p50"] = ms(int64(m.regs[0].hists[metrics.SpanPrepare].P50()))
	out["core.decision_ms_p50"] = ms(int64(mergeHist(m.regs[1:], metrics.SpanDecision).P50()))
	out["core.ack_drain_ms_p50"] = ms(int64(m.regs[0].hists[metrics.SpanAck].P50()))
	out["core.shard_waits_per_ktxn"] = ratio(shardWaits*1000, txns)
	out["core.pt_retained"] = float64(m.retainedPT)
	out["core.commit_txn_ms_p50"] = ms(percentile(sortedNS(commits), 0.5))
	out["core.abort_txn_ms_p50"] = ms(percentile(sortedNS(aborts), 0.5))

	out["transport.sends_per_txn"] = ratio(sendN, txns)
	out["transport.send_us_mean"] = ratio(sendNS/1e3, sendN)
	out["transport.frames_per_txn"] = ratio(frames, txns)
	out["transport.msgs_per_frame"] = ratio(framed, frames)
	out["transport.bytes_per_txn"] = ratio(bytes, txns)
	out["transport.flush_ms_p50"] = ms(int64(mergeHist(m.regs, metrics.SpanFrameFlush).P50()))
	out["transport.net_retries"] = retries
	out["transport.rtt_us_p50"] = pr.rttUS

	out["wire.encode_ns_op"] = pr.wireEncodeNS
	out["wire.decode_ns_op"] = pr.wireDecodeNS
	out["wire.allocs_op"] = pr.wireAllocs

	// wal: per role, then the log as a whole.
	walRole(out, "wal.coord.", m, all[:1], wal.RoleCoord)
	walRole(out, "wal.part.", m, parts, wal.RolePart)
	out["wal.bytes_per_txn"] = ratio(float64(m.logGrowth), txns)
	out["wal.fsync_probe_us"] = pr.fsyncUS
	out["wal.checkpoint_ms"] = median(m.checkpointMS)
	out["wal.retained_recs"] = float64(m.retainedRecs)
	out["wal.recover_ms"] = m.recoverMS
	out["wal.recover_us_per_rec"] = ratio(m.recoverMS*1e3, float64(m.recoverScanned))

	// kvstore: the resource-manager shim at the three participants.
	var rm [4]opStat
	var rmExec []int64
	var accRecs, accBusy float64
	for _, i := range parts {
		st := m.tr.sites[i]
		for op := range rm {
			rm[op].n.Add(st.rm[op].n.Load())
			rm[op].ns.Add(st.rm[op].ns.Load())
		}
		rmExec = append(rmExec, st.execNS.all()...)
		accRecs += float64(st.recs[wal.RoleAcceptor].Load())
		accBusy = math.Max(accBusy, ratio(float64(st.appends[wal.RoleAcceptor].ns.Load()), float64(m.wallNS)))
	}
	var rmNS float64
	for op := range rm {
		rmNS += float64(rm[op].ns.Load())
	}
	out["kvstore.exec_us_mean"] = rm[0].meanUS()
	out["kvstore.exec_us_p99"] = float64(percentile(sortedNS(rmExec), 0.99)) / 1e3
	out["kvstore.prepare_us_mean"] = rm[1].meanUS()
	out["kvstore.commit_us_mean"] = rm[2].meanUS()
	out["kvstore.abort_us_mean"] = rm[3].meanUS()
	out["kvstore.busy_us_per_txn"] = ratio(rmNS/1e3, txns)

	out["lockmgr.acquire_release_ns_op"] = pr.lockNS
	out["lockmgr.contended_handoff_us"] = pr.lockHandoffUS

	out["consensus.msgs_per_txn"] = ratio(paxosMsgs, txns)
	out["consensus.acceptor_forces_per_txn"] = ratio(accRecs, txns)
	out["consensus.acceptor_device_busy"] = accBusy

	out["metrics.message_ns_op"] = pr.metMessageNS
	out["metrics.force_ns_op"] = pr.metForceNS

	// proc and bench describe the untraced run the end-to-end numbers come
	// from, and how far the traced run departs from it.
	out["proc.rss_mb"] = ref.rssMB
	out["proc.allocs_per_txn"] = ratio(float64(ref.mallocs), ref.started())
	out["proc.gc_pause_ms"] = float64(ref.gcPauseNS) / 1e6
	out["proc.goroutines_end"] = float64(ref.goroutines)

	out["bench.fail_ratio"] = ratio(float64(ref.failed()), float64(ref.attempted()))
	out["bench.txn_p99_ms"] = ref.roundPercentile(txnLatency, 0.99) / 1e6
	out["bench.commit_p99_ms"] = ref.roundPercentile(commitLatency, 0.99) / 1e6
	if m.w.Open {
		// Open-loop throughput is the arrival rate whatever tracing costs;
		// the overhead shows in latency.
		out["bench.trace_overhead"] = ratio(m.roundPercentile(txnLatency, 0.5), ref.roundPercentile(txnLatency, 0.5)) - 1
	} else {
		out["bench.trace_overhead"] = 1 - ratio(m.tps(), ref.tps())
	}
	out["bench.sample_n"] = ref.started()
	out["bench.gen_lag_p99_ms"] = ms(percentile(sortedNS(append([]int64(nil), ref.lagNS...)), 0.99))
	rt := ref.roundTPS()
	sort.Float64s(rt)
	out["bench.round_spread"] = ratio(rt[len(rt)-1]-rt[0], median(rt))
	return out
}
