GO ?= go

.PHONY: all build test vet race chaos examples bench-smoke bench-check obs-smoke recovery-smoke consensus-smoke byz-smoke tier1 cover allocs bench-pipeline bench-recovery bench-consensus mcheck-paxos mcheck-byz clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race pass over the packages with real concurrency: the log's shared force
# barrier and everything that forces through it from several goroutines
# (engines, site, acceptors, chaos shims, simulator), the sharded protocol
# tables, the parallel fan-out and the TCP transport. -short keeps the
# stress test tractable in CI.
race:
	$(GO) test -race -short ./internal/core/... ./internal/transport/... ./internal/wal/... \
		./internal/site/... ./internal/consensus/... ./internal/chaos/... ./internal/sim/...

# Seeded chaos sweep: random fault plans over a mixed cluster under PrAny
# must converge to operational correctness, and the theorem-signal plan
# must reproduce the U2PC/C2PC failures, and the force-edge crash points
# and WAL failures must land inside delivery batches under concurrent
# clients. -short keeps it to a few seeds; `go run ./cmd/prany-chaos` runs
# the full-length version.
chaos:
	$(GO) test -race -short -run 'TestChaos' ./internal/experiments/

# Smoke-run every example program: each must exit 0. The examples are the
# public face of the API, so a crashing example is a tier-1 failure even
# when the library tests pass.
examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# Short E16 smoke run: a 50-transaction TCP burst must show > 1 messages
# per physical frame, so a regression that silently disables the transport
# batch writer fails the gate without paying for the full benchmark sweep.
bench-smoke:
	./scripts/bench_smoke.sh

# The benchmark under bench/ is a Go module of its own, so the root
# build/vet/test never compile it: check it here, or deleting exported API
# breaks the benchmark silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Observability smoke: start prany-server with -http and assert that
# /metrics, /txns, /trace and /debug/pprof/ all serve well-formed output.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Recovery smoke: crash a loaded cluster with checkpointing off and on and
# assert (via the recovery metrics) that the checkpointed recovery scan is
# O(active), not O(history) — the E18 claim as a merge gate.
recovery-smoke:
	$(GO) run ./scripts/recoverysmoke

# Consensus smoke: 3 acceptors + coordinator + 2 participants; the
# coordinator is killed for good mid-decision and the acceptor takeover
# must still finish the quorum-fixed commit — the E19 non-blocking claim
# as a merge gate.
consensus-smoke:
	$(GO) run ./scripts/consensussmoke

# Byzantine smoke: a short seeded E20 sweep — every strategy under every
# adversary behavior at the lying participant — must keep PrAny's honest
# sites free of atomicity damage (zero Honest/Spread attributions) while
# the adversary demonstrably forges. The E20 claim as a merge gate.
byz-smoke:
	$(GO) run ./scripts/byzsmoke

# tier1 is the merge gate: everything must build, every test must pass,
# vet must be clean, the concurrent packages must be race-free, the short
# chaos sweep must stay operationally correct, every example must run,
# the transport batch writer must demonstrably coalesce frames, the
# benchmark's own module must build and pass against this API, the
# introspection endpoints must serve, checkpointed recovery must stay
# O(active), the replicated decider must survive coordinator death, and
# PrAny's honest sites must survive a lying participant.
tier1: build test vet race chaos examples bench-smoke bench-check obs-smoke recovery-smoke consensus-smoke byz-smoke

# cover enforces the per-package statement-coverage floors recorded in
# coverage.floors and the per-benchmark allocation (and, where given, time)
# ceilings in alloc.floors; `make cover` fails if any listed package
# regresses.
cover:
	./scripts/cover.sh
	./scripts/allocs.sh

# allocs runs just the benchmark-ceiling gate (the zero-alloc wire path, the
# participant's prepare/decision path inline and staged).
allocs:
	./scripts/allocs.sh

# Reproduce the E16 pipelined-commit-stream numbers recorded in
# BENCH_pipeline.json.
bench-pipeline:
	$(GO) test -bench 'BenchmarkE16_Pipeline' -benchtime 5000x -run '^$$' .

# Reproduce the E18 recovery-cost numbers recorded in BENCH_recovery.json.
bench-recovery:
	$(GO) run ./cmd/prany-bench -run recovery -json

# Reproduce the E19 replicated-decision numbers recorded in
# BENCH_consensus.json.
bench-consensus:
	$(GO) run ./cmd/prany-bench -run consensus -json

# Exhaustively check the E19 claim: the replicated decider sweeps clean and
# non-blocking under permanent coordinator death; the single decider blocks.
mcheck-paxos:
	$(GO) run ./cmd/prany-check -strategy prany-paxos

# Exhaustively check the E20 claim for PrAny: no schedule of any adversary
# behavior at the Byzantine participant damages an honest site.
mcheck-byz:
	$(GO) run ./cmd/prany-check -strategy prany-byz

clean:
	$(GO) clean ./...
