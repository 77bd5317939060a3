GO ?= go

.PHONY: all build test vet race chaos examples bench-check tier1 cover allocs mcheck-paxos mcheck-byz clean

all: tier1

build:
	$(GO) build ./...

# The second line regenerates the E20 verdict document in memory and holds
# it against JUDGE_byz.json. It takes minutes, so inside `go test ./...` it
# skips itself (the default 10-minute deadline is too near) and runs here
# alone.
test:
	$(GO) test ./...
	$(GO) test -timeout 30m -run 'TestByzJSONMatchesArtifact' ./cmd/prany-chaos

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

# The benchmark under bench/ is a Go module of its own, so the root
# build/vet/test never compile it: check it here, or deleting exported API
# breaks the benchmark silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# tier1 is the merge gate: everything must build, every test must pass
# (two of them hold JUDGE_mcheck.json and JUDGE_byz.json to their
# generators without writing either), vet must be clean, the
# concurrent packages must be race-free, the short chaos sweep must stay
# operationally correct, every example must run, and the benchmark's own
# module must build and pass against this API. It writes nothing into the
# tree: `git status --porcelain` is empty afterwards.
tier1: build test vet race chaos examples bench-check

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
