GO ?= go
FUZZTIME ?= 15s

.PHONY: build test test-race vet fmt-check bench bench-all bench-check bench-incremental fuzz-short loadtest chaos repair-smoke cluster-smoke module-smoke cluster-loadtest check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass: certifies the batch driver, the synchronized
# metrics sinks, and every other concurrent path.
test-race:
	$(GO) test -race ./...

# Short native-fuzzing pass over the frontend (lexer + parser). The
# targets also run their seed corpora as plain tests under `make test`.
fuzz-short:
	$(GO) test -fuzz=FuzzLex -fuzztime=$(FUZZTIME) ./internal/lexer/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/parser/

# End-to-end load test of the uafserve daemon: builds the real
# binaries, boots the server, and drives it with concurrent clients
# (byte-identity vs the CLI, 429 under overload, dedup, graceful
# SIGTERM drain). Tagged so `make test` stays fast.
loadtest:
	$(GO) test -race -tags loadtest -run TestLoadEndToEnd -v ./internal/server/

# Chaos drill: the fixed-seed fault-injection matrix (disk corruption,
# torn writes, worker panics, admission storms, kill-and-restart cache
# recovery, watch-mode wedge/recovery) under the race detector. See
# docs/RECOVERY.md for the failure catalog these tests enforce.
chaos:
	$(GO) test -race ./internal/fault/ ./internal/client/
	$(GO) test -race -run 'Chaos|Recover|Quarantine|Torn|Wedge|Degraded|HealthzComponents|WriteFailure' \
		./internal/cache/ ./internal/watch/ ./internal/server/ ./internal/repair/ ./internal/cluster/

# Round-trip smoke of the repair API: boots the real uafserve, repairs
# a corpus file over POST /v1/repair, applies the served unified diff
# with patch(1), re-analyzes the result with the CLI, and asserts zero
# warnings. See docs/REPAIR.md.
repair-smoke:
	sh scripts/repair-smoke.sh

# Cluster smoke: boots a coordinator + 2 workers from the real binary,
# asserts batch byte-identity with a single process through the edge,
# then kills both workers mid-batch and asserts the stream degrades
# visibly (one flagged line per unfinished file) instead of going
# silently short. See docs/CLUSTER.md.
cluster-smoke:
	sh scripts/cluster-smoke.sh

# Module smoke: boots a coordinator + 2 workers, analyzes a 3-file
# module in one mode=module batch, edits one callee over /v1/delta and
# asserts the cross-file caller's warnings are re-reported (and cleared
# once the callee synchronizes), then checks the whole module cell was
# routed to a single worker with unit-memo reuse. See
# docs/INTERPROCEDURAL.md.
module-smoke:
	sh scripts/module-smoke.sh

# Cluster scaling load test: single process vs coordinator + {1,2,4}
# one-core workers over the same batch, with injected per-analysis
# latency. Hard-fails on any warning-set divergence or if 2 workers
# don't beat 1 by >= 1.6x; writes BENCH_cluster.json.
cluster-loadtest:
	sh scripts/cluster-loadtest.sh

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench='BenchmarkExplore(Seq|Par|Ladder)|BenchmarkAnalyzeCached' -benchmem .
	$(GO) run ./cmd/uafcorpus -tests 400 -bench-out "" -pps-bench-out BENCH_pps.json

# The full benchmark sweep (every table, figure and ablation).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The benchmark harness is its own Go module (uafbench/go.mod), so
# `go vet ./...` and `go test ./...` at the root never reach it. This
# vets it and runs its tests (workload generators, reference verdicts,
# metric aggregation) from inside the module.
bench-check:
	cd uafbench && $(GO) vet ./... && $(GO) test ./...

# Cold vs warm single-edit latency of the incremental engine. Exits
# nonzero if any warm report is not byte-identical to its cold
# counterpart, so this doubles as the CI smoke of AnalyzeDelta.
bench-incremental:
	$(GO) run ./cmd/uafcorpus -incr-bench-out BENCH_incremental.json

check: build vet fmt-check test test-race
