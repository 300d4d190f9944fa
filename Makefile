# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-shardsafe test race cover fuzz bench shard-smoke telemetry-smoke fault-smoke serve-smoke profile experiments quick clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks: vet, formatting, and the determinism contract
# (smartlint; see DESIGN.md §8 and cmd/smartlint).
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/smartlint ./internal/... ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on -count=1 ./internal/... ./cmd/... .

# Per-package statement coverage with enforced floors on the fabric, the
# routing algorithms and the differential oracle (85% by default); prints
# the five worst packages. See DESIGN.md §10.
cover:
	sh scripts/cover.sh

# Short local fuzz pass over the fuzz targets (30s each); CI runs the
# same budget on every push. Longer soaks: raise FUZZTIME.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzFabricVsOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzFaultSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/routing -run '^$$' -fuzz FuzzRouteCube -fuzztime $(FUZZTIME)
	$(GO) test ./internal/routing -run '^$$' -fuzz FuzzRouteTree -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run '^$$' -fuzz FuzzFaultSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)

# One benchmark per table, figure and ablation of the paper, plus the
# BenchmarkFabric hot-path cells. The end-to-end benchmark, with
# repetitions, spreads and a before/after comparison, is bench/:
# bash bench/run.sh (see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Sharded-engine determinism gates: the sharded-vs-sequential
# differential under the race detector (Counters and StateHash every
# cycle at shards {1,2,3,8}), plus bench/'s scale_4096 workload at
# smoke size (a 256-node torus on two shards), which checks a pinned
# digest and a 1-shard vs 2-shard digest. SMOKE_PROCS pins GOMAXPROCS
# — CI runs both 1 (serialized scheduling) and 4 (true multi-core
# interleavings); results must be bit-identical.
SMOKE_PROCS ?= 4
shard-smoke:
	GOMAXPROCS=$(SMOKE_PROCS) $(GO) test -race -run Shard ./internal/...
	GOMAXPROCS=$(SMOKE_PROCS) bash bench/run.sh --workload scale_4096 --size smoke --seconds 2

# The shardsafe leg of the CI lint matrix: the analyzer's own fixture
# and seeded-violation tests plus the shard engine they protect, under
# the race detector.
lint-shardsafe:
	$(GO) test -race -run 'ShardSafe|ShardViolation' ./internal/lint/
	$(GO) test -race -run 'TestShard' ./internal/sim/ ./internal/wormhole/

# End-to-end telemetry check: live /metrics scrape mid-sweep, sidecar
# validation, and the kill-and-resume digest contract. See DESIGN.md §11.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end fault-injection check: a faulted bursty run diffed across
# shard counts and invocations, plus the smart/faults/v1 schedule-file
# round trip. See DESIGN.md §14.
fault-smoke:
	bash scripts/fault_smoke.sh

# End-to-end sweep-service check: cold miss -> warm hit byte-identity,
# ETag 304 revalidation, served-sweep vs cmd/sweep digest parity, and
# cache persistence across a restart. See DESIGN.md §15.
serve-smoke:
	bash scripts/serve_smoke.sh

# A short instrumented sweep: CPU profile in cpu.prof plus the live
# progress line and per-stage engine timing report on stderr.
profile:
	$(GO) run ./cmd/sweep -quick -v -net tree -vcs 2 -pattern uniform -cpuprofile cpu.prof
	@echo "wrote cpu.prof; inspect with: $(GO) tool pprof cpu.prof"

# The complete evaluation at the paper's methodology (tens of minutes);
# results land in experiments_full.txt and results/.
experiments:
	mkdir -p results
	$(GO) run ./cmd/experiments -ablations -csvdir results | tee experiments_full.txt

# A coarse preview of the same (~5 minutes).
quick:
	$(GO) run ./cmd/experiments -quick

clean:
	rm -rf results experiments_full.txt test_output.txt bench_output.txt
