GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz-smoke diffcheck chaos smp golden-update bench bench-quick bench-pair profile-detail profile-ckpt profile-sweep loc flake reach docs-check examples ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short bounded run of every fuzz target; regression corpora under
# testdata/fuzz/ always run as part of plain `make test`.
fuzz-smoke:
	$(GO) test ./internal/isa -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzAsmRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz '^FuzzMoviExpansion$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mem -run '^$$' -fuzz '^FuzzMemoryMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/simpoint -run '^$$' -fuzz '^FuzzKMeansMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sampling -run '^$$' -fuzz '^FuzzScheduleMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/smp -run '^$$' -fuzz '^FuzzDynamicSampleMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzParseKey$$' -fuzztime $(FUZZTIME)

# Differential-execution checks (see internal/check and cmd/diffcheck;
# `-legs` picks the checks). programs and policies: every program-level
# check over generated guest programs, and sampling-policy determinism.
# batch: every program and policy re-run across batch capacities
# {1,3,64,4096}, bit-identical to one-event delivery. faults: rendered
# artifacts byte-identical to a fault-free run under seeded fault
# injection. ckpt: every policy identical with the checkpoint store
# off, cold, warm and primed at stride 1, where no catch-up or dispatch
# walks. obs: results and artifacts identical with the metrics
# registry and trace attached. sweep: a distributed multi-worker sweep
# (with seeded worker kills and network faults) merges to a journal
# byte-identical to sequential execution. stats: the
# Stratified/RankedSet confidence intervals deliver their claimed
# coverage against full-timing ground truth, stay seed-deterministic
# through the journal, and honour the error-targeting budget/width
# contract (reduced seed sweep here; CI's statistical-validity job runs
# the full design).
diffcheck:
	$(GO) run ./cmd/diffcheck -seed 1 -n 200 -legs programs,policies,ckpt,batch,faults,obs,sweep,stats -stats-runs 25

# Chaos-schedule exploration: CHAOS_SCHEDULES seeded fault schedules
# (coordinator SIGKILL/restart at arbitrary WAL offsets with torn
# tails, worker kills, checkpoint upload outages), each a full
# distributed sweep whose merged journal must render byte-identical
# artifacts, with completions and re-executions explained by the kills
# and tears that fired (see check.ChaosExploration in internal/check).
CHAOS_SCHEDULES ?= 8
chaos:
	$(GO) run ./cmd/diffcheck -legs chaos -chaos-schedules $(CHAOS_SCHEDULES)

# Parallel-SMP equivalence: the goroutine-per-guest barrier schedule
# must be byte-identical to the sequential round-robin reference (which
# lives with internal/smp's tests) across guest counts, rendezvous
# quanta (including quantum 1), and GOMAXPROCS settings, on the fast,
# timed, and DynamicSample paths. Everything runs under the race
# detector to prove the rendezvous and shared-L2 replay pipeline are
# data-race free; the timing/cache/branch suites include the reference-
# model differential and property tests.
smp:
	$(GO) test -race -count=1 ./internal/smp ./internal/timing ./internal/cache ./internal/branch
	$(GO) test -race -count=1 -timeout 20m ./internal/smp -run TestSMPEquivalence

golden-update:
	$(GO) test ./internal/experiments -run TestGolden -update

# The benchmark harness (bench/README.md): every workload and the
# per-layer ledger into bench/out/result.json. bench-quick is the same
# path at smoke-test size (~8 s). `go run ./bench -compare A.json B.json`
# is the regression verdict between two results.
bench:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick

# Paired runs of the working tree against a git ref, alternating order
# (scripts/bench-pair.sh): per-side median and quartiles and the win
# count for every end-to-end metric of one workload.
#   make bench-pair REF=HEAD~1 WORKLOAD=detail_full [PAIRS=10] [SEED=1]
REF      ?= HEAD
WORKLOAD ?= detail_full
PAIRS    ?= 10
SEED     ?= 1
bench-pair:
	bash scripts/bench-pair.sh $(REF) $(WORKLOAD) $(PAIRS) $(SEED)

# CPU profile of full timing on one benchmark: where detail mode's wall
# goes, timing.Core.OnEvents against event generation in vm.run.
#   go tool pprof -top detail.prof
profile-detail:
	$(GO) run ./cmd/dynsim -bench swim -policy full -cpuprofile detail.prof
	@echo "wrote detail.prof"

# Heap profile of a primed stride-1 in-memory checkpoint store (one
# deposit per base interval of one benchmark): what the snapshots keep
# alive, by allocation site — vm.(*Machine).Snapshot's struct and phase
# log; vm.relined's TLB line tables (slices.Clone) and line batches
# (slices.Grow); vm.(*Machine).liveBlocks' per-page block lists and
# captureCode's code-page tables (both slices.Clone);
# mem.(*Memory).Snapshot's page table; guest pages (DESIGN.md §8 "What a
# snapshot owns and what it shares"). Generic slices functions appear
# under their own names: `-peek 'slices\.'` names the caller.
profile-ckpt:
	$(GO) run ./cmd/dynsim -bench mcf -policy dynamic -scale 5000 -ckpt-stride 1 -memprofile ckpt.heap
	$(GO) tool pprof -sample_index=inuse_space -top -lines -nodecount=12 ckpt.heap

# CPU and heap profile of a two-worker distributed sweep (internal/sweep's
# BenchmarkSweepTwoWorkers: loopback server, disk-backed coordinator
# tier), then the three readings that price the checkpoint mirror: the
# cumulative CPU share under the worker's upload (Client.Put) and the
# server's receipt of it (handleCkptPut); bytes.growSlice in alloc_space
# (an upload buffer grown from empty); mem.DecodeSnapshot in inuse_space
# (decoded uploads the coordinator tier keeps alive — DESIGN.md §11).
# Next to the mirror's, the cumulative CPU share of SimPoint's analysis
# stage (simpoint.Policy.Analyse) and its two halves: the clustering
# ladder (ChooseK) and the BBV profiling pass (RunProfile).
PROFILE_SWEEP = $(GO) tool pprof -top -nodecount=500
profile-sweep:
	$(GO) test ./internal/sweep -run '^$$' -bench BenchmarkSweepTwoWorkers -benchtime 3x \
		-o sweep.test -cpuprofile sweep.prof -memprofile sweep.heap
	@echo "-- cumulative CPU under the checkpoint mirror (sweep.prof)"
	@$(PROFILE_SWEEP) -cum sweep.test sweep.prof 2>/dev/null | grep -E 'Total samples|sweep\.\(\*Client\)\.Put$$|handleCkptPut$$'
	@echo "-- cumulative CPU under SimPoint's analysis stage (sweep.prof)"
	@$(PROFILE_SWEEP) -cum sweep.test sweep.prof 2>/dev/null | grep -E 'simpoint\.Policy\.Analyse$$|simpoint\.ChooseK$$|\(\*Session\)\.RunProfile( \(inline\))?$$'
	@echo "-- bytes.growSlice in alloc_space (sweep.heap)"
	@$(PROFILE_SWEEP) -sample_index=alloc_space sweep.test sweep.heap 2>/dev/null | grep -E 'Showing nodes|bytes\.growSlice$$' || true
	@echo "-- mem.DecodeSnapshot in inuse_space (sweep.heap)"
	@$(PROFILE_SWEEP) -sample_index=inuse_space sweep.test sweep.heap 2>/dev/null | grep -E 'Showing nodes|mem\.DecodeSnapshot$$' || true

# The two numbers a CHANGES.md entry quotes: non-test and test Go lines
# outside bench/. Fails when the first is over ROADMAP item 7's ceiling.
loc:
	@bash scripts/loc.sh

# Verdict stability (ROADMAP item 17b): every test three times at
# GOMAXPROCS 1, 2 and 4, then three race-detector runs of the packages
# that run goroutines against each other. Both phases run even when the
# first fails; the target fails if either did. A test whose verdict
# varies is a race in the program or a bound on scheduling; it is
# reported, never loosened. Slow (tens of minutes), so it stays out of
# `ci`. FLAKEFLAGS=-json makes the output `go test -json` events, with
# one "flake:" line before each phase.
flake:
	@st=0; \
	echo "flake: go test ./... -count=3 -cpu 1,2,4"; \
	$(GO) test ./... -count=3 -cpu 1,2,4 -timeout 60m $(FLAKEFLAGS) || st=1; \
	echo "flake: go test -race -count=3 ./internal/{sweep,smp,ckpt,experiments}"; \
	$(GO) test -race -count=3 -timeout 60m $(FLAKEFLAGS) ./internal/sweep ./internal/smp ./internal/ckpt ./internal/experiments || st=1; \
	exit $$st

# Every internal/ package is reachable from a command, bench/ or an
# example (scripts/reach.sh), and so is every name those packages
# declare: the root TestReach fails on a package-level name, method or
# constant that no non-test file mentions and scripts/reach.allow does
# not excuse. docs-check: every path, identifier and file:line the four
# top-level documents cite exists (scripts/docs-check.sh).
reach:
	@bash scripts/reach.sh
	$(GO) test -count=1 -run '^TestReach$$' .

docs-check:
	@bash scripts/docs-check.sh

# Every example with its default flags, output discarded: an example
# that errors (newbenchmark exits 1 when it takes no sample) fails the
# target instead of rotting.
examples:
	$(GO) run ./examples/multicore > /dev/null
	$(GO) run ./examples/newbenchmark > /dev/null
	$(GO) run ./examples/phasetrace > /dev/null
	$(GO) run ./examples/policysweep > /dev/null
	$(GO) run ./examples/quickstart > /dev/null

ci: vet build reach docs-check loc race fuzz-smoke diffcheck examples
