GO ?= go

.PHONY: build test race vet fmt check loc figures benchpair allocgate fuzz sim-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt fails if any Go file is not gofmt-formatted, naming the files.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then echo "gofmt needed on:"; echo "$$bad"; exit 1; fi

# check is the pre-merge gate: formatting, static analysis, and the full
# suite under the race detector (the fault-injection tests exercise
# concurrent heal paths, so -race is not optional here). The suite includes
# the tsdb crash-recovery tests — torn writes, kill-9 replay, ENOSPC
# degradation — and the append/query/flush concurrency hammer.
check: fmt vet race

# loc prints non-test Go lines per package and in total — the size figure
# every simplicity PR reports. With BASE=<git ref> it prints the same counts
# at that ref beside them (read with git ls-tree / git show, no checkout) and
# the delta. Informational, never a gate.
loc:
	@bash scripts/loc.sh $(if $(filter-out file,$(origin BASE)),$(BASE))

figures:
	$(GO) run ./cmd/figures

# benchpair measures the working tree against the git ref BASE with the
# repository's benchmark (BENCHMARK.json, bench/): N alternating pairs of
# runs per workload, always including the never-tuned seed 20030623, judged
# by `bench -compare` plus a count of pairs won. It is the procedure behind
# every before/after table in CHANGES.md; a full N=10 takes about 40 minutes.
BASE ?= HEAD
N ?= 10
benchpair:
	bash scripts/benchpair.sh $(BASE) $(N)

# sim-smoke runs the fast scenario-harness smoke runfiles (virtual time,
# each finishes in well under a second) through the full pipeline: parse,
# validate (including E-code filter compilation), sweep points with churn
# and a partition, and both artifacts. query-fault adds the sockets-engine
# scatter-gather path: queryall fan-outs against a healthy cluster and an
# annotated partial while a node is down; conn-scale sweeps subscriber
# count over the sockets engine with a fixed reactor writer pool and
# event-driven dispatch, firing a queryall mid-sweep; relay-tree runs the
# same 16-node cluster flat and with branching-2/4 relay overlays, so the
# flat-vs-tree delivery and relay counters land in CI too. Artifacts go to
# the untracked scenario-out/ (nothing a gate runs writes into a tracked
# path); CI uploads that directory so the counters are inspectable per
# commit.
sim-smoke:
	$(GO) run ./cmd/dprocsim examples/scenarios/smoke.toml
	$(GO) run ./cmd/dprocsim examples/scenarios/query-fault.toml
	$(GO) run ./cmd/dprocsim examples/scenarios/conn-scale.toml
	$(GO) run ./cmd/dprocsim examples/scenarios/relay-tree.toml

# allocgate asserts the tracing-off hot path is still allocation-free: every
# allocs/op figure from the real poll round (two core.Nodes: A.PollOnce —
# collect, thresholds, Figure 3 filter, report build and encode, own-store
# update, publish — until B's d-mon handler has decoded the report into B's
# store; polled and event dispatch), the baseline hot path, the
# observability-off variant, the relay re-publish path (receive →
# dedup-admit → in-place hop rewrite → downstream enqueue), the polled
# receive path (a 64-record batch frame of 64 B and of 5 KiB records through
# handleFrame into its inbox arena, and the Poll that dispatches it), the
# publish side (BenchmarkPublishFanout: 1 → 8 over loopback TCP, 64 B —
# Publish onto eight outboxes, the live writer pool taking a frame's records
# per lock and writing them, a reader draining each socket) and the durable
# history ingest (Store.Update of a 20-sample report: latest values, one WAL
# write, head chunks, full tiers) must be exactly 0. This is the CI guard
# that neither the self-observability layer nor the overlay can regress the
# zero-allocation steady state, and that nothing on the report path goes
# back to allocating per report or per sample. A tsdb chunk seal every
# few hundred samples of a series still allocates: ≈ 0.05 per round, which
# Go's integer allocs/op reports as 0. The same rounding hides a regression
# on large records: a frame-sized buffer regrown once per batch of 5 KiB
# records shows in B/op (thousands), not allocs/op (0), because the batch
# spans many operations. The gate for the large-record write is therefore
# the tier-1 AllocsPerRun test TestBatchWriterAllocatesNothing
# (internal/wire), not this target.
allocgate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkPollRound$$' -benchmem -benchtime 20000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkHotPath$$' -benchmem -benchtime 20000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkHotPathObs$$/^off$$' -benchmem -benchtime 1000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkRelayForward$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkPolledReceive$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkPublishFanout$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkStoreUpdateDurable$$' -benchmem -benchtime 20000x ./internal/dmon/ ); \
	echo "$$out"; \
	bad=$$(echo "$$out" | grep 'allocs/op' | awk '$$(NF-1) != 0'); \
	if [ -n "$$bad" ]; then echo "allocgate: nonzero allocs/op:"; echo "$$bad"; exit 1; fi

# fuzz gives each native fuzz target of the tsdb recovery scanners
# (FuzzScanWALSegment, FuzzScanChunkFile: never panic, a tear only costs the
# tail, what replays re-encodes to the bytes it was read from), of the
# chunk decoder (FuzzChunkIter: never panic on any bytes, whose bounds the
# word-at-a-time bit reader checks by hand), of the monitoring report
# decoder (FuzzDecodeReport: never panic, what decodes re-encodes through
# AppendEncode to the input, a reused Report decodes as a fresh one), of
# the kecho batch-frame decoder (FuzzDecodeBatch: never panic, what decodes
# re-encodes byte for byte through AppendBatch and the BatchWriter), of the
# kecho receive path (FuzzHandleFrame: any bytes as an event or batch frame,
# polled and event-driven — never panic, deliver exactly the bodies an
# independent decode finds, hop and trace trailers included, and on a bad
# record everything ahead of it and nothing after) and of
# the cluster-query part parser (FuzzParsePart: never panic on what a
# querypart peer sends, what parses comes back equal through Render), of the
# registry roster decoder (FuzzDecodeMembers: never panic on what a registry
# sends, what decodes re-encodes through encodeMembers and decodes equal,
# role extension included), of the admin request reader (FuzzServeRequest:
# any bytes as a connection's requests to a standalone node — never panic,
# every reply "OK\n…" or exactly one "ERR …\n" line, the connection kept
# only after a newline-terminated querypart) and of
# the E-code compiler (FuzzCompile: any bytes as filter source never panic,
# source over the 64 KiB cap is an error; FuzzFilterParity: a program that
# compiles gives one result, output and error kind on the fused VM, the
# unfused VM and the interpreter oracle) a short budget on top of its seed corpus — enough for CI to catch a reader
# that stopped tolerating garbage. go test takes one -fuzz target per run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzScanWALSegment$$' -fuzztime $(FUZZTIME) ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz '^FuzzScanChunkFile$$' -fuzztime $(FUZZTIME) ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz '^FuzzChunkIter$$' -fuzztime $(FUZZTIME) ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReport$$' -fuzztime $(FUZZTIME) ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleFrame$$' -fuzztime $(FUZZTIME) ./internal/kecho/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePart$$' -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMembers$$' -fuzztime $(FUZZTIME) ./internal/registry/
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME) ./internal/adminproto/
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/ecode/
	$(GO) test -run '^$$' -fuzz '^FuzzFilterParity$$' -fuzztime $(FUZZTIME) ./internal/ecode/
