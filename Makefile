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

# loc prints non-test Go lines per package and in total, then the test Go
# total — the size figures every simplicity PR reports. With BASE=<git ref> it prints the same counts
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
# frame reader (BenchmarkFrameReader: Next over a stream of 64 B frames, many
# served from one read, and of 5 KiB frames, two reads each), the
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
#
# Beside the zero rows it holds the query path and the registry's
# keep-alive to capped counts (ALLOC_CAPS, benchmark=most allocs/op): a
# node's own p99 over one hour of 1 Hz samples (BenchmarkNodePercentile/3600: decoded into a pooled buffer
# and counted into a pooled tsdb.Hist, 0), a node's percentile part
# (BenchmarkComputePart: the part's bucket list, 1), the coordinator's merge
# of four such parts (BenchmarkMergeParts: the result histogram, 1) and one
# operator queryall over a 4-node cluster end to end (BenchmarkQueryAll:
# 53, since a querypart request and its part travel as binary, built and
# read in reused buffers, with no text rendered or parsed per leaf; 109
# before, 155 before the coordinator cached its admin roster), and one
# member's registry heartbeat round trip over loopback, client and server
# together (BenchmarkRegistryHeartbeat: 7, since both ends read through a
# per-connection wire.FrameReader; 10 before).
ALLOC_CAPS = BenchmarkNodePercentile/3600=0 BenchmarkComputePart=1 BenchmarkMergeParts=1 BenchmarkQueryAll=53 BenchmarkRegistryHeartbeat=7
allocgate:
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkPollRound$$' -benchmem -benchtime 20000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkHotPath$$' -benchmem -benchtime 20000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkHotPathObs$$/^off$$' -benchmem -benchtime 1000x . && \
		$(GO) test -run '^$$' -bench '^BenchmarkRelayForward$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkPolledReceive$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkPublishFanout$$' -benchmem -benchtime 20000x ./internal/kecho/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkFrameReader$$' -benchmem -benchtime 20000x ./internal/wire/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkStoreUpdateDurable$$' -benchmem -benchtime 20000x ./internal/dmon/ ); \
	echo "$$out"; \
	bad=$$(echo "$$out" | grep 'allocs/op' | awk '$$(NF-1) != 0'); \
	if [ -n "$$bad" ]; then echo "allocgate: nonzero allocs/op:"; echo "$$bad"; exit 1; fi
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkNodePercentile$$/^3600$$' -benchmem -benchtime 5000x ./internal/tsdb/ && \
		$(GO) test -run '^$$' -bench '^(BenchmarkComputePart|BenchmarkMergeParts)$$' -benchmem -benchtime 20000x ./internal/query/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkQueryAll$$' -benchmem -benchtime 2000x ./internal/adminproto/ && \
		$(GO) test -run '^$$' -bench '^BenchmarkRegistryHeartbeat$$' -benchmem -benchtime 20000x ./internal/registry/ ); \
	echo "$$out"; \
	bad=$$(echo "$$out" | awk -v caps="$(ALLOC_CAPS)" ' \
		BEGIN { n = split(caps, c, " "); for (i = 1; i <= n; i++) { split(c[i], kv, "="); cap[kv[1]] = kv[2]; want[kv[1]] = 1 } } \
		/allocs\/op/ { name = $$1; sub(/-[0-9]+$$/, "", name); delete want[name]; \
			if (!(name in cap) || $$(NF-1) + 0 > cap[name] + 0) print "over its cap: " $$0 } \
		END { for (name in want) print "no result: " name }'); \
	if [ -n "$$bad" ]; then echo "allocgate: capped rows:"; echo "$$bad"; exit 1; fi

# fuzz gives every native fuzz target in the module (found with go test
# -list '^Fuzz', package by package; each target's doc comment says what it
# checks) a short budget on top of its seed corpus — enough for CI to catch
# a reader that stopped tolerating garbage. go test takes one -fuzz target
# per run.
FUZZTIME ?= 10s
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ { t[++n] = $$1; next } /^ok/ { for (i = 1; i <= n; i++) print $$2 "," t[i]; n = 0 }'); \
	if [ -z "$$targets" ]; then echo "fuzz: no targets found"; exit 1; fi; \
	echo "fuzz: $$(echo "$$targets" | wc -l) targets"; \
	for pt in $$targets; do \
		pkg=$${pt%,*}; target=$${pt#*,}; \
		echo "fuzz $$target ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done
