# Developer entry points. `make check` is the gate CI (and reviewers)
# run: static analysis, the full suite under the race detector, and then
# only what adds a configuration to that — other P counts, the 30-second
# storms, the forced kernel fallback, the benchmark smoke run. The
# scenario targets (crash, chaos, sse, failover, membership, load) are
# developer shortcuts: named slices of what `race` already ran.

GO ?= go

.PHONY: all build test race vet vet-bench cpus check crash chaos chaos-storm sse failover failover-storm membership fallback bench-smoke bench-pair load loc fmt serve clean

# The kernel/Fit/Evaluate microbenchmark family of bench_test.go.
BENCH_PATTERN = BenchmarkMat|BenchmarkFit|BenchmarkEvaluate

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench/ is a module of its own, invisible to the root `go build ./...`
# and `go vet ./...`: without this step, deleting a symbol the benchmark
# imports would pass every other gate.
vet-bench:
	$(GO) vet -C bench ./...
	$(GO) build -C bench -o /dev/null ./...

# The determinism, preemption-replay and bitwise-parity tests at one,
# two and four Ps, three times each: results may not depend on how many
# cores the scheduler has, and a test tuned to one machine's timing
# fails here instead of on the next box — with them the evaluation-slot
# acquire/cancel/borrow races, the one inflight gauge and fold lending,
# which lends more or less often with the core count and must not show
# in a score. The same for the
# cluster layer's non-chaos tests (coordinator, submit retry, membership
# journal, ring, shipper lanes, sinks, restore), five times each, and
# once for its short-storm chaos e2es (node kill, zero-operator failover,
# membership churn, shutdown mid-promotion). And for the shared trace log:
# rotation under concurrent appenders, the reopen after a torn line, the
# rebuild that must serve a trace byte for byte, and the replica whose
# manifest may not grow with the number of jobs. And for the boot: the
# history loaded once by whoever reads it first, the restart that serves a
# finished, an interrupted and a resumable job as before, the boot that
# fails and leaves nothing running. And for the one segment writer under
# the journal, the trace log and the membership log: the cut write (a
# re-executed test binary under RLIMIT_FSIZE), the torn tail, one segment
# per life, hook order under rotation and the frozen bytes. And for the
# job lifecycle: every path's journal records and status events, the
# finished job that reads the same after a restart, the first start a
# replay keeps.
cpus:
	$(GO) test -cpu 1,2,4 -count 3 -run 'Determinis|Preempt|Bitwise|Matches|SideBySide|IdleSlot|LentFold|EvaluateConcurrent|TestEvalSlot|TestPoolInflightGauge' \
		./internal/hpo/ ./internal/nn/ ./internal/serve/ ./internal/serve/sched/
	$(GO) test -cpu 1,2,4 -count 5 -run 'TestCoordinator|TestSubmitRetry|TestMemberJournal|TestRing|TestMultiSink|TestShipper|TestDirSink|TestRestore' \
		./internal/coord/ ./internal/serve/shipper/
	$(GO) test -cpu 1,2,4 -count 1 -run 'TestFailover|TestMembership|TestShutdownJoinsFailover' ./internal/coord/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestRotationConcurrentAppends|TestCrashReopen|TestTraceByteIdenticalAcrossRebuild|TestNoPerJobSeal|TestPrime|TestRestartServesThreeKindsOfJob|TestFailedBoot' \
		./internal/serve/tracestore/ ./internal/serve/ ./internal/events/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestCutWrite|TestMemberJournal|TestEveryLifeStartsItsOwnSegment|TestOnChange|TestSegmentBytesFrozen|TestFailedUndo' \
		./internal/serve/seglog/ ./internal/serve/journal/ ./internal/serve/tracestore/ ./internal/coord/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestJobLifecycleRecords|TestFinishedJobReadsSameAfterRestart|TestReplayKeepsFirstStart' \
		./internal/serve/ ./internal/serve/journal/

# Crash-safety suite: journal replay/compaction, kill/restart recovery,
# every lifecycle path's records and events, a finished job read back
# the same after a restart, panic isolation, retry + failure budget,
# timeout/shutdown reasons, drain.
crash:
	$(GO) test -race -count=1 ./internal/serve/journal/...
	$(GO) test -race -count=1 -run 'TestRestartRecovery|TestJobLifecycleRecords|TestFinishedJobReadsSameAfterRestart|TestDeadlineJournalsNothing|TestPanicIsolation|TestTransientFailureRetried|TestFailureBudgetAbsorbsTrial|TestTimeoutReason|TestShutdownWithInFlightJobs|TestDrainRefusesSubmissions' ./internal/serve/

# Overload suite: admission control (429 + Retry-After), the evaluation
# deadline watchdog, the scheduler's evaluation-slot acquire under a
# cancel storm, and the chaos harness — a 30-second over-capacity
# submission storm with injected panics, wedged evaluations, online
# journal rotation and a mid-run kill/replay, all under the race
# detector. Plain `go test` runs the same harness with a ~2s storm;
# BHPOD_CHAOS_SECONDS overrides the length. chaos-storm is the part no
# other target runs, and the part `make check` includes.
chaos: chaos-storm
	$(GO) test -race -count=1 -run 'TestEvalSlot' ./internal/serve/sched/
	$(GO) test -race -count=1 -run 'TestAdmissionControl429|TestEvalDeadlineAbandonsWedgedTrial|TestPoolInflightGauge|TestScope' ./internal/serve/

chaos-storm:
	BHPOD_CHAOS_SECONDS=30 $(GO) test -race -count=1 -run 'TestChaosOverload' -timeout 600s ./internal/serve/

# Streaming-telemetry suite: the SSE end-to-end path (submit a job,
# subscribe, drop the connection, resume with Last-Event-ID and receive
# every event exactly once in order), durable traces surviving a
# kill/restart byte-identically, slow-consumer drop accounting, the
# ?since=N incremental poll, the hub unit tests, trace-store
# crash-safety, and the `bhpo watch` client — all under -race.
sse:
	$(GO) test -race -count=1 ./internal/events/... ./internal/serve/tracestore/...
	$(GO) test -race -count=1 -run 'TestSSE|TestSlowConsumerDropsCounted|TestGetJobSince|TestTraceSurvivesKillAndRestart|TestMetricsExposeEventCounters' ./internal/serve/
	$(GO) test -race -count=1 -run 'TestWatch' ./cmd/bhpo/

# Cluster failover suite: the node-kill chaos e2es — the manual-replace
# variant and, with BHPOD_AUTO_FAILOVER=1, the zero-operator variant (a
# worker killed -9 mid-storm heals with no manual /cluster/replace: the
# coordinator verifies shipped replicas across sink roots, quarantines a
# failing standby, promotes the next, survives its own restart
# mid-incident via the membership journal, loses zero acked jobs, keeps
# byte-identical pre-crash curves, and resumes SSE at last-seq+1) — plus
# the hash-ring, multi-sink shipper and coordinator unit suites. Plain
# `go test` runs a ~2s storm; BHPOD_CHAOS_SECONDS overrides the length.
# failover-storm is the two e2es at the full chaos budget: the part no
# other target runs, and the part `make check` includes.
failover: failover-storm
	$(GO) test -race -count=1 ./internal/serve/shipper/... ./internal/coord/
	$(GO) test -race -count=1 -run 'TestReplayFromShippedMatchesLocal|TestSubmitToken|TestNode|TestRunServes' ./internal/serve/ ./cmd/bhpod/

failover-storm:
	BHPOD_CHAOS_SECONDS=30 BHPOD_AUTO_FAILOVER=1 $(GO) test -race -count=1 -timeout 600s -run 'TestFailoverNodeKill|TestFailoverZeroOperator' ./internal/coord/

# Runtime-membership suite: join a node into a live ring, storm jobs
# onto it, drain it (no new routing), leave it (wait-for-idle, then
# remove) and recover the post-churn member set from the coordinator's
# crash-safe journal — plus the submit-path retry regression, all under
# the race detector.
membership:
	$(GO) test -race -count=1 -run 'TestMembership|TestMemberJournal|TestSubmitRetry' ./internal/coord/
	$(GO) test -race -count=1 -run 'TestSubmitToken' ./internal/serve/
	$(GO) test -race -count=1 ./cmd/bhpoctl/

# One-iteration smoke run so the benchmarks can never rot; part of check.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkBoot' -benchtime 1x -benchmem ./internal/serve/ >/dev/null

# Multi-tenant scheduler gate under the race detector: the scheduler's
# unit suite plus the service-level tenant tests — the exact 3:1 grant
# split at saturation (TestFairnessWeighted3to1), per-tenant and global
# shedding (TestTenantQuota429), batch atomicity, rung-boundary
# preemption and grant-order determinism. The HTTP path under real load
# is the benchmark's tenants-contended workload (make bench-pair).
load:
	$(GO) test -race -count=1 ./internal/serve/sched/
	$(GO) test -race -count=1 -run 'TestTenant|TestFairness|TestPreempt|TestBatch|TestSchedulerDeterminism' ./internal/serve/

# Paired end-to-end comparison of the working tree against BASE with the
# repository benchmark (cmd/benchpair): alternating order, one seed per
# pair, medians, quartiles and wins per metric. Every performance claim
# in CHANGES.md is produced with this.
BASE ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Forced-fallback run: the portable blocked kernels stay tested end to
# end on SIMD hardware (BHPO_KERNEL overrides the auto-selected family),
# so a regression in the non-SIMD path cannot hide behind AVX2 CI boxes.
# internal/experiments rides along for its golden: the one place the
# "kernel families are bitwise-equal" invariant is asserted on the paper's
# own tables rather than on a matmul.
fallback:
	BHPO_KERNEL=blocked $(GO) test -count=1 ./internal/mat/ ./internal/nn/ ./internal/hpo/ ./internal/experiments/

# Go lines per package and in total, outside bench/: non-test lines —
# raw `wc -l`, the count ROADMAP's "net line count per PR" and every
# CHANGES.md entry use — the code among them (neither blank nor a `//`
# comment, so a reduction cannot come from deleted comments), and test
# lines.
loc:
	@awk ' \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); seen[d] = 1; \
			if (FILENAME ~ /_test\.go$$/) { t[d]++; T++ } \
			else { n[d]++; N++; if ($$0 !~ /^[ \t]*(\/\/|$$)/) { c[d]++; C++ } } } \
		END { printf "%8s %8s %8s  %s\n", "non-test", "code", "test", "package"; \
			for (d in seen) printf "%8d %8d %8d  %s\n", n[d], c[d], t[d], d | "sort -k4"; close("sort -k4"); \
			printf "%8d %8d %8d  total\n", N, C, T }' $$(find . -name '*.go' -not -path './bench/*')

check: vet vet-bench race cpus chaos-storm failover-storm fallback bench-smoke

fmt:
	gofmt -l -w .

# Run the HPO job service locally (see README "Running the service").
serve:
	$(GO) run ./cmd/bhpod -addr :8149

clean:
	$(GO) clean ./...
