# Developer entry points. `make check` is the gate CI (and reviewers)
# run: static analysis (the targets' -run patterns included), the full
# suite under the race detector, and then only what adds a configuration
# to that — other P counts, the 30-second storms, the portable (purego)
# kernel path, the goldens without FMA, the benchmark smoke run. The
# scenario targets (crash, chaos, sse, failover, membership, load) are
# developer shortcuts: named slices of what `race` already ran.

GO ?= go

.PHONY: all build test race vet vet-bench deadcode runnames nofma cover cpus check crash chaos chaos-storm sse failover failover-storm membership fallback bench-smoke bench-pair load loc fmt serve clean

# The Fit/Evaluate microbenchmark family of bench_test.go and the
# matmul row kernels of internal/mat.
BENCH_PATTERN = BenchmarkMat|BenchmarkFit|BenchmarkEvaluate

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The purego and arm64 lines compile what a native amd64 vet skips: the
# SIMD stubs and the build-constraint split of the assembly.
vet:
	$(GO) vet ./...
	$(GO) vet -tags purego ./...
	GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race ./...

# bench/ is a module of its own, invisible to the root `go build ./...`
# and `go vet ./...`: without this step, deleting a symbol the benchmark
# imports would pass every other gate.
vet-bench:
	$(GO) vet -C bench ./...
	$(GO) build -C bench -o /dev/null ./...

# Every exported function, method and variable under internal/ has a
# non-test caller in the root module or in bench/, or is on the short
# allow-list in deadcode_test.go. It type-checks both modules (seconds),
# so it sits behind a build tag, outside the plain `go test ./...`.
deadcode:
	$(GO) test -tags deadcode -count=1 -run '^TestDeadExports$$' .

# Every alternative of every -run pattern below matches a test of the
# packages on its line: a deleted or renamed test fails here instead of
# leaving a target that silently runs nothing. It lists the tests of each
# line's packages (seconds), so it sits behind a build tag.
runnames:
	$(GO) test -tags runnames -count=1 -run '^TestMakefileRunNames$$' .

# The goldens of internal/experiments and internal/core again with the
# FMA path of math.Exp switched off: they hold on CPUs without FMA too.
nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/experiments/ ./internal/core/

# One merged coverage profile of the whole suite over every package of
# the module, and the statements it never executed, per package.
COVERPROFILE ?= cover.out
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=$(COVERPROFILE) ./... >/dev/null
	@awk -F'[: ]' 'NR > 1 { k = $$1 ":" $$2; n[k] = $$3; if ($$4 > 0) hit[k] = 1 } \
		END { for (k in n) { d = k; sub(/\/[^\/]*:.*$$/, "", d); all[d] += n[k]; A += n[k]; \
				if (!hit[k]) { miss[d] += n[k]; M += n[k] } } \
			printf "%8s %8s %7s  %s\n", "missed", "stmts", "missed%", "package"; \
			for (d in all) printf "%8d %8d %6.1f%%  %s\n", miss[d], all[d], 100 * miss[d] / all[d], d | "sort -k4"; \
			close("sort -k4"); printf "%8d %8d %6.1f%%  total\n", M, A, 100 * M / A }' $(COVERPROFILE)

# The determinism, preemption-replay and bitwise-parity tests at one,
# two and four Ps, three times each: results may not depend on how many
# cores the scheduler has, and a test tuned to one machine's timing
# fails here instead of on the next box — with them the evaluation-slot
# acquire/cancel/borrow races, the one inflight gauge and fold lending,
# which lends more or less often with the core count and must not show
# in a score — nor may the order SHA's parallel rounds report trials in.
# With them the per-parameter kernels against their Go loops, L-BFGS
# against its every-trial-backpropagated oracle, concurrent fits on
# shared datasets against solo ones (TestFitBatchMatchesFitBitwise), and
# the served job of every method and variant that must equal a core.Run
# of its spec bit for bit (TestServedJobMatchesCoreRun), and a core.Run
# that lends folds to idle cores against one at one P, which lends none
# (TestRunDeterministicBest). With them the service's equivalence gate:
# a job of each bandit method that a lending pool, a preemption, a kill,
# a short history or an evicted scope may not move from its plain twin
# (TestTwinEquivalence), and a node that serves every job's every surface
# the same after a restart or a restore (TestReadBackEquivalence).
# The same for the cluster layer's non-chaos tests (coordinator, submit retry, membership
# journal, ring, shipper lanes, sinks, restore, the file handles a lane
# and a sink keep open while a segment grows), five times each, and
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
# per life, a journal replayed across four killed lives, hook order under
# rotation and the frozen bytes — and for the sink manifest on the same
# writer: the cut entry, the torn tail that may not hide a later seal and
# the boot's re-seal that adds no entry. And for the job lifecycle: every path's
# journal records and status events, the finished job that reads the same
# after a restart, the first start a replay keeps — and for the curve that
# only the trace log holds: the listing that decodes no history, the short
# history that is counted, the older binary's embedded curve, the points a
# resumed life publishes twice — and the resume that goes on from those points alone: an older
# binary's checkpoint, a preempt record that does not grow with the
# trials. And for the chaos
# harness's short storm, whose journal may rotate on its last record — a
# sealed segment with none after it, which a one-P run hits often.
cpus:
	$(GO) test -cpu 1,2,4 -count 3 -run 'Determinis|Preempt|Bitwise|Matches|SideBySide|IdleSlot|LentFold|EvaluateConcurrent|TestEvalSlot|TestPoolInflightGauge|TrialOrderAnyWorkers|TestSHAParallel|TestElementwiseKernelsMatchGo|TestLBFGSMatchesFullGradientBitwise|TestTwinEquivalence|TestReadBackEquivalence' \
		./internal/mat/ ./internal/hpo/ ./internal/nn/ ./internal/core/ ./internal/serve/ ./internal/serve/sched/
	$(GO) test -cpu 1,2,4 -count 5 -run 'TestCoordinator|TestSubmitRetry|TestMemberJournal|TestRing|TestMultiSink|TestShipper|TestDirSink|TestRestore|TestKeptHandle' \
		./internal/coord/ ./internal/serve/shipper/
	$(GO) test -cpu 1,2,4 -count 1 -run 'TestFailover|TestMembership|TestShutdownJoinsFailover' ./internal/coord/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestRotationConcurrentAppends|TestCrashReopen|TestTraceByteIdenticalAcrossRebuild|TestNoPerJobSeal|TestPrime|TestRestartServesThreeKindsOfJob|TestFailedBoot' \
		./internal/serve/tracestore/ ./internal/serve/ ./internal/events/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestCutWrite|TestMemberJournal|TestEveryLifeStartsItsOwnSegment|TestReplayAcrossLives|TestOnChange|TestSegmentBytesFrozen|TestFailedUndo|TestOpenFileCutsTornTail|TestDirSinkTornManifestTail|TestDirSinkResealAddsNoEntry' \
		./internal/serve/seglog/ ./internal/serve/journal/ ./internal/serve/tracestore/ ./internal/coord/ ./internal/serve/shipper/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestJobLifecycleRecords|TestFinishedJobReadsSameAfterRestart|TestReplayKeepsFirstStart|TestListingLeavesHistoriesUndecoded|TestShortHistoryCounted|TestEmbeddedCurveFixtureBoots|TestResumedPastCheckpointReadsSameAfterRestart|TestParentCheckpointResumes|TestPreemptRecordStaysSmall' \
		./internal/serve/ ./internal/serve/journal/
	$(GO) test -cpu 1,2,4 -count 3 -run 'TestChaosOverload' ./internal/serve/

# Crash-safety suite: journal replay across lives, a sink that holds each
# record once however often the node restarts, the equivalence gate's two
# tables (a job killed queued, preempted or with a short history ends as
# its twin; a finished, an interrupted, a resumable and a resumed-past-its-
# checkpoint job read back the same after a restart or a restore), the
# kill/restart recovery of each kind of job, a finished job and one resumed
# past its checkpoint read back the same after a restart, every
# lifecycle path's records and events, a curve read back from the trace
# log (listed without decoding, a short history counted, an older binary's
# embedded curve and checkpoint), panic isolation, retry + failure budget
# and its capped backoff, timeout/shutdown reasons, drain.
crash:
	$(GO) test -race -count=1 ./internal/serve/journal/...
	$(GO) test -race -count=1 -run 'TestTwinEquivalence|TestReadBackEquivalence|TestRestartRecovery|TestSinkHoldsEachRecordOnce|TestJobLifecycleRecords|TestFinishedJobReadsSameAfterRestart|TestResumedPastCheckpointReadsSameAfterRestart|TestListingLeavesHistoriesUndecoded|TestShortHistoryCounted|TestEmbeddedCurveFixtureBoots|TestParentCheckpointResumes|TestDeadlineJournalsNothing|TestPanicIsolation|TestTransientFailureRetried|TestRetryDelayCapped|TestRetryBackoffEndsOnCancel|TestFailureBudgetAbsorbsTrial|TestTimeoutReason|TestShutdownWithInFlightJobs|TestDrainRefusesSubmissions' ./internal/serve/

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
# every event exactly once in order), every job's feed, trace and SSE
# resume read back the same after a kill/restart or a restore
# (TestReadBackEquivalence), a finished job's trace replayed from 0 after
# a kill/restart (TestTraceSurvivesKillAndRestart), slow-consumer drop
# accounting, the
# ?since=N incremental poll, the hub unit tests, trace-store
# crash-safety, and the `bhpo watch` client — all under -race.
sse:
	$(GO) test -race -count=1 ./internal/events/... ./internal/serve/tracestore/...
	$(GO) test -race -count=1 -run 'TestSSE|TestSlowConsumerDropsCounted|TestGetJobSince|TestReadBackEquivalence|TestTraceSurvivesKillAndRestart|TestMetricsExposeEventCounters' ./internal/serve/
	$(GO) test -race -count=1 -run 'TestWatch' ./cmd/bhpo/

# Cluster failover suite: the node-kill chaos e2es — the manual-replace
# variant and, with BHPOD_AUTO_FAILOVER=1, the zero-operator variant (a
# worker killed -9 mid-storm heals with no manual /cluster/replace: the
# coordinator verifies shipped replicas across sink roots, quarantines a
# failing standby, promotes the next, survives its own restart
# mid-incident via the membership journal, loses zero acked jobs, keeps
# byte-identical pre-crash curves, and resumes SSE at last-seq+1) — plus
# the hash-ring, multi-sink shipper (its kept file handles included) and
# coordinator unit suites, and a node restored from its synchronously
# shipped replica serving every job as it did (TestReadBackEquivalence). Plain
# `go test` runs a ~2s storm; BHPOD_CHAOS_SECONDS overrides the length.
# failover-storm is the two e2es at the full chaos budget: the part no
# other target runs, and the part `make check` includes.
failover: failover-storm
	$(GO) test -race -count=1 ./internal/serve/shipper/... ./internal/coord/
	$(GO) test -race -count=1 -run 'TestReadBackEquivalence|TestSubmitToken|TestNode|TestRunServes' ./internal/serve/ ./cmd/bhpod/

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
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . ./internal/mat/ >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkBoot' -benchtime 1x -benchmem ./internal/serve/ >/dev/null

# Multi-tenant scheduler gate under the race detector: the scheduler's
# unit suite plus the service-level tenant tests — the exact 3:1 grant
# split at saturation (TestFairnessWeighted3to1), per-tenant and global
# shedding (TestTenantQuota429), batch atomicity, rung-boundary
# preemption (TestTwinEquivalence's preempted rows) and grant-order
# determinism. The HTTP path under real load
# is the benchmark's tenants-contended workload (make bench-pair).
load:
	$(GO) test -race -count=1 ./internal/serve/sched/
	$(GO) test -race -count=1 -run 'TestTenant|TestFairness|TestPreempt|TestBatch|TestSchedulerDeterminism|TestTwinEquivalence' ./internal/serve/

# Paired end-to-end comparison of the working tree against BASE with the
# repository benchmark (cmd/benchpair): alternating order, one seed per
# pair, medians, quartiles and wins per metric. Every performance claim
# in CHANGES.md is produced with this.
BASE ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# Portable-path run: -tags purego leaves the AVX2 assembly out of the
# build, so the blocked kernels stay tested end to end on SIMD hardware
# and a regression in the non-SIMD path cannot hide behind AVX2 CI boxes.
# That includes the Go loops of the Adam step and the L2 fold, which
# every adam fit and every gradient in internal/nn run under it.
# internal/experiments rides along for its golden: the one place the
# "kernel families are bitwise-equal" invariant is asserted on the paper's
# own tables rather than on a matmul.
fallback:
	$(GO) test -count=1 -tags purego ./internal/mat/ ./internal/nn/ ./internal/hpo/ ./internal/experiments/

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

check: vet vet-bench deadcode runnames race cpus chaos-storm failover-storm fallback nofma bench-smoke

fmt:
	gofmt -l -w .

# Run the HPO job service locally (see README "Running the service").
serve:
	$(GO) run ./cmd/bhpod -addr :8149

clean:
	$(GO) clean ./...
