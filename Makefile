# Developer entry points. `make check` is the gate CI (and reviewers)
# run: static analysis, the full suite under the race detector with the
# 30-second chaos storms, the full suite again at one, two and four Ps,
# and then only what adds a configuration to that — the portable (purego)
# kernel path, the goldens without FMA, the benchmark smoke run — and ten
# seconds of each fuzzer. Every target names packages, not tests, but
# deadcode and fuzz, which go test can only run by name.

GO ?= go

.PHONY: all build test race vet vet-bench deadcode nofma cover cpus check fallback bench-smoke fuzz bench-pair loc fmt serve clean

# The Fit/Evaluate microbenchmark family of bench_test.go, the matmul
# row kernels of internal/mat and the initial-weight draw of internal/rng.
BENCH_PATTERN = BenchmarkMat|BenchmarkFit|BenchmarkEvaluate|BenchmarkFillUniform

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

# The chaos harnesses (the service's overload storm, the cluster's kill -9
# failover) read their storm length from BHPOD_CHAOS_SECONDS; plain `go
# test` runs them for ~2 s, the race suite for 30.
race:
	BHPOD_CHAOS_SECONDS=30 $(GO) test -race ./...

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

# The goldens of internal/experiments and internal/core again with the
# FMA path of math.Exp switched off: they hold on CPUs without FMA too.
# internal/mat and internal/nn ride along: there the activation kernels
# must pick their plain exp variant and match math.Exp's non-FMA path;
# internal/rng, for the four-lane draw of the initial weights.
nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/experiments/ ./internal/core/ ./internal/mat/ ./internal/nn/ ./internal/rng/

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

# The whole suite at one, two and four Ps, three times each: results may
# not depend on how many cores the scheduler has — determinism, bitwise
# parity, fold lending, preemption replay, a served job equal to a
# core.Run of its spec — and a test tuned to one machine's timing fails
# here instead of on the next box. The cluster layer (coordinator,
# failover, membership, shipper lanes and sinks), whose tests race real
# servers against each other, runs twice more, and so does the event hub,
# which alone holds the streams' exactly-once delivery.
cpus:
	$(GO) test -cpu 1,2,4 -count 3 ./...
	$(GO) test -cpu 1,2,4 -count 2 ./internal/coord/ ./internal/serve/shipper/ ./internal/events/

# One-iteration smoke run so the benchmarks can never rot; part of check.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x -benchmem . ./internal/mat/ ./internal/rng/ >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkBoot|BenchmarkWarmJob' -benchtime 1x -benchmem ./internal/serve/ >/dev/null

# Each fuzzer for 10 s: the boot on bytes appended to a log, POST /jobs,
# the CSV reader and the search-space JSON. `go test -fuzz` takes one
# target at a time, so this target names them, the one place besides
# deadcode that names tests. A finding is written under the package's
# testdata/fuzz/, where the plain `go test ./...` reruns it with the seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBoot$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpaceJSON$$' -fuzztime 10s ./internal/search/

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
# That includes the Go loops of the per-parameter kernels (the Adam, SGD
# and L-BFGS steps, the L2 fold, L-BFGS's vector passes) and the
# activations, which every fit and every gradient in internal/nn run
# under it, and internal/rng's initial-weight draw, whose lanes fall back
# to FillUniform.
# internal/experiments rides along for its golden: the one place the
# "kernel families are bitwise-equal" invariant is asserted on the paper's
# own tables rather than on a matmul. The GOAMD64=v3 lines are the build
# in which the compiler may use FMA in Go code — the reference loops and
# math.tanh — so the kernels' parity and the golden are held there too,
# with the assembly and, under purego, on the Go references themselves,
# which every product's float64(·) keeps from fusing.
fallback:
	$(GO) test -count=1 -tags purego ./internal/mat/ ./internal/nn/ ./internal/rng/ ./internal/hpo/ ./internal/experiments/
	GOAMD64=v3 $(GO) test -count=1 ./internal/mat/ ./internal/nn/ ./internal/rng/ ./internal/experiments/
	GOAMD64=v3 $(GO) test -count=1 -tags purego ./internal/mat/ ./internal/nn/ ./internal/rng/ ./internal/experiments/

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

check: vet vet-bench deadcode race cpus fallback nofma bench-smoke fuzz

fmt:
	gofmt -l -w .

# Run the HPO job service locally (see README "Running the service").
serve:
	$(GO) run ./cmd/bhpod -addr :8149

clean:
	$(GO) clean ./...
