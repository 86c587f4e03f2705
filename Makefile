GO ?= go
FUZZTIME ?= 5s
# fuzz-smoke does not minimize a new interesting input: minimizing costs a
# run most of its executions, and a crasher is still reported and saved to
# testdata/fuzz, only not shrunk.
FUZZMINIMIZETIME ?= 0x

.PHONY: build vet fmt-check lint test test-race test-scaling fuzz-smoke bench-smoke obs-smoke cluster-smoke examples bench check help

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Run the in-repo analyzer suite (cmd/mhlint): any unsuppressed finding
# fails. Findings are suppressed inline with
# `//mhlint:ignore <analyzer> <reason>`; run with -suppressed to audit them,
# -list to see the two analyzers (errcheck, detpath).
lint:
	$(GO) run ./cmd/mhlint ./...

test:
	$(GO) test ./...

# Race-detect the whole module. The concurrency hot spots are the PAS
# retrieval engine, the training/inference runtime, the blocked GEMM kernel,
# and parallel DQL model enumeration, but -race is cheap enough to run on
# everything.
test-race:
	$(GO) test -race ./...

# Short native-fuzzing smoke runs (one target per invocation; go test only
# accepts -fuzz for a single package).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDQLParse -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/dql
	$(GO) test -run='^$$' -fuzz=FuzzSegmentRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/floatenc
	$(GO) test -run='^$$' -fuzz=FuzzDeflateInflate -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/floatenc
	$(GO) test -run='^$$' -fuzz=FuzzOpenManifest -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/pas
	$(GO) test -run='^$$' -fuzz=FuzzLintDirective -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzGemmKernels -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/tensor
	$(GO) test -run='^$$' -fuzz=FuzzUnpackRepo -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/hub
	$(GO) test -run='^$$' -fuzz=FuzzReadRecord -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/hub
	$(GO) test -run='^$$' -fuzz=FuzzParseContentRange -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/hub
	$(GO) test -run='^$$' -fuzz=FuzzOpenCatalog -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/dlv
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzIngestSpans -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMINIMIZETIME) ./internal/obs

# Every testing.B benchmark in the module, one iteration each and no tests:
# benchmarks that never run can rot (stale fixtures, a b.Fatal on a changed
# API) without failing anything else.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# End-to-end observability check: start modelhub-server -metrics, publish +
# pull a tiny archived repo, scrape /metrics, assert well-formed JSON with
# nonzero hub.http.* and pas.* counters, and hit /debug/pprof/.
obs-smoke:
	bash scripts/obs_smoke.sh

# Distributed-hub failure drill: gateway + 3 replicas, publish through the
# gateway, kill a replica, pull from the survivors, restart it, and assert
# one anti-entropy sweep restores full replication via /metrics.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Run each program under examples/ end to end; any that fails stops the run.
examples:
	@for e in examples/*/; do \
		echo "== $$e =="; \
		$(GO) run ./$$e || exit 1; \
	done

# The end-to-end benchmark (bench/README.md): every workload of
# BENCHMARK.json, one plain round each. The root testing.B kernels run with
# go test -bench=. -benchtime=1x -run='^$$' .
bench:
	$(GO) run ./bench

# The compute-core suites, the PAS write path (pas.Create prices candidates
# on a GOMAXPROCS-wide gate, and dlv archive extends the stored plan through
# the same pricing) and batched interval evaluation (perturb's GEMMs go
# parallel), under a GOMAXPROCS matrix with the
# race detector, like the CI compute-scaling job: the determinism contract
# (bit-identical results and archive bytes at any worker count) must hold at
# every proc count.
# -count=1 defeats the test cache: GOMAXPROCS is read by the runtime, not
# through os.Getenv in test code, so cached results would not re-run. The
# purego leg builds the pure-Go GEMM kernel instead of the AVX2 one; both
# must give the same bits (dlv's pipeline digest is pinned for both).
test-scaling:
	for procs in 1 2 4; do \
		echo "== GOMAXPROCS=$$procs =="; \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 ./internal/tensor/ ./internal/dnn/ ./internal/dql/ ./internal/pas ./internal/floatenc ./internal/perturb ./internal/dlv || exit 1; \
	done
	echo "== purego =="
	$(GO) test -tags purego -count=1 ./internal/tensor/ ./internal/dnn/ ./internal/dql/ ./internal/perturb ./internal/dlv

check: build vet fmt-check lint test test-race

help:
	@echo "build       - compile all packages"
	@echo "vet         - go vet ./..."
	@echo "fmt-check   - fail on files needing gofmt"
	@echo "lint        - run the mhlint analyzer suite; any unsuppressed finding fails"
	@echo "test        - go test ./..."
	@echo "test-race   - go test -race ./..."
	@echo "fuzz-smoke  - short fuzz runs (FUZZTIME=$(FUZZTIME))"
	@echo "bench-smoke - every testing.B benchmark once (-benchtime 1x), no tests"
	@echo "obs-smoke   - live /metrics + pprof scrape against a real server"
	@echo "cluster-smoke - gateway + 3-replica failure drill with anti-entropy repair"
	@echo "examples    - run every examples/* program end to end"
	@echo "bench       - end-to-end benchmark: go run ./bench over every workload"
	@echo "test-scaling - tensor/dnn/dql/pas/floatenc/perturb/dlv suites with -race under GOMAXPROCS 1/2/4, then -tags purego"
	@echo "check       - build + vet + fmt-check + lint + test + test-race"
