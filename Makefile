# Convenience targets for the hybrid-LLC reproduction.

GO ?= go

.PHONY: all build test vet lint fmt-check ci race-server perfbench-test fuzz-smoke serve bench-estimate bench-record bench-ab bench-go bench-figures experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: vet always, on the root module and on the
# separate perfbench/ module (the root ./... does not reach it), and
# staticcheck when the toolchain has it (CI installs it; a bare
# container skips it rather than failing).
lint: vet
	cd perfbench && $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

test:
	$(GO) test ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Mirrors .github/workflows/ci.yml so the same gate runs locally.
ci: fmt-check lint build
	$(GO) test -race ./...
	$(MAKE) race-server
	$(MAKE) perfbench-test
	$(MAKE) fuzz-smoke
	$(MAKE) bench-estimate

# Dedicated race gate for the simd job daemon and the worker fleet —
# their queue/drain/stream/lease paths are all goroutine hand-offs — plus
# the simulator packages they drive: -count=2 reruns defeat one-shot
# schedule luck.
race-server:
	$(GO) test -race -count=2 ./internal/server ./internal/fleet ./internal/hybrid ./internal/hier ./internal/coloring

# Self-test of the frozen repository benchmark (perfbench/, its own
# module): it compiles against the simulator's API, so an API deletion
# that would break the benchmark build fails here first.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Ten seconds of coverage-guided fuzzing per target, on top of the
# checked-in corpora (which always replay as part of go test).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzBDIRoundTrip$$' -fuzztime=10s ./internal/bdi
	$(GO) test -run='^$$' -fuzz='^FuzzTraceParse$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzSweepSpecDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzEstimateSpecDecode$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzLeaseComplete$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzJournalReplay$$' -fuzztime=10s ./internal/jobstore
	$(GO) test -run='^$$' -fuzz='^FuzzColoringConfigDecode$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDeathStream$$' -fuzztime=10s ./internal/nvm
	$(GO) test -run='^$$' -fuzz='^FuzzAgeFrames$$' -fuzztime=10s ./internal/forecast

# Run the simulation daemon on :8080 (see README for the curl quickstart).
serve:
	$(GO) run ./cmd/simd

# POST /v1/estimate fast-path latency and allocation gate: fails when the
# cached p50 reaches 1 ms or a cached Estimator.Lookup allocates.
bench-estimate:
	$(GO) test -run '^$$' -bench '^BenchmarkEstimateFastPath$$' -benchtime 2000x ./internal/server

# Append this commit's perfbench medians and quartiles to BENCH_perfbench.json
# (5 runs of 20 s per workload and seed; about 15 minutes).
bench-record:
	bash scripts/bench-record.sh

# A/B of the committed HEAD against PARENT in alternating pairs of 20 s
# perfbench runs: per end-to-end metric, medians, quartiles and the
# pairs the change wins. Example: make bench-ab PARENT=HEAD~1 SEED=7
PARENT ?= HEAD~1
WORKLOAD ?= service_mixed
SEED ?= 1
PAIRS ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(WORKLOAD) $(SEED) $(PAIRS)

# Full go-test benchmark suite: one benchmark per paper table/figure,
# plus the ablation/extension benches and the substrate microbenchmarks.
bench-go:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...

# Only the figure/table reproductions, with their row logs.
bench-figures:
	$(GO) test -bench='Fig|Table' -benchtime 1x -v .

# Regenerate the calibration outputs under results/ (107 s wall, 207 s
# CPU on a 2-vCPU Xeon with Go 1.24; the same day, with a warm-up before
# every forecast window, it took 124 s wall, 237 s CPU).
experiments:
	mkdir -p results
	$(GO) run ./cmd/compressprofile                     > results/fig2.txt
	$(GO) run ./cmd/cpthsweep  -mixes 1,4,6,8           > results/fig67.txt
	$(GO) run ./cmd/cpthsweep  -fig8 -mixes 1,4,6,8     > results/fig8.txt
	$(GO) run ./cmd/thsweep    -mixes 1,4,6,8           > results/fig9.txt
	$(GO) run ./cmd/forecast   -mixes 1,4,6,8 -step 0.05 > results/fig10a.txt
	$(GO) run ./cmd/forecast   -mixes 1,4 -sram 3 -nvm 13 -policies core > results/fig10b.txt
	$(GO) run ./cmd/forecast   -mixes 1,4 -cv 0.25 -policies core        > results/fig10c.txt
	$(GO) run ./cmd/forecast   -mixes 1,4 -l2kb 256 -policies core       > results/fig11a.txt
	$(GO) run ./cmd/forecast   -mixes 1,4 -nvmlat 1.5 -policies core     > results/fig11b.txt
	$(GO) run ./cmd/cpthsweep  -epochsweep -mixes 1,4   > results/epochsweep.txt
	$(GO) run ./cmd/energy     -mixes 1,4,6,8           > results/energy.txt

clean:
	rm -f test_output.txt bench_output.txt
