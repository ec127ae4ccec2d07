# Convenience targets for the hybrid-LLC reproduction.

GO ?= go

.PHONY: all build test vet lint fmt-check ci race-server perfbench-test fuzz-smoke coloring-smoke serve server-smoke recovery-smoke estimate-smoke tournament-smoke fleet-smoke faultstudy bench-estimate bench-record bench-ab bench-go bench-figures validate experiments clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: vet always, staticcheck when the toolchain has
# it (CI installs it; a bare container skips it rather than failing).
lint: vet
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
	$(MAKE) coloring-smoke
	$(MAKE) server-smoke
	$(MAKE) recovery-smoke
	$(MAKE) estimate-smoke
	$(MAKE) tournament-smoke
	$(MAKE) fleet-smoke
	$(GO) run ./cmd/faultstudy -quick
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

# Wear-leveling smoke: the wear-feedback coloring on the zipfian
# set-pressure scenario must cut the measured inter-set wear CoV by at
# least 30% versus the identical run with coloring off, and must not
# shorten the lifetime-to-50%-capacity. The checked-in artifacts under
# results/coloring_smoke_*.json record this exact operating point.
COLORING_SMOKE = -quick -mix 12 -capacity 0.5 -measure 8000000
coloring-smoke:
	@base=$$($(GO) run ./cmd/wearmap $(COLORING_SMOKE) -json); \
	col=$$($(GO) run ./cmd/wearmap $(COLORING_SMOKE) -coloring wear:interval=2,pairs=32 -json); \
	bcov=$$(echo "$$base" | sed -n 's/.*"sim_wear_interset_cov": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	ccov=$$(echo "$$col"  | sed -n 's/.*"sim_wear_interset_cov": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	bmon=$$(echo "$$base" | sed -n 's/.*"aged_months": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	cmon=$$(echo "$$col"  | sed -n 's/.*"aged_months": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	[ -n "$$bcov" ] && [ -n "$$ccov" ] && [ -n "$$bmon" ] && [ -n "$$cmon" ] \
		|| { echo "coloring-smoke: missing fields (cov $$bcov -> $$ccov, months $$bmon -> $$cmon)"; exit 1; }; \
	awk -v b="$$bcov" -v c="$$ccov" 'BEGIN { \
		if (!(c <= 0.7 * b)) { printf "coloring-smoke: inter-set CoV %s -> %s, reduction under 30%%\n", b, c; exit 1 } }' \
		|| exit 1; \
	awk -v b="$$bmon" -v c="$$cmon" 'BEGIN { \
		if (c < b) { printf "coloring-smoke: lifetime to 50%% capacity regressed %s -> %s months\n", b, c; exit 1 } }' \
		|| exit 1; \
	echo "coloring-smoke: inter-set CoV $$bcov -> $$ccov, lifetime $$bmon -> $$cmon months"

# Run the simulation daemon on :8080 (see README for the curl quickstart).
serve:
	$(GO) run ./cmd/simd

# Daemon smoke: boot simd on a scratch port, submit a quick job over
# HTTP, poll it to completion, pull the epoch stream, and check that a
# resubmission is served from the result cache. Then boot a second
# daemon with one worker and a one-job queue: with a long job running
# and one more waiting, a third submission must bounce with 429 and a
# Retry-After header.
SMOKE_ADDR = 127.0.0.1:18080
SMOKE_QUEUE_ADDR = 127.0.0.1:18084
SMOKE_BODY = {"config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000},"warmup_cycles":100000,"measure_cycles":600000}
SMOKE_LONG_BODY = {"config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000},"warmup_cycles":0,"measure_cycles":4000000000}
server-smoke:
	@$(GO) build -o simd-smoke ./cmd/simd
	@./simd-smoke -addr $(SMOKE_ADDR) >/dev/null 2>&1 & pid=$$!; \
	./simd-smoke -addr $(SMOKE_QUEUE_ADDR) -workers 1 -queue 1 >/dev/null 2>&1 & qpid=$$!; \
	trap 'kill $$pid 2>/dev/null; kill -9 $$qpid 2>/dev/null; rm -f simd-smoke' EXIT; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "simd never came up"; exit 1; }; \
	id=$$(curl -fs -X POST -d '$(SMOKE_BODY)' http://$(SMOKE_ADDR)/v1/jobs \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1); \
	[ -n "$$id" ] || { echo "submission returned no job id"; exit 1; }; \
	state=; for i in $$(seq 1 150); do \
		state=$$(curl -fs http://$(SMOKE_ADDR)/v1/jobs/$$id \
			| sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1); \
		[ "$$state" = completed ] && break; sleep 0.2; \
	done; \
	[ "$$state" = completed ] || { echo "job $$id ended in state '$$state'"; exit 1; }; \
	epochs=$$(curl -fs http://$(SMOKE_ADDR)/v1/jobs/$$id/epochs | wc -l); \
	[ "$$epochs" -ge 2 ] || { echo "epoch stream returned $$epochs lines"; exit 1; }; \
	curl -fs http://$(SMOKE_ADDR)/v1/jobs/$$id/report?format=text | grep -q mean_ipc \
		|| { echo "report render missing mean_ipc"; exit 1; }; \
	hit=$$(curl -fs -X POST -d '$(SMOKE_BODY)' http://$(SMOKE_ADDR)/v1/jobs \
		| sed -n 's/.*"cache_hit": *\(true\|false\).*/\1/p' | head -1); \
	[ "$$hit" = true ] || { echo "resubmission was not a cache hit"; exit 1; }; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(SMOKE_QUEUE_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "simd -queue 1 never came up"; exit 1; }; \
	long=$$(curl -fs -X POST -d '$(SMOKE_LONG_BODY)' http://$(SMOKE_QUEUE_ADDR)/v1/jobs \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1); \
	[ -n "$$long" ] || { echo "long submission returned no job id"; exit 1; }; \
	state=; for i in $$(seq 1 100); do \
		state=$$(curl -fs http://$(SMOKE_QUEUE_ADDR)/v1/jobs/$$long \
			| sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1); \
		[ "$$state" = running ] && break; sleep 0.1; \
	done; \
	[ "$$state" = running ] || { echo "long job $$long never started (state '$$state')"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '$(SMOKE_BODY)' http://$(SMOKE_QUEUE_ADDR)/v1/jobs); \
	[ "$$code" = 202 ] || { echo "second submission got $$code, want 202"; exit 1; }; \
	hdrs=$$(curl -s -o /dev/null -D - -X POST -d '$(SMOKE_BODY)' http://$(SMOKE_QUEUE_ADDR)/v1/jobs | tr -d '\r'); \
	echo "$$hdrs" | head -1 | grep -q ' 429' || { echo "third submission: $$(echo "$$hdrs" | head -1), want 429"; exit 1; }; \
	retry=$$(echo "$$hdrs" | sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9][0-9]*\)$$/\1/p'); \
	[ -n "$$retry" ] || { echo "429 without a Retry-After header"; exit 1; }; \
	echo "server-smoke: job $$id completed, $$epochs epochs streamed, cache hit on resubmit; full queue answered 429, Retry-After $$retry"

# Crash-recovery smoke: boot simd with a durable data directory, submit
# a four-child sweep, SIGKILL the daemon once at least one child has
# completed, restart it over the same directory, and require the sweep
# to finish with every child completed — the survivors served from
# artifacts (cache hits), the interrupted ones re-executed.
RECOVERY_ADDR = 127.0.0.1:18081
RECOVERY_SWEEP = {"base":{"config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000},"warmup_cycles":100000,"measure_cycles":2000000},"axes":[{"field":"policy","values":["CA","CA_RWR"]},{"field":"cpth","values":[30,40]}],"concurrency":1}
recovery-smoke:
	@$(GO) build -o simd-recovery ./cmd/simd
	@rm -rf recovery-smoke-data; \
	./simd-recovery -addr $(RECOVERY_ADDR) -data recovery-smoke-data >/dev/null 2>&1 & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null; rm -rf simd-recovery recovery-smoke-data' EXIT; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(RECOVERY_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "simd never came up"; exit 1; }; \
	sid=$$(curl -fs -X POST -d '$(RECOVERY_SWEEP)' http://$(RECOVERY_ADDR)/v1/sweeps \
		| sed -n 's/.*"id": *"\(sweep-[^"]*\)".*/\1/p' | head -1); \
	[ -n "$$sid" ] || { echo "sweep submission returned no id"; exit 1; }; \
	done_n=; for i in $$(seq 1 600); do \
		done_n=$$(curl -fs http://$(RECOVERY_ADDR)/v1/sweeps/$$sid \
			| sed -n 's/.*"completed": *\([0-9][0-9]*\).*/\1/p' | head -1); \
		[ -n "$$done_n" ] && [ "$$done_n" -ge 1 ] && break; sleep 0.1; \
	done; \
	[ -n "$$done_n" ] && [ "$$done_n" -ge 1 ] || { echo "no child completed before the kill"; exit 1; }; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	./simd-recovery -addr $(RECOVERY_ADDR) -data recovery-smoke-data >/dev/null 2>&1 & pid=$$!; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(RECOVERY_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "simd never came back after the kill"; exit 1; }; \
	state=; for i in $$(seq 1 600); do \
		state=$$(curl -fs http://$(RECOVERY_ADDR)/v1/sweeps/$$sid \
			| sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1); \
		[ "$$state" = completed ] && break; sleep 0.2; \
	done; \
	[ "$$state" = completed ] || { echo "resumed sweep ended in state '$$state'"; exit 1; }; \
	body=$$(curl -fs http://$(RECOVERY_ADDR)/v1/sweeps/$$sid); \
	completed=$$(echo "$$body" | sed -n 's/.*"completed": *\([0-9][0-9]*\).*/\1/p' | head -1); \
	hits=$$(echo "$$body" | sed -n 's/.*"cache_hits": *\([0-9][0-9]*\).*/\1/p' | head -1); \
	[ "$$completed" = 4 ] || { echo "resumed sweep completed $$completed/4 children"; exit 1; }; \
	[ -n "$$hits" ] && [ "$$hits" -ge 1 ] || { echo "no child was served from artifacts ($$hits hits)"; exit 1; }; \
	echo "recovery-smoke: sweep $$sid survived SIGKILL ($$done_n done at kill, $$hits artifact hits after restart)"

# Analytic-estimate smoke: boot simd, query POST /v1/estimate twice (the
# second must be a cache hit), then run the matching full job over a
# measure window equal to the calibration window and require the
# estimate's young_ipc to agree with the simulated mean_ipc — equal
# windows make the two measurements the same simulation, so they must
# agree to float round-off, not just to the error bound.
ESTIMATE_ADDR = 127.0.0.1:18082
ESTIMATE_CFG = "config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000,"policy":"BH","endurance_mean":20000},"warmup_cycles":100000
ESTIMATE_BODY = {$(ESTIMATE_CFG),"calibration_cycles":600000}
ESTIMATE_JOB = {$(ESTIMATE_CFG),"measure_cycles":600000}
estimate-smoke:
	@$(GO) build -o simd-estimate ./cmd/simd
	@./simd-estimate -addr $(ESTIMATE_ADDR) >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -f simd-estimate' EXIT; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(ESTIMATE_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "simd never came up"; exit 1; }; \
	first=$$(curl -fs -X POST -d '$(ESTIMATE_BODY)' http://$(ESTIMATE_ADDR)/v1/estimate); \
	young=$$(echo "$$first" | sed -n 's/.*"young_ipc": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	[ -n "$$young" ] || { echo "estimate returned no young_ipc: $$first"; exit 1; }; \
	hit=$$(curl -fs -X POST -d '$(ESTIMATE_BODY)' http://$(ESTIMATE_ADDR)/v1/estimate \
		| sed -n 's/.*"cache_hit": *\(true\|false\).*/\1/p' | head -1); \
	[ "$$hit" = true ] || { echo "repeat estimate was not a cache hit"; exit 1; }; \
	id=$$(curl -fs -X POST -d '$(ESTIMATE_JOB)' http://$(ESTIMATE_ADDR)/v1/jobs \
		| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1); \
	[ -n "$$id" ] || { echo "job submission returned no id"; exit 1; }; \
	state=; for i in $$(seq 1 150); do \
		state=$$(curl -fs http://$(ESTIMATE_ADDR)/v1/jobs/$$id \
			| sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1); \
		[ "$$state" = completed ] && break; sleep 0.2; \
	done; \
	[ "$$state" = completed ] || { echo "job $$id ended in state '$$state'"; exit 1; }; \
	mean=$$(curl -fs http://$(ESTIMATE_ADDR)/v1/jobs/$$id \
		| sed -n 's/.*"mean_ipc": *\([0-9.e+-]*\).*/\1/p' | head -1); \
	[ -n "$$mean" ] || { echo "completed job carries no mean_ipc"; exit 1; }; \
	awk -v y="$$young" -v m="$$mean" 'BEGIN { \
		d = y - m; if (d < 0) d = -d; \
		if (m == 0 || d / m > 1e-6) { printf "young_ipc %s disagrees with mean_ipc %s\n", y, m; exit 1 } }' \
		|| exit 1; \
	echo "estimate-smoke: cached estimate agrees with the simulated IPC ($$young vs $$mean)"

# Tournament smoke: the policy league table on the quick preset, run
# twice — the standings must be byte-identical (league determinism is an
# acceptance guarantee, not a best effort).
tournament-smoke:
	@$(GO) run ./cmd/tournament -quick > tournament-smoke-1.txt
	@$(GO) run ./cmd/tournament -quick > tournament-smoke-2.txt
	@diff tournament-smoke-1.txt tournament-smoke-2.txt \
		|| { echo "tournament league table is nondeterministic"; exit 1; }
	@grep -q "standings" tournament-smoke-1.txt \
		|| { echo "tournament output lacks the standings table"; exit 1; }
	@rm -f tournament-smoke-1.txt tournament-smoke-2.txt
	@echo "tournament-smoke: deterministic league table"

# Fleet smoke: a remote-only coordinator plus two pull-loop workers, all
# real processes on localhost. One worker is SIGKILLed while it holds a
# lease; the coordinator must expire that lease on the heartbeat
# deadline (visible in the Prometheus exposition), requeue the job, and
# the surviving worker must still finish the whole sweep — every upload
# hash-verified against its content address before acceptance.
FLEET_ADDR = 127.0.0.1:18083
FLEET_SWEEP = {"base":{"config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000},"warmup_cycles":100000,"measure_cycles":8000000},"axes":[{"field":"cpth","values":[20,30,40,50]}],"concurrency":2}
fleet-smoke:
	@$(GO) build -o simd-fleet ./cmd/simd
	@rm -rf fleet-smoke-data; \
	./simd-fleet -addr $(FLEET_ADDR) -remote-only -data fleet-smoke-data -lease-ttl 1s -log-format json >/dev/null 2>&1 & cpid=$$!; \
	w1=; w2=; \
	trap 'kill -9 $$cpid $$w1 $$w2 2>/dev/null; rm -rf simd-fleet fleet-smoke-data' EXIT; \
	ok=; for i in $$(seq 1 50); do \
		curl -fs http://$(FLEET_ADDR)/healthz >/dev/null 2>&1 && ok=1 && break; sleep 0.1; \
	done; \
	[ -n "$$ok" ] || { echo "coordinator never came up"; exit 1; }; \
	./simd-fleet -worker -join http://$(FLEET_ADDR) -worker-id smoke-w1 >/dev/null 2>&1 & w1=$$!; \
	./simd-fleet -worker -join http://$(FLEET_ADDR) -worker-id smoke-w2 >/dev/null 2>&1 & w2=$$!; \
	sid=$$(curl -fs -X POST -d '$(FLEET_SWEEP)' http://$(FLEET_ADDR)/v1/sweeps \
		| sed -n 's/.*"id": *"\(sweep-[^"]*\)".*/\1/p' | head -1); \
	[ -n "$$sid" ] || { echo "sweep submission returned no id"; exit 1; }; \
	held=; for i in $$(seq 1 100); do \
		curl -fs http://$(FLEET_ADDR)/v1/leases | grep -q '"worker": *"smoke-w1"' && held=1 && break; sleep 0.1; \
	done; \
	[ -n "$$held" ] || { echo "smoke-w1 never acquired a lease"; exit 1; }; \
	kill -9 $$w1 2>/dev/null; wait $$w1 2>/dev/null; w1=; \
	expired=; for i in $$(seq 1 100); do \
		n=$$(curl -fs -H 'Accept: text/plain; version=0.0.4' http://$(FLEET_ADDR)/metrics \
			| sed -n 's/^simd_fleet_leases_expired \([0-9][0-9]*\).*/\1/p' | head -1); \
		[ -n "$$n" ] && [ "$$n" -ge 1 ] && expired=$$n && break; sleep 0.2; \
	done; \
	[ -n "$$expired" ] || { echo "killed worker's lease never expired"; exit 1; }; \
	state=; for i in $$(seq 1 600); do \
		state=$$(curl -fs http://$(FLEET_ADDR)/v1/sweeps/$$sid \
			| sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1); \
		[ "$$state" = completed ] && break; sleep 0.2; \
	done; \
	[ "$$state" = completed ] || { echo "sweep ended in state '$$state' after the worker kill"; exit 1; }; \
	completed=$$(curl -fs http://$(FLEET_ADDR)/v1/sweeps/$$sid \
		| sed -n 's/.*"completed": *\([0-9][0-9]*\).*/\1/p' | head -1); \
	[ "$$completed" = 4 ] || { echo "sweep completed $$completed/4 children"; exit 1; }; \
	requeued=$$(curl -fs -H 'Accept: text/plain; version=0.0.4' http://$(FLEET_ADDR)/metrics \
		| sed -n 's/^simd_fleet_leases_requeued \([0-9][0-9]*\).*/\1/p' | head -1); \
	[ -n "$$requeued" ] && [ "$$requeued" -ge 1 ] || { echo "expired lease was never requeued ($$requeued)"; exit 1; }; \
	kill $$w2 2>/dev/null; \
	echo "fleet-smoke: sweep $$sid survived worker SIGKILL ($$expired lease expired, $$requeued requeued, 4/4 children hash-verified)"

# Deterministic fault-injection degradation study (quick preset).
faultstudy:
	$(GO) run ./cmd/faultstudy -quick

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

# End-to-end self checks (bit-exact data path, trace fidelity, invariants).
validate:
	$(GO) run ./cmd/validate

# Regenerate the calibration outputs under results/ (tens of minutes).
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
	rm -f test_output.txt bench_output.txt simd-smoke simd-recovery simd-estimate simd-fleet tournament-smoke-1.txt tournament-smoke-2.txt
	rm -rf recovery-smoke-data fleet-smoke-data
