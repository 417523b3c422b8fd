# Developer entry points. Everything is plain `go` underneath; the
# targets just fix the flag sets CI and reviewers use.

GO ?= go

.PHONY: all build test race vet staticcheck bench clean ci race-sweep bench-smoke bench-json bench-json-check

all: build test

# Everything CI runs (.github/workflows/ci.yml): build, vet (plus
# staticcheck when installed), the full test suite, a race-mode pass over
# the concurrent paths, and the benchmark smoke run.
ci: build vet staticcheck test race-sweep bench-smoke

# Race-mode pass over the packages with goroutines: the parallel sweep
# engine, the metrics registry it publishes progress/percentiles
# through, the parallel simulation kernel's worker/barrier protocol
# (both its own stress tests and the forced-dispatch run over real
# components), and the concurrent pmemaccel.Run entry points.
race-sweep:
	$(GO) test -race ./internal/sweep/ ./internal/obs/metrics/ ./internal/figures/ ./internal/sim/ .
	$(GO) test -race -run 'TestParallelKernel' -count=1 .
	$(GO) test -race -run 'TestContended' -count=1 .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a note when the staticcheck
# binary is not on PATH (CI installs it; local runs need not).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Regenerate the paper's headline numbers (Figures 6-10, Table 1).
bench:
	$(GO) test -bench=Fig -benchtime=1x .

# Simulator speed with and without the observability layer.
bench-speed:
	$(GO) test -bench='SimulatorSpeed' -benchtime=3x .

# One-iteration benchmark smoke run: catches benchmarks that no longer
# compile or crash, without measuring anything. The SimulatorSpeed
# pattern covers the plain, observability-on, and 4-channel
# (SimulatorSpeedMultiChannel) configurations; the Image, KernelEvents
# and ControllerTick patterns cover the memory-image, event-queue and
# memory-controller component benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench SimulatorSpeed -benchtime 1x .
	$(GO) test -run '^$$' -bench Image -benchtime 1x ./internal/memimage/
	$(GO) test -run '^$$' -bench KernelEvents -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench ControllerTick -benchtime 1x ./internal/memctrl/

# Benchmark-trajectory harness: run the simulator-speed benchmarks
# (3 iterations each — single-iteration numbers swing by ~10%, the
# entire gate tolerance) and record ns/op, allocs/op and sim_cycles/s
# per benchmark into BENCH_9.json via cmd/benchjson. The file is
# committed, so speed regressions show up as diffs; -baseline
# additionally fails the run when sim_cycles/s fell more than 10% below
# the previous PR's record (BENCH_8.json).
bench-json:
	$(GO) test -run '^$$' -bench SimulatorSpeed -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -o BENCH_9.json -baseline BENCH_8.json

# Validate the committed trajectory record and gate it against the
# previous PR's record (CI smoke gate; deterministic — compares the two
# committed files, no benchmark run).
bench-json-check:
	$(GO) run ./cmd/benchjson -check BENCH_9.json -baseline BENCH_8.json

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.csv
