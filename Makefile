# SprintCon reproduction — common targets.

GO ?= go

.PHONY: all build vet test examples race chaos chaos-service soak fuzz gobench report experiments docs-check clean

all: build vet test

build:
	$(GO) build ./...

# perfbench is its own module (it imports sprintcon/internal/...), so the
# root ./... patterns never compile it; vet and test it explicitly.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...
	cd perfbench && $(GO) test ./...

# Run every example end to end with its output discarded; stops at the
# first example that fails or exits non-zero (go build only compiles them).
examples:
	@set -e; for d in examples/*/; do \
		d=$${d%/}; echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

race:
	$(GO) test -race ./...

chaos:
	$(GO) test -run TestChaos -v ./internal/core/ ./internal/hier/

# Service chaos: submission storms with abusive stream clients against a
# live sprintd, then kill -9 + restart of a real sprintd process on a
# shared state dir. Zero lost records, zero stuck runs, a live /healthz
# throughout. Set SPRINTD_CHAOS_STATE to keep the journal for inspection.
chaos-service:
	$(GO) test -run TestChaosService -v ./cmd/sprintd/

# Soak: randomized fault storms — rack-local storms with controller crashes
# (core), and network storms over the control link (hier), alternating
# restore-from-checkpoint and fail-safe restarts. Every run must stay trip-,
# outage- and SoC-breach-free. SOAK_RUNS scales it.
soak:
	SOAK_RUNS=40 $(GO) test -run TestSoak -v ./internal/core/ ./internal/hier/

# Fuzz smoke: every fuzz target (checkpoint decoder, scenario loader,
# interactive-trace CSV parser, batch-job advance, P-state quantizer,
# generated tick ≡ event scenarios), ten seconds each (CI runs the same
# budget; leave the fuzzers running longer locally with go test -fuzz=...
# -fuzztime=10m).
fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s -run='^$$' ./internal/checkpoint/
	$(GO) test -fuzz='^FuzzScenarioJSON$$' -fuzztime=10s -run='^$$' ./internal/sim/
	$(GO) test -fuzz='^FuzzTraceFromCSV$$' -fuzztime=10s -run='^$$' ./internal/workload/
	$(GO) test -fuzz='^FuzzBatchAdvance$$' -fuzztime=10s -run='^$$' ./internal/workload/
	$(GO) test -fuzz='^FuzzQuantize$$' -fuzztime=10s -run='^$$' ./internal/cpu/
	$(GO) test -fuzz='^FuzzEventMatchesTick$$' -fuzztime=10s -run='^$$' ./internal/core/

# Raw go-test micro-benchmarks (per-function, -benchmem).
gobench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

report:
	$(GO) run ./cmd/report -o REPORT.md -figdir figs

experiments:
	$(GO) run ./cmd/experiments -exp all

# Documentation gate: vet, every relative link and #anchor in the
# operator-facing documents must resolve (cmd/docscheck), and the core
# packages' godoc must render (a missing package or broken example fails
# `go doc`).
docs-check:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/OPERATING.md
	$(GO) doc sprintcon/internal/hier >/dev/null
	$(GO) doc sprintcon/internal/link >/dev/null
	$(GO) doc sprintcon/internal/core >/dev/null

# Keep figs/hierarchy.svg: it is the committed architecture diagram
# (DESIGN.md §14), not a cmd/report artifact.
clean:
	rm -f REPORT.md bench_output.txt test_output.txt
	rm -f figs/sgct*.svg figs/sprintcon*.svg
