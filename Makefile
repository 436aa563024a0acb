GO ?= go
SERVER_FLAGS ?=
GATEWAY_FLAGS ?= -backends http://127.0.0.1:8080
COVER_PROFILE ?= coverage.out
COVER_FLOOR ?= 70.0

# Absolute: go test runs with the package directory as cwd.
CHAOS_LOG ?= $(CURDIR)/BENCH_chaos.log
# bench-ab: the git ref to compare the working tree against, and how many
# runs of every workload each side gets.
BASE ?= HEAD
BENCH_AB_RUNS ?= 3
# The golang.org/x/tools release `make deadcode-tool` installs.
DEADCODE_VERSION ?= v0.30.0

.PHONY: verify race bench bench-ab fmt vet deadcode deadcode-tool loc build test run-server run-gateway cover cover-check fuzz chaos chaos-smoke

# verify is the tier-1 gate: exactly what CI and the roadmap run.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector with shuffled test
# order (the serving layer is concurrent; this must stay clean and
# order-independent).
race:
	$(GO) test -race -shuffle=on ./...

# cover emits a coverage profile and enforces the floor CI gates on.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	$(MAKE) cover-check

# cover-check gates an existing profile against the floor; CI reuses it
# on the profile its race run emits, so the gate logic exists once.
cover-check:
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# fuzz smoke-runs the five native fuzz targets (store slug x2, numeric
# kernel, LEEP sweep, artifact decode) for a few seconds each; real fuzzing
# campaigns should raise -fuzztime.
fuzz:
	$(GO) test -fuzz=FuzzSlugInjective -fuzztime=10s -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzSlugPairwise -fuzztime=10s -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzMulFrameMatchesMulVec -fuzztime=10s -run='^$$' ./internal/numeric
	$(GO) test -fuzz=FuzzLEEPSweep -fuzztime=10s -run='^$$' ./internal/proxy
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=10s -run='^$$' ./internal/artifact

# bench compiles and runs the package micro benchmarks once
# (internal/trainer, internal/modelhub): the developer's `go test -bench`,
# kept building. Numbers come from `go run ./bench` and `make bench-ab`.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-ab is "no optimisation lands without a before/after from that
# harness" as one command: it exports $(BASE) into a temporary directory
# (git archive: nothing to unregister if the run is interrupted), builds
# ./bench there and at the working tree, runs every workload
# $(BENCH_AB_RUNS) times per side in rounds of one run each, alternating
# which side goes first, merges each side's rounds with jq and prints
# `bench -compare` (exit 1 when a metric is worse than its bound). The
# merged files stay in bench/out/ab-{base,head}.json.
bench-ab:
	@command -v jq >/dev/null 2>&1 || { echo "bench-ab merges its per-round result files with jq, which is not on PATH" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/base" bench/out; \
	git archive --format=tar "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench.base" ./bench); \
	$(GO) build -o "$$tmp/bench.head" ./bench; \
	side() { \
	  if [ "$$1" = base ]; then (cd "$$tmp/base" && "$$tmp/bench.base" -runs 1 -out "$$tmp/base.$$2.json"); \
	  else "$$tmp/bench.head" -runs 1 -out "$$tmp/head.$$2.json"; fi; \
	}; \
	i=1; while [ $$i -le $(BENCH_AB_RUNS) ]; do \
	  if [ $$((i % 2)) -eq 1 ]; then side base $$i; side head $$i; else side head $$i; side base $$i; fi; \
	  i=$$((i + 1)); \
	done; \
	merge='.[0] + {workloads: (map(.workloads | to_entries[]) | group_by(.key) | map({key: .[0].key, value: map(.value[])}) | from_entries)}'; \
	jq -s "$$merge" "$$tmp"/base.*.json > bench/out/ab-base.json; \
	jq -s "$$merge" "$$tmp"/head.*.json > bench/out/ab-head.json; \
	"$$tmp/bench.head" -compare bench/out/ab-base.json bench/out/ab-head.json

# run-server boots the v1 selection API on :8080; override with e.g.
# `make run-server SERVER_FLAGS='-addr :9090 -store /tmp/twophase-store'`.
run-server:
	$(GO) run ./cmd/apiserver $(SERVER_FLAGS)

# run-gateway fronts a backend fleet on :8090; point GATEWAY_FLAGS at the
# real backends, e.g. `make run-gateway GATEWAY_FLAGS='-backends
# http://h1:8080,http://h2:8080 -replicas 2'`.
run-gateway:
	$(GO) run ./cmd/gateway $(GATEWAY_FLAGS)

# chaos runs the full fault-injection storm suite: three seeded
# schedules against a real 3-backend fleet + gateway (separate OS
# processes), with a mid-storm SIGKILL/restart. The event log lands in
# $(CHAOS_LOG).
chaos:
	CHAOS_LOG=$(CHAOS_LOG) $(GO) test ./internal/chaos -run TestChaosStorms -count=1 -v

# chaos-smoke is the CI-sized cut: a 2-backend fleet under one short
# seeded schedule, run under the race detector.
chaos-smoke:
	CHAOS_LOG=$(CHAOS_LOG) $(GO) test ./internal/chaos -run TestChaosSmoke -count=1 -race -v

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# deadcode lists functions unreachable from any main package
# (golang.org/x/tools/cmd/deadcode) — the precise second opinion beside
# the by-name tier-1 guard TestExportedSurfaceIsUsed (surface_test.go).
# The tool is not vendored and go.mod stays dependency-free: `make
# deadcode-tool` installs the pinned version into GOBIN where there is a
# network (CI does). Findings are a report — the tool exits 0 on them —
# but a missing tool is an error: a deletion that leans on this check must
# not pass because the check never ran.
deadcode:
	@command -v deadcode >/dev/null 2>&1 || \
	  { echo "deadcode is not on PATH: run 'make deadcode-tool' (go install golang.org/x/tools/cmd/deadcode@$(DEADCODE_VERSION))" >&2; exit 1; }
	deadcode ./...

deadcode-tool:
	$(GO) install golang.org/x/tools/cmd/deadcode@$(DEADCODE_VERSION)

# loc prints the four numbers ROADMAP aim 2 tracks, so the figures quoted
# there come from one command: Go source lines outside tests and bench/,
# the number of binaries under cmd/, flag registrations in the same files
# (a flag block registered once in a package and taken by two binaries
# counts once: it is one definition to maintain), and the number of
# packages under internal/ (deleting one shows here).
loc:
	@echo "source lines (non-test, non-bench/): $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@echo "cmd binaries: $$(ls -d cmd/*/ | wc -l)"
	@echo "flag registrations (non-test, non-bench/): $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs grep -ohE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint64)(Var)?\(' | wc -l)"
	@echo "internal packages: $$(ls -d internal/*/ | wc -l)"
