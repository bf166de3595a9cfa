GO ?= go

.PHONY: build test vet race fuzz lint lint-baseline check alloc cover smoke-serve chaos smoke-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over every fuzz target (seed corpus + 10s each).
# Go runs one -fuzz pattern per invocation, so the targets are looped.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=FuzzRepair -fuzz=FuzzRepair -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run=FuzzLaRCSParse -fuzz=FuzzLaRCSParse -fuzztime=$(FUZZTIME) ./internal/larcs/
	$(GO) test -run=FuzzCompileDifferential -fuzz=FuzzCompileDifferential -fuzztime=$(FUZZTIME) ./internal/larcs/
	$(GO) test -run=FuzzVerifyMapping -fuzz=FuzzVerifyMapping -fuzztime=$(FUZZTIME) ./internal/check/
	$(GO) test -run=FuzzCSRRoundTrip -fuzz=FuzzCSRRoundTrip -fuzztime=$(FUZZTIME) ./internal/graph/
	$(GO) test -run=FuzzCoarsen -fuzz=FuzzCoarsen -fuzztime=$(FUZZTIME) ./internal/multilevel/
	$(GO) test -run=FuzzDetect -fuzz=FuzzDetect -fuzztime=$(FUZZTIME) ./internal/canned/
	$(GO) test -run=FuzzGroup -fuzz=FuzzGroup -fuzztime=$(FUZZTIME) ./internal/group/
	$(GO) test -run=FuzzMMRouteDifferential -fuzz=FuzzMMRouteDifferential -fuzztime=$(FUZZTIME) ./internal/route/
	$(GO) test -run=FuzzResolveMemo -fuzz=FuzzResolveMemo -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run=FuzzCacheKey -fuzz=FuzzCacheKey -fuzztime=$(FUZZTIME) ./internal/serve/

# Static analysis: formatting, go vet, and oregami-lint
# (tools/analyzers) against the checked-in baseline — pre-existing
# accepted findings pass, anything new fails. See docs/ANALYSIS.md.
LINT_BASELINE := tools/analyzers/lint.baseline
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./tools/analyzers -baseline $(LINT_BASELINE) ./...

# Regenerate the lint baseline after triage. Justifications of entries
# that still match are preserved; new entries get a TODO placeholder
# that `make lint` rejects until a human writes the justification.
lint-baseline:
	$(GO) run ./tools/analyzers -write-baseline $(LINT_BASELINE) ./...

# Allocation-budget gates (alloc_test.go): allocs/op ceilings on the
# hot paths and on the whole pipeline at 1, 2 and 4 workers, plus the
# multilevel and recursive-bisection scale rows (scale_test.go: 1e5 and
# 1e6 tasks onto the 512-PE hierarchy, with TotalIPC and tasks-per-
# processor ceilings beside allocs/op). A separate non-race pass — the
# gates skip themselves under the race detector, whose instrumentation
# allocates. See docs/TESTING.md.
alloc:
	$(GO) test -count=1 -run='TestAllocBudget|TestScale(Multilevel|Bisect)Million' .

# The CI gate: static checks, the full suite under the race detector,
# and the allocation budgets.
check: lint race alloc

# End-to-end smoke test of the mapping daemon: build, serve on a random
# port, cold-then-warm /v1/map (miss then hit), graceful SIGTERM drain.
smoke-serve:
	sh tools/serve_smoke.sh

# Kill-driven crash-safety harness (docs/PERSIST.md): launch the daemon
# with a persistent state dir, populate + persist the cache, SIGKILL it
# mid-write under load, restart on the same port, and fail unless the
# recovered server serves >= 0.9x the pre-kill warm hit ratio with zero
# fingerprint changes. Writes recovery time and window p99 to
# BENCH_restart.json.
CHAOS_N ?= 60
CHAOS_C ?= 4
chaos:
	$(GO) build -o BENCH_oregami.tmp ./cmd/oregami
	$(GO) run ./tools/loadgen -chaos -launch ./BENCH_oregami.tmp \
		-n $(CHAOS_N) -c $(CHAOS_C) -kill-after 400ms -window 3s \
		-out BENCH_restart.json
	@rm -f BENCH_oregami.tmp
	@echo "wrote BENCH_restart.json"

# Cluster smoke (docs/SERVE.md "Cluster mode"): three serve nodes under
# consistent-hash sharding, load rotated across all of them so non-owners
# proxy, one node SIGKILLed mid-window. Fails on any fingerprint drift,
# any error while degraded, or a run with zero cross-node cache hits.
# Writes aggregate rps / cross-node hit ratio / p99 under the kill to
# BENCH_cluster.json.
CLUSTER_NODES ?= 3
CLUSTER_N ?= 120
CLUSTER_C ?= 6
smoke-cluster:
	$(GO) build -o BENCH_oregami.tmp ./cmd/oregami
	$(GO) run ./tools/loadgen -cluster $(CLUSTER_NODES) -launch ./BENCH_oregami.tmp \
		-n $(CLUSTER_N) -c $(CLUSTER_C) -kill-after 500ms -window 3s \
		-out BENCH_cluster.json
	@rm -f BENCH_oregami.tmp
	@echo "wrote BENCH_cluster.json"

# Coverage gate: the total statement coverage must not drop below the
# recorded floor (the pre-oracle-PR baseline).
COVER_FLOOR ?= 79.9
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage regression: $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }
