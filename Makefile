# Development targets mirroring the CI jobs (.github/workflows/ci.yml).
# `make check` runs everything CI runs, locally.

GO ?= go

.PHONY: build test race bench bench-smoke bench-regression bench-baseline lint analyze fmt check cover-server fuzz-smoke serve serve-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent packages: query engine (the
# dictionary-ID executor's parallel probes and paged streaming driver), store (including the
# snapshot round-trip under concurrent writers and the permutation ID
# scans with epoch restarts), snapshot format, the federation mesh
# (parallel bind-join batches, circuit breakers, TTL cache), HTTP server,
# the sharded response cache, and the metrics registry (sharded histograms
# and vec instantiation under concurrent scrapes); plus a focused rerun of
# the dictionary/permutation paths under writers and the multi-node
# federation smoke (two httptest lodvizd instances answering one SERVICE
# query).
race:
	$(GO) test -race -shuffle=on -count=3 ./internal/store/... ./internal/snapshot/... ./internal/sparql/... ./internal/federation/... ./internal/server/... ./internal/wal/... ./internal/ledger/... ./internal/explore/... ./internal/facet/... ./internal/hetree/... ./internal/progressive/... ./internal/sampling/... ./internal/prefetch/... ./internal/obs/...
	$(GO) test -race -count=2 -run 'ScanIDs|IDJoin|StreamConcurrentWriters' ./internal/store ./internal/sparql
	$(GO) test -race -run 'Federated|ServiceSilent' .

# Coverage gate for the HTTP server subsystem and the metrics registry it
# exposes (the CI threshold applies to the combined profile).
cover-server:
	$(GO) test -covermode=atomic -coverprofile=server-cover.out ./internal/server/... ./internal/obs/...
	@total=$$($(GO) tool cover -func=server-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/server+internal/obs coverage: $$total%"; \
	awk "BEGIN { exit !($$total >= 80) }" || { echo "FAIL: coverage $$total% < 80%"; exit 1; }

# Short coverage-guided fuzz smoke over the text-format parsers, the
# compiled SPARQL expression evaluator (differential against the reference
# interpreter), whole queries over random graphs (differential against the
# reference evaluator), the federation results decoder (it consumes untrusted
# remote bytes), and the store's maintained cardinality table
# (differential against a from-scratch recount).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=10s ./internal/sparql
	$(GO) test -fuzz=FuzzExprDifferential -fuzztime=10s ./internal/sparql
	$(GO) test -fuzz=FuzzQueryDifferential -fuzztime=10s ./internal/sparql
	$(GO) test -fuzz=FuzzNTriples -fuzztime=10s ./internal/ntriples
	$(GO) test -fuzz=FuzzDecodeResults -fuzztime=10s ./internal/federation
	$(GO) test -fuzz=FuzzCardinalityMaintenance -fuzztime=10s ./internal/store
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal

# Run the exploration server on the embedded demo dataset.
serve:
	$(GO) run ./cmd/lodvizd -addr :8080

# Run a local two-node federation mesh on :8081/:8082, each peered with the
# other, both serving the embedded demo dataset. Try:
#   curl localhost:8081/federation
#   curl -G localhost:8081/sparql --data-urlencode \
#     'query=SELECT * WHERE { SERVICE <http://localhost:8082/sparql> { ?s ?p ?o } } LIMIT 5'
serve-cluster:
	$(GO) build -o /tmp/lodvizd-cluster ./cmd/lodvizd
	/tmp/lodvizd-cluster -addr :8081 -peer http://localhost:8082/sparql & \
	/tmp/lodvizd-cluster -addr :8082 -peer http://localhost:8081/sparql & \
	wait

# Full benchmark suite (slow; see bench-smoke for the CI variant).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# One-iteration smoke of the BGP join benchmarks (dictionary-ID executor,
# sequential and parallel), the ingestion benchmarks (bulk AddBatch vs the per-triple
# Add loop at 100k triples), the planner statistics after a 30-triple write
# at 200k triples, the HETree build over a 20k-entity property, the
# federation bind-join benchmarks (batched
# VALUES dispatch vs one-request-per-binding at 1k bindings), and the
# streaming LIMIT-pushdown pair: verifies the benchmark paths execute,
# without timing noise gating CI. Timing regressions are gated separately
# by bench-regression against the committed baseline.
bench-smoke:
	$(GO) test -run='^$$' -bench=BGP -benchtime=1x .
	$(GO) test -run='^$$' -bench='AddBatch|AddAll|AddSequential|SnapshotWrite|PlanAfterWrite' -benchtime=1x ./internal/store
	$(GO) test -run='^$$' -bench=HETreeFromSource -benchtime=1x ./internal/hetree
	$(GO) test -run='^$$' -bench=BindJoin -benchtime=1x ./internal/federation
	$(GO) test -run='^$$' -bench=LimitPushdown -benchtime=1x .

# Benchmark regression gate: replay the pinned scenarios best-of-3 and
# fail on >25% regression against bench/baseline.json (override the ratio
# with BENCH_GATE=1.50 etc.), or on a speedup scenario dropping below its
# hard floor. Artifacts BENCH_store.json / BENCH_stream.json are what CI
# uploads per run.
bench-regression:
	$(GO) run ./cmd/benchharness -scenarios store -out BENCH_store.json -gate
	$(GO) run ./cmd/benchharness -scenarios stream -out BENCH_stream.json -gate
	$(GO) run ./cmd/benchharness -scenarios write -out BENCH_write.json -gate
	$(GO) run ./cmd/benchharness -scenarios explore -out BENCH_explore.json -gate
	$(GO) run ./cmd/benchharness -scenarios obs -out BENCH_obs.json -gate

# Refresh the committed baseline after an intentional perf change; commit
# the resulting bench/baseline.json diff alongside the change.
bench-baseline:
	$(GO) run ./cmd/benchharness -scenarios store -update-baseline
	$(GO) run ./cmd/benchharness -scenarios stream -update-baseline
	$(GO) run ./cmd/benchharness -scenarios write -update-baseline
	$(GO) run ./cmd/benchharness -scenarios explore -update-baseline
	$(GO) run ./cmd/benchharness -scenarios obs -update-baseline

# go vet + gofmt always; staticcheck/gosimple/unused etc. run via
# golangci-lint when it is installed (CI always runs it — see the lint
# job and .golangci.yml).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

# lodvizvet: the engine's own analyzer suite (pagelock, ctxflow, syncerr,
# idspace, obshandle — see internal/analysis/README.md). Runs through
# `go vet -vettool` so results integrate with cmd/go's caching and cover
# test variants of every package.
analyze:
	$(GO) build -o bin/lodvizvet ./cmd/lodvizvet
	$(GO) vet -vettool=$(CURDIR)/bin/lodvizvet ./...

check: build lint analyze test race bench-smoke bench-regression cover-server
