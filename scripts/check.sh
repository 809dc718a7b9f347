#!/usr/bin/env sh
# The full local/CI gate for the xlf repository. Mirrors
# .github/workflows/ci.yml; `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

echo '>> go test -race ./...'
go test -race ./...

# Fuzz smoke: a few seconds per corpus keeps the harnesses honest (a
# bit-rotted fuzz target fails here, not six months from now) and still
# catches shallow regressions in the codec/seal paths.
echo '>> fuzz smoke (5s per target)'
go test -run='^$' -fuzz='^FuzzOpen$' -fuzztime=5s ./internal/channel
go test -run='^$' -fuzz='^FuzzCodecOpen$' -fuzztime=5s ./internal/dnsp
go test -run='^$' -fuzz='^FuzzSealOpenRoundTrip$' -fuzztime=5s ./internal/dnsp
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/xauth
go test -run='^$' -fuzz='^FuzzCFGBuild$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzLockOrderGraph$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzCallGraph$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzShardSafe$' -fuzztime=5s ./internal/analysis
go test -run='^$' -fuzz='^FuzzKernelSchedule$' -fuzztime=5s ./internal/sim
go test -run='^$' -fuzz='^FuzzCoreIngest$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzCipherMatchesReference$' -fuzztime=5s ./internal/lwc
go test -run='^$' -fuzz='^FuzzPipelineMatchesReference$' -fuzztime=5s ./internal/ids
go test -run='^$' -fuzz='^FuzzAhoCorasick$' -fuzztime=5s ./internal/dpi
go test -run='^$' -fuzz='^FuzzCaptureMatchesReference$' -fuzztime=5s ./internal/netsim

echo '>> xlf-vet ./... (self-gate, baselined, strict on stale waivers)'
go run ./cmd/xlf-vet -baseline vet-baseline.json -strict-baseline ./...

# The reproduction-contract layer (make vet-determinism) again under the
# race detector: the shared call graph is built once and read by several
# analyzers across the worker pool.
echo '>> xlf-vet determinism layer (race detector)'
go run -race ./cmd/xlf-vet -only determinism,detflow,globalmut,maporder,hotpathalloc -baseline vet-baseline.json ./...

# The ownership/shard-isolation layer (make vet-shardsafe) again under
# the race detector: the escape and phase fixed points are computed once
# in Prepare and read concurrently by the worker pool.
echo '>> xlf-vet shardsafe layer (race detector)'
go run -race ./cmd/xlf-vet -only shardsafe -baseline vet-baseline.json ./...

# Driver determinism: the SARIF report must be byte-identical at
# -parallel 1 and -parallel 8, with a cold and then a warm result cache,
# with the worker pool running under the race detector.
echo '>> xlf-vet determinism (parallel 8 vs sequential, cold/warm cache, race detector)'
vetdir=$(mktemp -d)
trap 'rm -rf "$vetdir"' EXIT
go run -race ./cmd/xlf-vet -sarif -parallel 1 ./... >"$vetdir/serial.sarif" || true
go run -race ./cmd/xlf-vet -sarif -parallel 8 ./... >"$vetdir/parallel.sarif" || true
go run -race ./cmd/xlf-vet -sarif -parallel 8 -cache-dir "$vetdir/cache" ./... >"$vetdir/cold.sarif" || true
go run -race ./cmd/xlf-vet -sarif -parallel 8 -cache-dir "$vetdir/cache" ./... >"$vetdir/warm.sarif" || true
cmp "$vetdir/serial.sarif" "$vetdir/parallel.sarif"
cmp "$vetdir/serial.sarif" "$vetdir/cold.sarif"
cmp "$vetdir/serial.sarif" "$vetdir/warm.sarif"

# The same determinism bar for the shardsafe family on its own: the
# interprocedural escape/phase summaries must not depend on worker
# interleaving or on whether results came from the cache.
echo '>> xlf-vet shardsafe determinism (parallel 8 vs sequential, cold/warm cache, race detector)'
go run -race ./cmd/xlf-vet -only shardsafe -sarif -parallel 1 ./... >"$vetdir/ss-serial.sarif" || true
go run -race ./cmd/xlf-vet -only shardsafe -sarif -parallel 8 ./... >"$vetdir/ss-parallel.sarif" || true
go run -race ./cmd/xlf-vet -only shardsafe -sarif -parallel 8 -cache-dir "$vetdir/ss-cache" ./... >"$vetdir/ss-cold.sarif" || true
go run -race ./cmd/xlf-vet -only shardsafe -sarif -parallel 8 -cache-dir "$vetdir/ss-cache" ./... >"$vetdir/ss-warm.sarif" || true
cmp "$vetdir/ss-serial.sarif" "$vetdir/ss-parallel.sarif"
cmp "$vetdir/ss-serial.sarif" "$vetdir/ss-cold.sarif"
cmp "$vetdir/ss-serial.sarif" "$vetdir/ss-warm.sarif"

# Blocking: warm-cache full-repo vet wall time must stay within 1.25x of
# the committed bench/seed/VET.json budget (the guard primes its own
# cache, so only the warm path is timed).
echo '>> xlf-vet warm-cache wall-time budget'
XLF_VET_WALL_GUARD=1 go test -run='^TestVetWarmWallBudget$' -v ./cmd/xlf-vet

# Scheduler determinism: the full report rendered at -parallel 8 must be
# byte-identical to the sequential run under the step clock, with the
# worker pool running under the race detector.
echo '>> xlf-bench determinism (parallel 8 vs sequential, race detector)'
benchdir=$(mktemp -d)
trap 'rm -rf "$benchdir"' EXIT
go run -race ./cmd/xlf-bench -all -clock step -seed 1 -parallel 1 \
	-json "$benchdir/sequential" >"$benchdir/report-sequential.txt"
go run -race ./cmd/xlf-bench -all -clock step -seed 1 -parallel 8 \
	-json "$benchdir/parallel" >"$benchdir/report-parallel.txt"
cmp "$benchdir/report-sequential.txt" "$benchdir/report-parallel.txt"

# Non-blocking: the artifact differ reports drift between the two runs
# (step-clock hashes must match; wall-clock ratios are informational).
echo '>> bench-compare (non-blocking)'
go run ./scripts/bench-compare -base "$benchdir/sequential" -new "$benchdir/parallel" ||
	echo 'bench-compare: drift noted (non-blocking)'

# Blocking: the step-clock run must reproduce the committed bench/seed
# baselines bit-for-bit (headline numbers and rendered output). The wall
# tolerance is wide open because the committed telemetry is
# machine-specific; only determinism drift fails here.
echo '>> bench-compare vs committed bench/seed (blocking on numbers/output)'
go run ./scripts/bench-compare -base bench/seed -new "$benchdir/sequential" -wall-tolerance 1e9

# Trace determinism: with the step clock and the tracer enabled, the
# serialized span timeline must be byte-identical across runs and across
# -parallel levels (the worker pool again under the race detector), and
# xlf-trace must render it.
echo '>> xlf-trace determinism (tracer on, parallel 4 vs sequential, race detector)'
go run -race ./cmd/xlf-bench -exp E1 -clock step -seed 1 -parallel 1 \
	-trace "$benchdir/trace-sequential.jsonl" >/dev/null
go run -race ./cmd/xlf-bench -exp E1 -clock step -seed 1 -parallel 4 \
	-trace "$benchdir/trace-parallel.jsonl" >/dev/null
cmp "$benchdir/trace-sequential.jsonl" "$benchdir/trace-parallel.jsonl"
go run ./cmd/xlf-trace "$benchdir/trace-sequential.jsonl" >"$benchdir/trace-timeline.txt"

# Telemetry determinism: with the step clock and telemetry enabled, the
# serialized xlf-metrics/v1 artifact (rollup windows + flight-recorder
# dumps, attack timeline included) must be byte-identical across
# -parallel levels with the worker pool under the race detector, and
# `xlf-trace metrics` must render it.
echo '>> telemetry determinism (rollups on, parallel 8 vs sequential, race detector)'
go run -race ./cmd/xlf-bench -exp E10 -clock step -seed 1 -parallel 1 \
	-telemetry "$benchdir/metrics-sequential.jsonl" >/dev/null
go run -race ./cmd/xlf-bench -exp E10 -clock step -seed 1 -parallel 8 \
	-telemetry "$benchdir/metrics-parallel.jsonl" >/dev/null
cmp "$benchdir/metrics-sequential.jsonl" "$benchdir/metrics-parallel.jsonl"
go run ./cmd/xlf-trace metrics "$benchdir/metrics-sequential.jsonl" >"$benchdir/metrics-rollup.txt"

# Non-blocking: disabled-tracer overhead on the Core hot path. The two
# ingest benchmarks must stay within noise of each other; the numbers are
# printed for the log, never gating (micro-benchmarks flap on shared CI).
echo '>> tracer overhead benchmark (non-blocking)'
go test -run='^$' -bench='^BenchmarkCoreIngest(Traced)?$' -benchtime=1s . ||
	echo 'tracer overhead bench: failed (non-blocking)'

# Informational numbers for the log: kernel dispatch and netsim send
# must print 0 allocs/op. The enforcement lives in the AllocsPerRun
# tests above (the dynamic half of the //xlf:hotpath contract); this
# step puts the ns/op trend where reviewers can see it.
echo '>> kernel hot-path benchmarks'
go test -run='^$' -bench='^BenchmarkKernelDispatch$' -benchmem -benchtime=1s ./internal/sim
go test -run='^$' -bench='^BenchmarkNetsimSend$' -benchmem -benchtime=1s ./internal/netsim

# Informational: cost of the shardsafe family over the real tree (load,
# type-check, call graph, escape/phase fixed points, check). Trend only;
# the blocking budget is the warm-cache wall guard above.
echo '>> shardsafe analyzer benchmark'
go test -run='^$' -bench='^BenchmarkVetShardSafe$' -benchtime=1x ./cmd/xlf-vet

echo 'all checks passed'
