#!/usr/bin/env bash
# check.sh — the repo's full verification gate: build, vet, the
# sonic-vet invariant analyzers, tests (the benchmark module's too), the
# race detector, a short fuzz smoke, and a one-iteration bench smoke
# over every package.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt check"
unformatted=$(gofmt -l . 2>/dev/null | grep -v '^vendor/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> sonic-vet (project invariant analyzers)"
go build -o /tmp/sonic-vet ./cmd/sonic-vet
/tmp/sonic-vet ./...

echo "==> go test ./..."
go test ./...

# The benchmark harness is a module of its own (benchmark/go.mod,
# `replace sonic => ../`) that tier-1 does not compile. Vet and test it
# against this tree, so an internal API break against it fails here
# instead of in the benchmark driver.
echo "==> benchmark module (go vet + go test against this tree)"
(cd benchmark && go vet ./... && go test ./...)

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (5s per harness)"
go test ./internal/frame -run='^$' -fuzz=FuzzFrameDecode -fuzztime=5s
go test ./internal/fec -run='^$' -fuzz=FuzzRSDecode -fuzztime=5s
go test ./internal/imagecodec -run='^$' -fuzz=FuzzSICDecode -fuzztime=5s

# Serial leg: the parallel kernels promise byte-identical output at any
# worker count, and the broadcast-day replay must beat real time even on
# one core. GOMAXPROCS=1 is where both promises are cheapest to break
# (no real concurrency to hide behind, no parallel speedup to lean on).
echo "==> GOMAXPROCS=1 leg: equivalence/parity suites + broadcast-day smoke"
GOMAXPROCS=1 go test -run 'Equiv|Reference|Parity|Identity|Golden' -count=1 \
    ./internal/dsp ./internal/fec ./internal/fm ./internal/imagecodec \
    ./internal/modem ./internal/webrender
GOMAXPROCS=1 go run ./cmd/sonic-bench -day 1 -workers 1

# Fleet request path: 10^4 simulated requesters through the real SMS →
# admission → render → broadcast-queue path on the simulated clock. The
# -check SLOs pin whole-request coalescing (every broadcast must serve
# at least two requests on this Zipf workload) and the p99 request →
# on-air latency (simulated seconds; deterministic for a fixed seed),
# and the binary itself fails if any accepted request never airs.
echo "==> loadgen smoke (10k requesters, 16 towers, coalescing + p99 SLOs)"
go run ./cmd/sonic-loadgen -users 10000 -towers 16 -hours 0.25 \
    -check -max-p99 14400 -min-dedup 2 -out "${TMPDIR:-/tmp}/loadgen-smoke.json"

# Fleet broadcast engine: a small tower fleet airing the same rotation
# through the shared artifact chain, with a one-tower dedup-off
# baseline. The run itself asserts nothing numeric here (the dedup and
# parity contracts live in go test); this smoke proves the replay,
# cache, and baseline paths run end to end on any host.
echo "==> fleet-day smoke (8 towers through the shared artifact chain)"
go run ./cmd/sonic-bench -fleet 8 -fleet-hours 1 -fleet-pages 4 -fleet-baseline 1

echo "==> bench smoke (one iteration per benchmark)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> benchguard (checked-in snapshot comparison)"
./scripts/benchguard.sh

echo "==> perf trajectory (all checked-in snapshots)"
./scripts/benchguard.sh --history

echo "==> ops smoke: sonic-sim -telemetry + obsprobe + sonic-top -once"
./scripts/ops-smoke.sh

echo "all checks passed"
