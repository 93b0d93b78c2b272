#!/usr/bin/env bash
# check.sh — the repo's full verification gate: build, vet, the
# sonic-vet invariant analyzers (reachability included), tests (the
# benchmark module's too), the race detector, a short fuzz smoke, a
# one-iteration bench smoke over every package, the ops smoke, a run of
# every example, the hardware path, and the paper figures that reproduce.
# It times nothing: performance is benchmark/run.sh (BENCHMARK.json).
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain)

# Binaries and regenerated CSVs go in a directory of this run's own, so
# two gates running at once do not overwrite each other's files.
work=$(mktemp -d "${TMPDIR:-/tmp}/sonic-check.XXXXXX")
trap 'rm -rf "$work"' EXIT

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

# sonic-vet's deadcode analyzer owns reachability: every function,
# method and type must be reached from a binary, an example or the
# benchmark, so neither an orphan package, an uncalled root API function
# nor a reference copy only a test calls gets past this leg.
echo "==> sonic-vet (project invariant analyzers)"
go build -o "$work/sonic-vet" ./cmd/sonic-vet
"$work/sonic-vet" ./...

# Metric families are reached by name, not by reference, so they keep a
# leg of their own (ROADMAP item 11): a family is surface only while
# something that ships reads it. Every family that non-test Go registers
# by a string literal must appear as a word in a non-test file under
# cmd/, examples/ or benchmark/, or in ops-smoke.sh, other than a file
# that registers it. A registration by any other name fails, so no
# family can dodge the leg.
echo "==> every metric family is read by something that ships"
regs=$(grep -rnoE --include='*.go' '\.(Counter|Gauge|Histogram)\(("[a-z0-9_]+")?' internal cmd sonic.go \
    | grep -v '_test\.go:' || true)
if grep -E '\($' <<<"$regs" >&2; then
    echo "metric families registered by a non-literal name (above)" >&2
    exit 1
fi
families=$(grep -oE '"[a-z0-9_]+"$' <<<"$regs" | tr -d '"' | sort -u)
unread=0
for fam in $families; do
    registrars=$(grep -F "(\"$fam\"" <<<"$regs" | cut -d: -f1 | sort -u)
    if ! grep -rlw --exclude='*_test.go' "$fam" cmd examples benchmark scripts/ops-smoke.sh \
        | grep -qvxF "$registrars"; then
        echo "$fam: registered in $(echo $registrars) but no binary, example, benchmark file or ops-smoke.sh reads it" >&2
        unread=1
    fi
done
((unread == 0)) || exit 1
echo "$(wc -w <<<"$families") metric families, each read by something that ships"

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
go test ./internal/fec -run='^$' -fuzz=FuzzConvDecode -fuzztime=5s
go test ./internal/imagecodec -run='^$' -fuzz='^FuzzSICDecode$' -fuzztime=5s
go test ./internal/imagecodec -run='^$' -fuzz='^FuzzSICEncodeMatchesReference$' -fuzztime=5s
go test ./internal/sms -run='^$' -fuzz='^FuzzParseRequest$' -fuzztime=5s
go test ./internal/sms -run='^$' -fuzz='^FuzzParseAck$' -fuzztime=5s
go test ./internal/sms -run='^$' -fuzz='^FuzzParseBusy$' -fuzztime=5s
go test ./internal/core -run='^$' -fuzz='^FuzzUnmarshalBundle$' -fuzztime=5s
go test ./internal/core -run='^$' -fuzz='^FuzzDecodePageAudio$' -fuzztime=5s
go test ./internal/modem -run='^$' -fuzz='^FuzzDemodulate$' -fuzztime=5s
go test ./internal/dsp -run='^$' -fuzz='^FuzzFFTPlanMatchesDirect$' -fuzztime=5s
go test ./internal/audio -run='^$' -fuzz='^FuzzReadWAV$' -fuzztime=5s

# Serial leg: the parallel kernels size their pools from GOMAXPROCS and
# promise byte-identical output at any count. GOMAXPROCS=1 is where that
# promise is cheapest to break (no real concurrency to hide behind).
# The first five words are equivpin's pin-test names (pinTestName in
# internal/analysis/equivpin.go); TestSerialLegSelectsPinTests fails
# when the pattern lacks one.
echo "==> GOMAXPROCS=1 leg: equivalence/parity suites"
GOMAXPROCS=1 go test -run 'Equiv|Parity|Matches|Identical|Reference|Identity|Golden' -count=1 ./internal/...

echo "==> bench smoke (one iteration per benchmark)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> ops smoke: sonic-sim -telemetry serves what it simulated + sonic-top -once"
./scripts/ops-smoke.sh

# The examples are the only shipped callers of sonic.NewFMLink and
# sonic.NewAcousticLink, and nothing else runs them. Each runs with the
# run's own directory as its working directory, so lossdemo's PNGs land
# there and not in the checkout (~15 s in all).
echo "==> examples: build and run each one"
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$work/example-$name" "./examples/$name"
    (cd "$work" && "./example-$name" >/dev/null)
done

# The hardware path (ROADMAP 15(b)): the WAV sonic-server -emit writes is
# what a transmitter airs, and sonic-client decodes it as a receiver
# would. sonic-client exits non-zero on an incomplete page, so a frame
# lost to the 16-bit WAV fails the leg (~2 s).
echo "==> hardware path: sonic-server -emit, then sonic-client"
go build -o "$work/sonic-server" ./cmd/sonic-server
go build -o "$work/sonic-client" ./cmd/sonic-client
"$work/sonic-server" -emit khabar.pk/ -hour 9 -out "$work/page.wav"
"$work/sonic-client" -in "$work/page.wav" -png "$work/page.png" -clicks "$work/clicks.json"

# The paper reproduction, as far as it reproduces: Fig. 4(a), the RSSI
# sweep, Fig. 4(b) and Fig. 4(c) regenerate byte-identically from this
# tree, so a change that moves what the modem, the FEC stack or the FM
# link emit, what a page airs for, or how many bytes the server renders
# it to fails here unless it regenerates them on purpose. fig4b is the
# corpus-wide gate on SIC's sizes: 400 encodes (100 pages at Q10
# cropped and uncropped, Q50 and Q90), ~45 s on 2 vCPUs.
# fig5_user_study.csv is stale (it still holds the v0 seed's numbers).
echo "==> paper figures: fig4a, rssi, fig4b and fig4c regenerate results-csv/ byte for byte"
go build -o "$work/sonic-bench" ./cmd/sonic-bench
"$work/sonic-bench" -exp fig4a -csv "$work" >/dev/null
"$work/sonic-bench" -exp rssi -csv "$work" >/dev/null
"$work/sonic-bench" -exp fig4b -csv "$work" >/dev/null
"$work/sonic-bench" -exp fig4c -csv "$work" >/dev/null
cmp results-csv/fig4a_frame_loss.csv "$work/fig4a_frame_loss.csv"
cmp results-csv/rssi_sweep.csv "$work/rssi_sweep.csv"
cmp results-csv/fig4b_size_cdf.csv "$work/fig4b_size_cdf.csv"
cmp results-csv/fig4c_backlog.csv "$work/fig4c_backlog.csv"

# What a listener gets (ROADMAP item 15(a)): the benchmark's exact
# metrics, the simulated-clock airtime and on-air latencies and the
# shares, repeat bit for bit at one seed, so a change that moves how
# long a page airs, when it airs or whether it arrives fails here unless
# it regenerates results-csv/benchmark_exact.json on purpose (~20 s;
# the regeneration command is in scripts/benchmark-exact.sh).
echo "==> exact benchmark metrics reproduce results-csv/benchmark_exact.json"
scripts/benchmark-exact.sh > "$work/benchmark_exact.json"
cmp results-csv/benchmark_exact.json "$work/benchmark_exact.json"

# The gate writes its by-products under ${TMPDIR:-/tmp}. A file it left
# in the checkout is a tracked file it rewrote or an artifact .gitignore
# does not know; on a clean checkout (CI) this is `git status` empty.
echo "==> the gate left the working tree as it found it"
tree_after=$(git status --porcelain)
if [[ "$tree_after" != "$tree_before" ]]; then
    echo "check.sh dirtied the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "all checks passed"
