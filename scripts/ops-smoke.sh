#!/usr/bin/env bash
# ops-smoke.sh — end-to-end observability check against a live process.
# Boots sonic-sim -telemetry (which runs the instrumented obsprobe after
# its report), waits for the lifecycle histograms to populate, then
# verifies every export surface an operator relies on:
#
#   * /metrics.json reports a non-zero request_to_on_air_seconds p50/p99
#   * /metrics parses as Prometheus text exposition
#   * /trace/<id> reconstructs a request timeline from the event ring
#   * sonic-top -once renders against the live endpoint
#
# The final snapshot is left at ${TMPDIR:-/tmp}/telemetry-final.json,
# outside the checkout (CI uploads it as an artifact). Fails loudly on
# any missing signal.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SONIC_OPS_ADDR:-127.0.0.1:17379}"
OUT="${SONIC_OPS_SNAPSHOT:-${TMPDIR:-/tmp}/telemetry-final.json}"

# The binaries and the sim's log live in a directory of this run's own,
# removed on exit with the sim.
work=$(mktemp -d "${TMPDIR:-/tmp}/sonic-ops.XXXXXX")
SIM_PID=
trap 'if [[ -n "$SIM_PID" ]]; then kill "$SIM_PID" 2>/dev/null || true; fi; rm -rf "$work"' EXIT

echo "ops-smoke: building sonic-sim and sonic-top"
go build -o "$work/sonic-sim" ./cmd/sonic-sim
go build -o "$work/sonic-top" ./cmd/sonic-top

"$work/sonic-sim" -hours 2 -listeners 30 -telemetry "$ADDR" >"$work/sonic-sim.log" 2>&1 &
SIM_PID=$!

# Wait (up to ~60s) for the sim report + probe to finish populating the
# lifecycle histograms.
echo "ops-smoke: waiting for request_to_on_air_seconds to populate on $ADDR"
for i in $(seq 1 60); do
    if curl -fsS "http://$ADDR/metrics.json" 2>/dev/null \
        | python3 -c '
import json, sys
try:
    snap = json.load(sys.stdin)
except Exception:
    sys.exit(1)
h = snap.get("histograms", {}).get("request_to_on_air_seconds", {})
sys.exit(0 if h.get("count", 0) > 0 and h.get("p50", 0) > 0 else 1)
'; then
        break
    fi
    if ! kill -0 "$SIM_PID" 2>/dev/null; then
        echo "ops-smoke: sonic-sim exited early" >&2
        cat "$work/sonic-sim.log" >&2
        exit 1
    fi
    sleep 1
    if ((i == 60)); then
        echo "ops-smoke: lifecycle histograms never populated" >&2
        cat "$work/sonic-sim.log" >&2
        exit 1
    fi
done

echo "ops-smoke: snapshotting /metrics.json -> $OUT"
curl -fsS "http://$ADDR/metrics.json" -o "$OUT"
python3 - "$OUT" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
h = snap["histograms"]["request_to_on_air_seconds"]
assert h["count"] > 0 and h["p50"] > 0 and h["p99"] > 0, h
print(f"ops-smoke: request->on-air n={h['count']} p50={h['p50']:.1f}s p99={h['p99']:.1f}s")
EOF

echo "ops-smoke: validating /metrics exposition"
curl -fsS "http://$ADDR/metrics" | python3 -c '
import re, sys
name = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
esc = r"(?:[^\"\\\n]|\\\\|\\\"|\\n)*"
sample = re.compile(rf"^{name}(\{{{name}=\"{esc}\"(,{name}=\"{esc}\")*\}})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$")
typ = re.compile(rf"^# TYPE {name} (counter|gauge|histogram|summary)$")
families, samples, text = 0, 0, sys.stdin.read()
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        assert typ.match(line), f"bad TYPE line: {line!r}"
        families += 1
    elif not line.startswith("#"):
        assert sample.match(line), f"bad sample line: {line!r}"
        samples += 1
assert families and samples, "empty exposition"
assert "request_to_on_air_seconds_bucket" in text, "lifecycle histogram missing from exposition"
print(f"ops-smoke: prom exposition OK ({families} families, {samples} samples)")
' || { echo "ops-smoke: prom exposition invalid" >&2; exit 1; }

echo "ops-smoke: reconstructing a trace via /trace/<id>"
TRACE=$(curl -fsS "http://$ADDR/events.json" | python3 -c '
import json, sys
events = json.load(sys.stdin)
assert events, "event ring empty"
print(events[0]["trace"])
')
curl -fsS "http://$ADDR/trace/$TRACE" | python3 -c '
import json, sys
view = json.load(sys.stdin)
assert view["trace"] and view["events"], view
tid, n, last = view["trace"], len(view["events"]), view["last_stage"]
print(f"ops-smoke: trace {tid} -> {n} events, last stage {last}")
'

echo "ops-smoke: sonic-top -once against the live endpoint"
"$work/sonic-top" -addr "$ADDR" -once | sed 's/^/    /'

echo "ops-smoke: OK (snapshot at $OUT)"
