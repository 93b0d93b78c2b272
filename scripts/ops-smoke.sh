#!/usr/bin/env bash
# ops-smoke.sh — end-to-end observability check against a live process.
# Boots sonic-sim -telemetry, waits for its report to finish, then
# verifies that the endpoint serves the simulation it ran and nothing
# else, over every export surface an operator relies on:
#
#   * /metrics.json holds request_to_on_air_seconds with exactly the
#     count the sim printed ("over N traced requests"), non-zero p50/p99,
#     request_to_delivered_seconds with exactly the count of deliveries
#     it printed ("request-to-delivery latency ... (n=N)", 0 when none),
#     no server_* or artifact_* family (the sim runs no server) and no
#     span (the sim runs no pipeline stage)
#   * /metrics parses as Prometheus text exposition
#   * /trace/<id> reconstructs a request timeline from the event ring
#   * sonic-top -once renders against the live endpoint
#
# The final snapshot is left at ${TMPDIR:-/tmp}/telemetry-final.json,
# outside the checkout (CI uploads it as an artifact). Fails loudly on
# any missing or extra signal.
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

# Wait (up to ~60s) for the sim's report: after it, the endpoint holds
# everything the sim will ever record.
echo "ops-smoke: waiting for the sim's report on $ADDR"
for i in $(seq 1 60); do
    if grep -q "serving until interrupted" "$work/sonic-sim.log"; then
        break
    fi
    if ! kill -0 "$SIM_PID" 2>/dev/null; then
        echo "ops-smoke: sonic-sim exited early" >&2
        cat "$work/sonic-sim.log" >&2
        exit 1
    fi
    sleep 1
    if ((i == 60)); then
        echo "ops-smoke: the sim's report never finished" >&2
        cat "$work/sonic-sim.log" >&2
        exit 1
    fi
done
TRACED=$(sed -nE 's/.* over ([0-9]+) traced requests$/\1/p' "$work/sonic-sim.log")
if [[ -z "$TRACED" ]]; then
    echo "ops-smoke: the sim printed no traced requests" >&2
    cat "$work/sonic-sim.log" >&2
    exit 1
fi
DELIVERED=$(sed -nE 's/^request-to-delivery latency .*\(n=([0-9]+)\)$/\1/p' "$work/sonic-sim.log")
if [[ -z "$DELIVERED" ]]; then
    if ! grep -q "no uplink requests were satisfied" "$work/sonic-sim.log"; then
        echo "ops-smoke: the sim printed no delivery count" >&2
        cat "$work/sonic-sim.log" >&2
        exit 1
    fi
    DELIVERED=0
fi

echo "ops-smoke: snapshotting /metrics.json -> $OUT"
curl -fsS "http://$ADDR/metrics.json" -o "$OUT"
python3 - "$OUT" "$TRACED" "$DELIVERED" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
traced, delivered = int(sys.argv[2]), int(sys.argv[3])
h = snap["histograms"]["request_to_on_air_seconds"]
assert h["count"] == traced, f"endpoint serves {h['count']} requests on air, the sim traced {traced}"
assert h["p50"] > 0 and h["p99"] > 0, h
d = snap["histograms"]["request_to_delivered_seconds"]["count"]
assert d == delivered, f"endpoint serves {d} requests delivered, the sim delivered {delivered}"
foreign = sorted(k for sec in ("counters", "gauges", "histograms") for k in snap.get(sec, {})
                 if k.startswith(("server_", "artifact_")))
assert not foreign, f"the sim runs no server, yet the endpoint serves {foreign}"
spans = sorted(snap.get("spans", {}))
assert not spans, f"the sim runs no pipeline stage, yet the endpoint serves spans {spans}"
print(f"ops-smoke: request->on-air n={h['count']} (sim traced {traced}) p50={h['p50']:.1f}s p99={h['p99']:.1f}s; delivered n={d} (sim delivered {delivered}); no server, artifact or span family")
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
