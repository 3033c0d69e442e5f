#!/usr/bin/env sh
# serve_smoke.sh — end-to-end smoke of the oblivserve serving loop.
#
# Builds oblivserve, starts it on a random free port, loads the generated
# example relation through the client, runs a fused group-by with
# -keyorder -as (materializing an OrderKeys result), then (a) repeats the
# identical query and asserts it is served from the cross-query cache
# with 0 executed sorts, and (b) queries the materialization and asserts
# the order token saved a sort versus the cold plan. Then it loads a
# generated edge table and runs a -graph cc query, asserting measured
# sorts (whole 9-sort rounds) and a cached 0-sort repeat. This is the CI
# leg that keeps the client wire structs honest against the server's.
set -eu

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/oblivserve" ./cmd/oblivserve

# Pick a free port: bind :0 via the toolchain's resolver-free stdlib.
PORT="$(go run ./scripts/freeport 2>/dev/null || true)"
[ -n "$PORT" ] || PORT=18344
ADDR="http://127.0.0.1:$PORT"

"$BIN/oblivserve" serve -addr "127.0.0.1:$PORT" -lanes 2 &
SRV_PID=$!

# Wait for readiness (the client's WaitReady, via a trivial load retry).
i=0
until "$BIN/oblivserve" load -addr "$ADDR" -name _probe -rows 2 -groups 2 >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "serve_smoke: server never came up" >&2; exit 1; }
  sleep 0.1
done

"$BIN/oblivserve" load -addr "$ADDR" -name sales -rows 2048 -groups 32 -seed 7

run_query() {
  "$BIN/oblivserve" query -addr "$ADDR" -show 0 "$@"
}

echo "--- cold fused query, materialized in key order"
COLD="$(run_query -table sales -agg sum -keyorder -as totals)"
echo "$COLD"
echo "$COLD" | grep -q 'cached=false' || { echo "FAIL: cold run reported cached" >&2; exit 1; }
COLD_SORTS="$(echo "$COLD" | sed -n 's/.*sorts=\([0-9]*\).*/\1/p')"
[ "$COLD_SORTS" -ge 1 ] || { echo "FAIL: cold run executed $COLD_SORTS sorts" >&2; exit 1; }

echo "--- identical repeat: must be a cache hit with 0 sorts"
WARM="$(run_query -table sales -agg sum -keyorder -as totals)"
echo "$WARM"
echo "$WARM" | grep -q 'cached=true' || { echo "FAIL: repeat not served from cache" >&2; exit 1; }
echo "$WARM" | grep -q 'sorts=0 ' || { echo "FAIL: cached repeat executed sorts" >&2; exit 1; }

echo "--- follow-up over the ordered materialization: token must skip a sort"
FOLLOW="$(run_query -table totals -agg max -keyorder)"
echo "$FOLLOW"
F_SORTS="$(echo "$FOLLOW" | sed -n 's/.*sorts=\([0-9]*\).*/\1/p')"
F_COLD="$(echo "$FOLLOW" | sed -n 's/.*cold=\([0-9]*\).*/\1/p')"
[ "$F_SORTS" -lt "$F_COLD" ] || {
  echo "FAIL: follow-up executed $F_SORTS sorts, cold plan $F_COLD — token unused" >&2
  exit 1
}

echo "--- explain must show the carried input order"
"$BIN/oblivserve" explain -addr "$ADDR" -table totals -agg max -keyorder | tee /dev/stderr |
  grep -q 'in(' || { echo "FAIL: explain shows no input-order token" >&2; exit 1; }

echo "--- graph spec: components on the lane's session, then a cached repeat"
"$BIN/oblivserve" load -addr "$ADDR" -name edges -rows 256 -groups 64 -cols 2 -seed 9
GCOLD="$(run_query -table edges -graph cc)"
echo "$GCOLD"
echo "$GCOLD" | grep -q 'cached=false' || { echo "FAIL: cold graph run reported cached" >&2; exit 1; }
G_SORTS="$(echo "$GCOLD" | sed -n 's/.*sorts=\([0-9]*\).*/\1/p')"
[ "$G_SORTS" -ge 9 ] && [ $((G_SORTS % 9)) -eq 0 ] || {
  echo "FAIL: graph run reported $G_SORTS sorts, want whole 9-sort rounds" >&2
  exit 1
}
GWARM="$(run_query -table edges -graph cc)"
echo "$GWARM"
echo "$GWARM" | grep -q 'cached=true' || { echo "FAIL: graph repeat not served from cache" >&2; exit 1; }
echo "$GWARM" | grep -q 'sorts=0 ' || { echo "FAIL: cached graph repeat executed sorts" >&2; exit 1; }

echo "serve_smoke: OK (cold=$COLD_SORTS sorts, cached repeat=0, follow-up=$F_SORTS<$F_COLD, graph cc=$G_SORTS then cached 0)"
