#!/usr/bin/env bash
# replay-smoke.sh — record probe traces through vgxd and replay them through
# vgxreplay. Builds both binaries, starts `vgxd -record-traces` on a loopback
# port, sends one job of each probe-stack shape (a sim fast job, one
# twin-first sim job twice, a chain, a twin-first chain and a session job),
# stops it with SIGTERM and runs `vgxreplay -data-dir` over what it wrote;
# vgxreplay exits 1 on any mismatch. Exits non-zero when any step fails:
#   bash scripts/replay-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/vgxd" ./cmd/vgxd
go build -o "$tmp/vgxreplay" ./cmd/vgxreplay

# start launches vgxd on a random loopback port and waits until it answers;
# it fails when vgxd exits first (the port was taken) or never answers.
start() {
  port=$((20000 + RANDOM % 20000))
  "$tmp/vgxd" -addr "127.0.0.1:$port" -data-dir "$tmp/data" -record-traces \
    -log-requests=false 2>"$tmp/vgxd.log" &
  pid=$!
  for _ in $(seq 200); do
    curl -fs "http://127.0.0.1:$port/v1/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$pid" 2>/dev/null || { pid=; return 1; }
    sleep 0.05
  done
  return 1
}
started=
for _ in 1 2 3; do
  if start; then started=1 && break; fi
done
[ -n "$started" ] || { cat "$tmp/vgxd.log"; echo "vgxd did not start"; exit 1; }
base="http://127.0.0.1:$port"

# post sends body to route and prints the reply; run fails when the reply
# carries an error.
post() { curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$base$1"; }
run() {
  out=$(post /v1/batch "{\"requests\":[$1]}")
  case "$out" in *'"error"'*) echo "request $1 failed: $out"; exit 1 ;; esac
}
twin='"surrogate":{"threshold":0.35}'
run '{"kind":"fast","sim":{"pixels":64,"seed":5}}'
run "{\"kind\":\"fast\",\"sim\":{\"pixels\":64,\"seed\":6,$twin}}"
run "{\"kind\":\"fast\",\"sim\":{\"pixels\":64,\"seed\":6,$twin}}"
run '{"kind":"chain","chainSim":{"dots":3,"seed":9}}'
run "{\"kind\":\"chain\",\"chainSim\":{\"dots\":3,\"seed\":10,$twin}}"
session=$(post /v1/sessions '{"spec":{"pixels":64,"seed":7}}' | sed -n 's/^{"id":"\([^"]*\)".*/\1/p')
[ -n "$session" ] || { echo "no session opened"; exit 1; }
run "{\"kind\":\"fast\",\"session\":\"$session\"}"

kill -TERM "$pid"
wait "$pid" || { cat "$tmp/vgxd.log"; echo "vgxd did not drain cleanly"; exit 1; }
pid=
# One trace per job and per chain pair: 1 + 2 + 2 + 2 + 1.
traces=$(find "$tmp/data/traces" -name '*.fvgt' | wc -l)
[ "$traces" -eq 8 ] || { echo "$traces traces recorded, want 8"; exit 1; }
"$tmp/vgxreplay" -data-dir "$tmp/data" -v
