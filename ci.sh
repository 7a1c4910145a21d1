#!/usr/bin/env bash
# The repo's gate: static checks, workspace build + tests, and a smoke run of
# the reproduction suite through the fair-simlab scheduler.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings, all targets: lib, bins, tests, examples)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== fairlint (strict, deterministic report)"
mkdir -p target/fairlint
# Gate: zero diagnostics, machine-readable report on disk, and the
# report is deterministic: two consecutive runs are byte-identical.
cargo run -q -p fairlint -- --strict --json > target/fairlint/report.json
cargo run -q -p fairlint -- --strict --json > target/fairlint/report.2.json
cmp target/fairlint/report.json target/fairlint/report.2.json
rm -f target/fairlint/report.2.json
grep -q '"violations":\[\]' target/fairlint/report.json

echo "== cargo build --release (workspace: libs + reproduce/fair-trace/fair-serve/fair-load bins)"
cargo build --release --workspace

echo "== cargo build perfbench (the benchmark harness, its own workspace)"
# perfbench is not a workspace member, so nothing above compiles it; this
# catches a workspace API change that would break the harness.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== cargo test (every workspace member)"
cargo test -q --workspace

echo "== cargo test --release fair-crypto + sha256 pins (unsafe SHA-NI and AVX-512 kernels, optimized codegen)"
# The SIMD module (SHA-NI block compress, sixteen-lane AVX-512 hash of
# 32-byte inputs) is the crate's unsafe code: run its FIPS vectors and
# portable-vs-accelerated differentials under release codegen too, then
# the pinned Lamport and contract-signing block counts through the
# optimized batch path.
cargo test --release -q -p fair-crypto
cargo test --release -q -p fair-bench --test sha256_pins

echo "== fair-trace selfcheck (record + replay + diff)"
./target/release/fair-trace record exp_coin_toss --trials 80 --sample 3 > /tmp/fair_trace_recorded.txt
./target/release/fair-trace replay exp_coin_toss --jobs 2
./target/release/fair-trace diff "$(head -1 /tmp/fair_trace_recorded.txt)" "$(head -1 /tmp/fair_trace_recorded.txt)"
./target/release/fair-trace top exp_coin_toss --trials 80 --sample 5 --by msgs
# Gordon–Katz trials carry ShareGen's typed output through the engine:
# their transcripts (per-send sizes included) must replay unchanged too.
./target/release/fair-trace record exp_gordon_katz --trials 32 --sample 3 > /dev/null
./target/release/fair-trace replay exp_gordon_katz --jobs 2

echo "== fair-scenario check (declarative scenario layer)"
# Every checked-in scenario file must compile; the listing must expose
# all three shipped families through the registry.
./target/release/fair-scenario check scenarios
./target/release/fair-scenario list scenarios | grep -q '^s_deposit_coin '
./target/release/fair-scenario expand scenarios | grep -q 'deposit=0.25'
# Malformed input is rejected with a span-carrying error and nonzero exit.
BAD_DIR="$(mktemp -d)"
printf '[scenario]\nid = "s_broken"\n' > "$BAD_DIR/broken.toml"
if ./target/release/fair-scenario check "$BAD_DIR" 2> "$BAD_DIR/err.txt"; then
  echo "fair-scenario accepted a malformed scenario"; exit 1
fi
grep -q 'broken.toml:1: error:' "$BAD_DIR/err.txt"
rm -rf "$BAD_DIR"

echo "== reproduce smoke run (parallel, JSON records)"
FAIR_TRIALS=100 ./target/release/reproduce --jobs 2 --trace --json target/simlab/reproduce_smoke.json e1 e4 e8 e12 e13 e16 s_deposit_coin

# Starts fair-serve on an ephemeral port with the given flags and waits
# for its ADDR= line; sets SERVE_PID and ADDR, or fails the gate.
boot_server() {
  local out
  out="$(mktemp)"
  ./target/release/fair-serve --addr 127.0.0.1:0 "$@" > "$out" &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 100); do
    ADDR="$(sed -n 's/^ADDR=//p' "$out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  rm -f "$out"
  [ -n "$ADDR" ] || { echo "fair-serve $* never reported its address"; kill "$SERVE_PID"; exit 1; }
}

echo "== fair-serve smoke (ephemeral boot, fair-load --check, graceful shutdown)"
# Every smoke server boots on its own empty tile dir and serves one
# fair-load run, so each run's cold phase is cold on any rerun: no tiles
# left on disk by an earlier run, no replies cached by an earlier load.
SMOKE_TILES="$(mktemp -d)"
# Perf gate pinned to --loops 1: the 5k rps floor below measures the
# single-loop event loop, so sharding changes can't mask a regression.
boot_server --workers 2 --loops 1 --tiles-dir "$SMOKE_TILES/oneshot" \
  --metrics-out target/simlab/serve_metrics.json
# --check fails on any request error or a cold cache (warm hit rate must be > 0).
./target/release/fair-load --addr "$ADDR" --exp e2 --trials 200 \
  --clients 2 --points 4 --repeat 4 --out target/simlab/serve_load_smoke.json --check
# Graceful shutdown: the server drains, flushes metrics, and exits cleanly.
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
test -s target/simlab/serve_metrics.json
# Keep-alive path: the same gate over persistent pipelined connections,
# plus a conservative warm-throughput floor (release build on one core
# sustains tens of thousands of rps; 5k catches an event-loop regression
# without being flaky on slow CI hosts).
boot_server --workers 2 --loops 1 --tiles-dir "$SMOKE_TILES/keepalive"
./target/release/fair-load --addr "$ADDR" --exp e2 --trials 200 \
  --connections 4 --pipeline 8 --points 4 --repeat 50 \
  --out target/simlab/serve_load_keepalive_smoke.json --check
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
python3 - <<'EOF'
import json
with open("target/simlab/serve_load_keepalive_smoke.json") as fh:
    doc = json.load(fh)
assert doc["mode"] == "persistent", doc["mode"]
rps = doc["warm_rps"]
assert rps >= 5000, f"keep-alive warm path too slow: {rps} rps < 5000 floor"
print(f"keep-alive warm path: {rps} rps (floor 5000)")
EOF

echo "== fair-serve sharded smoke (--loops 2, correctness-only gate)"
# Correctness only — no throughput floor: both gates (0 errors, warm
# cache hits) must hold when accepts are sharded across two event loops,
# and the group must still drain cleanly on shutdown.
SHARD_METRICS="$(mktemp)"
boot_server --workers 2 --loops 2 --tiles-dir "$SMOKE_TILES/sharded" \
  --metrics-out "$SHARD_METRICS"
./target/release/fair-load --addr "$ADDR" --exp e2 --trials 200 \
  --connections 4 --pipeline 4 --points 4 --repeat 8 \
  --out target/simlab/serve_load_sharded_smoke.json --check
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
# The aggregated snapshot reports both loops.
grep -q '"loops": 2' "$SHARD_METRICS"
rm -f "$SHARD_METRICS"

echo "== fair-serve idle-timeout smoke (the sweep closes an idle keep-alive connection)"
IDLE_METRICS="$(mktemp)"
boot_server --workers 1 --loops 1 --keepalive-ms 300 --tiles-dir "$SMOKE_TILES/idle"
# One keep-alive request, then the client waits (2 s at most) for the
# server to close the idle connection.
python3 - "$ADDR" <<'EOF'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=2)
sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: ci\r\n\r\n")
t0 = time.monotonic()
reply = b""
while True:
    chunk = sock.recv(4096)  # raises socket.timeout after 2 s without EOF
    if not chunk:
        break
    reply += chunk
assert reply.startswith(b"HTTP/1.1 200"), reply
print(f"idle keep-alive connection closed after {time.monotonic() - t0:.2f} s")
EOF
./target/release/fair-load get --addr "$ADDR" --target '/metrics' --out "$IDLE_METRICS" > /dev/null
grep -q '"conn_timeouts": [1-9]' "$IDLE_METRICS"
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
rm -f "$IDLE_METRICS"

# No smoke's cold phase was answered from stored tiles or cached replies.
python3 - <<'EOF'
import json
for name in ("smoke", "keepalive_smoke", "sharded_smoke"):
    with open(f"target/simlab/serve_load_{name}.json") as fh:
        doc = json.load(fh)
    assert doc["cold_tile_hits"] == 0, (name, doc["cold_tile_hits"])
    assert doc["cold_cache_hits"] == 0, (name, doc["cold_cache_hits"])
EOF
rm -rf "$SMOKE_TILES"

echo "== tile-store restart smoke (warm-from-disk byte identity + /stream)"
TILES_DIR="$(mktemp -d)"
BODY_COLD="$(mktemp)"
BODY_WARM="$(mktemp)"
TMETRICS="$(mktemp)"
# Cold boot: compute one point, and stream the same experiment with a
# loose epsilon — the adaptive stopper must converge ("done":true).
boot_server --workers 2 --tiles-dir "$TILES_DIR"
GET_OUT="$(./target/release/fair-load get --addr "$ADDR" \
  --target '/estimate?exp=e2&trials=320&seed=9' --out "$BODY_COLD")"
echo "$GET_OUT" | grep -q 'X-CACHE=miss'
STREAM_OUT="$(./target/release/fair-load get --addr "$ADDR" \
  --target '/stream?exp=e2&trials=5000&seed=9&epsilon=0.2')"
echo "$STREAM_OUT" | grep -q '"done":true'
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
# The log sits in the build's subdirectory, named by its 16-hex source
# fingerprint, so another build never reads it.
LOGS=("$TILES_DIR"/*/log.tiles)
if [ "${#LOGS[@]}" -ne 1 ] || ! [[ "${LOGS[0]}" =~ ^"$TILES_DIR"/[0-9a-f]{16}/log\.tiles$ ]]; then
  echo "tile log not in one build subdirectory of $TILES_DIR: ${LOGS[*]}"; exit 1
fi
# Reboot on the same directory: the point comes back warm from disk —
# tiles loaded, lookups hit, and the body byte-identical to the cold one.
boot_server --workers 2 --tiles-dir "$TILES_DIR"
./target/release/fair-load get --addr "$ADDR" \
  --target '/estimate?exp=e2&trials=320&seed=9' --out "$BODY_WARM" > /dev/null
cmp "$BODY_COLD" "$BODY_WARM"
./target/release/fair-load get --addr "$ADDR" --target '/metrics' --out "$TMETRICS" > /dev/null
grep -q '"loaded_records": [1-9]' "$TMETRICS"
grep -q '"hits": [1-9]' "$TMETRICS"
./target/release/fair-load shutdown --addr "$ADDR"
wait "$SERVE_PID"
rm -rf "$TILES_DIR"
rm -f "$BODY_COLD" "$BODY_WARM" "$TMETRICS"

echo "== tile reuse across ids (reproduce --tiles cold, warm, and without a store)"
# e14 and s_gk_curve run e11's Gordon–Katz scenarios at e11's seeds, so a
# shared store serves them e11's tiles. Stdout and exit code must match
# byte for byte whether the tiles are computed, read back from disk, or
# never stored.
rm -rf target/simlab/tiles
REUSE="$(mktemp -d)"
for run in cold warm plain; do
  flags=(--tiles)
  [ "$run" = plain ] && flags=()
  status=0
  FAIR_TRIALS=128 ./target/release/reproduce "${flags[@]}" e11 e14 s_gk_curve \
    > "$REUSE/$run.out" 2> "$REUSE/$run.err" || status=$?
  echo "$status" > "$REUSE/$run.status"
done
grep -q ': 0 record(s) loaded' "$REUSE/cold.err"
grep -Eq ': [1-9][0-9]* record\(s\) loaded' "$REUSE/warm.err"
for run in warm plain; do
  cmp "$REUSE/cold.out" "$REUSE/$run.out"
  cmp "$REUSE/cold.status" "$REUSE/$run.status"
done
rm -rf "$REUSE"

echo "== ci.sh: all green"
