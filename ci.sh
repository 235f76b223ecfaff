#!/bin/sh
# Tier-1 CI entry point.
#
# The workspace has zero external dependencies, so everything below
# runs with an empty cargo registry cache and no network. Keep it that
# way: any step that needs the registry is a regression.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> sz-benchmark tests: every workload at tiny sizes, outputs checked"
# The end-to-end benchmark is a Cargo package of its own, so the
# workspace steps above never build it. Its tests run each workload
# untraced, traced and with a second seed, and check the outputs:
# sentinel_replay alerts exactly once at arrival 9, serve_hit hits are
# byte-identical, traced and untraced digests agree.
cargo test -q --release --offline --manifest-path src/bin/sz-benchmark/Cargo.toml

echo "==> sz-benchmark lints: cargo fmt --check, cargo clippy -D warnings"
# The workspace lint steps above never see this package either, so a
# crate API change would otherwise go unlinted where the benchmark
# calls it.
cargo fmt --check --manifest-path src/bin/sz-benchmark/Cargo.toml
cargo clippy --offline --manifest-path src/bin/sz-benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> fuzz gate: differential fuzz, 6000 programs (seed base ${SZ_CONF_SEED:-default})"
# The standing conformance gate: 6,000 generated programs through all
# six engine/allocator configurations and both interpreters, wall-time
# capped. They take 1.2–1.5 s on a 2-vCPU host, well inside the cap.
# Export SZ_CONF_SEED=<n> to sweep a different region of program space
# without a code change; on divergence the binary exits nonzero and
# prints a self-contained reproducer artifact.
SZ_CONF_SEED="${SZ_CONF_SEED:-}" cargo run -q --release --offline -p sz-fuzz --bin sz-fuzz -- \
    --programs 6000 --time-cap-ms 50000

echo "==> fuzz fuel sweep: 3000 programs re-cut at reduced budgets"
# Re-run a slice of the sweep with --fuel-sweep: each clean program is
# replayed at 2-3 reduced max_instructions budgets and both
# interpreters must report OutOfFuel at exactly the cut with identical
# engine-visible counter traces. The VM runs each span whole or not at
# all, so a budget that ends inside a span must stop the run before the
# span starts, with the counters the reference reaches op by op. 3,000
# programs take about 2 s on a 2-vCPU host, well inside the cap.
SZ_CONF_SEED="${SZ_CONF_SEED:-}" cargo run -q --release --offline -p sz-fuzz --bin sz-fuzz -- \
    --programs 3000 --fuel-sweep --time-cap-ms 30000

echo "==> fuzz negative control: injected engine must be caught and shrunk"
# Arm the deliberately broken global-aliasing engine at a pinned seed
# base: the fuzzer must exit nonzero and print a reproducer. This
# proves the gate can actually fail, and that failures arrive shrunk.
if OUT="$(cargo run -q --release --offline -p sz-fuzz --bin sz-fuzz -- \
    --seed-base 0xC0FFEE00 --programs 500 --inject-global-alias 2>/dev/null)"; then
    echo "injected divergence was not detected"; exit 1
fi
echo "$OUT" | grep -q '"type":"reproducer"' \
    || { echo "no reproducer artifact printed"; exit 1; }
echo "fuzz negative control: divergence caught, reproducer emitted"

echo "==> bench smoke: micro emits parseable BENCH_sim.json (3 runs for medians)"
# Three full micro runs: the regression gate below compares the
# per-metric *median* of the three against the committed baseline, so
# a single noisy run cannot fail CI (or, worse, mask a regression).
for i in 1 2 3; do
    SZ_BENCH_SIM_PATH="target/BENCH_sim.$i.json" \
        cargo run -q --release --offline -p sz-bench --bin micro >/dev/null
done
if command -v jq >/dev/null 2>&1; then
    jq empty target/BENCH_sim.1.json
else
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' target/BENCH_sim.1.json
fi

echo "==> throughput gate: bench_gate verdicts vs committed baseline (band ±${SZ_GATE_BAND:-0.20})"
# Statistically sound replacement for the old fixed 20% threshold:
# bench_gate bootstraps an effect CI per gated metric (baseline samples
# vs the three fresh runs) and fails ONLY on a robustly-slower verdict
# — the whole CI must clear the equivalence band, so one noisy CI run
# can neither fail the build nor hide a real regression. On failure it
# prints the full verdict metadata (ratio CI, Welch CI, band, seed,
# samples per arm). Tune with SZ_GATE_BAND (default 0.20).
SZ_GATE_BAND="${SZ_GATE_BAND:-}" cargo run -q --release --offline -p sz-bench --bin bench_gate -- \
    --baseline BENCH_sim.json \
    target/BENCH_sim.1.json target/BENCH_sim.2.json target/BENCH_sim.3.json

echo "==> statistics calibration: bootstrap CI coverage self-test (release, 300 trials)"
# Monte Carlo check that the effect CI's empirical coverage stays
# within the pinned tolerance of nominal 95% — the gate above is only
# sound if the intervals it trusts are calibrated.
SZ_COVERAGE_TRIALS=300 cargo test -q --release --offline \
    --test statistics_validation effect_ci_coverage_matches_nominal

echo "==> sz-serve smoke: daemon round-trip with cache hits"
# Start the daemon on an ephemeral port with a watcher subscribed to
# its alert stream, make the same quick request twice (the second must
# be a cache hit), replay a traced request from the cache byte for
# byte, check that the adaptive band enters the cache key, send a run
# count past the protocol's bound (an error that names "runs"; the
# daemon keeps serving), and shut down cleanly: the daemon and the
# watcher both exit, all within a bounded timeout.
SERVE_LOG="target/sz-serve-smoke.log"
WATCH_LOG="target/sz-serve-watch.log"
cargo run -q --release --offline -p sz-serve --bin sz-serve -- \
    --addr 127.0.0.1:0 --workers 1 --queue 4 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
WATCH_PID=""
trap 'kill "$SERVE_PID" $WATCH_PID 2>/dev/null || true' EXIT
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^sz-serve listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "sz-serve did not start"; cat "$SERVE_LOG"; exit 1; }
SZCTL="target/release/szctl"
"$SZCTL" --addr "$SERVE_ADDR" watch >"$WATCH_LOG" 2>&1 &
WATCH_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WATCH_LOG" ] && break
    sleep 0.1
done
head -n 1 "$WATCH_LOG" | grep -q '"type":"watch_ack"' \
    || { echo "the watcher's first line is not a watch_ack"; cat "$WATCH_LOG"; exit 1; }
"$SZCTL" --addr "$SERVE_ADDR" --json run table1 --bench bzip2 --runs 3 \
    | grep -q '"cached":false' || { echo "first request should miss"; exit 1; }
"$SZCTL" --addr "$SERVE_ADDR" --json run table1 --bench bzip2 --runs 3 \
    | grep -q '"cached":true' || { echo "second request should hit the cache"; exit 1; }
"$SZCTL" --addr "$SERVE_ADDR" --json stats | grep -q '"type":"stats"' \
    || { echo "stats request failed"; exit 1; }
# Record a real 8-runs-per-variant trace for the sentinel smoke below
# (8 samples = exactly two 4-sample detector windows per series).
"$SZCTL" --addr "$SERVE_ADDR" --json run evaluate --bench bzip2 --runs 8 --trace \
    >target/sentinel-clean.jsonl
# The same traced request again is a hit: its trace lines must equal
# the miss's byte for byte, and its terminal line must be the miss's
# without "job" and with "cached" flipped to true.
"$SZCTL" --addr "$SERVE_ADDR" --json run evaluate --bench bzip2 --runs 8 --trace \
    >target/serve-hit.jsonl
sed '$d' target/sentinel-clean.jsonl >target/serve-miss-trace.jsonl
sed '$d' target/serve-hit.jsonl >target/serve-hit-trace.jsonl
cmp -s target/serve-miss-trace.jsonl target/serve-hit-trace.jsonl \
    || { echo "the traced hit does not replay the miss's trace"; exit 1; }
HIT_LINE="$(tail -n 1 target/sentinel-clean.jsonl \
    | sed -e 's/"job":[0-9]*,//' -e 's/"cached":false/"cached":true/')"
[ "$(tail -n 1 target/serve-hit.jsonl)" = "$HIT_LINE" ] \
    || { echo "the hit's terminal line is not the miss's, uncached"; exit 1; }
# Requests that differ only in the adaptive band are two cache keys.
"$SZCTL" --addr "$SERVE_ADDR" --json run evaluate --bench hmmer --runs 8 \
    --adaptive --band 0.05 >/dev/null
OUT="$("$SZCTL" --addr "$SERVE_ADDR" --json run evaluate --bench hmmer --runs 8 \
    --adaptive --band 0.5)"
echo "$OUT" | grep -q '"cached":false' \
    || { echo "a request with another band was served from the cache"; exit 1; }
echo "$OUT" | grep -q '"band":0.5' \
    || { echo "the band 0.5 request does not report its band"; exit 1; }
# A run count past the protocol's bound is an error naming the field,
# not a job: on one pool thread, 1e12 runs used to abort the daemon on
# a failed allocation (on more, they held a worker for good).
STATUS=0
OUT="$("$SZCTL" --addr "$SERVE_ADDR" --json run table1 --bench bzip2 \
    --runs 1000000000000 --threads 1)" || STATUS=$?
[ "$STATUS" -eq 1 ] || { echo "--runs 1e12 must exit 1, exited $STATUS"; exit 1; }
echo "$OUT" | grep '"type":"error"' | grep -q 'runs' \
    || { echo "--runs 1e12 did not get an error naming runs: $OUT"; exit 1; }
"$SZCTL" --addr "$SERVE_ADDR" --json stats | grep -q '"type":"stats"' \
    || { echo "stats failed after the oversized request"; exit 1; }
"$SZCTL" --addr "$SERVE_ADDR" shutdown >/dev/null
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || kill -0 "$WATCH_PID" 2>/dev/null || break
    sleep 0.1
done
for PID in "$SERVE_PID" "$WATCH_PID"; do
    if kill -0 "$PID" 2>/dev/null; then
        echo "sz-serve or its watcher did not exit within 10s of shutdown"
        kill "$SERVE_PID" "$WATCH_PID" 2>/dev/null || true
        exit 1
    fi
done
STATUS=0
wait "$WATCH_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || { echo "szctl watch exited $STATUS at shutdown"; exit 1; }
trap - EXIT
echo "sz-serve smoke: watch ack, miss, hit, stats, byte-identical traced hit, band keyed, runs bounded, clean shutdown of daemon and watcher"

echo "==> sentinel smoke: clean trace silent, injected regression caught"
# Offline scan of the trace recorded above: a clean stream must exit 0
# with no alerts, and the same stream with a +50% step injected into
# the back half must alert — the armed negative control proving the
# detector can actually fire — and the alert must name the offending
# windows so the report is actionable.
SENTINEL="target/release/sz-sentinel"
"$SENTINEL" target/sentinel-clean.jsonl >/dev/null \
    || { echo "clean trace must scan silently"; exit 1; }
if OUT="$("$SENTINEL" --inject-step 1.5 --inject-at 4 \
    target/sentinel-clean.jsonl 2>/dev/null)"; then
    echo "injected regression was not detected"; exit 1
fi
echo "$OUT" | grep -q '"type":"alert"' \
    || { echo "no alert record printed"; exit 1; }
echo "$OUT" | grep -q '"old_window"' \
    || { echo "alert does not carry the offending window"; exit 1; }
# An out-of-range verdict option is a usage error: exit 2 with the
# usage, not a panic (exit 101) inside the detector.
STATUS=0
OUT="$("$SENTINEL" --confidence 1.5 target/sentinel-clean.jsonl 2>&1 >/dev/null)" \
    || STATUS=$?
[ "$STATUS" -eq 2 ] \
    || { echo "--confidence 1.5 must exit 2, exited $STATUS"; exit 1; }
echo "$OUT" | grep -q '^usage: sz-sentinel' \
    || { echo "--confidence 1.5 did not print the usage"; exit 1; }
# A hostile trace: one series whose seconds (1e200 and up) overflow
# the Welch variance. The window cannot be judged, so the scan must
# end silently with exit 0, not panic (exit 101) in the detector.
{
    printf '{"schema":1}\n'
    for i in 0 1 2 3 4 5 6 7; do
        printf '{"type":"run","benchmark":"b","run":%d,"seconds":1.0%de200}\n' "$i" "$i"
    done
} | "$SENTINEL" >/dev/null 2>&1 \
    || { echo "a trace of 1e200-second runs must scan with exit 0"; exit 1; }
echo "sentinel smoke: clean stream silent, injected step alerted with windows, bad option rejected, hostile magnitudes scanned"

echo "==> loadgen smoke: 512 concurrent clients against a spawned server"
# The front end under real concurrency: 512 clients, each served on a
# server thread of its own, issuing cache-hit run + stats requests.
# Exit is nonzero if any connection dies; the statistical p99
# regression gate ran above (the `loadgen` section of BENCH_sim.json,
# judged by bench_gate alongside the interpreter metrics).
target/release/sz-loadgen --spawn --clients 512 --requests 4 --waves 3

echo "ci.sh: all checks passed"
