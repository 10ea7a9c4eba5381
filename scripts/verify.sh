#!/usr/bin/env sh
# Full offline verification: format, lint, build, test.
#
# Runs entirely against the vendored workspace — no network access needed.
# Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

# Runs every unit, integration and doc test: each `# Examples` block in
# the workspace compiles and runs here (no crate sets `doctest = false`).
echo "==> cargo test --workspace"
cargo test --workspace --quiet

# The benchmark (benchmark/) is a workspace of its own, so the workspace
# build and tests above never compile it. Build and test it here, so a
# public-API change in mdz-store cannot break it without a check failing.
echo "==> benchmark build + tests (benchmark/, its own workspace)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Bounded fuzz smoke: deterministic seeded campaigns over every decode
# entry point. 5 000 iterations keeps this step to a few seconds; CI's
# dedicated fuzz-smoke job runs the full 100 000-iteration budget.
echo "==> fuzz smoke (MDZ_FUZZ_ITERS=${MDZ_FUZZ_ITERS:-5000})"
MDZ_FUZZ_ITERS="${MDZ_FUZZ_ITERS:-5000}" cargo test -p mdz-fuzz --release --quiet

# Parallel gate: the store writer's bytes against the golden archives,
# through the public API and for 1-4 workers, and against the serial
# oracle of the decision rule (one compressor per axis fed every buffer in
# stream order) for 1-4 workers; and the append oracle, which checks that
# appended blocks code with the decisions one create_store gives them.
echo "==> parallel determinism (golden store archives, serial oracle, workers 1-4, append decisions)"
cargo test -p mdz-store --release --quiet --test golden_archives
cargo test -p mdz-store --release --quiet --test append_decisions
cargo test -p mdz-store --release --quiet --lib every_worker_count

tmp_out="$(mktemp -d)"
trap 'rm -rf "$tmp_out"' EXIT

# Bit-adaptive gate: the round-trip/bound tests for the version-2 block
# format, then the quantizer-comparison experiment whose JSON artifact
# must show the gas-corpus win at a per-value-verified bound.
echo "==> bit-adaptive round-trip smoke"
cargo test -p mdz-core --release --quiet --test bit_adaptive_bound

echo "==> quantizer smoke (JSON schema check)"
cargo run --release -p mdz-bench --bin experiments -- \
    --scale test --out "$tmp_out" quantizer > /dev/null
MDZ_BENCH_JSON="$tmp_out/BENCH_quantizer.json" \
    cargo test -p mdz-bench --release --quiet --test quantizer_json

# Store smoke: compress simulated frames into a version-2 archive, serve
# it on an ephemeral loopback port, and require the served range to
# byte-match a local random-access read (FORMAT.md §1.4) before shutting
# the server down.
echo "==> store smoke (archive -> serve -> query -> stats -> shutdown)"
mdz=target/release/mdz
"$mdz" gen lj "$tmp_out/traj.xyz" --scale test --seed 7 > /dev/null
"$mdz" store "$tmp_out/traj.xyz" "$tmp_out/traj.mdz" --bs 1 --epoch 2 > /dev/null
"$mdz" get "$tmp_out/traj.mdz" 1..3 > "$tmp_out/local.txt" 2> /dev/null

# SIMD dispatch smoke: the SIMD kernels are format-invisible, so the same
# round-trip with every kernel forced to the scalar oracle must produce a
# byte-identical archive and byte-identical decoded frames.
echo "==> force-scalar smoke (MDZ_FORCE_SCALAR=1, byte-compared round-trip)"
MDZ_FORCE_SCALAR=1 "$mdz" store "$tmp_out/traj.xyz" "$tmp_out/scalar.mdz" \
    --bs 1 --epoch 2 > /dev/null
cmp "$tmp_out/traj.mdz" "$tmp_out/scalar.mdz"
MDZ_FORCE_SCALAR=1 "$mdz" get "$tmp_out/scalar.mdz" 1..3 \
    > "$tmp_out/scalar.txt" 2> /dev/null
cmp "$tmp_out/local.txt" "$tmp_out/scalar.txt"
rm "$tmp_out/scalar.mdz" "$tmp_out/scalar.txt"

# Stored-payload smoke: the LJ smokes above write only LZ77 payloads, as
# LZ77 pays there. On ADK (protein) data it does not, so ADP stores the
# axis blocks' inner bytes as they are (version-3 blocks, FORMAT.md §4).
# The archive must report stored blocks and pass `mdz verify`, `mdz
# extract` of frame 3 must keep every value within its block's ε (1e-3 of
# the axis's value range over the block's frames 2 and 3, the default
# bound), and the archive and its decoded frames must come out
# byte-identical with every kernel forced to the scalar oracle.
echo "==> stored-payload smoke (ADK: stored blocks, verify, extract within eps, force-scalar)"
"$mdz" gen adk "$tmp_out/adk.xyz" --scale test --seed 7 > /dev/null
"$mdz" store "$tmp_out/adk.xyz" "$tmp_out/adk.mdz" --bs 2 --epoch 2 > /dev/null
"$mdz" info "$tmp_out/adk.mdz" | grep '^methods:.* stored ×' > /dev/null \
    || { echo "stored smoke: mdz info reports no stored block"; exit 1; }
"$mdz" verify "$tmp_out/adk.xyz" "$tmp_out/adk.mdz" > /dev/null
"$mdz" extract "$tmp_out/adk.mdz" 3 > "$tmp_out/adk_frame3.xyz" 2> /dev/null
awk 'NR == FNR {
         if (FNR == 1) n = $1
         f = int((FNR - 1) / (n + 2)); r = (FNR - 1) % (n + 2) - 1
         if ((f == 2 || f == 3) && r >= 1) for (a = 2; a <= 4; a++) {
             if (!(a in lo) || $a < lo[a]) lo[a] = $a
             if (!(a in hi) || $a > hi[a]) hi[a] = $a
             if (f == 3) src[r, a] = $a
         }
         next
     }
     FNR > 2 {
         rows++
         for (a = 2; a <= 4; a++) {
             d = $a - src[FNR - 2, a]
             if (d < 0) d = -d
             if (d > 1e-3 * (hi[a] - lo[a]) + 1e-10) bad++
         }
     }
     END { exit bad > 0 || rows != n }' "$tmp_out/adk.xyz" "$tmp_out/adk_frame3.xyz" \
    || { echo "stored smoke: mdz extract left the error bound"; exit 1; }
"$mdz" get "$tmp_out/adk.mdz" 0..8 > "$tmp_out/adk.txt" 2> /dev/null
MDZ_FORCE_SCALAR=1 "$mdz" store "$tmp_out/adk.xyz" "$tmp_out/adk_scalar.mdz" \
    --bs 2 --epoch 2 > /dev/null
cmp "$tmp_out/adk.mdz" "$tmp_out/adk_scalar.mdz"
MDZ_FORCE_SCALAR=1 "$mdz" get "$tmp_out/adk_scalar.mdz" 0..8 \
    > "$tmp_out/adk_scalar.txt" 2> /dev/null
cmp "$tmp_out/adk.txt" "$tmp_out/adk_scalar.txt"

"$mdz" serve "$tmp_out/traj.mdz" 127.0.0.1:0 --threads 2 2> "$tmp_out/serve.log" &
server_pid=$!
trap 'kill "$server_pid" 2> /dev/null; rm -rf "$tmp_out"' EXIT
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.* on //p' "$tmp_out/serve.log" | head -n 1)"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "store smoke: server did not start"; exit 1; }
"$mdz" query "$addr" 1..3 > "$tmp_out/remote.txt" 2> /dev/null
cmp "$tmp_out/local.txt" "$tmp_out/remote.txt"
"$mdz" stats "$addr" | grep "^requests:" >/dev/null

# Metrics smoke: fetch the full METRICS snapshot as JSON and validate it
# against the traffic just driven — 1 GET (query) plus STATS + INFO (the
# stats command); the METRICS request itself is excluded from its own
# snapshot. The range 1..3 spans two cold epochs (bs=1, epoch=2).
echo "==> metrics smoke (METRICS verb, JSON schema + exact counters)"
"$mdz" stats "$addr" --metrics --json > "$tmp_out/BENCH_metrics.json"
MDZ_BENCH_JSON="$tmp_out/BENCH_metrics.json" \
MDZ_METRICS_EXPECT_REQUESTS=3 \
MDZ_METRICS_EXPECT_GETS=1 \
MDZ_METRICS_EXPECT_CACHE_MISSES=2 \
MDZ_METRICS_EXPECT_CACHE_HITS=0 \
MDZ_METRICS_EXPECT_ERRORS=0 \
    cargo test -p mdz-bench --release --quiet --test metrics_json
"$mdz" stats "$addr" --metrics | grep "store.requests" >/dev/null
# The event loop's own instruments reach METRICS too.
"$mdz" stats "$addr" --metrics | grep "server\.net\.connections" >/dev/null
kill "$server_pid"
wait "$server_pid" 2> /dev/null || true
trap 'rm -rf "$tmp_out"' EXIT

# Crash-consistency smoke: the exhaustive fault-point sweep, then the CLI
# side of the same story — append under the footer-flip protocol, verify
# the full CRC walk, tear the tail with deterministic junk, require verify
# to fail, recover, and require verify to pass again on the pre-tear bytes.
echo "==> crash-consistency sweep (every fault point, ADP/VQ x f32/f64)"
cargo test -p mdz-store --release --quiet --test crash_recovery

echo "==> append/verify/recover smoke (torn tail repaired by mdz recover)"
"$mdz" gen lj "$tmp_out/more.xyz" --scale test --seed 8 > /dev/null
"$mdz" append "$tmp_out/traj.mdz" "$tmp_out/more.xyz" > /dev/null
"$mdz" verify "$tmp_out/traj.mdz" > /dev/null
cp "$tmp_out/traj.mdz" "$tmp_out/clean.mdz"
printf 'torn append scratch bytes' >> "$tmp_out/traj.mdz"
if "$mdz" verify "$tmp_out/traj.mdz" > /dev/null 2>&1; then
    echo "crash smoke: verify accepted a torn tail"; exit 1
fi
"$mdz" recover "$tmp_out/traj.mdz" > /dev/null
"$mdz" verify "$tmp_out/traj.mdz" > /dev/null
cmp "$tmp_out/traj.mdz" "$tmp_out/clean.mdz"

# Live-ingest smoke: a --live server takes remote appends while a
# follower streams; kill -9 between acked appends proves acked == durable
# (the restarted server recovers every acknowledged frame, FORMAT.md
# §1.3), the follower rides out the restart on its transient-retry path,
# and its complete output must byte-equal an offline sequential decode.
echo "==> live-ingest smoke (remote appends, kill -9 + restart, follower resumes)"
"$mdz" gen lj "$tmp_out/live.xyz" --scale test --seed 11 > /dev/null
"$mdz" store "$tmp_out/live.xyz" "$tmp_out/live.mdz" --bs 1 --epoch 2 > /dev/null
base_n="$("$mdz" info "$tmp_out/live.mdz" | sed -n 's/^frames: *//p')"
for seed in 12 13 14; do
    "$mdz" gen lj "$tmp_out/chunk$seed.xyz" --scale test --seed "$seed" > /dev/null
done
total=$((base_n * 4)) # gen frame count depends on scale only, not seed

follow_pid=""
live_pid=""
trap 'kill $live_pid $follow_pid 2> /dev/null || true; rm -rf "$tmp_out"' EXIT
"$mdz" serve "$tmp_out/live.mdz" 127.0.0.1:0 --threads 2 --live \
    2> "$tmp_out/live.log" &
live_pid=$!
laddr=""
for _ in $(seq 1 100); do
    laddr="$(sed -n 's/.* on \([0-9.:]*\).*/\1/p' "$tmp_out/live.log" | head -n 1)"
    [ -n "$laddr" ] && break
    sleep 0.1
done
[ -n "$laddr" ] || { echo "live smoke: server did not start"; exit 1; }

"$mdz" follow "$laddr" 0 --until "$total" --poll-ms 20 \
    > "$tmp_out/follow.txt" 2> /dev/null &
follow_pid=$!

"$mdz" append --remote "$laddr" "$tmp_out/chunk12.xyz" > /dev/null
"$mdz" append --remote "$laddr" "$tmp_out/chunk13.xyz" > /dev/null
kill -9 "$live_pid"
wait "$live_pid" 2> /dev/null || true

# Both appends were acknowledged, so both must have survived the crash.
n_after="$("$mdz" info "$tmp_out/live.mdz" | sed -n 's/^frames: *//p')"
[ "$n_after" -eq $((base_n * 3)) ] \
    || { echo "live smoke: acked frames lost across kill -9 ($n_after)"; exit 1; }

# Restart on the same address (the follower reconnects to it). The port
# may linger briefly after the kill, so retry the bind.
restarted=""
for _ in $(seq 1 50); do
    : > "$tmp_out/live.log"
    "$mdz" serve "$tmp_out/live.mdz" "$laddr" --threads 2 --live \
        2> "$tmp_out/live.log" &
    live_pid=$!
    for _ in $(seq 1 20); do
        grep -q " on " "$tmp_out/live.log" && { restarted=1; break; }
        kill -0 "$live_pid" 2> /dev/null || break
        sleep 0.1
    done
    [ -n "$restarted" ] && break
    wait "$live_pid" 2> /dev/null || true
    sleep 0.2
done
[ -n "$restarted" ] || { echo "live smoke: server did not restart"; exit 1; }

"$mdz" append --remote "$laddr" "$tmp_out/chunk14.xyz" > /dev/null

# The follower exits on its own once it has streamed `total` frames.
for _ in $(seq 1 300); do
    kill -0 "$follow_pid" 2> /dev/null || break
    sleep 0.1
done
if kill -0 "$follow_pid" 2> /dev/null; then
    echo "live smoke: follower did not finish"
    exit 1
fi
wait "$follow_pid" || { echo "live smoke: follower failed"; exit 1; }
follow_pid=""
kill "$live_pid" 2> /dev/null
wait "$live_pid" 2> /dev/null || true
live_pid=""
trap 'rm -rf "$tmp_out"' EXIT

# The streamed frames must byte-equal an offline sequential decode of
# the final archive.
"$mdz" get "$tmp_out/live.mdz" "0..$total" > "$tmp_out/offline.txt" 2> /dev/null
cmp "$tmp_out/follow.txt" "$tmp_out/offline.txt"

echo "verify: all checks passed"
