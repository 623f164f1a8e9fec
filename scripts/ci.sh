#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from anywhere; works fully
# offline (the workspace has no crates.io dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# --workspace: the member crates' own suites (brisc interpreter unit
# tests and props, coding/flate/ir/vm props, ...) are part of the gate,
# not only the root package's tests. This step also replays the
# reproducers in tests/regressions/ (tests/regressions.rs).
echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

# Format exactness and tier agreement at scale: each golden suite's
# ignored cases pin a 300-function synthetic module (the BRISC image,
# pass count and candidate count; the wire and demand images) to
# recorded values, the BRISC golden also a 1200-function one,
# end_to_end's runs a 300-function module through every execution
# tier, and brisc_decode_equivalence's decodes every item of the
# 1200-function image both ways; they are too slow for the debug
# profile above. brisc_interp_golden runs here too: perfbench measures
# the release build, where the decoder's `debug_assert!`s are compiled
# out, so its pinned instruction and item counts and touch maps are
# checked on that build as well as in debug.
echo "==> brisc and wire golden, interpreter golden, tiers and decoders agree (release, includes the 300- and 1200-function cases)"
cargo test --release --offline --test brisc_compress_golden --test wire_golden \
    --test brisc_interp_golden --test end_to_end --test brisc_decode_equivalence \
    -- --include-ignored

# The BRISC scorer's branch-and-bound search against the full-sort
# reference it replaced, pass by pass, on 60 perfbench-shaped programs
# under every golden option set; too slow for the debug profile.
echo "==> BRISC scorer agrees with its full-sort reference (release, includes the perfbench-shaped case)"
cargo test --release --offline -p codecomp-brisc --lib branch_and_bound -- --include-ignored

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# perfbench is its own workspace, so `--workspace` above does not reach
# its self-tests. --release because its probe kernel sums u64s with
# plain `+` (perfbench/src/probe.rs), which overflows and panics in a
# debug build; release wraps, as the benchmark itself always runs.
echo "==> perfbench self-tests (release)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Differential smoke: the full suite already ran under `cargo test`
# with the default mutation budget; re-run the seeded fuzz here with a
# reduced, fixed budget (6 payloads x 84 mutations ~= 500 cases) as a
# fast deterministic gate that the two inflate implementations agree.
echo "==> differential fuzz smoke (~500 mutations)"
CODECOMP_DIFF_MUTATIONS=84 cargo test -q --offline --test differential \
    seeded_mutations -- --nocapture

# Ratio-regression smoke: compress the corpus payload at every level
# and assert the compressed size stays within 1% of the baseline
# recorded in results/bench.json (no timing — deterministic).
echo "==> deflate ratio smoke (corpus size within 1% per level)"
cargo run --release --offline -q -p codecomp-bench --bin bench -- --ratio-smoke

# Wire decode smoke: round-trip the full corpus byte-exactly, then gate
# the collector-off wire decode rate, normalized by a probe
# kernel timed beside every sample, against a floor set from its
# measured median and spread (CHANGES.md has the derivation).
echo "==> wire decode smoke (byte-exact roundtrip + probe-normalized rate floor)"
cargo run --release --offline -q -p codecomp-bench --bin bench -- --decode-smoke

# Low-limits fault-injection smoke: decode every corpus program under
# starved DecodeLimits (all knobs below the measured footprint) and
# hammer the decoded-structure mutators. Every failure must surface as
# a clean Limit/Corrupt error — never a panic, never a misclassified
# Malformed. Runtime is printed so regressions in this gate are visible.
echo "==> low-limits fault-injection smoke (full corpus)"
smoke_start=$SECONDS
cargo test -q --offline --test limits
cargo test -q --offline --test fault_injection mutated_
echo "==> low-limits smoke took $((SECONDS - smoke_start))s"

# Telemetry smoke: exercise the CLI surfacing end to end — pack and
# decode a corpus-shaped program with --stats/--metrics/--trace, then
# validate every emitted trace line with the in-tree schema checker
# (`codecomp telemetry check`).
echo "==> telemetry smoke (--stats/--metrics/--trace + schema check)"
tdir=$(mktemp -d)
trap 'rm -rf "$tdir"' EXIT
cat > "$tdir/smoke.c" <<'EOS'
int twice(int x) { return x * 2; }
int main() { print_int(twice(21)); return twice(21); }
EOS
bin=target/release/code-compression
"$bin" wire pack "$tdir/smoke.c" --stats --trace="$tdir/pack.jsonl" \
    --metrics="$tdir/pack-metrics.json" > "$tdir/pack.out" 2> "$tdir/pack.err"
grep -q "per-stage stream breakdown" "$tdir/pack.err"
if grep -q "WARNING" "$tdir/pack.err"; then
    echo "ci.sh: --stats sections do not sum to the image size" >&2
    exit 1
fi
"$bin" run "$tdir/smoke.ccwf" --trace="$tdir/run.jsonl" > /dev/null
"$bin" brisc pack "$tdir/smoke.c" > /dev/null
"$bin" brisc run "$tdir/smoke.ccbr" --trace="$tdir/brisc.jsonl" > /dev/null
for trace in "$tdir"/pack.jsonl "$tdir"/run.jsonl "$tdir"/brisc.jsonl; do
    "$bin" telemetry check "$trace"
done

# Self-profiler smoke: profile a wire unpack with the default build and
# validate the collapsed-stack output. The profiled decode must
# attribute self time to the decode stages (inflate/indices/mtf/join).
echo "==> self-profiler smoke (collapsed stacks + schema check)"
prof_start=$SECONDS
"$bin" profile --out "$tdir/wire.folded" --passes 50 \
    wire unpack "$tdir/smoke.ccwf" -o /dev/null > /dev/null
"$bin" telemetry check --collapsed "$tdir/wire.folded"
grep -q "wire.decode" "$tdir/wire.folded"
grep -q "join" "$tdir/wire.folded"
echo "==> profiler smoke took $((SECONDS - prof_start))s"

echo "==> ci.sh: all checks passed"
