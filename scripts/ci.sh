#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from anywhere; works fully
# offline (the workspace has no crates.io dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# --workspace: the member crates' own suites (brisc interpreter unit
# tests and props, coding/flate/ir/vm props, serve soak, ...) are part
# of the gate, not only the root package's tests.
echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

# Compressor exactness at scale: the golden suite's ignored case pins
# a synth-lcc-scale (300-function) image, pass count and candidate count
# to recorded values; it is too slow for the debug profile above.
echo "==> brisc compressor golden (release, includes the synth-lcc case)"
cargo test --release --offline --test brisc_compress_golden -- --include-ignored

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

# Demand-paging soak smoke: a reduced serve-sim run (deterministic,
# virtual-time) across all three channel models at a 2% fault rate
# with two units corrupted at the source. `serve-sim` exits nonzero on
# any stuck client or silently undelivered function, and the summary
# event lands in the trace, which the schema checker then validates.
echo "==> demand-paging soak smoke (serve-sim)"
soak_start=$SECONDS
"$bin" serve-sim --clients 9 --requests 300 --seed 7 --fault-rate 2 \
    --corrupt 2 --trace="$tdir/soak.jsonl" > "$tdir/soak.out"
grep -q "survived" "$tdir/soak.out"
"$bin" telemetry check "$tdir/soak.jsonl"
echo "==> soak smoke took $((SECONDS - soak_start))s"

# Metrics-stream smoke: the same soak with live sampling on. serve-sim
# exits nonzero if the span/counter reconcile fails; the stream must
# pass the schema checker and be byte-identical across same-seed runs.
echo "==> metrics-stream smoke (delta encoding, determinism, reconcile)"
"$bin" serve-sim --clients 9 --requests 120 --seed 7 --fault-rate 2 \
    --corrupt 2 --metrics-interval 25 --metrics-stream "$tdir/m1.jsonl" \
    > "$tdir/m1.out"
grep -q "reconcile: ok" "$tdir/m1.out"
"$bin" telemetry check --stream "$tdir/m1.jsonl"
"$bin" serve-sim --clients 9 --requests 120 --seed 7 --fault-rate 2 \
    --corrupt 2 --metrics-interval 25 --metrics-stream "$tdir/m2.jsonl" \
    > /dev/null
cmp "$tdir/m1.jsonl" "$tdir/m2.jsonl"

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

# Coverage-guided fuzz smoke: a budgeted campaign over every decoder
# with the `coverage` feature on. `codecomp fuzz` exits nonzero on any
# panic or limit violation and writes reproducers for the regression
# harness to replay, so a finding fails CI with the input preserved.
# CODECOMP_FUZZ_CASES scales the budget (default ~30s on a dev box).
echo "==> coverage-guided fuzz smoke (all decoders)"
fuzz_start=$SECONDS
cargo build --release --offline -q --features coverage
cbin=target/release/code-compression
"$cbin" fuzz --target all --cases "${CODECOMP_FUZZ_CASES:-3000}" --seed 1 \
    --save-repros
cargo test -q --offline --test regressions
echo "==> fuzz smoke took $((SECONDS - fuzz_start))s"

echo "==> ci.sh: all checks passed"
