//! The perf tracker's measurement core: one [`measure`], one JSON
//! writer ([`write()`]) and one baseline reader ([`read`], [`baseline`])
//! for `results/bench.json`, shared by every stage of the `bench`
//! binary.
//!
//! A rate is reported as it would read on a host where one run of the
//! probe kernel takes [`PROBE_REFERENCE_NS`]. On a shared host the
//! crates' code slows by tens of percent for seconds at a time; pairing
//! every sample with a probe run and scaling by the probe's speed keeps
//! that drift out of the number, while a change to the crates moves it
//! in full, because the probe is this crate's own code.

use codecomp_flate::CompressionLevel;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The tracker's report, `results/bench.json` at the repository root.
pub const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench.json");

/// Timed samples per measurement, after one untimed warm-up run.
pub const SAMPLES: usize = 15;

/// The probe kernel's time on the reference host (a 2-vCPU x86-64
/// container when uncontended), in ns.
pub const PROBE_REFERENCE_NS: f64 = 1.0e6;

/// A probe-normalized rate in units per second: the median over
/// [`SAMPLES`] and its median absolute deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    /// Median of the per-sample rates.
    pub median: f64,
    /// Median absolute deviation of the per-sample rates.
    pub mad: f64,
}

/// Measures the rate of `run`, which does `units` of work per call.
///
/// One untimed warm-up call, then [`SAMPLES`] timed calls, each directly
/// after a probe run that normalizes it. The caller decides whether a
/// telemetry collector is installed; the tracker measures with none
/// unless it says otherwise.
pub fn measure(units: f64, mut run: impl FnMut()) -> Rate {
    run();
    let rates: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let probe = probe_ns();
            let t = Instant::now();
            run();
            let ns = t.elapsed().as_nanos().max(1) as f64;
            units * 1e9 / ns * (probe / PROBE_REFERENCE_NS)
        })
        .collect();
    Rate {
        median: median(&rates),
        mad: mad(&rates),
    }
}

/// Median of a sample: the mean of the middle two when its length is
/// even, 0 when it is empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    median(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

/// What installing a collector costs, in percent of the collector-off
/// rate, or `None` ("unresolved") unless the collector-on rate is lower
/// by more than the two rates' spread.
pub fn collector_tax_pct(off: Rate, on: Rate) -> Option<f64> {
    let lost = off.median - on.median;
    (lost > off.mad + on.mad).then(|| lost / off.median * 100.0)
}

/// Runs the probe kernel once and returns its wall time in ns.
fn probe_ns() -> f64 {
    let t = Instant::now();
    black_box(probe_kernel(black_box(0x5EED)));
    t.elapsed().as_nanos() as f64
}

/// A fixed kernel of the work the decoders spend their time on: small
/// allocations, string formatting and hashing, an ordered map of growing
/// vectors, and a sort, on seeded input. All arithmetic wraps, so debug
/// and release builds compute the same value.
fn probe_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let names: Vec<String> = (0..1200)
        .map(|i| format!("{:x}.{i}", next() % 4096))
        .collect();
    let index: HashMap<&str, u64> = names.iter().map(|n| (n.as_str(), next())).collect();
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..5000 {
        groups.entry(next() % 1500).or_default().push(next());
    }
    let mut sums: Vec<u64> = groups
        .values()
        .map(|g| g.iter().fold(0, |a: u64, &b| a.wrapping_add(b)))
        .collect();
    sums.sort_unstable();
    let hits = names.iter().filter_map(|n| index.get(n.as_str())).count() as u64;
    sums.iter().fold(hits, |a, &s| a.rotate_left(7) ^ s)
}

/// A tracker report: a flat map from dotted keys (`"wire.decode_mib_s"`)
/// to raw JSON values. Recorded baselines sit under `<stage>.baseline.`.
pub type Report = BTreeMap<String, String>;

/// A number as a JSON value: integers exactly, others to three decimals.
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The report as a JSON object, one `"key": value` line per entry.
fn render(report: &Report) -> String {
    let lines: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Parses what [`render`] writes back into the same report. Lines that
/// are not entries (the braces) are skipped.
fn parse(json: &str) -> Report {
    json.lines()
        .filter_map(|line| {
            let (key, value) = line.trim().strip_prefix('"')?.split_once("\": ")?;
            let value = value.strip_suffix(',').unwrap_or(value);
            Some((key.to_string(), value.to_string()))
        })
        .collect()
}

/// Writes the report to `path`.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write(path: &str, report: &Report) {
    std::fs::write(path, render(report)).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The report at `path`, empty when there is none.
pub fn read(path: &str) -> Report {
    std::fs::read_to_string(path)
        .map(|s| parse(&s))
        .unwrap_or_default()
}

/// The recorded baseline of `key` (`"<stage>.<name>"`), read from
/// `"<stage>.baseline.<name>"`.
pub fn baseline(report: &Report, key: &str) -> Option<f64> {
    report.get(&baseline_key(key))?.parse().ok()
}

/// Where the baseline of `key` is recorded.
pub fn baseline_key(key: &str) -> String {
    match key.split_once('.') {
        Some((stage, name)) => format!("{stage}.baseline.{name}"),
        None => format!("baseline.{key}"),
    }
}

/// The deflate levels under test, by the name each reports under.
pub const LEVELS: [(&str, CompressionLevel); 3] = [
    ("fast", CompressionLevel::Fast),
    ("default", CompressionLevel::Default),
    ("best", CompressionLevel::Best),
];

/// Compressed size may grow this much over its recorded baseline before
/// `--ratio-smoke` fails (fraction of the baseline). Shrinking never
/// fails; it only hints that the baseline could be re-recorded.
const RATIO_TOLERANCE: f64 = 0.01;

/// The `--ratio-smoke` gate: each level's compressed size (`sizes`, in
/// [`LEVELS`] order) against its `deflate.baseline.<level>_bytes`.
/// Prints one verdict per level and returns whether all passed; a level
/// with no recorded baseline is reported and skipped.
pub fn ratio_smoke(report: &Report, sizes: &[usize]) -> bool {
    let mut ok = true;
    for ((name, _), &size) in LEVELS.iter().zip(sizes) {
        let Some(base) = baseline(report, &format!("deflate.{name}_bytes")) else {
            println!("ratio {name}: {size} bytes (no recorded baseline, skipped)");
            continue;
        };
        let drift = (size as f64 - base) / base;
        let verdict = if drift > RATIO_TOLERANCE {
            "FAIL"
        } else if drift < -RATIO_TOLERANCE {
            "ok (improved; consider --record-baseline)"
        } else {
            "ok"
        };
        println!(
            "ratio {name}: {size} bytes vs baseline {base:.0} ({:+.2}%) {verdict}",
            drift * 100.0
        );
        ok &= drift <= RATIO_TOLERANCE;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_on_fixed_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Deviations from 3: 2, 1, 0, 1, 97 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[7.0; 5]), 0.0);
    }

    #[test]
    fn tax_inside_the_spread_is_unresolved() {
        let off = Rate {
            median: 100.0,
            mad: 2.0,
        };
        let on = |median| Rate { median, mad: 2.0 };
        assert_eq!(collector_tax_pct(off, on(97.0)), None);
        assert_eq!(collector_tax_pct(off, on(110.0)), None);
        assert_eq!(collector_tax_pct(off, on(90.0)), Some(10.0));
    }

    #[test]
    fn the_reader_reads_back_what_the_writer_writes() {
        let mut r = Report::new();
        r.insert("deflate.baseline.fast_bytes".into(), num(181864.0));
        r.insert("wire.decode_mib_s".into(), num(6.25));
        r.insert("wire.decode.collector_tax_pct".into(), "null".into());
        r.insert("wire.payload".into(), "\"10 modules, 8376 bytes\"".into());
        r.insert(
            "metrics".into(),
            "{\"counters\":{\"a.b\":1},\"gauges\":{}}".into(),
        );
        assert_eq!(parse(&render(&r)), r);
        assert_eq!(baseline(&r, "deflate.fast_bytes"), Some(181864.0));
        assert_eq!(baseline(&r, "deflate.best_bytes"), None);

        let dir = std::env::temp_dir().join(format!("codecomp-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        write(path, &r);
        assert_eq!(read(path), r);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(read(path).is_empty());
    }

    #[test]
    fn ratio_smoke_reads_the_recorded_deflate_baselines() {
        let report = read(RESULTS);
        let recorded = [181864, 161241, 148022];
        for ((name, _), bytes) in LEVELS.iter().zip(recorded) {
            let key = format!("deflate.{name}_bytes");
            assert_eq!(baseline(&report, &key), Some(bytes as f64), "{key}");
        }
        assert!(ratio_smoke(&report, &recorded));
        assert!(ratio_smoke(&report, &[181864, 161241, 148022 * 101 / 100]));
        assert!(!ratio_smoke(&report, &[181864, 161241 * 102 / 100, 148022]));
    }

    #[test]
    fn the_probe_kernel_is_deterministic_in_a_debug_build() {
        assert_eq!(probe_kernel(0x5EED), probe_kernel(0x5EED));
        assert_ne!(probe_kernel(1), probe_kernel(2));
        assert!(probe_ns() > 0.0);
    }

    #[test]
    fn measure_warms_up_then_takes_every_sample() {
        let mut calls = 0;
        let r = measure(1.0, || calls += 1);
        assert_eq!(calls, SAMPLES + 1);
        assert!(r.median > 0.0 && r.mad >= 0.0);
    }
}
