//! Perf tracker: decode and encode rates of the inflate, deflate, wire
//! and BRISC stages, recorded in `results/bench.json` so successive
//! changes have a trajectory. Every rate comes from
//! [`codecomp_bench::perf::measure`] (probe-normalized median and MAD,
//! collector off).
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run --release -p codecomp-bench --bin bench -- [STAGE...] [--record-baseline]
//!     STAGE: inflate | deflate | wire | brisc (default: all four). Keeps
//!     each recorded baseline unless --record-baseline is passed.
//! ... --ratio-smoke    no timing: compressed size per deflate level within
//!                      1% of its recorded baseline; writes nothing
//! ... --decode-smoke   the corpus wire round trip is byte-exact, and the
//!                      wire decode rate clears a floor; writes nothing
//! ```
//!
//! After the collector-off measurements, a metrics collector is
//! installed (one way), every job runs once untimed for the metrics
//! snapshot, and inflate and wire decode are measured again to price
//! the collector.

use codecomp_bench::perf::{self, num, Rate, Report, LEVELS};
use codecomp_bench::{subjects, Scale};
use codecomp_brisc::image::{DecodeTables, ItemBuf};
use codecomp_brisc::interp::BriscMachine;
use codecomp_brisc::BriscImage;
use codecomp_core::telemetry;
use codecomp_core::Budget;
use codecomp_corpus::{benchmarks, synthetic, SynthConfig};
use codecomp_flate::deflate::deflate_compress_fixed;
use codecomp_flate::{deflate_compress, inflate, CompressionLevel};
use codecomp_ir::Module;
use codecomp_vm::VmProgram;
use codecomp_wire::{compress, decompress, WireOptions};

const STAGES: [&str; 4] = ["inflate", "deflate", "wire", "brisc"];
const MIB: f64 = 1024.0 * 1024.0;
/// Plaintext size of the inflate and deflate payload.
const PAYLOAD_LEN: usize = 1 << 20;
/// `--decode-smoke` floor on the collector-off, probe-normalized
/// corpus wire decode rate, in MiB/s: the median of 25 runs' medians
/// (4.76) less ten times the median within-run MAD (0.14), rounded
/// down. A decoder doing its work twice reads about 2.6, and one made
/// 1.6x slower about 3.0.
const DECODE_FLOOR_MIB_S: f64 = 3.35;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    if flag("--ratio-smoke") {
        let data = payload();
        let sizes: Vec<usize> = LEVELS
            .iter()
            .map(|&(_, l)| packed(&data, l).len())
            .collect();
        if !perf::ratio_smoke(&perf::read(perf::RESULTS), &sizes) {
            fail("compressed size regressed more than 1% from baseline");
        }
        return;
    }
    if flag("--decode-smoke") {
        let (modules, images) = wire_corpus();
        for (ir, img) in modules.iter().zip(&images) {
            let back = decompress(img).expect("corpus image decodes");
            assert_eq!(&back, ir, "decode smoke: roundtrip mismatch");
        }
        let rate = perf::measure(mib(&images), || decode(&images));
        println!(
            "decode smoke: wire decode {:.2} ± {:.2} MiB/s \
             (probe-normalized, floor {DECODE_FLOOR_MIB_S})",
            rate.median, rate.mad
        );
        if rate.median < DECODE_FLOOR_MIB_S {
            fail(&format!(
                "wire decode rate fell below the {DECODE_FLOOR_MIB_S} MiB/s floor"
            ));
        }
        return;
    }

    let mut stages: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(bad) = stages.iter().find(|s| !STAGES.contains(s)) {
        fail(&format!(
            "unknown stage `{bad}` (expected one of {STAGES:?})"
        ));
    }
    if stages.is_empty() {
        stages = STAGES.to_vec();
    }
    let prior = perf::read(perf::RESULTS);
    let mut out = Out {
        report: prior.clone(),
        prior,
        record: flag("--record-baseline"),
    };
    out.put("samples", num(perf::SAMPLES as f64));
    out.put("probe_reference_ns", num(perf::PROBE_REFERENCE_NS));
    let mut jobs = Vec::new();
    for stage in stages {
        jobs.extend(match stage {
            "inflate" => inflate_jobs(&mut out),
            "deflate" => deflate_jobs(&mut out),
            "wire" => wire_jobs(&mut out),
            _ => brisc_jobs(&mut out),
        });
    }

    for job in &jobs {
        let key = format!("{}_{}", job.key, job.unit);
        out.rate(&key, perf::measure(job.units, &job.run));
    }
    telemetry::install(telemetry::Collector::metrics_only());
    for job in &jobs {
        (job.run)();
    }
    let metrics = telemetry::collector()
        .expect("installed above")
        .metrics
        .snapshot();
    out.put("metrics", metrics.to_json());
    for job in jobs.iter().filter(|j| j.collector) {
        out.tax(&job.key, perf::measure(job.units, &job.run));
    }
    perf::write(perf::RESULTS, &out.report);
    println!("wrote {}", perf::RESULTS);
}

fn fail(why: &str) -> ! {
    eprintln!("bench: {why}");
    std::process::exit(1);
}

/// One timed piece of a stage's work.
struct Job {
    /// Report key prefix, such as `wire.decode`.
    key: String,
    /// Work done per call, in `unit`s (MiB, millions of instructions or
    /// of BRISC items, or thousands of IR nodes).
    units: f64,
    /// Rate unit suffix of the report key: `mib_s`, `mips`, `mitems_s`
    /// or `knodes_s`.
    unit: &'static str,
    /// Also measured with a collector installed.
    collector: bool,
    run: Box<dyn Fn()>,
}

impl Job {
    fn new(key: &str, units: f64, run: impl Fn() + 'static) -> Job {
        Job {
            key: key.into(),
            units,
            unit: "mib_s",
            collector: false,
            run: Box::new(run),
        }
    }
}

/// The report being built, beside the one it replaces.
struct Out {
    report: Report,
    prior: Report,
    record: bool,
}

impl Out {
    fn put(&mut self, key: &str, json: String) {
        self.report.insert(key.into(), json);
    }

    /// Records `key` and its baseline: the prior one, unless there is
    /// none or `--record-baseline` was passed.
    fn tracked(&mut self, key: &str, value: f64, spread: &str) {
        let base = match perf::baseline(&self.prior, key) {
            Some(b) if !self.record => b,
            _ => value,
        };
        println!("{key}: {}{spread} (baseline {})", num(value), num(base));
        self.put(key, num(value));
        self.put(&perf::baseline_key(key), num(base));
    }

    fn rate(&mut self, key: &str, r: Rate) {
        self.tracked(key, r.median, &format!(" ± {}", num(r.mad)));
        self.put(&format!("{key}.mad"), num(r.mad));
    }

    /// Records the collector-on rate of job `key` and what the
    /// collector costs it.
    fn tax(&mut self, key: &str, on: Rate) {
        let get = |k: String| self.report[&k].parse().expect("measured collector-off");
        let off = Rate {
            median: get(format!("{key}_mib_s")),
            mad: get(format!("{key}_mib_s.mad")),
        };
        self.put(&format!("{key}.collector_mib_s"), num(on.median));
        self.put(&format!("{key}.collector_mib_s.mad"), num(on.mad));
        let (json, shown) = match perf::collector_tax_pct(off, on) {
            Some(t) => (num(t), format!("{t:.2}%")),
            None => ("null".into(), "unresolved".into()),
        };
        println!(
            "{key}.collector_mib_s: {} ± {} (collector tax {shown})",
            num(on.median),
            num(on.mad)
        );
        self.put(&format!("{key}.collector_tax_pct"), json);
    }
}

/// Corpus-derived plaintext: the bundled benchmark sources followed by
/// *distinct* synthetic translation units up to [`PAYLOAD_LEN`] bytes.
/// Distinct units keep the match/literal mix realistic; cycling one
/// source would measure the copy loop instead of Huffman decoding.
fn payload() -> Vec<u8> {
    let mut data = Vec::with_capacity(PAYLOAD_LEN + 4096);
    for b in benchmarks() {
        data.extend_from_slice(b.source.as_bytes());
    }
    let mut seed = 1u64;
    while data.len() < PAYLOAD_LEN {
        data.extend_from_slice(synthetic(seed, SynthConfig::default()).as_bytes());
        seed += 1;
    }
    data.truncate(PAYLOAD_LEN);
    data
}

/// `data` deflated at `level`, checked to inflate back to `data`.
fn packed(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let packed = deflate_compress(data, level);
    assert_eq!(inflate(&packed).expect("compressor output decodes"), data);
    packed
}

fn mib(blobs: &[Vec<u8>]) -> f64 {
    blobs.iter().map(Vec::len).sum::<usize>() as f64 / MIB
}

fn inflate_jobs(out: &mut Out) -> Vec<Job> {
    let data = payload();
    let fixed = deflate_compress_fixed(&data, CompressionLevel::Best);
    assert_eq!(inflate(&fixed).expect("fixed payload decodes"), data);
    let dynamic = packed(&data, CompressionLevel::Best);
    let text = format!("\"corpus sources + synthetic units, {PAYLOAD_LEN} bytes\"");
    out.put("inflate.payload", text);
    let units = PAYLOAD_LEN as f64 / MIB;
    let mut dynamic = Job::new("inflate.dynamic", units, move || {
        inflate(&dynamic).expect("decodes");
    });
    dynamic.collector = true;
    let fixed = Job::new("inflate.fixed", units, move || {
        inflate(&fixed).expect("decodes");
    });
    vec![fixed, dynamic]
}

fn deflate_jobs(out: &mut Out) -> Vec<Job> {
    let data = std::rc::Rc::new(payload());
    let text = format!("\"corpus sources + synthetic units, {PAYLOAD_LEN} bytes\"");
    out.put("deflate.payload", text);
    let units = PAYLOAD_LEN as f64 / MIB;
    LEVELS
        .iter()
        .map(|&(name, level)| {
            let size = packed(&data, level).len() as f64;
            out.tracked(&format!("deflate.{name}_bytes"), size, "");
            let data = data.clone();
            Job::new(&format!("deflate.{name}"), units, move || {
                deflate_compress(&data, level);
            })
        })
        .collect()
}

/// The bundled corpus as IR modules and their wire images.
fn wire_corpus() -> (Vec<Module>, Vec<Vec<u8>>) {
    let modules: Vec<Module> = subjects(Scale::CorpusOnly)
        .into_iter()
        .map(|s| s.ir)
        .collect();
    let images = modules.iter().map(encode).collect();
    (modules, images)
}

fn encode(ir: &Module) -> Vec<u8> {
    compress(ir, WireOptions::default())
        .expect("corpus wire-compresses")
        .bytes
}

fn decode(images: &[Vec<u8>]) {
    for img in images {
        decompress(img).expect("decodes");
    }
}

/// Both directions are rated in wire bytes.
fn wire_jobs(out: &mut Out) -> Vec<Job> {
    let (modules, images) = wire_corpus();
    let bytes = images.iter().map(Vec::len).sum::<usize>();
    let text = format!(
        "\"bundled corpus, {} modules, {bytes} wire bytes\"",
        modules.len()
    );
    out.put("wire.payload", text);
    let units = mib(&images);
    let encoding = Job::new("wire.encode", units, move || {
        for ir in &modules {
            encode(ir);
        }
    });
    let mut decoding = Job::new("wire.decode", units, move || decode(&images));
    decoding.collector = true;
    vec![encoding, decoding]
}

fn brisc_jobs(out: &mut Out) -> Vec<Job> {
    let images: Vec<Vec<u8>> = subjects(Scale::CorpusOnly)
        .iter()
        .map(|s| codecomp_bench::brisc(&s.vm).image.to_bytes())
        .collect();
    let loaded: Vec<BriscImage> = images
        .iter()
        .map(|i| BriscImage::from_bytes(i).expect("loads"))
        .collect();
    // Runs every program's `main` to completion; returns the
    // instructions executed.
    let interpret = move || -> u64 {
        let run = |image| {
            let mut m = BriscMachine::new(image, 1 << 22, 1 << 32).expect("machine");
            m.run("main", &[]).expect("corpus runs").instructions
        };
        loaded.iter().map(run).sum()
    };
    let instrs = interpret();
    let bytes = images.iter().map(Vec::len).sum::<usize>();
    let text = format!(
        "\"bundled corpus, {} images, {bytes} image bytes, {instrs} instrs\"",
        images.len()
    );
    out.put("brisc.payload", text);
    let scanned: Vec<(BriscImage, DecodeTables)> = images
        .iter()
        .map(|i| {
            let image = BriscImage::from_bytes(i).expect("loads");
            let tables = DecodeTables::new(&image);
            (image, tables)
        })
        .collect();
    let units = mib(&images);
    let load = Job::new("brisc.load", units, move || {
        for img in &images {
            BriscImage::from_bytes(img).expect("loads");
        }
    });
    let mut interp = Job::new("brisc.interp", instrs as f64 / 1e6, move || {
        interpret();
    });
    interp.unit = "mips";
    // Decodes every item of every function once, in order, as the
    // load-time validation scan does; returns the items decoded.
    let scan = move || -> u64 {
        let scan_one = |(image, tables): &(BriscImage, DecodeTables)| {
            let budget = Budget::default();
            let mut item = ItemBuf::default();
            for f in 0..image.functions.len() {
                image
                    .validate_function(f, tables, &budget, &mut item)
                    .expect("corpus decodes");
            }
            budget.usage().fuel_spent
        };
        scanned.iter().map(scan_one).sum()
    };
    let mut decode = Job::new("brisc.decode", scan() as f64 / 1e6, move || {
        scan();
    });
    decode.unit = "mitems_s";
    // The compressor over the corpus and synth-wcp, in thousands of IR
    // nodes per second (1000 / rate is µs per node).
    let programs: Vec<(usize, VmProgram)> = subjects(Scale::WithSynthetic)
        .into_iter()
        .filter(|s| !matches!(s.name.as_str(), "synth-lcc" | "synth-gcc"))
        .map(|s| (s.ir.node_count(), s.vm))
        .collect();
    let nodes: usize = programs.iter().map(|(n, _)| n).sum();
    out.put(
        "brisc.compress.payload",
        format!(
            "\"bundled corpus + synth-wcp, {} programs, {nodes} IR nodes\"",
            programs.len()
        ),
    );
    let mut compress = Job::new("brisc.compress", nodes as f64 / 1e3, move || {
        for (_, vm) in &programs {
            codecomp_bench::brisc(vm);
        }
    });
    compress.unit = "knodes_s";
    vec![load, interp, decode, compress]
}
