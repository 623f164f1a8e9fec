//! `codecomp` — the command-line face of the code-compression toolkit.
//!
//! ```text
//! codecomp compile <src.c> [-o out.ccir]     compile mini-C to binary IR
//! codecomp dis <src.c|.ccir>                 show the OmniVM assembly
//! codecomp run <file> [--tier T] [-- args]   execute (ir|vm|brisc|jit)
//! codecomp wire pack <src.c|.ccir> [-o F]    produce a wire image (.ccwf)
//! codecomp wire unpack <in.ccwf> [-o F]      recover the binary IR
//! codecomp wire info <in.ccwf>               per-section byte accounting
//! codecomp brisc pack <src.c|.ccir> [-o F]   produce a BRISC image (.ccbr)
//! codecomp brisc run <in.ccbr> [-- args]     interpret the image in place
//! codecomp brisc info <in.ccbr>              dictionary / model statistics
//! codecomp fuzz [--target T] [--cases N]     coverage-guided fuzzing campaign
//! codecomp profile <subcommand...>           collapsed-stack self-profile of a command
//! codecomp serve-sim [--clients N] [...]     demand-paging server soak simulation
//! ```

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::translate;
use code_compression::brisc::{compress as brisc_compress, BriscImage, BriscOptions};
use code_compression::core::fuzz::{
    default_dictionary, run_blind_schedule, run_campaign, union_edges, CampaignReport, FindingKind,
    FuzzConfig, Verdict,
};
use code_compression::core::{coverage, Budget, DecodeLimits};
use code_compression::corpus::{benchmarks, synthetic_modules, Benchmark, MultiModuleConfig};
use code_compression::flate::{gzip_compress, gzip_decompress_budgeted, CompressionLevel};
use code_compression::front::compile;
use code_compression::ir::binary::{decode_module, encode_module};
use code_compression::ir::eval::Evaluator;
use code_compression::ir::Module;
use code_compression::core::telemetry::reconcile::reconcile;
use code_compression::serve::soak::{
    channel_mix, corrupt_units, run_soak_observed, ChannelKind, SoakConfig, SoakObserver,
};
use code_compression::serve::MILLI;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::core::telemetry;
use code_compression::wire::{
    compress as wire_compress, decompress, decompress_budgeted, DemandImage, WireOptions,
};
use std::process::ExitCode;
use std::sync::Arc;

const MEM: u32 = 1 << 24;
const FUEL: u64 = 1 << 40;

/// Stdout handle that treats a closed pipe as success, so info
/// commands piped into `head` exit cleanly instead of panicking with
/// "failed printing to stdout: Broken pipe". Any other I/O error still
/// surfaces.
struct PipeSafeStdout;

impl std::io::Write for PipeSafeStdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match std::io::stdout().write(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(buf.len()),
            other => other,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match std::io::stdout().flush() {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
            other => other,
        }
    }
}

/// `print!` to [`PipeSafeStdout`]; propagates non-pipe I/O errors.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        write!(PipeSafeStdout, $($arg)*)
    }};
}

/// `println!` to [`PipeSafeStdout`]; propagates non-pipe I/O errors.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        writeln!(PipeSafeStdout, $($arg)*)
    }};
}

/// Telemetry surfacing requested on the command line.
struct TelemetryFlags {
    /// `--stats`: print the stream breakdown and stage-time tables.
    stats: bool,
    /// `--metrics` (stdout) or `--metrics=PATH` (file): registry dump.
    metrics: Option<Option<String>>,
    /// `--trace=PATH`: structured JSON-lines trace.
    trace: Option<String>,
}

impl TelemetryFlags {
    fn any(&self) -> bool {
        self.stats || self.metrics.is_some() || self.trace.is_some()
    }
}

/// Strips the global telemetry flags out of `args` (they are accepted
/// anywhere before `--`) and returns what they asked for.
fn extract_telemetry(args: &mut Vec<String>) -> Result<TelemetryFlags, AnyError> {
    let mut t = TelemetryFlags {
        stats: false,
        metrics: None,
        trace: None,
    };
    let mut kept = Vec::new();
    let mut it = std::mem::take(args).into_iter();
    while let Some(a) = it.next() {
        if a == "--stats" {
            t.stats = true;
        } else if a == "--metrics" {
            t.metrics = Some(None);
        } else if let Some(p) = a.strip_prefix("--metrics=") {
            t.metrics = Some(Some(p.to_string()));
        } else if a == "--trace" {
            t.trace = Some(it.next().ok_or("--trace needs a path")?);
        } else if let Some(p) = a.strip_prefix("--trace=") {
            t.trace = Some(p.to_string());
        } else if a == "--" {
            kept.push(a);
            kept.extend(it);
            break;
        } else {
            kept.push(a);
        }
    }
    *args = kept;
    Ok(t)
}

/// Installs the process-wide collector the flags ask for.
fn install_telemetry(t: &TelemetryFlags) -> Result<(), AnyError> {
    if !t.any() {
        return Ok(());
    }
    let collector = match &t.trace {
        Some(path) => {
            let sink = telemetry::JsonLinesSink::create(path)
                .map_err(|e| format!("--trace: cannot open {path:?}: {e}"))?;
            telemetry::Collector::with_trace(Arc::new(sink))
        }
        None => telemetry::Collector::metrics_only(),
    };
    telemetry::install(collector);
    Ok(())
}

/// Emits whatever the telemetry flags asked for after the command ran.
fn report_telemetry(t: &TelemetryFlags) -> Result<(), AnyError> {
    let Some(collector) = telemetry::collector() else {
        return Ok(());
    };
    let snap = collector.metrics.snapshot();
    if t.stats {
        print_stats(&snap);
    }
    match &t.metrics {
        Some(Some(path)) => {
            std::fs::write(path, snap.to_json() + "\n")?;
            eprintln!("wrote metrics: {path}");
        }
        Some(None) => outln!("{}", snap.to_json())?,
        None => {}
    }
    Ok(())
}

/// The `--stats` table: the paper's per-stream byte breakdown, read
/// back from the wire encoder's (and, after an unpack, the decoder's)
/// reset-and-set gauges. The rows sum exactly to the wire-module size.
fn print_stats(snap: &telemetry::Snapshot) {
    let encoded = print_stream_table(snap, "encode");
    let decoded = print_stream_table(snap, "decode");
    if !encoded && !decoded {
        eprintln!("per-stage stream breakdown:");
        eprintln!("  (no wire activity in this run)");
    }
    print_stage_counters(snap);
    print_stage_times();
}

/// Inclusive and self time of every stage the run entered, from the
/// stage marker's collapsed stacks. Self times sum to the whole;
/// inclusive times overlap where stages nest (`table_build` inside
/// `indices`, every decode stage inside `wire.decompress`).
fn print_stage_times() {
    let stacks = telemetry::collapsed_stacks();
    let mut rows: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    let mut total = 0u64;
    for (stack, ns) in &stacks {
        let frames: Vec<&str> = stack.split(';').collect();
        for (i, frame) in frames.iter().enumerate() {
            if !frames[..i].contains(frame) {
                rows.entry(frame).or_default().0 += ns;
            }
        }
        if let Some(leaf) = frames.last() {
            rows.entry(leaf).or_default().1 += ns;
        }
        total += ns;
    }
    if rows.is_empty() {
        return;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|&(_, (inclusive, _))| std::cmp::Reverse(inclusive));
    let us = |ns: u64| ns as f64 / 1e3;
    eprintln!("stage times (us):");
    eprintln!("  {:>24} {:>12} {:>12}", "stage", "inclusive", "self");
    for (name, (inclusive, own)) in rows {
        eprintln!("  {name:>24} {:>12.1} {:>12.1}", us(inclusive), us(own));
    }
    eprintln!("  {:>24} {:>12} {:>12.1}", "sum of self", "", us(total));
}

/// One direction of the stream table (`dir` is `"encode"` or
/// `"decode"`); returns whether any rows existed.
fn print_stream_table(snap: &telemetry::Snapshot, dir: &str) -> bool {
    let prefix = format!("wire.{dir}.section_bytes.");
    let mut sum = 0u64;
    let mut rows = Vec::new();
    for (name, bytes) in &snap.gauges {
        if *bytes == 0 {
            continue; // zeroed leftovers from an earlier module
        }
        if let Some(key) = name.strip_prefix(&prefix) {
            let symbols = snap.gauge(&format!("wire.{dir}.section_symbols.{key}"));
            rows.push((key.to_string(), *bytes, symbols));
            sum += bytes;
        }
    }
    if rows.is_empty() {
        return false;
    }
    eprintln!("per-stage stream breakdown ({dir}):");
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    eprintln!("  {:>12} {:>10} {:>10}", "stream", "bytes", "symbols");
    for (key, bytes, symbols) in &rows {
        match symbols {
            Some(s) => eprintln!("  {key:>12} {bytes:>10} {s:>10}"),
            None => eprintln!("  {key:>12} {bytes:>10} {:>10}", "-"),
        }
    }
    let container = snap
        .gauge(&format!("wire.{dir}.container_bytes"))
        .unwrap_or(0);
    sum += container;
    eprintln!("  {:>12} {container:>10}", "container");
    eprintln!("  {:>12} {sum:>10}", "total");
    if let Some(total) = snap.gauge(&format!("wire.{dir}.total_bytes")) {
        if total != sum {
            eprintln!("  WARNING: section sum {sum} != {dir} total {total}");
        }
    }
    true
}

/// Compact per-stage counter summary below the stream table.
fn print_stage_counters(snap: &telemetry::Snapshot) {
    let interesting = [
        "front.tokens",
        "front.decls",
        "ir.nodes.arith",
        "vm.codegen.instrs",
        "coding.huffman.bits_emitted",
        "coding.mtf.hits",
        "coding.mtf.misses",
        "flate.inflate.output_bytes",
        "flate.deflate.input_bytes",
        "wire.encode.symbols",
        "wire.decode.symbols",
        "brisc.interp.dispatches",
        "brisc.interp.fuel_consumed",
        "serve.requests",
        "serve.delivered",
        "serve.failed",
        "serve.retries",
        "serve.shed",
        "serve.timeouts",
        "serve.corrupt_deliveries",
        "serve.source_corrupt",
        "serve.breaker.opens",
        "serve.breaker.rejects",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.raw_fallbacks",
        "serve.channel.faults",
    ];
    let mut any = false;
    for name in interesting {
        if let Some(v) = snap.counter(name) {
            if !any {
                eprintln!("stage counters:");
                any = true;
            }
            eprintln!("  {name:>28}: {v}");
        }
    }
}

/// Flushes the buffered `--trace=PATH` writer on every exit path —
/// normal return, `?`-error unwinding out of `dispatch`, and panics
/// (the binary unwinds) — so truncated runs still leave a parseable
/// JSON-lines trace. The global collector is a `'static` that is never
/// dropped; without this guard a buffered tail would simply be lost.
struct TraceFlushGuard;

impl Drop for TraceFlushGuard {
    fn drop(&mut self) {
        telemetry::flush_trace();
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = || -> Result<ExitCode, AnyError> {
        let tflags = extract_telemetry(&mut args)?;
        install_telemetry(&tflags)?;
        let _flush = TraceFlushGuard;
        let code = dispatch(&args)?;
        report_telemetry(&tflags)?;
        Ok(code)
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("codecomp: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn dispatch(args: &[String]) -> Result<ExitCode, AnyError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("compile") => cmd_compile(&args[1..]),
        Some("dis") => cmd_dis(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("wire") => match it.next() {
            Some("pack") => cmd_wire_pack(&args[2..]),
            Some("unpack") => cmd_wire_unpack(&args[2..]),
            Some("info") => cmd_wire_info(&args[2..]),
            _ => usage(),
        },
        Some("brisc") => match it.next() {
            Some("pack") => cmd_brisc_pack(&args[2..]),
            Some("run") => cmd_brisc_run(&args[2..]),
            Some("info") => cmd_brisc_info(&args[2..]),
            _ => usage(),
        },
        Some("telemetry") => match it.next() {
            Some("check") => cmd_telemetry_check(&args[2..]),
            _ => usage(),
        },
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => usage(),
        Some(other) => Err(format!("unknown command {other:?} (try `codecomp help`)").into()),
    }
}

fn usage() -> Result<ExitCode, AnyError> {
    eprintln!(
        "usage:
  codecomp compile <src.c> [-o out.ccir]
  codecomp dis <src.c|.ccir>
  codecomp run <src.c|.ccir|.ccwf|.ccbr> [--tier ir|vm|brisc|jit]
               [--fuel N] [--max-output N] [--max-resident N] [-- args...]
  codecomp wire pack <src.c|.ccir> [-o out.ccwf]
  codecomp wire unpack <in.ccwf> [-o out.ccir]
  codecomp wire info <in.ccwf>
  codecomp brisc pack <src.c|.ccir> [-o out.ccbr]
  codecomp brisc run <in.ccbr> [--fuel N] [--max-output N] [-- args...]
  codecomp brisc info <in.ccbr>
  codecomp telemetry check [--trace|--stream|--collapsed] <file.jsonl>...
  codecomp fuzz [--target wire|gzip|demand|brisc|all] [--cases N] [--seed N]
                [--rounds N] [--blind] [--max-input N] [--save-repros]
  codecomp profile [--out PATH] [--passes N] <subcommand...>
  codecomp serve-sim [<src.c|.ccir>] [--clients N] [--requests N] [--seed N]
                     [--fault-rate N|N/D] [--corrupt N] [--workers N]
                     [--cache SIZE] [--channels modem,lan,disk]
                     [--metrics-interval MS] [--metrics-stream PATH]

global telemetry flags (any command, before `--`):
  --stats              stream breakdown and stage-time tables (stderr)
  --metrics[=PATH]     metrics-registry JSON dump (stdout, or PATH)
  --trace=PATH         structured JSON-lines trace

sizes accept k/m/g suffixes: --fuel 64k, --max-output 1m, --max-resident 2g"
    );
    Ok(ExitCode::FAILURE)
}

/// Parses a size with an optional `k`/`m`/`g` suffix (`64k`, `1m`, `2g`).
fn parse_size(flag: &str, s: &str) -> Result<u64, AnyError> {
    let (digits, mult) = match s.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let mult: u64 = match c.to_ascii_lowercase() {
                'k' => 1 << 10,
                'm' => 1 << 20,
                'g' => 1 << 30,
                _ => return Err(format!("{flag}: unknown size suffix {c:?} (use k/m/g)").into()),
            };
            (&s[..i], mult)
        }
        _ => (s, 1),
    };
    let n = digits
        .parse::<u64>()
        .map_err(|_| format!("{flag} expects a size like 500, 64k, 1m or 2g, got {s:?}"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("{flag}: size {s:?} overflows").into())
}

/// Splits `args` into (positional, -o value, --tier value, trailing args).
struct Parsed<'a> {
    positional: Vec<&'a str>,
    output: Option<&'a str>,
    tier: Option<&'a str>,
    fuel: Option<u64>,
    max_output: Option<u64>,
    max_resident: Option<u64>,
    trailing: Vec<i64>,
}

impl Parsed<'_> {
    /// The decode limits the command line asked for (defaults elsewhere).
    fn decode_limits(&self) -> DecodeLimits {
        let mut limits = DecodeLimits::default();
        if let Some(o) = self.max_output {
            limits.max_output_bytes = o;
        }
        if let Some(r) = self.max_resident {
            limits.max_resident_bytes = r;
        }
        limits
    }
}

fn parse(args: &[String]) -> Result<Parsed<'_>, AnyError> {
    let mut p = Parsed {
        positional: Vec::new(),
        output: None,
        tier: None,
        fuel: None,
        max_output: None,
        max_resident: None,
        trailing: Vec::new(),
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(a) = it.next() {
        match a {
            "-o" => p.output = Some(it.next().ok_or("-o needs a path")?),
            "--tier" => p.tier = Some(it.next().ok_or("--tier needs a value")?),
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a value")?;
                p.fuel = Some(parse_size("--fuel", v)?);
            }
            "--max-output" => {
                let v = it.next().ok_or("--max-output needs a value")?;
                p.max_output = Some(parse_size("--max-output", v)?);
            }
            "--max-resident" => {
                let v = it.next().ok_or("--max-resident needs a value")?;
                p.max_resident = Some(parse_size("--max-resident", v)?);
            }
            "--" => {
                for t in it.by_ref() {
                    p.trailing.push(
                        t.parse::<i64>().map_err(|_| {
                            format!("program arguments must be integers, got {t:?}")
                        })?,
                    );
                }
            }
            other => p.positional.push(other),
        }
    }
    Ok(p)
}

/// Loads a module from a `.c` source or `.ccir` binary file.
fn load_module(path: &str) -> Result<Module, AnyError> {
    if path.ends_with(".ccir") {
        let bytes = std::fs::read(path)?;
        return Ok(decode_module(&bytes)?);
    }
    let source = std::fs::read_to_string(path)?;
    Ok(compile(&source)?)
}

fn write_output(path: &str, bytes: &[u8], kind: &str) -> Result<(), AnyError> {
    std::fs::write(path, bytes)?;
    outln!("wrote {kind}: {path} ({} bytes)", bytes.len())?;
    Ok(())
}

fn replace_ext(path: &str, ext: &str) -> String {
    let stem = path.rsplit_once('.').map_or(path, |(s, _)| s);
    format!("{stem}.{ext}")
}

fn cmd_compile(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let module = load_module(input)?;
    let bytes = encode_module(&module)?;
    let out = p
        .output
        .map(str::to_string)
        .unwrap_or_else(|| replace_ext(input, "ccir"));
    write_output(&out, &bytes, "binary IR")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_dis(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let module = load_module(input)?;
    let vm = compile_module(&module, IsaConfig::full())?;
    // Tolerate a closed pipe (`codecomp dis … | head`).
    out!("{vm}")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let tier = p.tier.unwrap_or("vm");

    // Compressed images run directly, under the requested decode limits.
    let fuel = p.fuel.unwrap_or(FUEL);
    let limits = p.decode_limits();
    if input.ends_with(".ccbr") {
        return run_brisc_image(input, &p.trailing, fuel, limits);
    }
    if input.ends_with(".ccwf") {
        let bytes = std::fs::read(input)?;
        let budget = Budget::new(limits);
        let module = decompress_budgeted(&bytes, &budget)?;
        budget.publish_telemetry();
        return finish(run_module(&module, tier, &p.trailing, fuel)?);
    }
    let module = load_module(input)?;
    finish(run_module(&module, tier, &p.trailing, fuel)?)
}

/// Runs a module under the requested tier; returns (value, output).
fn run_module(module: &Module, tier: &str, args: &[i64], fuel: u64) -> Result<(i64, Vec<u8>), AnyError> {
    match tier {
        "ir" => {
            let out = Evaluator::new(module, MEM, fuel)?.run("main", args)?;
            Ok((out.value, out.output))
        }
        "vm" => {
            let vm = compile_module(module, IsaConfig::full())?;
            let out = Machine::new(&vm, MEM, fuel)?.run("main", args)?;
            Ok((out.value, out.output))
        }
        "brisc" => {
            let vm = compile_module(module, IsaConfig::full())?;
            let report = brisc_compress(&vm, BriscOptions::default())?;
            let out = BriscMachine::new(&report.image, MEM, fuel)?.run("main", args)?;
            Ok((out.value, out.output))
        }
        "jit" => {
            let vm = compile_module(module, IsaConfig::full())?;
            let report = brisc_compress(&vm, BriscOptions::default())?;
            let fast = translate(&report.image)?;
            let out = Machine::new(&fast, MEM, fuel)?.run("main", args)?;
            Ok((out.value, out.output))
        }
        other => Err(format!("unknown tier {other:?} (ir|vm|brisc|jit)").into()),
    }
}

fn finish((value, output): (i64, Vec<u8>)) -> Result<ExitCode, AnyError> {
    out!("{}", String::from_utf8_lossy(&output))?;
    outln!("=> {value}")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_wire_pack(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let module = load_module(input)?;
    let packed = wire_compress(&module, WireOptions::default())?;
    let raw = encode_module(&module)?;
    let out = p
        .output
        .map(str::to_string)
        .unwrap_or_else(|| replace_ext(input, "ccwf"));
    write_output(&out, &packed.bytes, "wire image")?;
    outln!(
        "uncompressed tree code: {} bytes ({:.2}x)",
        raw.len(),
        raw.len() as f64 / packed.total() as f64
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_wire_unpack(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let bytes = std::fs::read(input)?;
    let module = decompress(&bytes)?;
    let out = p
        .output
        .map(str::to_string)
        .unwrap_or_else(|| replace_ext(input, "ccir"));
    write_output(&out, &encode_module(&module)?, "binary IR")?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_wire_info(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let bytes = std::fs::read(input)?;
    let module = decompress(&bytes)?;
    // Re-compress to recover the section accounting.
    let packed = wire_compress(&module, WireOptions::default())?;
    outln!(
        "wire image: {} bytes, {} functions",
        packed.total(),
        module.functions.len()
    )?;
    for (key, size) in &packed.sections {
        outln!("  {key:>12}: {size} bytes")?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_brisc_pack(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let module = load_module(input)?;
    let vm = compile_module(&module, IsaConfig::full())?;
    let report = brisc_compress(&vm, BriscOptions::default())?;
    let out = p
        .output
        .map(str::to_string)
        .unwrap_or_else(|| replace_ext(input, "ccbr"));
    write_output(&out, &report.image.to_bytes(), "brisc image")?;
    outln!(
        "code: {} bytes from {} VM bytes; dictionary {} entries ({} passes)",
        report.image.code_size(),
        report.input_bytes,
        report.dictionary_entries,
        report.passes
    )?;
    outln!(
        "candidates: {} tested, {} scored",
        report.candidates_tested,
        report.candidates_scored
    )?;
    Ok(ExitCode::SUCCESS)
}

fn run_brisc_image(
    path: &str,
    args: &[i64],
    fuel: u64,
    limits: DecodeLimits,
) -> Result<ExitCode, AnyError> {
    let bytes = std::fs::read(path)?;
    let budget = Budget::new(limits);
    let image = BriscImage::from_bytes_budgeted(&bytes, &budget)?;
    budget.publish_telemetry();
    // The governed machine quarantines functions that fail the load
    // scan; execution only fails if it actually reaches one.
    let mut machine = BriscMachine::new_governed(&image, MEM, fuel, limits)?;
    for (name, cause) in machine.quarantined_functions() {
        eprintln!("codecomp: warning: function {name} quarantined: {cause}");
    }
    let out = machine.run("main", args)?;
    out!("{}", String::from_utf8_lossy(&out.output))?;
    outln!("=> {}", out.value)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_brisc_run(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    run_brisc_image(input, &p.trailing, p.fuel.unwrap_or(FUEL), p.decode_limits())
}

fn cmd_telemetry_check(args: &[String]) -> Result<ExitCode, AnyError> {
    // Three line schemas share this checker: trace events (default),
    // delta-encoded metric streams, and collapsed profiler stacks.
    let mut kind = "trace";
    let mut inputs = Vec::new();
    for a in args {
        match a.as_str() {
            "--trace" => kind = "trace",
            "--stream" => kind = "stream",
            "--collapsed" => kind = "collapsed",
            other if other.starts_with('-') => {
                return Err(format!("telemetry check: unknown flag {other:?}").into());
            }
            other => inputs.push(other),
        }
    }
    if inputs.is_empty() {
        return usage();
    }
    let validate: fn(&str) -> Result<(), String> = match kind {
        "stream" => telemetry::stream::validate_stream_line,
        "collapsed" => telemetry::validate_collapsed_line,
        _ => telemetry::validate_trace_line,
    };
    for input in &inputs {
        let text = std::fs::read_to_string(input)?;
        let mut checked = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            validate(line).map_err(|e| format!("{input}:{}: {e}", i + 1))?;
            checked += 1;
        }
        outln!("{input}: {checked} {kind} lines ok")?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `codecomp profile <subcommand...>`: runs the subcommand with a
/// metrics collector installed (if no telemetry flag installed one)
/// and writes the stage marker's self nanoseconds per collapsed stack.
fn cmd_profile(args: &[String]) -> Result<ExitCode, AnyError> {
    let mut out_path = "profile.folded".to_string();
    let mut passes: u64 = 1;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().ok_or("--out needs a path")?.clone(),
            "--passes" => {
                let v = it.next().ok_or("--passes needs a value")?;
                passes = parse_size("--passes", v)?.max(1);
            }
            other => {
                rest.push(other.to_string());
                rest.extend(it.by_ref().cloned());
            }
        }
    }
    if rest.is_empty() {
        return usage();
    }
    if rest[0] == "profile" {
        return Err("profile: cannot profile itself".into());
    }
    telemetry::install(telemetry::Collector::metrics_only());
    // The root stage names the profiled subcommand, so multi-command
    // sessions stay distinguishable in the merged flamegraph.
    let name: &'static str = Box::leak(format!("cmd.{}", rest[0]).into_boxed_str());
    let root: &'static telemetry::Stage = Box::leak(Box::new(telemetry::Stage::new(name)));
    let mut code = ExitCode::SUCCESS;
    for _ in 0..passes {
        let _root = root.enter();
        code = dispatch(&rest)?;
    }
    let rendered = telemetry::render_collapsed();
    let self_ns: u64 = telemetry::collapsed_stacks().iter().map(|&(_, n)| n).sum();
    std::fs::write(&out_path, &rendered)?;
    outln!(
        "wrote profile: {out_path} ({} stacks, {self_ns} ns, {passes} pass(es))",
        rendered.lines().count(),
    )?;
    Ok(code)
}

fn cmd_brisc_info(args: &[String]) -> Result<ExitCode, AnyError> {
    let p = parse(args)?;
    let [input] = p.positional[..] else {
        return usage();
    };
    let bytes = std::fs::read(input)?;
    let image = BriscImage::from_bytes(&bytes)?;
    outln!(
        "brisc image: {} bytes total, {} code bytes",
        bytes.len(),
        image.code_size()
    )?;
    outln!(
        "dictionary: {} entries; markov: {} contexts, max {} successors; order-{}",
        image.dictionary.len(),
        image.markov.context_count(),
        image.markov.max_successors(),
        if image.order0 { 0 } else { 1 },
    )?;
    outln!("functions:")?;
    for f in &image.functions {
        outln!(
            "  {:>16}: {} bytes at {:#06x}, frame {}, {} saved regs",
            f.name,
            f.len,
            f.start,
            f.frame_size,
            f.saved_regs.len()
        )?;
    }
    let combined = image.dictionary.iter().filter(|e| e.len() > 1).count();
    outln!("combined patterns: {combined}")?;
    Ok(ExitCode::SUCCESS)
}

/// A fuzz target: feeds one input to a decoder and classifies the result.
type FuzzTarget = Box<dyn FnMut(&[u8]) -> Verdict>;

/// Seed modules for the fuzz corpus: the two smallest benchmarks plus
/// one multi-module synthetic unit, so cross-module idioms (shared
/// preludes, deep expression spines) are represented in every seed set.
fn fuzz_seed_modules() -> Result<Vec<Module>, AnyError> {
    let mut suite = benchmarks();
    suite.sort_by_key(|b| b.source.len());
    let mut modules: Vec<Module> = suite
        .iter()
        .take(2)
        .map(Benchmark::compile)
        .collect::<Result<_, _>>()?;
    let synth = synthetic_modules(
        7,
        MultiModuleConfig {
            modules: 1,
            shared_functions: 3,
            functions_per_module: 4,
            statements_per_function: 3,
            globals: 2,
            max_expr_depth: 3,
        },
    );
    modules.push(compile(&synth[0])?);
    Ok(modules)
}

/// Builds the seed corpus and run closure for one fuzz target.
fn fuzz_target(name: &str, limits: DecodeLimits) -> Result<(Vec<Vec<u8>>, FuzzTarget), AnyError> {
    let modules = fuzz_seed_modules()?;
    match name {
        "wire" => {
            let seeds = modules
                .iter()
                .map(|m| wire_compress(m, WireOptions::default()).map(|p| p.bytes))
                .collect::<Result<Vec<_>, _>>()?;
            let run: FuzzTarget = Box::new(move |bytes| {
                match decompress_budgeted(bytes, &Budget::new(limits)) {
                    Ok(_) => Verdict::Accept,
                    Err(_) => Verdict::Reject,
                }
            });
            Ok((seeds, run))
        }
        "gzip" => {
            let seeds = modules
                .iter()
                .map(|m| Ok(gzip_compress(&encode_module(m)?, CompressionLevel::Best)))
                .collect::<Result<Vec<_>, AnyError>>()?;
            let run: FuzzTarget = Box::new(move |bytes| {
                match gzip_decompress_budgeted(bytes, &Budget::new(limits)) {
                    Ok(out) if out.len() as u64 > limits.max_output_bytes => Verdict::Violation(
                        format!(
                            "gzip output {} bytes exceeds {}-byte ceiling",
                            out.len(),
                            limits.max_output_bytes
                        ),
                    ),
                    Ok(_) => Verdict::Accept,
                    Err(_) => Verdict::Reject,
                }
            });
            Ok((seeds, run))
        }
        "demand" => {
            let seeds = modules
                .iter()
                .map(|m| DemandImage::build(m, WireOptions::default()).map(|i| i.to_bytes()))
                .collect::<Result<Vec<_>, _>>()?;
            let run: FuzzTarget = Box::new(move |bytes| {
                let Ok(image) = DemandImage::from_bytes(bytes) else {
                    return Verdict::Reject;
                };
                match image.load_all_budgeted(&Budget::new(limits)) {
                    Ok(_) => Verdict::Accept,
                    Err(_) => Verdict::Reject,
                }
            });
            Ok((seeds, run))
        }
        "brisc" => {
            let seeds = modules
                .iter()
                .map(|m| -> Result<Vec<u8>, AnyError> {
                    let vm = compile_module(m, IsaConfig::full())?;
                    Ok(brisc_compress(&vm, BriscOptions::default())?.image.to_bytes())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let run: FuzzTarget = Box::new(move |bytes| {
                let budget = Budget::new(limits);
                let Ok(image) = BriscImage::from_bytes_budgeted(bytes, &budget) else {
                    return Verdict::Reject;
                };
                // Execution under a small fuel budget: any run error on a
                // mutated image is acceptable, but it must not panic.
                match BriscMachine::new_governed(&image, 1 << 16, 1 << 14, limits) {
                    Ok(mut machine) => {
                        let _ = machine.run("main", &[]);
                        Verdict::Accept
                    }
                    Err(_) => Verdict::Reject,
                }
            });
            Ok((seeds, run))
        }
        other => Err(format!("fuzz: unknown target {other:?} (wire|gzip|demand|brisc|all)").into()),
    }
}

fn print_fuzz_report(name: &str, blind: bool, r: &CampaignReport) -> Result<(), AnyError> {
    outln!(
        "fuzz {name} ({}): {} cases, {} executions, {} unique edges, \
         corpus {} ({} kept for coverage), {} accept / {} reject, {} findings",
        if blind { "blind" } else { "guided" },
        r.cases,
        r.executions,
        r.unique_edges,
        r.corpus_size,
        r.coverage_inputs,
        r.accepts,
        r.rejects,
        r.findings.len()
    )?;
    for f in &r.findings {
        let what = match &f.kind {
            FindingKind::Panic(msg) => format!("panic: {msg}"),
            FindingKind::Violation(msg) => format!("limit violation: {msg}"),
        };
        outln!("  case {}: {what} ({} byte input)", f.case, f.input.len())?;
    }
    Ok(())
}

/// Persists finding inputs under `tests/regressions/` using the
/// `<target>__<verdict>__<name>.bin` convention the regression harness
/// replays. Findings are recorded as `total` — once the underlying bug
/// is fixed, the decoder must survive the input without panicking,
/// whatever Result it returns.
fn save_reproducers(target: &str, seed: u64, r: &CampaignReport) -> Result<(), AnyError> {
    if r.findings.is_empty() {
        return Ok(());
    }
    let dir = std::path::Path::new("tests/regressions");
    std::fs::create_dir_all(dir)?;
    for f in &r.findings {
        let path = dir.join(format!("{target}__total__seed{seed:x}-case{}.bin", f.case));
        std::fs::write(&path, &f.input)?;
        outln!("  wrote reproducer: {}", path.display())?;
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, AnyError> {
    let mut target = "all";
    let mut cases: u64 = 2000;
    let mut seed: u64 = 1;
    let mut blind = false;
    let mut save_repros = false;
    let mut max_input: usize = 1 << 16;
    let mut rounds: u64 = 1;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--target" => target = it.next().ok_or("--target needs a value")?,
            "--cases" => {
                cases = parse_size("--cases", it.next().ok_or("--cases needs a value")?)?;
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                rounds = v
                    .parse::<u64>()
                    .map_err(|_| format!("--rounds expects an integer, got {v:?}"))?
                    .max(1);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--blind" => blind = true,
            "--save-repros" => save_repros = true,
            "--max-input" => {
                max_input =
                    parse_size("--max-input", it.next().ok_or("--max-input needs a value")?)?
                        as usize;
            }
            other => return Err(format!("fuzz: unknown argument {other:?}").into()),
        }
    }
    if !coverage::enabled() {
        eprintln!(
            "note: built without the `coverage` feature; edge counts read 0 and guided \
             mode degenerates to blind mutation (rebuild with --features coverage)"
        );
    }
    // Per-case budgets small enough that decode bombs are cut off fast.
    let limits = DecodeLimits {
        max_output_bytes: 1 << 22,
        decode_fuel: 1 << 24,
        max_resident_bytes: 1 << 22,
        ..DecodeLimits::default()
    };
    let names: Vec<&str> = if target == "all" {
        vec!["wire", "gzip", "demand", "brisc"]
    } else {
        vec![target]
    };
    let mut findings_total = 0usize;
    for name in names {
        let (seeds, mut run) = fuzz_target(name, limits)?;
        let mut reports = Vec::new();
        for round in 0..rounds {
            let config = FuzzConfig {
                seed: seed + round,
                cases,
                max_input_len: max_input,
                guided: !blind,
                ..FuzzConfig::default()
            };
            let report = if blind {
                run_blind_schedule(&config, &seeds, &mut run)
            } else {
                run_campaign(&config, &seeds, &default_dictionary(), &mut run)
            };
            print_fuzz_report(name, blind, &report)?;
            if save_repros {
                save_reproducers(name, seed + round, &report)?;
            }
            findings_total += report.findings.len();
            reports.push(report);
        }
        if rounds > 1 {
            let maps: Vec<&[u64]> = reports.iter().map(|r| r.edge_map.as_slice()).collect();
            outln!(
                "fuzz {name}: union over {rounds} rounds: {} unique edges",
                union_edges(&maps)
            )?;
        }
    }
    Ok(if findings_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parses a fault rate: `N` means N percent, `N/D` an explicit ratio.
fn parse_ratio(flag: &str, s: &str) -> Result<(u64, u64), AnyError> {
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (n.parse::<u64>(), d.parse::<u64>()),
        None => (s.parse::<u64>(), Ok(100)),
    };
    match (num, den) {
        (Ok(n), Ok(d)) if d > 0 && n <= d => Ok((n, d)),
        _ => Err(format!("{flag} expects N (percent) or N/D with N <= D, got {s:?}").into()),
    }
}

/// Every corpus benchmark merged into one module (names prefixed per
/// benchmark to stay unique) — the default serve-sim workload, a few
/// dozen independently fetchable functions.
fn merged_corpus() -> Result<Module, AnyError> {
    let mut merged = Module::default();
    for b in benchmarks() {
        let module = b.compile()?;
        for mut f in module.functions {
            f.name = format!("{}__{}", b.name, f.name);
            merged.functions.push(f);
        }
        for mut g in module.globals {
            g.name = format!("{}__{}", b.name, g.name);
            merged.globals.push(g);
        }
    }
    Ok(merged)
}

fn cmd_serve_sim(args: &[String]) -> Result<ExitCode, AnyError> {
    let mut cfg = SoakConfig::default();
    let mut corrupt: usize = 0;
    let mut input: Option<&str> = None;
    let mut metrics_interval: Option<u64> = None;
    let mut metrics_stream: Option<&str> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--metrics-interval" => {
                let v = it.next().ok_or("--metrics-interval needs a value (virtual ms)")?;
                metrics_interval = Some(parse_size("--metrics-interval", v)?.max(1));
            }
            "--metrics-stream" => {
                metrics_stream = Some(it.next().ok_or("--metrics-stream needs a path")?);
            }
            "--clients" => {
                let v = it.next().ok_or("--clients needs a value")?;
                cfg.clients = parse_size("--clients", v)? as usize;
            }
            "--requests" => {
                let v = it.next().ok_or("--requests needs a value")?;
                cfg.requests_per_client = parse_size("--requests", v)?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--fault-rate" => {
                let v = it.next().ok_or("--fault-rate needs a value")?;
                (cfg.fault_num, cfg.fault_den) = parse_ratio("--fault-rate", v)?;
            }
            "--corrupt" => {
                let v = it.next().ok_or("--corrupt needs a value")?;
                corrupt = v
                    .parse::<usize>()
                    .map_err(|_| format!("--corrupt expects an integer, got {v:?}"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                cfg.workers = v
                    .parse::<usize>()
                    .map_err(|_| format!("--workers expects an integer, got {v:?}"))?
                    .max(1);
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a value")?;
                cfg.server.max_cache_bytes = parse_size("--cache", v)?;
            }
            "--channels" => {
                let v = it.next().ok_or("--channels needs a value")?;
                cfg.channels = v
                    .split(',')
                    .map(|s| match s.trim() {
                        "modem" => Ok(ChannelKind::Modem),
                        "lan" => Ok(ChannelKind::Lan),
                        "disk" => Ok(ChannelKind::Disk),
                        other => {
                            Err(format!("--channels: unknown channel {other:?} (modem|lan|disk)"))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other if !other.starts_with('-') && input.is_none() => input = Some(other),
            other => return Err(format!("serve-sim: unknown argument {other:?}").into()),
        }
    }

    let module = match input {
        Some(path) => load_module(path)?,
        None => merged_corpus()?,
    };
    let image = DemandImage::build(&module, WireOptions::default())?;
    let (image, injected) = if corrupt > 0 {
        corrupt_units(&image, corrupt, cfg.seed ^ 0x0bad_5eed)
    } else {
        (image, Vec::new())
    };

    outln!(
        "serve-sim: {} functions, {} unit bytes, {} clients x {} requests, fault rate {}/{}",
        image.names().count(),
        image.total_units(),
        cfg.clients,
        cfg.requests_per_client,
        cfg.fault_num,
        cfg.fault_den,
    )?;
    for (name, n) in channel_mix(&cfg) {
        outln!("  {n:>3} clients on {name}")?;
    }
    if !injected.is_empty() {
        outln!("  source-corrupt injected: {}", injected.join(", "))?;
    }

    // With live metrics enabled, the run also collects request-scoped
    // spans and must pass the span ↔ counter reconcile check: the
    // stream is only trustworthy if the two accounting paths agree.
    let mut obs = match metrics_interval {
        Some(ms) => SoakObserver::new().with_metrics_interval(ms * MILLI).with_spans(),
        None => SoakObserver::new(),
    };
    let report = run_soak_observed(&image, &cfg, &mut obs);
    report.publish_telemetry();

    if metrics_interval.is_some() {
        let stream = obs.stream_lines.join("\n") + "\n";
        match metrics_stream {
            Some(path) => {
                std::fs::write(path, &stream)?;
                outln!("wrote metric stream: {path} ({} samples)", obs.stream_lines.len())?;
            }
            None => out!("{stream}")?,
        }
        match reconcile(&obs.spans, &obs.final_snapshot(&report)) {
            Ok(rec) => outln!(
                "reconcile: ok ({} spans, {} requests, {} attempts, {} checks)",
                rec.spans, rec.requests, rec.attempts, rec.checks,
            )?,
            Err(errors) => {
                for e in &errors {
                    eprintln!("reconcile: {e}");
                }
                return Err(format!(
                    "serve-sim: span/counter reconcile failed ({} mismatches)",
                    errors.len()
                )
                .into());
            }
        }
    }

    outln!(
        "soak: {} requests over {:.3} virtual s",
        report.requests,
        report.virtual_duration as f64 / 1e9,
    )?;
    outln!(
        "  delivered {}  failed {}  attempts {}  retries {}  max attempts/request {}",
        report.delivered,
        report.failed,
        report.attempts,
        report.retries,
        report.max_attempts_seen,
    )?;
    outln!(
        "  sheds {}  timeouts {}  corrupt deliveries {}  source-corrupt verdicts {}",
        report.sheds,
        report.timeouts,
        report.corrupt_deliveries,
        report.source_corrupt,
    )?;
    outln!(
        "  breaker: opens {}  half-opens {}  recoveries {}  rejects {}",
        report.breaker_opens,
        report.breaker_half_opens,
        report.breaker_recoveries,
        report.breaker_rejects,
    )?;
    outln!(
        "  quarantine: entered {}  recovered {}  still held {}",
        report.quarantines,
        report.quarantine_recoveries,
        report.quarantined_end,
    )?;
    outln!(
        "  cache: hits {}  misses {}  evictions {}  raw fallbacks {}  peak {} bytes",
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
        report.raw_fallbacks,
        report.peak_cache_bytes,
    )?;
    outln!(
        "  coverage: {}/{} functions delivered",
        report.names_delivered,
        report.names_requested,
    )?;
    if !report.permanently_corrupt.is_empty() {
        outln!("  flagged source-corrupt: {}", report.permanently_corrupt.join(", "))?;
    }

    if report.survived() {
        outln!("serve-sim: survived (no stuck clients, nothing silently undelivered)")?;
        Ok(ExitCode::SUCCESS)
    } else {
        outln!(
            "serve-sim: FAILED (stuck clients {}, undelivered: {})",
            report.stuck_clients,
            report.undelivered.join(", "),
        )?;
        Ok(ExitCode::FAILURE)
    }
}
