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
//! codecomp profile <subcommand...>           collapsed-stack self-profile of a command
//! ```

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::translate;
use code_compression::brisc::{compress as brisc_compress, BriscImage, BriscOptions};
use code_compression::core::bytesio::{decode_module, encode_module};
use code_compression::core::telemetry;
use code_compression::core::{Budget, DecodeLimits};
use code_compression::front::compile;
use code_compression::ir::eval::Evaluator;
use code_compression::ir::Module;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{
    compress as wire_compress, decompress, decompress_budgeted, WireOptions,
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
        Some("profile") => cmd_profile(&args[1..]),
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
  codecomp telemetry check [--trace|--collapsed] <file.jsonl>...
  codecomp profile [--out PATH] [--passes N] <subcommand...>

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
    // Two line schemas share this checker: trace events (default) and
    // collapsed profiler stacks.
    let mut kind = "trace";
    let mut inputs = Vec::new();
    for a in args {
        match a.as_str() {
            "--trace" => kind = "trace",
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

