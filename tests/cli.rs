//! End-to-end tests of the `codecomp` command-line tool.

use std::path::PathBuf;
use std::process::Command;

const SOURCE: &str = "
int twice(int x) { return x * 2; }
int main() { print_int(twice(21)); return twice(21); }
";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_code-compression")
}

/// A scratch directory of the test's own: the harness runs tests in
/// parallel and each removes its directory when it ends.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("codecomp-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(args: &[&str], cwd: &PathBuf) -> (String, String, bool) {
    let out = Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn codecomp");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn full_cli_pipeline() {
    let dir = workdir("full_cli_pipeline");
    std::fs::write(dir.join("demo.c"), SOURCE).unwrap();

    // compile -> .ccir
    let (stdout, _, ok) = run(&["compile", "demo.c"], &dir);
    assert!(ok, "compile failed: {stdout}");
    assert!(dir.join("demo.ccir").exists());

    // run each tier from source and from binary IR.
    for tier in ["ir", "vm", "brisc", "jit"] {
        let (stdout, stderr, ok) = run(&["run", "demo.c", "--tier", tier], &dir);
        assert!(ok, "tier {tier} failed: {stderr}");
        assert!(stdout.contains("42\n=> 42"), "tier {tier} output: {stdout}");
    }
    let (stdout, _, ok) = run(&["run", "demo.ccir"], &dir);
    assert!(ok);
    assert!(stdout.contains("=> 42"));

    // wire pack / info / unpack / run.
    let (_, stderr, ok) = run(&["wire", "pack", "demo.c"], &dir);
    assert!(ok, "wire pack failed: {stderr}");
    let (stdout, _, ok) = run(&["wire", "info", "demo.ccwf"], &dir);
    assert!(ok);
    assert!(stdout.contains("$patterns"), "info: {stdout}");
    let (_, _, ok) = run(&["wire", "unpack", "demo.ccwf", "-o", "back.ccir"], &dir);
    assert!(ok);
    let (stdout, _, ok) = run(&["run", "back.ccir"], &dir);
    assert!(ok);
    assert!(stdout.contains("=> 42"));
    let (stdout, _, ok) = run(&["run", "demo.ccwf"], &dir);
    assert!(ok);
    assert!(stdout.contains("=> 42"));

    // brisc pack / info / run.
    let (stdout, stderr, ok) = run(&["brisc", "pack", "demo.c"], &dir);
    assert!(ok, "brisc pack failed: {stderr}");
    assert!(stdout.contains("\ncode: "), "brisc pack: {stdout}");
    assert!(stdout.contains(" passes)\ncandidates: "), "{stdout}");
    assert!(stdout.contains(" tested, "), "{stdout}");
    assert!(stdout.ends_with(" scored\n"), "{stdout}");
    let (stdout, _, ok) = run(&["brisc", "info", "demo.ccbr"], &dir);
    assert!(ok);
    assert!(stdout.contains("dictionary"), "info: {stdout}");
    let (stdout, _, ok) = run(&["brisc", "run", "demo.ccbr"], &dir);
    assert!(ok);
    assert!(stdout.contains("42\n=> 42"), "brisc run: {stdout}");

    // dis shows assembly.
    let (stdout, _, ok) = run(&["dis", "demo.c"], &dir);
    assert!(ok);
    assert!(stdout.contains(".func main"), "dis: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_errors_are_reported() {
    let dir = workdir("cli_errors_are_reported");
    std::fs::write(dir.join("bad.c"), "int main() { return nope(; }").unwrap();
    let (_, stderr, ok) = run(&["run", "bad.c"], &dir);
    assert!(!ok);
    assert!(stderr.contains("codecomp:"), "stderr: {stderr}");

    let (_, _, ok) = run(&["frobnicate"], &dir);
    assert!(!ok);

    let (_, stderr, ok) = run(&["run", "missing.c"], &dir);
    assert!(!ok);
    assert!(!stderr.is_empty());

    let (_, _, ok) = run(&["run", "bad.c", "--tier", "warp"], &dir);
    assert!(!ok);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_size_suffixes_and_decode_limits() {
    let dir = workdir("cli_size_suffixes_and_decode_limits");
    std::fs::write(dir.join("sizes.c"), SOURCE).unwrap();

    // --fuel accepts human-readable suffixes.
    let (stdout, stderr, ok) = run(&["run", "sizes.c", "--fuel", "64k"], &dir);
    assert!(ok, "suffixed --fuel failed: {stderr}");
    assert!(stdout.contains("=> 42"), "{stdout}");
    let (stdout, _, ok) = run(&["run", "sizes.c", "--fuel", "1m"], &dir);
    assert!(ok);
    assert!(stdout.contains("=> 42"), "{stdout}");

    // Unknown suffixes and junk are rejected with a clear message.
    let (_, stderr, ok) = run(&["run", "sizes.c", "--fuel", "12q"], &dir);
    assert!(!ok);
    assert!(stderr.contains("suffix"), "{stderr}");
    let (_, stderr, ok) = run(&["run", "sizes.c", "--max-output", "lots"], &dir);
    assert!(!ok);
    assert!(stderr.contains("size"), "{stderr}");

    // A starved --max-output trips as a limit on compressed inputs; a
    // generous one succeeds.
    let (_, stderr, ok) = run(&["wire", "pack", "sizes.c"], &dir);
    assert!(ok, "wire pack failed: {stderr}");
    let (_, stderr, ok) = run(&["run", "sizes.ccwf", "--max-output", "2"], &dir);
    assert!(!ok);
    assert!(stderr.contains("limit"), "{stderr}");
    let (stdout, stderr, ok) = run(&["run", "sizes.ccwf", "--max-output", "1m"], &dir);
    assert!(ok, "generous --max-output failed: {stderr}");
    assert!(stdout.contains("=> 42"), "{stdout}");

    // Same for BRISC images, including --max-resident passthrough.
    let (_, stderr, ok) = run(&["brisc", "pack", "sizes.c"], &dir);
    assert!(ok, "brisc pack failed: {stderr}");
    let (_, stderr, ok) = run(&["brisc", "run", "sizes.ccbr", "--max-output", "2"], &dir);
    assert!(!ok);
    assert!(stderr.contains("limit"), "{stderr}");
    let (stdout, stderr, ok) = run(
        &["run", "sizes.ccbr", "--max-output", "1m", "--max-resident", "2g"],
        &dir,
    );
    assert!(ok, "generous brisc limits failed: {stderr}");
    assert!(stdout.contains("=> 42"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_program_arguments() {
    let dir = workdir("cli_program_arguments");
    std::fs::write(
        dir.join("args.c"),
        "int main(int a, int b) { return a * b; }",
    )
    .unwrap();
    let (stdout, _, ok) = run(&["run", "args.c", "--", "6", "7"], &dir);
    assert!(ok);
    assert!(stdout.contains("=> 42"), "{stdout}");
    let (_, stderr, ok) = run(&["run", "args.c", "--", "six"], &dir);
    assert!(!ok);
    assert!(stderr.contains("integers"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn piped_stdout_closed_early_is_not_an_error() {
    use std::io::Read;
    use std::process::Stdio;
    let dir = workdir("piped_stdout_closed_early_is_not_an_error");
    // Enough functions that the `dis` listing far exceeds the OS pipe
    // buffer, so closing the read end mid-stream raises EPIPE in the
    // writer instead of the whole stream fitting in the buffer.
    let mut src = String::new();
    for i in 0..900 {
        src.push_str(&format!("int f{i}(int x) {{ return x + {i}; }}\n"));
    }
    src.push_str("int main() { return f1(41); }\n");
    std::fs::write(dir.join("big.c"), src).unwrap();

    let mut child = Command::new(bin())
        .args(["dis", "big.c"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn codecomp");
    // The `codecomp dis big.c | head -c 256` analogue: take a few
    // bytes, then close the pipe with most of the stream unread.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 256];
    stdout.read_exact(&mut head).expect("read leading output");
    drop(stdout);
    let status = child.wait().expect("wait for codecomp");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "closed pipe failed the command: {stderr}");
    assert!(!stderr.contains("panic"), "panicked on closed pipe: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_telemetry_flags() {
    let dir = workdir("cli_telemetry_flags");
    std::fs::write(dir.join("tele.c"), SOURCE).unwrap();

    // --stats: the per-stream table's total row equals the bytes
    // actually written to disk.
    let (stdout, stderr, ok) = run(&["wire", "pack", "tele.c", "--stats"], &dir);
    assert!(ok, "wire pack --stats failed: {stderr}");
    assert!(stderr.contains("per-stage stream breakdown"), "{stderr}");
    assert!(!stderr.contains("WARNING"), "sections must sum: {stderr}");
    let on_disk = std::fs::metadata(dir.join("tele.ccwf")).unwrap().len();
    assert!(stdout.contains(&format!("({on_disk} bytes)")), "{stdout}");
    let total = stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("total")?.trim().parse::<u64>().ok())
        .expect("stats table has a total row");
    assert_eq!(total, on_disk, "--stats total must equal the image size");

    // Decode-side --stats: unpack prints the decoder's reset-and-set
    // stream table plus the decode counters.
    let (_, stderr, ok) = run(
        &["wire", "unpack", "tele.ccwf", "-o", "tele-back.ccir", "--stats"],
        &dir,
    );
    assert!(ok, "wire unpack --stats failed: {stderr}");
    assert!(
        stderr.contains("per-stage stream breakdown (decode)"),
        "{stderr}"
    );
    assert!(!stderr.contains("WARNING"), "decode sections must sum: {stderr}");
    assert!(
        stderr.contains("wire.decode.symbols"),
        "decode counters missing from --stats: {stderr}"
    );

    // --metrics=PATH dumps a registry snapshot holding the same total.
    let (_, stderr, ok) = run(
        &["wire", "pack", "tele.c", "--metrics=metrics.json"],
        &dir,
    );
    assert!(ok, "{stderr}");
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
    assert!(
        metrics.contains(&format!("\"wire.encode.total_bytes\":{on_disk}")),
        "{metrics}"
    );
    // --metrics alone dumps to stdout.
    let (stdout, _, ok) = run(&["wire", "pack", "tele.c", "--metrics"], &dir);
    assert!(ok);
    assert!(stdout.contains("\"counters\""), "{stdout}");

    // --trace=PATH writes JSON lines that our own validator accepts.
    let (_, stderr, ok) = run(
        &["run", "tele.ccwf", "--trace=trace.jsonl"],
        &dir,
    );
    assert!(ok, "{stderr}");
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    assert!(trace.lines().count() >= 2, "trace too small: {trace}");
    assert!(trace.contains("wire.decompress"), "{trace}");
    let (stdout, stderr, ok) = run(&["telemetry", "check", "trace.jsonl"], &dir);
    assert!(ok, "telemetry check failed: {stderr}");
    assert!(stdout.contains("trace lines ok"), "{stdout}");

    // Multiple trace files in one invocation, reported per file.
    let (stdout, stderr, ok) = run(
        &["telemetry", "check", "trace.jsonl", "trace.jsonl"],
        &dir,
    );
    assert!(ok, "multi-file telemetry check failed: {stderr}");
    assert_eq!(stdout.matches("trace lines ok").count(), 2, "{stdout}");

    // The checker rejects a corrupted trace with a line number.
    std::fs::write(dir.join("bad.jsonl"), "{\"t\":1}\n").unwrap();
    let (_, stderr, ok) = run(&["telemetry", "check", "bad.jsonl"], &dir);
    assert!(!ok);
    assert!(stderr.contains("bad.jsonl:1"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_stage_times_and_profile() {
    let dir = workdir("cli_stage_times_and_profile");
    std::fs::write(dir.join("x.c"), SOURCE).unwrap();
    let (_, stderr, ok) = run(&["wire", "pack", "x.c"], &dir);
    assert!(ok, "{stderr}");

    // `run --stats` prints the stage marker's table: one row per decode
    // stage, with inclusive and self time.
    let (stdout, stderr, ok) = run(&["run", "x.ccwf", "--stats"], &dir);
    assert!(ok, "run --stats failed: {stderr}");
    assert!(stdout.contains("42"), "{stdout}");
    assert!(stderr.contains("stage times"), "{stderr}");
    for stage in ["wire.decompress", "wire.decode.join", "wire.decode.inflate"] {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(stage)),
            "no {stage} row in --stats: {stderr}"
        );
    }

    // `profile` works on the default build: collapsed stacks of self
    // nanoseconds, rooted at the profiled subcommand.
    let (stdout, stderr, ok) = run(
        &[
            "profile", "--out", "x.folded", "--passes", "3", "wire", "unpack", "x.ccwf", "-o",
            "x.ccir",
        ],
        &dir,
    );
    assert!(ok, "profile failed: {stderr}");
    assert!(stdout.contains("wrote profile: x.folded"), "{stdout}");
    let folded = std::fs::read_to_string(dir.join("x.folded")).unwrap();
    assert!(
        folded.lines().all(|l| l.starts_with("cmd.wire")),
        "{folded}"
    );
    assert!(
        folded.contains("cmd.wire;wire.decompress;wire.decode.join "),
        "{folded}"
    );
    let (stdout, stderr, ok) = run(&["telemetry", "check", "--collapsed", "x.folded"], &dir);
    assert!(ok, "collapsed check failed: {stderr}");
    assert!(stdout.contains("collapsed lines ok"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
