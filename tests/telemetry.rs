//! Whole-pipeline telemetry integration tests.
//!
//! This binary owns the process-global collector: it installs a
//! ring-buffer trace sink once. The big sequential test then drives
//! every stage — front, wire, flate, vm, brisc, demand loading, limits,
//! fault injection — asserting that the metrics registry and the trace
//! stream describe exactly what happened; the stage-accounting tests
//! check that the stage marker's counters and collapsed stacks agree to
//! the nanosecond. Tests that use the collector hold [`serial`], so
//! their exact-count assertions cannot race. The remaining tests are
//! pure (they build `TraceEvent`s by hand and never touch global state).

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::{compress as brisc_compress, BriscOptions};
use code_compression::core::fault::Mutation;
use code_compression::core::telemetry::{
    self, validate_trace_line, Collector, FieldValue, RingSink, TraceEvent, TraceKind,
};
use code_compression::core::{Budget, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::flate::{deflate_compress, inflate, CompressionLevel};
use code_compression::ir::Module;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{
    compress as wire_compress, decompress_budgeted, Coder, DemandError, DemandImage, DemandLoader,
    WireOptions,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock, PoisonError};

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 32;

/// Held by every test that uses the collector.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The trace ring of the collector, installed on first use.
fn ring() -> Arc<RingSink> {
    static RING: OnceLock<Arc<RingSink>> = OnceLock::new();
    Arc::clone(RING.get_or_init(|| {
        let ring = Arc::new(RingSink::new(65_536));
        assert!(
            telemetry::install(Collector::with_trace(ring.clone())),
            "this binary must be the only installer"
        );
        ring
    }))
}

fn metrics() -> telemetry::Snapshot {
    telemetry::collector()
        .expect("collector installed")
        .metrics
        .snapshot()
}

#[test]
fn whole_pipeline_populates_metrics_and_trace() {
    let _serial = serial();
    let ring = ring();
    assert!(telemetry::enabled());
    // Other tests may have run first: counts are deltas from here, and
    // trace checks look only at records after this marker.
    let start = metrics();
    telemetry::event("test.whole_pipeline", Vec::new());

    // Front + wire encode + budgeted decode over the whole corpus.
    let mut last_total = 0u64;
    let budget = Budget::default();
    for b in benchmarks() {
        let module = b.compile().expect("corpus compiles");
        let packed = wire_compress(&module, WireOptions::default()).expect("wire pack");
        last_total = packed.total() as u64;
        let back = decompress_budgeted(&packed.bytes, &budget).expect("budgeted decode");
        assert_eq!(back, module);
    }
    let snap = metrics();
    let moved = |name: &str| snap.counter(name).unwrap() - start.counter(name).unwrap_or(0);
    assert!(snap.counter("front.tokens").unwrap() > 0);
    assert_eq!(moved("front.modules"), benchmarks().len() as u64);
    assert_eq!(moved("wire.encode.modules"), benchmarks().len() as u64);
    let ir_nodes: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("ir.nodes."))
        .map(|&(_, v)| v)
        .sum();
    assert!(ir_nodes > 0, "operator-class node counts must accumulate");
    assert!(snap.counter("coding.huffman.bits_emitted").unwrap() > 0);
    assert!(snap.counter("coding.mtf.hits").unwrap() > 0);
    assert!(snap.counter("coding.mtf.misses").unwrap() > 0);
    assert!(snap.histogram("coding.mtf.hit_distance").unwrap().count > 0);

    // The --stats contract: per-section byte gauges plus the container
    // gauge sum exactly to the encoded module size (last encode wins
    // the gauges, so compare against the last module packed).
    assert_eq!(snap.gauge("wire.encode.total_bytes").unwrap(), last_total);
    let section_sum: u64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("wire.encode.section_bytes."))
        .map(|&(_, v)| v)
        .sum::<u64>()
        + snap.gauge("wire.encode.container_bytes").unwrap();
    assert_eq!(
        section_sum, last_total,
        "section byte gauges must sum exactly to the wire-module size"
    );

    // Budget gauges mirror the shared meter exactly.
    budget.publish_telemetry();
    let snap = metrics();
    let usage = budget.usage();
    assert_eq!(snap.gauge("limits.fuel_spent").unwrap(), usage.fuel_spent);
    assert_eq!(
        snap.gauge("limits.peak_output_bytes").unwrap(),
        usage.peak_output_bytes
    );

    // Flate: an instrumented deflate/inflate round-trip attributes
    // every output byte.
    let payload: Vec<u8> = benchmarks()
        .iter()
        .flat_map(|b| b.source.as_bytes().iter().copied())
        .collect();
    let before = metrics();
    let compressed = deflate_compress(&payload, CompressionLevel::Best);
    let back = inflate(&compressed).expect("inflates");
    assert_eq!(back, payload);
    let after = metrics();
    assert_eq!(
        after.counter("flate.inflate.output_bytes").unwrap()
            - before.counter("flate.inflate.output_bytes").unwrap_or(0),
        payload.len() as u64
    );
    assert!(after.counter("flate.deflate.match_tokens").unwrap() > 0);
    assert!(after.histogram("flate.deflate.probe_depth").unwrap().count > 0);
    assert!(after.histogram("flate.inflate.match_len").unwrap().count > 0);

    // VM codegen + brisc: dispatch counters match the machine's own
    // instruction accounting exactly.
    let module = benchmarks()[0].compile().expect("compiles");
    let vm = compile_module(&module, IsaConfig::full()).expect("codegen");
    let snap = metrics();
    assert!(snap.counter("vm.codegen.instrs").unwrap() > 0);
    let report = brisc_compress(&vm, BriscOptions::default()).expect("brisc pack");
    let before = metrics();
    let mut machine = BriscMachine::new(&report.image, MEM, FUEL).expect("machine");
    let outcome = machine.run("main", &[]).expect("runs");
    let after = metrics();
    assert_eq!(
        after.counter("brisc.interp.dispatches").unwrap()
            - before.counter("brisc.interp.dispatches").unwrap_or(0),
        outcome.instructions
    );
    assert!(
        after.counter("brisc.interp.fuel_consumed").unwrap()
            > before.counter("brisc.interp.fuel_consumed").unwrap_or(0)
    );
    assert!(after.gauge("brisc.dictionary_entries").unwrap() > 0);

    // Limit trips and fault mutations land in the trace.
    let packed = wire_compress(&module, WireOptions::default()).expect("wire pack");
    let starved = Budget::new(DecodeLimits {
        decode_fuel: 0,
        ..DecodeLimits::default()
    });
    assert!(decompress_budgeted(&packed.bytes, &starved).is_err());
    let _ = Mutation::BitFlip { offset: 0, bit: 3 }.apply(&packed.bytes);

    // Demand-side quarantine events.
    let image = DemandImage::build(&module, WireOptions::default()).expect("demand build");
    let mut loader = DemandLoader::new(
        &image,
        DecodeLimits {
            decode_fuel: 0,
            ..DecodeLimits::default()
        },
    );
    match loader.demand("main") {
        Err(DemandError::Quarantined { .. }) => {}
        other => panic!("starved demand must quarantine, got {other:?}"),
    }

    // Every recorded trace line is schema-valid, and the span/event
    // taxonomy contains what the run just did.
    let mut events = ring.dump();
    let marker = events
        .iter()
        .rposition(|e| e.name == "test.whole_pipeline")
        .expect("the ring holds this test's whole trace");
    events.drain(..=marker);
    assert!(!events.is_empty());
    for e in &events {
        let line = e.to_json_line();
        validate_trace_line(&line).unwrap_or_else(|err| panic!("bad trace line {line:?}: {err}"));
    }
    let has = |kind: TraceKind, name: &str| {
        events.iter().any(|e| e.kind == kind && e.name == name)
    };
    assert!(has(TraceKind::SpanBegin, "front.compile"));
    assert!(has(TraceKind::SpanEnd, "front.compile"));
    assert!(has(TraceKind::SpanBegin, "wire.compress"));
    assert!(has(TraceKind::SpanEnd, "wire.compress"));
    assert!(has(TraceKind::SpanBegin, "wire.decompress"));
    assert!(has(TraceKind::SpanBegin, "brisc.compress"));
    assert!(has(TraceKind::SpanBegin, "brisc.run"));
    assert!(has(TraceKind::Event, "limit.trip"));
    assert!(has(TraceKind::Event, "fault.mutation"));
    assert!(has(TraceKind::Event, "demand.quarantine"));

    // The limit.trip event names the knob that refused.
    let trip = events
        .iter()
        .find(|e| e.name == "limit.trip")
        .expect("trip recorded");
    assert!(trip
        .fields
        .iter()
        .any(|(k, v)| *k == "what" && *v == FieldValue::Str("decode fuel".into())));

    // Span ends carry durations; begins never do.
    for e in &events {
        match e.kind {
            TraceKind::SpanEnd => assert!(e.dur_nanos.is_some(), "{}", e.name),
            _ => assert!(e.dur_nanos.is_none(), "{}", e.name),
        }
    }
}

/// Stage-counter deltas (`*.ns.*`) and collapsed-stack self-time
/// deltas that `work` caused.
fn stage_deltas(work: impl FnOnce()) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let counters = |snap: &telemetry::Snapshot| -> BTreeMap<String, u64> {
        snap.counters
            .iter()
            .filter(|(name, _)| name.contains(".ns."))
            .cloned()
            .collect()
    };
    let stacks =
        || -> BTreeMap<String, u64> { telemetry::collapsed_stacks().into_iter().collect() };
    let (counters_before, stacks_before) = (counters(&metrics()), stacks());
    work();
    let delta = |after: BTreeMap<String, u64>, before: &BTreeMap<String, u64>| {
        after
            .into_iter()
            .map(|(k, v)| {
                let d = v - before.get(&k).copied().unwrap_or(0);
                (k, d)
            })
            .filter(|&(_, d)| d > 0)
            .collect()
    };
    (
        delta(counters(&metrics()), &counters_before),
        delta(stacks(), &stacks_before),
    )
}

/// The stage `a.b.c` counts into `a.b.ns.c`.
fn counter_of(stage: &str) -> String {
    let (head, leaf) = stage.rsplit_once('.').expect("stage names are dotted");
    format!("{head}.ns.{leaf}")
}

/// Every stage's inclusive counter delta equals the self time of all
/// the stacks at or under it, exactly; no stage nests in itself.
fn assert_stages_reconcile(counters: &BTreeMap<String, u64>, stacks: &BTreeMap<String, u64>) {
    let mut subtree: BTreeMap<String, u64> = BTreeMap::new();
    for (stack, ns) in stacks {
        let frames: Vec<&str> = stack.split(';').collect();
        for (i, frame) in frames.iter().enumerate() {
            assert!(
                !frames[..i].contains(frame),
                "{frame} nests in itself: {stack}"
            );
            *subtree.entry(counter_of(frame)).or_default() += ns;
        }
    }
    assert_eq!(counters, &subtree, "stage counters vs collapsed stacks");
}

fn packed_corpus() -> Vec<(Module, Vec<u8>)> {
    benchmarks()
        .iter()
        .map(|b| {
            let module = b.compile().expect("corpus compiles");
            let bytes = wire_compress(&module, WireOptions::default())
                .expect("wire pack")
                .bytes;
            (module, bytes)
        })
        .collect()
}

const DECODE_STAGES: [&str; 6] = [
    "inflate",
    "table_build",
    "mtf",
    "indices",
    "entry_table",
    "join",
];

#[test]
fn stage_self_times_sum_exactly_to_their_parents() {
    let _serial = serial();
    ring();
    for (module, bytes) in packed_corpus() {
        let (counters, stacks) = stage_deltas(|| {
            let back = decompress_budgeted(&bytes, &Budget::default()).expect("decodes");
            assert_eq!(back, module);
        });
        assert_stages_reconcile(&counters, &stacks);
        // The root is the whole decode: its counter is the sum over
        // every stack in the decode's tree.
        assert!(
            stacks.keys().all(|k| k.starts_with("wire.decompress")),
            "{stacks:?}"
        );
        assert_eq!(counters["wire.ns.decompress"], stacks.values().sum::<u64>());
        for stage in DECODE_STAGES {
            let name = format!("wire.decode.ns.{stage}");
            assert!(
                counters.get(&name).is_some_and(|&ns| ns > 0),
                "{name} did not move"
            );
        }
    }
}

#[test]
fn compress_moves_no_decode_counter() {
    let _serial = serial();
    ring();
    let decode_counters = || -> BTreeMap<String, u64> {
        metrics()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("wire.decode."))
            .collect()
    };
    for b in benchmarks() {
        let module = b.compile().expect("corpus compiles");
        let before = decode_counters();
        for options in [
            WireOptions::default(),
            WireOptions {
                coder: Coder::Arithmetic,
                ..WireOptions::default()
            },
        ] {
            wire_compress(&module, options).expect("wire pack");
        }
        assert_eq!(decode_counters(), before, "{}", b.name);
    }
}

const HUNT_PHASES: [&str; 3] = ["generate", "score", "rewrite"];

#[test]
fn hunt_phase_self_times_sum_exactly_to_the_compress_stage() {
    let _serial = serial();
    ring();
    for b in benchmarks() {
        let module = b.compile().expect("corpus compiles");
        let vm = compile_module(&module, IsaConfig::full()).expect("codegen");
        let (counters, stacks) = stage_deltas(|| {
            brisc_compress(&vm, BriscOptions::default()).expect("brisc pack");
        });
        assert_stages_reconcile(&counters, &stacks);
        // The compressor's own self time and one stack per phase, and
        // nothing else, make up its inclusive time.
        let mut expected: Vec<String> = HUNT_PHASES
            .iter()
            .map(|phase| format!("brisc.compress;brisc.compress.{phase}"))
            .collect();
        expected.push("brisc.compress".to_string());
        expected.sort();
        let actual: Vec<&String> = stacks.keys().collect();
        assert_eq!(actual, expected.iter().collect::<Vec<_>>(), "{}", b.name);
        assert_eq!(counters["brisc.ns.compress"], stacks.values().sum::<u64>());
    }
}

#[test]
fn stage_accounting_is_exact_across_threads() {
    let _serial = serial();
    ring();
    let corpus = Arc::new(packed_corpus());
    // All four start together, so their decodes overlap.
    let start = Arc::new(Barrier::new(4));
    let (counters, stacks) = stage_deltas(|| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (corpus, start) = (Arc::clone(&corpus), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for (module, bytes) in corpus.iter() {
                        let back = decompress_budgeted(bytes, &Budget::default()).expect("decodes");
                        assert_eq!(&back, module);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("decoder thread");
        }
    });
    assert_stages_reconcile(&counters, &stacks);
    assert_eq!(counters["wire.ns.decompress"], stacks.values().sum::<u64>());
}

#[test]
fn a_failed_decode_still_closes_its_stages() {
    let _serial = serial();
    ring();
    let (_, bytes) = packed_corpus().swap_remove(0);
    let full = Budget::default();
    decompress_budgeted(&bytes, &full).expect("decodes");
    // Half the fuel a whole decode spends runs out part-way through.
    let starved = Budget::new(DecodeLimits {
        decode_fuel: full.usage().fuel_spent / 2,
        ..DecodeLimits::default()
    });
    let (counters, stacks) = stage_deltas(|| {
        assert!(decompress_budgeted(&bytes, &starved).is_err());
    });
    assert_stages_reconcile(&counters, &stacks);
    assert!(
        stacks.keys().any(|k| k.contains(";wire.decode.")),
        "{stacks:?}"
    );
    assert!(counters["wire.ns.decompress"] > 0, "the root stage closed");

    // Nothing was left open: the next decode's stacks are rooted at its
    // own top-level stage again.
    let (counters, stacks) = stage_deltas(|| {
        decompress_budgeted(&bytes, &Budget::default()).expect("decodes");
    });
    assert_stages_reconcile(&counters, &stacks);
    assert!(
        stacks.keys().all(|k| k.starts_with("wire.decompress")),
        "{stacks:?}"
    );
    assert_eq!(counters["wire.ns.decompress"], stacks.values().sum::<u64>());
}

/// Golden JSON-lines schema: the exact serialized bytes are pinned so
/// external consumers can rely on them PR over PR.
#[test]
fn trace_schema_golden_lines() {
    let span_begin = TraceEvent {
        t_nanos: 12,
        kind: TraceKind::SpanBegin,
        name: "wire.compress".into(),
        dur_nanos: None,
        fields: Vec::new(),
    };
    assert_eq!(
        span_begin.to_json_line(),
        r#"{"t":12,"kind":"span_begin","name":"wire.compress"}"#
    );
    let span_end = TraceEvent {
        t_nanos: 99,
        kind: TraceKind::SpanEnd,
        name: "wire.compress".into(),
        dur_nanos: Some(87),
        fields: Vec::new(),
    };
    assert_eq!(
        span_end.to_json_line(),
        r#"{"t":99,"kind":"span_end","name":"wire.compress","dur":87}"#
    );
    let event = TraceEvent {
        t_nanos: 7,
        kind: TraceKind::Event,
        name: "demand.quarantine".into(),
        dur_nanos: None,
        fields: vec![
            ("function", FieldValue::Str("salt".into())),
            ("fatal", FieldValue::Bool(false)),
            ("bytes", FieldValue::U64(41)),
        ],
    };
    assert_eq!(
        event.to_json_line(),
        r#"{"t":7,"kind":"event","name":"demand.quarantine","fields":{"function":"salt","fatal":false,"bytes":41}}"#
    );
    for e in [&span_begin, &span_end, &event] {
        validate_trace_line(&e.to_json_line()).expect("golden lines validate");
    }
}

#[test]
fn validator_rejects_foreign_lines() {
    for bad in [
        "",
        "not json",
        r#"{"kind":"event","name":"x"}"#,                      // missing t
        r#"{"t":1,"kind":"event"}"#,                           // missing name
        r#"{"t":1,"kind":"event","name":""}"#,                 // empty name
        r#"{"t":1,"kind":"weird","name":"x"}"#,                // bad kind
        r#"{"t":1,"kind":"event","name":"x","dur":5}"#,        // dur on non-end
        r#"{"t":1,"kind":"span_end","name":"x"}"#,             // end without dur
        r#"{"t":1,"kind":"event","name":"x","extra":true}"#,   // unknown key
        r#"{"t":1,"kind":"event","name":"x","fields":[1,2]}"#, // fields not object
    ] {
        assert!(
            validate_trace_line(bad).is_err(),
            "line must be rejected: {bad:?}"
        );
    }
}
