//! No-collector zero-state guarantee.
//!
//! This binary deliberately never installs a collector: the whole
//! pipeline must run with telemetry compiled in but dormant, the
//! helpers must be inert, and nothing along the way may install one
//! behind the user's back. (It is a separate integration-test binary
//! because the collector is a process-wide one-way switch.)

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::{compress as brisc_compress, BriscOptions};
use code_compression::core::telemetry;
use code_compression::core::{Budget, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::flate::{deflate_compress, inflate, CompressionLevel};
use code_compression::vm::codegen::compile_module;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{compress as wire_compress, decompress_budgeted, WireOptions};

#[test]
fn pipeline_without_collector_leaves_no_telemetry_state() {
    assert!(!telemetry::enabled());
    assert!(telemetry::collector().is_none());

    // The free helpers are inert, not panicking, with no collector.
    telemetry::counter_add("x", 1);
    telemetry::gauge_set("x", 1);
    telemetry::gauge_max("x", 1);
    let mut local = telemetry::LocalHistogram::default();
    local.record(1);
    telemetry::histogram_merge("x", &local);
    telemetry::event("x", vec![("k", 1u64.into())]);
    drop(telemetry::stage!("x"));
    assert!(telemetry::collapsed_stacks().is_empty());

    // A full pipeline pass: compile, wire round-trip, flate round-trip,
    // brisc compress and run, budget publishing.
    let b = &benchmarks()[0];
    let module = b.compile().expect("compiles");
    let packed = wire_compress(&module, WireOptions::default()).expect("wire pack");
    let budget = Budget::new(DecodeLimits::default());
    let back = decompress_budgeted(&packed.bytes, &budget).expect("decodes");
    assert_eq!(back, module);
    budget.publish_telemetry(); // must be a no-op, not a panic

    let data = b.source.as_bytes();
    assert_eq!(
        inflate(&deflate_compress(data, CompressionLevel::Best)).expect("inflates"),
        data
    );

    let vm = compile_module(&module, IsaConfig::full()).expect("codegen");
    let report = brisc_compress(&vm, BriscOptions::default()).expect("brisc pack");
    BriscMachine::new(&report.image, 1 << 22, 1 << 32)
        .expect("machine")
        .run("main", &[])
        .expect("runs");

    // Nothing installed a collector behind our back, and no stage
    // recorded a self time.
    assert!(!telemetry::enabled());
    assert!(telemetry::collector().is_none());
    assert!(telemetry::collapsed_stacks().is_empty());
}
