//! Limit-boundary tests for per-call decode governance.
//!
//! For every corpus program and every [`DecodeLimits`] knob, the suite
//! decodes once under a generous budget to learn the *exact* resource
//! footprint (the meters are deterministic), then re-decodes at the
//! exact limit (must succeed), one under it (must trip), and zero.
//! A tripped limit must always surface as a limit error — never as
//! `Corrupt`/`Malformed`, never as a panic — mirroring the
//! `inflate_with_limit` boundary suite in the flate crate.

use code_compression::brisc::compress::{compress as brisc_compress, BriscOptions};
use code_compression::brisc::{BriscError, BriscImage};
use code_compression::core::{telemetry, Budget, DecodeError, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::ir::Module;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{
    compress as wire_compress, decompress_budgeted, DemandError, DemandImage, DemandLoader,
    WireError, WireOptions,
};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary. The budget-gauge test installs
/// the process-global collector mid-run; holding this lock guarantees
/// no sibling test's demand loads publish gauges between its decode
/// and its assertions.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus_modules() -> Vec<(&'static str, Module)> {
    benchmarks()
        .iter()
        .map(|b| (b.name, b.compile().expect("corpus programs compile")))
        .collect()
}

fn assert_limit(result: Result<Module, WireError>, what: &str, name: &str) {
    match result {
        Err(WireError::Limit { .. }) => {}
        other => panic!(
            "{name}: shrunk {what} must trip as WireError::Limit, got {other:?}",
        ),
    }
}

#[test]
fn wire_limits_have_exact_boundaries() {
    let _serial = serial();
    for (name, module) in corpus_modules() {
        let packed = wire_compress(&module, WireOptions::default()).expect("wire compress");

        // Learn the exact footprint under a generous meter.
        let probe = Budget::default();
        let back = decompress_budgeted(&packed.bytes, &probe).expect("valid image decodes");
        assert_eq!(back, module, "{name}: budgeted round-trip not bit-exact");
        let usage = probe.usage();
        assert!(usage.fuel_spent > 0, "{name}: decode spent no fuel");
        assert!(usage.peak_output_bytes > 0);
        assert!(usage.peak_stream_symbols > 0);
        assert!(usage.peak_table_entries > 0);

        // Fuel: exact total passes, one less trips, zero trips.
        let exact = DecodeLimits {
            decode_fuel: usage.fuel_spent,
            ..DecodeLimits::default()
        };
        decompress_budgeted(&packed.bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact fuel limit must pass: {e}"));
        for fuel in [usage.fuel_spent - 1, 0] {
            let limits = DecodeLimits {
                decode_fuel: fuel,
                ..DecodeLimits::default()
            };
            assert_limit(
                decompress_budgeted(&packed.bytes, &Budget::new(limits)),
                "decode fuel",
                name,
            );
        }

        // Output bytes.
        let exact = DecodeLimits {
            max_output_bytes: usage.peak_output_bytes,
            ..DecodeLimits::default()
        };
        decompress_budgeted(&packed.bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact output limit must pass: {e}"));
        for bytes in [usage.peak_output_bytes - 1, 0] {
            let limits = DecodeLimits {
                max_output_bytes: bytes,
                ..DecodeLimits::default()
            };
            assert_limit(
                decompress_budgeted(&packed.bytes, &Budget::new(limits)),
                "output bytes",
                name,
            );
        }

        // Stream symbols.
        let exact = DecodeLimits {
            max_stream_symbols: usage.peak_stream_symbols,
            ..DecodeLimits::default()
        };
        decompress_budgeted(&packed.bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact symbol limit must pass: {e}"));
        let limits = DecodeLimits {
            max_stream_symbols: usage.peak_stream_symbols - 1,
            ..DecodeLimits::default()
        };
        assert_limit(
            decompress_budgeted(&packed.bytes, &Budget::new(limits)),
            "stream symbols",
            name,
        );

        // Table entries.
        let exact = DecodeLimits {
            max_table_entries: usage.peak_table_entries,
            ..DecodeLimits::default()
        };
        decompress_budgeted(&packed.bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact table limit must pass: {e}"));
        let limits = DecodeLimits {
            max_table_entries: usage.peak_table_entries - 1,
            ..DecodeLimits::default()
        };
        assert_limit(
            decompress_budgeted(&packed.bytes, &Budget::new(limits)),
            "table entries",
            name,
        );

        // Pattern nesting depth.
        let exact = DecodeLimits {
            max_pattern_depth: usage.peak_pattern_depth,
            ..DecodeLimits::default()
        };
        decompress_budgeted(&packed.bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact depth limit must pass: {e}"));
        if usage.peak_pattern_depth > 0 {
            let limits = DecodeLimits {
                max_pattern_depth: usage.peak_pattern_depth - 1,
                ..DecodeLimits::default()
            };
            assert_limit(
                decompress_budgeted(&packed.bytes, &Budget::new(limits)),
                "pattern depth",
                name,
            );
        }
    }
}

#[test]
fn brisc_limits_trip_cleanly() {
    let _serial = serial();
    for (name, module) in corpus_modules() {
        let vm = compile_module(&module, IsaConfig::full()).expect("codegen");
        let image = brisc_compress(&vm, BriscOptions::default())
            .expect("brisc compress")
            .image;
        let bytes = image.to_bytes();

        let probe = Budget::default();
        let back = BriscImage::from_bytes_budgeted(&bytes, &probe).expect("valid image loads");
        assert_eq!(back, image, "{name}: budgeted brisc round-trip differs");
        let usage = probe.usage();
        assert!(usage.fuel_spent > 0 && usage.peak_table_entries > 0);

        // Exact limits pass.
        let exact = DecodeLimits {
            decode_fuel: usage.fuel_spent,
            max_table_entries: usage.peak_table_entries,
            max_output_bytes: usage.peak_output_bytes,
            ..DecodeLimits::default()
        };
        BriscImage::from_bytes_budgeted(&bytes, &Budget::new(exact))
            .unwrap_or_else(|e| panic!("{name}: exact brisc limits must pass: {e}"));

        // Shrunk limits trip as Limit, never Corrupt.
        for limits in [
            DecodeLimits {
                decode_fuel: usage.fuel_spent - 1,
                ..DecodeLimits::default()
            },
            DecodeLimits {
                max_table_entries: usage.peak_table_entries - 1,
                ..DecodeLimits::default()
            },
            DecodeLimits {
                decode_fuel: 0,
                ..DecodeLimits::default()
            },
        ] {
            match BriscImage::from_bytes_budgeted(&bytes, &Budget::new(limits)) {
                Err(BriscError::Limit { .. }) => {}
                other => panic!("{name}: shrunk brisc limit must trip as Limit, got {other:?}"),
            }
        }
    }
}

#[test]
fn shrunk_limits_never_misreport_as_malformed() {
    let _serial = serial();
    // Half the real footprint on every knob at once: the decode must
    // fail, and the failure class must be Limit for every corpus
    // program (a misclassification here would break retry-with-larger-
    // budget recovery).
    for (name, module) in corpus_modules() {
        let packed = wire_compress(&module, WireOptions::default()).expect("wire compress");
        let probe = Budget::default();
        decompress_budgeted(&packed.bytes, &probe).expect("valid image decodes");
        let usage = probe.usage();
        let limits = DecodeLimits {
            decode_fuel: usage.fuel_spent / 2,
            max_output_bytes: (usage.peak_output_bytes / 2).max(1),
            max_stream_symbols: (usage.peak_stream_symbols / 2).max(1),
            max_table_entries: (usage.peak_table_entries / 2).max(1),
            ..DecodeLimits::default()
        };
        assert_limit(
            decompress_budgeted(&packed.bytes, &Budget::new(limits)),
            "combined shrunk limits",
            name,
        );
    }
}

#[test]
fn corrupt_function_quarantined_module_survives_corpus_wide() {
    let _serial = serial();
    // The acceptance scenario: one corrupted function per corpus
    // program; every other function still demand-loads, and running
    // main either succeeds (corrupt function unreached) or traps with
    // a clean quarantine error naming it.
    for (name, module) in corpus_modules() {
        let image = DemandImage::build(&module, WireOptions::default()).expect("demand build");
        let names: Vec<String> = image.names().map(str::to_string).collect();
        let Some(victim) = names.iter().rev().find(|n| *n != "main") else {
            continue; // single-function program: nothing to corrupt around
        };

        // Corrupt the victim's unit inside the *serialized* image: the
        // unit is a wire image starting with the CCWF magic, so
        // clobbering its first byte guarantees a decode failure without
        // disturbing the outer container.
        let unit = image.unit_bytes(victim).expect("unit exists").to_vec();
        let serialized = image.to_bytes();
        let pos = serialized
            .windows(unit.len())
            .position(|w| w == unit)
            .expect("unit bytes appear in the serialized image");
        let mut corrupted = serialized.clone();
        corrupted[pos] ^= 0xFF;
        let image = DemandImage::from_bytes(&corrupted).expect("outer container still parses");

        // Salvage scan poisons exactly the victim.
        let scan = image.salvage_scan(DecodeLimits::default());
        assert_eq!(
            scan.poisoned.len(),
            1,
            "{name}: expected exactly one poisoned unit, got {:?}",
            scan.poisoned
        );
        assert_eq!(scan.poisoned[0].0, *victim, "{name}");
        assert_eq!(scan.salvageable.len(), names.len() - 1, "{name}");

        // Every other function demand-loads; the victim quarantines.
        let mut loader = DemandLoader::new(&image, DecodeLimits::default());
        for n in names.iter().filter(|n| *n != victim) {
            loader
                .demand(n)
                .unwrap_or_else(|e| panic!("{name}: function {n} must load: {e}"));
        }
        match loader.demand(victim) {
            Err(DemandError::Quarantined { name: q, .. }) => assert_eq!(q, *victim),
            other => panic!("{name}: victim must quarantine, got {other:?}"),
        }

        // Running main must either succeed or trap cleanly on the
        // quarantined function — never any other failure class.
        let mut runner = DemandLoader::new(&image, DecodeLimits::default());
        match runner.run("main", &[], 1 << 22, 1 << 28) {
            Ok(_) => {}
            Err(DemandError::Quarantined { name: q, .. }) => assert_eq!(q, *victim, "{name}"),
            Err(other) => panic!("{name}: unexpected failure class: {other}"),
        }
        let report = runner.report();
        assert!(
            report.resident.iter().any(|r| r == "main"),
            "{name}: main must be resident after a run attempt"
        );
    }
}

#[test]
fn limit_quarantine_is_recoverable_corpus_wide() {
    let _serial = serial();
    // A function that only failed on limits must re-demand successfully
    // once the budget is raised (retry_with), for every corpus program.
    for (name, module) in corpus_modules() {
        let image = DemandImage::build(&module, WireOptions::default()).expect("demand build");
        let starved = DecodeLimits {
            decode_fuel: 0,
            ..DecodeLimits::default()
        };
        let mut loader = DemandLoader::new(&image, starved);
        match loader.demand("main") {
            Err(DemandError::Quarantined {
                cause: DecodeError::LimitExceeded { .. },
                ..
            }) => {}
            other => panic!("{name}: starved demand must quarantine on limits, got {other:?}"),
        }
        loader
            .retry_with("main", DecodeLimits::default())
            .unwrap_or_else(|e| panic!("{name}: retry with raised budget must succeed: {e}"));
        let report = loader.report();
        assert!(report.quarantined.is_empty(), "{name}: {report:?}");
        assert!(report.resident.iter().any(|r| r == "main"), "{name}");

        // And the recovered module actually runs.
        match loader.run("main", &[], 1 << 22, 1 << 28) {
            Ok(_) | Err(DemandError::Exec(_)) => {}
            Err(other) => panic!("{name}: unexpected failure class after recovery: {other}"),
        }
    }
}

#[test]
fn budget_gauges_mirror_deterministic_meters_corpus_wide() {
    // One shared budget decodes the whole corpus; after an explicit
    // publish, every `limits.*` gauge must equal the deterministic
    // meter bit for bit. The serial lock plus install-here-only means
    // no other budget can publish between the decode and the asserts.
    let _serial = serial();
    assert!(
        telemetry::install(telemetry::Collector::metrics_only()),
        "this test must be the binary's only collector installer"
    );
    let budget = Budget::default();
    for (name, module) in corpus_modules() {
        let packed = wire_compress(&module, WireOptions::default()).expect("wire compress");
        let back = decompress_budgeted(&packed.bytes, &budget)
            .unwrap_or_else(|e| panic!("{name}: corpus decode: {e}"));
        assert_eq!(back, module, "{name}");
    }
    budget.publish_telemetry();

    let snap = telemetry::collector()
        .expect("collector installed above")
        .metrics
        .snapshot();
    let usage = budget.usage();
    let gauge = |n: &str| snap.gauge(n).unwrap_or_else(|| panic!("gauge {n} missing"));
    assert_eq!(gauge("limits.fuel_spent"), usage.fuel_spent);
    assert_eq!(gauge("limits.resident_bytes"), usage.resident_bytes);
    assert_eq!(gauge("limits.peak_resident_bytes"), usage.peak_resident_bytes);
    assert_eq!(gauge("limits.peak_output_bytes"), usage.peak_output_bytes);
    assert_eq!(gauge("limits.peak_stream_symbols"), usage.peak_stream_symbols);
    assert_eq!(
        gauge("limits.peak_pattern_depth"),
        u64::from(usage.peak_pattern_depth)
    );
    assert_eq!(gauge("limits.peak_table_entries"), usage.peak_table_entries);
    assert!(usage.fuel_spent > 0, "whole-corpus decode must spend fuel");
}

