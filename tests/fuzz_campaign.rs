//! End-to-end checks on the coverage-guided fuzzing campaign.
//!
//! With the `coverage` feature on, the guided campaign must discover at
//! least as many unique edges as an equal case budget of blind
//! `mutation_schedule` sweeps over the wire decoder — coverage feedback
//! is the tentpole claim, so it is asserted, not just reported. With
//! the feature off (the default build) the edge counters read zero and
//! the campaign degenerates to blind mutation; the tests then only
//! assert totality: no panics, no limit violations, zero edges.

use code_compression::core::fuzz::{
    default_dictionary, run_blind_schedule, run_campaign, union_edges, CampaignReport, FuzzConfig,
    Verdict,
};
use code_compression::core::{coverage, Budget, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::wire::{compress, decompress_budgeted, WireOptions};

fn wire_seeds() -> Vec<Vec<u8>> {
    let mut suite = benchmarks();
    suite.sort_by_key(|b| b.source.len());
    suite
        .iter()
        .take(2)
        .map(|b| {
            let module = b.compile().expect("corpus compiles");
            compress(&module, WireOptions::default())
                .expect("compress")
                .bytes
        })
        .collect()
}

fn limits() -> DecodeLimits {
    DecodeLimits {
        max_output_bytes: 1 << 22,
        decode_fuel: 1 << 24,
        max_resident_bytes: 1 << 22,
        ..DecodeLimits::default()
    }
}

fn wire_target(bytes: &[u8]) -> Verdict {
    match decompress_budgeted(bytes, &Budget::new(limits())) {
        Ok(_) => Verdict::Accept,
        Err(_) => Verdict::Reject,
    }
}

/// The measurement protocol EXPERIMENTS.md documents: three campaigns
/// per mode (seeds 1–3) at an equal case budget, coverage compared as
/// the union of edges across the three — single campaigns are noisy by
/// a handful of edges, unions are stable.
const CASES: u64 = 1_000;
const ROUNDS: u64 = 3;

fn run_rounds(guided: bool) -> Vec<CampaignReport> {
    let seeds = wire_seeds();
    (1..=ROUNDS)
        .map(|seed| {
            let config = FuzzConfig {
                seed,
                cases: CASES,
                guided,
                ..FuzzConfig::default()
            };
            if guided {
                run_campaign(&config, &seeds, &default_dictionary(), wire_target)
            } else {
                run_blind_schedule(&config, &seeds, wire_target)
            }
        })
        .collect()
}

fn union_of(reports: &[CampaignReport]) -> u32 {
    let maps: Vec<&[u64]> = reports.iter().map(|r| r.edge_map.as_slice()).collect();
    union_edges(&maps)
}

#[test]
fn guided_campaign_beats_blind_mutation_on_wire() {
    let guided = run_rounds(true);
    let blind = run_rounds(false);
    for r in guided.iter().chain(&blind) {
        assert!(r.findings.is_empty(), "campaign found failures: {:?}", r.findings);
        assert!(r.cases >= CASES);
    }
    let guided_edges = union_of(&guided);
    let blind_edges = union_of(&blind);
    if coverage::enabled() {
        assert!(guided_edges > 0, "instrumented build discovered no edges");
        // The feedback loop must pay its way: strictly more distinct
        // edges than blind mutation at the same case budget. Both
        // campaigns are deterministic in their seeds, so this cannot
        // flake; if instrumentation changes move the numbers, re-run
        // the EXPERIMENTS.md table alongside this test.
        assert!(
            guided_edges > blind_edges,
            "guided union {guided_edges} edges <= blind union {blind_edges} edges"
        );
        assert!(
            guided.iter().any(|r| r.coverage_inputs > 0),
            "no input was ever kept for new coverage"
        );
    } else {
        assert_eq!(guided_edges, 0, "edges counted without coverage");
        assert_eq!(blind_edges, 0, "edges counted without coverage");
    }
}

#[test]
fn campaign_is_deterministic_for_a_fixed_seed() {
    let seeds = wire_seeds();
    let config = FuzzConfig {
        seed: 7,
        cases: 150,
        ..FuzzConfig::default()
    };
    let a = run_campaign(&config, &seeds, &default_dictionary(), wire_target);
    let b = run_campaign(&config, &seeds, &default_dictionary(), wire_target);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.unique_edges, b.unique_edges);
    assert_eq!(a.corpus_size, b.corpus_size);
    assert_eq!(a.accepts, b.accepts);
    assert_eq!(a.rejects, b.rejects);
    assert!(a.findings.is_empty() && b.findings.is_empty());
}
