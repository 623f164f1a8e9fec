//! Coverage-guided fuzzing campaign driver.
//!
//! Generalizes [`crate::fault::mutation_schedule`]'s fixed schedules into
//! a feedback loop: a seed corpus is mutated (bit, byte, chunk, splice,
//! and dictionary operations over [`XorShift64`]), each case runs against
//! a caller-supplied target behind `catch_unwind`, and — when the
//! `coverage` feature is live — inputs that light new edges in the
//! [`crate::coverage`] bitmap are minimized and kept, steering later
//! mutations toward decoder states blind schedules never reach.
//!
//! The driver is decoder-agnostic: the target is a closure from bytes to
//! a [`Verdict`]. The decoders hold no state between calls, so every
//! case is independent. Everything is deterministic in the seed; a
//! finding reproduces from its persisted input bytes alone.

use crate::coverage;
use crate::fault::{mutation_schedule, XorShift64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the target concluded about one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The input decoded successfully.
    Accept,
    /// The input was rejected with a clean error (any error is fine).
    Reject,
    /// The decode violated an invariant the target checks (a budget
    /// overrun that did not error, say). Recorded as a finding.
    Violation(String),
}

/// Why an input was recorded as a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The target panicked; the payload is the panic message.
    Panic(String),
    /// The target reported [`Verdict::Violation`].
    Violation(String),
}

/// One input that provoked a panic or an invariant violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Campaign case number (0-based; seeds run before case 0).
    pub case: u64,
    /// What went wrong.
    pub kind: FindingKind,
    /// The exact input bytes, already minimized when minimization is on.
    pub input: Vec<u8>,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// PRNG seed; the whole campaign is deterministic in it.
    pub seed: u64,
    /// Mutated cases to run (seed executions are extra).
    pub cases: u64,
    /// Hard cap on generated input length.
    pub max_input_len: usize,
    /// Feed coverage back into the corpus. With this off (or without
    /// the `coverage` feature) the corpus never grows past the seeds.
    pub guided: bool,
    /// Shrink new-coverage inputs and findings before keeping them.
    pub minimize: bool,
    /// Silence the default panic hook for the campaign's duration so
    /// expected catches do not spam stderr.
    pub quiet_panics: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 1_000,
            max_input_len: 1 << 16,
            guided: true,
            minimize: true,
            quiet_panics: true,
        }
    }
}

/// What a campaign did and found.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Mutated cases run.
    pub cases: u64,
    /// Total target executions (cases + seeds + minimization reruns).
    pub executions: u64,
    /// Unique edges observed across the whole campaign (0 without the
    /// `coverage` feature).
    pub unique_edges: u32,
    /// Corpus size at the end (seeds + kept inputs).
    pub corpus_size: usize,
    /// Inputs kept because they lit new edges.
    pub coverage_inputs: u64,
    /// Cases the target accepted.
    pub accepts: u64,
    /// Cases the target cleanly rejected.
    pub rejects: u64,
    /// Panics and invariant violations, with reproducer bytes.
    pub findings: Vec<Finding>,
    /// The raw edge bitmap accumulated over the campaign (empty without
    /// the `coverage` feature). Lets callers union coverage across
    /// campaigns — e.g. several seeds of the same target — instead of
    /// comparing single noisy counts.
    pub edge_map: Vec<u64>,
}

/// Unions edge bitmaps from several campaigns and returns the number of
/// distinct edges they cover together.
#[must_use]
pub fn union_edges(maps: &[&[u64]]) -> u32 {
    let len = maps.iter().map(|m| m.len()).max().unwrap_or(0);
    let mut union = vec![0u64; len];
    for map in maps {
        for (u, w) in union.iter_mut().zip(map.iter()) {
            *u |= w;
        }
    }
    union.iter().map(|w| w.count_ones()).sum()
}

/// Byte strings worth splicing into inputs wholesale: format magics,
/// section names, varint boundaries. Targets can extend this list.
#[must_use]
pub fn default_dictionary() -> Vec<Vec<u8>> {
    vec![
        b"CCWF".to_vec(),
        b"CCBR".to_vec(),
        b"$meta".to_vec(),
        b"$patterns".to_vec(),
        vec![0x1f, 0x8b, 0x08],          // gzip member header
        vec![0x00],
        vec![0xff, 0xff, 0xff, 0xff],
        vec![0x7f],
        vec![0x80, 0x80, 0x80, 0x80, 0x01], // 5-byte varint
        vec![0x80, 0x01],
        vec![0xff, 0x7f],
    ]
}

/// One stacked mutation of `base`: operations drawn from bit flips,
/// byte stores, arithmetic nudges, chunk deletion/duplication,
/// truncation/extension, corpus splices, and dictionary insertions.
///
/// Single-op cases dominate (70%): these formats fail fast, so a light
/// touch on a deep valid input reaches far more decoder states than a
/// pile of corruptions that dies in the header. Multi-op stacks still
/// occur to escape local plateaus.
fn mutate(
    rng: &mut XorShift64,
    base: &[u8],
    corpus: &[Vec<u8>],
    dictionary: &[Vec<u8>],
    max_len: usize,
) -> Vec<u8> {
    let mut out = base.to_vec();
    let ops = match rng.below(20) {
        0..=15 => 1,
        16..=18 => 2,
        _ => 3,
    };
    for _ in 0..ops {
        match rng.below(9) {
            0 => {
                // Bit flip.
                if !out.is_empty() {
                    let i = rng.range_usize(0, out.len());
                    out[i] ^= 1 << rng.below(8);
                }
            }
            1 => {
                // Random byte store.
                if !out.is_empty() {
                    let i = rng.range_usize(0, out.len());
                    out[i] = rng.next_u64() as u8;
                }
            }
            2 => {
                // Arithmetic nudge — the mutation that walks length
                // fields and varints across their boundaries.
                if !out.is_empty() {
                    let i = rng.range_usize(0, out.len());
                    let delta = rng.range_i64(1, 17) as u8;
                    out[i] = if rng.chance(1, 2) {
                        out[i].wrapping_add(delta)
                    } else {
                        out[i].wrapping_sub(delta)
                    };
                }
            }
            3 => {
                // Chunk delete.
                if out.len() >= 2 {
                    let start = rng.range_usize(0, out.len() - 1);
                    let len = rng.range_usize(1, (out.len() - start).min(32) + 1);
                    out.drain(start..start + len);
                }
            }
            4 => {
                // Chunk duplicate: reinsert a run elsewhere.
                if !out.is_empty() && out.len() < max_len {
                    let start = rng.range_usize(0, out.len());
                    let len = rng.range_usize(1, (out.len() - start).clamp(1, 32) + 1);
                    let chunk: Vec<u8> = out[start..start + len.min(out.len() - start)].to_vec();
                    let at = rng.range_usize(0, out.len() + 1);
                    for (k, b) in chunk.into_iter().enumerate() {
                        out.insert(at + k, b);
                    }
                }
            }
            5 => {
                // Truncate.
                if !out.is_empty() {
                    out.truncate(rng.range_usize(0, out.len()));
                }
            }
            6 => {
                // Extend with random bytes.
                let n = rng.range_usize(1, 17);
                for _ in 0..n {
                    out.push(rng.next_u64() as u8);
                }
            }
            7 => {
                // Splice with another corpus entry: head of one, tail of
                // the other.
                if !corpus.is_empty() {
                    let other = &corpus[rng.range_usize(0, corpus.len())];
                    if !other.is_empty() && !out.is_empty() {
                        let cut_a = rng.range_usize(0, out.len());
                        let cut_b = rng.range_usize(0, other.len());
                        out.truncate(cut_a);
                        out.extend_from_slice(&other[cut_b..]);
                    }
                }
            }
            _ => {
                // Dictionary token: overwrite in place or insert.
                if !dictionary.is_empty() {
                    let tok = &dictionary[rng.range_usize(0, dictionary.len())];
                    let at = rng.range_usize(0, out.len() + 1);
                    if rng.chance(1, 2) && at + tok.len() <= out.len() {
                        out[at..at + tok.len()].copy_from_slice(tok);
                    } else {
                        for (k, &b) in tok.iter().enumerate() {
                            out.insert(at + k, b);
                        }
                    }
                }
            }
        }
    }
    out.truncate(max_len);
    out
}

/// Runs one case: clear the coverage map, execute the target under
/// `catch_unwind`.
fn exec_case<T>(target: &mut T, input: &[u8]) -> Result<Verdict, String>
where
    T: FnMut(&[u8]) -> Verdict,
{
    coverage::reset();
    catch_unwind(AssertUnwindSafe(|| target(input))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Tallies one case's outcome; a violation or panic becomes a [`Finding`].
fn record(report: &mut CampaignReport, case: u64, input: &[u8], outcome: Result<Verdict, String>) {
    match outcome {
        Ok(Verdict::Accept) => report.accepts += 1,
        Ok(Verdict::Reject) => report.rejects += 1,
        Ok(Verdict::Violation(why)) => report.findings.push(Finding {
            case,
            kind: FindingKind::Violation(why),
            input: input.to_vec(),
        }),
        Err(msg) => report.findings.push(Finding {
            case,
            kind: FindingKind::Panic(msg),
            input: input.to_vec(),
        }),
    }
}

/// Greedy chunk-removal minimization preserving `required` edge bits
/// (or, for findings, preserving the panic/violation itself). Bounded
/// by `budget` extra executions.
fn minimize_input<T>(
    target: &mut T,
    input: Vec<u8>,
    keep: &mut dyn FnMut(&mut T, &[u8]) -> bool,
    budget: u64,
    executions: &mut u64,
) -> Vec<u8>
where
    T: FnMut(&[u8]) -> Verdict,
{
    let mut cur = input;
    let mut spent = 0u64;
    let mut chunk = cur.len() / 2;
    while chunk >= 1 && spent < budget {
        let mut offset = 0;
        while offset < cur.len() && spent < budget {
            let end = (offset + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - offset));
            candidate.extend_from_slice(&cur[..offset]);
            candidate.extend_from_slice(&cur[end..]);
            spent += 1;
            *executions += 1;
            if keep(target, &candidate) {
                cur = candidate;
            } else {
                offset = end;
            }
        }
        chunk /= 2;
    }
    cur
}

/// Installs a silent panic hook for the campaign when asked, restoring
/// the previous hook on drop.
struct HookGuard {
    installed: bool,
}

impl HookGuard {
    fn new(quiet: bool) -> Self {
        if quiet {
            std::panic::set_hook(Box::new(|_| {}));
        }
        HookGuard { installed: quiet }
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        if self.installed {
            let _ = std::panic::take_hook();
        }
    }
}

/// Runs a coverage-guided campaign.
///
/// `seeds` are executed first (and always kept); each of `config.cases`
/// mutated cases then runs against `target`. With the `coverage`
/// feature live and `config.guided` set, inputs lighting new edges are
/// minimized and join the corpus.
/// Panics are caught and recorded as [`Finding`]s — the campaign always
/// runs to completion.
pub fn run_campaign<T>(
    config: &FuzzConfig,
    seeds: &[Vec<u8>],
    dictionary: &[Vec<u8>],
    mut target: T,
) -> CampaignReport
where
    T: FnMut(&[u8]) -> Verdict,
{
    let _hook = HookGuard::new(config.quiet_panics);
    let mut rng = XorShift64::new(config.seed);
    let mut seen = Vec::new();
    let mut report = CampaignReport::default();
    let mut corpus: Vec<Vec<u8>> = Vec::new();

    for seed in seeds {
        let mut seed = seed.clone();
        seed.truncate(config.max_input_len);
        let outcome = exec_case(&mut target, &seed);
        report.executions += 1;
        record(&mut report, 0, &seed, outcome);
        coverage::new_edges(&mut seen);
        corpus.push(seed);
    }
    if corpus.is_empty() {
        corpus.push(Vec::new());
    }

    let seed_count = corpus.len();
    let mut accepts_kept = 0u32;
    // Deterministic warm-up: a truncation sweep spread evenly over every
    // seed's prefix boundaries, capped at a third of the case budget.
    // Truncation probes every "input ends here" branch of a length-
    // delimited format — the one sweep a blind schedule performs that
    // random havoc reaches only slowly — so the guided campaign runs it
    // first and lets feedback take over from there.
    let mut warmup: Vec<Vec<u8>> = Vec::new();
    {
        let budget = (config.cases as usize / 3) / seed_count.max(1);
        for seed in &corpus {
            let t = budget.min(seed.len());
            for i in 0..t {
                let len = if t == seed.len() {
                    i
                } else {
                    i * seed.len() / t.max(1)
                };
                warmup.push(seed[..len].to_vec());
            }
        }
    }
    for case in 0..config.cases {
        // Half the havoc budget stays on the original seeds — they are
        // the deepest valid inputs and single mutations of them keep
        // probing structure that shrunken coverage inputs no longer
        // carry; the rest draws from the newest half of the corpus,
        // where coverage was last extended.
        let input = if let Some(t) = warmup.get(case as usize) {
            t.clone()
        } else {
            let base = if rng.chance(1, 2) {
                &corpus[rng.range_usize(0, seed_count)]
            } else {
                let lo = corpus.len() / 2;
                &corpus[rng.range_usize(lo, corpus.len())]
            };
            mutate(&mut rng, base, &corpus, dictionary, config.max_input_len)
        };
        let outcome = exec_case(&mut target, &input);
        report.executions += 1;
        report.cases += 1;

        let case_map = coverage::snapshot();
        let new = coverage::new_edges(&mut seen);

        let failed = !matches!(outcome, Ok(Verdict::Accept) | Ok(Verdict::Reject));
        if failed {
            // Shrink the finding while it still fails the same way.
            let minimized = if config.minimize {
                let want_panic = outcome.is_err();
                minimize_input(
                    &mut target,
                    input.clone(),
                    &mut |t, cand| {
                        let keep = match exec_case(t, cand) {
                            Err(_) => want_panic,
                            Ok(Verdict::Violation(_)) => !want_panic,
                            Ok(_) => false,
                        };
                        // Minimization candidates are real executions;
                        // whatever fresh edges they light count.
                        coverage::new_edges(&mut seen);
                        keep
                    },
                    96,
                    &mut report.executions,
                )
            } else {
                input.clone()
            };
            record(&mut report, case, &minimized, outcome);
            continue;
        }
        let accepted = matches!(outcome, Ok(Verdict::Accept));
        record(&mut report, case, &input, outcome);

        if config.guided && new > 0 {
            report.coverage_inputs += 1;
            // Trim only while the candidate reproduces the *entire*
            // coverage map of the original input, not just the fresh
            // bits — anything looser shrinks corpus entries into
            // shallow stubs that stop exercising the deep paths their
            // ancestors reached.
            let kept = if config.minimize {
                minimize_input(
                    &mut target,
                    input,
                    &mut |t, cand| {
                        let ok = exec_case(t, cand).is_ok();
                        let keep = ok && coverage::snapshot() == case_map;
                        coverage::new_edges(&mut seen);
                        keep
                    },
                    48,
                    &mut report.executions,
                )
            } else {
                input
            };
            corpus.push(kept);
        } else if config.guided && accepts_kept < 64 && accepted && rng.chance(1, 4) {
            // An accepted mutant is a *new valid input* even when it
            // lights no new edge on its own — it survived whatever
            // integrity checks the format carries, so mutating it
            // further explores valid-space neighborhoods a single
            // mutation of the original seeds can never reach. Keep a
            // bounded sample of them.
            accepts_kept += 1;
            corpus.push(input);
        }
    }

    report.unique_edges = seen.iter().map(|w| w.count_ones()).sum();
    report.corpus_size = corpus.len();
    report.edge_map = seen;
    report
}

/// The blind baseline: the same case budget spent on
/// [`mutation_schedule`]'s fixed truncate/bitflip/splice schedule over
/// the seeds, round-robin, with no feedback. Reports the same edge
/// accounting so guided and blind campaigns compare directly.
pub fn run_blind_schedule<T>(
    config: &FuzzConfig,
    seeds: &[Vec<u8>],
    mut target: T,
) -> CampaignReport
where
    T: FnMut(&[u8]) -> Verdict,
{
    let _hook = HookGuard::new(config.quiet_panics);
    let mut seen = Vec::new();
    let mut report = CampaignReport::default();
    let seeds: Vec<Vec<u8>> = if seeds.is_empty() {
        vec![Vec::new()]
    } else {
        seeds
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.truncate(config.max_input_len);
                s
            })
            .collect()
    };

    for seed in &seeds {
        let outcome = exec_case(&mut target, seed);
        report.executions += 1;
        record(&mut report, 0, seed, outcome);
        coverage::new_edges(&mut seen);
    }

    let per_seed = (config.cases as usize).div_ceil(seeds.len());
    let mut case = 0u64;
    'outer: for (i, seed) in seeds.iter().enumerate() {
        let schedule = mutation_schedule(
            config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            seed.len(),
            per_seed,
        );
        for m in &schedule {
            if case >= config.cases {
                break 'outer;
            }
            let input = m.apply(seed);
            let outcome = exec_case(&mut target, &input);
            report.executions += 1;
            report.cases += 1;
            case += 1;
            record(&mut report, case, &input, outcome);
            coverage::new_edges(&mut seen);
        }
    }

    report.unique_edges = seen.iter().map(|w| w.count_ones()).sum();
    report.corpus_size = seeds.len();
    report.edge_map = seen;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_target(input: &[u8]) -> Verdict {
        // A little decoder with nested structure for coverage to find.
        if input.first() != Some(&b'M') {
            return Verdict::Reject;
        }
        crate::cov_hit!("toy.magic");
        match input.get(1) {
            Some(1) => {
                crate::cov_hit!("toy.v1");
                Verdict::Accept
            }
            Some(2) if input.len() > 4 => {
                crate::cov_hit!("toy.v2");
                Verdict::Accept
            }
            _ => Verdict::Reject,
        }
    }

    #[test]
    fn campaign_is_deterministic_and_total() {
        let config = FuzzConfig {
            cases: 200,
            minimize: false,
            ..FuzzConfig::default()
        };
        let seeds = vec![b"M\x01".to_vec(), b"junk".to_vec()];
        let a = run_campaign(&config, &seeds, &default_dictionary(), toy_target);
        let b = run_campaign(&config, &seeds, &default_dictionary(), toy_target);
        assert_eq!(a.cases, 200);
        assert_eq!(a.accepts, b.accepts);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.unique_edges, b.unique_edges);
        assert!(a.findings.is_empty());
    }

    #[test]
    fn panics_become_findings_not_aborts() {
        let config = FuzzConfig {
            cases: 300,
            ..FuzzConfig::default()
        };
        let target = |input: &[u8]| {
            assert!(input.first() != Some(&0xEE), "planted bug");
            Verdict::Reject
        };
        let seeds = vec![vec![0xEE, 0, 0]];
        let report = run_campaign(&config, &seeds, &[], target);
        assert!(!report.findings.is_empty(), "planted bug not found");
        for f in &report.findings {
            assert!(matches!(f.kind, FindingKind::Panic(ref m) if m.contains("planted bug")));
            // Minimization must preserve the failure.
            assert_eq!(f.input.first(), Some(&0xEE));
        }
    }

    #[test]
    fn violations_are_recorded() {
        let config = FuzzConfig {
            cases: 50,
            minimize: false,
            ..FuzzConfig::default()
        };
        let target = |_: &[u8]| Verdict::Violation("budget overrun".into());
        let report = run_campaign(&config, &[vec![0]], &[], target);
        assert!(report
            .findings
            .iter()
            .all(|f| matches!(f.kind, FindingKind::Violation(_))));
        assert!(!report.findings.is_empty());
    }

    #[test]
    #[cfg(feature = "coverage")]
    fn guided_beats_blind_on_the_toy_decoder() {
        let config = FuzzConfig {
            cases: 600,
            ..FuzzConfig::default()
        };
        // Seeds that do not reach the magic: feedback must climb to it.
        let seeds = vec![b"Mx".to_vec()];
        let guided = run_campaign(&config, &seeds, &default_dictionary(), toy_target);
        let blind = run_blind_schedule(&config, &seeds, toy_target);
        assert!(
            guided.unique_edges >= blind.unique_edges,
            "guided {} < blind {}",
            guided.unique_edges,
            blind.unique_edges
        );
        assert!(guided.unique_edges > 0);
    }

    #[test]
    fn blind_schedule_matches_case_budget() {
        let config = FuzzConfig {
            cases: 123,
            ..FuzzConfig::default()
        };
        let report = run_blind_schedule(&config, &[vec![0; 64], vec![1; 32]], |_| Verdict::Reject);
        assert_eq!(report.cases, 123);
    }
}
