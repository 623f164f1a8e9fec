//! Deterministic fault injection for decoder hardening.
//!
//! The decoders are the trust boundary of a code-compression system —
//! compressed images arrive over a wire and must never take the process
//! down. This module supplies the two ingredients the workspace
//! fault-injection harness (`tests/fault_injection.rs`) needs with no
//! external dependencies: a seeded xorshift PRNG and a small set of
//! byte-level mutators (truncation, bit flips, splices). Everything is
//! deterministic in the seed so a failure reproduces from its seed
//! alone.

/// A seeded xorshift64* PRNG.
///
/// Not cryptographic; chosen for determinism, statelessness across
/// platforms, and zero dependencies.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed (zero is remapped internally).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            // xorshift has a fixed point at zero; displace it.
            state: if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed },
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Returns a value uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) has no valid range");
        // Multiply-shift reduction; the tiny modulo bias is irrelevant
        // for test-input generation.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Returns a value uniform in `[lo, hi)`; the range must be nonempty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty range");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// Returns a value uniform in `[lo, hi)`; the range must be nonempty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Returns `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One deterministic corruption of a byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Keep only the first `len` bytes.
    Truncate {
        /// Bytes to keep.
        len: usize,
    },
    /// Flip one bit.
    BitFlip {
        /// Byte offset.
        offset: usize,
        /// Bit index within the byte, 0–7.
        bit: u8,
    },
    /// Overwrite a run of bytes with PRNG output.
    Splice {
        /// Byte offset of the run.
        offset: usize,
        /// Run length.
        len: usize,
        /// Seed for the replacement bytes.
        seed: u64,
    },
}

impl Mutation {
    /// Applies the mutation, returning the corrupted payload.
    ///
    /// Out-of-range offsets are clamped so any (mutation, payload) pair
    /// is usable; an empty payload passes through unchanged except for
    /// truncation (which is a no-op on it anyway). When a trace sink is
    /// installed, each application emits a `fault.mutation` event so
    /// flight recordings tie a decoder failure to the exact corruption
    /// that provoked it.
    pub fn apply(&self, data: &[u8]) -> Vec<u8> {
        if crate::telemetry::enabled() {
            let (kind, offset, amount) = match *self {
                Mutation::Truncate { len } => ("truncate", len, 0),
                Mutation::BitFlip { offset, bit } => ("bit_flip", offset, usize::from(bit)),
                Mutation::Splice { offset, len, .. } => ("splice", offset, len),
            };
            crate::telemetry::event(
                "fault.mutation",
                vec![
                    ("kind", kind.into()),
                    ("offset", offset.into()),
                    ("amount", amount.into()),
                    ("payload_len", data.len().into()),
                ],
            );
        }
        let mut out = data.to_vec();
        match *self {
            Mutation::Truncate { len } => out.truncate(len),
            Mutation::BitFlip { offset, bit } => {
                if !out.is_empty() {
                    let i = offset % out.len();
                    out[i] ^= 1 << (bit & 7);
                }
            }
            Mutation::Splice { offset, len, seed } => {
                if !out.is_empty() && len > 0 {
                    let start = offset % out.len();
                    let end = (start + len).min(out.len());
                    let mut rng = XorShift64::new(seed);
                    for b in &mut out[start..end] {
                        *b = rng.next_u64() as u8;
                    }
                }
            }
        }
        out
    }
}

/// Generates `count` seeded mutations covering all three classes.
///
/// The schedule is deterministic in `seed` and `payload_len`: every
/// prefix boundary appears as a truncation while `count` allows (long
/// payloads get an even sampling), and the rest splits between bit
/// flips and splices.
pub fn mutation_schedule(seed: u64, payload_len: usize, count: usize) -> Vec<Mutation> {
    let mut rng = XorShift64::new(seed ^ (payload_len as u64).rotate_left(32));
    let mut out = Vec::with_capacity(count);
    // A third of the budget (at most one per prefix) goes to truncation.
    let truncations = (count / 3).min(payload_len);
    for i in 0..truncations {
        // Spread evenly over [0, payload_len).
        let len = if truncations == payload_len {
            i
        } else {
            (i * payload_len) / truncations.max(1)
        };
        out.push(Mutation::Truncate { len });
    }
    while out.len() < count {
        if rng.chance(1, 2) {
            out.push(Mutation::BitFlip {
                offset: rng.below(payload_len.max(1) as u64) as usize,
                bit: rng.below(8) as u8,
            });
        } else {
            out.push(Mutation::Splice {
                offset: rng.below(payload_len.max(1) as u64) as usize,
                len: rng.range_usize(1, 17),
                seed: rng.next_u64(),
            });
        }
    }
    out
}

/// The shared mutation-sweep loop behind every per-decoder totality
/// test: runs `decode` over each strict prefix of `payload` and over
/// `mutations` seeded corruptions from [`mutation_schedule`], asserting
/// that no input panics.
///
/// Deterministic in `seed`, so a failure message's case description
/// reproduces the exact input.
///
/// # Panics
///
/// Panics (failing the calling test) when `decode` panics on any case.
pub fn assert_decoder_total(
    what: &str,
    payload: &[u8],
    seed: u64,
    mutations: usize,
    mut decode: impl FnMut(&[u8]),
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut run = |case: std::fmt::Arguments<'_>, input: &[u8]| {
        let r = catch_unwind(AssertUnwindSafe(|| decode(input)));
        assert!(
            r.is_ok(),
            "{what}: decoder panicked on {case} (seed {seed:#x})"
        );
    };
    for len in 0..payload.len() {
        run(format_args!("{len}-byte prefix"), &payload[..len]);
    }
    for (index, mutation) in mutation_schedule(seed, payload.len(), mutations)
        .into_iter()
        .enumerate()
    {
        run(
            format_args!("mutation {index} ({mutation:?})"),
            &mutation.apply(payload),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let v = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
            let u = rng.range_usize(3, 9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn below_covers_range() {
        let mut rng = XorShift64::new(11);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mutations_apply_safely_to_any_payload() {
        for payload in [&b""[..], &b"a"[..], &b"hello world"[..]] {
            for m in mutation_schedule(1, payload.len(), 64) {
                let _ = m.apply(payload);
            }
        }
    }

    #[test]
    fn truncations_cover_prefixes() {
        let schedule = mutation_schedule(3, 10, 30);
        let lens: Vec<usize> = schedule
            .iter()
            .filter_map(|m| match m {
                Mutation::Truncate { len } => Some(*len),
                _ => None,
            })
            .collect();
        assert_eq!(lens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_is_deterministic() {
        assert_eq!(mutation_schedule(9, 100, 50), mutation_schedule(9, 100, 50));
    }

    #[test]
    fn sweep_visits_every_prefix_then_every_mutation() {
        let payload = b"sweep target payload";
        let mut inputs = Vec::new();
        assert_decoder_total("sweep-test", payload, 0xBEEF, 25, |b| {
            inputs.push(b.to_vec())
        });
        assert_eq!(inputs.len(), payload.len() + 25);
        for (len, input) in inputs.iter().enumerate().take(payload.len()) {
            assert_eq!(input[..], payload[..len]);
        }
        let first = &mutation_schedule(0xBEEF, payload.len(), 25)[0];
        assert_eq!(inputs[payload.len()], first.apply(payload));
    }

    #[test]
    #[should_panic(expected = "decoder panicked")]
    fn sweep_surfaces_decoder_panics() {
        assert_decoder_total("sweep-test", b"abcd", 1, 8, |bytes| {
            assert!(bytes.len() < 3, "planted panic");
        });
    }

    #[test]
    fn bitflip_flips_exactly_one_bit() {
        let data = vec![0u8; 16];
        let m = Mutation::BitFlip { offset: 5, bit: 3 };
        let out = m.apply(&data);
        assert_eq!(out[5], 8);
        assert_eq!(out.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
    }
}
