//! Per-call resource governance for every decoder in the workspace.
//!
//! The paper's demand-paged delivery scenario implies a long-lived
//! loader decoding untrusted streams under hard memory and CPU budgets.
//! [`DecodeLimits`] is the knob set — one struct covering every
//! resource a decoder can be asked to spend — and [`Budget`] is the
//! run-time handle a pipeline threads through its decode calls.
//! Cloning a [`Budget`] shares its counters, so one budget can govern
//! an entire module load across `flate`, `wire`, `coding`, and `brisc`
//! while each layer sees only the `codecomp-core` types.
//!
//! Two kinds of accounting coexist:
//!
//! - **Ceilings** (`max_output_bytes`, `max_stream_symbols`,
//!   `max_pattern_depth`, `max_table_entries`) bound a single decoded
//!   artifact and are checked where the artifact's size first becomes
//!   known.
//! - **Meters** (`decode_fuel`, `max_resident_bytes`) accumulate across
//!   calls in the shared counters; fuel is charged per decoded
//!   symbol/item, resident bytes by the demand loader as function
//!   bodies materialize.
//!
//! Every check also records a high-water mark, so a caller can decode
//! once with generous limits, read [`Budget::usage`], and learn the
//! exact budget a payload needs — the basis of the exact-limit
//! boundary tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::DecodeError;
use crate::telemetry;

/// Builds the limit error and, when tracing is on, emits a
/// `limit.trip` event so flight recordings show which budget refused.
fn trip(what: &'static str, limit: u64) -> DecodeError {
    telemetry::event(
        "limit.trip",
        vec![("what", what.into()), ("limit", limit.into())],
    );
    DecodeError::limit(what, limit)
}

/// Default ceiling on a single decoded output (matches the historical
/// `flate::MAX_OUTPUT`).
pub const DEFAULT_MAX_OUTPUT_BYTES: u64 = 1 << 28;
/// Default ceiling on symbols in one wire stream (matches the
/// historical `wire::MAX_STREAM_LEN`).
pub const DEFAULT_MAX_STREAM_SYMBOLS: u64 = 1 << 22;
/// Default ceiling on pattern nesting depth (matches the historical
/// `wire::MAX_PATTERN_DEPTH`).
pub const DEFAULT_MAX_PATTERN_DEPTH: u32 = 128;
/// Default ceiling on entries in one decoded table (wire literal
/// tables are bounded by the stream length today, so the default
/// matches [`DEFAULT_MAX_STREAM_SYMBOLS`]).
pub const DEFAULT_MAX_TABLE_ENTRIES: u64 = 1 << 22;

/// Per-call decode resource limits.
///
/// `Default` preserves the workspace's historical compile-time values,
/// so `decode_with(&Budget::default())` behaves exactly like the
/// un-governed decoders did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Largest single decoded output (inflate result, wire section) in
    /// bytes.
    pub max_output_bytes: u64,
    /// Largest symbol count in one decoded stream.
    pub max_stream_symbols: u64,
    /// Deepest pattern-tree nesting accepted by the wire format.
    pub max_pattern_depth: u32,
    /// Largest dictionary / Markov / literal table, in entries.
    pub max_table_entries: u64,
    /// Total decode steps (symbols, items, table entries) across the
    /// budget's lifetime.
    pub decode_fuel: u64,
    /// Total bytes of demand-loaded function bodies resident at once.
    pub max_resident_bytes: u64,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_output_bytes: DEFAULT_MAX_OUTPUT_BYTES,
            max_stream_symbols: DEFAULT_MAX_STREAM_SYMBOLS,
            max_pattern_depth: DEFAULT_MAX_PATTERN_DEPTH,
            max_table_entries: DEFAULT_MAX_TABLE_ENTRIES,
            decode_fuel: u64::MAX,
            max_resident_bytes: u64::MAX,
        }
    }
}

impl DecodeLimits {
    /// Limits that never trip: every ceiling and meter at `u64::MAX`.
    pub fn unlimited() -> Self {
        DecodeLimits {
            max_output_bytes: u64::MAX,
            max_stream_symbols: u64::MAX,
            max_pattern_depth: u32::MAX,
            max_table_entries: u64::MAX,
            decode_fuel: u64::MAX,
            max_resident_bytes: u64::MAX,
        }
    }
}

/// Shared counters behind a [`Budget`]; cloned handles see the same
/// meters and high-water marks.
#[derive(Debug, Default)]
struct Counters {
    fuel_spent: AtomicU64,
    resident_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
    peak_output_bytes: AtomicU64,
    peak_stream_symbols: AtomicU64,
    peak_pattern_depth: AtomicU64,
    peak_table_entries: AtomicU64,
}

/// Observed resource usage, read back via [`Budget::usage`].
///
/// `peak_*` fields are per-artifact high-water marks (the largest
/// single output, stream, table, or nesting depth seen); `fuel_spent`
/// and `resident_bytes` are cumulative meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeUsage {
    /// Total fuel charged so far.
    pub fuel_spent: u64,
    /// Demand-resident bytes currently charged.
    pub resident_bytes: u64,
    /// Largest resident footprint seen.
    pub peak_resident_bytes: u64,
    /// Largest single decoded output seen, in bytes.
    pub peak_output_bytes: u64,
    /// Largest stream symbol count seen.
    pub peak_stream_symbols: u64,
    /// Deepest pattern nesting seen.
    pub peak_pattern_depth: u32,
    /// Largest table seen, in entries.
    pub peak_table_entries: u64,
}

/// A live decode budget: [`DecodeLimits`] plus shared usage counters.
///
/// Cheap to clone; clones share the fuel and resident-byte meters, so
/// a pipeline hands `&Budget` (or a clone) to each layer and the whole
/// load is governed as one unit. [`Budget::with_limits`] derives a
/// handle with different ceilings over the *same* counters — the
/// retry-with-larger-budget path.
#[derive(Debug, Clone)]
pub struct Budget {
    limits: DecodeLimits,
    counters: Arc<Counters>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(DecodeLimits::default())
    }
}

impl Budget {
    /// A fresh budget governed by `limits`, with zeroed counters.
    pub fn new(limits: DecodeLimits) -> Self {
        Budget {
            limits,
            counters: Arc::new(Counters::default()),
        }
    }

    /// A budget that never trips (all limits at their maxima).
    pub fn unlimited() -> Self {
        Budget::new(DecodeLimits::unlimited())
    }

    /// The limits this handle enforces.
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// A handle with different ceilings over the same counters.
    pub fn with_limits(&self, limits: DecodeLimits) -> Budget {
        Budget {
            limits,
            counters: Arc::clone(&self.counters),
        }
    }

    /// Observed usage so far (shared across clones).
    pub fn usage(&self) -> DecodeUsage {
        let c = &self.counters;
        DecodeUsage {
            fuel_spent: c.fuel_spent.load(Ordering::Relaxed),
            resident_bytes: c.resident_bytes.load(Ordering::Relaxed),
            peak_resident_bytes: c.peak_resident_bytes.load(Ordering::Relaxed),
            peak_output_bytes: c.peak_output_bytes.load(Ordering::Relaxed),
            peak_stream_symbols: c.peak_stream_symbols.load(Ordering::Relaxed),
            peak_pattern_depth: c.peak_pattern_depth.load(Ordering::Relaxed) as u32,
            peak_table_entries: c.peak_table_entries.load(Ordering::Relaxed),
        }
    }

    /// Charges `steps` decode-fuel units; errs once total spend would
    /// exceed [`DecodeLimits::decode_fuel`].
    ///
    /// Decoders charge in deterministic batches (per stream, per table,
    /// every few thousand symbols on hot paths), so total spend for a
    /// given payload is exact and reproducible even though the trip
    /// *point* is batched.
    pub fn charge_fuel(&self, steps: u64) -> Result<(), DecodeError> {
        let prev = self.counters.fuel_spent.fetch_add(steps, Ordering::Relaxed);
        if prev.saturating_add(steps) > self.limits.decode_fuel {
            return Err(trip("decode fuel", self.limits.decode_fuel));
        }
        Ok(())
    }

    /// Checks a single decoded output of `bytes` bytes against
    /// [`DecodeLimits::max_output_bytes`], recording the high-water
    /// mark.
    pub fn check_output_bytes(&self, bytes: u64) -> Result<(), DecodeError> {
        self.counters
            .peak_output_bytes
            .fetch_max(bytes, Ordering::Relaxed);
        if bytes > self.limits.max_output_bytes {
            return Err(trip("decoded output bytes", self.limits.max_output_bytes));
        }
        Ok(())
    }

    /// Checks one stream's symbol count against
    /// [`DecodeLimits::max_stream_symbols`].
    pub fn check_stream_symbols(&self, symbols: u64) -> Result<(), DecodeError> {
        self.counters
            .peak_stream_symbols
            .fetch_max(symbols, Ordering::Relaxed);
        if symbols > self.limits.max_stream_symbols {
            return Err(trip("stream symbols", self.limits.max_stream_symbols));
        }
        Ok(())
    }

    /// Checks a pattern nesting depth against
    /// [`DecodeLimits::max_pattern_depth`].
    pub fn check_pattern_depth(&self, depth: u32) -> Result<(), DecodeError> {
        self.counters
            .peak_pattern_depth
            .fetch_max(u64::from(depth), Ordering::Relaxed);
        if depth > self.limits.max_pattern_depth {
            return Err(trip(
                "pattern nesting depth",
                u64::from(self.limits.max_pattern_depth),
            ));
        }
        Ok(())
    }

    /// Checks one table's entry count against
    /// [`DecodeLimits::max_table_entries`].
    pub fn check_table_entries(&self, entries: u64) -> Result<(), DecodeError> {
        self.counters
            .peak_table_entries
            .fetch_max(entries, Ordering::Relaxed);
        if entries > self.limits.max_table_entries {
            return Err(trip("table entries", self.limits.max_table_entries));
        }
        Ok(())
    }

    /// Charges `bytes` of demand-resident memory; errs (and rolls the
    /// charge back) once residency would exceed
    /// [`DecodeLimits::max_resident_bytes`].
    pub fn charge_resident(&self, bytes: u64) -> Result<(), DecodeError> {
        let prev = self
            .counters
            .resident_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        let now = prev.saturating_add(bytes);
        if now > self.limits.max_resident_bytes {
            self.counters
                .resident_bytes
                .fetch_sub(bytes, Ordering::Relaxed);
            return Err(trip(
                "demand-resident bytes",
                self.limits.max_resident_bytes,
            ));
        }
        self.counters
            .peak_resident_bytes
            .fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Publishes every meter and high-water mark as a `limits.*` gauge
    /// in the installed telemetry registry (no-op when disabled).
    ///
    /// Publication is explicit, not woven into the decode paths:
    /// unrelated budgets decoding in parallel (e.g. the test harness)
    /// must not race each other on the process-wide gauges. The CLI and
    /// the demand loader call this once per governed operation.
    pub fn publish_telemetry(&self) {
        if !telemetry::enabled() {
            return;
        }
        let u = self.usage();
        telemetry::gauge_set("limits.fuel_spent", u.fuel_spent);
        telemetry::gauge_set("limits.resident_bytes", u.resident_bytes);
        telemetry::gauge_max("limits.peak_resident_bytes", u.peak_resident_bytes);
        telemetry::gauge_max("limits.peak_output_bytes", u.peak_output_bytes);
        telemetry::gauge_max("limits.peak_stream_symbols", u.peak_stream_symbols);
        telemetry::gauge_max(
            "limits.peak_pattern_depth",
            u64::from(u.peak_pattern_depth),
        );
        telemetry::gauge_max("limits.peak_table_entries", u.peak_table_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_historical_values() {
        let d = DecodeLimits::default();
        assert_eq!(d.max_output_bytes, 1 << 28);
        assert_eq!(d.max_stream_symbols, 1 << 22);
        assert_eq!(d.max_pattern_depth, 128);
        assert_eq!(d.decode_fuel, u64::MAX);
        assert_eq!(d.max_resident_bytes, u64::MAX);
    }

    #[test]
    fn fuel_meters_and_trips_exactly() {
        let b = Budget::new(DecodeLimits {
            decode_fuel: 10,
            ..DecodeLimits::default()
        });
        assert!(b.charge_fuel(4).is_ok());
        assert!(b.charge_fuel(6).is_ok());
        assert_eq!(b.usage().fuel_spent, 10);
        let err = b.charge_fuel(1).unwrap_err();
        assert_eq!(err, DecodeError::limit("decode fuel", 10));
    }

    #[test]
    fn clones_share_counters_but_with_limits_rebinds_ceilings() {
        let a = Budget::new(DecodeLimits {
            decode_fuel: 5,
            ..DecodeLimits::default()
        });
        let b = a.clone();
        b.charge_fuel(5).unwrap();
        assert!(a.charge_fuel(1).is_err(), "clone shares the meter");
        let raised = a.with_limits(DecodeLimits {
            decode_fuel: 100,
            ..DecodeLimits::default()
        });
        assert!(raised.charge_fuel(1).is_ok(), "raised ceiling, same meter");
        assert_eq!(raised.usage().fuel_spent, a.usage().fuel_spent);
    }

    #[test]
    fn resident_rolls_back_on_refusal() {
        let b = Budget::new(DecodeLimits {
            max_resident_bytes: 100,
            ..DecodeLimits::default()
        });
        b.charge_resident(60).unwrap();
        assert!(b.charge_resident(50).is_err());
        assert_eq!(b.usage().resident_bytes, 60, "failed charge rolled back");
        b.charge_resident(40).unwrap();
        assert_eq!(b.usage().resident_bytes, 100);
        assert_eq!(b.usage().peak_resident_bytes, 100);
    }

    #[test]
    fn ceilings_record_high_water_marks() {
        let b = Budget::unlimited();
        b.check_output_bytes(10).unwrap();
        b.check_output_bytes(7).unwrap();
        b.check_stream_symbols(33).unwrap();
        b.check_pattern_depth(5).unwrap();
        b.check_table_entries(12).unwrap();
        let u = b.usage();
        assert_eq!(u.peak_output_bytes, 10);
        assert_eq!(u.peak_stream_symbols, 33);
        assert_eq!(u.peak_pattern_depth, 5);
        assert_eq!(u.peak_table_entries, 12);
    }

    #[test]
    fn zero_limits_trip_on_first_use() {
        let b = Budget::new(DecodeLimits {
            max_output_bytes: 0,
            max_stream_symbols: 0,
            max_table_entries: 0,
            decode_fuel: 0,
            ..DecodeLimits::default()
        });
        assert!(b.check_output_bytes(1).is_err());
        assert!(b.check_stream_symbols(1).is_err());
        assert!(b.check_table_entries(1).is_err());
        assert!(b.charge_fuel(1).is_err());
        // Zero-size artifacts still pass: the limit is a ceiling, not a ban.
        assert!(b.check_output_bytes(0).is_ok());
    }
}
