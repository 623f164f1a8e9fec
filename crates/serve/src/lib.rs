//! Fault-tolerant demand-paging module server.
//!
//! The paper's delivery story ships compressed code over slow,
//! unreliable channels (28.8k modems, LANs, disks) and demand-loads a
//! function at a time. Everything below PR 8 ran in-process over
//! perfect byte slices; this crate is where the quarantine/retry
//! machinery finally meets the failure modes it exists for.
//!
//! The pieces:
//!
//! - [`channel`] — a fault-injecting byte transport. Transfer times
//!   come from [`codecomp_memsim::Channel`] bandwidth/latency models;
//!   faults (truncation, bit corruption, delay, timeout) are seeded
//!   and deterministic per `(seed, request, attempt)` via
//!   [`codecomp_core::fault::XorShift64`] and
//!   [`codecomp_core::fault::Mutation`].
//! - [`retry`] — deadline-aware exponential backoff with
//!   deterministic jitter. No wall-clock reads: all service time is
//!   virtual nanoseconds.
//! - [`breaker`] — a per-function circuit breaker (closed → open →
//!   half-open) that escalates PR 3's quarantine so a persistently
//!   corrupt unit stops consuming retries while transiently faulty
//!   ones recover.
//! - [`server`] — [`server::ModuleServer`]: a thread-safe function-unit
//!   server with a sharded verification cache (per-shard mutex,
//!   stamp-ordered eviction of the oldest half of a full shard),
//!   per-client [`codecomp_core::limits::Budget`]s, bounded admission
//!   that sheds load with an explicit retry-after verdict, and raw-bytes
//!   fallback under memory pressure.
//! - [`client`] — [`client::FetchClient`]: quarantine + breaker + decode
//!   bookkeeping for one simulated client.
//! - [`soak`] — a discrete-event soak harness driving N clients over
//!   the three paper channel models at configurable fault rates,
//!   asserting survival (no panics, no stuck requests, bounded memory,
//!   eventual delivery) and publishing `serve.*` telemetry.
//!
//! Time is virtual everywhere ([`Nanos`], u64 nanoseconds) so every
//! test and the soak harness are bit-deterministic in their seed.

pub mod breaker;
pub mod channel;
pub mod client;
pub mod retry;
pub mod server;
pub mod soak;

/// Virtual time in nanoseconds. The soak harness and all policies use
/// virtual time so tests never read the wall clock.
pub type Nanos = u64;

/// One virtual second.
pub const SECOND: Nanos = 1_000_000_000;

/// One virtual millisecond.
pub const MILLI: Nanos = 1_000_000;

/// Converts a seconds figure from `memsim` into virtual nanoseconds,
/// saturating on overflow and never rounding a positive duration to 0.
#[must_use]
pub fn secs_to_nanos(secs: f64) -> Nanos {
    if !secs.is_finite() || secs <= 0.0 {
        return 0;
    }
    let n = secs * 1e9;
    if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        (n as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_nanos_boundaries() {
        assert_eq!(secs_to_nanos(0.0), 0);
        assert_eq!(secs_to_nanos(-1.0), 0);
        assert_eq!(secs_to_nanos(f64::NAN), 0);
        assert_eq!(secs_to_nanos(1.0), SECOND);
        assert_eq!(secs_to_nanos(1e-12), 1, "positive time never rounds to 0");
        assert_eq!(secs_to_nanos(1e30), u64::MAX);
    }
}
