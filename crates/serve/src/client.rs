//! Client-side fetch bookkeeping: quarantine, circuit breaking, and
//! budgeted local decode.
//!
//! [`FetchClient`] is the state machine one simulated client runs per
//! delivery attempt. The caller (the soak harness, or a test scripting
//! a [`crate::channel::Transport`]) performs the wire work and feeds
//! the outcome in as a [`WireEvent`]; the client decides what it means:
//! decode the bytes under its own [`Budget`], quarantine failures with
//! their cause (PR 3's discipline), and drive the per-function
//! [`CircuitBreaker`] so persistent failures stop consuming retries.

use std::collections::BTreeMap;

use codecomp_core::fault::XorShift64;
use codecomp_core::limits::{Budget, DecodeLimits};
use codecomp_ir::tree::Function;

use crate::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::retry::RetryPolicy;
use crate::{Nanos, SECOND};

/// Tunables for one [`FetchClient`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Retry/backoff/deadline policy.
    pub retry: RetryPolicy,
    /// Per-function breaker policy.
    pub breaker: BreakerPolicy,
    /// Basis for the client-side decode budget (fresh per attempt, so
    /// corrupted deliveries cannot drain the client's meters).
    pub limits: DecodeLimits,
    /// Per-attempt wire cutoff handed to the channel.
    pub attempt_timeout: Nanos,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            limits: DecodeLimits::default(),
            attempt_timeout: 30 * SECOND,
        }
    }
}

/// What the wire produced for one attempt, as seen by the client.
#[derive(Debug, Clone)]
pub enum WireEvent<'a> {
    /// Server shed the request (pushback, not a unit failure).
    Shed {
        /// Server's suggested wait.
        retry_after: Nanos,
    },
    /// Server verdict: the unit is corrupt at the source.
    SourceCorrupt {
        /// Decode error description.
        what: String,
    },
    /// Server has no such unit.
    Unknown,
    /// Bytes arrived (possibly corrupted in flight).
    Delivered {
        /// Compressed unit bytes, post-channel.
        bytes: &'a [u8],
        /// Whether the server verified the unit at the source.
        verified: bool,
    },
    /// Nothing arrived before the attempt cutoff.
    TimedOut,
}

/// Why an attempt did not yield a resident function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// The per-function breaker refused the attempt.
    BreakerOpen {
        /// Earliest virtual time a probe may run.
        until: Nanos,
    },
    /// Server pushback; retry after the hint.
    Shed {
        /// Server's suggested wait.
        retry_after: Nanos,
    },
    /// Source-corrupt verdict from the server (permanent).
    SourceCorrupt {
        /// Decode error description.
        what: String,
    },
    /// No such function (permanent).
    Unknown,
    /// Attempt cutoff elapsed.
    Timeout,
    /// Delivered bytes failed the local decode (channel corruption, or
    /// source corruption when the server could not verify).
    CorruptDelivery {
        /// Decode error description.
        what: String,
    },
}

impl AttemptError {
    /// Whether retrying can never help.
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        matches!(self, AttemptError::SourceCorrupt { .. } | AttemptError::Unknown)
    }
}

/// Aggregate per-client counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Wire attempts fed through [`FetchClient::on_attempt`].
    pub attempts: u64,
    /// Attempts that produced a resident function.
    pub successes: u64,
    /// Shed verdicts observed.
    pub sheds: u64,
    /// Attempt timeouts.
    pub timeouts: u64,
    /// Local decode failures on delivered bytes.
    pub corrupt_deliveries: u64,
    /// Source-corrupt verdicts observed.
    pub source_corrupt: u64,
    /// Functions that entered quarantine at least once.
    pub quarantines: u64,
    /// Quarantine exits (a previously failing unit decoded cleanly).
    pub recoveries: u64,
}

/// One simulated client's fetch state.
pub struct FetchClient {
    id: u64,
    cfg: ClientConfig,
    rng: XorShift64,
    breakers: BTreeMap<String, CircuitBreaker>,
    quarantine: BTreeMap<String, String>,
    resident: BTreeMap<String, Function>,
    stats: ClientStats,
}

impl FetchClient {
    /// A fresh client. `seed` drives only backoff jitter.
    #[must_use]
    pub fn new(id: u64, cfg: ClientConfig, seed: u64) -> FetchClient {
        FetchClient {
            id,
            cfg,
            rng: XorShift64::new(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            breakers: BTreeMap::new(),
            quarantine: BTreeMap::new(),
            resident: BTreeMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// Client id (the server's budget key).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This client's configuration.
    #[must_use]
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Current breaker state for `name` (closed if never touched).
    #[must_use]
    pub fn breaker_state(&self, name: &str) -> BreakerState {
        self.breakers.get(name).map_or(BreakerState::Closed, CircuitBreaker::state)
    }

    /// Sums breaker counters across all functions:
    /// `(opens, half_opens, recoveries, rejects)`.
    #[must_use]
    pub fn breaker_totals(&self) -> (u64, u64, u64, u64) {
        self.breakers.values().fold((0, 0, 0, 0), |acc, b| {
            (acc.0 + b.opens, acc.1 + b.half_opens, acc.2 + b.recoveries, acc.3 + b.rejects)
        })
    }

    /// The quarantine cause for `name`, if it is quarantined.
    #[must_use]
    pub fn quarantined(&self, name: &str) -> Option<&str> {
        self.quarantine.get(name).map(String::as_str)
    }

    /// Number of functions currently quarantined.
    #[must_use]
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }

    /// The resident decoded function, if delivered.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.resident.get(name)
    }

    /// Gate an attempt on the per-function breaker at virtual `now`.
    ///
    /// # Errors
    ///
    /// [`AttemptError::BreakerOpen`] while the breaker's cooldown runs.
    pub fn pre_admit(&mut self, now: Nanos, name: &str) -> Result<(), AttemptError> {
        let policy = self.cfg.breaker;
        let b = self
            .breakers
            .entry(name.to_string())
            .or_insert_with(|| CircuitBreaker::new(policy));
        if b.admit(now) {
            Ok(())
        } else {
            Err(AttemptError::BreakerOpen { until: b.retry_at().unwrap_or(now) })
        }
    }

    /// Feeds one wire outcome in at completion time `now`; on success
    /// the function is resident and any quarantine entry is cleared.
    ///
    /// # Errors
    ///
    /// The [`AttemptError`] classification of the failure; breaker and
    /// quarantine bookkeeping is already applied.
    pub fn on_attempt(
        &mut self,
        now: Nanos,
        name: &str,
        event: WireEvent<'_>,
    ) -> Result<&Function, AttemptError> {
        self.stats.attempts += 1;
        match event {
            WireEvent::Shed { retry_after } => {
                // Pushback, not a unit failure: no breaker penalty.
                self.stats.sheds += 1;
                Err(AttemptError::Shed { retry_after })
            }
            WireEvent::SourceCorrupt { what } => {
                self.stats.source_corrupt += 1;
                self.note_failure(now, name, &what);
                Err(AttemptError::SourceCorrupt { what })
            }
            WireEvent::Unknown => {
                self.note_failure(now, name, "unknown function");
                Err(AttemptError::Unknown)
            }
            WireEvent::TimedOut => {
                self.stats.timeouts += 1;
                self.breaker_mut(name).record_failure(now);
                Err(AttemptError::Timeout)
            }
            WireEvent::Delivered { bytes, verified: _ } => {
                // Fresh budget per attempt: a corrupted delivery must
                // not drain meters shared with future attempts.
                let budget = Budget::new(self.cfg.limits);
                match decode_unit(bytes, name, &budget) {
                    Ok(function) => {
                        self.stats.successes += 1;
                        if self.quarantine.remove(name).is_some() {
                            self.stats.recoveries += 1;
                        }
                        self.breaker_mut(name).record_success();
                        Ok(self.resident.entry(name.to_string()).or_insert(function))
                    }
                    Err(what) => {
                        self.stats.corrupt_deliveries += 1;
                        self.note_failure(now, name, &what);
                        Err(AttemptError::CorruptDelivery { what })
                    }
                }
            }
        }
    }

    /// Earliest virtual time the next attempt should run after attempt
    /// number `attempt` (1-based) failed at `now`: backoff with
    /// deterministic jitter, pushed past the breaker cooldown if the
    /// failure tripped it.
    pub fn next_retry_at(&mut self, now: Nanos, name: &str, attempt: u32) -> Nanos {
        let backoff = self.cfg.retry.backoff(attempt, &mut self.rng);
        let at = now.saturating_add(backoff);
        match self.breakers.get(name).and_then(CircuitBreaker::retry_at) {
            Some(open_until) => at.max(open_until),
            None => at,
        }
    }

    fn breaker_mut(&mut self, name: &str) -> &mut CircuitBreaker {
        let policy = self.cfg.breaker;
        self.breakers
            .entry(name.to_string())
            .or_insert_with(|| CircuitBreaker::new(policy))
    }

    fn note_failure(&mut self, now: Nanos, name: &str, what: &str) {
        if self.quarantine.insert(name.to_string(), what.to_string()).is_none() {
            self.stats.quarantines += 1;
        }
        self.breaker_mut(name).record_failure(now);
    }
}

/// Decodes one unit's bytes — a single-function wire module, as
/// produced by `DemandImage::unit_bytes` — into the named function,
/// mapping every decode error to its display string.
fn decode_unit(bytes: &[u8], name: &str, budget: &Budget) -> Result<Function, String> {
    match codecomp_wire::decompress_budgeted(bytes, budget) {
        Ok(module) => module
            .functions
            .into_iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unit does not contain function {name}")),
        Err(e) => Err(e.to_string()),
    }
}
