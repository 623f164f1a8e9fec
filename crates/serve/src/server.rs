//! Thread-safe demand-paging function server.
//!
//! [`ModuleServer`] serves compressed function units out of a
//! [`DemandImage`]. Every served unit is *verified* when capacity
//! allows — decoded server-side into a tree cached in a sharded cache
//! (one mutex per shard; each entry stamped from the shard's logical
//! clock on every use; an over-full shard drops its oldest half in one
//! sweep; a unit that fails to verify is never cached) — and the
//! verdicts degrade gracefully:
//!
//! - cache hit → serve bytes, already verified;
//! - cache miss with headroom → verify-decode under the requesting
//!   client's [`Budget`], cache the tree, serve verified bytes;
//! - memory pressure (unit too big for a shard, or the client's budget
//!   trips) → skip verification and serve **raw compressed bytes** for
//!   client-side decode;
//! - verify decode fails structurally → the unit is corrupt at the
//!   source: an explicit [`ServeError::Corrupt`] verdict so clients
//!   stop retrying;
//! - admission saturated → **shed** with an explicit retry-after hint
//!   instead of queueing unboundedly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use codecomp_core::limits::{Budget, DecodeLimits};
use codecomp_core::telemetry;
use codecomp_ir::tree::Function;
use codecomp_wire::demand::DemandImage;
use codecomp_wire::WireError;

use crate::{Nanos, MILLI};

/// Rough decoded-size multiplier over compressed unit bytes, used to
/// predict whether a unit can fit a shard before paying the decode.
const EXPANSION_ESTIMATE: u64 = 8;

/// Approximate resident bytes per decoded tree node.
const NODE_COST: u64 = 48;

/// Tunables for [`ModuleServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Cache shard count (each behind its own mutex).
    pub shards: usize,
    /// Decoded-tree cache ceiling in (approximate) bytes, across all
    /// shards. 0 disables verification caching entirely: every request
    /// is served raw.
    pub max_cache_bytes: u64,
    /// Concurrent requests admitted before shedding.
    pub max_in_flight: usize,
    /// Retry-after hint attached to shed verdicts.
    pub shed_retry_after: Nanos,
    /// Basis for per-client verify budgets.
    pub limits: DecodeLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 8,
            max_cache_bytes: 8 << 20,
            max_in_flight: 64,
            shed_retry_after: 10 * MILLI,
            limits: DecodeLimits::default(),
        }
    }
}

/// Why a request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission saturated; retry after the hinted virtual delay.
    Shed {
        /// Suggested wait before retrying.
        retry_after: Nanos,
    },
    /// No unit of that name in the image.
    UnknownFunction,
    /// Server-side verification failed: the unit is corrupt **at the
    /// source**, so retrying cannot help.
    Corrupt {
        /// Decode error description.
        what: String,
    },
}

/// A served unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeResponse {
    /// The compressed unit bytes (the client decodes these locally —
    /// the server never ships decoded trees).
    pub bytes: Vec<u8>,
    /// Whether the server verified the unit decodes cleanly. `false`
    /// means raw fallback: the client must treat decode failure as a
    /// possibly-transient channel fault, not a source verdict.
    pub verified: bool,
    /// Whether verification was answered from the cache.
    pub cache_hit: bool,
}

/// Point-in-time server statistics (plain totals since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests received (before admission).
    pub requests: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Verification cache hits.
    pub cache_hits: u64,
    /// Verification cache misses.
    pub cache_misses: u64,
    /// Entries evicted by sweeps.
    pub evictions: u64,
    /// Requests served raw under memory/budget pressure.
    pub raw_fallbacks: u64,
    /// Verify decodes that failed structurally (source corruption).
    pub verify_fails: u64,
    /// Verify decodes performed.
    pub verify_decodes: u64,
    /// Verified units too costly for their shard to cache (served
    /// verified, not resident).
    pub uncacheable: u64,
    /// Peak approximate cached bytes across all shards.
    pub peak_cache_bytes: u64,
}

struct Entry {
    stamp: u64,
    cost: u64,
    function: Arc<Function>,
}

#[derive(Default)]
struct Shard {
    entries: BTreeMap<String, Entry>,
    clock: u64,
    bytes: u64,
}

impl Shard {
    /// Drops the oldest half of the entries by stamp in one sweep, so
    /// eviction is paid once per half-shard rather than per insert.
    fn evict_oldest_half(&mut self) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        let mut stamps: Vec<u64> = self.entries.values().map(|e| e.stamp).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 2];
        let doomed: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.stamp < cutoff.max(1))
            .map(|(k, _)| k.clone())
            .collect();
        // Always evict at least one entry so a single oversized
        // resident can't wedge the sweep.
        let doomed = if doomed.is_empty() {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            oldest.into_iter().collect()
        } else {
            doomed
        };
        let mut evicted = 0;
        for name in doomed {
            if let Some(e) = self.entries.remove(&name) {
                self.bytes = self.bytes.saturating_sub(e.cost);
                evicted += 1;
            }
        }
        evicted
    }
}

struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evictions: AtomicU64,
    raw_fallbacks: AtomicU64,
    verify_fails: AtomicU64,
    verify_decodes: AtomicU64,
    uncacheable: AtomicU64,
    peak_cache_bytes: AtomicU64,
}

impl Counters {
    const fn new() -> Counters {
        Counters {
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            raw_fallbacks: AtomicU64::new(0),
            verify_fails: AtomicU64::new(0),
            verify_decodes: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
            peak_cache_bytes: AtomicU64::new(0),
        }
    }
}

/// Thread-safe demand-paging server over one [`DemandImage`].
pub struct ModuleServer {
    image: DemandImage,
    cfg: ServerConfig,
    shards: Vec<Mutex<Shard>>,
    in_flight: AtomicUsize,
    clients: Mutex<BTreeMap<u64, Budget>>,
    stats: Counters,
}

/// RAII admission slot; dropping it releases the in-flight count.
pub struct AdmitGuard<'a> {
    server: &'a ModuleServer,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.server.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ModuleServer {
    /// A server over `image` under `cfg`.
    #[must_use]
    pub fn new(image: DemandImage, cfg: ServerConfig) -> ModuleServer {
        let shards = cfg.shards.max(1);
        ModuleServer {
            image,
            cfg,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            in_flight: AtomicUsize::new(0),
            clients: Mutex::new(BTreeMap::new()),
            stats: Counters::new(),
        }
    }

    /// The image being served.
    #[must_use]
    pub fn image(&self) -> &DemandImage {
        &self.image
    }

    /// Tries to take an admission slot; `None` means the caller should
    /// shed.
    fn try_admit(&self) -> Option<AdmitGuard<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.cfg.max_in_flight.max(1) {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(AdmitGuard { server: self })
    }

    fn shard_budget(&self) -> u64 {
        self.cfg.max_cache_bytes / self.shards.len() as u64
    }

    fn shard_of(&self, name: &str) -> usize {
        // FNV-1a; stable across runs for deterministic shard layout.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn lock_shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[i].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared [`Budget`] verifying decodes on behalf of `client`.
    /// Created on first use from the configured limits, so one
    /// client's expensive traffic trips *its* meters, not its
    /// neighbors'.
    pub fn client_budget(&self, client: u64) -> Budget {
        self.clients
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(client)
            .or_insert_with(|| Budget::new(self.cfg.limits))
            .clone()
    }

    /// Whether `name` is currently verified in the cache (cheap peek;
    /// does not touch recency).
    #[must_use]
    pub fn is_cached(&self, name: &str) -> bool {
        self.lock_shard(self.shard_of(name)).entries.contains_key(name)
    }

    /// The cached decoded tree for `name`, if verification cached one.
    #[must_use]
    pub fn cached_function(&self, name: &str) -> Option<Arc<Function>> {
        self.lock_shard(self.shard_of(name))
            .entries
            .get(name)
            .map(|e| Arc::clone(&e.function))
    }

    /// Serves one function unit for `client`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shed`] at admission saturation,
    /// [`ServeError::UnknownFunction`] for names not in the image, and
    /// [`ServeError::Corrupt`] when server-side verification proves
    /// the unit undecodable at the source.
    pub fn request(&self, client: u64, name: &str) -> Result<ServeResponse, ServeError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let Some(_slot) = self.try_admit() else {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Shed { retry_after: self.cfg.shed_retry_after });
        };
        let Some(bytes) = self.image.unit_bytes(name) else {
            return Err(ServeError::UnknownFunction);
        };

        let shard_i = self.shard_of(name);
        {
            let mut shard = self.lock_shard(shard_i);
            shard.clock += 1;
            let clock = shard.clock;
            if let Some(e) = shard.entries.get_mut(name) {
                e.stamp = clock;
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(ServeResponse { bytes: bytes.to_vec(), verified: true, cache_hit: true });
            }
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Memory pressure check before paying the decode: an entry that
        // could never fit is served raw.
        let shard_budget = self.shard_budget();
        let estimate = (bytes.len() as u64).saturating_mul(EXPANSION_ESTIMATE);
        if shard_budget == 0 || estimate > shard_budget {
            self.stats.raw_fallbacks.fetch_add(1, Ordering::Relaxed);
            return Ok(ServeResponse { bytes: bytes.to_vec(), verified: false, cache_hit: false });
        }

        // Verify decode under the requesting client's budget. The lock
        // is *not* held across the decode; concurrent misses on the
        // same unit may both decode (harmless — last insert wins).
        let budget = self.client_budget(client);
        self.stats.verify_decodes.fetch_add(1, Ordering::Relaxed);
        match self.image.load_function_budgeted(name, &budget) {
            Ok(function) => {
                if function.name != name {
                    self.stats.verify_fails.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Corrupt {
                        what: format!("unit decodes to mismatched name {}", function.name),
                    });
                }
                let cost = (function.node_count() as u64)
                    .saturating_mul(NODE_COST)
                    .saturating_add(name.len() as u64 + 64);
                if cost > shard_budget {
                    // The byte estimate admitted it but the decoded
                    // tree is too big for its shard: serve verified,
                    // keep nothing resident — residency stays bounded.
                    self.stats.uncacheable.fetch_add(1, Ordering::Relaxed);
                    return Ok(ServeResponse {
                        bytes: bytes.to_vec(),
                        verified: true,
                        cache_hit: false,
                    });
                }
                let mut shard = self.lock_shard(shard_i);
                shard.clock += 1;
                let stamp = shard.clock;
                let prev = shard
                    .entries
                    .insert(name.to_string(), Entry { stamp, cost, function: Arc::new(function) });
                shard.bytes = shard.bytes.saturating_sub(prev.map_or(0, |p| p.cost));
                shard.bytes = shard.bytes.saturating_add(cost);
                let mut evicted = 0;
                while shard.bytes > shard_budget && shard.entries.len() > 1 {
                    evicted += shard.evict_oldest_half();
                }
                if evicted > 0 {
                    self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                let shard_bytes = shard.bytes;
                drop(shard);
                self.note_peak(shard_bytes, shard_i);
                Ok(ServeResponse { bytes: bytes.to_vec(), verified: true, cache_hit: false })
            }
            Err(WireError::Limit { .. }) => {
                // Budget pressure, not corruption: degrade to raw.
                self.stats.raw_fallbacks.fetch_add(1, Ordering::Relaxed);
                Ok(ServeResponse { bytes: bytes.to_vec(), verified: false, cache_hit: false })
            }
            Err(e) => {
                self.stats.verify_fails.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Corrupt { what: e.to_string() })
            }
        }
    }

    /// Records the new total cached-bytes peak after shard `changed`
    /// moved to `changed_bytes`.
    fn note_peak(&self, changed_bytes: u64, changed: usize) {
        let mut total = changed_bytes;
        for (i, s) in self.shards.iter().enumerate() {
            if i != changed {
                total += s.lock().unwrap_or_else(PoisonError::into_inner).bytes;
            }
        }
        self.stats.peak_cache_bytes.fetch_max(total, Ordering::Relaxed);
    }

    /// Approximate bytes currently held by the verification cache.
    #[must_use]
    pub fn cache_bytes(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.lock_shard(i).bytes).sum()
    }

    /// Snapshot of the server counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            raw_fallbacks: self.stats.raw_fallbacks.load(Ordering::Relaxed),
            verify_fails: self.stats.verify_fails.load(Ordering::Relaxed),
            verify_decodes: self.stats.verify_decodes.load(Ordering::Relaxed),
            uncacheable: self.stats.uncacheable.load(Ordering::Relaxed),
            peak_cache_bytes: self.stats.peak_cache_bytes.load(Ordering::Relaxed),
        }
    }

    /// Publishes the counter totals into the telemetry registry as
    /// `serve.server.*`. Call once at end of a pass (totals are
    /// *added*, so call exactly once per server lifetime for exact
    /// registry totals).
    pub fn publish_telemetry(&self) {
        let s = self.stats();
        telemetry::counter_add("serve.server.requests", s.requests);
        telemetry::counter_add("serve.server.shed", s.shed);
        telemetry::counter_add("serve.cache.hits", s.cache_hits);
        telemetry::counter_add("serve.cache.misses", s.cache_misses);
        telemetry::counter_add("serve.cache.evictions", s.evictions);
        telemetry::counter_add("serve.server.raw_fallbacks", s.raw_fallbacks);
        telemetry::counter_add("serve.server.verify_fails", s.verify_fails);
        telemetry::counter_add("serve.server.verify_decodes", s.verify_decodes);
        telemetry::counter_add("serve.server.uncacheable", s.uncacheable);
        telemetry::gauge_max("serve.cache.peak_bytes", s.peak_cache_bytes);
    }
}
