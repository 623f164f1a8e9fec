//! Soak + robustness suite for the demand-paging module server.
//!
//! Everything here is virtual-time and seed-deterministic: the big
//! soak drives ≥10,000 simulated requests across the paper's three
//! channel models at a 1% injected fault rate and must deliver every
//! non-source-corrupt function with zero panics, bounded per-request
//! attempts, bounded cache memory, and a bit-identical report on a
//! same-seed re-run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use codecomp_corpus::benchmarks;
use codecomp_ir::tree::Module;
use codecomp_serve::breaker::{BreakerPolicy, BreakerState};
use codecomp_serve::channel::{DeliveryOutcome, FaultyChannel, Transport};
use codecomp_serve::client::{ClientConfig, FetchClient, WireEvent};
use codecomp_serve::retry::RetryPolicy;
use codecomp_serve::server::{ModuleServer, ServeError, ServerConfig};
use codecomp_serve::soak::{corrupt_units, run_soak, SoakConfig};
use codecomp_serve::{MILLI, SECOND};
use codecomp_wire::demand::DemandImage;
use codecomp_wire::WireOptions;
use codecomp_memsim::Channel;

/// One module merging every corpus benchmark (names prefixed to stay
/// unique), so the image serves a few dozen distinct functions.
fn merged_corpus_module() -> Module {
    let mut merged = Module::default();
    for b in benchmarks() {
        let module = b.compile().expect("corpus programs compile");
        for mut f in module.functions {
            f.name = format!("{}__{}", b.name, f.name);
            merged.functions.push(f);
        }
        for mut g in module.globals {
            g.name = format!("{}__{}", b.name, g.name);
            merged.globals.push(g);
        }
    }
    merged
}

fn corpus_image() -> DemandImage {
    DemandImage::build(&merged_corpus_module(), WireOptions::default()).expect("demand build")
}

#[test]
fn soak_ten_thousand_requests_survives_and_repeats_exactly() {
    let image = corpus_image();
    let cfg = SoakConfig {
        seed: 0xC0DE_0001,
        clients: 15,
        requests_per_client: 700, // 10,500 requests ≥ the 10k bar
        fault_num: 1,
        fault_den: 100,
        ..SoakConfig::default()
    };
    assert!(cfg.channels.len() == 3, "all three paper channels in play");

    let report = run_soak(&image, &cfg);
    assert_eq!(report.requests, 10_500);
    assert_eq!(report.stuck_clients, 0, "no stuck requests");
    assert_eq!(
        report.undelivered,
        Vec::<String>::new(),
        "every non-source-corrupt function eventually delivered"
    );
    assert!(report.survived());
    let unit_count = image.names().count() as u64;
    assert_eq!(report.names_requested, unit_count, "workload covers every function");
    assert_eq!(report.names_delivered, unit_count, "every function delivered somewhere");
    assert!(report.delivered > 0 && report.delivered <= report.requests);
    assert_eq!(report.source_corrupt, 0, "pristine image has no source corruption");
    assert!(
        report.max_attempts_seen <= cfg.client.retry.max_attempts,
        "per-request retries bounded by policy: {} > {}",
        report.max_attempts_seen,
        cfg.client.retry.max_attempts
    );
    assert!(
        report.peak_cache_bytes <= cfg.server.max_cache_bytes,
        "cache memory bounded: {} > {}",
        report.peak_cache_bytes,
        cfg.server.max_cache_bytes
    );
    // 1% faults on ~10k attempts: faults must actually bite, and the
    // retry machinery must absorb them.
    assert!(report.retries > 0, "faults provoked retries");
    assert!(
        report.timeouts + report.corrupt_deliveries > 0,
        "injected faults were observed"
    );
    assert_eq!(
        report.requests,
        report.delivered + report.failed,
        "every request ends delivered or failed"
    );
    assert!(report.attempts >= report.requests, "each request costs ≥1 attempt");

    // Same seed → identical report, field for field (this is also the
    // telemetry-counter determinism gate: counter_totals derives from
    // the report).
    let again = run_soak(&image, &cfg);
    assert_eq!(report, again, "same-seed soak must be bit-identical");
    assert_eq!(report.counter_totals(), again.counter_totals());

    // Different seed → a genuinely different run (sanity that the seed
    // actually feeds the machinery).
    let other = run_soak(&image, &SoakConfig { seed: 0xC0DE_0002, ..cfg });
    assert_ne!(report.virtual_duration, other.virtual_duration);
}

#[test]
fn soak_with_source_corrupt_units_flags_them_and_delivers_the_rest() {
    let image = corpus_image();
    let (broken, corrupted) = corrupt_units(&image, 2, 77);
    assert!(!corrupted.is_empty(), "corruption took hold");

    let cfg = SoakConfig {
        seed: 0xBAD_5EED,
        clients: 9,
        // ~4 laps over the name list per client: a source-corrupt unit
        // accumulates enough consecutive failures to trip its breaker.
        requests_per_client: 256,
        fault_num: 1,
        fault_den: 100,
        ..SoakConfig::default()
    };
    let report = run_soak(&broken, &cfg);
    assert_eq!(report.stuck_clients, 0);
    assert!(report.source_corrupt > 0, "server verdicts reached clients");
    for name in &report.permanently_corrupt {
        assert!(corrupted.contains(name), "{name} flagged but not injected");
    }
    assert!(
        report.undelivered.is_empty(),
        "all healthy functions delivered; undelivered = {:?}",
        report.undelivered
    );
    assert!(
        report.breaker_opens > 0,
        "permanent corruption must trip breakers"
    );
}

#[test]
fn soak_sheds_under_overload_and_still_survives() {
    let image = corpus_image();
    let cfg = SoakConfig {
        seed: 0x5AED,
        clients: 24,
        requests_per_client: 40,
        fault_num: 0, // isolate shedding from channel faults
        fault_den: 100,
        think_time: 1, // hammer arrivals
        workers: 1,
        max_queue_wait: MILLI,
        decode_rate: 100_000.0, // slow virtual decoder
        ..SoakConfig::default()
    };
    let report = run_soak(&image, &cfg);
    assert!(report.sheds > 0, "overload must shed");
    assert_eq!(report.stuck_clients, 0, "shed requests are not stuck requests");
    assert!(
        report.undelivered.is_empty(),
        "load shedding may delay but not starve: {:?}",
        report.undelivered
    );
}

/// Satellite: a transiently faulty unit fails twice, then succeeds —
/// it must leave quarantine and the breaker must pass through
/// half-open, deterministically by seed.
#[test]
fn transient_fault_recovery_leaves_quarantine_and_half_opens_breaker() {
    let image = corpus_image();
    let name = image.names().next().expect("image has units").to_string();
    let unit = image.unit_bytes(&name).expect("unit bytes").to_vec();

    // Find a seed whose channel corrupts attempts 1 and 2 of request 0
    // and delivers attempt 3 clean. The search is deterministic, so
    // the chosen seed — and everything after it — replays exactly.
    let seed = (1u64..)
        .find(|&s| {
            let ch = FaultyChannel::new(Channel::lan_10mbit(), s, 1, 2);
            let fate = |attempt| {
                let d = ch.deliver(0, attempt, &unit);
                match d.outcome {
                    DeliveryOutcome::Delivered(bytes) => {
                        if bytes == unit {
                            Some(true) // clean
                        } else {
                            Some(false) // corrupted
                        }
                    }
                    DeliveryOutcome::TimedOut => None,
                }
            };
            fate(1) == Some(false) && fate(2) == Some(false) && fate(3) == Some(true)
        })
        .expect("a flaky seed exists");
    let channel = FaultyChannel::new(Channel::lan_10mbit(), seed, 1, 2);

    let cfg = ClientConfig {
        breaker: BreakerPolicy {
            failure_threshold: 2,
            cooldown: 50 * MILLI,
            escalation: 4,
            max_cooldown: 10 * SECOND,
        },
        retry: RetryPolicy::default(),
        ..ClientConfig::default()
    };
    let mut client = FetchClient::new(1, cfg, 42);

    let mut now = 0;
    // Attempts 1 and 2: corrupted deliveries — quarantine + breaker
    // trips open at the threshold.
    for attempt in 1..=2u32 {
        client.pre_admit(now, &name).expect("breaker closed");
        let d = channel.deliver(0, attempt, &unit);
        let DeliveryOutcome::Delivered(bytes) = &d.outcome else {
            panic!("seed guarantees delivery")
        };
        now += d.elapsed;
        let err = client
            .on_attempt(now, &name, WireEvent::Delivered { bytes, verified: true })
            .expect_err("corrupted delivery fails decode");
        assert!(!err.is_permanent());
    }
    assert!(client.quarantined(&name).is_some(), "unit quarantined after failures");
    assert_eq!(client.breaker_state(&name), BreakerState::Open);

    // While open: attempts are refused.
    let refused = client.pre_admit(now, &name);
    assert!(refused.is_err(), "open breaker refuses attempts");

    // After the cooldown: the probe is admitted half-open.
    now += 50 * MILLI;
    client.pre_admit(now, &name).expect("cooldown elapsed admits the probe");
    assert_eq!(
        client.breaker_state(&name),
        BreakerState::HalfOpen,
        "probe runs half-open"
    );

    // Attempt 3: clean delivery — quarantine clears, breaker closes.
    let d = channel.deliver(0, 3, &unit);
    let DeliveryOutcome::Delivered(bytes) = &d.outcome else {
        panic!("seed guarantees clean delivery")
    };
    now += d.elapsed;
    let f = client
        .on_attempt(now, &name, WireEvent::Delivered { bytes, verified: true })
        .expect("clean delivery decodes");
    assert_eq!(f.name, name);
    assert_eq!(client.quarantined(&name), None, "recovery leaves quarantine");
    assert_eq!(client.breaker_state(&name), BreakerState::Closed);
    let (opens, half_opens, recoveries, _) = client.breaker_totals();
    assert_eq!((opens, half_opens, recoveries), (1, 1, 1));
    assert_eq!(client.stats().recoveries, 1);
}

#[test]
fn module_server_is_send_sync_and_sheds_under_real_concurrency() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModuleServer>();
    assert_send_sync::<DemandImage>();

    let image = corpus_image();
    let names: Vec<String> = image.names().map(str::to_string).collect();
    let server = Arc::new(ModuleServer::new(
        image,
        ServerConfig {
            max_in_flight: 2, // tiny: force real admission sheds
            ..ServerConfig::default()
        },
    ));

    let served = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8u64)
        .map(|tid| {
            let server = Arc::clone(&server);
            let names = names.clone();
            let served = Arc::clone(&served);
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                for i in 0..200usize {
                    let name = &names[(i + tid as usize * 7) % names.len()];
                    match server.request(tid, name) {
                        Ok(resp) => {
                            assert!(!resp.bytes.is_empty());
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Shed { retry_after }) => {
                            assert!(retry_after > 0, "shed carries a retry-after hint");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected verdict {e:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no panics under concurrency");
    }

    let stats = server.stats();
    assert_eq!(stats.requests, 8 * 200);
    assert_eq!(
        served.load(Ordering::Relaxed) + shed.load(Ordering::Relaxed),
        8 * 200,
        "every request got exactly one verdict"
    );
    assert_eq!(stats.shed, shed.load(Ordering::Relaxed));
    assert_eq!(stats.verify_fails, 0, "pristine image never fails verification");
}

#[test]
fn server_degrades_to_raw_bytes_under_memory_pressure() {
    let image = corpus_image();
    let names: Vec<String> = image.names().map(str::to_string).collect();

    // Zero cache: every response is raw (unverified), nothing cached.
    let raw_only = ModuleServer::new(image.clone(), ServerConfig {
        max_cache_bytes: 0,
        ..ServerConfig::default()
    });
    for name in &names {
        let resp = raw_only.request(0, name).expect("serves raw");
        assert!(!resp.verified, "{name} must be served raw at zero cache");
        assert!(!resp.cache_hit);
    }
    let s = raw_only.stats();
    assert_eq!(s.raw_fallbacks, names.len() as u64);
    assert_eq!(s.verify_decodes, 0, "raw fallback skips the decode");
    assert_eq!(raw_only.cache_bytes(), 0);

    // Tiny cache, one shard: verification still happens but eviction
    // sweeps keep residency bounded.
    let tiny = ModuleServer::new(image.clone(), ServerConfig {
        max_cache_bytes: 4_096,
        shards: 1,
        ..ServerConfig::default()
    });
    for _ in 0..3 {
        for name in &names {
            let _ = tiny.request(0, name).expect("serves");
        }
    }
    let st = tiny.stats();
    assert!(
        st.evictions > 0 || st.uncacheable > 0,
        "tiny cache must evict or refuse residency"
    );
    assert!(tiny.cache_bytes() <= 4_096, "cache stays within its bound");
    assert!(st.peak_cache_bytes <= 4_096, "peak never exceeds the cap");

    // Healthy cache: second pass is all verified hits.
    let healthy = ModuleServer::new(image, ServerConfig::default());
    for name in &names {
        let _ = healthy.request(0, name).expect("first pass");
    }
    for name in &names {
        let resp = healthy.request(0, name).expect("second pass");
        assert!(resp.verified && resp.cache_hit, "{name} should be a verified hit");
        assert!(healthy.cached_function(name).is_some());
    }
}
