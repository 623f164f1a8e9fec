//! Transmission and paging cost models.
//!
//! The paper's introduction argues from *system-wide* cost: "Computer
//! programs are delivered to the CPU via networks, disks, and caches,
//! all of which can be bottlenecks. In some important scenarios, it can
//! be significantly faster to send compressed code that is then
//! interpreted or decompressed and executed." This crate provides the
//! models those claims are evaluated with:
//!
//! - [`Channel`]: bandwidth/latency delivery channels (28.8k modem,
//!   10 Mbit LAN, disk).
//! - [`DeliveryPlan`] / [`total_time`]: end-to-end time to useful work —
//!   transfer + decompress + translate ("JIT") + run — with optional
//!   overlap of translation and transfer ("the delivery time … can mask
//!   some or even all of the recompilation time").
//! - [`Pager`]: the set of pages a code-touch trace touches, for the
//!   working-set experiment ("we have seen the CPU idle for most of the
//!   time during paging, so compressing pages can increase total
//!   performance").

use std::collections::HashSet;

/// A delivery channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Bytes per second.
    pub bandwidth: f64,
    /// Fixed startup latency in seconds.
    pub latency: f64,
}

impl Channel {
    /// A 28.8 kbit/s modem (the paper's canonical slow link).
    pub fn modem_28k8() -> Channel {
        Channel {
            bandwidth: 28_800.0 / 8.0,
            latency: 0.1,
        }
    }

    /// A 10 Mbit/s local-area network.
    pub fn lan_10mbit() -> Channel {
        Channel {
            bandwidth: 10_000_000.0 / 8.0,
            latency: 0.005,
        }
    }

    /// A mid-1990s disk (~5 MB/s sustained, ~12 ms seek).
    pub fn disk() -> Channel {
        Channel {
            bandwidth: 5_000_000.0,
            latency: 0.012,
        }
    }

    /// An arbitrary channel of `bits_per_sec`.
    pub fn from_bits_per_sec(bits_per_sec: f64) -> Channel {
        Channel {
            bandwidth: bits_per_sec / 8.0,
            latency: 0.0,
        }
    }

    /// Seconds to transfer `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// CPU-side cost parameters, normalized to the native tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Native execution time for the whole workload, in seconds.
    pub native_run_time: f64,
    /// Interpreted-tier slowdown relative to native (the paper's ~12×).
    pub interp_slowdown: f64,
    /// Translation ("JIT") rate in bytes of *produced* native code per
    /// second (the paper's 2.5 MB/s on a 120 MHz Pentium).
    pub jit_rate: f64,
    /// Wire-format decompression rate in input bytes per second.
    pub decompress_rate: f64,
}

impl CpuModel {
    /// Parameters shaped like the paper's 120 MHz Pentium measurements.
    pub fn pentium_like(native_run_time: f64) -> CpuModel {
        CpuModel {
            native_run_time,
            interp_slowdown: 12.0,
            jit_rate: 2_500_000.0,
            decompress_rate: 4_000_000.0,
        }
    }
}

/// How the code arrives and is made runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeliveryPlan {
    /// Native code shipped as-is and executed.
    Native {
        /// Native image size.
        bytes: usize,
    },
    /// gzip-compressed native code: decompress, then run natively.
    CompressedNative {
        /// Compressed transfer size.
        compressed: usize,
        /// Decompressed native size (drives decompression cost).
        native: usize,
    },
    /// Wire-format code: decompress, translate, run natively.
    Wire {
        /// Compressed transfer size.
        compressed: usize,
        /// Native code size produced by translation.
        native: usize,
    },
    /// BRISC: ship compressed, translate directly (overlappable), run.
    BriscJit {
        /// BRISC image size.
        compressed: usize,
        /// Native code size produced.
        native: usize,
    },
    /// BRISC: ship compressed and interpret in place — no translation.
    BriscInterp {
        /// BRISC image size.
        compressed: usize,
    },
}

impl DeliveryPlan {
    /// Bytes that cross the channel.
    pub fn transfer_bytes(&self) -> usize {
        match *self {
            DeliveryPlan::Native { bytes } => bytes,
            DeliveryPlan::CompressedNative { compressed, .. }
            | DeliveryPlan::Wire { compressed, .. }
            | DeliveryPlan::BriscJit { compressed, .. }
            | DeliveryPlan::BriscInterp { compressed } => compressed,
        }
    }

    /// CPU preparation time after (or during) delivery.
    pub fn prep_time(&self, cpu: &CpuModel) -> f64 {
        match *self {
            DeliveryPlan::Native { .. } => 0.0,
            DeliveryPlan::CompressedNative { native, .. } => native as f64 / cpu.decompress_rate,
            DeliveryPlan::Wire { native, .. } => {
                // Decompression then code generation, both proportional
                // to the produced size.
                native as f64 / cpu.decompress_rate + native as f64 / cpu.jit_rate
            }
            DeliveryPlan::BriscJit { native, .. } => native as f64 / cpu.jit_rate,
            DeliveryPlan::BriscInterp { .. } => 0.0,
        }
    }

    /// Execution time.
    pub fn run_time(&self, cpu: &CpuModel) -> f64 {
        match self {
            DeliveryPlan::BriscInterp { .. } => cpu.native_run_time * cpu.interp_slowdown,
            _ => cpu.native_run_time,
        }
    }
}

/// Whether preparation may overlap the transfer (streamed translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// Strictly sequential: transfer, then prepare, then run.
    Sequential,
    /// Preparation is masked by the transfer where possible.
    Pipelined,
}

/// End-to-end time from request to workload completion.
pub fn total_time(plan: &DeliveryPlan, channel: &Channel, cpu: &CpuModel, overlap: Overlap) -> f64 {
    codecomp_core::telemetry::counter_add("memsim.scenarios", 1);
    let transfer = channel.transfer_time(plan.transfer_bytes());
    let prep = plan.prep_time(cpu);
    let startup = match overlap {
        Overlap::Sequential => transfer + prep,
        Overlap::Pipelined => transfer.max(prep),
    };
    startup + plan.run_time(cpu)
}

/// Finds the bandwidth (bits/s) at which two plans cost the same, by
/// bisection over `lo..hi`. Returns `None` when no crossover exists in
/// the range.
pub fn crossover_bandwidth(
    a: &DeliveryPlan,
    b: &DeliveryPlan,
    cpu: &CpuModel,
    overlap: Overlap,
    lo_bits: f64,
    hi_bits: f64,
) -> Option<f64> {
    let diff = |bits: f64| {
        let ch = Channel::from_bits_per_sec(bits);
        total_time(a, &ch, cpu, overlap) - total_time(b, &ch, cpu, overlap)
    };
    let (mut lo, mut hi) = (lo_bits, hi_bits);
    let (dlo, dhi) = (diff(lo), diff(hi));
    if dlo == 0.0 {
        return Some(lo);
    }
    if dhi == 0.0 {
        return Some(hi);
    }
    if dlo.signum() == dhi.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric midpoint: bandwidths are log-scaled
        let dmid = diff(mid);
        if dmid == 0.0 {
            return Some(mid);
        }
        if dmid.signum() == dlo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((lo * hi).sqrt())
}

/// The working set of a run: the distinct pages its byte-address
/// accesses touch.
#[derive(Debug)]
pub struct Pager {
    page_size: u32,
    touched: HashSet<u32>,
}

impl Pager {
    /// A pager of `page_size`-byte pages, nothing touched yet.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: u32) -> Pager {
        assert!(page_size > 0, "page size must be positive");
        Pager {
            page_size,
            touched: HashSet::new(),
        }
    }

    /// Touches a byte run `(offset, len)`.
    pub fn access_run(&mut self, offset: u32, len: u32) {
        if len == 0 {
            return;
        }
        let first = offset / self.page_size;
        let last = (offset + len - 1) / self.page_size;
        self.touched.extend(first..=last);
    }

    /// Distinct pages touched (the working set over the whole run).
    pub fn working_set_pages(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_arithmetic() {
        let modem = Channel::modem_28k8();
        // 3600 bytes/s: 36 KB takes ~10s + latency.
        let t = modem.transfer_time(36_000);
        assert!((t - 10.1).abs() < 1e-9);
        assert!(Channel::lan_10mbit().transfer_time(36_000) < 0.1);
    }

    #[test]
    fn compressed_delivery_wins_on_slow_links() {
        // 1 MB native vs 250 KB BRISC.
        let cpu = CpuModel::pentium_like(1.0);
        let native = DeliveryPlan::Native { bytes: 1_000_000 };
        let brisc = DeliveryPlan::BriscJit {
            compressed: 250_000,
            native: 1_080_000,
        };
        let modem = Channel::modem_28k8();
        assert!(
            total_time(&brisc, &modem, &cpu, Overlap::Sequential)
                < total_time(&native, &modem, &cpu, Overlap::Sequential),
            "compressed must win over a modem"
        );
        // On an infinitely fast channel, native wins (no prep).
        let fast = Channel::from_bits_per_sec(1e12);
        assert!(
            total_time(&native, &fast, &cpu, Overlap::Sequential)
                < total_time(&brisc, &fast, &cpu, Overlap::Sequential)
        );
    }

    #[test]
    fn crossover_exists_between_extremes() {
        let cpu = CpuModel::pentium_like(1.0);
        let native = DeliveryPlan::Native { bytes: 1_000_000 };
        let brisc = DeliveryPlan::BriscJit {
            compressed: 250_000,
            native: 1_080_000,
        };
        let x = crossover_bandwidth(&native, &brisc, &cpu, Overlap::Sequential, 1e3, 1e12)
            .expect("a crossover must exist");
        // At the crossover, the two times agree.
        let ch = Channel::from_bits_per_sec(x);
        let ta = total_time(&native, &ch, &cpu, Overlap::Sequential);
        let tb = total_time(&brisc, &ch, &cpu, Overlap::Sequential);
        assert!(
            (ta - tb).abs() / ta < 1e-3,
            "times at crossover: {ta} vs {tb}"
        );
    }

    #[test]
    fn pipelining_masks_jit_time() {
        let cpu = CpuModel::pentium_like(0.0);
        let brisc = DeliveryPlan::BriscJit {
            compressed: 250_000,
            native: 1_000_000,
        };
        let modem = Channel::modem_28k8();
        let seq = total_time(&brisc, &modem, &cpu, Overlap::Sequential);
        let pipe = total_time(&brisc, &modem, &cpu, Overlap::Pipelined);
        // Transfer dominates; pipelined time is just the transfer.
        assert!(pipe < seq);
        assert!((pipe - modem.transfer_time(250_000)).abs() < 1e-9);
    }

    #[test]
    fn interpretation_pays_cpu_but_no_prep() {
        let cpu = CpuModel::pentium_like(1.0);
        let interp = DeliveryPlan::BriscInterp {
            compressed: 250_000,
        };
        assert_eq!(interp.prep_time(&cpu), 0.0);
        assert!((interp.run_time(&cpu) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_counts_each_page_once() {
        let mut p = Pager::new(100);
        for (offset, len) in [(0, 1), (50, 1), (150, 1), (0, 1), (250, 1), (150, 1)] {
            p.access_run(offset, len);
        }
        assert_eq!(p.working_set_pages(), 3);
    }

    #[test]
    fn runs_touch_every_spanned_page() {
        let mut p = Pager::new(100);
        p.access_run(95, 10); // spans pages 0 and 1
        assert_eq!(p.working_set_pages(), 2);
        p.access_run(300, 0); // empty run: nothing
        assert_eq!(p.working_set_pages(), 2);
        p.access_run(0, 1000); // pages 0..=9
        assert_eq!(p.working_set_pages(), 10);
    }

    #[test]
    fn smaller_code_means_smaller_working_set() {
        // The same logical trace, expressed over native (large) and
        // compressed (small) layouts.
        let mut native = Pager::new(4096);
        let mut compressed = Pager::new(4096);
        for i in 0..100u32 {
            native.access_run(i * 1000, 400); // spread out
            compressed.access_run(i * 380, 150); // ~2.6x denser
        }
        assert!(compressed.working_set_pages() < native.working_set_pages());
    }
}
