//! Zero-dependency observability: pipeline metrics and structured tracing.
//!
//! The paper's argument is quantitative — bits per instruction per
//! stream, compression ratios, total-time scenarios — so the
//! reproduction needs a way to *observe* where bytes and time go
//! without pulling in any external crate (the workspace builds fully
//! offline). This module has three faces:
//!
//! - **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   power-of-2-bucket [`Histogram`]s. Updates are plain atomics
//!   (lock-free); name resolution takes a read lock and is meant to
//!   happen once per pipeline call, not per symbol. Hot loops
//!   accumulate into a [`LocalHistogram`] / local integers and flush
//!   once at the end.
//! - **Tracing** — structured [`TraceEvent`] records (stage spans with
//!   monotonic nanos, limit trips, quarantine/salvage events, fault
//!   injections) delivered to a [`TraceSink`]: either a JSON-lines
//!   writer ([`JsonLinesSink`], in-tree serializer, no serde) or an
//!   always-on flight recorder ([`RingSink`]) dumped on error.
//! - **Stages** — [`stage!`] is the one way to time a stage. Its guard
//!   feeds the stage's inclusive ns counter, a per-thread self-time
//!   frame stack ([`render_collapsed`], what `codecomp profile` writes)
//!   and the trace's spans, all from one pair of clock reads.
//! - **The global collector** — [`install`] publishes a [`Collector`]
//!   once per process; every instrumentation site goes through the
//!   free functions ([`counter_add`], [`event`], [`stage!`], …) which
//!   reduce to a single atomic load and a branch when nothing is
//!   installed. Without a collector the pipeline stays exactly as it
//!   was: no state is created, nothing is observable.
//!
//! # Metric naming
//!
//! Names are `<crate>.<stage>.<metric>` with dynamic suffixes for
//! per-stream metrics (`wire.encode.section_bytes.$patterns`). The
//! full scheme is documented in DESIGN.md § Observability.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

// ---- metrics ---------------------------------------------------------------

/// A monotonically increasing, saturating counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins (or running-maximum) value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (high-water mark).
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket
/// `i > 0` holds values in `[2^(i-1), 2^i - 1]` — `bit_length(v)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A fixed power-of-2-bucket histogram with atomic cells.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // The sum saturates rather than wraps so ratios stay sane.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Merges a hot-loop-local histogram in one pass.
    pub fn merge(&self, local: &LocalHistogram) {
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(local.sum);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// A plain (non-atomic) histogram for hot loops; merge it into a
/// registry [`Histogram`] once per pipeline call.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    /// Bucket counts, same layout as [`Histogram`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }
}

/// A registry of named metrics.
///
/// Handles are interned: asking for the same name twice returns the
/// same metric. Updates through a handle are lock-free; the name
/// lookup itself takes a read lock, so resolve handles once per
/// pipeline call, outside hot loops.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().expect("registry lock").get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Zeroes every existing gauge whose name starts with `prefix`.
    ///
    /// This is the reset half of the per-section "reset-and-set"
    /// contract: stages that publish one gauge per dynamic name (e.g.
    /// `wire.encode.section_bytes.<key>`) zero the whole family first so
    /// a later snapshot never mixes sections from two different inputs.
    /// Walks under the read lock without allocating.
    pub fn zero_gauges_with_prefix(&self, prefix: &str) {
        for (name, gauge) in self.gauges.read().expect("registry lock").iter() {
            if name.starts_with(prefix) {
                gauge.set(0);
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count: v.count(),
                            sum: v.sum(),
                            buckets: std::array::from_fn(|i| v.buckets[i].load(Ordering::Relaxed)),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Bucket counts (see [`bucket_of`] for the layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// A point-in-time registry copy, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes the snapshot as one JSON object (in-tree writer).
    ///
    /// Histogram buckets are sparse `[bucket_index, count]` pairs;
    /// bucket `i > 0` covers `[2^(i-1), 2^i - 1]` and bucket `0` the
    /// value `0`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_string(k),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{b},{n}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

// ---- tracing ---------------------------------------------------------------

/// A scalar field value on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// The record kind: stage spans bracket work, events are points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A stage span opened.
    SpanBegin,
    /// A stage span closed (`dur_nanos` is set).
    SpanEnd,
    /// A point event (limit trip, quarantine, mutation, …).
    Event,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::SpanBegin => "span_begin",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Event => "event",
        }
    }
}

/// One structured trace record.
///
/// Serialized as one JSON line by [`TraceEvent::to_json_line`]; the
/// schema is pinned by a golden test and validated by
/// [`validate_trace_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the process trace epoch.
    pub t_nanos: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// Span or event name (`wire.decompress`, `limit.trip`, …).
    pub name: String,
    /// Span duration in nanoseconds; `span_end` only.
    pub dur_nanos: Option<u64>,
    /// Structured payload, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"t\":{},\"kind\":\"{}\",\"name\":{}",
            self.t_nanos,
            self.kind.as_str(),
            json_string(&self.name)
        );
        if let Some(d) = self.dur_nanos {
            out.push_str(&format!(",\"dur\":{d}"));
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                match v {
                    FieldValue::U64(n) => out.push_str(&n.to_string()),
                    FieldValue::I64(n) => out.push_str(&n.to_string()),
                    FieldValue::Str(s) => out.push_str(&json_string(s)),
                    FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Destination for trace records. Implementations must be cheap and
/// non-blocking enough for always-on use.
pub trait TraceSink: Send + Sync {
    /// Delivers one record.
    fn record(&self, event: &TraceEvent);

    /// Pushes any buffered records to their final destination. The
    /// default is a no-op; buffering sinks override it. Callers that
    /// own a process exit path should arrange for a flush on *every*
    /// exit — including panics — e.g. via a `Drop` guard around
    /// [`flush_trace`], so truncated runs still yield parseable traces.
    fn flush(&self) {}
}

/// A [`TraceSink`] writing one JSON line per record to any writer.
///
/// Records are buffered (a traced run writes two lines per stage it
/// enters, and must not pay a syscall per record); call
/// [`TraceSink::flush`] (or the global [`flush_trace`]) before the
/// output is read. Because the global collector lives in a `static`
/// that is never dropped, an explicit flush on process exit is the
/// *only* thing that lands the tail of the trace.
pub struct JsonLinesSink {
    w: Mutex<std::io::BufWriter<Box<dyn std::io::Write + Send>>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// A sink over an arbitrary writer.
    pub fn new(w: Box<dyn std::io::Write + Send>) -> JsonLinesSink {
        JsonLinesSink {
            w: Mutex::new(std::io::BufWriter::new(w)),
        }
    }

    /// A sink appending to (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &str) -> std::io::Result<JsonLinesSink> {
        Ok(JsonLinesSink::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, event: &TraceEvent) {
        let mut w = self.w.lock().expect("trace sink lock");
        // A broken pipe must not panic the pipeline; tracing is
        // best-effort by construction.
        let _ = writeln!(w, "{}", event.to_json_line());
    }

    fn flush(&self) {
        let _ = self.w.lock().expect("trace sink lock").flush();
    }
}

/// An always-on flight recorder: the last `capacity` records, dumped
/// on demand (typically when an error surfaces).
#[derive(Debug)]
pub struct RingSink {
    buf: Mutex<std::collections::VecDeque<TraceEvent>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            buf: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The retained records, oldest first.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

// ---- global collector -------------------------------------------------------

/// The installed observability surface: a metrics registry and an
/// optional trace sink.
#[derive(Clone)]
pub struct Collector {
    /// Named metrics.
    pub metrics: Arc<Registry>,
    /// Structured trace destination, if tracing is on.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("trace", &self.trace.is_some())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// A metrics-only collector.
    pub fn metrics_only() -> Collector {
        Collector {
            metrics: Arc::new(Registry::new()),
            trace: None,
        }
    }

    /// A collector with both metrics and the given trace sink.
    pub fn with_trace(trace: Arc<dyn TraceSink>) -> Collector {
        Collector {
            metrics: Arc::new(Registry::new()),
            trace: Some(trace),
        }
    }
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds from the first telemetry use in this process
/// to `at`.
fn nanos_since_epoch(at: Instant) -> u64 {
    let epoch = EPOCH.get_or_init(|| at);
    u64::try_from(at.saturating_duration_since(*epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Installs the process-wide collector. First install wins; returns
/// whether this call installed it.
pub fn install(collector: Collector) -> bool {
    COLLECTOR.set(collector).is_ok()
}

/// The installed collector, if any. One atomic load when disabled.
#[inline]
pub fn collector() -> Option<&'static Collector> {
    COLLECTOR.get()
}

/// Whether a collector is installed.
#[inline]
pub fn enabled() -> bool {
    COLLECTOR.get().is_some()
}

/// Adds to a named counter (no-op when disabled).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if let Some(c) = collector() {
        c.metrics.counter(name).add(n);
    }
}

/// Sets a named gauge (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, v: u64) {
    if let Some(c) = collector() {
        c.metrics.gauge(name).set(v);
    }
}

/// Raises a named gauge to at least `v` (no-op when disabled).
#[inline]
pub fn gauge_max(name: &str, v: u64) {
    if let Some(c) = collector() {
        c.metrics.gauge(name).max(v);
    }
}

/// Merges a hot-loop-local histogram into a named histogram (no-op
/// when disabled).
#[inline]
pub fn histogram_merge(name: &str, local: &LocalHistogram) {
    if local.count == 0 {
        return;
    }
    if let Some(c) = collector() {
        c.metrics.histogram(name).merge(local);
    }
}

/// Flushes the installed trace sink, if any. Call on every process
/// exit path (the collector static is never dropped, so nothing else
/// lands a buffering sink's tail).
pub fn flush_trace() {
    if let Some(sink) = collector().and_then(|c| c.trace.as_ref()) {
        sink.flush();
    }
}

/// Emits a point trace event (no-op unless a trace sink is installed).
pub fn event(name: &str, fields: Vec<(&'static str, FieldValue)>) {
    if let Some(sink) = collector().and_then(|c| c.trace.as_ref()) {
        sink.record(&TraceEvent {
            t_nanos: nanos_since_epoch(Instant::now()),
            kind: TraceKind::Event,
            name: name.to_string(),
            dur_nanos: None,
            fields,
        });
    }
}

// ---- stages -----------------------------------------------------------------

/// A named pipeline stage, declared once per marker site by [`stage!`].
///
/// The stage `a.b.c` counts inclusive nanoseconds into the counter
/// `a.b.ns.c` (so `wire.decode.join` feeds `wire.decode.ns.join`); the
/// handle is resolved on first use and cached here, so entering a stage
/// never looks a name up in the registry.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    counter: OnceLock<Arc<Counter>>,
}

impl Stage {
    /// A stage named `name` (usually declared through [`stage!`]).
    pub const fn new(name: &'static str) -> Stage {
        Stage {
            name,
            counter: OnceLock::new(),
        }
    }

    /// Opens the stage until the returned guard drops. With no
    /// collector installed this is one atomic load and the guard is
    /// inert.
    #[inline]
    pub fn enter(&'static self) -> StageGuard {
        StageGuard {
            open: collector().map(|c| self.open(c)),
            _thread_bound: std::marker::PhantomData,
        }
    }

    fn open(&'static self, c: &'static Collector) -> OpenStage {
        let counter = self.counter.get_or_init(|| {
            c.metrics.counter(&match self.name.rsplit_once('.') {
                Some((head, leaf)) => format!("{head}.ns.{leaf}"),
                None => format!("{}.ns", self.name),
            })
        });
        let start = Instant::now();
        FRAMES.with(|f| f.borrow_mut().enter(self.name));
        let trace = c.trace.as_ref();
        if let Some(sink) = trace {
            sink.record(&span_event(TraceKind::SpanBegin, self.name, start, None));
        }
        OpenStage {
            name: self.name,
            counter,
            start,
            trace,
        }
    }
}

/// Opens a [`Stage`] at the call site: `let _join =
/// telemetry::stage!("wire.decode.join");`. Each site owns one static
/// handle. While the guard lives, and a collector is installed, the
/// stage's time is measured by one pair of clock reads that feed its
/// inclusive ns counter, the calling thread's self-time frame stack
/// (rendered by [`render_collapsed`]) and, with a trace sink,
/// `span_begin`/`span_end` records.
#[macro_export]
macro_rules! stage {
    ($name:literal) => {{
        static STAGE: $crate::telemetry::Stage = $crate::telemetry::Stage::new($name);
        STAGE.enter()
    }};
}
pub use crate::stage;

/// An open [`Stage`]; closes it on drop, also on early returns.
#[must_use = "a stage closes when its guard drops; bind it with `let _stage = ...`"]
pub struct StageGuard {
    // `None` when no collector was installed at entry.
    open: Option<OpenStage>,
    // Frames live on the opening thread's stack.
    _thread_bound: std::marker::PhantomData<*const ()>,
}

struct OpenStage {
    name: &'static str,
    counter: &'static Counter,
    start: Instant,
    trace: Option<&'static Arc<dyn TraceSink>>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let ns = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        open.counter.add(ns);
        FRAMES.with(|f| f.borrow_mut().exit(ns));
        if let Some(sink) = open.trace {
            sink.record(&span_event(TraceKind::SpanEnd, open.name, end, Some(ns)));
        }
    }
}

fn span_event(kind: TraceKind, name: &str, at: Instant, dur_nanos: Option<u64>) -> TraceEvent {
    TraceEvent {
        t_nanos: nanos_since_epoch(at),
        kind,
        name: name.to_string(),
        dur_nanos,
        fields: Vec::new(),
    }
}

/// One node of a thread's stage call tree: the collapsed stack it
/// stands for and the self time not yet published.
struct StackNode {
    name: &'static str,
    parent: Option<usize>,
    path: String,
    self_ns: u64,
}

/// An open stage on the thread's stack: its tree node and the
/// inclusive time of the children that have closed inside it.
struct Frame {
    node: usize,
    child_ns: u64,
}

/// A thread's stage stack. Self time accumulates per tree node and is
/// published to [`STACKS`] whenever the outermost stage closes, so the
/// shared map is locked once per top-level call, not per stage.
struct Frames {
    nodes: Vec<StackNode>,
    open: Vec<Frame>,
}

impl Frames {
    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().map(|f| f.node);
        let node = match self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            Some(i) => i,
            None => {
                let path = match parent {
                    Some(p) => format!("{};{name}", self.nodes[p].path),
                    None => name.to_string(),
                };
                self.nodes.push(StackNode {
                    name,
                    parent,
                    path,
                    self_ns: 0,
                });
                self.nodes.len() - 1
            }
        };
        self.open.push(Frame { node, child_ns: 0 });
    }

    fn exit(&mut self, ns: u64) {
        let Some(frame) = self.open.pop() else {
            return;
        };
        let node = &mut self.nodes[frame.node];
        node.self_ns = node
            .self_ns
            .saturating_add(ns.saturating_sub(frame.child_ns));
        match self.open.last_mut() {
            Some(parent) => parent.child_ns = parent.child_ns.saturating_add(ns),
            None => {
                let mut stacks = STACKS.lock().unwrap_or_else(PoisonError::into_inner);
                for n in self.nodes.iter_mut().filter(|n| n.self_ns > 0) {
                    match stacks.get_mut(&n.path) {
                        Some(total) => *total = total.saturating_add(n.self_ns),
                        None => {
                            stacks.insert(n.path.clone(), n.self_ns);
                        }
                    }
                    n.self_ns = 0;
                }
            }
        }
    }
}

thread_local! {
    static FRAMES: RefCell<Frames> = const {
        RefCell::new(Frames {
            nodes: Vec::new(),
            open: Vec::new(),
        })
    };
}

/// Self nanoseconds per collapsed stack, summed over every thread.
static STACKS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Self nanoseconds per collapsed stage stack (`a;b;c`), sorted, over
/// every top-level stage closed so far. The self times under a stage
/// sum exactly to the inclusive time its counter recorded.
pub fn collapsed_stacks() -> Vec<(String, u64)> {
    STACKS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// [`collapsed_stacks`] as `stack self_ns` lines, the collapsed-stack
/// format flamegraph renderers consume.
pub fn render_collapsed() -> String {
    collapsed_stacks()
        .into_iter()
        .map(|(stack, ns)| format!("{stack} {ns}\n"))
        .collect()
}

// ---- JSON helpers and the trace-schema checker ------------------------------

/// Escapes `s` as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (the subset the trace schema uses).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
    Array(Vec<Json>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.s.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("empty tail")?;
                    if b < 0x20 {
                        return Err("unescaped control character".into());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        if self.s.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.s.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }
}

/// Validates one JSON line against the pinned trace schema.
///
/// Required: `t` (non-negative integer), `kind` (one of `span_begin`,
/// `span_end`, `event`), `name` (non-empty string). `dur` is a
/// non-negative integer, required on `span_end` and forbidden
/// elsewhere. `fields`, when present, is an object of scalar values.
/// No other top-level keys are allowed.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn validate_trace_line(line: &str) -> Result<(), String> {
    let mut p = JsonParser::new(line);
    let v = p.value()?;
    p.finish()?;
    let obj = match &v {
        Json::Object(pairs) => pairs,
        _ => return Err("record is not a JSON object".into()),
    };
    for (k, _) in obj {
        if !matches!(k.as_str(), "t" | "kind" | "name" | "dur" | "fields") {
            return Err(format!("unknown key {k:?}"));
        }
    }
    match v.get("t") {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {}
        _ => return Err("t must be a non-negative integer".into()),
    }
    let kind = match v.get("kind") {
        Some(Json::Str(s)) if matches!(s.as_str(), "span_begin" | "span_end" | "event") => {
            s.clone()
        }
        _ => return Err("kind must be span_begin | span_end | event".into()),
    };
    match v.get("name") {
        Some(Json::Str(s)) if !s.is_empty() => {}
        _ => return Err("name must be a non-empty string".into()),
    }
    match (kind.as_str(), v.get("dur")) {
        ("span_end", Some(Json::Num(n))) if *n >= 0.0 && n.fract() == 0.0 => {}
        ("span_end", _) => return Err("span_end requires integer dur".into()),
        (_, None) => {}
        (_, Some(_)) => return Err("dur is only valid on span_end".into()),
    }
    match v.get("fields") {
        None => {}
        Some(Json::Object(pairs)) => {
            for (k, fv) in pairs {
                match fv {
                    Json::Num(_) | Json::Str(_) | Json::Bool(_) => {}
                    _ => return Err(format!("field {k:?} is not a scalar")),
                }
            }
        }
        Some(_) => return Err("fields must be an object".into()),
    }
    Ok(())
}

/// Validates one line of collapsed-stack output: `frame[;frame]* N`
/// with non-empty, space-free frames and a positive count.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_collapsed_line(line: &str) -> Result<(), String> {
    let (stack, count) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing count (expected `stack count`)".to_string())?;
    let n: u64 = count
        .parse()
        .map_err(|_| format!("count {count:?} is not an integer"))?;
    if n == 0 {
        return Err("count must be positive".into());
    }
    if stack.is_empty() {
        return Err("empty stack".into());
    }
    for frame in stack.split(';') {
        if frame.is_empty() {
            return Err("empty frame in stack".into());
        }
        if frame.contains(' ') {
            return Err(format!("frame {frame:?} contains a space"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let c = Arc::new(Counter::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::default();
        g.set(10);
        g.max(5);
        assert_eq!(g.get(), 10);
        g.max(20);
        assert_eq!(g.get(), 20);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds only 0; bucket i holds [2^(i-1), 2^i - 1].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [0, 1, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        let b = r.snapshot().histogram("h").unwrap().buckets;
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[3], 2);
        assert_eq!(b[4], 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 25);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(10);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn local_histogram_merges() {
        let mut local = LocalHistogram::default();
        local.record(3);
        local.record(100);
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(3);
        h.merge(&local);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 106);
        let b = r.snapshot().histogram("h").unwrap().buckets;
        assert_eq!(b[2], 2);
        assert_eq!(b[7], 1);
    }

    #[test]
    fn registry_interns_handles() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.counter("a").add(2);
        r.gauge("g").set(7);
        r.histogram("h").record(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.gauge("g"), Some(7));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_json_is_valid_and_sorted() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.histogram("h").record(5);
        let json = r.snapshot().to_json();
        // Names sort lexicographically inside each section.
        let a = json.find("a.one").unwrap();
        let b = json.find("b.two").unwrap();
        assert!(a < b);
        // The writer's output parses with the in-tree parser.
        let mut p = JsonParser::new(&json);
        let v = p.value().unwrap();
        p.finish().unwrap();
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn snapshot_json_quotes_hostile_names() {
        // Dynamic metric suffixes come from stream keys and (in
        // principle) user-controlled names; quoting must hold for all
        // of them or the dump is not JSON.
        let r = Registry::new();
        r.counter("wire.encode.section_bytes.$patterns").add(7);
        r.counter("we\"ird\\name\nwith\tctrl\u{1}").add(1);
        r.gauge("ga\"uge").set(2);
        r.histogram("hi\\st").record(3);
        let json = r.snapshot().to_json();
        let mut p = JsonParser::new(&json);
        let v = p.value().unwrap();
        p.finish().unwrap();
        // The hostile names round-trip through the parser intact.
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("we\"ird\\name\nwith\tctrl\u{1}"),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            counters.get("wire.encode.section_bytes.$patterns"),
            Some(&Json::Num(7.0))
        );
        assert_eq!(v.get("gauges").unwrap().get("ga\"uge"), Some(&Json::Num(2.0)));
        assert!(v.get("histograms").unwrap().get("hi\\st").is_some());
    }

    #[test]
    fn trace_event_serialization_golden() {
        // Golden strings: changing them is a schema break — update
        // DESIGN.md § Observability and validate_trace_line together.
        let begin = TraceEvent {
            t_nanos: 12,
            kind: TraceKind::SpanBegin,
            name: "wire.decompress".into(),
            dur_nanos: None,
            fields: Vec::new(),
        };
        assert_eq!(
            begin.to_json_line(),
            r#"{"t":12,"kind":"span_begin","name":"wire.decompress"}"#
        );
        let end = TraceEvent {
            t_nanos: 99,
            kind: TraceKind::SpanEnd,
            name: "wire.decompress".into(),
            dur_nanos: Some(87),
            fields: Vec::new(),
        };
        assert_eq!(
            end.to_json_line(),
            r#"{"t":99,"kind":"span_end","name":"wire.decompress","dur":87}"#
        );
        let event = TraceEvent {
            t_nanos: 5,
            kind: TraceKind::Event,
            name: "limit.trip".into(),
            dur_nanos: None,
            fields: vec![
                ("what", FieldValue::Str("decode fuel".into())),
                ("limit", FieldValue::U64(10)),
                ("fatal", FieldValue::Bool(false)),
            ],
        };
        assert_eq!(
            event.to_json_line(),
            r#"{"t":5,"kind":"event","name":"limit.trip","fields":{"what":"decode fuel","limit":10,"fatal":false}}"#
        );
        for line in [
            begin.to_json_line(),
            end.to_json_line(),
            event.to_json_line(),
        ] {
            validate_trace_line(&line).unwrap();
        }
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let bad = [
            "",                                                // not JSON
            "[]",                                              // not an object
            r#"{"kind":"event","name":"x"}"#,                  // missing t
            r#"{"t":1,"kind":"nope","name":"x"}"#,             // bad kind
            r#"{"t":1,"kind":"event","name":""}"#,             // empty name
            r#"{"t":1,"kind":"span_end","name":"x"}"#,         // missing dur
            r#"{"t":1,"kind":"event","name":"x","dur":3}"#,    // dur off span_end
            r#"{"t":1,"kind":"event","name":"x","extra":1}"#,  // unknown key
            r#"{"t":1.5,"kind":"event","name":"x"}"#,          // fractional t
            r#"{"t":1,"kind":"event","name":"x","fields":[]}"#, // fields not object
            r#"{"t":1,"kind":"event","name":"x","fields":{"y":[1]}}"#, // non-scalar field
        ];
        for line in bad {
            assert!(validate_trace_line(line).is_err(), "accepted: {line}");
        }
        validate_trace_line(r#"{"t":1,"kind":"event","name":"x"}"#).unwrap();
    }

    #[test]
    fn collapsed_validator_accepts_and_rejects() {
        validate_collapsed_line("a 5").unwrap();
        validate_collapsed_line("wire.decompress;wire.decode.join 123").unwrap();
        for bad in ["", "a", "a 0", "a x", " 5", "a;;b 5", "a b;c 5"] {
            assert!(validate_collapsed_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn frames_credit_self_time_and_publish_at_the_outermost_exit() {
        // Drives a private frame stack directly: no collector, no clock.
        let mut f = Frames {
            nodes: Vec::new(),
            open: Vec::new(),
        };
        f.enter("unit.outer");
        f.enter("unit.inner");
        f.exit(30);
        f.enter("unit.inner");
        f.exit(12);
        assert!(!collapsed_stacks()
            .iter()
            .any(|(k, _)| k.starts_with("unit.")));
        f.exit(50);
        let stacks: Vec<_> = collapsed_stacks()
            .into_iter()
            .filter(|(k, _)| k.starts_with("unit."))
            .collect();
        assert_eq!(
            stacks,
            vec![
                ("unit.outer".to_string(), 8),
                ("unit.outer;unit.inner".to_string(), 42),
            ]
        );
        assert_eq!(f.open.len(), 0);
        assert!(f.nodes.iter().all(|n| n.self_ns == 0));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        validate_trace_line(&format!(
            "{{\"t\":1,\"kind\":\"event\",\"name\":{}}}",
            json_string("we\"ird\nname")
        ))
        .unwrap();
    }

    #[test]
    fn ring_sink_keeps_last_n() {
        let ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(&TraceEvent {
                t_nanos: i,
                kind: TraceKind::Event,
                name: format!("e{i}"),
                dur_nanos: None,
                fields: Vec::new(),
            });
        }
        let dumped = ring.dump();
        assert_eq!(dumped.len(), 2);
        assert_eq!(dumped[0].name, "e3");
        assert_eq!(dumped[1].name, "e4");
    }

    #[test]
    fn json_lines_sink_writes_valid_lines() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(&TraceEvent {
            t_nanos: 1,
            kind: TraceKind::Event,
            name: "x".into(),
            dur_nanos: None,
            fields: vec![("n", FieldValue::U64(3))],
        });
        // The sink buffers: nothing reaches the writer until a flush.
        assert!(buf.lock().unwrap().is_empty());
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        for line in text.lines() {
            validate_trace_line(line).unwrap();
        }
        assert_eq!(text.lines().count(), 1);
    }

    // NOTE: no test in this crate installs the global collector — the
    // process-wide install-once semantics are covered by the workspace
    // integration tests (`tests/telemetry.rs`, `tests/telemetry_disabled.rs`)
    // where each binary is its own process.
    #[test]
    fn disabled_helpers_are_inert() {
        // Must hold regardless of test ordering: nothing in this crate
        // installs a collector.
        assert!(!enabled());
        counter_add("never.recorded", 1);
        gauge_set("never.recorded", 1);
        drop(stage!("never.recorded"));
        event("never.recorded", vec![("k", FieldValue::U64(1))]);
        assert!(collector().is_none(), "helpers must not install state");
    }
}
