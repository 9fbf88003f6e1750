//! End-to-end benchmark of the guardian runtime.
//!
//! Three workloads, each a closed loop with one client on one thread:
//!
//! * [`zone_fleet`] — eight zones over one shared segment pool, typed
//!   and Scheme-VM alternating, autotuner active; one request is one
//!   `ZoneManager::dispatch`.
//! * [`scheme_vm`] — one interpreter on the bytecode VM evaluating a
//!   seeded mix of short call forms.
//! * [`guardian_pool`] — a raw heap holding a large old-generation table
//!   of guarded resource records; one request is a batch of inserts and
//!   lookups, each ending with a safe point and a guardian drain.
//!
//! A run repeats *epochs* until its time is up (at least two). An epoch
//! builds the workload from the seed (timed as set-up), runs its fixed
//! schedule of requests, then checks the program's outputs against an
//! oracle of the benchmark's own, outside the timed requests. Every
//! epoch of a run does identical work, so every counter the program
//! exposes must repeat exactly from epoch to epoch; the run checks that.
//! With tracing on, epochs alternate untraced and traced: end-to-end
//! figures come only from untraced epochs, per-layer figures only from
//! traced ones, and the ratio of the two is the tracing overhead.
//!
//! End-to-end times are read from each request's *fastest* wall time
//! over the run's untraced epochs. On a shared host, interference from
//! other tenants only ever adds time, and it comes in phases lasting
//! seconds that slow whole epochs by up to 2x; the per-request minimum
//! over tens of identical epochs filters those phases out, while a
//! request that always collects keeps its pause. The medians over
//! epochs, which include the interference, are printed beside them in
//! the stamp line (`median_epoch`).
//!
//! Layers are measured from outside: by timing the benchmark's own calls
//! into the public APIs (see [`trace`]) and by reading the counters the
//! crates expose (`Heap::stats`, `Heap::metrics`, `SegmentPool::stats`,
//! `Zone::observables`, `Heap::autotune_decisions`).

pub mod guardian_pool;
pub mod scheme_vm;
pub mod trace;
pub mod zone_fleet;

use guardians_gc::{Heap, PoolStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Layer, Name, Tracer};

/// Spans kept in memory per traced epoch; later spans are still timed
/// and counted but not written out.
pub const SPAN_KEEP: usize = 200_000;

/// `splitmix64`: a small, fast, seedable generator with no dependencies.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Shuffles `v` uniformly (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The workloads, by the names later changes refer to them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// See [`zone_fleet`].
    ZoneFleet,
    /// See [`scheme_vm`].
    SchemeVm,
    /// See [`guardian_pool`].
    GuardianPool,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ZoneFleet,
        Workload::SchemeVm,
        Workload::GuardianPool,
    ];

    /// The workload's name.
    pub fn label(self) -> &'static str {
        match self {
            Workload::ZoneFleet => "zone_fleet",
            Workload::SchemeVm => "scheme_vm",
            Workload::GuardianPool => "guardian_pool",
        }
    }

    /// Parses [`Workload::label`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.label() == s)
    }
}

/// A fault the benchmark injects into its own driving code, to show
/// that its oracles catch a broken run. Each fault fires once per epoch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `guardian_pool`: skip the `SimOs::close` of one record the
    /// guardian hands back (a leaked fd).
    SkipClose,
    /// `scheme_vm`: corrupt one expected result.
    CorruptExpected,
    /// `zone_fleet`: dispatch one `Open` the benchmark's model does not
    /// know about (a session nobody evicts).
    ExtraOpen,
}

impl Fault {
    /// Every fault.
    pub const ALL: [Fault; 3] = [Fault::SkipClose, Fault::CorruptExpected, Fault::ExtraOpen];

    /// The fault's command-line name.
    pub fn label(self) -> &'static str {
        match self {
            Fault::SkipClose => "skip-close",
            Fault::CorruptExpected => "corrupt-expected",
            Fault::ExtraOpen => "extra-open",
        }
    }

    /// Parses [`Fault::label`].
    pub fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.label() == s)
    }
}

/// Workload size: `Full` is what the benchmark measures; `Small` keeps
/// the benchmark's own tests fast.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A reduced size for tests.
    Small,
}

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Run until this many seconds have passed (at least two epochs).
    pub seconds: f64,
    /// Alternate untraced and traced epochs and report per-layer
    /// metrics.
    pub trace: bool,
    /// A fault to inject, for the benchmark's own tests.
    pub fault: Option<Fault>,
    /// Workload size.
    pub scale: Scale,
}

/// A metric's definition: name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported with tracing off. `failed_ratio` is
/// carried by the result's `failed` / `attempted` counts, since a
/// metric that reads 0 on a healthy run has no relative spread.
pub const END_TO_END: [MetricDef; 6] = [
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("reclaim_backlog", "count", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics, reported by traced runs. Times are seconds spent
/// in one epoch, whose work is fixed by the seed; counts are per epoch.
pub const PER_LAYER: [MetricDef; 60] = [
    ("segments.peak_outstanding", "count", "lower"),
    ("segments.acquires", "count", "lower"),
    ("segments.releases", "count", "lower"),
    ("gc.words_allocated", "count", "lower"),
    ("gc.objects_allocated", "count", "lower"),
    ("gc.pairs_allocated", "count", "lower"),
    ("gc.mutator_s", "s", "lower"),
    ("gc.collections", "count", "lower"),
    ("gc.collect_s", "s", "lower"),
    ("gc.pause_p50_us", "us", "lower"),
    ("gc.pause_max_ms", "ms", "lower"),
    ("gc.words_copied", "count", "lower"),
    ("gc.roots_traced", "count", "lower"),
    ("gc.dirty_segments_scanned", "count", "lower"),
    ("gc.pure_words_skipped", "count", "higher"),
    ("gc.phase.flip_s", "s", "lower"),
    ("gc.phase.roots_s", "s", "lower"),
    ("gc.phase.remset_s", "s", "lower"),
    ("gc.phase.sweep_s", "s", "lower"),
    ("gc.phase.guardian_s", "s", "lower"),
    ("gc.phase.finalizer_s", "s", "lower"),
    ("gc.phase.weak_s", "s", "lower"),
    ("gc.phase.reclaim_s", "s", "lower"),
    ("gc.guardian.visited", "count", "lower"),
    ("gc.guardian.finalized", "count", "higher"),
    ("gc.guardian.held", "count", "lower"),
    ("gc.guardian.loop_iterations", "count", "lower"),
    ("gc.guardian.finalized_per_visited", "ratio", "higher"),
    ("guardian.register_s", "s", "lower"),
    ("guardian.poll_s", "s", "lower"),
    ("guardian.polls", "count", "higher"),
    ("gc.weak.scanned", "count", "lower"),
    ("gc.weak.broken", "count", "higher"),
    ("gc.weak.broken_per_scanned", "ratio", "higher"),
    ("autotune.decisions", "count", "lower"),
    ("scheme.evals", "count", "higher"),
    ("scheme.eval_s", "s", "lower"),
    ("scheme.self_s", "s", "lower"),
    ("runtime.acquire_s", "s", "lower"),
    ("runtime.release_s", "s", "lower"),
    ("runtime.open_fds_peak", "count", "lower"),
    ("runtime.ext_live_blocks_peak", "count", "lower"),
    ("zones.dispatch_s", "s", "lower"),
    ("zones.typed.dispatch_p50_us", "us", "lower"),
    ("zones.scheme.dispatch_p50_us", "us", "lower"),
    ("zones.requests", "count", "higher"),
    ("zones.reclaimed_sessions", "count", "higher"),
    ("trace.requests", "count", "higher"),
    ("trace.request_s", "s", "lower"),
    ("trace.self.client_s", "s", "lower"),
    ("trace.self.zones_s", "s", "lower"),
    ("trace.self.scheme_s", "s", "lower"),
    ("trace.self.gc_s", "s", "lower"),
    ("trace.self.guardian_s", "s", "lower"),
    ("trace.self.runtime_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.spans_written", "count", "lower"),
    ("trace.epochs", "count", "higher"),
];

/// Per-layer values of one epoch, keyed by [`PER_LAYER`] name.
#[derive(Clone, Debug)]
pub struct Sheet(BTreeMap<&'static str, f64>);

impl Default for Sheet {
    fn default() -> Sheet {
        Sheet(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }
}

impl Sheet {
    /// Adds `v` to metric `name`. `add` and `set` panic if `name` is not
    /// a [`PER_LAYER`] metric.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.slot(name) += v;
    }

    /// Sets metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        *self.slot(name) = v;
    }

    fn slot(&mut self, name: &'static str) -> &mut f64 {
        self.0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one heap's counters (collector, guardian, weak, autotune,
    /// allocation) and phase times into the sheet, summing over heaps.
    pub fn add_heap(&mut self, heap: &mut Heap) {
        let phases = heap.stats().total_phase_times;
        let decisions = heap.autotune_decisions().len() as f64;
        let m = heap.metrics();
        for (metric, counter) in [
            ("gc.words_allocated", "alloc.words"),
            ("gc.objects_allocated", "alloc.objects"),
            ("gc.pairs_allocated", "alloc.pairs"),
            ("gc.collections", "gc.collections"),
            ("gc.words_copied", "gc.words_copied"),
            ("gc.roots_traced", "gc.roots_traced"),
            ("gc.dirty_segments_scanned", "gc.dirty_segments_scanned"),
            ("gc.pure_words_skipped", "gc.pure_words_skipped"),
            ("gc.guardian.visited", "gc.guardian.visited"),
            ("gc.guardian.finalized", "gc.guardian.finalized"),
            ("gc.guardian.held", "gc.guardian.held"),
            ("gc.guardian.loop_iterations", "gc.guardian.loop_iterations"),
            ("guardian.polls", "guardian.polls"),
            ("gc.weak.scanned", "gc.weak.scanned"),
            ("gc.weak.broken", "gc.weak.broken"),
        ] {
            self.add(metric, m.counter(counter) as f64);
        }
        self.add("autotune.decisions", decisions);
        for (metric, d) in [
            ("gc.phase.flip_s", phases.flip),
            ("gc.phase.roots_s", phases.roots),
            ("gc.phase.remset_s", phases.remset),
            ("gc.phase.sweep_s", phases.sweep),
            ("gc.phase.guardian_s", phases.guardian),
            ("gc.phase.finalizer_s", phases.finalizer),
            ("gc.phase.weak_s", phases.weak),
            ("gc.phase.reclaim_s", phases.reclaim),
        ] {
            self.add(metric, d.as_secs_f64());
        }
    }

    /// Subtracts `base` (a snapshot taken after set-up) from every
    /// metric, so counters cover the request stream only.
    pub fn minus(&mut self, base: &Sheet) {
        for (k, v) in self.0.iter_mut() {
            *v -= base.get(k);
        }
    }

    /// Sets the segment-pool metrics from the pool's accounting at the
    /// end of the request stream and after set-up.
    pub fn set_pool(&mut self, end: &PoolStats, base: &PoolStats) {
        self.set("segments.peak_outstanding", end.peak_outstanding as f64);
        self.set("segments.acquires", (end.acquires - base.acquires) as f64);
        self.set("segments.releases", (end.releases - base.releases) as f64);
    }

    /// Sets the pause metrics from per-collection pause samples (ns).
    pub fn set_pauses(&mut self, pauses_ns: &mut [u64]) {
        pauses_ns.sort_unstable();
        self.set("gc.pause_p50_us", quantile(pauses_ns, 0.50) as f64 / 1e3);
        self.set(
            "gc.pause_max_ms",
            pauses_ns.last().copied().unwrap_or(0) as f64 / 1e6,
        );
    }

    /// Fills the ratios and, from a traced epoch's tracer, the span
    /// totals and per-layer self times. `request_ns` is the sum of the
    /// epoch's request latencies.
    pub fn finish(&mut self, tracer: &Tracer, requests: usize, request_ns: u64) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.set(
            "gc.guardian.finalized_per_visited",
            ratio(
                self.get("gc.guardian.finalized"),
                self.get("gc.guardian.visited"),
            ),
        );
        self.set(
            "gc.weak.broken_per_scanned",
            ratio(self.get("gc.weak.broken"), self.get("gc.weak.scanned")),
        );
        if !tracer.is_on() {
            return;
        }
        self.set("gc.mutator_s", tracer.total_s(Name::GcMutator));
        self.set("gc.collect_s", tracer.total_s(Name::GcCollect));
        self.set(
            "guardian.register_s",
            tracer.total_s(Name::GuardianRegister),
        );
        self.set("guardian.poll_s", tracer.total_s(Name::GuardianPoll));
        self.set("scheme.eval_s", tracer.total_s(Name::SchemeEval));
        self.set("scheme.self_s", tracer.layer_self_s(Layer::Scheme));
        self.set("runtime.acquire_s", tracer.total_s(Name::RuntimeAcquire));
        self.set("runtime.release_s", tracer.total_s(Name::RuntimeRelease));
        self.set("zones.dispatch_s", tracer.total_s(Name::ZonesDispatch));
        let request_s = request_ns as f64 * 1e-9;
        self.set("trace.requests", requests as f64);
        self.set("trace.request_s", request_s);
        self.set("trace.self.client_s", tracer.layer_self_s(Layer::Client));
        let mut attributed = 0.0;
        for layer in Layer::PROGRAM {
            let s = tracer.layer_self_s(layer);
            attributed += s;
            let name = match layer {
                Layer::Zones => "trace.self.zones_s",
                Layer::Scheme => "trace.self.scheme_s",
                Layer::Gc => "trace.self.gc_s",
                Layer::Guardian => "trace.self.guardian_s",
                Layer::Runtime => "trace.self.runtime_s",
                Layer::Client => unreachable!("not a program layer"),
            };
            self.set(name, s);
        }
        self.set(
            "trace.unattributed_share",
            ratio(request_s - attributed, request_s).max(0.0),
        );
        self.set("trace.spans", tracer.spans_closed() as f64);
        self.set("trace.spans_written", tracer.spans().len() as f64);
    }

    /// The metrics whose values must repeat exactly for a fixed seed:
    /// every count and ratio except the tracer's own.
    pub fn deterministic(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(n, u, _)| (*u == "count" || *u == "ratio") && !n.starts_with("trace."))
            .map(|&(n, _, _)| (n, self.get(n)))
            .collect()
    }
}

/// What one epoch measured and checked.
pub struct Epoch {
    /// Set-up seconds: construction, program loading, schedule
    /// generation.
    pub setup_s: f64,
    /// Wall time of every request, in schedule order.
    pub latencies_ns: Vec<u64>,
    /// Requests that errored or returned a wrong result, plus resources
    /// leaked or closed twice.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Mean of the reclaim backlog sampled after every request.
    pub backlog_mean: f64,
    /// Peak segments outstanding in the epoch's pool, in MB.
    pub peak_heap_mb: f64,
    /// Per-layer values.
    pub sheet: Sheet,
    /// The epoch's tracer (off for untraced epochs).
    pub tracer: Tracer,
}

impl Epoch {
    /// The `q` quantile of the epoch's request latencies, in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut s = self.latencies_ns.clone();
        s.sort_unstable();
        quantile(&s, q) as f64 / 1e3
    }

    /// Summed request time, in seconds.
    pub fn request_s(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// Failure bookkeeping shared by the workloads' oracles.
#[derive(Default)]
pub struct Failures {
    /// Failures counted.
    pub count: u64,
    /// The first few descriptions.
    pub notes: Vec<String>,
}

impl Failures {
    /// Counts `n` failures described by `what`.
    pub fn add(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }
}

/// Adds pause samples for `collections` collections that took `gc` in
/// all, as seen from outside one call: the time split evenly.
pub fn add_pauses(pauses: &mut Vec<u64>, collections: u64, gc: std::time::Duration) {
    if let Some(each) = (gc.as_nanos() as u64).checked_div(collections) {
        pauses.extend(std::iter::repeat_n(each, collections as usize));
    }
}

/// Every request's fastest wall time over `epochs` (which all run the
/// same schedule), sorted.
pub fn fastest_per_request(epochs: &[&Epoch]) -> Vec<u64> {
    let mut best = epochs[0].latencies_ns.clone();
    for e in &epochs[1..] {
        for (b, &l) in best.iter_mut().zip(&e.latencies_ns) {
            *b = (*b).min(l);
        }
    }
    best.sort_unstable();
    best
}

/// Nearest-rank quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (0 when empty); the mean of the middle two for even
/// counts.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The sizes of `workload` at `scale`, as a JSON object.
pub fn sizes_json(workload: Workload, scale: Scale) -> String {
    match workload {
        Workload::ZoneFleet => zone_fleet::Sizes::for_scale(scale).json(),
        Workload::SchemeVm => scheme_vm::Sizes::for_scale(scale).json(),
        Workload::GuardianPool => guardian_pool::Sizes::for_scale(scale).json(),
    }
}

/// Runs epochs of `workload` until `opts.seconds` have passed (at least
/// two, plus one more when tracing so both kinds are present).
pub fn run(workload: Workload, opts: &Opts) -> Report {
    let start = Instant::now();
    let mut epochs: Vec<Epoch> = Vec::new();
    loop {
        let traced = opts.trace && epochs.len() % 2 == 1;
        let tracer = if traced {
            Tracer::on(SPAN_KEEP)
        } else {
            Tracer::off()
        };
        let epoch = match workload {
            Workload::ZoneFleet => zone_fleet::epoch(opts, tracer),
            Workload::SchemeVm => scheme_vm::epoch(opts, tracer),
            Workload::GuardianPool => guardian_pool::epoch(opts, tracer),
        };
        epochs.push(epoch);
        if epochs.len() >= 2 && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    Report::new(workload, opts, epochs, start.elapsed().as_secs_f64())
}

/// A finished run: every epoch plus what was derived from them.
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// The run's options.
    pub opts: Opts,
    /// The epochs, in order.
    pub epochs: Vec<Epoch>,
    /// Requests attempted across epochs.
    pub attempted: u64,
    /// Failures across epochs, plus determinism violations.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end values, by [`END_TO_END`] name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Throughput (1/s), p50 and p99 (µs) read as medians over the
    /// untraced epochs instead of from each request's fastest time.
    pub typical: [f64; 3],
    /// Per-layer values (medians over traced epochs), by [`PER_LAYER`]
    /// name; empty when the run was not traced.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Wall seconds of the whole run.
    pub wall_s: f64,
}

impl Report {
    fn new(workload: Workload, opts: &Opts, epochs: Vec<Epoch>, wall_s: f64) -> Report {
        let mut failures = Failures::default();
        for (i, e) in epochs.iter().enumerate() {
            failures.add(e.failed, || format!("epoch {i}: {}", e.failures.join("; ")));
        }
        // Identical work in every epoch: the deterministic metrics must
        // repeat exactly, traced or not.
        let first = &epochs[0];
        for (i, e) in epochs.iter().enumerate().skip(1) {
            let mut diffs: Vec<String> = first
                .sheet
                .deterministic()
                .into_iter()
                .zip(e.sheet.deterministic())
                .filter(|((_, a), (_, b))| a.to_bits() != b.to_bits())
                .map(|((n, a), (_, b))| format!("{n} {a} vs {b}"))
                .collect();
            for (n, a, b) in [
                ("reclaim_backlog", first.backlog_mean, e.backlog_mean),
                ("peak_heap_mb", first.peak_heap_mb, e.peak_heap_mb),
            ] {
                if a.to_bits() != b.to_bits() {
                    diffs.push(format!("{n} {a} vs {b}"));
                }
            }
            failures.add(u64::from(!diffs.is_empty()), || {
                format!(
                    "epoch {i} differs from epoch 0 on deterministic metrics: {}",
                    diffs.join(", ")
                )
            });
        }
        let attempted = epochs.iter().map(|e| e.latencies_ns.len() as u64).sum();
        let untraced: Vec<&Epoch> = epochs.iter().filter(|e| !e.tracer.is_on()).collect();
        let traced: Vec<&Epoch> = epochs.iter().filter(|e| e.tracer.is_on()).collect();
        let over = |es: &[&Epoch], f: &dyn Fn(&Epoch) -> f64| -> f64 {
            median(&es.iter().map(|e| f(e)).collect::<Vec<_>>())
        };
        let best = fastest_per_request(&untraced);
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "throughput_rps",
            best.len() as f64 / (best.iter().sum::<u64>() as f64 * 1e-9),
        );
        end_to_end.insert("latency_p50_us", quantile(&best, 0.50) as f64 / 1e3);
        end_to_end.insert("latency_p99_us", quantile(&best, 0.99) as f64 / 1e3);
        let typical = [
            over(&untraced, &|e| e.latencies_ns.len() as f64 / e.request_s()),
            over(&untraced, &|e| e.latency_us(0.50)),
            over(&untraced, &|e| e.latency_us(0.99)),
        ];
        end_to_end.insert("reclaim_backlog", first.backlog_mean);
        end_to_end.insert("peak_heap_mb", first.peak_heap_mb);
        end_to_end.insert(
            "setup_s",
            median(&epochs.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
        );
        let mut per_layer = BTreeMap::new();
        if !traced.is_empty() {
            for &(name, _, _) in PER_LAYER.iter() {
                per_layer.insert(name, over(&traced, &|e| e.sheet.get(name)));
            }
            let traced_s: u64 = fastest_per_request(&traced).iter().sum();
            let untraced_s: u64 = best.iter().sum();
            per_layer.insert(
                "trace.overhead_share",
                traced_s as f64 / untraced_s as f64 - 1.0,
            );
            per_layer.insert("trace.epochs", traced.len() as f64);
        }
        Report {
            workload,
            opts: opts.clone(),
            attempted,
            failed: failures.count,
            failures: failures.notes,
            end_to_end,
            typical,
            per_layer,
            epochs,
            wall_s,
        }
    }

    /// Whether every oracle passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics (untraced) or per-layer metrics (traced).
    pub fn result_json(&self) -> String {
        let (defs, values): (&[MetricDef], _) = if self.opts.trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|&(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(values.get(name).copied().unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The stamp printed before the result: host fingerprint, seed,
    /// workload sizes, sample counts, failures and the trace file.
    pub fn meta_json(&self, sizes: &str, trace_file: Option<&str>) -> String {
        let requests = self.epochs[0].latencies_ns.len();
        let untraced = self.epochs.iter().filter(|e| !e.tracer.is_on()).count();
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
             \"host\": {}, \"sizes\": {sizes}, \"epochs\": {}, \"untraced_epochs\": {untraced}, \
             \"requests_per_epoch\": {requests}, \
             \"latency_samples_beyond_p99\": {}, \"setup_samples\": {}, \
             \"epoch_request_s\": [{}], \"epoch_p50_us\": [{}], \"epoch_p99_us\": [{}], \
             \"epoch_traced\": [{}], \"median_epoch\": {{\"throughput_rps\": {}, \
             \"latency_p50_us\": {}, \"latency_p99_us\": {}}}, \
             \"failed_ratio\": {}, \"wall_s\": {}, \"failures\": [{}], \"trace_file\": {}}}}}",
            self.workload.label(),
            self.opts.seed,
            self.opts.trace,
            host_json(),
            self.epochs.len(),
            requests - (0.99 * requests as f64).ceil() as usize,
            self.epochs.len(),
            self.epochs
                .iter()
                .map(|e| num(e.request_s()))
                .collect::<Vec<_>>()
                .join(", "),
            self.epochs
                .iter()
                .map(|e| num(e.latency_us(0.50)))
                .collect::<Vec<_>>()
                .join(", "),
            self.epochs
                .iter()
                .map(|e| num(e.latency_us(0.99)))
                .collect::<Vec<_>>()
                .join(", "),
            self.epochs
                .iter()
                .map(|e| e.tracer.is_on().to_string())
                .collect::<Vec<_>>()
                .join(", "),
            num(self.typical[0]),
            num(self.typical[1]),
            num(self.typical[2]),
            num(self.failed as f64 / self.attempted.max(1) as f64),
            num(self.wall_s),
            self.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", "),
            trace_file.map_or_else(|| "null".to_string(), json_str),
        );
        s
    }

    /// A human-readable table of the reported metrics.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} seed {}: {} epochs, {} requests, failed_ratio {}",
            self.workload.label(),
            self.opts.seed,
            self.epochs.len(),
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let (defs, values): (&[MetricDef], _) = if self.opts.trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        for &(name, unit, _) in defs {
            let _ = writeln!(
                s,
                "  {name:<36} {:>16.6} {unit}",
                values.get(name).copied().unwrap_or(0.0)
            );
        }
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        s
    }

    /// Writes the first traced epoch's spans as JSON lines (a stamp line
    /// first) to `dir`, returning the file's path.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_trace(&self, dir: &std::path::Path, sizes: &str) -> std::io::Result<PathBuf> {
        use std::io::Write;
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "trace-{}-seed{}.jsonl",
            self.workload.label(),
            self.opts.seed
        ));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"sizes\": {sizes}}}",
            self.workload.label(),
            self.opts.seed,
            host_json()
        )?;
        if let Some(e) = self.epochs.iter().find(|e| e.tracer.is_on()) {
            for sp in e.tracer.spans() {
                writeln!(
                    out,
                    "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.id,
                    sp.parent,
                    sp.request,
                    sp.name.label(),
                    sp.start_ns,
                    sp.end_ns
                )?;
            }
        }
        out.flush()?;
        Ok(path)
    }
}

/// A JSON number for `v` (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint every output carries: hardware threads, CPU
/// model, toolchain, target and build profile.
pub fn host_json() -> String {
    format!(
        "{{\"available_parallelism\": {}, \"cpu\": {}, \"rustc\": {}, \"target\": \"{}-{}\", \
         \"profile\": \"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        std::env::consts::ARCH,
        std::env::consts::OS,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

/// The CPU's brand string from `cpuid`, or `unknown` off x86-64.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf; the brand
        // string is in leaves 0x8000_0002..=0x8000_0004 when present.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            let s = s.trim_matches(char::from(0)).trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_stays_in_range() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.range(3, 9)
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42, 1);
                move |_| r.range(3, 9)
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (3..=9).contains(&x)));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
