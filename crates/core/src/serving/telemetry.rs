//! Passive observability for serving replays: windowed time-series,
//! online quantile sketches, and simulator self-profiling.
//!
//! A [`Telemetry`] collector is an ordinary [`SimObserver`] folding the
//! replay's [`SimEvent`] stream. Mount it on a scenario with
//! [`Scenario::telemetry`](super::scenario::Scenario::telemetry) and run
//! [`CompiledScenario::run_with_telemetry`](super::scenario::CompiledScenario::run_with_telemetry):
//! the collector then folds on a second thread, beside the replay. The
//! replay copies its events into small fixed-size batches and hands them
//! over a bounded pipe; the collector folds them in the order the replay
//! sent them, so it ends exactly as an inline fold would. A user
//! observer co-mounted with
//! [`CompiledScenario::run_observed_with_telemetry`](super::scenario::CompiledScenario::run_observed_with_telemetry)
//! stays on the calling thread with the replay. A collector constructed
//! directly and passed to
//! [`CompiledScenario::run_observed`](super::scenario::CompiledScenario::run_observed)
//! folds inline. Three cooperating pieces:
//!
//! * **Windowed time-series** — fixed-interval counters and gauges
//!   (ready-queue depth, active batch size, KV and shared-block
//!   occupancy, per-class attainment, cache hit rate, shed rate, active
//!   blades) sampled per blade and cluster-wide at a configurable
//!   resolution ([`TelemetryConfig::window_s`]). Memory is bounded: when
//!   a replay outgrows [`TelemetryConfig::max_windows`], adjacent
//!   windows are coalesced pairwise and the resolution doubles
//!   (ring-buffer downsampling), so million-request replays stay flat.
//! * **Online quantile sketches** — a P² (piecewise-parabolic) streaming
//!   estimator ([`P2Sketch`]) tracks TTFT/TPOT/latency tails per window
//!   and over the whole run without storing per-request samples. The
//!   exact nearest-rank percentiles in [`super::report`] stay
//!   authoritative; the sketch is validated against them.
//! * **Self-profiling** — wall-clock phase counters over the simulator's
//!   own hot paths (stretch planning, leapfrog replay, admission,
//!   routing, iteration-cost table pricing) in [`profile`], captured
//!   only between [`profile::start`] and [`profile::stop`], which the
//!   caller wraps around the replay it wants profiled.
//!
//! Telemetry reads stretch summaries ([`SimObserver::interest`] is
//! [`Interest::Summaries`]): the event-driven core keeps batching decode
//! stretches with the collector mounted and sends it closed-form
//! [`EventKind::Stretch`] summaries instead of per-iteration
//! [`EventKind::Step`] events, so mounting telemetry never changes the
//! replay — reports stay bit-identical to an unobserved run (proptested
//! across the policy × topology × core matrix). A cluster-wide leapfrog
//! commits every member's skipped rounds at the end of each call for
//! it, where an unobserved replay commits them only when it next reads
//! the blade; only the stretch diagnostics tell the two apart.
//!
//! Exporters: [`Telemetry::to_csv`] renders one wide row per window (one
//! column per series, plottable by anything), and
//! [`Telemetry::to_prometheus`] dumps cumulative totals, final gauges
//! and run quantiles in the Prometheus text exposition format.
//!
//! # Examples
//!
//! ```
//! use llm_workload::{ModelZoo, Parallelism};
//! use optimus::serving::{Scenario, TelemetryConfig, TraceConfig};
//! use optimus::MultiBladeSystem;
//!
//! # fn main() -> Result<(), optimus::OptimusError> {
//! let system = MultiBladeSystem::new(1)?;
//! let model = ModelZoo::llama2_7b();
//! let par = Parallelism::new(1, 1, 1)?;
//! let (report, telemetry) = Scenario::new(&system)
//!     .model(&model)
//!     .parallelism(&par)
//!     .max_batch(4)
//!     .unconstrained_kv()
//!     .poisson(TraceConfig {
//!         seed: 7,
//!         requests: 8,
//!         arrival_rate_per_s: 50.0,
//!         prompt_tokens: (32, 64),
//!         output_tokens: (8, 16),
//!     })
//!     .telemetry(TelemetryConfig::default())
//!     .compile()?
//!     .run_with_telemetry()?;
//! let windows = telemetry.cluster_windows();
//! let completed: u64 = windows.iter().map(|w| w.completions).sum();
//! assert_eq!(completed, u64::from(report.report.completed));
//! # Ok(())
//! # }
//! ```

use super::observer::{EventKind, Interest, SimEvent, SimObserver};
use super::report::SloClass;
use super::traces::RequestSpec;
use crate::error::OptimusError;
use std::fmt::Write as _;

pub use profile::ProfileReport;

/// Dials of the [`Telemetry`] collector: sampling resolution and the
/// memory bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Initial width of one sampling window (seconds of simulated
    /// time). Doubles whenever the replay outgrows `max_windows`.
    pub window_s: f64,
    /// Maximum windows retained per series before pairwise coalescing
    /// halves the resolution — the memory bound.
    pub max_windows: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_s: 1.0,
            max_windows: 512,
        }
    }
}

impl TelemetryConfig {
    /// Validates the dials.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a non-positive or
    /// non-finite window, or a window bound below 2 (downsampling
    /// halves pairwise, so one window could never absorb overflow).
    pub fn validate(&self) -> Result<(), OptimusError> {
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!(
                    "telemetry needs a positive finite window, got {} s",
                    self.window_s
                ),
            });
        }
        if self.max_windows < 2 {
            return Err(OptimusError::Serving {
                reason: format!(
                    "telemetry needs max_windows >= 2 to downsample into, got {}",
                    self.max_windows
                ),
            });
        }
        Ok(())
    }
}

/// A P² (piecewise-parabolic) streaming quantile estimator (Jain &
/// Chlamtac 1985): five markers track one target quantile of an
/// unbounded stream in O(1) memory and O(1) per observation. The
/// estimate converges on heavy-tailed populations without storing
/// samples; the exact nearest-rank percentiles in [`super::report`]
/// remain the authoritative end-of-run figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Sketch {
    q: f64,
    count: u64,
    /// Marker heights (the first `count` entries are the raw samples
    /// while `count < 5`).
    h: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
}

impl P2Sketch {
    /// A sketch tracking quantile `q` (clamped into `(0, 1)`; e.g.
    /// `0.99` for p99).
    #[must_use]
    pub fn new(q: f64) -> Self {
        let q = if q.is_finite() {
            q.clamp(1e-6, 1.0 - 1e-6)
        } else {
            0.5
        };
        Self {
            q,
            count: 0,
            h: [0.0; 5],
            n: [0.0; 5],
            np: [0.0; 5],
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Observations absorbed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    fn dn(&self) -> [f64; 5] {
        [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0]
    }

    /// Absorbs one observation (non-finite values are ignored).
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.h[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.h.sort_by(f64::total_cmp);
                self.n = [1.0, 2.0, 3.0, 4.0, 5.0];
                let dn = self.dn();
                for (i, np) in self.np.iter_mut().enumerate() {
                    *np = 1.0 + 4.0 * dn[i];
                }
            }
            return;
        }
        // Locate the cell, stretching the extreme markers to cover x.
        let k = if x < self.h[0] {
            self.h[0] = x;
            0
        } else if x >= self.h[4] {
            self.h[4] = x;
            3
        } else {
            // h[0] <= x < h[4]: the last j with h[j] <= x, in 0..=3.
            (0..4).rev().find(|&j| self.h[j] <= x).unwrap_or(0)
        };
        for n in &mut self.n[k + 1..] {
            *n += 1.0;
        }
        let dn = self.dn();
        for (i, np) in self.np.iter_mut().enumerate() {
            *np += dn[i];
        }
        self.count += 1;
        // Nudge the interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.h[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.h[i + 1] - self.h[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.h[i] - self.h[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.h[i] = if self.h[i - 1] < parabolic && parabolic < self.h[i + 1] {
                    parabolic
                } else if d > 0.0 {
                    // Linear fallback toward the right neighbour.
                    self.h[i] + (self.h[i + 1] - self.h[i]) / (self.n[i + 1] - self.n[i])
                } else {
                    self.h[i] - (self.h[i - 1] - self.h[i]) / (self.n[i - 1] - self.n[i])
                };
                self.n[i] += d;
            }
        }
    }

    /// The current estimate of quantile `q`, or `None` before any
    /// observation. Below five observations the exact nearest-rank
    /// value of the buffered samples is returned.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            c if c < 5 => {
                let mut buf = self.h;
                let vals = &mut buf[..c as usize];
                vals.sort_by(f64::total_cmp);
                let rank = (self.q * vals.len() as f64).ceil() as usize;
                Some(vals[rank.clamp(1, vals.len()) - 1])
            }
            _ => Some(self.h[2]),
        }
    }

    /// Folds `other` into `self` — the approximate merge the windowed
    /// series uses when downsampling coalesces two windows. Buffered
    /// (sub-five-sample) sketches are replayed exactly; converged
    /// sketches blend marker heights weighted by their counts, which
    /// preserves tail ordering but is not the sketch an undivided
    /// stream would have produced. The run-long sketches never merge,
    /// so the validated end-of-run estimates are unaffected.
    pub fn absorb(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if other.count < 5 {
            for &x in &other.h[..other.count as usize] {
                self.observe(x);
            }
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        if self.count < 5 {
            let buffered = *self;
            *self = *other;
            for &x in &buffered.h[..buffered.count as usize] {
                self.observe(x);
            }
            return;
        }
        let (sn, on) = (self.count as f64, other.count as f64);
        for i in 0..5 {
            self.h[i] = (self.h[i] * sn + other.h[i] * on) / (sn + on);
        }
        self.h.sort_by(f64::total_cmp);
        self.count += other.count;
        let total = self.count as f64;
        for (i, &d) in self.dn().iter().enumerate() {
            self.np[i] = 1.0 + (total - 1.0) * d;
            self.n[i] = self.np[i];
        }
    }
}

/// The three request-latency metrics the quantile sketches track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailMetric {
    /// Time to first token (s).
    Ttft,
    /// Time per output token after the first (s).
    Tpot,
    /// Arrival-to-completion latency (s).
    Latency,
}

/// Run-long sketched tail estimates for one [`TailMetric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSummary {
    /// Sketched median.
    pub p50: Option<f64>,
    /// Sketched 95th percentile.
    pub p95: Option<f64>,
    /// Sketched 99th percentile.
    pub p99: Option<f64>,
    /// Completions observed.
    pub count: u64,
}

/// One window of one scope (a blade, or the cluster), all fields
/// mergeable so pairwise coalescing can halve the resolution.
#[derive(Debug, Clone, Copy)]
struct Frame {
    arrivals: u64,
    admissions: u64,
    evictions: u64,
    sheds: u64,
    completions: u64,
    attained: u64,
    handoffs: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    remote_hits: u64,
    scale_events: u64,
    steps: u64,
    stretch_iters: u64,
    decode_time_s: f64,
    batch_time_s: f64,
    // Gauges: the latest sample in the window wins.
    kv_tokens: u64,
    shared_tokens: u64,
    queue_depth: u32,
    active_blades: u32,
    gauge_t: f64,
}

impl Default for Frame {
    fn default() -> Self {
        Self {
            arrivals: 0,
            admissions: 0,
            evictions: 0,
            sheds: 0,
            completions: 0,
            attained: 0,
            handoffs: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            remote_hits: 0,
            scale_events: 0,
            steps: 0,
            stretch_iters: 0,
            decode_time_s: 0.0,
            batch_time_s: 0.0,
            kv_tokens: 0,
            shared_tokens: 0,
            queue_depth: 0,
            active_blades: 0,
            gauge_t: f64::NEG_INFINITY,
        }
    }
}

impl Frame {
    fn merged(&self, later: &Self) -> Self {
        let mut m = if later.gauge_t >= self.gauge_t {
            *later
        } else {
            *self
        };
        m.arrivals = self.arrivals + later.arrivals;
        m.admissions = self.admissions + later.admissions;
        m.evictions = self.evictions + later.evictions;
        m.sheds = self.sheds + later.sheds;
        m.completions = self.completions + later.completions;
        m.attained = self.attained + later.attained;
        m.handoffs = self.handoffs + later.handoffs;
        m.cache_hits = self.cache_hits + later.cache_hits;
        m.cache_misses = self.cache_misses + later.cache_misses;
        m.cache_evictions = self.cache_evictions + later.cache_evictions;
        m.remote_hits = self.remote_hits + later.remote_hits;
        m.scale_events = self.scale_events + later.scale_events;
        m.steps = self.steps + later.steps;
        m.stretch_iters = self.stretch_iters + later.stretch_iters;
        m.decode_time_s = self.decode_time_s + later.decode_time_s;
        m.batch_time_s = self.batch_time_s + later.batch_time_s;
        m
    }

    /// Counts one engine iteration of `step_s` seconds over `decoding`
    /// decoding sequences.
    fn step(&mut self, step_s: f64, decoding: u32) {
        self.steps += 1;
        if decoding > 0 && step_s > 0.0 {
            self.decode_time_s += step_s;
            self.batch_time_s += step_s * f64::from(decoding);
        }
    }

    fn stamp(&mut self, t: f64, depth: u32, active: u32, kv: u64, shared: u64) {
        if t >= self.gauge_t {
            self.queue_depth = depth;
            self.active_blades = active;
            self.kv_tokens = kv;
            self.shared_tokens = shared;
            self.gauge_t = t;
        }
    }
}

/// Per-class slice of one cluster window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassWindow {
    /// Completions of this class in the window.
    pub completions: u64,
    /// Completions that met both class targets.
    pub attained: u64,
}

/// The cluster-scope window: the shared frame plus per-class attainment
/// and the per-window tail sketches.
#[derive(Debug, Clone)]
struct ClusterFrame {
    frame: Frame,
    classes: Vec<ClassWindow>,
    ttft: P2Sketch,
    tpot: P2Sketch,
    latency: P2Sketch,
}

impl ClusterFrame {
    fn new(classes: usize) -> Self {
        Self {
            frame: Frame::default(),
            classes: vec![ClassWindow::default(); classes],
            ttft: P2Sketch::new(0.99),
            tpot: P2Sketch::new(0.99),
            latency: P2Sketch::new(0.99),
        }
    }

    fn merged(&self, later: &Self) -> Self {
        let mut m = Self {
            frame: self.frame.merged(&later.frame),
            classes: self.classes.clone(),
            ttft: self.ttft,
            tpot: self.tpot,
            latency: self.latency,
        };
        for (c, l) in m.classes.iter_mut().zip(&later.classes) {
            c.completions += l.completions;
            c.attained += l.attained;
        }
        m.ttft.absorb(&later.ttft);
        m.tpot.absorb(&later.tpot);
        m.latency.absorb(&later.latency);
        m
    }
}

/// One cluster-wide window of the collected time-series, with gauges
/// forward-filled across empty windows.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window start (simulated seconds).
    pub start_s: f64,
    /// Window end (exclusive).
    pub end_s: f64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Batch admissions (re-admissions after eviction count again).
    pub admissions: u64,
    /// Preemptions.
    pub evictions: u64,
    /// Requests dropped by the shedding gate.
    pub sheds: u64,
    /// Requests that finished.
    pub completions: u64,
    /// Finished requests that met both their class targets.
    pub attained: u64,
    /// Prefill→decode handoffs (disaggregated topologies).
    pub handoffs: u64,
    /// Prefix-cache hits.
    pub cache_hits: u64,
    /// Prefix-cache misses.
    pub cache_misses: u64,
    /// Shared blocks reclaimed.
    pub cache_evictions: u64,
    /// Global-tier remote hits.
    pub remote_hits: u64,
    /// Autoscaler blade-count changes.
    pub scale_events: u64,
    /// Engine iterations dispatched one by one.
    pub steps: u64,
    /// Iterations advanced inside batched decode stretches.
    pub stretch_iters: u64,
    /// Decode time accumulated in the window (s; stretch spans are
    /// apportioned across the windows they overlap).
    pub decode_time_s: f64,
    /// Time-weighted mean decode batch (0 when the window saw no
    /// decode work).
    pub mean_batch: f64,
    /// Ready-queue depth at the last event in the window (arrived,
    /// not yet running; forward-filled). Derived from event kinds alone:
    /// an arrival or an eviction adds one, an admission or a shed removes
    /// one, so request ids — labels that may repeat — never enter it.
    pub queue_depth: u32,
    /// Active blade count (forward-filled).
    pub active_blades: u32,
    /// Charged KV tokens across the cluster at the last sample
    /// (forward-filled).
    pub kv_tokens: u64,
    /// Tokens resident in shared prefix blocks (forward-filled).
    pub shared_tokens: u64,
    /// Per-class completions/attainment.
    pub classes: Vec<ClassWindow>,
    /// Sketched p99 TTFT of completions in the window (s).
    pub ttft_p99_s: Option<f64>,
    /// Sketched p99 TPOT of completions in the window (s).
    pub tpot_p99_s: Option<f64>,
    /// Sketched p99 latency of completions in the window (s).
    pub latency_p99_s: Option<f64>,
}

impl WindowRow {
    /// Prefix-cache hit rate over the window (`None` without lookups).
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }

    /// Fraction of the window's arrivals that were shed (`None`
    /// without arrivals).
    #[must_use]
    pub fn shed_rate(&self) -> Option<f64> {
        (self.arrivals > 0).then(|| self.sheds as f64 / self.arrivals as f64)
    }

    /// Fraction of the window's completions that met their class
    /// targets (`None` without completions).
    #[must_use]
    pub fn attainment(&self) -> Option<f64> {
        (self.completions > 0).then(|| self.attained as f64 / self.completions as f64)
    }
}

/// One per-blade window of the collected time-series.
#[derive(Debug, Clone, Copy)]
pub struct BladeWindowRow {
    /// Window start (simulated seconds).
    pub start_s: f64,
    /// Batch admissions on this blade.
    pub admissions: u64,
    /// Preemptions on this blade.
    pub evictions: u64,
    /// Completions on this blade.
    pub completions: u64,
    /// Engine iterations dispatched one by one.
    pub steps: u64,
    /// Iterations advanced inside batched decode stretches.
    pub stretch_iters: u64,
    /// Decode time accumulated in the window (s).
    pub decode_time_s: f64,
    /// Time-weighted mean decode batch.
    pub mean_batch: f64,
    /// Charged KV tokens at the last sample (forward-filled).
    pub kv_tokens: u64,
    /// Shared-block tokens at the last sample (forward-filled).
    pub shared_tokens: u64,
    /// Prefix-cache hits on this blade.
    pub cache_hits: u64,
    /// Prefix-cache misses on this blade.
    pub cache_misses: u64,
}

/// The telemetry collector: a read-only [`SimObserver`] aggregating the
/// replay into bounded-memory windowed series and streaming quantile
/// sketches (see the [module docs](self) for the full picture).
///
/// Feed it the workload's arrival times with
/// [`Self::observe_arrivals`] before the replay (the scenario seam does
/// this for you) and call [`Self::finish`] after, then read the series
/// via [`Self::cluster_windows`] / [`Self::blade_windows`] or export
/// with [`Self::to_csv`] / [`Self::to_prometheus`].
#[derive(Debug)]
pub struct Telemetry {
    window_s: f64,
    cap: usize,
    classes: Vec<SloClass>,
    cluster: Vec<ClusterFrame>,
    blades: Vec<Vec<Frame>>,
    run: [[P2Sketch; 3]; 3],
    arrivals: Vec<f64>,
    next_arrival: usize,
    /// Requests arrived and not running: the queue-depth gauge.
    waiting: u64,
    active: u32,
    initial_active: u32,
    cur_kv: Vec<u64>,
    cur_shared: Vec<u64>,
    /// Running sums of `cur_kv` and `cur_shared`: the cluster gauges.
    kv_total: u64,
    shared_total: u64,
    t_high: f64,
}

impl Telemetry {
    /// A collector for a topology of `blades` blades and the given SLO
    /// class table (pass the scenario's classes, or one default class).
    ///
    /// # Errors
    ///
    /// Propagates [`TelemetryConfig::validate`].
    pub fn new(
        cfg: &TelemetryConfig,
        blades: u32,
        classes: &[SloClass],
    ) -> Result<Self, OptimusError> {
        cfg.validate()?;
        let sketches = || [P2Sketch::new(0.5), P2Sketch::new(0.95), P2Sketch::new(0.99)];
        Ok(Self {
            window_s: cfg.window_s,
            cap: cfg.max_windows,
            classes: classes.to_vec(),
            cluster: Vec::new(),
            blades: (0..blades).map(|_| Vec::new()).collect(),
            run: [sketches(), sketches(), sketches()],
            arrivals: Vec::new(),
            next_arrival: 0,
            waiting: 0,
            active: blades,
            initial_active: blades,
            cur_kv: vec![0; blades as usize],
            cur_shared: vec![0; blades as usize],
            kv_total: 0,
            shared_total: 0,
            t_high: f64::NEG_INFINITY,
        })
    }

    /// Sets the blade count active at t = 0 (the autoscaler's
    /// `min_blades`; defaults to the constructor's blade count).
    pub fn set_active_blades(&mut self, active: u32) {
        self.active = active;
        self.initial_active = active;
    }

    /// Registers the workload so arrivals (and the derived ready-queue
    /// depth) can be window-bucketed as the replay's clock passes them.
    /// Call once before the replay.
    pub fn observe_arrivals(&mut self, trace: &[RequestSpec]) {
        self.arrivals = trace.iter().map(|r| r.arrival_s).collect();
        self.arrivals.sort_by(f64::total_cmp);
        self.next_arrival = 0;
    }

    /// Absorbs every arrival not yet passed by the replay clock and
    /// freezes the series. Call after the replay (the scenario seam
    /// does); exporters and accessors then see the complete workload.
    pub fn finish(&mut self) {
        self.absorb(f64::INFINITY);
    }

    /// The current window width (seconds; grows by doubling when the
    /// replay outlives `max_windows` windows).
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Cluster-scope windows materialized so far.
    #[must_use]
    pub fn window_count(&self) -> usize {
        self.cluster.len()
    }

    /// Blades the collector tracks.
    #[must_use]
    pub fn blade_count(&self) -> usize {
        self.blades.len()
    }

    /// The run-long sketched tails of `metric` (validated against the
    /// exact end-of-run percentiles; see the module docs).
    #[must_use]
    pub fn tail(&self, metric: TailMetric) -> TailSummary {
        let s = &self.run[metric_idx(metric)];
        TailSummary {
            p50: s[0].estimate(),
            p95: s[1].estimate(),
            p99: s[2].estimate(),
            count: s[2].count(),
        }
    }

    /// The index of the window holding `t`, downsampling first when `t`
    /// lies past the last window the bound allows. Every event and every
    /// share of a stretch is filed by this index, so each lands in window
    /// `floor(t / window_s)`.
    fn window_index(&mut self, t: f64) -> usize {
        let t = if t.is_finite() && t > 0.0 { t } else { 0.0 };
        loop {
            let i = (t / self.window_s) as usize;
            if i < self.cap {
                return i;
            }
            self.halve();
        }
    }

    /// Pairwise-coalesces every series, doubling the window width: the
    /// ring-buffer downsampling that bounds memory.
    fn halve(&mut self) {
        self.window_s *= 2.0;
        let fold = |v: &[Frame]| -> Vec<Frame> {
            v.chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        c[0].merged(&c[1])
                    } else {
                        c[0]
                    }
                })
                .collect()
        };
        for b in &mut self.blades {
            *b = fold(b);
        }
        self.cluster = self
            .cluster
            .chunks(2)
            .map(|c| {
                if c.len() == 2 {
                    c[0].merged(&c[1])
                } else {
                    c[0].clone()
                }
            })
            .collect();
    }

    /// Cluster window `i`, materialized on first touch.
    fn cluster_mut(&mut self, i: usize) -> &mut ClusterFrame {
        if self.cluster.len() <= i {
            let n = self.classes.len();
            self.cluster.resize_with(i + 1, || ClusterFrame::new(n));
        }
        &mut self.cluster[i]
    }

    /// Window `i` of blade `blade`, materialized on first touch.
    fn blade_mut(&mut self, blade: u32, i: usize) -> &mut Frame {
        let b = blade as usize;
        if self.blades.len() <= b {
            self.blades.resize_with(b + 1, Vec::new);
            self.cur_kv.resize(b + 1, 0);
            self.cur_shared.resize(b + 1, 0);
        }
        let v = &mut self.blades[b];
        if v.len() <= i {
            v.resize_with(i + 1, Frame::default);
        }
        &mut v[i]
    }

    /// Writes the current gauge values, sampled at `t`, into cluster
    /// window `i`.
    fn stamp_cluster(&mut self, i: usize, t: f64) {
        let depth = u32::try_from(self.waiting).unwrap_or(u32::MAX);
        let (active, kv, shared) = (self.active, self.kv_total, self.shared_total);
        self.cluster_mut(i)
            .frame
            .stamp(t, depth, active, kv, shared);
    }

    /// Advances the arrival high-water mark to `t`, bucketing every
    /// passed arrival into its own window. Blade clocks interleave
    /// non-monotonically, so the mark only moves forward.
    fn absorb(&mut self, t: f64) {
        if t > self.t_high {
            self.t_high = t;
        }
        while self.next_arrival < self.arrivals.len()
            && self.arrivals[self.next_arrival] <= self.t_high
        {
            let ta = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            self.waiting += 1;
            let i = self.window_index(ta);
            self.cluster_mut(i).frame.arrivals += 1;
            self.stamp_cluster(i, ta);
        }
    }

    /// Cluster rows with gauges forward-filled across windows that saw
    /// no events.
    #[must_use]
    pub fn cluster_windows(&self) -> Vec<WindowRow> {
        let mut depth = 0u32;
        let mut active = self.initial_active;
        let mut kv = 0u64;
        let mut shared = 0u64;
        self.cluster
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let f = &c.frame;
                if f.gauge_t > f64::NEG_INFINITY {
                    depth = f.queue_depth;
                    active = f.active_blades;
                    kv = f.kv_tokens;
                    shared = f.shared_tokens;
                }
                WindowRow {
                    start_s: i as f64 * self.window_s,
                    end_s: (i + 1) as f64 * self.window_s,
                    arrivals: f.arrivals,
                    admissions: f.admissions,
                    evictions: f.evictions,
                    sheds: f.sheds,
                    completions: f.completions,
                    attained: f.attained,
                    handoffs: f.handoffs,
                    cache_hits: f.cache_hits,
                    cache_misses: f.cache_misses,
                    cache_evictions: f.cache_evictions,
                    remote_hits: f.remote_hits,
                    scale_events: f.scale_events,
                    steps: f.steps,
                    stretch_iters: f.stretch_iters,
                    decode_time_s: f.decode_time_s,
                    mean_batch: mean_batch(f),
                    queue_depth: depth,
                    active_blades: active,
                    kv_tokens: kv,
                    shared_tokens: shared,
                    classes: c.classes.clone(),
                    ttft_p99_s: c.ttft.estimate(),
                    tpot_p99_s: c.tpot.estimate(),
                    latency_p99_s: c.latency.estimate(),
                }
            })
            .collect()
    }

    /// Per-blade rows for blade `blade` (empty for an unknown blade),
    /// gauges forward-filled.
    #[must_use]
    pub fn blade_windows(&self, blade: u32) -> Vec<BladeWindowRow> {
        let Some(frames) = self.blades.get(blade as usize) else {
            return Vec::new();
        };
        let mut kv = 0u64;
        let mut shared = 0u64;
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                if f.gauge_t > f64::NEG_INFINITY {
                    kv = f.kv_tokens;
                    shared = f.shared_tokens;
                }
                BladeWindowRow {
                    start_s: i as f64 * self.window_s,
                    admissions: f.admissions,
                    evictions: f.evictions,
                    completions: f.completions,
                    steps: f.steps,
                    stretch_iters: f.stretch_iters,
                    decode_time_s: f.decode_time_s,
                    mean_batch: mean_batch(f),
                    kv_tokens: kv,
                    shared_tokens: shared,
                    cache_hits: f.cache_hits,
                    cache_misses: f.cache_misses,
                }
            })
            .collect()
    }

    /// Renders the series as a wide CSV: one row per window, one column
    /// per cluster series, then per-class and per-blade column groups —
    /// directly consumable by pandas/gnuplot/any spreadsheet.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window_start_s,arrivals,admissions,evictions,sheds,completions,attained,\
             handoffs,cache_hits,cache_misses,cache_evictions,remote_hits,scale_events,\
             steps,stretch_iters,decode_time_s,mean_batch,queue_depth,active_blades,\
             kv_tokens,shared_tokens,cache_hit_rate,shed_rate,attainment,\
             ttft_p99_s,tpot_p99_s,latency_p99_s",
        );
        for c in 0..self.classes.len() {
            let _ = write!(out, ",class{c}_completions,class{c}_attained");
        }
        for b in 0..self.blades.len() {
            let _ = write!(
                out,
                ",b{b}_admissions,b{b}_completions,b{b}_steps,b{b}_stretch_iters,\
                 b{b}_kv_tokens,b{b}_mean_batch"
            );
        }
        out.push('\n');
        let blades: Vec<Vec<BladeWindowRow>> = (0..self.blades.len())
            .map(|b| self.blade_windows(b as u32))
            .collect();
        for (i, w) in self.cluster_windows().iter().enumerate() {
            let _ = write!(
                out,
                "{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.3},{},{},{},{}",
                w.start_s,
                w.arrivals,
                w.admissions,
                w.evictions,
                w.sheds,
                w.completions,
                w.attained,
                w.handoffs,
                w.cache_hits,
                w.cache_misses,
                w.cache_evictions,
                w.remote_hits,
                w.scale_events,
                w.steps,
                w.stretch_iters,
                w.decode_time_s,
                w.mean_batch,
                w.queue_depth,
                w.active_blades,
                w.kv_tokens,
                w.shared_tokens,
            );
            // Optional cells are left empty when the window has no value.
            for v in [
                w.cache_hit_rate(),
                w.shed_rate(),
                w.attainment(),
                w.ttft_p99_s,
                w.tpot_p99_s,
                w.latency_p99_s,
            ] {
                out.push(',');
                if let Some(x) = v {
                    let _ = write!(out, "{x:.6}");
                }
            }
            for cw in &w.classes {
                let _ = write!(out, ",{},{}", cw.completions, cw.attained);
            }
            for rows in &blades {
                if let Some(bw) = rows.get(i) {
                    let _ = write!(
                        out,
                        ",{},{},{},{},{},{:.3}",
                        bw.admissions,
                        bw.completions,
                        bw.steps,
                        bw.stretch_iters,
                        bw.kv_tokens,
                        bw.mean_batch
                    );
                } else {
                    out.push_str(",0,0,0,0,0,0.000");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders cumulative totals, final gauges and the run-long tail
    /// sketches in the Prometheus text exposition format (an
    /// end-of-run scrape).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let totals = |pick: &dyn Fn(&Frame) -> u64| -> u64 {
            self.cluster.iter().map(|c| pick(&c.frame)).sum()
        };
        type CounterSpec<'a> = (&'a str, &'a str, &'a dyn Fn(&Frame) -> u64);
        let counters: [CounterSpec; 8] = [
            ("sim_arrivals_total", "Requests arrived.", &|f| f.arrivals),
            ("sim_admissions_total", "Batch admissions.", &|f| {
                f.admissions
            }),
            ("sim_evictions_total", "Preemptions.", &|f| f.evictions),
            ("sim_sheds_total", "Requests shed by the gate.", &|f| {
                f.sheds
            }),
            ("sim_completions_total", "Requests completed.", &|f| {
                f.completions
            }),
            ("sim_cache_hits_total", "Prefix-cache hits.", &|f| {
                f.cache_hits
            }),
            ("sim_cache_misses_total", "Prefix-cache misses.", &|f| {
                f.cache_misses
            }),
            ("sim_scale_events_total", "Autoscaler changes.", &|f| {
                f.scale_events
            }),
        ];
        for (name, help, pick) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", totals(pick));
        }
        let _ = writeln!(
            out,
            "# HELP sim_blade_completions_total Completions per blade."
        );
        let _ = writeln!(out, "# TYPE sim_blade_completions_total counter");
        for (b, frames) in self.blades.iter().enumerate() {
            let done: u64 = frames.iter().map(|f| f.completions).sum();
            let _ = writeln!(out, "sim_blade_completions_total{{blade=\"{b}\"}} {done}");
        }
        let last = self.cluster_windows();
        if let Some(w) = last.last() {
            let gauges = [
                (
                    "sim_queue_depth",
                    "Ready-queue depth.",
                    f64::from(w.queue_depth),
                ),
                (
                    "sim_active_blades",
                    "Active blades.",
                    f64::from(w.active_blades),
                ),
                ("sim_kv_tokens", "Charged KV tokens.", w.kv_tokens as f64),
                (
                    "sim_shared_tokens",
                    "Shared prefix-block tokens.",
                    w.shared_tokens as f64,
                ),
            ];
            for (name, help, v) in gauges {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
        }
        for (metric, name) in [
            (TailMetric::Ttft, "sim_ttft_seconds"),
            (TailMetric::Tpot, "sim_tpot_seconds"),
            (TailMetric::Latency, "sim_latency_seconds"),
        ] {
            let t = self.tail(metric);
            let _ = writeln!(out, "# HELP {name} Sketched latency tails (P2).");
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [(0.5, t.p50), (0.95, t.p95), (0.99, t.p99)] {
                if let Some(v) = v {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                }
            }
            let _ = writeln!(out, "{name}_count {}", t.count);
        }
        out
    }

    /// Counts one event in window `i` of blade `blade` and of the
    /// cluster.
    fn bump(&mut self, blade: u32, i: usize, counter: fn(&mut Frame) -> &mut u64) {
        *counter(self.blade_mut(blade, i)) += 1;
        *counter(&mut self.cluster_mut(i).frame) += 1;
    }

    /// Folds a completion's TTFT/TPOT/latency decomposition into the
    /// attainment counters and the quantile sketches of window `i`.
    fn record_outcome(
        &mut self,
        blade: u32,
        i: usize,
        t: f64,
        request: &RequestSpec,
        first_token_s: f64,
    ) {
        let (ttft, tpot) = request.slo_times(first_token_s, t);
        let latency = t - request.arrival_s;
        let cls = request.class as usize;
        let ok = self.classes.get(cls).is_some_and(|c| c.met(ttft, tpot));
        if ok {
            self.blade_mut(blade, i).attained += 1;
        }
        let frame = self.cluster_mut(i);
        frame.frame.attained += u64::from(ok);
        if let Some(cw) = frame.classes.get_mut(cls) {
            cw.completions += 1;
            cw.attained += u64::from(ok);
        }
        frame.ttft.observe(ttft);
        frame.tpot.observe(tpot);
        frame.latency.observe(latency);
        for (m, v) in [(0, ttft), (1, tpot), (2, latency)] {
            for s in &mut self.run[m] {
                s.observe(v);
            }
        }
    }

    /// Records blade `blade`'s KV gauges, sampled at `t`, in its window
    /// `i`; the shared-block gauge keeps its value when `shared` is
    /// `None`.
    fn gauge_kv(&mut self, blade: u32, i: usize, t: f64, kv: u64, shared: Option<u64>) {
        // `blade_mut` also sizes the current-value gauges.
        let f = self.blade_mut(blade, i);
        if t >= f.gauge_t {
            f.kv_tokens = kv;
            f.shared_tokens = shared.unwrap_or(f.shared_tokens);
            f.gauge_t = t;
        }
        let b = blade as usize;
        self.kv_total = self.kv_total - self.cur_kv[b] + kv;
        self.cur_kv[b] = kv;
        if let Some(shared) = shared {
            self.shared_total = self.shared_total - self.cur_shared[b] + shared;
            self.cur_shared[b] = shared;
        }
    }

    /// Apportions a closed-form decode-stretch span ending at `end_s`, in
    /// window `i1`, across the windows it overlaps (time sums only; the
    /// iteration counter lands in the end window). Each share is filed by
    /// its window's index, never by re-dividing the window's start.
    fn distribute(
        &mut self,
        blade: u32,
        i1: usize,
        end_s: f64,
        iters: u64,
        step_s: f64,
        decoding: u32,
    ) {
        let span = iters as f64 * step_s;
        let start_s = (end_s - span).max(0.0);
        let decode = span;
        let weighted = span * f64::from(decoding);
        // The end index came first, so any downsampling has happened and
        // the window geometry is stable while we walk the overlap; sizing
        // both series to it covers every window below.
        let i0 = self.window_index(start_s);
        self.blade_mut(blade, i1).stretch_iters += iters;
        self.cluster_mut(i1).frame.stretch_iters += iters;
        let (first, end) = (i0.min(i1 + 1), i1 + 1);
        let frames = &mut self.blades[blade as usize][first..end];
        let windows = frames.iter_mut().zip(&mut self.cluster[first..end]);
        for (i, (f, c)) in (first..).zip(windows) {
            let w0 = i as f64 * self.window_s;
            let w1 = w0 + self.window_s;
            let overlap = (end_s.min(w1) - start_s.max(w0)).max(0.0);
            let frac = if span > 0.0 { overlap / span } else { 1.0 };
            let (d, b) = (decode * frac, weighted * frac);
            f.decode_time_s += d;
            f.batch_time_s += b;
            c.frame.decode_time_s += d;
            c.frame.batch_time_s += b;
            if span <= 0.0 {
                break;
            }
        }
    }
}

fn metric_idx(metric: TailMetric) -> usize {
    match metric {
        TailMetric::Ttft => 0,
        TailMetric::Tpot => 1,
        TailMetric::Latency => 2,
    }
}

fn mean_batch(f: &Frame) -> f64 {
    if f.decode_time_s > 0.0 {
        f.batch_time_s / f.decode_time_s
    } else {
        0.0
    }
}

impl SimObserver for Telemetry {
    fn on_event(&mut self, event: &SimEvent) {
        let SimEvent {
            blade,
            clock_s: t,
            kind,
        } = *event;
        self.absorb(t);
        let i = match kind {
            // Prefill chunks move no series, so they never downsample.
            EventKind::Chunk { .. } => return,
            _ => self.window_index(t),
        };
        match kind {
            // The queue depth moves by event kind: admissions and sheds
            // leave the queue, evictions re-enter it, and a handoff keeps
            // its request waiting (from arrival to its decode admission).
            EventKind::Admission { .. } => {
                self.waiting = self.waiting.saturating_sub(1);
                self.bump(blade, i, |f| &mut f.admissions);
            }
            EventKind::Eviction { .. } => {
                self.waiting += 1;
                self.bump(blade, i, |f| &mut f.evictions);
            }
            EventKind::Handoff { .. } => self.bump(blade, i, |f| &mut f.handoffs),
            EventKind::Completion {
                request,
                first_token_s,
            } => {
                self.bump(blade, i, |f| &mut f.completions);
                self.record_outcome(blade, i, t, &request, first_token_s);
            }
            EventKind::Shed { .. } => {
                self.waiting = self.waiting.saturating_sub(1);
                self.bump(blade, i, |f| &mut f.sheds);
            }
            EventKind::Scale { active_to, .. } => {
                self.active = active_to;
                self.cluster_mut(i).frame.scale_events += 1;
            }
            EventKind::Step {
                step_s,
                decoding,
                kv_tokens,
                shared_tokens,
            } => {
                self.blade_mut(blade, i).step(step_s, decoding);
                self.cluster_mut(i).frame.step(step_s, decoding);
                self.gauge_kv(blade, i, t, kv_tokens, Some(shared_tokens));
            }
            EventKind::Stretch {
                iterations,
                step_s,
                decoding,
                kv_tokens,
            } => {
                self.distribute(blade, i, t, iterations, step_s, decoding);
                self.gauge_kv(blade, i, t, kv_tokens, None);
            }
            // Cache activity moves counters only, never a gauge.
            EventKind::CacheHit { .. } => return self.bump(blade, i, |f| &mut f.cache_hits),
            EventKind::CacheMiss { .. } => return self.bump(blade, i, |f| &mut f.cache_misses),
            EventKind::CacheEvict { .. } => return self.bump(blade, i, |f| &mut f.cache_evictions),
            EventKind::RemoteCacheHit { .. } => return self.bump(blade, i, |f| &mut f.remote_hits),
            EventKind::Chunk { .. } => return,
        }
        self.stamp_cluster(i, t);
    }

    /// Telemetry never needs the per-iteration stream: the event core
    /// keeps batching decode stretches and sends
    /// [`EventKind::Stretch`] summaries instead.
    fn interest(&self) -> Interest {
        Interest::Summaries
    }
}

pub mod profile {
    //! Simulator self-profiling: wall-clock phase counters over the
    //! event core's hot paths — decode-stretch planning, leapfrog
    //! replay, admission rounds and arrival routing — and over the
    //! pricing of the iteration-cost table, one chunk of a row at a
    //! time, wherever a replay first reads a cell of that chunk.
    //!
    //! Each instrumented site costs one relaxed atomic load until
    //! [`start`] arms the profiler. Captures are process-global:
    //! concurrent replays accumulate into the same counters, so scope a
    //! [`start`]/[`stop`] pair around the one replay you mean to
    //! profile. Phases nest (leapfrog replay plans stretches inside),
    //! so phase times overlap and do not sum to wall time.

    use serde::{Deserialize, Serialize};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::time::Instant;

    /// Wall-clock totals captured between [`start`] and [`stop`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct ProfileReport {
        /// Always 0: the replay loops keep no event heap. Kept so that
        /// readers of the report keep their shape.
        pub heap_ops: u64,
        /// Decode-stretch planning calls (including rejected plans).
        pub stretch_plans: u64,
        /// Wall-clock seconds spent planning stretches.
        pub stretch_plan_s: f64,
        /// Cluster-wide leapfrog replays.
        pub leapfrogs: u64,
        /// Wall-clock seconds inside leapfrog replays (includes the
        /// stretch planning they nest).
        pub leapfrog_s: f64,
        /// Admission rounds (engine-iteration admission scans).
        pub admission_rounds: u64,
        /// Wall-clock seconds inside admission scans.
        pub admission_s: f64,
        /// Arrival-routing passes (one per mixed-cluster replay).
        pub routing_calls: u64,
        /// Wall-clock seconds routing arrivals.
        pub routing_s: f64,
        /// Iteration-cost table chunks priced (each once per replay,
        /// on its first read).
        pub cost_table_builds: u64,
        /// Wall-clock seconds pricing iteration-cost table chunks.
        pub cost_table_s: f64,
    }

    impl ProfileReport {
        /// Whether nothing was captured (profiling disarmed).
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self == &Self::default()
        }
    }

    /// The instrumented phases (crate-internal call sites).
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Phase {
        StretchPlan,
        Leapfrog,
        Admission,
        Routing,
        CostTable,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static PLAN_CALLS: AtomicU64 = AtomicU64::new(0);
    static PLAN_NS: AtomicU64 = AtomicU64::new(0);
    static LEAP_CALLS: AtomicU64 = AtomicU64::new(0);
    static LEAP_NS: AtomicU64 = AtomicU64::new(0);
    static ADM_CALLS: AtomicU64 = AtomicU64::new(0);
    static ADM_NS: AtomicU64 = AtomicU64::new(0);
    static ROUTE_CALLS: AtomicU64 = AtomicU64::new(0);
    static ROUTE_NS: AtomicU64 = AtomicU64::new(0);
    static TABLE_CALLS: AtomicU64 = AtomicU64::new(0);
    static TABLE_NS: AtomicU64 = AtomicU64::new(0);

    fn cells(phase: Phase) -> (&'static AtomicU64, &'static AtomicU64) {
        match phase {
            Phase::StretchPlan => (&PLAN_CALLS, &PLAN_NS),
            Phase::Leapfrog => (&LEAP_CALLS, &LEAP_NS),
            Phase::Admission => (&ADM_CALLS, &ADM_NS),
            Phase::Routing => (&ROUTE_CALLS, &ROUTE_NS),
            Phase::CostTable => (&TABLE_CALLS, &TABLE_NS),
        }
    }

    /// An RAII phase timer; records on drop when armed.
    #[derive(Debug)]
    pub(crate) struct Span(Option<(Phase, Instant)>);

    impl Drop for Span {
        fn drop(&mut self) {
            if let Some((phase, t0)) = self.0.take() {
                let (calls, nanos) = cells(phase);
                calls.fetch_add(1, Relaxed);
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                nanos.fetch_add(ns, Relaxed);
            }
        }
    }

    #[inline]
    pub(crate) fn span(phase: Phase) -> Span {
        if ENABLED.load(Relaxed) {
            Span(Some((phase, Instant::now())))
        } else {
            Span(None)
        }
    }

    /// Arms the profiler: zeroes every counter and starts recording.
    pub fn start() {
        for c in [
            &PLAN_CALLS,
            &PLAN_NS,
            &LEAP_CALLS,
            &LEAP_NS,
            &ADM_CALLS,
            &ADM_NS,
            &ROUTE_CALLS,
            &ROUTE_NS,
            &TABLE_CALLS,
            &TABLE_NS,
        ] {
            c.store(0, Relaxed);
        }
        ENABLED.store(true, Relaxed);
    }

    /// Disarms the profiler and returns the totals captured since
    /// [`start`].
    pub fn stop() -> ProfileReport {
        ENABLED.store(false, Relaxed);
        let s = |ns: &AtomicU64| ns.load(Relaxed) as f64 * 1e-9;
        ProfileReport {
            heap_ops: 0,
            stretch_plans: PLAN_CALLS.load(Relaxed),
            stretch_plan_s: s(&PLAN_NS),
            leapfrogs: LEAP_CALLS.load(Relaxed),
            leapfrog_s: s(&LEAP_NS),
            admission_rounds: ADM_CALLS.load(Relaxed),
            admission_s: s(&ADM_NS),
            routing_calls: ROUTE_CALLS.load(Relaxed),
            routing_s: s(&ROUTE_NS),
            cost_table_builds: TABLE_CALLS.load(Relaxed),
            cost_table_s: s(&TABLE_NS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::report::Percentiles;

    fn cfg(window_s: f64, max_windows: usize) -> TelemetryConfig {
        TelemetryConfig {
            window_s,
            max_windows,
        }
    }

    /// Sends `kind` to `t` on blade `blade` at `clock_s`.
    fn send(t: &mut Telemetry, blade: u32, clock_s: f64, kind: EventKind) {
        t.on_event(&SimEvent {
            blade,
            clock_s,
            kind,
        });
    }

    fn one_class() -> Vec<SloClass> {
        vec![SloClass::new("default", 0.5, 0.05)]
    }

    /// A deterministic heavy-tailed population (Pareto via inverse
    /// transform over a seeded LCG).
    fn skewed(n: usize, alpha: f64) -> Vec<f64> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                (1.0 - u).powf(-1.0 / alpha)
            })
            .collect()
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        assert!(TelemetryConfig::default().validate().is_ok());
        assert!(cfg(0.0, 16).validate().is_err());
        assert!(cfg(f64::NAN, 16).validate().is_err());
        assert!(cfg(1.0, 1).validate().is_err());
    }

    #[test]
    fn p2_sketch_tracks_skewed_tails_against_exact_nearest_rank() {
        // The satellite accuracy bound: P² vs the authoritative exact
        // nearest-rank percentiles on a heavy-tailed population.
        for alpha in [1.5, 3.0] {
            let samples = skewed(20_000, alpha);
            let mut p50 = P2Sketch::new(0.5);
            let mut p99 = P2Sketch::new(0.99);
            for &x in &samples {
                p50.observe(x);
                p99.observe(x);
            }
            let mut sorted = samples.clone();
            let exact = Percentiles::of(&mut sorted);
            let e50 = (p50.estimate().unwrap() - exact.p50).abs() / exact.p50;
            let e99 = (p99.estimate().unwrap() - exact.p99).abs() / exact.p99;
            assert!(e50 < 0.05, "p50 error {e50} at alpha {alpha}");
            assert!(e99 < 0.10, "p99 error {e99} at alpha {alpha}");
        }
    }

    #[test]
    fn p2_sketch_small_counts_are_exact() {
        let mut s = P2Sketch::new(0.99);
        assert_eq!(s.estimate(), None);
        for x in [3.0, 1.0, 2.0] {
            s.observe(x);
        }
        assert_eq!(s.estimate(), Some(3.0));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn p2_absorb_stays_in_range_and_counts_add() {
        let a_vals = skewed(1_000, 2.0);
        let b_vals: Vec<f64> = skewed(500, 2.0).iter().map(|x| x * 2.0).collect();
        let mut a = P2Sketch::new(0.99);
        let mut b = P2Sketch::new(0.99);
        for &x in &a_vals {
            a.observe(x);
        }
        for &x in &b_vals {
            b.observe(x);
        }
        let mut merged = a;
        merged.absorb(&b);
        assert_eq!(merged.count(), 1_500);
        let est = merged.estimate().unwrap();
        let lo = a.estimate().unwrap().min(b.estimate().unwrap());
        let hi = a.estimate().unwrap().max(b.estimate().unwrap());
        assert!(
            est >= lo * 0.5 && est <= hi * 1.5,
            "merged p99 {est} vs [{lo}, {hi}]"
        );
        // Buffered sketches replay exactly.
        let mut few = P2Sketch::new(0.5);
        few.observe(1.0);
        let mut into = P2Sketch::new(0.5);
        into.absorb(&few);
        assert_eq!(into.estimate(), Some(1.0));
    }

    #[test]
    fn windows_bucket_events_at_their_instants() {
        // Targets sized so the hand-driven completion below attains:
        // TTFT 0.3 s ≤ 0.5 s and TPOT 0.3 s ≤ 0.5 s.
        let classes = vec![SloClass::new("default", 0.5, 0.5)];
        let mut t = Telemetry::new(&cfg(1.0, 64), 2, &classes).unwrap();
        let trace = vec![
            RequestSpec::new(0, 0.2, 16, 4),
            RequestSpec::new(1, 2.6, 16, 4),
        ];
        t.observe_arrivals(&trace);
        let (r0, r1) = (trace[0], trace[1]);
        send(&mut t, 0, 0.3, EventKind::Admission { request: r0 });
        let step = EventKind::Step {
            step_s: 0.2,
            decoding: 1,
            kv_tokens: 0,
            shared_tokens: 0,
        };
        send(&mut t, 0, 0.5, step);
        let done = EventKind::Completion {
            request: r0,
            first_token_s: 0.5,
        };
        send(&mut t, 0, 1.4, done);
        send(&mut t, 1, 2.7, EventKind::Admission { request: r1 });
        send(&mut t, 1, 3.2, EventKind::Shed { request: r1 });
        t.finish();
        let rows = t.cluster_windows();
        assert_eq!(rows[0].arrivals, 1);
        assert_eq!(rows[0].admissions, 1);
        assert_eq!(rows[1].completions, 1);
        assert_eq!(rows[2].arrivals, 1);
        assert_eq!(rows[3].sheds, 1);
        assert_eq!(rows[1].attained, 1);
        assert_eq!(rows[1].classes[0].completions, 1);
        let blade0 = t.blade_windows(0);
        assert_eq!(blade0[0].admissions, 1);
        assert_eq!(blade0[1].completions, 1);
        assert_eq!(t.tail(TailMetric::Ttft).count, 1);
    }

    #[test]
    fn queue_depth_tracks_arrivals_admissions_and_sheds() {
        let mut t = Telemetry::new(&cfg(1.0, 64), 1, &one_class()).unwrap();
        let trace: Vec<RequestSpec> = (0..4)
            .map(|i| RequestSpec::new(i, f64::from(i) * 0.1, 16, 4))
            .collect();
        t.observe_arrivals(&trace);
        // All four arrived by t=0.5; one admitted, one shed.
        let (r0, r1) = (trace[0], trace[1]);
        send(&mut t, 0, 0.5, EventKind::Admission { request: r0 });
        let rows = t.cluster_windows();
        assert_eq!(rows[0].queue_depth, 3);
        send(&mut t, 0, 0.6, EventKind::Shed { request: r1 });
        let rows = t.cluster_windows();
        assert_eq!(rows[0].queue_depth, 2);
        // An eviction re-queues.
        let evict = EventKind::Eviction {
            request: r0,
            wasted_tokens: 1,
        };
        send(&mut t, 0, 0.7, evict);
        assert_eq!(t.cluster_windows()[0].queue_depth, 3);
        send(&mut t, 0, 0.8, EventKind::Admission { request: r0 });
        assert_eq!(t.cluster_windows()[0].queue_depth, 2);
    }

    #[test]
    fn scale_events_move_the_active_blades_gauge() {
        let mut t = Telemetry::new(&cfg(1.0, 64), 4, &one_class()).unwrap();
        t.set_active_blades(1);
        t.observe_arrivals(&[RequestSpec::new(0, 0.0, 16, 4)]);
        let scale = |active_from, active_to| EventKind::Scale {
            active_from,
            active_to,
        };
        send(&mut t, 0, 2.5, scale(1, 2));
        send(&mut t, 0, 5.5, scale(2, 3));
        t.finish();
        let rows = t.cluster_windows();
        assert_eq!(rows[0].active_blades, 1);
        assert_eq!(rows[2].active_blades, 2);
        assert_eq!(rows[2].scale_events, 1);
        assert_eq!(rows[3].active_blades, 2, "forward-filled between events");
        assert_eq!(rows[5].active_blades, 3);
    }

    #[test]
    fn stretch_samples_apportion_time_across_windows() {
        let mut t = Telemetry::new(&cfg(1.0, 64), 1, &one_class()).unwrap();
        t.observe_arrivals(&[]);
        // 30 iterations of 0.1 s ending at t=4.0: spans [1.0, 4.0].
        let stretch = EventKind::Stretch {
            iterations: 30,
            step_s: 0.1,
            decoding: 4,
            kv_tokens: 1234,
        };
        send(&mut t, 0, 4.0, stretch);
        let rows = t.cluster_windows();
        let total: f64 = rows.iter().map(|w| w.decode_time_s).sum();
        assert!((total - 3.0).abs() < 1e-9, "time conserved, got {total}");
        assert!((rows[1].decode_time_s - 1.0).abs() < 1e-9);
        assert!((rows[3].decode_time_s - 1.0).abs() < 1e-9);
        assert_eq!(rows[4].stretch_iters, 30, "iters land in the end window");
        for w in &rows[1..4] {
            if w.decode_time_s > 0.0 {
                assert!((w.mean_batch - 4.0).abs() < 1e-9);
            }
        }
        assert_eq!(rows[4].kv_tokens, 1234);
    }

    #[test]
    fn cluster_kv_gauges_sum_each_blades_latest_sample() {
        let mut t = Telemetry::new(&cfg(1.0, 64), 2, &one_class()).unwrap();
        t.observe_arrivals(&[]);
        let step = |kv_tokens, shared_tokens| EventKind::Step {
            step_s: 0.01,
            decoding: 1,
            kv_tokens,
            shared_tokens,
        };
        send(&mut t, 0, 0.5, step(100, 10));
        send(&mut t, 1, 0.6, step(50, 5));
        send(&mut t, 0, 1.5, step(70, 20));
        // A stretch moves the KV gauge and keeps the shared one.
        let stretch = EventKind::Stretch {
            iterations: 2,
            step_s: 0.01,
            decoding: 1,
            kv_tokens: 80,
        };
        send(&mut t, 1, 2.5, stretch);
        // A blade past the constructor's count joins the sums.
        send(&mut t, 2, 3.5, step(5, 1));
        t.finish();
        let gauges: Vec<(u64, u64)> = t
            .cluster_windows()
            .iter()
            .map(|w| (w.kv_tokens, w.shared_tokens))
            .collect();
        assert_eq!(gauges, [(150, 15), (120, 25), (150, 25), (155, 26)]);
    }

    #[test]
    fn stretch_shares_land_in_their_own_window_at_inexact_widths() {
        // At 0.1 s, window 43 starts at 43 * 0.1 = 4.3, and 4.3 / 0.1
        // truncates to 42: re-deriving a window's index from its start
        // would file its share one window early.
        assert_eq!((43.0 * 0.1 / 0.1) as usize, 42);
        let mut t = Telemetry::new(&cfg(0.1, 4096), 1, &one_class()).unwrap();
        t.observe_arrivals(&[]);
        // 22 iterations of 10 ms ending at t=4.46: spans [4.24, 4.46],
        // windows 42 to 44.
        let stretch = EventKind::Stretch {
            iterations: 22,
            step_s: 0.01,
            decoding: 2,
            kv_tokens: 64,
        };
        send(&mut t, 0, 4.46, stretch);
        t.finish();
        let rows = t.cluster_windows();
        let blade = t.blade_windows(0);
        assert_eq!(rows.len(), 45);
        for (i, want) in [(41, 0.0), (42, 0.06), (43, 0.1), (44, 0.06)] {
            let got = rows[i].decode_time_s;
            assert!(
                (got - want).abs() < 1e-9,
                "window {i}: {got} s, want {want} s"
            );
            assert_eq!(blade[i].decode_time_s.to_bits(), got.to_bits());
            if want > 0.0 {
                assert!((rows[i].mean_batch - 2.0).abs() < 1e-9);
            }
        }
        assert_eq!(rows[44].stretch_iters, 22);
    }

    #[test]
    fn downsampling_bounds_memory_at_a_million_requests() {
        // The acceptance bound: 1M arrivals at 1 s windows over ~12
        // simulated days stay within max_windows frames per series.
        let n = 1_000_000u32;
        let mut t = Telemetry::new(&cfg(1.0, 256), 1, &one_class()).unwrap();
        let trace: Vec<RequestSpec> = (0..n)
            .map(|i| RequestSpec::new(i, f64::from(i), 8, 2))
            .collect();
        t.observe_arrivals(&trace);
        // Sprinkle real observer traffic across the whole span too.
        for i in (0..n).step_by(1_000) {
            let admit = EventKind::Admission {
                request: trace[i as usize],
            };
            send(&mut t, 0, f64::from(i) + 0.5, admit);
        }
        t.finish();
        assert!(t.window_count() <= 256, "got {} windows", t.window_count());
        assert!(t.window_s() > 1.0, "resolution halved at least once");
        let rows = t.cluster_windows();
        let arrivals: u64 = rows.iter().map(|w| w.arrivals).sum();
        assert_eq!(arrivals, u64::from(n), "downsampling conserves counters");
        let admissions: u64 = rows.iter().map(|w| w.admissions).sum();
        assert_eq!(admissions, 1_000);
    }

    #[test]
    fn exporters_render_every_series() {
        let mut t = Telemetry::new(&cfg(1.0, 64), 2, &one_class()).unwrap();
        let trace = vec![RequestSpec::new(0, 0.1, 16, 4)];
        t.observe_arrivals(&trace);
        let request = trace[0];
        send(&mut t, 1, 0.2, EventKind::Admission { request });
        let done = EventKind::Completion {
            request,
            first_token_s: 0.4,
        };
        send(&mut t, 1, 0.9, done);
        t.finish();
        let csv = t.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("window_start_s,arrivals,"));
        assert!(header.contains("b1_admissions"));
        assert!(header.contains("class0_completions"));
        let cols = header.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        let prom = t.to_prometheus();
        assert!(prom.contains("# TYPE sim_arrivals_total counter"));
        assert!(prom.contains("sim_completions_total 1"));
        assert!(prom.contains("sim_blade_completions_total{blade=\"1\"} 1"));
        assert!(prom.contains("sim_ttft_seconds{quantile=\"0.99\"}"));
        assert!(prom.contains("sim_ttft_seconds_count 1"));
    }

    #[test]
    fn request_state_is_sized_by_the_trace_not_its_largest_id() {
        // One request with the largest id: sizing by id would overflow
        // `id + 1` (a debug-build panic) or allocate 4 GiB.
        let mut t = Telemetry::new(&cfg(1.0, 64), 1, &one_class()).unwrap();
        let request = RequestSpec::new(u32::MAX, 0.0, 16, 4);
        t.observe_arrivals(&[request]);
        send(&mut t, 0, 0.1, EventKind::Admission { request });
        send(
            &mut t,
            0,
            0.5,
            EventKind::Eviction {
                request,
                wasted_tokens: 0,
            },
        );
        send(&mut t, 0, 0.6, EventKind::Admission { request });
        let done = EventKind::Completion {
            request,
            first_token_s: 0.7,
        };
        send(&mut t, 0, 0.9, done);
        // A request the trace never listed cannot drive the depth below 0.
        let stray = RequestSpec::new(5, 0.0, 16, 4);
        send(&mut t, 0, 0.9, EventKind::Admission { request: stray });
        t.finish();
        let w = t.cluster_windows();
        assert_eq!(w.iter().map(|w| w.arrivals).sum::<u64>(), 1);
        assert_eq!(w.iter().map(|w| w.completions).sum::<u64>(), 1);
        assert_eq!(w.last().unwrap().queue_depth, 0);
    }

    #[test]
    fn profile_capture_round_trips() {
        profile::start();
        {
            let _span = profile::span(profile::Phase::Admission);
        }
        let report = profile::stop();
        assert!(report.admission_rounds >= 1);
        assert_eq!(report.heap_ops, 0);
        assert!(!report.is_empty());
        // Disarmed sites record nothing into the next capture.
        {
            let _span = profile::span(profile::Phase::Routing);
        }
        profile::start();
        let quiet = profile::stop();
        assert_eq!(quiet.routing_calls, 0);
    }
}
