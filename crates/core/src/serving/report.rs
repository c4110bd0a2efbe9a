//! Replay outcomes: latency percentiles, per-request SLO classes, the
//! [`ServingReport`] carried by every engine/cluster replay, and the
//! SLO-frontier point.

use crate::error::OptimusError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A service-level-objective class: the TTFT/TPOT targets a subset of the
/// request population is held to, plus the weight its goodput carries in
/// the blended [`ServingReport::weighted_goodput_tok_s`]. Requests name
/// their class by index ([`RequestSpec::class`](super::RequestSpec)); a
/// scenario that never mentions classes runs one default class holding
/// the engine's global SLO pair, which reproduces the PR 3 goodput
/// accounting bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloClass {
    /// Class name for reports (e.g. "interactive", "batch").
    pub name: String,
    /// Time-to-first-token target (s).
    pub ttft_slo_s: f64,
    /// Time-per-output-token target (s).
    pub tpot_slo_s: f64,
    /// Relative weight of this class's goodput in the blended figure.
    pub weight: f64,
}

impl SloClass {
    /// A class with unit weight.
    #[must_use]
    pub fn new(name: impl Into<String>, ttft_slo_s: f64, tpot_slo_s: f64) -> Self {
        Self {
            name: name.into(),
            ttft_slo_s,
            tpot_slo_s,
            weight: 1.0,
        }
    }

    /// Overrides the goodput weight.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// A latency-sensitive chat-style class: tight first-token and
    /// inter-token targets, double weight.
    #[must_use]
    pub fn interactive() -> Self {
        Self::new("interactive", 2.0, 0.05).with_weight(2.0)
    }

    /// A throughput-oriented offline class: loose targets, unit weight.
    #[must_use]
    pub fn batch() -> Self {
        Self::new("batch", 30.0, 0.5)
    }

    /// Whether a request scored `(ttft, tpot)` by
    /// [`RequestSpec::slo_times`](super::traces::RequestSpec::slo_times)
    /// met both of this class's targets: the one attainment predicate.
    pub(crate) fn met(&self, ttft: f64, tpot: f64) -> bool {
        ttft <= self.ttft_slo_s && tpot <= self.tpot_slo_s
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(self.ttft_slo_s) || !positive(self.tpot_slo_s) || !positive(self.weight) {
            return Err(OptimusError::Serving {
                reason: format!(
                    "SLO class {:?} needs positive finite targets and weight \
                     (ttft {}, tpot {}, weight {})",
                    self.name, self.ttft_slo_s, self.tpot_slo_s, self.weight
                ),
            });
        }
        Ok(())
    }
}

/// Per-class slice of a [`ServingReport`]: the class's own goodput,
/// attainment and tails over the requests that named it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloClassReport {
    /// Class name (from [`SloClass::name`]).
    pub name: String,
    /// Goodput weight (from [`SloClass::weight`]).
    pub weight: f64,
    /// Requests in this class (shed ones included).
    pub requests: u32,
    /// Requests of this class dropped by the admission-control gate
    /// (never run; 0 without a control plane, and always 0 for the
    /// strict class).
    pub shed: u64,
    /// Useful tokens per second over the replay makespan from this
    /// class's requests that met the class targets.
    pub goodput_tok_s: f64,
    /// Fraction of this class's requests meeting both targets (1.0 for an
    /// empty class). Shed requests count as misses — shedding trades
    /// best-effort attainment for strict-class attainment, and the
    /// accounting shows the price.
    pub slo_attainment: f64,
    /// Prefill tokens this class's requests skipped via prefix-cache hits
    /// (0 with prefix caching off).
    pub prefix_tokens_saved: u64,
    /// Time-to-first-token percentiles of this class (s).
    pub ttft: Percentiles,
    /// Time-per-output-token percentiles of this class (s).
    pub tpot: Percentiles,
}

/// Nearest-rank percentiles of a latency population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Exact nearest-rank percentiles of `values` (reordered in place;
    /// all-zero for an empty slice). These are the authoritative
    /// end-of-run figures the streaming sketches in
    /// [`telemetry`](super::telemetry) are validated against.
    ///
    /// Each rank is found by selection under [`f64::total_cmp`], highest
    /// first, each within the prefix the previous one left below it: a
    /// total order puts the same bits at every rank a full sort would.
    #[must_use]
    pub fn of(values: &mut [f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let rank = |q: f64| ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let mut at = |k: usize, below: usize| -> f64 {
            *values[..below].select_nth_unstable_by(k, f64::total_cmp).1
        };
        let (k99, k95, k50) = (rank(0.99), rank(0.95), rank(0.50));
        let p99 = at(k99, n);
        let p95 = at(k95, k99 + 1);
        let p50 = at(k50, k95 + 1);
        Self { p50, p95, p99 }
    }
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests in the trace.
    pub requests: u32,
    /// Requests that ran to completion. Equals `requests` minus
    /// [`Self::shed_requests`] — the simulator drains its queue, and
    /// only the admission-control gate (when configured) drops work.
    pub completed: u32,
    /// Requests dropped by the admission-control load-shedding gate
    /// (never admitted, never completed; 0 without a control plane).
    pub shed_requests: u64,
    /// Preemptions: a running request was evicted because the grown KV
    /// cache no longer fit, and restarted later (recompute-style).
    pub evictions: u32,
    /// Generated tokens discarded by evictions (recomputed later).
    pub wasted_tokens: u64,
    /// Time from first arrival to last completion (s).
    pub makespan_s: f64,
    /// Useful generated tokens per second over the makespan.
    pub throughput_tok_s: f64,
    /// Throughput counting only requests that met both SLOs.
    pub goodput_tok_s: f64,
    /// Fraction of requests meeting both the TTFT and TPOT SLOs.
    pub slo_attainment: f64,
    /// Decode-time-weighted mean batch occupancy.
    pub mean_batch: f64,
    /// Total decode time across all iterations (s).
    pub decode_time_s: f64,
    /// Number of decode iterations.
    pub decode_iterations: u64,
    /// Longest single engine iteration (s): the worst stall a running
    /// decode experiences from a co-scheduled prefill — the quantity
    /// chunked prefill exists to bound.
    pub max_step_s: f64,
    /// Peak KV-cache occupancy observed during replay (bytes; block
    /// footprint under the paged layout, token footprint when contiguous).
    pub kv_peak_bytes: f64,
    /// Peak internal fragmentation under the paged layout (bytes reserved
    /// in partially-filled blocks); 0 for the contiguous layout.
    pub kv_fragmentation_peak_bytes: f64,
    /// Prefix-cache lookups that found at least one cached block
    /// (admissions of prefix-tagged requests; 0 with caching off).
    pub prefix_hits: u64,
    /// Prefix-cache lookups that found nothing cached.
    pub prefix_misses: u64,
    /// Prefill tokens skipped because their KV was already cached
    /// (summed over re-admissions after eviction too).
    pub prefix_tokens_saved: u64,
    /// Copy-on-write block copies: a sequence appended past a *shared*
    /// partially-filled tail block and had to take a private copy first.
    pub prefix_cow_copies: u64,
    /// Shared blocks reclaimed by LRU eviction to make room.
    pub prefix_cache_evictions: u64,
    /// Peak capacity pinned by resident shared prefix blocks (bytes,
    /// block-granular, worst single blade) — shared blocks are counted
    /// once here and excluded from every sequence's private footprint.
    pub kv_shared_peak_bytes: f64,
    /// Admissions where the global cache tier held more of the prefix
    /// than the blade's own cache (0 without cluster coordination).
    #[serde(default)]
    pub remote_prefix_hits: u64,
    /// Of those, admissions where streaming the tier's KV span over the
    /// interconnect beat recomputing it locally.
    #[serde(default)]
    pub remote_prefix_streams: u64,
    /// Tier hits where local recompute won the race instead.
    #[serde(default)]
    pub remote_prefix_recomputes: u64,
    /// Cross-blade KV bytes streamed in from the global tier by the
    /// winning transfers.
    #[serde(default)]
    pub remote_kv_streamed_bytes: f64,
    /// Time-to-first-token percentiles (s).
    pub ttft: Percentiles,
    /// Time-per-output-token percentiles (s).
    pub tpot: Percentiles,
    /// End-to-end request-latency percentiles (s).
    pub latency: Percentiles,
    /// Per-SLO-class breakdown, in class-index order. Always holds at
    /// least the default class; `goodput_tok_s` and `slo_attainment`
    /// above are the blends of these slices.
    pub per_class: Vec<SloClassReport>,
}

impl ServingReport {
    /// Mean decode-iteration cost (s) — the dynamic analogue of the
    /// static scheduler's `per_token_s`.
    #[must_use]
    pub fn mean_step_s(&self) -> f64 {
        if self.decode_iterations == 0 {
            0.0
        } else {
            self.decode_time_s / self.decode_iterations as f64
        }
    }

    /// Class-weighted goodput: `Σ weight_c · goodput_c`. Equals
    /// [`Self::goodput_tok_s`] for a single unit-weight class.
    #[must_use]
    pub fn weighted_goodput_tok_s(&self) -> f64 {
        self.per_class
            .iter()
            .map(|c| c.weight * c.goodput_tok_s)
            .sum()
    }

    /// The per-class slice named `name`, if any.
    #[must_use]
    pub fn class(&self, name: &str) -> Option<&SloClassReport> {
        self.per_class.iter().find(|c| c.name == name)
    }

    /// Fraction of prefix-cache lookups that hit (0.0 when the replay
    /// performed no lookups — caching off or no prefix-tagged requests).
    #[must_use]
    pub fn prefix_hit_rate(&self) -> f64 {
        let lookups = self.prefix_hits + self.prefix_misses;
        if lookups == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / lookups as f64
        }
    }
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} done, {} evictions; {:.0} tok/s ({:.0} goodput); \
             TTFT p50/p95/p99 {:.0}/{:.0}/{:.0} ms; TPOT {:.1}/{:.1}/{:.1} ms",
            self.completed,
            self.requests,
            self.evictions,
            self.throughput_tok_s,
            self.goodput_tok_s,
            self.ttft.p50 * 1e3,
            self.ttft.p95 * 1e3,
            self.ttft.p99 * 1e3,
            self.tpot.p50 * 1e3,
            self.tpot.p95 * 1e3,
            self.tpot.p99 * 1e3
        )?;
        if self.shed_requests > 0 {
            write!(f, "; {} shed", self.shed_requests)?;
        }
        if self.prefix_hits + self.prefix_misses > 0 {
            write!(
                f,
                "; prefix hit rate {:.2} ({} tok prefill saved)",
                self.prefix_hit_rate(),
                self.prefix_tokens_saved
            )?;
        }
        if self.remote_prefix_hits > 0 {
            write!(
                f,
                "; {} tier hits ({} streamed, {:.1} MB over fabric)",
                self.remote_prefix_hits,
                self.remote_prefix_streams,
                self.remote_kv_streamed_bytes / 1e6
            )?;
        }
        Ok(())
    }
}

/// One point of the SLO-vs-throughput frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Offered arrival rate (requests/s).
    pub arrival_rate_per_s: f64,
    /// The replay outcome at that rate.
    pub report: ServingReport,
}
