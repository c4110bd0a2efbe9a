//! The [`SimObserver`] seam: the engine reports every admission,
//! eviction, prefill chunk, prefill→decode handoff, completion and step
//! of a replay as one [`SimEvent`], so benches, tests and tools can
//! watch a replay without reaching into engine internals.
//!
//! Events are plain `Copy` data: a recorder is a `Vec<SimEvent>`, and
//! two recorded streams compare element by element. Observers are
//! strictly read-only: the engine never lets an observer perturb its
//! float stream, so an observed replay is bit-identical to an
//! unobserved one (the observed paths replay serially; see
//! [`CompiledScenario::run_observed`](super::scenario::CompiledScenario::run_observed)).
//!
//! Beyond the lifecycle events, the [`EventKind::Completion`] latency
//! decomposition, the [`EventKind::Step`] KV gauges and the
//! [`EventKind::Stretch`] summaries feed the
//! [`telemetry`](super::telemetry) layer.

use super::traces::RequestSpec;
use std::fmt;

/// One engine event: `kind` took effect on blade `blade` (the blade
/// index within the scenario's topology; 0 for single-blade replays)
/// when that blade's clock read `clock_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// Blade the event happened on.
    pub blade: u32,
    /// The blade's clock at the instant the event took effect (s).
    pub clock_s: f64,
    /// What happened.
    pub kind: EventKind,
}

/// What a [`SimEvent`] reports. Requests ride by value, so recorded
/// events outlive the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// `request` joined the blade's running batch (clock is the
    /// iteration start).
    Admission {
        /// The admitted request.
        request: RequestSpec,
    },
    /// `request` was preempted off the blade, discarding
    /// `wasted_tokens` generated tokens (recompute-style restart).
    Eviction {
        /// The preempted request.
        request: RequestSpec,
        /// Generated tokens thrown away.
        wasted_tokens: u32,
    },
    /// A chunked-prefill slice of `chunk_tokens` tokens of `request` was
    /// dispatched into the blade's iteration.
    Chunk {
        /// The prefilling request.
        request: RequestSpec,
        /// Tokens in the slice.
        chunk_tokens: u32,
    },
    /// A prefill blade finished prefilling `request` and started
    /// streaming its KV to the decode pool; the transfer occupies the
    /// fabric for `transfer_s` seconds.
    Handoff {
        /// The handed-off request.
        request: RequestSpec,
        /// Fabric transfer time (s).
        transfer_s: f64,
    },
    /// `request` emitted its final token. `first_token_s` is the
    /// absolute clock of its first token, so TTFT is
    /// `first_token_s - request.arrival_s`, latency is
    /// `clock_s - request.arrival_s`, and TPOT is
    /// `(clock_s - first_token_s) / max(output_tokens - 1, 1)` — the
    /// exact decomposition [`super::report`] aggregates at end of run.
    Completion {
        /// The completed request.
        request: RequestSpec,
        /// Absolute clock of its first token (s).
        first_token_s: f64,
    },
    /// `request`'s shared prefix hit the blade's prefix cache:
    /// `cached_tokens` prefill tokens were skipped because their KV was
    /// already resident.
    CacheHit {
        /// The admitted request.
        request: RequestSpec,
        /// Prefill tokens skipped.
        cached_tokens: u32,
    },
    /// `request` carried a shared prefix but found none of its blocks
    /// cached on the blade (its blocks are inserted for the next
    /// arrival).
    CacheMiss {
        /// The admitted request.
        request: RequestSpec,
    },
    /// The blade reclaimed one unreferenced shared block of
    /// `block_tokens` capacity tokens (LRU eviction under pressure).
    CacheEvict {
        /// Capacity of the reclaimed block (tokens).
        block_tokens: u32,
    },
    /// The global cache tier held `remote_tokens` more of `request`'s
    /// prefix than the blade's own cache: streaming that KV span over
    /// the interconnect (`transfer_s` seconds) was raced against
    /// recomputing it locally, and `streamed` records which won (see
    /// [`super::coord`]). Fires only when a scenario enables the tier.
    RemoteCacheHit {
        /// The admitted request.
        request: RequestSpec,
        /// Prefix tokens the tier held beyond the local hit.
        remote_tokens: u32,
        /// Time to stream them (s).
        transfer_s: f64,
        /// Whether streaming beat recomputing.
        streamed: bool,
    },
    /// The blade finished one engine iteration of `step_s` seconds with
    /// `decoding` sequences in the decode batch (clock is the iteration
    /// end). `kv_tokens` is the KV footprint charged in the
    /// paged/contiguous layout (the figure
    /// [`ServingReport::kv_peak_tokens`](super::report::ServingReport)
    /// tracks the max of) and `shared_tokens` the part resident in
    /// shared prefix blocks.
    Step {
        /// Iteration length (s).
        step_s: f64,
        /// Sequences in the decode batch.
        decoding: u32,
        /// Charged KV tokens after the iteration.
        kv_tokens: u64,
        /// Tokens resident in shared prefix blocks.
        shared_tokens: u64,
    },
    /// The event-driven core advanced the blade through a batched decode
    /// stretch: `iterations` uniform rounds of `step_s` seconds each with
    /// `decoding` sequences, ending at `clock_s` with `kv_tokens`
    /// charged. Sent **only to observers whose
    /// [`SimObserver::interest`] is [`Interest::Summaries`]**, in place of
    /// the per-iteration [`Self::Step`] stream the stretch skipped — a
    /// closed-form summary the [`telemetry`](super::telemetry) layer
    /// window-buckets without forcing the fast path off.
    Stretch {
        /// Rounds advanced.
        iterations: u64,
        /// Length of each round (s).
        step_s: f64,
        /// Sequences in the decode batch.
        decoding: u32,
        /// Charged KV tokens at the last round.
        kv_tokens: u64,
    },
    /// The admission-control gate dropped `request` at the instant it
    /// would otherwise have been admitted (best-effort load shedding
    /// while the strict class is below its attainment floor). The
    /// request never runs.
    Shed {
        /// The dropped request.
        request: RequestSpec,
    },
    /// The cluster autoscaler changed the active blade count from
    /// `active_from` to `active_to` (a scale-up's new blade starts
    /// serving after its warm-up delay). The event's blade is the one
    /// whose end-of-round evaluation fired it.
    Scale {
        /// Active blades before.
        active_from: u32,
        /// Active blades after.
        active_to: u32,
    },
}

impl EventKind {
    /// The outcome of a prefix-cache lookup for `request` that found
    /// `cached_tokens` prefill tokens resident.
    pub(crate) fn prefix_lookup(request: RequestSpec, cached_tokens: u32) -> Self {
        if cached_tokens > 0 {
            Self::CacheHit {
                request,
                cached_tokens,
            }
        } else {
            Self::CacheMiss { request }
        }
    }
}

impl SimEvent {
    /// The request the event concerns; `None` for blade- and
    /// fleet-level events (cache evictions, steps, stretches, scaling).
    #[must_use]
    pub fn request(&self) -> Option<&RequestSpec> {
        match &self.kind {
            EventKind::Admission { request }
            | EventKind::Eviction { request, .. }
            | EventKind::Chunk { request, .. }
            | EventKind::Handoff { request, .. }
            | EventKind::Completion { request, .. }
            | EventKind::CacheHit { request, .. }
            | EventKind::CacheMiss { request }
            | EventKind::RemoteCacheHit { request, .. }
            | EventKind::Shed { request } => Some(request),
            EventKind::CacheEvict { .. }
            | EventKind::Step { .. }
            | EventKind::Stretch { .. }
            | EventKind::Scale { .. } => None,
        }
    }
}

/// What an observer reads of the decode rounds the event-driven core
/// fast-forwards ([`SimObserver::interest`]). Every other event kind
/// reaches every observer, whatever its interest. Ordered by how much
/// the observer reads: `Nothing < Summaries < Rounds`, so an observer
/// that forwards to several takes the greatest of their interests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Interest {
    /// No round events at all: the core builds, sorts and sends none.
    Nothing,
    /// One [`EventKind::Stretch`] summary per batched decode stretch, in
    /// place of the per-round [`EventKind::Step`] stream it skipped. A
    /// cluster-wide leapfrog commits every member's rounds, and sends
    /// their summaries, at the end of each call; under the other
    /// interests a member commits only when the replay next reads its
    /// blade.
    Summaries,
    /// One [`EventKind::Step`] per decode round, in true global order,
    /// on both cores: the event-driven core's batching changes the loop
    /// shape, never the stream. The default.
    Rounds,
}

/// A read-only listener for the engine's [`SimEvent`] stream.
pub trait SimObserver {
    /// Receives one event, in engine order.
    fn on_event(&mut self, event: &SimEvent);

    /// What this observer reads of fast-forwarded decode rounds (see
    /// [`Interest`]). The default, [`Interest::Rounds`], gets the
    /// identical event stream on both cores: one [`EventKind::Step`]
    /// per decode round in true global order, with [`EventKind::Shed`]
    /// and [`EventKind::Scale`] interleaved exactly where the per-step
    /// loop would send them (stretches are truncated at every
    /// control-plane decision instant). [`Interest::Summaries`] gets one
    /// [`EventKind::Stretch`] per stretch instead, and
    /// [`Interest::Nothing`] no round events at all. No interest changes
    /// the replay's result.
    fn interest(&self) -> Interest {
        Interest::Rounds
    }
}

impl dyn SimObserver + '_ {
    /// Sends the event `kind` on blade `blade` at `clock_s`.
    pub(crate) fn emit(&mut self, blade: u32, clock_s: f64, kind: EventKind) {
        self.on_event(&SimEvent {
            blade,
            clock_s,
            kind,
        });
    }
}

/// Where two recorded event streams first differ (see
/// [`first_divergence`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first event the streams disagree on.
    pub index: usize,
    /// The first stream's event there (`None` past its end).
    pub left: Option<SimEvent>,
    /// The second stream's event there (`None` past its end).
    pub right: Option<SimEvent>,
    /// Up to [`Self::CONTEXT`] events both streams share just before
    /// `index`, oldest first.
    pub context: Vec<SimEvent>,
}

impl Divergence {
    /// Preceding events kept as context.
    pub const CONTEXT: usize = 3;
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "event streams diverge at event {}", self.index)?;
        let first = self.index - self.context.len();
        for (i, event) in self.context.iter().enumerate() {
            writeln!(f, "  [{}] {event:?}", first + i)?;
        }
        writeln!(f, "  left:  {:?}", self.left)?;
        write!(f, "  right: {:?}", self.right)
    }
}

/// The first event at which recorded streams `a` and `b` differ, with up
/// to [`Divergence::CONTEXT`] preceding events, or `None` when they are
/// identical. Clocks compare bitwise.
#[must_use]
pub fn first_divergence(a: &[SimEvent], b: &[SimEvent]) -> Option<Divergence> {
    let same = |x: &SimEvent, y: &SimEvent| x.clock_s.to_bits() == y.clock_s.to_bits() && x == y;
    let index = (0..a.len().max(b.len()))
        .find(|&i| !matches!((a.get(i), b.get(i)), (Some(x), Some(y)) if same(x, y)))?;
    Some(Divergence {
        index,
        left: a.get(index).copied(),
        right: b.get(index).copied(),
        context: a[index.saturating_sub(Divergence::CONTEXT)..index].to_vec(),
    })
}

/// The do-nothing observer the unobserved replay paths run with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    fn on_event(&mut self, _: &SimEvent) {}

    fn interest(&self) -> Interest {
        Interest::Nothing
    }
}

/// The recorder: every event, in engine order.
impl SimObserver for Vec<SimEvent> {
    fn on_event(&mut self, event: &SimEvent) {
        self.push(*event);
    }
}

/// How many events of each kind a [`CountingObserver`] has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallbackCounts {
    /// Admissions seen (re-admissions after eviction count again).
    pub admissions: u64,
    /// Evictions seen.
    pub evictions: u64,
    /// Prefill chunks dispatched.
    pub chunks: u64,
    /// Prefill→decode handoffs.
    pub handoffs: u64,
    /// Request completions.
    pub completions: u64,
    /// Engine iterations.
    pub steps: u64,
    /// Batched decode-stretch summaries: sent only to observers of
    /// [`Interest::Summaries`], so always 0 for a mounted
    /// `CountingObserver`, which reads [`Interest::Rounds`].
    pub stretches: u64,
    /// Prefix-cache hits.
    pub cache_hits: u64,
    /// Prefix-cache misses.
    pub cache_misses: u64,
    /// Shared blocks reclaimed by LRU eviction.
    pub cache_evictions: u64,
    /// Global-tier hits raced against local recompute.
    pub remote_hits: u64,
    /// Requests dropped by the admission-control gate.
    pub sheds: u64,
    /// Autoscaler blade-count changes.
    pub scale_events: u64,
}

/// An observer that counts every event kind — the drop-in replacement
/// for the engine-internals peeking that benches and tests used to do.
/// Read the tallies through [`Self::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingObserver {
    counts: CallbackCounts,
}

impl CountingObserver {
    /// A snapshot of every tally so far.
    #[must_use]
    pub fn counts(&self) -> CallbackCounts {
        self.counts
    }
}

impl SimObserver for CountingObserver {
    fn on_event(&mut self, event: &SimEvent) {
        let c = &mut self.counts;
        *match event.kind {
            EventKind::Admission { .. } => &mut c.admissions,
            EventKind::Eviction { .. } => &mut c.evictions,
            EventKind::Chunk { .. } => &mut c.chunks,
            EventKind::Handoff { .. } => &mut c.handoffs,
            EventKind::Completion { .. } => &mut c.completions,
            EventKind::CacheHit { .. } => &mut c.cache_hits,
            EventKind::CacheMiss { .. } => &mut c.cache_misses,
            EventKind::CacheEvict { .. } => &mut c.cache_evictions,
            EventKind::RemoteCacheHit { .. } => &mut c.remote_hits,
            EventKind::Step { .. } => &mut c.steps,
            EventKind::Stretch { .. } => &mut c.stretches,
            EventKind::Shed { .. } => &mut c.sheds,
            EventKind::Scale { .. } => &mut c.scale_events,
        } += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_bumps_its_own_count() {
        let request = RequestSpec::new(0, 0.0, 8, 4);
        let kinds = [
            EventKind::Admission { request },
            EventKind::Eviction {
                request,
                wasted_tokens: 2,
            },
            EventKind::Chunk {
                request,
                chunk_tokens: 64,
            },
            EventKind::Handoff {
                request,
                transfer_s: 1e-6,
            },
            EventKind::Completion {
                request,
                first_token_s: 0.5,
            },
            EventKind::CacheHit {
                request,
                cached_tokens: 32,
            },
            EventKind::CacheMiss { request },
            EventKind::CacheEvict { block_tokens: 16 },
            EventKind::RemoteCacheHit {
                request,
                remote_tokens: 32,
                transfer_s: 1e-6,
                streamed: true,
            },
            EventKind::Step {
                step_s: 0.4,
                decoding: 3,
                kv_tokens: 128,
                shared_tokens: 16,
            },
            EventKind::Stretch {
                iterations: 4,
                step_s: 0.25,
                decoding: 2,
                kv_tokens: 128,
            },
            EventKind::Shed { request },
            EventKind::Scale {
                active_from: 1,
                active_to: 2,
            },
        ];
        let mut c = CountingObserver::default();
        for kind in kinds {
            let event = SimEvent {
                blade: 0,
                clock_s: 1.0,
                kind,
            };
            NoopObserver.on_event(&event);
            c.on_event(&event);
        }
        let ones = CallbackCounts {
            admissions: 1,
            evictions: 1,
            chunks: 1,
            handoffs: 1,
            completions: 1,
            steps: 1,
            stretches: 1,
            cache_hits: 1,
            cache_misses: 1,
            cache_evictions: 1,
            remote_hits: 1,
            sheds: 1,
            scale_events: 1,
        };
        assert_eq!(c.counts(), ones);
    }

    #[test]
    fn first_divergence_reports_index_events_and_context() {
        let at = |clock_s| SimEvent {
            blade: 0,
            clock_s,
            kind: EventKind::CacheEvict { block_tokens: 16 },
        };
        let a: Vec<SimEvent> = (0..6).map(|i| at(f64::from(i))).collect();
        assert_eq!(first_divergence(&a, &a), None);
        let mut b = a.clone();
        b[4].clock_s = 4.0_f64.next_up();
        let d = first_divergence(&a, &b).expect("clocks differ");
        assert_eq!((d.index, d.left, d.right), (4, Some(a[4]), Some(b[4])));
        assert_eq!(d.context, a[1..4]);
        assert!(d.to_string().contains("  [3] "));
        // Clocks compare bitwise; context is short at the start.
        let mut b = a.clone();
        b[0].clock_s = -0.0;
        let d = first_divergence(&a, &b).expect("signed zeros differ");
        assert_eq!(d.index, 0);
        assert!(d.context.is_empty());
        // Past one stream's end.
        let d = first_divergence(&a, &a[..2]).expect("lengths differ");
        assert_eq!((d.index, d.right), (2, None));
    }

    #[test]
    fn request_is_attributed_to_request_events_only() {
        let request = RequestSpec::new(7, 0.0, 8, 4);
        let at = |kind| SimEvent {
            blade: 1,
            clock_s: 2.0,
            kind,
        };
        assert_eq!(
            at(EventKind::Shed { request }).request().map(|r| r.id),
            Some(7)
        );
        assert_eq!(
            at(EventKind::CacheEvict { block_tokens: 16 }).request(),
            None
        );
    }
}
