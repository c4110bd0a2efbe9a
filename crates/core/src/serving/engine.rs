//! The continuous-batching engine: iteration-level replay of one trace on
//! one blade, parameterized over the three seams introduced by this
//! module tree — [`super::policy::SchedulerPolicy`] for
//! admission/eviction, [`KvLayout`] for capacity accounting, and
//! [`DecodePricing`] for the iteration cost model.
//!
//! The default configuration (FCFS, contiguous KV, whole-prompt prefill,
//! bucketized-mean pricing) reproduces PR 2's reports bit-for-bit — the
//! `serving_regression` suite pins the exact float bit patterns.

use super::control::{AdmissionControl, ControlState};
use super::coord::CoordPlan;
use super::events::{
    AdmissionQueue, DecodeStretch, Discipline, Exhaustive, Fcfs, Gate, KeyedQueue, Resort,
};
use super::kv::KvLayout;
use super::observer::{EventKind, SimObserver};
use super::policy::{OrderingContract, SchedulerPolicy};
use super::prefix::{ChainTable, Lease, PrefixCache, PrefixCachingConfig, SharedPrefix};
use super::report::{Percentiles, ServingReport, SloClass, SloClassReport};
use super::telemetry::profile;
use super::traces::RequestSpec;
use crate::error::OptimusError;
use crate::inference::InferenceEstimator;
use llm_workload::kvcache::{KvCache, KvConvention};
use llm_workload::model::TransformerConfig;
use llm_workload::parallelism::Parallelism;
use llm_workload::taskgraph::weights_per_unit_bytes;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// How a decode iteration is priced from the memoized cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DecodePricing {
    /// Price the whole batch at the (bucket-rounded) mean KV length of the
    /// running sequences — PR 2's fast approximation, one table lookup per
    /// iteration.
    #[default]
    BucketizedMean,
    /// Price each sequence's attention span at its own KV length and
    /// average the per-sequence batch costs: the batch-shared weight
    /// stream appears once while each KV stream is summed exactly, so
    /// heterogeneous (skewed-length) batches are priced correctly.
    ExactPerSequence,
}

/// Which queue discipline drives the replay loops.
///
/// There is one replay loop per topology (single blade, central
/// dispatch, disaggregated), generic over a queue discipline; this is the
/// one switch that picks it. Both choices are *bit-identical* on every
/// configuration — the regression pins and the `core_equivalence`
/// proptests enforce it — so the choice is purely a wall-time one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimCore {
    /// Event-driven disciplines (the default): the policy order is kept
    /// incrementally, ready times are read off the shared queue's
    /// arrival axis, eligibility partitions that are provably the
    /// identity are skipped, idle gaps
    /// are jumped in O(1), and pure-decode rounds are fast-forwarded in
    /// closed form (stretches, and leapfrogs across coupled blades).
    #[default]
    EventDriven,
    /// The per-step reference discipline: before every round the queue
    /// is re-sorted and fully partitioned and the next ready time is
    /// found by a scan; every decode iteration runs as its own round.
    /// It is the oracle the event-driven disciplines are checked
    /// against, not a deployment option.
    PerStep,
}

/// Serving-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Maximum concurrent sequences in the decode batch.
    pub max_batch: u32,
    /// KV-cache capacity (bytes, whole system) requests are admitted
    /// against.
    pub kv_capacity_bytes: f64,
    /// Head-count convention for KV sizing. Physical deployments should
    /// use [`KvConvention::Gqa`].
    pub kv_convention: KvConvention,
    /// Time-to-first-token SLO (s), used for goodput accounting.
    pub ttft_slo_s: f64,
    /// Time-per-output-token SLO (s), used for goodput accounting.
    pub tpot_slo_s: f64,
    /// KV-length quantization of the iteration-cost table (tokens). 1
    /// prices every cache length exactly; larger buckets shrink the table.
    pub kv_bucket_tokens: u32,
    /// KV capacity accounting: contiguous (token-granular) or paged
    /// (block-granular with fragmentation).
    pub kv_layout: KvLayout,
    /// Chunked prefill: split each admitted prompt into chunks of at most
    /// this many tokens, one chunk per iteration, bounding the TTFT
    /// interference a long prompt inflicts on running decodes. 0 runs the
    /// whole prompt in the admission iteration (PR 2 behavior).
    pub prefill_chunk_tokens: u32,
    /// Iteration-cost pricing mode.
    pub decode_pricing: DecodePricing,
    /// Prefix caching: share common prompt prefixes as ref-counted KV
    /// blocks ([`PrefixCache`]), skipping their prefill and storing them
    /// once against capacity. `None` — the default — keeps every replay
    /// byte-identical to the pre-prefix-cache engine.
    pub prefix: Option<PrefixCachingConfig>,
    /// Replay core selection (bit-identical either way; see [`SimCore`]).
    #[serde(default)]
    pub core: SimCore,
    /// Admission-control load shedding: drop best-effort-class requests
    /// at the admission boundary while the strict class's observed
    /// attainment sits below its floor. `None` — the default — takes no
    /// control-plane branch anywhere, keeping class-blind replays
    /// bit-identical to the pre-control-plane engine.
    #[serde(default)]
    pub admission: Option<AdmissionControl>,
}

impl ServingConfig {
    /// A capacity-unconstrained configuration (KV admission never binds):
    /// useful for studying pure batching dynamics and for the degenerate
    /// static-scheduler check. Prices costs exactly
    /// (`kv_bucket_tokens = 1`) with generous default SLOs.
    #[must_use]
    pub fn unconstrained(max_batch: u32) -> Self {
        Self {
            max_batch,
            kv_capacity_bytes: f64::MAX,
            kv_convention: KvConvention::Gqa,
            ttft_slo_s: 10.0,
            tpot_slo_s: 0.1,
            kv_bucket_tokens: 1,
            kv_layout: KvLayout::Contiguous,
            prefill_chunk_tokens: 0,
            decode_pricing: DecodePricing::BucketizedMean,
            prefix: None,
            core: SimCore::EventDriven,
            admission: None,
        }
    }

    /// Derives the KV capacity from the estimator's accelerator: the
    /// main-memory capacity across all `par` units minus the resident
    /// weights (at the estimator's working precision).
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] if the weights alone exceed the
    /// system's main memory.
    pub fn for_system(
        estimator: &InferenceEstimator,
        model: &TransformerConfig,
        par: &Parallelism,
        max_batch: u32,
    ) -> Result<Self, OptimusError> {
        let units = f64::from(par.units());
        let capacity = estimator.accelerator().dram_capacity_bytes() as f64 * units;
        let weights = weights_per_unit_bytes(model, par, estimator.precision()) * units;
        let kv_capacity_bytes = capacity - weights;
        if kv_capacity_bytes <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!(
                    "{} weights ({:.0} GB) exceed system memory ({:.0} GB)",
                    model.name,
                    weights / 1e9,
                    capacity / 1e9
                ),
            });
        }
        Ok(Self {
            kv_capacity_bytes,
            kv_bucket_tokens: 32,
            ..Self::unconstrained(max_batch)
        })
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if self.max_batch == 0 || self.kv_bucket_tokens == 0 {
            return Err(OptimusError::Serving {
                reason: "max_batch and kv_bucket_tokens must be ≥ 1".to_owned(),
            });
        }
        if self.kv_capacity_bytes.is_nan() || self.kv_capacity_bytes <= 0.0 {
            return Err(OptimusError::Serving {
                reason: format!(
                    "KV capacity {} bytes must be positive",
                    self.kv_capacity_bytes
                ),
            });
        }
        if self.ttft_slo_s.is_nan()
            || self.ttft_slo_s <= 0.0
            || self.tpot_slo_s.is_nan()
            || self.tpot_slo_s <= 0.0
        {
            return Err(OptimusError::Serving {
                reason: "SLO targets must be positive".to_owned(),
            });
        }
        if let Some(prefix) = &self.prefix {
            prefix.validate()?;
        }
        self.kv_layout.validate()
    }
}

/// Cells per lazily priced chunk of a cost-table row.
const CHUNK: usize = 16;

/// One chunk of a cost-table row, priced on its first read.
type Chunk = OnceLock<[f64; CHUNK]>;

/// Iteration-cost lookup: decode cost per (batch, bucketized KV length)
/// and batch-1 prefill cost per bucketized prompt length. A replay
/// prices only the cells it reads: each row is cut into [`CHUNK`]-cell
/// chunks, and the first read of a cell prices its whole chunk from
/// reused kernel buffers ([`InferenceEstimator::decode_cells`]). Every
/// cell equals the per-cell estimator call bit for bit, whichever
/// thread reads it first, so replays on rayon workers share one table.
#[derive(Debug)]
pub(crate) struct CostTable<'s> {
    estimator: &'s InferenceEstimator,
    model: &'s TransformerConfig,
    par: &'s Parallelism,
    bucket: u32,
    /// Cells in a decode row and in the prefill row.
    max_kv_idx: usize,
    max_prompt_idx: usize,
    /// Chunks in a decode row.
    row_chunks: usize,
    /// `decode[(b-1) * row_chunks + (idx-1) / CHUNK]` holds the decode
    /// step cost at batch `b`, KV length `idx * bucket`.
    decode: Box<[Chunk]>,
    /// `prefill[(idx-1) / CHUNK]` holds the batch-1 prefill cost at
    /// prompt `idx * bucket`.
    prefill: Box<[Chunk]>,
}

impl CostTable<'_> {
    pub(crate) fn decode_cost(&self, batch: u32, kv_len: u32) -> f64 {
        let col = self.column(kv_len);
        debug_assert!(
            col < self.max_kv_idx,
            "KV length {kv_len} is past the table"
        );
        let slot = &self.decode[(batch as usize - 1) * self.row_chunks + col / CHUNK];
        let cells = match slot.get() {
            Some(cells) => cells,
            None => self.price(slot, col / CHUNK, self.max_kv_idx, |len, cells| {
                self.estimator
                    .decode_cells(self.model, self.par, batch, len, cells);
            }),
        };
        cells[col % CHUNK]
    }

    pub(crate) fn prefill_cost(&self, prompt: u32) -> f64 {
        let col = self.column(prompt);
        debug_assert!(
            col < self.max_prompt_idx,
            "prompt {prompt} is past the table"
        );
        let slot = &self.prefill[col / CHUNK];
        let cells = match slot.get() {
            Some(cells) => cells,
            None => self.price(slot, col / CHUNK, self.max_prompt_idx, |len, cells| {
                self.estimator
                    .prefill_cells(self.model, self.par, 1, len, cells);
            }),
        };
        cells[col % CHUNK]
    }

    /// The cell of `tokens` along a row: its bucket index, from 0.
    fn column(&self, tokens: u32) -> usize {
        (tokens.div_ceil(self.bucket) as usize).max(1) - 1
    }

    /// Prices chunk `chunk` of a row of `row_len` cells into `slot`,
    /// once: `cells` fills cell `i` at length `len(i)`, and a concurrent
    /// reader waits for that price. The last chunk of a row prices only
    /// the cells the row has. Kept out of line, off the read path.
    #[cold]
    #[inline(never)]
    fn price<'c>(
        &self,
        slot: &'c Chunk,
        chunk: usize,
        row_len: usize,
        cells: impl FnOnce(&dyn Fn(usize) -> u32, &mut [f64]),
    ) -> &'c [f64; CHUNK] {
        slot.get_or_init(|| {
            let _span = profile::span(profile::Phase::CostTable);
            let first = chunk * CHUNK;
            let mut out = [0.0; CHUNK];
            let n = CHUNK.min(row_len.saturating_sub(first));
            cells(&|i| (first + i + 1) as u32 * self.bucket, &mut out[..n]);
            out
        })
    }

    /// Bucket width of the KV/prompt length axes.
    pub(crate) fn bucket(&self) -> u32 {
        self.bucket
    }

    /// Largest batch the table covers.
    pub(crate) fn max_batch(&self) -> u32 {
        (self.decode.len() / self.row_chunks) as u32
    }

    /// Largest KV length the table covers.
    pub(crate) fn max_kv(&self) -> u32 {
        (self.max_kv_idx as u32) * self.bucket
    }
}

/// One running sequence of the engine's batch.
#[derive(Debug, Clone, Copy)]
pub struct RunningSeq {
    /// Index into the (arrival-sorted) trace.
    pub idx: usize,
    /// Cache length: prompt plus tokens generated so far.
    pub kv_len: u32,
    /// Tokens generated so far (this attempt).
    pub produced: u32,
    /// Prompt tokens still awaiting prefill (chunked mode); 0 once the
    /// sequence decodes.
    pub prefill_remaining: u32,
    /// Tokens of this sequence's KV held in shared prefix blocks (full
    /// blocks only; charged once globally, not against this sequence).
    /// 0 when prefix caching is off.
    pub shared_tokens: u32,
}

impl RunningSeq {
    /// A sequence freshly admitted with its whole prompt prefilled.
    #[must_use]
    pub fn admitted(idx: usize, prompt_tokens: u32) -> Self {
        Self {
            idx,
            kv_len: prompt_tokens,
            produced: 0,
            prefill_remaining: 0,
            shared_tokens: 0,
        }
    }
}

/// Where a request stands in a replay. Written only on transitions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) enum Fate {
    /// Queued or running, no token emitted yet.
    #[default]
    Waiting,
    /// First token emitted at this instant (s); it survives preemption.
    FirstToken(f64),
    /// First and last token instants (s).
    Completed(f64, f64),
    /// Dropped by the admission-control gate; it never ran.
    Shed,
}

/// The replay's one per-request ledger: the request's fate and the
/// prefill work prefix-cache hits avoided, summed across attempts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Outcome {
    pub(crate) fate: Fate,
    pub(crate) prefix_saved_tokens: u64,
}

impl Outcome {
    /// The instant of the request's first token, recording `at` as that
    /// instant if none was emitted before.
    fn first_token(&mut self, at: f64) -> f64 {
        match self.fate {
            Fate::FirstToken(first) => first,
            _ => {
                debug_assert_eq!(self.fate, Fate::Waiting, "a served request emits again");
                self.fate = Fate::FirstToken(at);
                at
            }
        }
    }
}

/// Where a replay loop writes each request's [`Outcome`], by trace
/// index: a whole-trace ledger, or a [`BladeLedger`] holding only one
/// blade's requests.
pub(crate) trait Ledger {
    /// The outcome of `trace[idx]`.
    fn at(&mut self, idx: usize) -> &mut Outcome;
}

impl Ledger for [Outcome] {
    fn at(&mut self, idx: usize) -> &mut Outcome {
        &mut self[idx]
    }
}

/// One blade's ledger under per-blade dispatch: an outcome per request
/// routed there, in the order of the blade's queue, found through a
/// whole-trace map of each request's position in its blade's queue.
pub(crate) struct BladeLedger<'a> {
    pub(crate) outcomes: Vec<Outcome>,
    /// Per trace index: its position in its blade's queue.
    pub(crate) slot: &'a [u32],
}

impl Ledger for BladeLedger<'_> {
    fn at(&mut self, idx: usize) -> &mut Outcome {
        &mut self.outcomes[self.slot[idx] as usize]
    }
}

/// Mutable per-blade replay state: the running batch, the blade clock and
/// the accumulated counters. One instance per blade; the cluster couples
/// several against a shared queue.
#[derive(Debug, Clone)]
pub(crate) struct BladeState {
    /// Blade index within the scenario topology (0 for single-blade
    /// replays); carried so observer events can attribute themselves.
    pub(crate) id: u32,
    pub(crate) running: Vec<RunningSeq>,
    pub(crate) clock: f64,
    pub(crate) evictions: u32,
    pub(crate) wasted_tokens: u64,
    pub(crate) decode_time_s: f64,
    pub(crate) decode_iterations: u64,
    pub(crate) batch_time_weighted: f64,
    pub(crate) busy_s: f64,
    pub(crate) max_step_s: f64,
    pub(crate) served: u32,
    pub(crate) kv_peak_tokens: u64,
    pub(crate) frag_peak_tokens: u64,
    /// Per-blade shared-block cache (KV is per-blade memory); present iff
    /// the configuration enables prefix caching.
    pub(crate) cache: Option<PrefixCache>,
    pub(crate) prefix_hits: u64,
    pub(crate) prefix_misses: u64,
    pub(crate) cow_copies: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) shared_peak_tokens: u64,
    /// Closed-form decode stretches taken (event core only; diagnostics,
    /// never compared across cores).
    pub(crate) stretches: u64,
    /// Decode iterations advanced inside those stretches (the remainder
    /// of `decode_iterations` ran as individual engine steps).
    pub(crate) stretched_iterations: u64,
    /// Admissions where the global cache tier held more of the prefix
    /// than this blade's own cache (coordination on only).
    pub(crate) remote_hits: u64,
    /// Of those, admissions where streaming the tier's KV span over the
    /// interconnect beat recomputing it locally.
    pub(crate) remote_streams: u64,
    /// KV tokens streamed in from the tier by the winning transfers.
    pub(crate) remote_streamed_tokens: u64,
    /// Tier hits where local recompute was cheaper than the transfer.
    pub(crate) remote_recomputes: u64,
}

impl BladeState {
    /// Records a completed prefix admission: one hit (some leading block
    /// was resident) or miss, plus the copy-on-write tail copy a
    /// full-chain hit of a non-block-aligned prefix pays — a shared
    /// partial tail block cannot be appended to in place.
    pub(crate) fn record_prefix_admission(
        &mut self,
        prefix: SharedPrefix,
        block_tokens: u32,
        full_hit: bool,
        skip: u32,
    ) {
        if skip > 0 {
            self.prefix_hits += 1;
        } else {
            self.prefix_misses += 1;
        }
        if full_hit && !prefix.tokens.is_multiple_of(block_tokens) {
            self.cow_copies += 1;
        }
    }

    pub(crate) fn new(id: u32, clock: f64, prefix: Option<PrefixCachingConfig>) -> Self {
        Self {
            id,
            running: Vec::new(),
            clock,
            evictions: 0,
            wasted_tokens: 0,
            decode_time_s: 0.0,
            decode_iterations: 0,
            batch_time_weighted: 0.0,
            busy_s: 0.0,
            max_step_s: 0.0,
            served: 0,
            kv_peak_tokens: 0,
            frag_peak_tokens: 0,
            cache: prefix.map(PrefixCache::new),
            prefix_hits: 0,
            prefix_misses: 0,
            cow_copies: 0,
            cache_evictions: 0,
            shared_peak_tokens: 0,
            stretches: 0,
            stretched_iterations: 0,
            remote_hits: 0,
            remote_streams: 0,
            remote_streamed_tokens: 0,
            remote_recomputes: 0,
        }
    }
}

/// Everything a replay needs that does not mutate: configuration,
/// policy, SLO classes, cost table, per-token KV sizing.
pub(crate) struct EngineCtx<'a> {
    pub(crate) config: &'a ServingConfig,
    pub(crate) policy: &'a dyn SchedulerPolicy,
    /// SLO classes indexed by [`RequestSpec::class`].
    pub(crate) classes: &'a [SloClass],
    pub(crate) table: &'a CostTable<'a>,
    pub(crate) kv_bytes_per_token: f64,
    /// The trace's prefix chains, cut once per replay (empty with prefix
    /// caching off).
    pub(crate) chains: &'a ChainTable,
    /// The global-tier coordination plan, when the scenario enables one
    /// (see [`super::coord`]); `None` keeps every replay byte-identical
    /// to the uncoordinated engine.
    pub(crate) coord: Option<&'a CoordPlan>,
}

/// What one admission decided: the trace index, the prefill tokens a
/// prefix-cache hit lets the blade skip, and the tokens of the sequence's
/// KV that live in shared blocks (charged once globally).
#[derive(Debug, Clone, Copy)]
struct Admission {
    idx: usize,
    skip: u32,
    shared: u32,
}

impl EngineCtx<'_> {
    pub(crate) fn kv_bytes(&self, tokens_charged: u64) -> f64 {
        tokens_charged as f64 * self.kv_bytes_per_token
    }

    /// Fresh admission-control gate state, or `None` when no gate is
    /// configured (the replay then takes no control-plane branch
    /// anywhere). The gate watches the strict class's own targets.
    pub(crate) fn control_state(&self) -> Option<ControlState> {
        self.config
            .admission
            .map(|ac| ControlState::new(ac, self.classes[ac.strict_class as usize].clone()))
    }

    /// Charged-token footprint of `r`'s *private* KV including this
    /// iteration's growth (+1 for decoding sequences; prefilling ones
    /// hold their reserved prompt only). Tokens resident in shared prefix
    /// blocks are excluded — they are charged once per blade, via
    /// [`Self::cache_charged`].
    pub(crate) fn charge(&self, r: &RunningSeq) -> u64 {
        let growth = u64::from(r.prefill_remaining == 0);
        self.config
            .kv_layout
            .charged_tokens(u64::from(r.kv_len) + growth - u64::from(r.shared_tokens))
    }

    /// Capacity charged by `blade`'s resident shared blocks (0 with
    /// prefix caching off — keeping every legacy comparison on the exact
    /// integer value it always used).
    pub(crate) fn cache_charged(&self, blade: &BladeState) -> u64 {
        blade.cache.as_ref().map_or(0, PrefixCache::charged_tokens)
    }

    /// Decides whether `trace[idx]` fits this iteration, leasing its
    /// prefix chain on the blade's cache (reclaiming cold blocks to make
    /// room) when caching is on. An untagged or streamed request leases
    /// the empty chain: it pins nothing but may still reclaim. Returns
    /// `None` — the dropped lease rolling the cache back — when the
    /// request cannot fit even after reclaiming every unreferenced cached
    /// block.
    fn try_admit(
        &self,
        trace: &[RequestSpec],
        idx: usize,
        streamed: bool,
        projected: &mut u64,
        blade: &mut BladeState,
        obs: &mut dyn SimObserver,
    ) -> Option<Admission> {
        let cfg = self.config;
        let r = &trace[idx];
        let block_tokens = blade.cache.as_ref().map_or(0, |c| c.config().block_tokens);
        let prefix = r.prefix.filter(|_| !streamed && blade.cache.is_some());
        let chain = prefix
            .and_then(|_| self.chains.get(idx))
            .unwrap_or_default();
        let shared = prefix.map_or(0, |p| p.shared_tokens(block_tokens));
        let private = cfg
            .kv_layout
            .charged_tokens(u64::from(r.prompt_tokens) + 1 - u64::from(shared));
        let mut lease = blade.cache.as_mut().map(|cache| cache.lease(chain));
        loop {
            let cached = lease.as_ref().map_or(0, Lease::charged_after_commit);
            if self.kv_bytes(*projected + private + cached) <= cfg.kv_capacity_bytes {
                break;
            }
            // Reclaim cold cached blocks before refusing admission.
            lease.as_mut()?.evict_lru()?;
            blade.cache_evictions += 1;
            obs.emit(
                blade.id,
                blade.clock,
                EventKind::CacheEvict { block_tokens },
            );
        }
        let (skip, full_hit) = lease.map_or((0, false), |lease| {
            let hit = (lease.hit_tokens(), lease.hits() == chain.len());
            lease.commit();
            hit
        });
        if let Some(prefix) = prefix {
            blade.record_prefix_admission(prefix, block_tokens, full_hit, skip);
        }
        *projected += private;
        Some(Admission { idx, skip, shared })
    }

    /// The global-tier race of admitting `trace[idx]` at `at` with `skip`
    /// prompt tokens already cached on `blade`: when the cluster tier held
    /// more of the prefix at arrival, streaming the extra span over the
    /// tier's link competes with recomputing it locally — the cheaper one
    /// wins and the choice is recorded (see [`super::coord`]). Returns
    /// the transfer time and the tokens now covered when streaming wins.
    pub(crate) fn race_global_tier(
        &self,
        trace: &[RequestSpec],
        idx: usize,
        skip: u32,
        at: f64,
        blade: &mut BladeState,
        obs: &mut dyn SimObserver,
    ) -> Option<(f64, u32)> {
        let coord = self.coord?;
        let r = &trace[idx];
        let prompt = r.prompt_tokens;
        let covered = coord.covered[idx].min(prompt);
        if covered <= skip {
            return None;
        }
        let remote = covered - skip;
        let transfer = coord
            .link
            .transfer_s(f64::from(remote) * self.kv_bytes_per_token);
        let recompute = self.table.prefill_cost(prompt - skip)
            - if prompt > covered {
                self.table.prefill_cost(prompt - covered)
            } else {
                0.0
            };
        let streams = transfer < recompute;
        blade.remote_hits += 1;
        obs.emit(
            blade.id,
            at,
            EventKind::RemoteCacheHit {
                request: *r,
                remote_tokens: remote,
                transfer_s: transfer,
                streamed: streams,
            },
        );
        if !streams {
            blade.remote_recomputes += 1;
            return None;
        }
        blade.remote_streams += 1;
        blade.remote_streamed_tokens += u64::from(remote);
        Some((transfer, covered))
    }

    /// Drops the references sequence `r` holds on its prefix chain (it
    /// committed a lease on them at admission) when it leaves the blade.
    /// `streamed` (handed-off) sequences never touched the cache.
    fn release_chain(&self, r: &RunningSeq, streamed: bool, blade: &mut BladeState) {
        if streamed {
            return;
        }
        if let (Some(cache), Some(chain)) = (blade.cache.as_mut(), self.chains.get(r.idx)) {
            cache.release_committed(chain);
        }
    }

    /// One engine iteration on `blade`: admit from the (policy-ordered)
    /// queue, preempt on KV overflow, price the joint prefill + decode
    /// step, emit one token per decoding sequence.
    ///
    /// The queue gives the instant each request may (re-)enter a batch
    /// ([`AdmissionQueue::ready_at`]): its arrival for fresh requests, the
    /// eviction instant for preempted ones (a shared queue tracks this so
    /// a victim cannot restart on another blade before it was evicted;
    /// single-blade queues report plain arrivals — one clock can't
    /// violate causality). Victims go back through
    /// [`AdmissionQueue::requeue_victim`], where a shared queue records
    /// them to stamp their re-entry. Members of a
    /// [`AdmissionQueue::streamed`] queue already have their KV and enter
    /// the decode batch at full prompt length with no prefill cost.
    /// `outcomes` is the ledger the step writes fates to. `ctl`, when
    /// given, is the admission-control gate: best-effort requests are
    /// shed at the instant they would otherwise be admitted, and
    /// strict-class completions feed the gate's attainment window. `obs`
    /// receives the iteration's events; it is read-only and never
    /// perturbs the float stream.
    pub(crate) fn step<Q: AdmissionQueue, L: Ledger + ?Sized>(
        &self,
        trace: &[RequestSpec],
        queue: &mut Q,
        blade: &mut BladeState,
        outcomes: &mut L,
        mut ctl: Option<&mut ControlState>,
        obs: &mut dyn SimObserver,
    ) {
        let cfg = self.config;
        let streamed = queue.streamed();

        // Admission against batch slots and projected KV growth (every
        // decoding sequence appends one token this iteration). `projected`
        // tracks private charges only; resident shared blocks are added
        // per comparison via `cache_charged` (0 with caching off, keeping
        // the legacy comparison on its exact integer value).
        let mut projected: u64 = blade.running.iter().map(|r| self.charge(r)).sum();
        let mut admitted: Vec<Admission> = Vec::new();
        let mut sheds = 0u32;
        {
            let _admission_span = profile::span(profile::Phase::Admission);
            while let Some(idx) = queue.peek() {
                if queue.ready_at(trace, idx) > blade.clock
                    || blade.running.len() + admitted.len() >= cfg.max_batch as usize
                {
                    break;
                }
                // Load shedding fires exactly where admission would: after
                // the ready/batch-space gates, before the KV check. Both
                // cores reach this point at the same blade clock with the
                // same gate state, so the decision is bit-identical.
                if ctl
                    .as_deref()
                    .is_some_and(|c| c.should_shed(trace[idx].class))
                {
                    outcomes.at(idx).fate = Fate::Shed;
                    let request = trace[idx];
                    obs.emit(blade.id, blade.clock, EventKind::Shed { request });
                    queue.pop();
                    sheds += 1;
                    continue;
                }
                let Some(adm) = self.try_admit(trace, idx, streamed, &mut projected, blade, obs)
                else {
                    break;
                };
                admitted.push(adm);
                queue.pop();
            }
        }
        let mut step_cost = 0.0f64;
        for &Admission { idx, skip, shared } in &admitted {
            let r = &trace[idx];
            obs.emit(blade.id, blade.clock, EventKind::Admission { request: *r });
            let prompt = r.prompt_tokens;
            let mut skip = skip;
            if cfg.prefix.is_some() && r.prefix.is_some() && !streamed {
                obs.emit(blade.id, blade.clock, EventKind::prefix_lookup(*r, skip));
                outcomes.at(idx).prefix_saved_tokens += u64::from(skip);
                if let Some((transfer, covered)) =
                    self.race_global_tier(trace, idx, skip, blade.clock, blade, obs)
                {
                    outcomes.at(idx).prefix_saved_tokens += u64::from(covered - skip);
                    step_cost += transfer;
                    skip = covered;
                }
            }
            if streamed {
                // KV streamed in from a prefill blade: decode-ready at
                // full prompt length, no prefill work on this blade.
                blade.running.push(RunningSeq::admitted(idx, prompt));
            } else if cfg.prefill_chunk_tokens == 0 {
                // Whole-prompt prefill in the admission iteration, minus
                // the prefix tokens already cached on this blade.
                if prompt > skip {
                    step_cost += self.table.prefill_cost(prompt - skip);
                }
                blade.running.push(RunningSeq {
                    idx,
                    kv_len: prompt,
                    produced: 0,
                    prefill_remaining: 0,
                    shared_tokens: shared,
                });
            } else {
                blade.running.push(RunningSeq {
                    idx,
                    kv_len: prompt,
                    produced: 0,
                    prefill_remaining: prompt - skip,
                    shared_tokens: shared,
                });
            }
        }

        // Preempt while the grown cache cannot fit. Unreferenced shared
        // blocks go first (dropping cold cache instead of live work) —
        // even when only one sequence remains, so a lone survivor plus a
        // warm cache still fits; then the policy picks sequence victims.
        // The head-of-line request always survives (its full-length
        // footprint, chain blocks included, fits by validation), so the
        // simulation cannot livelock.
        loop {
            let grown: u64 = blade.running.iter().map(|r| self.charge(r)).sum::<u64>()
                + self.cache_charged(blade);
            if self.kv_bytes(grown) <= cfg.kv_capacity_bytes {
                break;
            }
            if let Some(cache) = blade.cache.as_mut() {
                if cache.evict_lru().is_some() {
                    let block_tokens = cache.config().block_tokens;
                    blade.cache_evictions += 1;
                    obs.emit(
                        blade.id,
                        blade.clock,
                        EventKind::CacheEvict { block_tokens },
                    );
                    continue;
                }
            }
            if blade.running.len() <= 1 {
                break;
            }
            let victim_at = self.policy.evict_victim(trace, &blade.running);
            let victim = blade.running.remove(victim_at);
            blade.evictions += 1;
            blade.wasted_tokens += u64::from(victim.produced);
            let kind = EventKind::Eviction {
                request: trace[victim.idx],
                wasted_tokens: victim.produced,
            };
            obs.emit(blade.id, blade.clock, kind);
            self.release_chain(&victim, streamed, blade);
            queue.requeue_victim(victim.idx);
        }

        if blade.running.is_empty() {
            // Nothing admitted and nothing running: a no-op step (only
            // reachable in cluster mode when another blade drained the
            // shared queue first, or when the shedding gate dropped the
            // whole ready prefix of the queue).
            blade.served += sheds;
            return;
        }

        // Chunked prefill: each prefilling sequence advances one chunk.
        // Chunks ride the iteration's shared weight stream (Sarathi-style
        // fused batches): when anything else streams the weights this
        // iteration — a decoding sequence or an earlier chunk — only the
        // chunk's marginal token work is charged; otherwise the largest
        // chunk pays the full batch-1 prefill pass.
        let mut chunks: Vec<u32> = Vec::new();
        if cfg.prefill_chunk_tokens > 0 {
            let (blade_id, clock) = (blade.id, blade.clock);
            for r in &mut blade.running {
                if r.prefill_remaining > 0 {
                    let chunk = r.prefill_remaining.min(cfg.prefill_chunk_tokens);
                    chunks.push(chunk);
                    r.prefill_remaining -= chunk;
                    let kind = EventKind::Chunk {
                        request: trace[r.idx],
                        chunk_tokens: chunk,
                    };
                    obs.emit(blade_id, clock, kind);
                }
            }
        }
        let decoding = blade
            .running
            .iter()
            .filter(|r| r.prefill_remaining == 0)
            .count() as u32;
        // The chunk paying the full pass: none when the decode batch
        // already streams the weights, else the (last) largest one.
        let full_at = if decoding > 0 {
            None
        } else {
            chunks
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(at, _)| at)
        };
        for (i, &c) in chunks.iter().enumerate() {
            step_cost += if Some(i) == full_at {
                self.table.prefill_cost(c)
            } else {
                (self.table.prefill_cost(c) - self.table.prefill_cost(1)).max(0.0)
            };
        }

        // Price the decode iteration over the decoding subset.
        let batch = decoding;
        if batch > 0 {
            let decode_cost = match cfg.decode_pricing {
                DecodePricing::BucketizedMean => {
                    let kv_sum: u64 = blade
                        .running
                        .iter()
                        .filter(|r| r.prefill_remaining == 0)
                        .map(|r| u64::from(r.kv_len))
                        .sum();
                    let kv_mean = kv_sum.div_ceil(u64::from(batch)) as u32;
                    self.table.decode_cost(batch, kv_mean)
                }
                DecodePricing::ExactPerSequence => {
                    let total: f64 = blade
                        .running
                        .iter()
                        .filter(|r| r.prefill_remaining == 0)
                        .map(|r| self.table.decode_cost(batch, r.kv_len))
                        .sum();
                    total / f64::from(batch)
                }
            };
            step_cost += decode_cost;
            blade.decode_time_s += decode_cost;
            blade.decode_iterations += 1;
            blade.batch_time_weighted += decode_cost * f64::from(batch);
        }
        blade.busy_s += step_cost;
        blade.max_step_s = blade.max_step_s.max(step_cost);
        blade.clock += step_cost;

        // Occupancy + fragmentation peaks at this iteration's resident
        // footprint — post-growth, before finishers release their caches
        // (integer math: does not perturb the audited float stream).
        // Shared prefix blocks count once: privately per sequence they
        // are excluded, globally they enter via the blade's cache.
        let used: u64 = blade
            .running
            .iter()
            .map(|r| {
                u64::from(r.kv_len) + u64::from(r.prefill_remaining == 0)
                    - u64::from(r.shared_tokens)
            })
            .sum::<u64>()
            + blade.cache.as_ref().map_or(0, PrefixCache::resident_tokens);
        let shared_now = self.cache_charged(blade);
        let charged: u64 = blade.running.iter().map(|r| self.charge(r)).sum::<u64>() + shared_now;
        blade.kv_peak_tokens = blade.kv_peak_tokens.max(charged);
        blade.frag_peak_tokens = blade.frag_peak_tokens.max(charged - used);
        blade.shared_peak_tokens = blade.shared_peak_tokens.max(shared_now);
        let kind = EventKind::Step {
            step_s: step_cost,
            decoding: batch,
            kv_tokens: charged,
            shared_tokens: shared_now,
        };
        obs.emit(blade.id, blade.clock, kind);

        // Every decoding sequence emits one token; retire finishers.
        let mut completions = 0u32;
        let mut running = std::mem::take(&mut blade.running);
        running.retain_mut(|r| {
            if r.prefill_remaining > 0 {
                return true;
            }
            r.produced += 1;
            r.kv_len += 1;
            let spec = &trace[r.idx];
            if r.produced < spec.output_tokens {
                // Past its first token this attempt, the request's
                // ledger entry has nothing to record until it finishes.
                if r.produced == 1 {
                    outcomes.at(r.idx).first_token(blade.clock);
                }
                return true;
            }
            let out = outcomes.at(r.idx);
            let first = out.first_token(blade.clock);
            out.fate = Fate::Completed(first, blade.clock);
            let kind = EventKind::Completion {
                request: *spec,
                first_token_s: first,
            };
            obs.emit(blade.id, blade.clock, kind);
            // Strict-class completions feed the shedding gate's
            // attainment window, scored as `finalize` scores them.
            if let Some(c) = ctl.as_deref_mut() {
                if spec.class == c.strict_class() {
                    let (ttft, tpot) = spec.slo_times(first, blade.clock);
                    c.observe_strict(ttft, tpot);
                }
            }
            // The finisher's shared blocks stay resident (warm for
            // the next arrival) but lose its references.
            self.release_chain(r, streamed, blade);
            completions += 1;
            false
        });
        blade.running = running;
        blade.served += completions + sheds;
    }

    /// Drives blade `blade_id` until every request in `queue` (arrival
    /// ordered) has completed or been shed, behind the blade's own
    /// shedding gate when one is configured, writing the queued requests'
    /// outcomes to the blade's own ledger. Picks the queue
    /// discipline for the configured [`SimCore`] and the policy's
    /// ordering contract.
    pub(crate) fn drive_blade(
        &self,
        blade_id: u32,
        trace: &[RequestSpec],
        queue: VecDeque<usize>,
        outcomes: &mut BladeLedger<'_>,
        obs: &mut dyn SimObserver,
    ) -> BladeState {
        let first_arrival = queue
            .iter()
            .map(|&i| trace[i].arrival_s)
            .fold(f64::MAX, f64::min);
        let blade = BladeState::new(blade_id, first_arrival, self.config.prefix);
        match (self.config.core, self.policy.ordering()) {
            (SimCore::PerStep, _) => {
                self.drive_queue(trace, Exhaustive::new(queue), blade, outcomes, obs)
            }
            (SimCore::EventDriven, OrderingContract::Fcfs) => {
                self.drive_queue(trace, Fcfs::new(queue), blade, outcomes, obs)
            }
            (SimCore::EventDriven, OrderingContract::StaticKey | OrderingContract::TraceRank) => {
                let queue = KeyedQueue::new(self.policy, trace, queue);
                self.drive_queue(trace, queue, blade, outcomes, obs)
            }
            (SimCore::EventDriven, OrderingContract::ClockDependent) => {
                self.drive_queue(trace, Resort::new(queue), blade, outcomes, obs)
            }
        }
    }

    /// The single-blade replay loop. An idle blade jumps to the next
    /// arrival; each round brings the queue's order up to date and runs
    /// one [`Self::step`]. Outside the reference discipline, pure-decode
    /// iterations up to the next event are then advanced in closed form
    /// by a [`DecodeStretch`] instead of one `step` each: the loop's only
    /// decision point is its own admission gate.
    fn drive_queue<D: Discipline>(
        &self,
        trace: &[RequestSpec],
        mut queue: D,
        mut blade: BladeState,
        outcomes: &mut BladeLedger<'_>,
        obs: &mut dyn SimObserver,
    ) -> BladeState {
        let mut ctl = self.control_state();
        while !queue.is_empty() || !blade.running.is_empty() {
            if blade.running.is_empty() {
                if let Some(next) = queue.idle_target(trace) {
                    blade.clock = blade.clock.max(next);
                }
            }
            queue.prepare(blade.clock, trace, self.policy);
            self.step(trace, &mut queue, &mut blade, outcomes, ctl.as_mut(), obs);
            if D::EXHAUSTIVE {
                continue;
            }
            // Batch-advance decode-only iterations up to the next event:
            // the head's arrival when a batch slot is open, unbounded
            // when the batch is full or the queue empty (the reference
            // would neither admit nor preempt before the stretch's own
            // capacity/completion bounds end it).
            loop {
                let gate = if blade.running.len() >= self.config.max_batch as usize {
                    f64::INFINITY
                } else {
                    match queue.admission_gate(trace, blade.clock) {
                        Gate::Ready => break,
                        Gate::Empty => f64::INFINITY,
                        Gate::Blocked(at) => at,
                    }
                };
                // A gate already due leaves nothing to advance: skip the
                // plan (the profiler counts every one).
                if gate <= blade.clock {
                    break;
                }
                let Some(stretch) = DecodeStretch::plan(self, trace, &blade) else {
                    break;
                };
                if stretch.advance(&mut blade, gate, obs) == 0 {
                    break;
                }
            }
        }
        blade
    }
}

/// Scores the ledger into the population metrics, folding the blades'
/// counters in blade order. Each request is held to its own SLO class's
/// targets (`classes[r.class]`); the single-default-class case
/// reproduces the global-pair accounting bit-for-bit. Shed requests
/// count as SLO misses in their class's attainment and contribute
/// nothing to throughput or the latency populations. The replay loops
/// stop only once every request is completed or shed, so no outcome is
/// still open here.
pub(crate) fn finalize(
    classes: &[SloClass],
    kv_bytes_per_token: f64,
    trace: &[RequestSpec],
    outcomes: &[Outcome],
    blades: &[BladeState],
) -> ServingReport {
    let first_arrival = trace.iter().map(|r| r.arrival_s).fold(f64::MAX, f64::min);
    let last_completion = outcomes
        .iter()
        .filter_map(|o| match o.fate {
            Fate::Completed(_, done) => Some(done),
            _ => None,
        })
        .fold(f64::MIN, f64::max);
    let makespan_s = (last_completion - first_arrival).max(f64::MIN_POSITIVE);
    let mut ttft = Vec::with_capacity(trace.len());
    let mut tpot = Vec::with_capacity(trace.len());
    let mut latency = Vec::with_capacity(trace.len());
    let mut useful_tokens = 0u64;
    let mut good_tokens = 0u64;
    let mut slo_met = 0u32;
    let mut completed = 0u32;
    let mut shed_requests = 0u64;
    let mut prefix_tokens_saved = 0u64;
    struct ClassAcc {
        ttft: Vec<f64>,
        tpot: Vec<f64>,
        requests: u32,
        shed: u64,
        met: u32,
        good_tokens: u64,
        prefix_tokens_saved: u64,
    }
    let mut acc: Vec<ClassAcc> = classes
        .iter()
        .map(|_| ClassAcc {
            ttft: Vec::new(),
            tpot: Vec::new(),
            requests: 0,
            shed: 0,
            met: 0,
            good_tokens: 0,
            prefix_tokens_saved: 0,
        })
        .collect();
    for (r, out) in trace.iter().zip(outcomes) {
        let a = &mut acc[r.class as usize];
        a.requests += 1;
        let (first, done) = match out.fate {
            Fate::Completed(first, done) => (first, done),
            Fate::Shed => {
                shed_requests += 1;
                a.shed += 1;
                continue;
            }
            Fate::Waiting | Fate::FirstToken(_) => {
                debug_assert!(false, "request {} was never served", r.id);
                continue;
            }
        };
        let (t_first, t_rest) = r.slo_times(first, done);
        completed += 1;
        ttft.push(t_first);
        tpot.push(t_rest);
        latency.push(done - r.arrival_s);
        useful_tokens += u64::from(r.output_tokens);
        prefix_tokens_saved += out.prefix_saved_tokens;
        a.ttft.push(t_first);
        a.tpot.push(t_rest);
        a.prefix_tokens_saved += out.prefix_saved_tokens;
        if classes[r.class as usize].met(t_first, t_rest) {
            slo_met += 1;
            good_tokens += u64::from(r.output_tokens);
            a.met += 1;
            a.good_tokens += u64::from(r.output_tokens);
        }
    }
    let per_class: Vec<SloClassReport> = classes
        .iter()
        .zip(&mut acc)
        .map(|(cls, a)| SloClassReport {
            name: cls.name.clone(),
            weight: cls.weight,
            requests: a.requests,
            shed: a.shed,
            goodput_tok_s: a.good_tokens as f64 / makespan_s,
            slo_attainment: if a.requests == 0 {
                1.0
            } else {
                f64::from(a.met) / f64::from(a.requests)
            },
            prefix_tokens_saved: a.prefix_tokens_saved,
            ttft: Percentiles::of(&mut a.ttft),
            tpot: Percentiles::of(&mut a.tpot),
        })
        .collect();
    // Counters add up across blades; KV (and its shared pool) is
    // per-blade memory, so its cluster-wide peaks are the worst blade's.
    let sum = |count: fn(&BladeState) -> u64| blades.iter().map(count).sum::<u64>();
    let peak = |tokens: fn(&BladeState) -> u64| blades.iter().map(tokens).fold(0, u64::max);
    let seconds = |time: fn(&BladeState) -> f64| blades.iter().fold(0.0, |t, b| t + time(b));
    let decode_time_s = seconds(|b| b.decode_time_s);
    let batch_time_weighted = seconds(|b| b.batch_time_weighted);
    ServingReport {
        requests: trace.len() as u32,
        completed,
        shed_requests,
        evictions: blades.iter().map(|b| b.evictions).sum(),
        wasted_tokens: sum(|b| b.wasted_tokens),
        makespan_s,
        throughput_tok_s: useful_tokens as f64 / makespan_s,
        goodput_tok_s: good_tokens as f64 / makespan_s,
        slo_attainment: f64::from(slo_met) / trace.len() as f64,
        mean_batch: if decode_time_s > 0.0 {
            batch_time_weighted / decode_time_s
        } else {
            0.0
        },
        decode_time_s,
        decode_iterations: sum(|b| b.decode_iterations),
        max_step_s: blades.iter().map(|b| b.max_step_s).fold(0.0, f64::max),
        kv_peak_bytes: peak(|b| b.kv_peak_tokens) as f64 * kv_bytes_per_token,
        kv_fragmentation_peak_bytes: peak(|b| b.frag_peak_tokens) as f64 * kv_bytes_per_token,
        prefix_hits: sum(|b| b.prefix_hits),
        prefix_misses: sum(|b| b.prefix_misses),
        prefix_tokens_saved,
        prefix_cow_copies: sum(|b| b.cow_copies),
        prefix_cache_evictions: sum(|b| b.cache_evictions),
        kv_shared_peak_bytes: peak(|b| b.shared_peak_tokens) as f64 * kv_bytes_per_token,
        remote_prefix_hits: sum(|b| b.remote_hits),
        remote_prefix_streams: sum(|b| b.remote_streams),
        remote_prefix_recomputes: sum(|b| b.remote_recomputes),
        remote_kv_streamed_bytes: sum(|b| b.remote_streamed_tokens) as f64 * kv_bytes_per_token,
        ttft: Percentiles::of(&mut ttft),
        tpot: Percentiles::of(&mut tpot),
        latency: Percentiles::of(&mut latency),
        per_class,
    }
}

/// Arrival-sorted queue over the whole trace (stable on ties by trace
/// order).
pub(crate) fn arrival_queue(trace: &[RequestSpec]) -> VecDeque<usize> {
    let mut order: Vec<usize> = (0..trace.len()).collect();
    order.sort_by(|&a, &b| {
        trace[a]
            .arrival_s
            .total_cmp(&trace[b].arrival_s)
            .then(a.cmp(&b))
    });
    order.into_iter().collect()
}

/// Continuous-batching simulator over one estimator + model + plan: the
/// validated engine a [`CompiledScenario`](super::scenario::CompiledScenario)
/// builds once and every replay borrows through [`Self::ctx`].
#[derive(Debug)]
pub(crate) struct ServingSimulator<'a> {
    estimator: InferenceEstimator,
    pub(crate) model: &'a TransformerConfig,
    par: &'a Parallelism,
    pub(crate) config: ServingConfig,
    /// Bound to `classes` once, at construction.
    policy: Box<dyn SchedulerPolicy>,
    /// SLO classes indexed by [`RequestSpec::class`]; entry 0 defaults to
    /// the config's global pair.
    pub(crate) classes: Vec<SloClass>,
    /// KV bytes per cached token per sequence, whole system.
    kv_bytes_per_token: f64,
}

impl<'a> ServingSimulator<'a> {
    /// Validates config, model, plan, classes and the admission gate, and
    /// binds the policy to the class table. `classes` of `None` installs
    /// the single default class carrying the config's global SLO pair.
    pub(crate) fn from_parts(
        estimator: InferenceEstimator,
        model: &'a TransformerConfig,
        par: &'a Parallelism,
        config: ServingConfig,
        mut policy: Box<dyn SchedulerPolicy>,
        classes: Option<Vec<SloClass>>,
    ) -> Result<Self, OptimusError> {
        config.validate()?;
        model.validate().map_err(OptimusError::from)?;
        par.check_model(model).map_err(OptimusError::from)?;
        let classes = match classes {
            None => vec![SloClass::new(
                "default",
                config.ttft_slo_s,
                config.tpot_slo_s,
            )],
            Some(classes) => {
                if classes.is_empty() {
                    return Err(OptimusError::Serving {
                        reason: "a scenario needs at least one SLO class".to_owned(),
                    });
                }
                for class in &classes {
                    class.validate()?;
                }
                classes
            }
        };
        if let Some(ac) = config.admission {
            ac.validate(&classes)?;
        }
        // The class-aware seam: policies that rank by class see the
        // resolved table before any queue is ordered.
        policy.bind_classes(&classes);
        let kv_bytes_per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: estimator.precision(),
        }
        .bytes(model, config.kv_convention);
        Ok(Self {
            estimator,
            model,
            par,
            config,
            policy,
            classes,
            kv_bytes_per_token,
        })
    }

    /// The replay context over `table` and the trace's prefix `chains`,
    /// under the global-tier plan `coord` when the scenario enables one.
    pub(crate) fn ctx<'t>(
        &'t self,
        table: &'t CostTable<'t>,
        chains: &'t ChainTable,
        coord: Option<&'t CoordPlan>,
    ) -> EngineCtx<'t> {
        EngineCtx {
            config: &self.config,
            policy: self.policy.as_ref(),
            classes: &self.classes,
            table,
            kv_bytes_per_token: self.kv_bytes_per_token,
            chains,
            coord,
        }
    }

    /// The one trace check, run on every trace before it is replayed:
    /// a non-empty trace of non-degenerate requests (tokens in and out,
    /// a finite non-negative arrival) whose SLO classes and shared
    /// prefixes are in range, each fitting the KV capacity at full
    /// length — with prefix caching also beside its own block-rounded
    /// prefix chain, so a lone sequence can never livelock.
    pub(crate) fn check_trace(&self, trace: &[RequestSpec]) -> Result<(), OptimusError> {
        if trace.is_empty() {
            return Err(OptimusError::Serving {
                reason: "trace is empty".to_owned(),
            });
        }
        let kv_bytes = |tokens: u64| tokens as f64 * self.kv_bytes_per_token;
        let capacity = self.config.kv_capacity_bytes;
        for r in trace {
            let arrival_ok = (0.0..f64::INFINITY).contains(&r.arrival_s);
            if r.prompt_tokens == 0 || r.output_tokens == 0 || !arrival_ok {
                return Err(OptimusError::Serving {
                    reason: format!(
                        "request {} is degenerate (prompt {}, output {}, arrival {})",
                        r.id, r.prompt_tokens, r.output_tokens, r.arrival_s
                    ),
                });
            }
            if r.class as usize >= self.classes.len() {
                return Err(OptimusError::Serving {
                    reason: format!(
                        "request {} names SLO class {} but only {} class(es) are defined",
                        r.id,
                        r.class,
                        self.classes.len()
                    ),
                });
            }
            if let Some(p) = r.prefix {
                if p.tokens == 0 || p.tokens > r.prompt_tokens {
                    return Err(OptimusError::Serving {
                        reason: format!(
                            "request {} claims a {}-token shared prefix of a {}-token prompt",
                            r.id, p.tokens, r.prompt_tokens
                        ),
                    });
                }
            }
            let full_tokens = r.full_tokens();
            let full = kv_bytes(self.config.kv_layout.charged_tokens(full_tokens));
            if full > capacity {
                return Err(OptimusError::Serving {
                    reason: format!(
                        "request {} needs {:.1} GB of KV at full length but capacity is {:.1} GB",
                        r.id,
                        full / 1e9,
                        capacity / 1e9
                    ),
                });
            }
            // Private KV (shared span excluded, tail copy included) plus
            // the chain's block-rounded footprint.
            if let (Some(pc), Some(p)) = (self.config.prefix, r.prefix) {
                let block = u64::from(pc.block_tokens);
                let chain_blocks = u64::from(p.tokens).div_ceil(block);
                let shared = u64::from(p.shared_tokens(pc.block_tokens));
                let worst = kv_bytes(
                    self.config.kv_layout.charged_tokens(full_tokens - shared)
                        + chain_blocks * block,
                );
                if worst > capacity {
                    return Err(OptimusError::Serving {
                        reason: format!(
                            "request {} needs {:.1} GB of KV at full length with its \
                             {chain_blocks}-block prefix chain resident but capacity is \
                             {:.1} GB (prefix caching charges whole blocks)",
                            r.id,
                            worst / 1e9,
                            capacity / 1e9
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The iteration-cost table covering every (batch, KV-bucket) state
    /// a [checked](Self::check_trace) trace can reach, with no cell
    /// priced yet ([`CostTable`] prices a chunk of a row on its first
    /// read). One checked decode call and one checked prefill call, at
    /// batch 1 and one bucket, run every check behind the cells, so a
    /// failing estimator fails here with that call's error.
    pub(crate) fn cost_table(&self, trace: &[RequestSpec]) -> Result<CostTable<'_>, OptimusError> {
        let bucket = self.config.kv_bucket_tokens;
        self.estimator
            .decode_step_time(self.model, self.par, 1, bucket)?;
        self.estimator
            .prefill_time(self.model, self.par, 1, bucket)?;
        let (max_kv, max_prompt) = trace.iter().fold((0, 0), |(kv, prompt), r| {
            (kv.max(r.full_tokens() - 1), prompt.max(r.prompt_tokens))
        });
        let max_kv_idx = max_kv.div_ceil(u64::from(bucket)) as usize;
        let max_prompt_idx = max_prompt.div_ceil(bucket) as usize;
        let max_batch = self.config.max_batch.min(trace.len() as u32) as usize;
        let row_chunks = max_kv_idx.div_ceil(CHUNK);
        let chunks = |n: usize| (0..n).map(|_| OnceLock::new()).collect();
        Ok(CostTable {
            estimator: &self.estimator,
            model: self.model,
            par: self.par,
            bucket,
            max_kv_idx,
            max_prompt_idx,
            row_chunks,
            decode: chunks(max_batch * row_chunks),
            prefill: chunks(max_prompt_idx.div_ceil(CHUNK)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::FcfsPolicy;
    use llm_workload::model::ModelZoo;
    use scd_arch::Blade;

    fn simulator<'a>(
        estimator: &InferenceEstimator,
        model: &'a TransformerConfig,
        par: &'a Parallelism,
        bucket: u32,
    ) -> ServingSimulator<'a> {
        let config = ServingConfig {
            kv_bucket_tokens: bucket,
            ..ServingConfig::unconstrained(3)
        };
        let policy = Box::new(FcfsPolicy);
        ServingSimulator::from_parts(estimator.clone(), model, par, config, policy, None).unwrap()
    }

    /// Reads every cell of a fresh table from four concurrent readers,
    /// each in its own random order and at a random length inside the
    /// cell's bucket, and checks each read against the per-cell
    /// estimator call bit for bit. Both rows end in a partial chunk.
    #[test]
    fn lazy_cells_equal_per_cell_estimator_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let blade = Blade::baseline();
        let estimator = InferenceEstimator::new(blade.accelerator(), blade.interconnect());
        let model = ModelZoo::llama_70b();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = [
            RequestSpec::new(0, 0.0, 300, 40),
            RequestSpec::new(1, 0.1, 90, 200),
            RequestSpec::new(2, 0.2, 7, 3),
            RequestSpec::new(3, 0.3, 12, 9),
        ];
        for bucket in [1, 16] {
            let sim = simulator(&estimator, &model, &par, bucket);
            sim.check_trace(&trace).unwrap();
            let table = sim.cost_table(&trace).unwrap();
            assert_eq!(table.max_batch(), 3);
            assert_eq!(table.max_kv(), 339u32.div_ceil(bucket) * bucket);
            let prompt_cells = 300u32.div_ceil(bucket);
            assert_ne!(table.max_kv_idx % CHUNK, 0);
            assert_ne!(prompt_cells as usize % CHUNK, 0);
            assert!(table
                .decode
                .iter()
                .chain(&*table.prefill)
                .all(|c| c.get().is_none()));

            // (batch, bucket top, want); batch 0 is the prefill row.
            let mut cells = Vec::new();
            for idx in 1..=prompt_cells {
                let want = estimator.prefill_time(&model, &par, 1, idx * bucket);
                cells.push((0, idx * bucket, want.unwrap().to_bits()));
            }
            for batch in 1..=table.max_batch() {
                for kv in (bucket..=table.max_kv()).step_by(bucket as usize) {
                    let want = estimator.decode_step_time(&model, &par, batch, kv);
                    cells.push((batch, kv, want.unwrap().to_bits()));
                }
            }
            let read = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut order = cells.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                for (batch, top, want) in order {
                    let len = top - rng.gen_range(0..bucket);
                    let got = match batch {
                        0 => table.prefill_cost(len),
                        b => table.decode_cost(b, len),
                    };
                    assert_eq!(
                        got.to_bits(),
                        want,
                        "bucket {bucket} batch {batch} len {len}"
                    );
                }
            };
            rayon::join(
                || rayon::join(|| read(bucket.into()), || read(7)),
                || rayon::join(|| read(11), || read(13)),
            );
            assert!(table
                .decode
                .iter()
                .chain(&*table.prefill)
                .all(|c| c.get().is_some()));
        }
    }

    #[test]
    fn cost_table_fails_with_the_estimators_error() {
        let blade = Blade::baseline();
        let mut accel = blade.accelerator();
        accel.peak_flops = 0.0;
        let estimator = InferenceEstimator::new(accel, blade.interconnect());
        let model = ModelZoo::llama_70b();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = [RequestSpec::new(0, 0.0, 30, 4)];
        let want = estimator.decode_step_time(&model, &par, 1, 1).unwrap_err();
        let sim = simulator(&estimator, &model, &par, 1);
        assert_eq!(sim.cost_table(&trace).unwrap_err(), want);
    }
}
