//! Cluster-scale serving: route one trace across N identical SCD blades
//! (via [`scaling::MultiBladeSystem`](crate::scaling::MultiBladeSystem))
//! and replay every blade with the single-blade engine.
//!
//! Two dispatch models bracket real deployments:
//!
//! * **Per-blade queues** ([`DispatchMode::PerBlade`]): a front-end router
//!   assigns each request to a blade *at arrival* using only its routing
//!   state ([`RoutingPolicy`]); blades then replay independently (and in
//!   parallel on rayon workers).
//! * **Central dispatch** ([`DispatchMode::Central`]): one shared queue;
//!   a blade pulls work only when its continuous-batching loop actually
//!   has room, which is work-conserving but serializes the blades through
//!   the shared queue (replayed as one coupled event loop).
//!
//! The disaggregated prefill→decode topology runs the same coupled loop:
//! its decode pool is central dispatch's shared queue, fed by a tier of
//! prefill blades instead of by arrivals.
//!
//! The report carries the merged tail percentiles plus per-blade load and
//! the utilization skew that separates good routing from bad.

use super::control::{AutoscaleConfig, ScaleState};
use super::coord::{ResidencyModel, CACHE_AWARE_MAX_IMBALANCE};
use super::engine::{
    arrival_queue, finalize, BladeLedger, BladeState, EngineCtx, Outcome, SimCore,
};
use super::events::{
    leapfrog_decode, round_order, AdmissionQueue, Deque, Discipline, Exhaustive, Fcfs, Gates,
    KeyedQueue, Leapfrog, Pool, Resort, RoundKey, Tournament, NEVER,
};
use super::observer::{EventKind, NoopObserver, SimObserver};
use super::policy::OrderingContract;
use super::prefix::{PrefixBlock, PrefixCache};
use super::report::ServingReport;
use super::telemetry::profile;
use super::traces::RequestSpec;
use crate::error::OptimusError;
use rayon::prelude::*;
use scd_arch::Fabric;
use scd_tech::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// What work a blade of the cluster accepts: the role-typed topology
/// behind DistServe-style disaggregated serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BladeRole {
    /// Dedicated prefill blade: runs prompt passes only and streams the
    /// finished KV to the decode pool over the blade-to-blade fabric.
    Prefill,
    /// Dedicated decode blade: admits only handed-off (already-prefilled)
    /// sequences into its continuous batch.
    Decode,
    /// Serves both phases on one continuous-batching loop (the PR 3
    /// behavior, and the default).
    #[default]
    Mixed,
}

impl BladeRole {
    /// Whether decode work may run on this blade.
    #[must_use]
    pub fn can_decode(self) -> bool {
        matches!(self, Self::Decode | Self::Mixed)
    }
}

impl fmt::Display for BladeRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Prefill => "prefill",
            Self::Decode => "decode",
            Self::Mixed => "mixed",
        })
    }
}

/// Role assignment for every blade of a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    roles: Vec<BladeRole>,
}

impl Topology {
    /// `blades` interchangeable blades, each serving both phases.
    #[must_use]
    pub fn mixed(blades: u32) -> Self {
        Self {
            roles: vec![BladeRole::Mixed; blades as usize],
        }
    }

    /// A DistServe-style split: `prefill` dedicated prefill blades (the
    /// first indices) feeding `decode` dedicated decode blades.
    #[must_use]
    pub fn disaggregated(prefill: u32, decode: u32) -> Self {
        let mut roles = vec![BladeRole::Prefill; prefill as usize];
        roles.extend(vec![BladeRole::Decode; decode as usize]);
        Self { roles }
    }

    /// An explicit per-blade role list.
    #[must_use]
    pub fn from_roles(roles: Vec<BladeRole>) -> Self {
        Self { roles }
    }

    /// Per-blade roles, by blade index.
    #[must_use]
    pub fn roles(&self) -> &[BladeRole] {
        &self.roles
    }

    /// Blades in the topology.
    #[must_use]
    pub fn blades(&self) -> u32 {
        self.roles.len() as u32
    }

    /// Whether any blade is role-typed (anything other than
    /// [`BladeRole::Mixed`]), which routes the replay through the
    /// disaggregated prefill→decode event loop.
    #[must_use]
    pub fn is_disaggregated(&self) -> bool {
        self.roles.iter().any(|&r| r != BladeRole::Mixed)
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if self.roles.is_empty() {
            return Err(OptimusError::Serving {
                reason: "topology needs at least one blade".to_owned(),
            });
        }
        if self.is_disaggregated() {
            if !self.roles.contains(&BladeRole::Prefill) {
                return Err(OptimusError::Serving {
                    reason: "a role-typed topology needs at least one dedicated prefill blade \
                             to feed its decode pool"
                        .to_owned(),
                });
            }
            if !self.roles.iter().any(|r| r.can_decode()) {
                return Err(OptimusError::Serving {
                    reason: "a role-typed topology needs at least one decode-capable blade \
                             (Decode or Mixed)"
                        .to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// The blade-to-blade link a finished prefill's KV streams over in a
/// disaggregated topology: a bandwidth plus a fixed per-transfer latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoffLink {
    /// Link bandwidth (bytes/s).
    pub bytes_per_s: f64,
    /// Fixed per-transfer latency (s).
    pub latency_s: f64,
}

impl HandoffLink {
    /// A link of `bandwidth` with `latency_s` per-transfer latency.
    #[must_use]
    pub fn new(bandwidth: Bandwidth, latency_s: f64) -> Self {
        Self {
            bytes_per_s: bandwidth.bytes_per_s(),
            latency_s,
        }
    }

    /// Derives the link from a system fabric's slowest (blade-to-blade)
    /// tier: the one a group larger than every tier's bound falls to.
    #[must_use]
    pub fn from_fabric(fabric: &Fabric) -> Self {
        let tier = fabric.tier_for(usize::MAX);
        Self {
            bytes_per_s: tier.link_bandwidth.bytes_per_s(),
            latency_s: tier.per_hop_latency.seconds(),
        }
    }

    /// Time to stream `bytes` across the link (s).
    #[must_use]
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bytes_per_s
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if !(self.bytes_per_s.is_finite()
            && self.bytes_per_s > 0.0
            && self.latency_s.is_finite()
            && self.latency_s >= 0.0)
        {
            return Err(OptimusError::Serving {
                reason: format!(
                    "handoff link needs positive bandwidth and non-negative latency \
                     (got {} B/s, {} s)",
                    self.bytes_per_s, self.latency_s
                ),
            });
        }
        Ok(())
    }
}

/// How the front-end router picks a blade for an arriving request
/// (per-blade dispatch only; central dispatch has no routing decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// The `i`-th arrival (0-based, ties in trace order) goes to blade
    /// `i mod N` regardless of load.
    RoundRobin,
    /// Join-shortest-queue: the blade with the fewest requests still in
    /// flight (estimated via a deterministic fluid model of each blade's
    /// service rate).
    JoinShortestQueue,
    /// The blade with the least outstanding KV footprint (tokens of
    /// in-flight requests) — KV-aware load balancing.
    LeastLoadedKv,
    /// Prefix-affinity routing (SGLang-style): a tagged request goes to
    /// the blade whose modeled prefix residency matches the longest
    /// leading chain, so repeat prefixes land where their KV already
    /// lives. Untagged requests, cold prefixes, and replays without
    /// prefix caching fall back to [`Self::JoinShortestQueue`]
    /// bit-identically, and the [`CACHE_AWARE_MAX_IMBALANCE`] guard caps
    /// how far affinity may override load.
    CacheAware,
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::RoundRobin => "round-robin",
            Self::JoinShortestQueue => "join-shortest-queue",
            Self::LeastLoadedKv => "least-loaded-kv",
            Self::CacheAware => "cache-aware",
        })
    }
}

/// Queue topology of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchMode {
    /// Route at arrival into per-blade queues; blades replay independently.
    PerBlade,
    /// One shared queue; blades admit from it as capacity frees up.
    Central,
}

/// Cluster shape + routing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of identical blades.
    pub blades: u32,
    /// Arrival-time routing policy (ignored under central dispatch).
    pub routing: RoutingPolicy,
    /// Queue topology.
    pub dispatch: DispatchMode,
    /// Optional queue-depth autoscaler over the blade pool (central
    /// dispatch only; `blades` is the pool the scaler may grow into).
    /// `None` replays the classic fixed-count cluster bit-identically.
    #[serde(default)]
    pub autoscale: Option<AutoscaleConfig>,
}

/// The one cluster check, run at compile time and on every
/// [`run_each`](super::CompiledScenario::run_each) variant: at least one
/// blade, and an autoscaler only under central dispatch with bounds
/// inside the blade pool.
pub(crate) fn validate_cluster(cluster: &ClusterConfig) -> Result<(), OptimusError> {
    if cluster.blades == 0 {
        return Err(OptimusError::Serving {
            reason: "cluster needs at least one blade".to_owned(),
        });
    }
    if let Some(autoscale) = &cluster.autoscale {
        if cluster.dispatch != DispatchMode::Central {
            return Err(OptimusError::Serving {
                reason: "the autoscaler needs .dispatch(DispatchMode::Central): per-blade \
                         routing fixes each request's blade at arrival, so a changing blade \
                         count has nothing to act on"
                    .to_owned(),
            });
        }
        autoscale.validate(cluster.blades)?;
    }
    Ok(())
}

/// Per-blade load summary of a cluster replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BladeLoad {
    /// Blade index.
    pub blade: u32,
    /// The blade's role in the topology ([`BladeRole::Mixed`] for the
    /// classic interchangeable-blade cluster).
    pub role: BladeRole,
    /// Requests served on this blade: completed, or shed by its
    /// admission gate (0 for dedicated prefill blades, which hand every
    /// sequence off before its first token).
    pub requests: u32,
    /// Time the blade spent stepping (prefill + decode), s.
    pub busy_s: f64,
    /// `busy_s` over the cluster makespan.
    pub utilization: f64,
    /// Decode-time-weighted mean batch occupancy on this blade.
    pub mean_batch: f64,
    /// Preemptions on this blade.
    pub evictions: u32,
    /// Prefix-cache hits on this blade (0 with prefix caching off).
    pub prefix_hits: u64,
    /// Global-tier hits raced on this blade (0 without a global cache
    /// tier).
    #[serde(default)]
    pub remote_hits: u64,
    /// Peak capacity pinned by this blade's resident shared prefix
    /// blocks (bytes; 0 with prefix caching off).
    pub shared_kv_peak_bytes: f64,
}

/// Decode-stretch effectiveness counters, aggregated over every blade
/// of a cluster replay. Diagnostics for the event-driven fast-forward
/// paths: the per-step reference discipline plans no stretches, so its
/// reports carry zeros here (the equivalence suite asserts it), and
/// [`ClusterReport`]'s equality deliberately ignores this field (the
/// suite compares reports across disciplines).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StretchStats {
    /// Closed-form stretch segments planned and advanced (each covers
    /// one constant-cost run of skipped per-step rounds on one blade).
    pub stretches: u64,
    /// Decode iterations advanced inside stretch segments.
    pub stretched_iterations: u64,
    /// Decode iterations run as ordinary one-round steps.
    pub single_steps: u64,
}

impl StretchStats {
    /// Mean iterations per stretch segment (0 when none were planned).
    #[must_use]
    pub fn mean_stretch_len(&self) -> f64 {
        if self.stretches == 0 {
            0.0
        } else {
            self.stretched_iterations as f64 / self.stretches as f64
        }
    }
}

/// Outcome of a cluster replay: the merged single-system view plus the
/// per-blade breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Blades in the cluster.
    pub blades: u32,
    /// Merged metrics over the whole trace (percentiles across all
    /// requests, makespan from first arrival to last completion anywhere).
    pub report: ServingReport,
    /// Per-blade load.
    pub per_blade: Vec<BladeLoad>,
    /// Utilization spread: max − min per-blade utilization (0 = perfectly
    /// balanced).
    pub utilization_skew: f64,
    /// Prefix-residency spread: max − min per-blade
    /// [`BladeLoad::shared_kv_peak_bytes`] (0 with prefix caching off).
    /// Cache-aware routing deliberately *raises* this — it concentrates
    /// each hot prefix on one blade instead of replicating it — so it is
    /// reported rather than asserted small.
    #[serde(default)]
    pub cache_residency_skew: f64,
    /// Autoscaler blade-count changes during the replay (0 without an
    /// autoscaler; the flapping bound benches assert on).
    pub scale_events: u32,
    /// Highest active blade count reached (`blades` without an
    /// autoscaler).
    pub peak_blades: u32,
    /// Decode-stretch fast-forward diagnostics (all zero under the
    /// per-step core; excluded from equality so cross-core equivalence
    /// compares only simulated results).
    #[serde(default)]
    pub stretch: StretchStats,
}

/// Everything except [`Self::stretch`]: the stretch counters describe
/// how the event core got to the result, not the result itself, and
/// the cross-core equivalence suite asserts report equality.
impl PartialEq for ClusterReport {
    fn eq(&self, other: &Self) -> bool {
        self.blades == other.blades
            && self.report == other.report
            && self.per_blade == other.per_blade
            && self.utilization_skew == other.utilization_skew
            && self.cache_residency_skew == other.cache_residency_skew
            && self.scale_events == other.scale_events
            && self.peak_blades == other.peak_blades
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blades: {}; util skew {:.2}",
            self.blades, self.report, self.utilization_skew
        )
    }
}

/// Routes every request to a blade at its arrival instant, using a
/// deterministic fluid model of blade service: each blade holds the
/// estimated finish times of its in-flight requests; entries past the
/// current arrival are drained before the routing decision. Requests are
/// routed in `order`, the trace's arrival order, whatever order the trace
/// lists them in; round-robin deals by arrival rank. Returns each trace
/// index's blade.
fn route(
    ctx: &EngineCtx<'_>,
    cluster: ClusterConfig,
    trace: &[RequestSpec],
    order: &VecDeque<usize>,
) -> Vec<u32> {
    let _span = profile::span(profile::Phase::Routing);
    let blades = cluster.blades as usize;
    let (cfg, table) = (ctx.config, ctx.table);
    // Estimated service seconds for one request on an otherwise busy
    // blade: its prefill plus its share of full-batch decode steps.
    let batch = cfg.max_batch.min(table.max_batch()).max(1);
    let service_s = |r: &RequestSpec| -> f64 {
        let kv = (r.full_tokens() - 1).min(u64::from(table.max_kv())) as u32;
        table.prefill_cost(r.prompt_tokens)
            + f64::from(r.output_tokens) * table.decode_cost(batch, kv) / f64::from(batch)
    };
    // Per blade: (estimated finish time, KV-footprint tokens) of
    // in-flight requests, plus the latest finish time.
    let mut in_flight: Vec<VecDeque<(f64, u64)>> = vec![VecDeque::new(); blades];
    let mut last_finish = vec![0.0f64; blades];
    // Cache-aware routing models per-blade prefix residency at the
    // blade's own KV budget; without prefix caching the model is
    // absent and the policy degenerates to JSQ exactly.
    let mut residency = match (cluster.routing, cfg.prefix) {
        (RoutingPolicy::CacheAware, Some(pc)) => Some(ResidencyModel::new(
            blades,
            pc,
            (cfg.kv_capacity_bytes / ctx.kv_bytes_per_token) as u64,
        )),
        _ => None,
    };
    let mut assignment = vec![0; trace.len()];
    for (rank, &i) in order.iter().enumerate() {
        let r = &trace[i];
        for fl in &mut in_flight {
            while fl.front().is_some_and(|&(t, _)| t <= r.arrival_s) {
                fl.pop_front();
            }
        }
        let chain = residency.as_ref().and(ctx.chains.get(i));
        let jsq = |in_flight: &[VecDeque<(f64, u64)>]| first_min(blades, |b| in_flight[b].len());
        let blade = match cluster.routing {
            RoutingPolicy::RoundRobin => rank % blades,
            RoutingPolicy::JoinShortestQueue => jsq(&in_flight),
            RoutingPolicy::LeastLoadedKv => first_min(blades, |b| {
                in_flight[b].iter().map(|&(_, kv)| kv).sum::<u64>()
            }),
            RoutingPolicy::CacheAware => {
                let fallback = jsq(&in_flight);
                match (&residency, chain) {
                    (Some(model), Some(chain)) => model
                        .best_blade(chain)
                        .map(|(best, _)| best)
                        .filter(|&best| {
                            in_flight[best].len()
                                <= in_flight[fallback].len() + CACHE_AWARE_MAX_IMBALANCE
                        })
                        .unwrap_or(fallback),
                    _ => fallback,
                }
            }
        };
        if let (Some(model), Some(chain)) = (&mut residency, chain) {
            model.admit(blade, chain);
        }
        let start = last_finish[blade].max(r.arrival_s);
        let finish = start + service_s(r);
        last_finish[blade] = finish;
        in_flight[blade].push_back((finish, r.full_tokens()));
        assignment[i] = blade as u32;
    }
    assignment
}

/// The lowest index in `0..n` minimizing `key` (0 when `n` is 0).
fn first_min<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> usize {
    (0..n)
        .map(|b| (key(b), b))
        .reduce(|best, cur| if cur.0 < best.0 { cur } else { best })
        .map_or(0, |(_, b)| b)
}

/// Per-blade dispatch: route at arrival, then replay each blade's
/// sub-queue independently (concurrently when `parallel`; the blades
/// are decoupled, so serial and parallel replays are bit-identical,
/// and `obs` — only honored on the serial path, where blades run in
/// index order — never perturbs the result). Each blade runs its own
/// shedding gate over its own sub-queue (a per-blade front end sees
/// only its own strict-class completions); each request's outcome comes
/// from the blade it was routed to.
fn run_per_blade(
    ctx: &EngineCtx<'_>,
    cluster: ClusterConfig,
    trace: &[RequestSpec],
    parallel: bool,
    obs: &mut dyn SimObserver,
) -> (Vec<BladeState>, Vec<Outcome>) {
    let blades = cluster.blades as usize;
    let order = arrival_queue(trace);
    let assignment = route(ctx, cluster, trace, &order);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); blades];
    // Per trace index: its position in its blade's queue, which is its
    // slot in the blade's ledger.
    let mut slot = vec![0u32; trace.len()];
    for i in order {
        let queue = &mut queues[assignment[i] as usize];
        slot[i] = queue.len() as u32;
        queue.push_back(i);
    }
    // Each blade replays into a ledger of its own requests only, and
    // drops its cache once drained, so neither outlives the blade's run.
    let drive_one = |b: usize,
                     queue: VecDeque<usize>,
                     obs: &mut dyn SimObserver|
     -> (BladeState, Vec<Outcome>) {
        if queue.is_empty() {
            return (
                BladeState::new(b as u32, 0.0, ctx.config.prefix),
                Vec::new(),
            );
        }
        let mut ledger = BladeLedger {
            outcomes: vec![Outcome::default(); queue.len()],
            slot: &slot,
        };
        let mut state = ctx.drive_blade(b as u32, trace, queue, &mut ledger, obs);
        // Every sequence has left the blade: a leaked reference shows
        // here. `assemble` reads nothing else of the cache.
        debug_assert!(state
            .cache
            .as_ref()
            .is_none_or(PrefixCache::is_unreferenced));
        state.cache = None;
        (state, ledger.outcomes)
    };
    let indexed: Vec<(usize, VecDeque<usize>)> = queues.into_iter().enumerate().collect();
    let per_blade: Vec<(BladeState, Vec<Outcome>)> = if parallel {
        indexed
            .into_par_iter()
            .map(|(b, queue)| drive_one(b, queue, &mut NoopObserver))
            .collect()
    } else {
        indexed
            .into_iter()
            .map(|(b, queue)| drive_one(b, queue, obs))
            .collect()
    };
    let (states, ledgers): (Vec<BladeState>, Vec<Vec<Outcome>>) = per_blade.into_iter().unzip();
    let outcomes = (0..trace.len())
        .map(|i| ledgers[assignment[i] as usize][slot[i] as usize])
        .collect();
    (states, outcomes)
}

/// The coupled replay loop of central dispatch and of the disaggregated
/// topology: the decode-capable blades of `roles` share one `pool`, which
/// a prefill `tier` feeds when there is one. The earliest action runs
/// next: the tier's next prefill round or the pool's next round, prefill
/// first on clock ties, then the lower blade index. Under an autoscaler
/// (central dispatch only) only the active prefix of the blades competes,
/// and the scaler is evaluated at the end of every pool round. Returns
/// the blade states and the outcomes: the caller assembles the report
/// once the pool is dropped, so the pool's per-request bookkeeping is
/// freed before `finalize` allocates its percentile vectors.
///
/// Unlike single-blade replay, time is not one clock here, so a
/// preempted request must not restart on a blade whose clock trails
/// the eviction instant: the pool tracks each request's re-entry time
/// (arrival or handoff for fresh requests, the evicting iteration's end
/// for victims, plus the KV re-stream behind a tier), which gates
/// admission inside [`EngineCtx::step`], and the discipline keeps
/// not-yet-ready requests behind ready ones so head-of-line blocking
/// never wedges the loop. The reference discipline rescans the active
/// blades for every round's action. Every other one ends each pool round
/// with a [`leapfrog_pool`], which also finds the pool's next action: the
/// loop files the stepped blade, and the blade a scale event adds or
/// retires, in the [`FleetIndex`], so no round scans the pool. The tier's
/// next round gates the leapfrog's starts, and the scaler's round-end
/// evaluations its ends (see [`ScaleState::end_gate`]).
fn coupled_loop<D: Discipline>(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    roles: &[BladeRole],
    mut pool: Pool<D>,
    mut tier: impl Tier<D>,
    mut scale: Option<&mut ScaleState>,
    obs: &mut dyn SimObserver,
) -> (Vec<BladeState>, Vec<Outcome>) {
    let decoders: Vec<usize> = (0..roles.len())
        .filter(|&b| roles[b].can_decode())
        .collect();
    let active = |scale: Option<&ScaleState>| {
        let active = scale.map_or(decoders.len(), |s| s.active() as usize);
        decoders[..active].iter().copied()
    };
    let mut ctl = ctx.control_state();
    let mut outcomes = vec![Outcome::default(); trace.len()];
    let mut states: Vec<BladeState> = (0..roles.len())
        .map(|b| BladeState::new(b as u32, 0.0, ctx.config.prefix))
        .collect();
    let mut fleet = FleetIndex::new(&states, active(scale.as_deref()));
    // The pool's next action, once the previous round's leapfrog found it.
    let mut next: Option<RoundKey> = None;
    loop {
        let waiting = pool.waiting();
        // A leapfrog member's blade holds its skipped rounds only once
        // settled: the scan walks them aside.
        let clock = |b, s: &BladeState| fleet.lf.clock(b, s);
        let scan = || next_action(&states, active(scale.as_deref()), waiting, clock);
        let found = if D::EXHAUSTIVE {
            scan()
        } else {
            // The first round has no leapfrog answer (every blade is idle
            // then), nor does the last (none can act) or one after a
            // prefill round (its handoff can bring an idle blade's
            // admission forward).
            next.take().or_else(|| fleet.next_action(waiting))
        };
        debug_assert_eq!(found, scan(), "the pool's next action is stale");
        let Some(prefill_gate) = tier.round(found, &mut states, &mut pool, &mut outcomes, obs)
        else {
            continue;
        };
        // No blade can act once every prompt, the pool and every batch
        // are empty.
        let Some((at, b)) = found else {
            break;
        };
        let blade = &mut states[b];
        fleet.lf.settle(b, blade);
        if blade.running.is_empty() {
            blade.clock = blade.clock.max(at);
        }
        pool.prepare(blade.clock, trace, ctx.policy);
        ctx.step(
            trace,
            &mut pool,
            blade,
            &mut outcomes[..],
            ctl.as_mut(),
            obs,
        );
        let now = states[b].clock;
        pool.settle(|v| tier.reentry(now, v));
        let scaled = scale.as_deref_mut().is_some_and(|sc| {
            let depth = pool.scaler_depth(now);
            autoscale_round(sc, &mut states, b, now, depth, obs)
        });
        if !D::EXHAUSTIVE {
            fleet.stepped(b, &states[b]);
            if scaled {
                fleet.rescale(&states, active(scale.as_deref()).len());
            }
            let gate = LoopGate {
                start: prefill_gate,
                scale: scale.as_deref(),
            };
            next = leapfrog_pool(ctx, trace, &mut states, &mut fleet, gate, &mut pool, obs);
        }
    }
    debug_assert!(
        fleet.lf.settled(&states),
        "a leapfrog member holds uncommitted rounds"
    );
    (states, outcomes)
}

/// What feeds a coupled loop's pool (discipline `D`) besides its own
/// queue: a [`PrefillTier`], which only deque pools accept, or nothing
/// ([`NoTier`], the defaults) under central dispatch.
trait Tier<D> {
    /// Runs the tier's next round, handing the prefilled sequence to
    /// `pool`, if it starts no later than the pool's next action (prefill
    /// wins ties), and returns `None`. Otherwise returns that round's
    /// start, or +∞: the pool's round goes first, and its leapfrog's gate.
    fn round(
        &mut self,
        _pool_next: Option<RoundKey>,
        _states: &mut [BladeState],
        _pool: &mut Pool<D>,
        _outcomes: &mut [Outcome],
        _obs: &mut dyn SimObserver,
    ) -> Option<f64> {
        Some(f64::INFINITY)
    }

    /// The instant `trace[idx]`, preempted by a pool round ending at
    /// `now`, may re-enter the pool: once its KV is free (nor is the
    /// decision known elsewhere any earlier) and the tier re-streamed it.
    fn reentry(&self, now: f64, _idx: usize) -> f64 {
        now
    }
}

/// Central dispatch's feed: none.
struct NoTier;

impl<D> Tier<D> for NoTier {}

/// One end-of-round autoscaler evaluation of central dispatch's coupled
/// loop:
/// watermark check against the ready queue depth at stepped blade `b`'s
/// clock, scale-down gated on the top active blade being idle, and a
/// scale-up's fresh blade frozen until `now + warmup`. Returns whether a
/// scale event fired.
fn autoscale_round(
    scale: &mut ScaleState,
    states: &mut [BladeState],
    b: usize,
    now: f64,
    ready_depth: usize,
    obs: &mut dyn SimObserver,
) -> bool {
    let top = scale.active() as usize - 1;
    let top_idle = states[top].running.is_empty();
    let scaled = scale.evaluate(now, ready_depth, top_idle);
    if let Some((from, to)) = scaled {
        if to > from {
            let fresh = &mut states[to as usize - 1];
            fresh.clock = fresh.clock.max(now + scale.warmup_s());
        }
        let kind = EventKind::Scale {
            active_from: from,
            active_to: to,
        };
        obs.emit(states[b].id, now, kind);
    }
    scaled.is_some()
}

/// The instant blade `s`, whose clock is `clock`, could next act: its
/// clock while it holds running work, else — when `waiting` gives the
/// earliest ready time of its queue — the moment it could admit.
fn action_at(s: &BladeState, clock: f64, waiting: Option<f64>) -> Option<f64> {
    if s.running.is_empty() {
        waiting.map(|t| clock.max(t))
    } else {
        Some(clock)
    }
}

/// The blade among `blades` whose next action comes earliest, ties broken
/// by blade index; `clock(b, &states[b])` is blade `b`'s clock.
fn next_action(
    states: &[BladeState],
    blades: impl Iterator<Item = usize>,
    waiting: Option<f64>,
    clock: impl Fn(usize, &BladeState) -> f64,
) -> Option<RoundKey> {
    blades
        .filter_map(|b| {
            let s = &states[b];
            action_at(s, clock(b, s), waiting).map(|t| (t, b))
        })
        .min_by(round_order)
}

/// One blade pool of an event-core replay loop, indexed so that no round
/// scans it: its idle blades in a min [`Tournament`] over their
/// `(clock, blade)`, and its running blades as the members of its
/// [`Leapfrog`], which files their stops in a tournament of its own. The
/// loop files only the blade it just stepped ([`Self::stepped`]), and the
/// blade a scale event adds to or retires from an autoscaled pool
/// ([`Self::rescale`]). Running blades, and blades outside the pool, have
/// no idle leaf. The idle tree answers the pool's next idle admission in
/// O(log n), bit-identical to [`next_action`] over the idle blades, and
/// the last leapfrog's answer bounds the running blades' next rounds.
#[derive(Debug)]
struct FleetIndex {
    /// The pool's blades, ascending.
    pool: Vec<usize>,
    /// The idle blades of the pool, at their clocks.
    idle: Tournament,
    /// The pool's running blades, whose runs persist across leapfrogs.
    lf: Leapfrog,
}

impl FleetIndex {
    /// The index over the blades of `pool` among `states`.
    fn new(states: &[BladeState], pool: impl Iterator<Item = usize>) -> Self {
        let mut index = Self {
            pool: Vec::new(),
            idle: Tournament::new(states.len()),
            lf: Leapfrog::new(states.len()),
        };
        for b in pool {
            index.stepped(b, &states[b]);
            index.pool.push(b);
        }
        index
    }

    /// Files pool blade `b` after the loop stepped it: its idle leaf is
    /// its clock while it is idle, and it is a leapfrog member, to plan
    /// afresh, while it holds running work.
    fn stepped(&mut self, b: usize, s: &BladeState) {
        let leaf = if s.running.is_empty() {
            (s.clock, b)
        } else {
            NEVER
        };
        self.idle.file(b, leaf);
        self.lf.stepped(b, s);
    }

    /// Files a scale event of an autoscaled pool, whose blades are the
    /// first `active`: a scale-up adds the next blade, idle at its warm-up
    /// clock; a scale-down retires the last, which is idle (scale-down
    /// requires it) and so no leapfrog member.
    fn rescale(&mut self, states: &[BladeState], active: usize) {
        if active > self.pool.len() {
            let b = self.pool.len();
            self.pool.push(b);
            self.stepped(b, &states[b]);
        } else if let Some(b) = self.pool.pop() {
            debug_assert!(states[b].running.is_empty(), "a retired blade is idle");
            self.idle.file(b, NEVER);
        }
        debug_assert_eq!(self.pool.len(), active);
    }

    /// The `(clock, blade)`-minimal idle admission when `waiting` gives
    /// the queue's earliest ready time `t`: `t` and the leftmost idle
    /// blade whose clock is at most `t`, or else the earliest idle blade.
    fn idle_action(&self, waiting: Option<f64>) -> Option<RoundKey> {
        let t = waiting?;
        let (clock, b) = self.idle.min();
        if b == NEVER.1 {
            return None;
        }
        if clock > t {
            return Some((clock, b));
        }
        // Every idle blade whose clock is at most `t` admits at `t`, so
        // the lowest index wins.
        let (c, b) = self.idle.leftmost_until(t);
        Some((c.max(t), b))
    }

    /// The pool's next action when no blade was stepped since the last
    /// leapfrog: the earlier of its next idle admission and its running
    /// blades' earliest round.
    fn next_action(&self, waiting: Option<f64>) -> Option<RoundKey> {
        earlier(self.idle_action(waiting), self.lf.next())
    }
}

/// The decisions the loop around a blade pool takes between the pool's
/// rounds, which a [`leapfrog_pool`] over it must not skip.
#[derive(Debug, Clone, Copy)]
struct LoopGate<'a> {
    /// The loop's next round outside the pool (the prefill tier's), or
    /// +∞: a start gate for every member.
    start: f64,
    /// The autoscaler, when one is mounted, evaluated at every round's
    /// end: an end gate for every member.
    scale: Option<&'a ScaleState>,
}

/// Replays the pure-decode future of the pool's running blades — the
/// members of `fleet`'s leapfrog — in one [`leapfrog_decode`] call, and
/// returns the `(clock, blade)`-minimal next action among the pool's
/// blades afterwards: the earlier of the idle blades' next admission,
/// which `fleet` answers, and the leapfrog's cut. Neither takes a scan of
/// the pool: the caller files each blade it steps, and debug builds
/// check `fleet` against a fresh scan, whose member clocks are walked
/// aside.
///
/// Start gates: an idle blade's next admission instant (it could win
/// the blade race and mutate the queue) and `gate.start`. Per member,
/// the next queued ready time while a batch slot is open (an admission
/// round), and — batch full, when skipped partitions are observable — the
/// next ready-time transition, before which every skipped round takes
/// the same partition; the loop takes it once after the leapfrog. End
/// gate: `gate.scale` (see [`ScaleState::end_gate`]). Transitions
/// are measured from the minimal member clock, so they lower-bound every
/// member's own (a member already past one parks, conservatively). All
/// gates are frozen across the leapfrog: nothing is admitted, evicted or
/// scaled.
///
/// When every member's gate is the idle admission's instant and nothing
/// decides at round ends — central dispatch whose queue holds no ready
/// request — the call visits only the members that can act before that
/// admission, and leaves their skipped rounds owed. Reading the minimal
/// member clock, or the rounds full members ran, first writes every
/// member's owed rounds to its blade. The call writes them up to its
/// answer when full members' rounds are read again after it, and when a
/// prefill tier may run before the next pool round: that round's handoff
/// can bring the next action before the answer, which owed rounds must
/// not pass.
fn leapfrog_pool<D: Discipline>(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    fleet: &mut FleetIndex,
    gate: LoopGate<'_>,
    pool: &mut Pool<D>,
    obs: &mut dyn SimObserver,
) -> Option<RoundKey> {
    let waiting = pool.waiting();
    let idle_next = fleet.idle_action(waiting);
    let scan = || fleet.pool.iter().copied();
    debug_assert_eq!(
        idle_next,
        next_action(
            states,
            scan().filter(|&b| states[b].running.is_empty()),
            waiting,
            |b, s| fleet.lf.clock(b, s)
        ),
        "the idle index is stale"
    );
    debug_assert!(
        scan()
            .filter(|&b| !states[b].running.is_empty())
            .eq(fleet.lf.members()),
        "the leapfrog members are stale"
    );
    let lf = &mut fleet.lf;
    if lf.is_empty() {
        return idle_next;
    }
    let LoopGate { start, scale } = gate;
    let idle_gate = idle_next.map_or(start, |(t, _)| start.min(t));
    let max_batch = ctx.config.max_batch as usize;
    let observed_full =
        pool.partition_observable() && lf.members().any(|b| states[b].running.len() >= max_batch);
    // The minimal member clock, which transitions are measured from,
    // once the members' owed rounds are written.
    let x = (observed_full || scale.is_some())
        .then(|| lf.write_clocks(states))
        .flatten();
    let full_rounds = observed_full.then(|| lf.full_rounds(states, max_batch));
    let full_gate = match (observed_full, x) {
        (true, Some(x)) => pool.next_transition(x),
        _ => f64::INFINITY,
    };
    let gates = Gates {
        idle: idle_next,
        open: idle_gate.min(waiting.unwrap_or(f64::INFINITY)),
        full: idle_gate.min(full_gate),
        settle: observed_full || start < f64::INFINITY,
    };
    let next = match (scale, x) {
        (Some(sc), Some(x)) => {
            let top_idle = states[sc.active() as usize - 1].running.is_empty();
            let end_gate = sc.end_gate(pool.scaler_depth(x), top_idle, pool.next_transition(x));
            leapfrog_decode(ctx, trace, states, lf, gates, Some(end_gate), obs)
        }
        _ => leapfrog_decode(ctx, trace, states, lf, gates, None::<fn(f64) -> bool>, obs),
    };
    let skipped_full = full_rounds.is_some_and(|r| lf.full_rounds(states, max_batch) != r);
    if let Some(x) = x.filter(|_| skipped_full && next.is_none_or(|(c, _)| c >= full_gate)) {
        // Each round a full member skipped partitioned the queue at a
        // clock before the next ready-time transition after `x`, just as
        // one at `x` would. The per-step loop took that partition before
        // the next real round. A real round before the transition takes
        // the same one itself, but this one may start past it. Take it
        // once, in a round that admits (and evicts) nothing.
        pool.prepare(x, trace, ctx.policy);
        pool.settle(|_| x);
    }
    next
}

/// The earlier of two optional rounds in [`round_order`].
fn earlier(a: Option<RoundKey>, b: Option<RoundKey>) -> Option<RoundKey> {
    a.into_iter().chain(b).min_by(round_order)
}

/// Scores the outcomes and merges per-blade states into the cluster
/// report (shared by the classic loops and the disaggregated one).
fn assemble(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &[BladeState],
    outcomes: &[Outcome],
    roles: &[BladeRole],
    scale: Option<&ScaleState>,
) -> ClusterReport {
    // Every sequence has left its blade: a leaked reference shows here.
    let mut caches = states.iter().filter_map(|s| s.cache.as_ref());
    debug_assert!(caches.all(PrefixCache::is_unreferenced));
    let report = finalize(ctx.classes, ctx.kv_bytes_per_token, trace, outcomes, states);
    let per_blade: Vec<BladeLoad> = states
        .iter()
        .enumerate()
        .map(|(b, s)| BladeLoad {
            blade: b as u32,
            role: roles[b],
            requests: s.served,
            busy_s: s.busy_s,
            utilization: s.busy_s / report.makespan_s,
            mean_batch: if s.decode_time_s > 0.0 {
                s.batch_time_weighted / s.decode_time_s
            } else {
                0.0
            },
            evictions: s.evictions,
            prefix_hits: s.prefix_hits,
            remote_hits: s.remote_hits,
            shared_kv_peak_bytes: s.shared_peak_tokens as f64 * ctx.kv_bytes_per_token,
        })
        .collect();
    let max_util = per_blade.iter().map(|b| b.utilization).fold(0.0, f64::max);
    let min_util = per_blade
        .iter()
        .map(|b| b.utilization)
        .fold(f64::MAX, f64::min);
    let max_res = per_blade
        .iter()
        .map(|b| b.shared_kv_peak_bytes)
        .fold(0.0, f64::max);
    let min_res = per_blade
        .iter()
        .map(|b| b.shared_kv_peak_bytes)
        .fold(f64::MAX, f64::min);
    let stretches: u64 = states.iter().map(|s| s.stretches).sum();
    let stretched_iterations: u64 = states.iter().map(|s| s.stretched_iterations).sum();
    let decode_iterations: u64 = states.iter().map(|s| s.decode_iterations).sum();
    ClusterReport {
        blades: states.len() as u32,
        report,
        per_blade,
        utilization_skew: max_util - min_util,
        cache_residency_skew: max_res - min_res,
        scale_events: scale.map_or(0, ScaleState::events),
        peak_blades: scale.map_or(states.len() as u32, ScaleState::peak_active),
        stretch: StretchStats {
            stretches,
            stretched_iterations,
            single_steps: decode_iterations - stretched_iterations,
        },
    }
}

/// The mixed-cluster replay: `cluster.blades` interchangeable blades
/// behind per-blade queues or one central queue (see the module doc).
/// `parallel` replays per-blade queues concurrently on rayon workers,
/// bit-identically to the serial blade order, which alone feeds `obs`.
pub(crate) fn run_mixed(
    ctx: &EngineCtx<'_>,
    cluster: ClusterConfig,
    trace: &[RequestSpec],
    parallel: bool,
    obs: &mut dyn SimObserver,
) -> ClusterReport {
    let roles = vec![BladeRole::Mixed; cluster.blades as usize];
    let mut scale = cluster.autoscale.map(ScaleState::new);
    let (states, outcomes) = match cluster.dispatch {
        DispatchMode::PerBlade => run_per_blade(ctx, cluster, trace, parallel, obs),
        DispatchMode::Central => run_coupled(ctx, trace, &roles, None, scale.as_mut(), obs),
    };
    assemble(ctx, trace, &states, &outcomes, &roles, scale.as_ref())
}

/// The disaggregated (DistServe-style) replay: dedicated prefill blades
/// run whole-prompt passes batch-1 in policy order, stream each finished
/// prefill's KV to the decode pool over `link`, and the decode-capable
/// blades pull handed-off sequences from one shared work-conserving pool
/// (central-dispatch semantics). An evicted sequence keeps its prefilled
/// status — its KV is re-streamed from the prefill tier (paying `link`
/// again) instead of being recomputed.
pub(crate) fn run_disaggregated(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    roles: &[BladeRole],
    link: &HandoffLink,
    obs: &mut dyn SimObserver,
) -> ClusterReport {
    let (states, outcomes) = run_coupled(ctx, trace, roles, Some(link), None, obs);
    assemble(ctx, trace, &states, &outcomes, roles, None)
}

/// Replays a coupled topology — central dispatch, or a prefill tier
/// feeding the decode pool over `link` — on the queue discipline that the
/// configured [`SimCore`] and the policy's [`OrderingContract`] pick: the
/// per-step reference, or the FCFS, keyed or re-sorting event
/// disciplines. Handoff ready times follow no arrival order, so static-key
/// and trace-rank policies re-sort behind a prefill tier.
fn run_coupled(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    roles: &[BladeRole],
    link: Option<&HandoffLink>,
    scale: Option<&mut ScaleState>,
    obs: &mut dyn SimObserver,
) -> (Vec<BladeState>, Vec<Outcome>) {
    match (ctx.config.core, ctx.policy.ordering()) {
        (SimCore::PerStep, _) => on_deque(ctx, trace, roles, link, scale, obs, Exhaustive::new),
        (SimCore::EventDriven, OrderingContract::Fcfs) => {
            on_deque(ctx, trace, roles, link, scale, obs, Fcfs::new)
        }
        (SimCore::EventDriven, OrderingContract::StaticKey | OrderingContract::TraceRank)
            if link.is_none() =>
        {
            let keyed = |q| KeyedQueue::new(ctx.policy, trace, q);
            let pool = Pool::central(trace, arrival_queue(trace), keyed);
            coupled_loop(ctx, trace, roles, pool, NoTier, scale, obs)
        }
        (SimCore::EventDriven, _) => on_deque(ctx, trace, roles, link, scale, obs, Resort::new),
    }
}

/// [`run_coupled`] on a [`Deque`] discipline built by `new` for the
/// central queue, or for both the prompt queue of the prefill tier behind
/// `link` and the decode pool it feeds.
fn on_deque<const E: bool, const R: bool>(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    roles: &[BladeRole],
    link: Option<&HandoffLink>,
    scale: Option<&mut ScaleState>,
    obs: &mut dyn SimObserver,
    new: fn(VecDeque<usize>) -> Deque<E, R>,
) -> (Vec<BladeState>, Vec<Outcome>) {
    let order = arrival_queue(trace);
    let Some(link) = link else {
        let pool = Pool::central(trace, order, new);
        return coupled_loop(ctx, trace, roles, pool, NoTier, scale, obs);
    };
    let tier = PrefillTier {
        ctx,
        trace,
        link,
        blades: (0..roles.len())
            .filter(|&b| roles[b] == BladeRole::Prefill)
            .collect(),
        prompts: new(order),
    };
    let pool = Pool::handoff(trace, new(VecDeque::new()));
    coupled_loop(ctx, trace, roles, pool, tier, scale, obs)
}

/// The prefill tier of a disaggregated replay: its blades take the
/// queued prompts in policy order, one whole-prompt pass each, and
/// stream each finished prefill's KV over `link` into the decode pool.
struct PrefillTier<'a, const E: bool, const R: bool> {
    ctx: &'a EngineCtx<'a>,
    trace: &'a [RequestSpec],
    link: &'a HandoffLink,
    /// The prefill blades, ascending.
    blades: Vec<usize>,
    /// The prompts not yet prefilled.
    prompts: Deque<E, R>,
}

impl<const E: bool, const R: bool> PrefillTier<'_, E, R> {
    /// The time to stream `trace[idx]`'s prompt KV into the decode pool.
    fn stream_s(&self, idx: usize) -> f64 {
        let bytes = f64::from(self.trace[idx].prompt_tokens) * self.ctx.kv_bytes_per_token;
        self.link.transfer_s(bytes)
    }
}

impl<const E: bool, const R: bool> Tier<Deque<E, R>> for PrefillTier<'_, E, R> {
    fn round(
        &mut self,
        pool_next: Option<RoundKey>,
        states: &mut [BladeState],
        pool: &mut Pool<Deque<E, R>>,
        outcomes: &mut [Outcome],
        obs: &mut dyn SimObserver,
    ) -> Option<f64> {
        let (ctx, trace) = (self.ctx, self.trace);
        let arrival = self.prompts.next_arrival(trace);
        let next = next_action(states, self.blades.iter().copied(), arrival, |_, s| s.clock);
        let Some((at, b)) = next.filter(|&(t, _)| pool_next.is_none_or(|(pt, _)| t <= pt)) else {
            return Some(next.map_or(f64::INFINITY, |(t, _)| t));
        };
        let blade = &mut states[b];
        blade.clock = blade.clock.max(at);
        self.prompts.prepare(blade.clock, trace, ctx.policy);
        let Some(idx) = self.prompts.peek() else {
            debug_assert!(false, "a prefill round implies a queued prompt");
            return None;
        };
        self.prompts.pop();
        prefill_round(ctx, trace, idx, blade, &mut outcomes[idx], obs);
        let transfer = self.stream_s(idx);
        let kind = EventKind::Handoff {
            request: trace[idx],
            transfer_s: transfer,
        };
        obs.emit(blade.id, blade.clock, kind);
        pool.push(idx, blade.clock + transfer);
        None
    }

    fn reentry(&self, now: f64, idx: usize) -> f64 {
        now + self.stream_s(idx)
    }
}

/// One prefill-tier round on `blade` for `trace[idx]`: a whole-prompt
/// pass, batch-1, starting at the later of the blade clock and the
/// arrival. A prefix cached on this blade skips its compute, and the
/// global tier may stream more of it in (see
/// [`EngineCtx::race_global_tier`]). The blade retains no sequence KV
/// (everything streams to the decode pool), so its prefix cache is its
/// only occupancy and is bounded by the blade's KV budget; references are
/// dropped as soon as the handoff is priced.
fn prefill_round(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    idx: usize,
    blade: &mut BladeState,
    outcome: &mut Outcome,
    obs: &mut dyn SimObserver,
) {
    let r = &trace[idx];
    let start = blade.clock.max(r.arrival_s);
    let mut skip = 0u32;
    if let (Some(prefix), Some(chain), Some(cache)) =
        (r.prefix, ctx.chains.get(idx), blade.cache.as_mut())
    {
        let block_tokens = cache.config().block_tokens;
        let hits = cache.touch(chain);
        skip = chain[..hits].iter().map(PrefixBlock::tokens).sum();
        obs.emit(blade.id, start, EventKind::prefix_lookup(*r, skip));
        let budget = (ctx.config.kv_capacity_bytes / ctx.kv_bytes_per_token) as u64;
        let evicted = cache.evict_to_budget(budget);
        blade.cache_evictions += evicted;
        for _ in 0..evicted {
            obs.emit(blade.id, start, EventKind::CacheEvict { block_tokens });
        }
        // The cache is the prefill blade's whole KV occupancy: fold it
        // into the blade's peak (and its partial tail blocks into
        // fragmentation) so shared ≤ total holds.
        let charged = cache.charged_tokens();
        let fragmentation = charged - cache.resident_tokens();
        blade.shared_peak_tokens = blade.shared_peak_tokens.max(charged);
        blade.kv_peak_tokens = blade.kv_peak_tokens.max(charged);
        blade.frag_peak_tokens = blade.frag_peak_tokens.max(fragmentation);
        blade.record_prefix_admission(prefix, block_tokens, hits == chain.len(), skip);
        outcome.prefix_saved_tokens += u64::from(skip);
    }
    let mut tier_transfer_s = 0.0;
    if r.prefix.is_some() {
        if let Some((transfer, covered)) = ctx.race_global_tier(trace, idx, skip, start, blade, obs)
        {
            outcome.prefix_saved_tokens += u64::from(covered - skip);
            tier_transfer_s = transfer;
            skip = covered;
        }
    }
    let cost = tier_transfer_s
        + if r.prompt_tokens > skip {
            ctx.table.prefill_cost(r.prompt_tokens - skip)
        } else {
            0.0
        };
    blade.clock = start + cost;
    blade.busy_s += cost;
    blade.max_step_s = blade.max_step_s.max(cost);
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceEstimator;
    use crate::scaling::MultiBladeSystem;
    use crate::serving::engine::RunningSeq;
    use crate::serving::{ControlPlane, Scenario, TraceConfig};
    use llm_workload::model::{ModelZoo, TransformerConfig};
    use llm_workload::parallelism::Parallelism;

    fn cluster_parts() -> (InferenceEstimator, TransformerConfig, Parallelism) {
        let system = MultiBladeSystem::new(4).unwrap();
        (
            system.inference_estimator(),
            ModelZoo::llama2_7b(),
            Parallelism::new(1, 1, 1).unwrap(),
        )
    }

    /// `blades` FCFS blades of 4 decode slots each, unconstrained KV.
    fn mk_cluster<'a>(
        est: &InferenceEstimator,
        model: &'a TransformerConfig,
        par: &'a Parallelism,
        blades: u32,
        routing: RoutingPolicy,
        dispatch: DispatchMode,
    ) -> Scenario<'a> {
        Scenario::on_estimator(est.clone())
            .model(model)
            .parallelism(par)
            .max_batch(4)
            .unconstrained_kv()
            .topology(Topology::mixed(blades))
            .routing(routing)
            .dispatch(dispatch)
    }

    fn test_trace() -> Vec<RequestSpec> {
        TraceConfig {
            seed: 17,
            requests: 32,
            arrival_rate_per_s: 300.0,
            prompt_tokens: (16, 128),
            output_tokens: (4, 32),
        }
        .synthesize()
        .unwrap()
    }

    #[test]
    fn zero_blades_rejected() {
        let (est, model, par) = cluster_parts();
        let zero = mk_cluster(
            &est,
            &model,
            &par,
            0,
            RoutingPolicy::RoundRobin,
            DispatchMode::PerBlade,
        )
        .requests(test_trace())
        .compile();
        assert!(matches!(zero, Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn autoscale_config_is_validated_at_construction() {
        let (est, model, par) = cluster_parts();
        let mk = |dispatch, autoscale| {
            mk_cluster(&est, &model, &par, 4, RoutingPolicy::RoundRobin, dispatch)
                .control(ControlPlane::new().autoscale(autoscale))
                .requests(test_trace())
                .compile()
        };
        // Per-blade routing has no shared queue for the scaler to watch.
        assert!(matches!(
            mk(DispatchMode::PerBlade, AutoscaleConfig::new(1, 4)),
            Err(OptimusError::Serving { .. })
        ));
        // Degenerate dials are rejected through the same check.
        assert!(matches!(
            mk(DispatchMode::Central, AutoscaleConfig::new(1, 8)),
            Err(OptimusError::Serving { .. })
        ));
        assert!(mk(DispatchMode::Central, AutoscaleConfig::new(1, 4)).is_ok());
    }

    #[test]
    fn autoscaler_tracks_backlog_and_is_inert_when_absent() {
        // A backlogged burst on a 1..=4 autoscaled central cluster must
        // scale up (deep shared queue), complete everything, and report
        // the same request outcomes invariants as the fixed cluster;
        // both cores agree bit-for-bit.
        let (est, model, par) = cluster_parts();
        let trace = TraceConfig::burst(24, 64, 16).synthesize().unwrap();
        let mk = |core: SimCore, autoscale: Option<AutoscaleConfig>| {
            let scenario = mk_cluster(
                &est,
                &model,
                &par,
                4,
                RoutingPolicy::RoundRobin,
                DispatchMode::Central,
            )
            .core(core)
            .requests(trace.clone());
            match autoscale {
                Some(a) => scenario.control(ControlPlane::new().autoscale(a)),
                None => scenario,
            }
            .compile()
            .unwrap()
            .run()
            .unwrap()
        };
        let scaler = AutoscaleConfig::new(1, 4)
            .with_watermarks(0, 4)
            .with_warmup(0.05)
            .with_cooldown(0.02);
        let scaled = mk(SimCore::PerStep, Some(scaler));
        assert_eq!(scaled.report.completed, 24);
        assert!(
            scaled.scale_events > 0,
            "burst backlog must trigger scaling"
        );
        assert!(scaled.peak_blades > 1 && scaled.peak_blades <= 4);
        let scaled_event = mk(SimCore::EventDriven, Some(scaler));
        assert_eq!(scaled, scaled_event, "cores must agree under autoscaling");
        // Without an autoscaler the report pins the fixed-pool shape.
        let fixed = mk(SimCore::PerStep, None);
        assert_eq!(fixed.scale_events, 0);
        assert_eq!(fixed.peak_blades, 4);
        // A warm pool the whole time can only help the makespan.
        assert!(fixed.report.makespan_s <= scaled.report.makespan_s + 1e-9);
    }

    #[test]
    fn one_blade_round_robin_matches_single_engine() {
        // On one blade, per-blade and central dispatch are the same
        // single-blade engine: the merged reports must match exactly.
        let (est, model, par) = cluster_parts();
        let run = |dispatch| {
            mk_cluster(&est, &model, &par, 1, RoutingPolicy::RoundRobin, dispatch)
                .requests(test_trace())
                .compile()
                .unwrap()
                .run()
                .unwrap()
        };
        let per_blade = run(DispatchMode::PerBlade);
        let central = run(DispatchMode::Central);
        assert_eq!(central.report, per_blade.report);
        for cluster in [per_blade, central] {
            assert_eq!(cluster.per_blade.len(), 1);
            assert_eq!(cluster.per_blade[0].requests, 32);
        }
    }

    #[test]
    fn more_blades_cut_tails_and_makespan() {
        let (est, model, par) = cluster_parts();
        let run = |blades| {
            mk_cluster(
                &est,
                &model,
                &par,
                blades,
                RoutingPolicy::JoinShortestQueue,
                DispatchMode::PerBlade,
            )
            .requests(test_trace())
            .compile()
            .unwrap()
            .run()
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(four.report.completed, 32);
        assert!(four.report.makespan_s <= one.report.makespan_s + 1e-12);
        assert!(four.report.ttft.p99 <= one.report.ttft.p99 + 1e-12);
        assert!(four.per_blade.iter().map(|b| b.requests).sum::<u32>() == 32);
    }

    #[test]
    fn routing_policies_spread_load() {
        let (est, model, par) = cluster_parts();
        for routing in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::LeastLoadedKv,
            RoutingPolicy::CacheAware,
        ] {
            let r = mk_cluster(&est, &model, &par, 4, routing, DispatchMode::PerBlade)
                .requests(test_trace())
                .compile()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(r.report.completed, 32, "{routing}");
            assert_eq!(r.per_blade.iter().map(|b| b.requests).sum::<u32>(), 32);
            assert!(
                r.per_blade.iter().all(|b| b.requests > 0),
                "{routing} starved a blade: {:?}",
                r.per_blade
            );
            assert!(r.utilization_skew >= 0.0 && r.utilization_skew <= 1.0);
            assert!(r.to_string().contains("blades"));
        }
    }

    #[test]
    fn cache_aware_routing_beats_jsq_on_repeat_prefixes() {
        // Two hot prefixes across 4 blades: JSQ spreads arrivals by load
        // and re-misses each prefix on every blade it lands on, while
        // cache-aware routing pins each prefix to the blade that already
        // holds it. Same trace, same aggregate KV — strictly better hit
        // rate, and the deliberate concentration shows up as residency
        // skew.
        let (est, model, par) = cluster_parts();
        let trace: Vec<RequestSpec> = test_trace()
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_prefix(1 + (i as u64 % 2), 16))
            .collect();
        let mk = |routing| {
            mk_cluster(&est, &model, &par, 4, routing, DispatchMode::PerBlade)
                .prefix_caching(16)
                .requests(trace.clone())
                .compile()
                .unwrap()
        };
        let aware = mk(RoutingPolicy::CacheAware).run().unwrap();
        let jsq = mk(RoutingPolicy::JoinShortestQueue).run().unwrap();
        assert_eq!(aware.report.completed, 32);
        assert!(
            aware.report.prefix_hit_rate() > jsq.report.prefix_hit_rate(),
            "affinity must beat cache-blind JSQ: {} vs {}",
            aware.report.prefix_hit_rate(),
            jsq.report.prefix_hit_rate()
        );
        assert!(aware.cache_residency_skew >= 0.0);
        // Serial and parallel replays agree bit-for-bit for the new policy.
        assert_eq!(aware, mk(RoutingPolicy::CacheAware).run_serial().unwrap());
    }

    #[test]
    fn central_dispatch_respects_eviction_causality_under_pressure() {
        // Tight KV capacity so preemptions happen under central dispatch:
        // an evicted request must not restart on another blade before the
        // iteration that evicted it finished, so its completion can never
        // precede the makespan implied by its recompute. Observable
        // invariants: the replay drains, evicts, and serial == parallel
        // (the ready-time bookkeeping is deterministic).
        use llm_workload::kvcache::{KvCache, KvConvention};
        let (est, model, par) = cluster_parts();
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let trace = TraceConfig {
            seed: 13,
            requests: 18,
            arrival_rate_per_s: 500.0,
            prompt_tokens: (90, 96),
            output_tokens: (24, 32),
        }
        .synthesize()
        .unwrap();
        let compiled = mk_cluster(
            &est,
            &model,
            &par,
            2,
            RoutingPolicy::RoundRobin,
            DispatchMode::Central,
        )
        .max_batch(6)
        .kv_capacity_bytes(per_token * f64::from(96 + 32) * 1.5)
        .requests(trace)
        .compile()
        .unwrap();
        let r = compiled.run().unwrap();
        assert_eq!(r.report.completed, 18);
        assert!(r.report.evictions > 0, "capacity this tight must preempt");
        assert_eq!(r, compiled.run_serial().unwrap());
    }

    /// Blades whose clocks are `clocks`: `None` is a running blade.
    fn blades_at(clocks: &[Option<f64>]) -> Vec<BladeState> {
        clocks
            .iter()
            .enumerate()
            .map(|(b, &clock)| {
                let mut s = BladeState::new(b as u32, clock.unwrap_or(0.5), None);
                if clock.is_none() {
                    s.running.push(RunningSeq::admitted(b, 8));
                }
                s
            })
            .collect()
    }

    /// Checks `index`'s idle answer against `next_action` folded over the
    /// pool's idle blades, at every idle clock, between them, and beyond.
    fn assert_index_matches_scan(states: &[BladeState], pool: &[usize], index: &FleetIndex) {
        let idle = || {
            pool.iter()
                .copied()
                .filter(|&b| states[b].running.is_empty())
        };
        let mut waits = vec![None, Some(0.0), Some(f64::INFINITY)];
        for b in idle() {
            let c = states[b].clock;
            waits.extend([Some(c), Some(c - 0.25), Some(c + 0.25)]);
        }
        for waiting in waits {
            assert_eq!(
                index.idle_action(waiting),
                next_action(states, idle(), waiting, |_, s| s.clock),
                "pool {pool:?}, waiting {waiting:?}"
            );
        }
    }

    #[test]
    fn fleet_index_answers_like_a_scan_of_the_idle_blades() {
        // Each case's idle answers at `probe`, beside the scan comparison.
        let check = |clocks: &[Option<f64>], pool: &[usize], probe: f64| {
            let states = blades_at(clocks);
            let index = FleetIndex::new(&states, pool.iter().copied());
            assert_index_matches_scan(&states, pool, &index);
            index.idle_action(Some(probe))
        };
        let idle = Some;
        // A 5-blade pool: blade 3's clock equals `t`, and blades 1 and 4
        // tie below it, so the lowest index admits at `t`.
        let five = [idle(3.0), idle(1.0), None, idle(2.0), idle(1.0)];
        assert_eq!(check(&five, &[0, 1, 2, 3, 4], 2.0), Some((2.0, 1)));
        // Every idle clock above `t`: the earliest idle blade.
        assert_eq!(
            check(&[None, idle(4.0), idle(6.0)], &[0, 1, 2], 1.0),
            Some((4.0, 1))
        );
        // No idle blade.
        assert_eq!(check(&[None; 4], &[0, 1, 2, 3], 1.0), None);
        // An idle clock of +inf trails every finite one, and admits only
        // at a +inf `t`.
        let inf = f64::INFINITY;
        assert_eq!(
            check(&[idle(inf), None, idle(5.0)], &[0, 1, 2], 1.0),
            Some((5.0, 2))
        );
        assert_eq!(check(&[None, idle(inf)], &[0, 1], 1.0), Some((inf, 1)));
        assert_eq!(
            check(&[idle(inf), None, idle(5.0)], &[0, 1, 2], inf),
            Some((inf, 0))
        );
        // A sub-pool, like the disaggregated decoders: idle blades outside
        // it never answer.
        let mixed = [idle(0.0), idle(0.0), idle(2.0), None, idle(0.0), idle(1.0)];
        assert_eq!(check(&mixed, &[2, 3, 5], 1.5), Some((1.5, 5)));
    }

    #[test]
    fn fleet_index_follows_the_stepped_blades() {
        // A pseudo-random walk of steps over a 7-blade pool (and a 3-blade
        // sub-pool of it): each step sets one blade's clock and whether it
        // runs, then files it.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for pool in [(0..7).collect::<Vec<usize>>(), vec![1, 4, 6]] {
            let mut states = blades_at(&[Some(0.0); 7]);
            let mut index = FleetIndex::new(&states, pool.iter().copied());
            for _ in 0..300 {
                let b = pool[next(pool.len() as u64) as usize];
                let s = &mut states[b];
                s.clock = next(8) as f64 * 0.5;
                s.running.clear();
                if next(3) == 0 {
                    s.running.push(RunningSeq::admitted(b, 8));
                }
                index.stepped(b, &states[b]);
                assert_index_matches_scan(&states, &pool, &index);
            }
        }
    }

    #[test]
    fn central_dispatch_is_work_conserving() {
        // Central dispatch never leaves a blade idle while requests wait,
        // so its makespan cannot exceed blind round-robin by much; on a
        // backlogged burst it must complete everything too.
        let (est, model, par) = cluster_parts();
        let trace = TraceConfig::burst(24, 64, 16).synthesize().unwrap();
        let run = |dispatch| {
            mk_cluster(&est, &model, &par, 3, RoutingPolicy::RoundRobin, dispatch)
                .requests(trace.clone())
                .compile()
                .unwrap()
                .run()
                .unwrap()
        };
        let central = run(DispatchMode::Central);
        assert_eq!(central.report.completed, 24);
        let rr = run(DispatchMode::PerBlade);
        assert!(central.report.makespan_s <= rr.report.makespan_s * 1.01);
    }
}
