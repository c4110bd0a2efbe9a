//! The scenario builder: the one way to run the serving simulator.
//!
//! [`Scenario`] is a fluent builder: anchor it on a system (or a bare
//! estimator for GPU baselines), describe the workload, policy, KV
//! layout, SLO classes and blade topology, and [`Scenario::compile`] it.
//! Compiling runs every validation rule once and builds the engine once:
//! the policy is bound to the SLO-class table and the trace is checked
//! against the KV capacity. The resulting [`CompiledScenario`] is
//! immutable; each run borrows its engine and replays either the
//! mixed-cluster loop (per-blade or central dispatch; a single blade is a
//! 1-blade cluster, bit-for-bit) or the disaggregated prefill→decode
//! loop, always returning a [`ClusterReport`].
//!
//! ```
//! use llm_workload::{ModelZoo, Parallelism};
//! use optimus::serving::Scenario;
//! use optimus::MultiBladeSystem;
//!
//! # fn main() -> Result<(), optimus::OptimusError> {
//! let system = MultiBladeSystem::new(1)?;
//! let model = ModelZoo::llama2_7b();
//! let par = Parallelism::new(1, 1, 1)?;
//! let report = Scenario::new(&system)
//!     .model(&model)
//!     .parallelism(&par)
//!     .max_batch(4)
//!     .unconstrained_kv()
//!     .poisson(optimus::serving::TraceConfig {
//!         seed: 7,
//!         requests: 8,
//!         arrival_rate_per_s: 50.0,
//!         prompt_tokens: (32, 64),
//!         output_tokens: (8, 16),
//!     })
//!     .compile()?
//!     .run()?;
//! assert_eq!(report.report.completed, 8);
//! # Ok(())
//! # }
//! ```

use super::cluster::{
    run_disaggregated, run_mixed, validate_cluster, ClusterConfig, ClusterReport, DispatchMode,
    HandoffLink, RoutingPolicy, Topology,
};
use super::control::ControlPlane;
use super::coord::{plan_global_tier, CoordPlan, GlobalCacheConfig};
use super::engine::{DecodePricing, ServingConfig, ServingSimulator, SimCore};
use super::kv::KvLayout;
use super::observer::{Interest, NoopObserver, SimEvent, SimObserver};
use super::policy::{FcfsPolicy, SchedulerPolicy};
use super::prefix::{CacheEviction, ChainTable, PrefixCachingConfig};
use super::report::{FrontierPoint, SloClass};
use super::telemetry::{Telemetry, TelemetryConfig};
use super::traces::{RequestSpec, TraceConfig, TraceSource};
use crate::error::OptimusError;
use crate::inference::InferenceEstimator;
use crate::scaling::MultiBladeSystem;
use llm_workload::kvcache::KvConvention;
use llm_workload::model::TransformerConfig;
use llm_workload::parallelism::Parallelism;
use rayon::prelude::*;
use std::fmt;
use std::mem;
use std::sync::mpsc;
use std::thread;

/// How the KV-cache capacity requests are admitted against is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KvSizing {
    /// Per-blade main memory minus resident weights
    /// ([`ServingConfig::for_system`]) — the production default.
    ForSystem,
    /// Admission never binds ([`ServingConfig::unconstrained`]).
    Unconstrained,
    /// An explicit byte budget.
    Bytes(f64),
}

type Classifier = Box<dyn Fn(&RequestSpec) -> u32 + Send + Sync>;

/// Fluent description of a serving run: system, workload, scheduling
/// policy, KV accounting, SLO classes and blade topology. Compile it
/// with [`Self::compile`]; every validation error surfaces there as a
/// typed [`OptimusError`].
///
/// Defaults: FCFS policy, contiguous KV sized for the system, GQA
/// convention, whole-prompt prefill, bucketized-mean pricing, global
/// 10 s TTFT / 100 ms TPOT SLOs in one default class, an all-mixed
/// topology with join-shortest-queue routing and per-blade dispatch.
pub struct Scenario<'a> {
    estimator: InferenceEstimator,
    link: Option<HandoffLink>,
    default_blades: u32,
    model: Option<&'a TransformerConfig>,
    par: Option<&'a Parallelism>,
    trace: Option<Result<Vec<RequestSpec>, OptimusError>>,
    base: Option<TraceConfig>,
    topology: Option<Topology>,
    routing: RoutingPolicy,
    dispatch: DispatchMode,
    /// The engine configuration. [`Self::compile`] sets its KV capacity
    /// and cost-table bucket from `kv` and `kv_bucket` (the model and plan
    /// size a system's KV), and its admission gate from `control`.
    config: ServingConfig,
    kv: KvSizing,
    kv_bucket: Option<u32>,
    eviction: Option<CacheEviction>,
    global: Option<GlobalCacheConfig>,
    classes: Option<Vec<SloClass>>,
    classifier: Option<Classifier>,
    policy: Box<dyn SchedulerPolicy>,
    control: Option<ControlPlane>,
    telemetry: Option<TelemetryConfig>,
}

impl fmt::Debug for Scenario<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("default_blades", &self.default_blades)
            .field("topology", &self.topology)
            .field("config", &self.config)
            .field("kv", &self.kv)
            .field("classes", &self.classes)
            .finish_non_exhaustive()
    }
}

impl<'a> Scenario<'a> {
    /// A scenario over an SCD [`MultiBladeSystem`]: per-blade estimator
    /// at the system operating point, a handoff link derived from the
    /// system fabric, and a default all-mixed topology of the system's
    /// blades.
    #[must_use]
    pub fn new(system: &MultiBladeSystem) -> Self {
        Self::with_estimator_link(
            system.inference_estimator(),
            Some(HandoffLink::from_fabric(&system.fabric())),
            system.blades(),
        )
    }

    /// A scenario over a bare per-blade estimator — for GPU baselines or
    /// custom operating points. Defaults to one blade; a disaggregated
    /// topology additionally needs [`Self::handoff`].
    #[must_use]
    pub fn on_estimator(estimator: InferenceEstimator) -> Self {
        Self::with_estimator_link(estimator, None, 1)
    }

    fn with_estimator_link(
        estimator: InferenceEstimator,
        link: Option<HandoffLink>,
        default_blades: u32,
    ) -> Self {
        Self {
            estimator,
            link,
            default_blades,
            model: None,
            par: None,
            trace: None,
            base: None,
            topology: None,
            routing: RoutingPolicy::JoinShortestQueue,
            dispatch: DispatchMode::PerBlade,
            config: ServingConfig::unconstrained(8),
            kv: KvSizing::ForSystem,
            kv_bucket: None,
            eviction: None,
            global: None,
            classes: None,
            classifier: None,
            policy: Box::new(FcfsPolicy),
            control: None,
            telemetry: None,
        }
    }

    /// The model to serve.
    #[must_use]
    pub fn model(mut self, model: &'a TransformerConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// The per-blade parallelism plan.
    #[must_use]
    pub fn parallelism(mut self, par: &'a Parallelism) -> Self {
        self.par = Some(par);
        self
    }

    /// The workload, from any [`TraceSource`] (synthetic, bursty,
    /// diurnal, recorded CSV). Materialization errors surface at
    /// [`Self::compile`].
    #[must_use]
    pub fn trace(mut self, source: &dyn TraceSource) -> Self {
        self.base = None;
        self.trace = Some(source.requests());
        self
    }

    /// A seeded-Poisson workload. Unlike [`Self::trace`] this keeps the
    /// generator, so [`CompiledScenario::frontier`] can re-synthesize it
    /// across arrival rates.
    #[must_use]
    pub fn poisson(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config.synthesize());
        self.base = Some(config);
        self
    }

    /// An explicit, pre-materialized request list.
    #[must_use]
    pub fn requests(mut self, requests: Vec<RequestSpec>) -> Self {
        self.base = None;
        self.trace = Some(Ok(requests));
        self
    }

    /// The scheduling policy (admission order + eviction victim).
    #[must_use]
    pub fn policy(mut self, policy: impl SchedulerPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Maximum concurrent sequences per blade.
    #[must_use]
    pub fn max_batch(mut self, max_batch: u32) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// KV capacity accounting: contiguous or paged.
    #[must_use]
    pub fn kv_layout(mut self, layout: KvLayout) -> Self {
        self.config.kv_layout = layout;
        self
    }

    /// Shorthand for the paged layout with `block_tokens`-token blocks.
    #[must_use]
    pub fn paged_kv(self, block_tokens: u32) -> Self {
        self.kv_layout(KvLayout::Paged { block_tokens })
    }

    /// Lifts the KV capacity constraint (admission never binds).
    ///
    /// Unless [`Self::kv_bucket`] sets one, this also prices decode with
    /// 1-token cost-table buckets (every KV length exactly), where the
    /// system-sized default uses 32-token buckets.
    #[must_use]
    pub fn unconstrained_kv(mut self) -> Self {
        self.kv = KvSizing::Unconstrained;
        self
    }

    /// An explicit KV byte budget (whole blade).
    ///
    /// Unless [`Self::kv_bucket`] sets one, this also prices decode with
    /// 1-token cost-table buckets (every KV length exactly), where the
    /// system-sized default uses 32-token buckets.
    #[must_use]
    pub fn kv_capacity_bytes(mut self, bytes: f64) -> Self {
        self.kv = KvSizing::Bytes(bytes);
        self
    }

    /// Head-count convention for KV sizing.
    #[must_use]
    pub fn kv_convention(mut self, convention: KvConvention) -> Self {
        self.config.kv_convention = convention;
        self
    }

    /// KV-length quantization of the iteration-cost table (tokens).
    ///
    /// Without it the bucket follows the KV sizing: 32 tokens for the
    /// system-sized default, 1 under [`Self::unconstrained_kv`] and
    /// [`Self::kv_capacity_bytes`].
    #[must_use]
    pub fn kv_bucket(mut self, tokens: u32) -> Self {
        self.kv_bucket = Some(tokens);
        self
    }

    /// Enables chunked prefill with `chunk_tokens`-token chunks.
    ///
    /// `0` means whole-prompt prefill, the default: each prompt runs in
    /// its admission iteration, exactly as if this were never called.
    #[must_use]
    pub fn chunked_prefill(mut self, chunk_tokens: u32) -> Self {
        self.config.prefill_chunk_tokens = chunk_tokens;
        self
    }

    /// Iteration-cost pricing mode.
    #[must_use]
    pub fn pricing(mut self, pricing: DecodePricing) -> Self {
        self.config.decode_pricing = pricing;
        self
    }

    /// Which queue discipline drives the replay loops. The event-driven
    /// disciplines (the default) are bit-identical to
    /// [`SimCore::PerStep`] on every workload; the per-step reference is
    /// what the equivalence suite checks them against.
    #[must_use]
    pub fn core(mut self, core: SimCore) -> Self {
        self.config.core = core;
        self
    }

    /// Enables vLLM-style prefix caching with `block_tokens`-token shared
    /// blocks: requests tagged with a
    /// [`SharedPrefix`](super::prefix::SharedPrefix) (via the
    /// shared-prefix trace generator, `RequestSpec::with_prefix`, or a
    /// recorded trace's 5th/6th CSV columns) store their common prefix KV
    /// once per blade, skip its prefill on a hit, and release it to an
    /// LRU pool on completion. Off by default; with it off — or with no
    /// prefix-tagged requests — every replay is bit-identical to the
    /// pre-prefix-cache engine.
    #[must_use]
    pub fn prefix_caching(mut self, block_tokens: u32) -> Self {
        self.config.prefix = Some(PrefixCachingConfig {
            block_tokens,
            eviction: CacheEviction::default(),
        });
        self
    }

    /// Overrides the prefix-cache reclamation order — blade caches and
    /// the global tier alike ([`CacheEviction::Lru`] is the default;
    /// [`CacheEviction::Lfu`] keeps the popular chains of a Zipf-skewed
    /// workload resident under pressure). Needs [`Self::prefix_caching`];
    /// compile-time validated.
    #[must_use]
    pub fn cache_eviction(mut self, eviction: CacheEviction) -> Self {
        self.eviction = Some(eviction);
        self
    }

    /// Enables the cluster-level global KV cache tier (see
    /// [`super::coord`]): a `budget_tokens`-bounded [`PrefixCache`]
    /// populated by insert-through from every tagged admission. When the
    /// tier holds more of a request's prefix than the target blade's own
    /// cache, the remainder streams in over the cluster interconnect,
    /// raced against local recompute — whichever is cheaper wins. Off by
    /// default; needs [`Self::prefix_caching`] and an interconnect link
    /// (a [`MultiBladeSystem`] anchor or [`Self::handoff`]), both
    /// compile-time validated.
    ///
    /// [`PrefixCache`]: super::prefix::PrefixCache
    #[must_use]
    pub fn global_kv_cache(mut self, budget_tokens: u64) -> Self {
        self.global = Some(GlobalCacheConfig { budget_tokens });
        self
    }

    /// The global SLO pair — the targets of the default class when no
    /// explicit [`Self::slo_classes`] are given.
    #[must_use]
    pub fn slo(mut self, ttft_slo_s: f64, tpot_slo_s: f64) -> Self {
        self.config.ttft_slo_s = ttft_slo_s;
        self.config.tpot_slo_s = tpot_slo_s;
        self
    }

    /// Per-request SLO classes; requests name them by index via
    /// [`RequestSpec::class`] (see [`Self::classify`]).
    #[must_use]
    pub fn slo_classes(mut self, classes: Vec<SloClass>) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Assigns every request's SLO class at compile time (e.g. by output
    /// length, by arrival phase). Overrides classes already present on
    /// the trace.
    #[must_use]
    pub fn classify(
        mut self,
        assign: impl Fn(&RequestSpec) -> u32 + Send + Sync + 'static,
    ) -> Self {
        self.classifier = Some(Box::new(assign));
        self
    }

    /// Attaches the online control plane: a load-shedding admission gate
    /// ([`AdmissionControl`](super::AdmissionControl)) and/or a
    /// queue-depth blade autoscaler
    /// ([`AutoscaleConfig`](super::AutoscaleConfig)). The gate
    /// needs an
    /// explicit class table ([`Self::slo_classes`]) with a strict class
    /// to protect; the autoscaler needs central dispatch on a mixed
    /// topology. An empty [`ControlPlane`] is exactly no control plane.
    #[must_use]
    pub fn control(mut self, control: ControlPlane) -> Self {
        self.control = Some(control);
        self
    }

    /// Mounts the read-only [`Telemetry`] layer
    /// ([`super::telemetry`]): windowed time-series, streaming tail
    /// sketches and optional self-profiling, collected by
    /// [`CompiledScenario::run_with_telemetry`]. Mounting telemetry
    /// never changes the replay — reports stay bit-identical.
    #[must_use]
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// The blade topology. Role-typed blades
    /// ([`BladeRole::Prefill`](super::BladeRole::Prefill) /
    /// [`BladeRole::Decode`](super::BladeRole::Decode)) switch the
    /// replay to the disaggregated prefill→decode event loop.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Arrival-time routing policy (mixed topologies, per-blade
    /// dispatch).
    #[must_use]
    pub fn routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Queue topology of mixed clusters: per-blade or central.
    #[must_use]
    pub fn dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Overrides the prefill→decode handoff link (defaults to the system
    /// fabric's blade-to-blade tier; required for disaggregated
    /// topologies on a bare estimator).
    #[must_use]
    pub fn handoff(mut self, link: HandoffLink) -> Self {
        self.link = Some(link);
        self
    }

    /// Validates and freezes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a missing model, plan or
    /// trace, degenerate configuration values, an invalid topology, a
    /// disaggregated topology without a handoff link, an empty trace, a
    /// degenerate request, a request naming an undefined SLO class or
    /// claiming a shared prefix longer than its prompt, a request that
    /// can never fit the KV capacity, or a control plane the topology
    /// cannot host (any control on role-typed blades; an autoscaler without
    /// central dispatch, with degenerate watermarks, or bounds exceeding
    /// the blade pool; a shedding gate without a second class to shed);
    /// propagates trace-materialization and model/parallelism validation
    /// failures.
    pub fn compile(self) -> Result<CompiledScenario<'a>, OptimusError> {
        let missing = |what: &str| OptimusError::Serving {
            reason: format!("scenario is missing {what}"),
        };
        let model = self.model.ok_or_else(|| missing("a model (.model(...))"))?;
        let par = self
            .par
            .ok_or_else(|| missing("a parallelism plan (.parallelism(...))"))?;
        let mut trace = self
            .trace
            .ok_or_else(|| missing("a workload (.trace(...)/.poisson(...)/.requests(...))"))??;
        if let Some(assign) = &self.classifier {
            for r in &mut trace {
                r.class = assign(r);
            }
        }
        let max_batch = self.config.max_batch;
        let sized = match self.kv {
            KvSizing::ForSystem => {
                ServingConfig::for_system(&self.estimator, model, par, max_batch)?
            }
            KvSizing::Unconstrained => ServingConfig::unconstrained(max_batch),
            KvSizing::Bytes(bytes) => ServingConfig {
                kv_capacity_bytes: bytes,
                ..ServingConfig::unconstrained(max_batch)
            },
        };
        let mut config = ServingConfig {
            kv_capacity_bytes: sized.kv_capacity_bytes,
            kv_bucket_tokens: self.kv_bucket.unwrap_or(sized.kv_bucket_tokens),
            ..self.config
        };
        if let Some(eviction) = self.eviction {
            match &mut config.prefix {
                Some(pc) => pc.eviction = eviction,
                None => {
                    return Err(OptimusError::Serving {
                        reason: "a cache eviction policy orders prefix-cache reclamation: \
                                 enable .prefix_caching(...) first"
                            .to_owned(),
                    })
                }
            }
        }

        let topology = self
            .topology
            .unwrap_or_else(|| Topology::mixed(self.default_blades));
        topology.validate()?;
        let control = self.control.unwrap_or_default();
        if topology.is_disaggregated()
            && (control.admission.is_some() || control.autoscale.is_some())
        {
            return Err(OptimusError::Serving {
                reason: "the control plane runs on mixed topologies only: the \
                         disaggregated prefill→decode loop has no shared admission \
                         boundary to shed at nor a uniform pool to scale"
                    .to_owned(),
            });
        }
        config.admission = control.admission;
        let layout = if topology.is_disaggregated() {
            let link = self.link.ok_or_else(|| OptimusError::Serving {
                reason: "a disaggregated topology needs a prefill→decode handoff link \
                         (anchor the scenario on a MultiBladeSystem or set .handoff(...))"
                    .to_owned(),
            })?;
            link.validate()?;
            Layout::Disaggregated(link)
        } else {
            let cluster = ClusterConfig {
                blades: topology.blades(),
                routing: self.routing,
                dispatch: self.dispatch,
                autoscale: control.autoscale,
            };
            validate_cluster(&cluster)?;
            Layout::Mixed(cluster)
        };
        let global = match self.global {
            None => None,
            Some(g) => {
                let pc = config.prefix.ok_or_else(|| OptimusError::Serving {
                    reason: "the global KV cache tier coordinates prefix caches: enable \
                             .prefix_caching(...) first"
                        .to_owned(),
                })?;
                g.validate(&pc)?;
                let link = self.link.ok_or_else(|| OptimusError::Serving {
                    reason: "the global KV cache tier streams hits over the cluster \
                             interconnect: anchor the scenario on a MultiBladeSystem or set \
                             .handoff(...)"
                        .to_owned(),
                })?;
                link.validate()?;
                Some((g, link))
            }
        };

        let sim = ServingSimulator::from_parts(
            self.estimator,
            model,
            par,
            config,
            self.policy,
            self.classes,
        )?;
        sim.check_trace(&trace)?;
        if let Some(tc) = &self.telemetry {
            tc.validate()?;
        }
        Ok(CompiledScenario {
            sim,
            classifier: self.classifier,
            trace,
            base: self.base,
            topology,
            layout,
            global,
            telemetry: self.telemetry,
        })
    }
}

/// Which replay loop a compiled topology runs, holding what compile
/// proved that loop needs.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Interchangeable blades: routing, dispatch and the autoscaler.
    Mixed(ClusterConfig),
    /// Role-typed blades and the prefill→decode handoff link.
    Disaggregated(HandoffLink),
}

/// A validated, immutable serving scenario. Every run path returns a
/// [`ClusterReport`] (single-blade runs are 1-blade clusters); repeated
/// runs of the same compiled scenario are bit-identical.
pub struct CompiledScenario<'a> {
    sim: ServingSimulator<'a>,
    classifier: Option<Classifier>,
    trace: Vec<RequestSpec>,
    base: Option<TraceConfig>,
    topology: Topology,
    layout: Layout,
    /// The global KV cache tier and the link its hits stream over.
    global: Option<(GlobalCacheConfig, HandoffLink)>,
    telemetry: Option<TelemetryConfig>,
}

impl fmt::Debug for CompiledScenario<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledScenario")
            .field("model", &self.sim.model.name)
            .field("requests", &self.trace.len())
            .field("config", &self.sim.config)
            .field("topology", &self.topology)
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

impl CompiledScenario<'_> {
    /// The frozen serving configuration.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.sim.config
    }

    /// The materialized (classified) trace.
    #[must_use]
    pub fn trace(&self) -> &[RequestSpec] {
        &self.trace
    }

    /// The blade topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The global-tier plan for `trace`, when the tier is enabled. The
    /// pre-pass walks the trace once in arrival order, so the plan — and
    /// every transfer-vs-recompute race — is identical across dispatch
    /// modes, cores, and parallelism.
    fn coord(&self, trace: &[RequestSpec], chains: &ChainTable) -> Option<CoordPlan> {
        match (self.global, self.sim.config.prefix) {
            (Some((global, link)), Some(pc)) => {
                Some(plan_global_tier(trace, chains, pc, global, link))
            }
            _ => None,
        }
    }

    /// Replays a [checked](ServingSimulator::check_trace) `trace` on the
    /// compiled topology.
    fn run_on(
        &self,
        trace: &[RequestSpec],
        parallel: bool,
        obs: &mut dyn SimObserver,
    ) -> Result<ClusterReport, OptimusError> {
        let chains = ChainTable::new(trace, self.sim.config.prefix);
        let coord = self.coord(trace, &chains);
        let table = self.sim.cost_table(trace)?;
        let ctx = self.sim.ctx(&table, &chains, coord.as_ref());
        Ok(match &self.layout {
            Layout::Mixed(cluster) => run_mixed(&ctx, *cluster, trace, parallel, obs),
            Layout::Disaggregated(link) => {
                run_disaggregated(&ctx, trace, self.topology.roles(), link, obs)
            }
        })
    }

    /// Runs the scenario, replaying the blades of a mixed per-blade
    /// topology concurrently on rayon workers, which share one
    /// iteration-cost table priced lazily, a chunk of a row on the first
    /// read of one of its cells. Bit-identical to [`Self::run_serial`].
    ///
    /// # Errors
    ///
    /// Propagates estimation failures (every trace rule was checked by
    /// [`Scenario::compile`]).
    pub fn run(&self) -> Result<ClusterReport, OptimusError> {
        self.run_on(&self.trace, true, &mut NoopObserver)
    }

    /// Serial reference implementation of [`Self::run`], kept as the
    /// ground truth for the rayon-equivalence suite.
    ///
    /// # Errors
    ///
    /// As for [`Self::run`].
    pub fn run_serial(&self) -> Result<ClusterReport, OptimusError> {
        self.run_on(&self.trace, false, &mut NoopObserver)
    }

    /// Runs the scenario with `observer` receiving every engine event
    /// (admissions, evictions, prefill chunks, handoffs, completions,
    /// steps). Observers are read-only, so the report is bit-identical
    /// to [`Self::run_serial`].
    ///
    /// # Errors
    ///
    /// As for [`Self::run`].
    pub fn run_observed(
        &self,
        observer: &mut dyn SimObserver,
    ) -> Result<ClusterReport, OptimusError> {
        self.run_on(&self.trace, false, observer)
    }

    /// Runs the scenario with the mounted [`Telemetry`] layer
    /// ([`Scenario::telemetry`]) collecting windowed series and tail
    /// sketches, returning the report alongside the finished collector.
    /// It is [`Self::run_observed_with_telemetry`] with a
    /// [`NoopObserver`]: the collector folds the replay's events on a
    /// second thread, beside the replay, in the order the replay sends
    /// them. It reads stretch summaries only ([`Interest::Summaries`]),
    /// so the report is bit-identical to [`Self::run`] /
    /// [`Self::run_serial`], and the collector to one driven inline
    /// through [`Self::run_observed`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] when no telemetry was mounted
    /// or the folding thread cannot be started; otherwise as for
    /// [`Self::run`].
    pub fn run_with_telemetry(&self) -> Result<(ClusterReport, Telemetry), OptimusError> {
        self.run_observed_with_telemetry(&mut NoopObserver)
    }

    /// [`Self::run_with_telemetry`] with an additional user observer
    /// riding the same replay. Both see every event; the replay batches
    /// decode stretches only when `observer` reads no more than
    /// [`Interest::Summaries`].
    ///
    /// The replay and `observer` run on the calling thread, so
    /// `observer` need not be `Send`. The collector runs on a scoped
    /// worker thread: the replay copies each event into a batch of 256
    /// events and hands full batches over a pipe that holds at most
    /// eight, so the memory in flight stays small and bounded. The
    /// collector folds every batch in order, so it sees exactly the
    /// event sequence an inline fold would, and its exports are the same
    /// bytes. A panic on either thread reaches the caller once both have
    /// stopped.
    ///
    /// # Errors
    ///
    /// As for [`Self::run_with_telemetry`].
    pub fn run_observed_with_telemetry(
        &self,
        observer: &mut dyn SimObserver,
    ) -> Result<(ClusterReport, Telemetry), OptimusError> {
        let cfg = self.telemetry.ok_or_else(|| OptimusError::Serving {
            reason: "no telemetry mounted: build the scenario with \
                     .telemetry(TelemetryConfig { .. })"
                .to_owned(),
        })?;
        let blades = self.topology.blades();
        let mut tel = Telemetry::new(&cfg, blades, &self.sim.classes)?;
        tel.set_active_blades(match self.layout {
            Layout::Mixed(ClusterConfig {
                autoscale: Some(a), ..
            }) => a.min_blades,
            _ => blades,
        });
        // On the fold thread the arrival axis would land in a fresh
        // allocator arena and raise the peak RSS.
        tel.observe_arrivals(&self.trace);
        let interest = tel.interest().max(observer.interest());
        let (full, batches) = mpsc::sync_channel::<Vec<SimEvent>>(RELAY_DEPTH);
        let (recycle, empty) = mpsc::channel();
        let collector = &mut tel;
        let report = thread::scope(|scope| {
            let fold = thread::Builder::new()
                .name("telemetry-fold".to_owned())
                .spawn_scoped(scope, move || {
                    for mut batch in batches {
                        for event in &batch {
                            collector.on_event(event);
                        }
                        batch.clear();
                        // Fails only once the replay has ended.
                        let _ = recycle.send(batch);
                    }
                })
                .map_err(|e| OptimusError::Serving {
                    reason: format!("cannot start the telemetry fold thread: {e}"),
                })?;
            let mut tee = Tee {
                relay: Relay {
                    batch: Vec::with_capacity(RELAY_BATCH),
                    full,
                    empty,
                },
                user: observer,
                interest,
            };
            let report = self.run_on(&self.trace, false, &mut tee);
            tee.relay.flush();
            // Closing the pipe ends the fold; a panic in the user
            // observer closes it the same way, as `tee` unwinds.
            drop(tee);
            if let Err(panic) = fold.join() {
                std::panic::resume_unwind(panic);
            }
            report
        })?;
        tel.finish();
        Ok((report, tel))
    }

    /// Replays the scenario's trace under several routing/dispatch
    /// variants of its (mixed) topology, sharing one iteration-cost
    /// table — it depends only on the per-blade engine and the trace,
    /// not on routing, and each chunk of it is priced once, by the first
    /// variant that reads it — and replaying the variants concurrently
    /// on rayon workers. Each report is bit-identical to a standalone
    /// [`Self::run`] of a scenario with that variant and to
    /// [`Self::run_each_serial`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a disaggregated topology
    /// (role-typed blades have no routing/dispatch axis to sweep) or a
    /// variant the scenario's autoscaler cannot run under (per-blade
    /// dispatch); otherwise as for [`Self::run`].
    pub fn run_each(
        &self,
        variants: &[(RoutingPolicy, DispatchMode)],
    ) -> Result<Vec<ClusterReport>, OptimusError> {
        self.sweep(variants, true)
    }

    /// Serial reference implementation of [`Self::run_each`], kept as
    /// the ground truth for the rayon-equivalence suite.
    ///
    /// # Errors
    ///
    /// As for [`Self::run_each`].
    pub fn run_each_serial(
        &self,
        variants: &[(RoutingPolicy, DispatchMode)],
    ) -> Result<Vec<ClusterReport>, OptimusError> {
        self.sweep(variants, false)
    }

    fn sweep(
        &self,
        variants: &[(RoutingPolicy, DispatchMode)],
        parallel: bool,
    ) -> Result<Vec<ClusterReport>, OptimusError> {
        let Layout::Mixed(base) = self.layout else {
            return Err(OptimusError::Serving {
                reason: "run_each sweeps routing/dispatch of a mixed topology; role-typed \
                         blades route by role instead"
                    .to_owned(),
            });
        };
        let clusters = variants
            .iter()
            .map(|&(routing, dispatch)| {
                let cluster = ClusterConfig {
                    routing,
                    dispatch,
                    ..base
                };
                validate_cluster(&cluster).map(|()| cluster)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let chains = ChainTable::new(&self.trace, self.sim.config.prefix);
        let coord = self.coord(&self.trace, &chains);
        let table = self.sim.cost_table(&self.trace)?;
        let ctx = self.sim.ctx(&table, &chains, coord.as_ref());
        let replay = |&cluster: &ClusterConfig| {
            run_mixed(&ctx, cluster, &self.trace, parallel, &mut NoopObserver)
        };
        Ok(if parallel {
            clusters.par_iter().map(replay).collect()
        } else {
            clusters.iter().map(replay).collect()
        })
    }

    /// Sweeps arrival rates into an SLO-vs-throughput frontier by
    /// re-synthesizing the scenario's Poisson workload at each rate and
    /// replaying the full topology (rates run concurrently; each replay
    /// is deterministic, so the frontier is too).
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] when the scenario was not built
    /// from [`Scenario::poisson`] or a re-synthesized trace fails the
    /// trace check [`Scenario::compile`] applies; otherwise as for
    /// [`Self::run`], plus trace-synthesis failures.
    pub fn frontier(&self, rates: &[f64]) -> Result<Vec<FrontierPoint>, OptimusError> {
        let base = self.base.ok_or_else(|| OptimusError::Serving {
            reason: "the SLO frontier needs a re-synthesizable Poisson workload \
                     (build the scenario with .poisson(...))"
                .to_owned(),
        })?;
        rates
            .par_iter()
            .map(|&rate| {
                let mut trace = TraceConfig {
                    arrival_rate_per_s: rate,
                    ..base
                }
                .synthesize()?;
                if let Some(assign) = &self.classifier {
                    for r in &mut trace {
                        r.class = assign(r);
                    }
                }
                self.sim.check_trace(&trace)?;
                let report = self.run_on(&trace, false, &mut NoopObserver)?;
                Ok(FrontierPoint {
                    arrival_rate_per_s: rate,
                    report: report.report,
                })
            })
            .collect()
    }
}

/// Events per batch the replay hands the telemetry fold. Small batches
/// keep the fold in step with the replay: 1024-event batches measured a
/// few percent slower end to end than 256-event ones.
const RELAY_BATCH: usize = 256;

/// Full batches the pipe holds before the replay waits for the fold:
/// about half a millisecond of replay, 160 KiB of events. A pipe of two
/// stalled the replay whenever the host took the fold's core away for
/// longer than that.
const RELAY_DEPTH: usize = 8;

/// The replay's end of the telemetry pipe: copies each event into the
/// current batch and sends full batches to the fold, refilling from the
/// batches the fold sends back emptied.
struct Relay {
    batch: Vec<SimEvent>,
    full: mpsc::SyncSender<Vec<SimEvent>>,
    empty: mpsc::Receiver<Vec<SimEvent>>,
}

impl Relay {
    fn push(&mut self, event: SimEvent) {
        self.batch.push(event);
        if self.batch.len() == RELAY_BATCH {
            self.flush();
        }
    }

    /// Sends the current batch, if it holds any event.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let next = self
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(RELAY_BATCH));
        // Fails only when the fold has panicked; joining it re-raises
        // that panic.
        let _ = self.full.send(mem::replace(&mut self.batch, next));
    }
}

/// Forwards every engine event to the telemetry fold and a user
/// observer riding the same replay. It reads what either side reads:
/// telemetry's [`Interest::Summaries`], or the user's
/// [`Interest::Rounds`], so a user observer that reads no more than
/// summaries keeps the event core's batched fast paths.
struct Tee<'o> {
    relay: Relay,
    user: &'o mut dyn SimObserver,
    interest: Interest,
}

impl SimObserver for Tee<'_> {
    fn on_event(&mut self, event: &SimEvent) {
        self.relay.push(*event);
        self.user.on_event(event);
    }

    fn interest(&self) -> Interest {
        self.interest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::observer::CountingObserver;
    use crate::serving::telemetry::TailMetric;
    use crate::serving::{AutoscaleConfig, BladeRole, SjfPolicy};
    use llm_workload::model::ModelZoo;

    fn parts() -> (MultiBladeSystem, TransformerConfig, Parallelism) {
        (
            MultiBladeSystem::new(4).unwrap(),
            ModelZoo::llama2_7b(),
            Parallelism::new(1, 1, 1).unwrap(),
        )
    }

    /// Prefill-heavy flash crowds: the workload disaggregation exists for.
    fn prefill_heavy_trace() -> TraceConfig {
        TraceConfig {
            seed: 31,
            requests: 32,
            arrival_rate_per_s: 60.0,
            prompt_tokens: (384, 768),
            output_tokens: (8, 24),
        }
    }

    fn scenario<'a>(
        system: &MultiBladeSystem,
        model: &'a TransformerConfig,
        par: &'a Parallelism,
    ) -> Scenario<'a> {
        Scenario::new(system)
            .model(model)
            .parallelism(par)
            .max_batch(6)
            .unconstrained_kv()
            .poisson(prefill_heavy_trace())
    }

    #[test]
    fn kv_bucket_defaults_follow_the_kv_sizing() {
        let (system, model, par) = parts();
        for (sizing, default) in [("system", 32), ("unconstrained", 1), ("bytes", 1)] {
            for bucket in [None, Some(8)] {
                let s = Scenario::new(&system)
                    .model(&model)
                    .parallelism(&par)
                    .poisson(prefill_heavy_trace());
                let s = match sizing {
                    "system" => s,
                    "unconstrained" => s.unconstrained_kv(),
                    _ => s.kv_capacity_bytes(1e12),
                };
                let s = match bucket {
                    Some(n) => s.kv_bucket(n),
                    None => s,
                };
                let compiled = s.compile().unwrap();
                let want = bucket.unwrap_or(default);
                assert_eq!(compiled.config().kv_bucket_tokens, want, "{sizing} sizing");
            }
        }
    }

    #[test]
    fn scenario_runs_are_bit_deterministic_and_serial_parallel_equal() {
        let (system, model, par) = parts();
        let compiled = scenario(&system, &model, &par).compile().unwrap();
        let a = compiled.run().unwrap();
        let b = compiled.run().unwrap();
        assert_eq!(a, b, "repeated runs must be bit-identical");
        assert_eq!(a, compiled.run_serial().unwrap(), "serial == parallel");

        let disagg = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(2, 2))
            .compile()
            .unwrap();
        assert_eq!(
            disagg.run().unwrap(),
            disagg.run_serial().unwrap(),
            "disaggregated serial == parallel"
        );
    }

    #[test]
    fn zero_chunk_prefill_is_the_whole_prompt_default() {
        let (system, model, par) = parts();
        for topology in [
            Topology::mixed(1),
            Topology::mixed(4),
            Topology::disaggregated(2, 2),
        ] {
            let run = |s: Scenario<'_>| {
                s.topology(topology.clone())
                    .compile()
                    .unwrap()
                    .run()
                    .unwrap()
            };
            assert_eq!(
                run(scenario(&system, &model, &par).chunked_prefill(0)),
                run(scenario(&system, &model, &par)),
                "{topology:?}"
            );
        }
    }

    #[test]
    fn disaggregated_split_beats_mixed_on_prefill_interference() {
        // 2 prefill + 2 decode blades vs 4 mixed blades on a
        // prefill-heavy burst: isolating prompt passes on dedicated
        // blades keeps long prefills out of the decode iterations, so
        // the worst decode stall (max_step_s) and the inter-token tail
        // (TPOT p99) must both improve.
        let (system, model, par) = parts();
        let mixed = scenario(&system, &model, &par)
            .topology(Topology::mixed(4))
            .compile()
            .unwrap()
            .run()
            .unwrap();
        let disagg = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(2, 2))
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(mixed.report.completed, 32);
        assert_eq!(disagg.report.completed, 32);
        assert!(
            disagg.report.max_step_s < mixed.report.max_step_s,
            "dedicated prefill blades must bound the decode stall: {} vs {}",
            disagg.report.max_step_s,
            mixed.report.max_step_s
        );
        assert!(
            disagg.report.tpot.p99 < mixed.report.tpot.p99,
            "disaggregation must cut the inter-token tail: {} vs {}",
            disagg.report.tpot.p99,
            mixed.report.tpot.p99
        );
        // Role bookkeeping: prefill blades complete nothing; decode
        // blades complete everything.
        let roles: Vec<BladeRole> = disagg.per_blade.iter().map(|b| b.role).collect();
        assert_eq!(
            roles,
            vec![
                BladeRole::Prefill,
                BladeRole::Prefill,
                BladeRole::Decode,
                BladeRole::Decode
            ]
        );
        for b in &disagg.per_blade {
            match b.role {
                BladeRole::Prefill => {
                    assert_eq!(b.requests, 0, "prefill blades hand everything off");
                    assert!(b.busy_s > 0.0, "prefill blades did real work");
                }
                _ => assert!(b.requests > 0, "decode blades complete requests"),
            }
        }
        assert_eq!(disagg.per_blade.iter().map(|b| b.requests).sum::<u32>(), 32);
        // Every blade in the mixed run is Mixed.
        assert!(mixed.per_blade.iter().all(|b| b.role == BladeRole::Mixed));
    }

    #[test]
    fn handoff_link_costs_time() {
        // Same disaggregated split, but a pathologically slow handoff
        // link: the makespan and TTFT must strictly grow.
        let (system, model, par) = parts();
        let fast = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(2, 2))
            .compile()
            .unwrap()
            .run()
            .unwrap();
        let slow = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(2, 2))
            .handoff(HandoffLink {
                bytes_per_s: 1e6, // 1 MB/s: KV streams dominate
                latency_s: 0.01,
            })
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(slow.report.completed, 32);
        assert!(slow.report.ttft.p50 > fast.report.ttft.p50);
        assert!(slow.report.makespan_s > fast.report.makespan_s);
    }

    #[test]
    fn run_each_matches_standalone_runs_off_one_table() {
        let (system, model, par) = parts();
        let variants = [
            (RoutingPolicy::RoundRobin, DispatchMode::PerBlade),
            (RoutingPolicy::JoinShortestQueue, DispatchMode::Central),
        ];
        let reports = scenario(&system, &model, &par)
            .compile()
            .unwrap()
            .run_each(&variants)
            .unwrap();
        assert_eq!(reports.len(), 2);
        for (&(routing, dispatch), swept) in variants.iter().zip(&reports) {
            let standalone = scenario(&system, &model, &par)
                .routing(routing)
                .dispatch(dispatch)
                .compile()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(swept, &standalone, "{routing} / {dispatch:?}");
        }
        // Role-typed topologies have no routing axis to sweep.
        let disagg = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(2, 2))
            .compile()
            .unwrap();
        assert!(matches!(
            disagg.run_each(&variants),
            Err(OptimusError::Serving { .. })
        ));
    }

    #[test]
    fn topology_validation_is_typed() {
        let (system, model, par) = parts();
        for topology in [
            Topology::from_roles(vec![]),
            Topology::from_roles(vec![BladeRole::Decode, BladeRole::Decode]),
            Topology::from_roles(vec![BladeRole::Prefill, BladeRole::Prefill]),
        ] {
            let err = scenario(&system, &model, &par)
                .topology(topology.clone())
                .compile();
            assert!(
                matches!(err, Err(OptimusError::Serving { .. })),
                "{topology:?} must be rejected"
            );
        }
        // Mixed blades are decode-capable alongside dedicated prefill.
        let ok = scenario(&system, &model, &par)
            .topology(Topology::from_roles(vec![
                BladeRole::Prefill,
                BladeRole::Mixed,
            ]))
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(ok.report.completed, 32);

        // A bare estimator has no fabric: disaggregation needs .handoff.
        let est = system.inference_estimator();
        let bare = Scenario::on_estimator(est)
            .model(&model)
            .parallelism(&par)
            .unconstrained_kv()
            .poisson(prefill_heavy_trace())
            .topology(Topology::disaggregated(1, 1))
            .compile();
        assert!(matches!(bare, Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn slo_classes_split_goodput_and_weights_blend() {
        let (system, model, par) = parts();
        let compiled = scenario(&system, &model, &par)
            .slo_classes(vec![
                SloClass::new("interactive", 0.5, 0.05).with_weight(3.0),
                SloClass::batch(),
            ])
            .classify(|r| u32::from(r.prompt_tokens > 500))
            .compile()
            .unwrap();
        // The classifier actually split the population.
        let classes: Vec<u32> = compiled.trace().iter().map(|r| r.class).collect();
        assert!(classes.contains(&0) && classes.contains(&1));
        let report = compiled.run().unwrap().report;
        assert_eq!(report.per_class.len(), 2);
        let interactive = report.class("interactive").unwrap();
        let batch = report.class("batch").unwrap();
        assert_eq!(interactive.requests + batch.requests, report.requests);
        // Per-class goodputs blend into the global figure...
        let sum = interactive.goodput_tok_s + batch.goodput_tok_s;
        assert!((sum - report.goodput_tok_s).abs() <= 1e-9 * report.goodput_tok_s.max(1.0));
        // ...and the weighted blend honors the 3× interactive weight.
        let weighted = 3.0 * interactive.goodput_tok_s + batch.goodput_tok_s;
        assert!((report.weighted_goodput_tok_s() - weighted).abs() <= f64::EPSILON * weighted);
    }

    #[test]
    fn out_of_range_class_indices_are_typed_errors_everywhere() {
        use crate::serving::CsvTrace;
        let (system, model, par) = parts();
        // A classifier naming a class past the table fails at compile().
        let err = scenario(&system, &model, &par)
            .slo_classes(vec![SloClass::interactive(), SloClass::batch()])
            .classify(|r| 2 + u32::from(r.prompt_tokens > 500))
            .compile();
        match err {
            Err(OptimusError::Serving { reason }) => {
                assert!(reason.contains("names SLO class"), "{reason}");
                assert!(reason.contains("2 class(es)"), "{reason}");
            }
            other => panic!("expected a typed class error, got {other:?}"),
        }
        // A recorded trace's class column is held to the same check.
        let csv = CsvTrace::parse("0.0,64,8,0\n1.0,32,4,3\n").unwrap();
        let err = scenario(&system, &model, &par)
            .trace(&csv)
            .slo_classes(vec![SloClass::interactive(), SloClass::batch()])
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("class 3")),
            "{err:?}"
        );
        // With one (default) class, any nonzero CSV class is rejected.
        let err = scenario(&system, &model, &par).trace(&csv).compile();
        assert!(matches!(err, Err(OptimusError::Serving { .. })));
        // frontier() re-classifies freshly synthesized traces: a
        // classifier that only misbehaves on them (here: keyed on
        // arrival times, which stretch at low rates) still surfaces the
        // same typed error instead of an out-of-range panic downstream.
        let compiled = scenario(&system, &model, &par)
            .slo_classes(vec![SloClass::interactive(), SloClass::batch()])
            .classify(|r| u32::from(r.arrival_s > 2.0) * 9)
            .compile()
            .expect("the 60 req/s base trace finishes arriving before t = 2 s");
        let err = compiled.frontier(&[5.0]);
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason })
                if reason.contains("names SLO class")),
            "{err:?}"
        );
    }

    #[test]
    fn control_plane_validation_is_typed() {
        use crate::serving::AdmissionControl;
        let (system, model, par) = parts();
        let two_classes = || {
            vec![
                SloClass::new("interactive", 0.5, 0.02).with_weight(2.0),
                SloClass::batch(),
            ]
        };
        // Any control on a disaggregated topology is rejected.
        let err = scenario(&system, &model, &par)
            .slo_classes(two_classes())
            .topology(Topology::disaggregated(2, 2))
            .control(ControlPlane::new().shed(AdmissionControl::new(0, 0.9)))
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("mixed")),
            "{err:?}"
        );
        // The autoscaler needs central dispatch...
        let err = scenario(&system, &model, &par)
            .control(ControlPlane::new().autoscale(AutoscaleConfig::new(1, 4)))
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("Central")),
            "{err:?}"
        );
        // ...and bounds inside the blade pool.
        let err = scenario(&system, &model, &par)
            .dispatch(DispatchMode::Central)
            .control(ControlPlane::new().autoscale(AutoscaleConfig::new(1, 8)))
            .compile();
        assert!(matches!(err, Err(OptimusError::Serving { .. })), "{err:?}");
        // The shedding gate needs a class table with something to shed.
        let err = scenario(&system, &model, &par)
            .control(ControlPlane::new().shed(AdmissionControl::new(0, 0.9)))
            .compile();
        assert!(matches!(err, Err(OptimusError::Serving { .. })), "{err:?}");
        // An empty control plane is exactly no control plane.
        let plain = scenario(&system, &model, &par).compile().unwrap();
        let empty = scenario(&system, &model, &par)
            .control(ControlPlane::new())
            .compile()
            .unwrap();
        assert_eq!(plain.run().unwrap(), empty.run().unwrap());
        // A valid full control plane compiles and runs on both cores
        // identically.
        let mk = |core| {
            scenario(&system, &model, &par)
                .core(core)
                .slo_classes(two_classes())
                .classify(|r| u32::from(r.prompt_tokens > 500))
                .dispatch(DispatchMode::Central)
                .control(
                    ControlPlane::new()
                        .shed(AdmissionControl::new(0, 0.9))
                        .autoscale(AutoscaleConfig::new(1, 4).with_watermarks(0, 4)),
                )
                .compile()
                .unwrap()
                .run()
                .unwrap()
        };
        let event = mk(SimCore::EventDriven);
        assert_eq!(event, mk(SimCore::PerStep));
        assert_eq!(
            u64::from(event.report.completed) + event.report.shed_requests,
            u64::from(event.report.requests)
        );
    }

    #[test]
    fn run_each_rejects_a_per_blade_variant_of_an_autoscaled_scenario() {
        // The scenario compiles (central dispatch), but a per-blade
        // variant fixes each request's blade at arrival: the per-variant
        // cluster check rejects it on both sweep paths.
        let (system, model, par) = parts();
        let compiled = scenario(&system, &model, &par)
            .dispatch(DispatchMode::Central)
            .control(ControlPlane::new().autoscale(AutoscaleConfig::new(1, 4)))
            .compile()
            .unwrap();
        let variants = [
            (RoutingPolicy::RoundRobin, DispatchMode::Central),
            (RoutingPolicy::RoundRobin, DispatchMode::PerBlade),
        ];
        for err in [
            compiled.run_each(&variants),
            compiled.run_each_serial(&variants),
        ] {
            assert!(
                matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("Central")),
                "{err:?}"
            );
        }
        // The central variant alone runs under the autoscaler, exactly
        // as the scenario's own run does.
        assert_eq!(
            compiled.run_each(&variants[..1]).unwrap(),
            vec![compiled.run().unwrap()]
        );
    }

    #[test]
    fn empty_request_list_fails_at_compile() {
        let (system, model, par) = parts();
        let err = scenario(&system, &model, &par).requests(vec![]).compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("empty")),
            "{err:?}"
        );
    }

    /// Two hot 256-token prefixes over round-robin routing: each blade
    /// keeps seeing one prefix, so the first arrival per blade is a
    /// local miss the global tier already covers.
    fn tagged_trace() -> Vec<RequestSpec> {
        (0..24)
            .map(|i| {
                RequestSpec::new(i, f64::from(i) * 0.01, 320, 8)
                    .with_prefix(1 + u64::from(i % 2), 256)
            })
            .collect()
    }

    #[test]
    fn global_tier_streams_cold_blades_warm_and_stays_bit_identical() {
        let (system, model, par) = parts();
        let mk = |core| {
            Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(6)
                .unconstrained_kv()
                .requests(tagged_trace())
                .routing(RoutingPolicy::RoundRobin)
                .prefix_caching(16)
                .global_kv_cache(1 << 20)
                .handoff(HandoffLink {
                    bytes_per_s: 1e12,
                    latency_s: 1e-6,
                })
                .core(core)
                .compile()
                .unwrap()
        };
        let event = mk(SimCore::EventDriven).run().unwrap();
        let r = &event.report;
        assert!(r.remote_prefix_hits > 0, "cold blades must hit the tier");
        assert_eq!(
            r.remote_prefix_streams + r.remote_prefix_recomputes,
            r.remote_prefix_hits,
            "every tier hit resolves its race one way"
        );
        assert!(
            r.remote_prefix_streams > 0 && r.remote_kv_streamed_bytes > 0.0,
            "a TB/s link must win at least one race: {r}"
        );
        assert_eq!(
            event.per_blade.iter().map(|b| b.remote_hits).sum::<u64>(),
            r.remote_prefix_hits
        );
        // Bit-identical across cores and serial/parallel replay.
        assert_eq!(event, mk(SimCore::PerStep).run().unwrap());
        assert_eq!(event, mk(SimCore::EventDriven).run_serial().unwrap());
        // A sweep replays its variants under the same tier plan.
        let variant = [(RoutingPolicy::RoundRobin, DispatchMode::PerBlade)];
        assert_eq!(
            vec![event.clone()],
            mk(SimCore::EventDriven).run_each(&variant).unwrap()
        );
        // A pathologically slow link loses every race to recompute — the
        // tier can only ever help, never hurt.
        let slow = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .requests(tagged_trace())
            .routing(RoutingPolicy::RoundRobin)
            .prefix_caching(16)
            .global_kv_cache(1 << 20)
            .handoff(HandoffLink {
                bytes_per_s: 1.0,
                latency_s: 10.0,
            })
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(slow.report.remote_prefix_streams, 0);
        assert_eq!(
            slow.report.remote_prefix_recomputes,
            slow.report.remote_prefix_hits
        );
        assert!(slow.report.makespan_s <= event.report.makespan_s + 1e-12);
    }

    #[test]
    fn cluster_cache_coordination_misconfigurations_are_typed() {
        let (system, model, par) = parts();
        // The tier coordinates prefix caches; without one it's a typo.
        let err = scenario(&system, &model, &par)
            .global_kv_cache(1 << 20)
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason })
                if reason.contains("prefix_caching")),
            "{err:?}"
        );
        // So does an eviction-order override.
        let err = scenario(&system, &model, &par)
            .cache_eviction(CacheEviction::Lfu)
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason })
                if reason.contains("prefix_caching")),
            "{err:?}"
        );
        // A tier budget below one block can never cache anything.
        let err = scenario(&system, &model, &par)
            .prefix_caching(16)
            .global_kv_cache(15)
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason }) if reason.contains("block")),
            "{err:?}"
        );
        // A bare estimator has no interconnect for tier hits to stream
        // over.
        let err = Scenario::on_estimator(system.inference_estimator())
            .model(&model)
            .parallelism(&par)
            .unconstrained_kv()
            .poisson(prefill_heavy_trace())
            .prefix_caching(16)
            .global_kv_cache(1 << 20)
            .compile();
        assert!(
            matches!(err, Err(OptimusError::Serving { ref reason })
                if reason.contains("handoff")),
            "{err:?}"
        );
        // The full coordination stack compiles when everything is wired.
        assert!(scenario(&system, &model, &par)
            .prefix_caching(16)
            .cache_eviction(CacheEviction::Lfu)
            .global_kv_cache(1 << 20)
            .routing(RoutingPolicy::CacheAware)
            .compile()
            .is_ok());
    }

    #[test]
    fn observer_sees_the_whole_replay_without_perturbing_it() {
        let (system, model, par) = parts();
        let compiled = scenario(&system, &model, &par)
            .topology(Topology::disaggregated(1, 3))
            .policy(SjfPolicy)
            .compile()
            .unwrap();
        let mut observer = CountingObserver::default();
        let observed = compiled.run_observed(&mut observer).unwrap();
        let counts = observer.counts();
        assert_eq!(observed, compiled.run().unwrap(), "observers are read-only");
        assert_eq!(counts.completions, 32);
        assert!(
            counts.handoffs >= 32,
            "every request streams through the fabric at least once, got {}",
            counts.handoffs
        );
        assert!(counts.admissions >= 32);
        assert!(counts.steps > 0);
        assert_eq!(counts.stretches, 0, "summaries are for summary readers");
    }

    #[test]
    fn telemetry_mounts_passively_and_sums_match_the_report() {
        let (system, model, par) = parts();
        let base = || scenario(&system, &model, &par).policy(SjfPolicy);
        let plain = base().compile().unwrap().run().unwrap();
        let compiled = base()
            .telemetry(TelemetryConfig {
                window_s: 0.05,
                max_windows: 128,
            })
            .compile()
            .unwrap();
        let (report, tel) = compiled.run_with_telemetry().unwrap();
        assert_eq!(report, plain, "telemetry must be bit-inert");
        let windows = tel.cluster_windows();
        let completions: u64 = windows.iter().map(|w| w.completions).sum();
        assert_eq!(completions, u64::from(report.report.completed));
        let arrivals: u64 = windows.iter().map(|w| w.arrivals).sum();
        assert_eq!(arrivals, compiled.trace().len() as u64);
        let tail = tel.tail(TailMetric::Latency);
        assert_eq!(tail.count, u64::from(report.report.completed));
        // Under 5 observations the sketch is exact nearest-rank; at 32
        // it is converged enough to land inside the observed range.
        let p99 = tail.p99.unwrap();
        assert!(p99 > 0.0 && p99 <= report.report.latency.p99 * 1.5);
    }

    #[test]
    fn telemetry_follows_requests_whatever_their_ids() {
        let (system, model, par) = parts();
        let cfg = TelemetryConfig {
            window_s: 0.05,
            max_windows: 128,
        };
        let run = |requests: Vec<RequestSpec>| {
            scenario(&system, &model, &par)
                .requests(requests)
                .telemetry(cfg)
                .compile()
                .unwrap()
                .run_with_telemetry()
                .unwrap()
        };
        // One request with the largest id.
        let (report, tel) = run(vec![RequestSpec::new(u32::MAX, 0.0, 16, 4)]);
        assert_eq!(report.report.completed, 1);
        let windows = tel.cluster_windows();
        assert_eq!(windows.iter().map(|w| w.completions).sum::<u64>(), 1);
        assert_eq!(windows.last().unwrap().queue_depth, 0);
        // Sparse ids replay exactly like the same trace numbered 0..n.
        let dense = prefill_heavy_trace().synthesize().unwrap();
        let sparse = dense
            .iter()
            .map(|r| RequestSpec {
                id: u32::MAX - 7 * r.id,
                ..*r
            })
            .collect();
        let (dense_report, dense_tel) = run(dense);
        let (sparse_report, sparse_tel) = run(sparse);
        assert_eq!(sparse_report, dense_report);
        assert_eq!(sparse_tel.to_csv(), dense_tel.to_csv());
    }

    #[test]
    fn telemetry_requires_mounting_and_valid_dials() {
        let (system, model, par) = parts();
        let compiled = scenario(&system, &model, &par).compile().unwrap();
        assert!(matches!(
            compiled.run_with_telemetry(),
            Err(OptimusError::Serving { .. })
        ));
        let bad = scenario(&system, &model, &par)
            .telemetry(TelemetryConfig {
                window_s: 0.0,
                ..TelemetryConfig::default()
            })
            .compile();
        assert!(matches!(bad, Err(OptimusError::Serving { .. })));
    }

    /// Folds every event into `tel` inline, counting them.
    struct Inline<'t> {
        tel: &'t mut Telemetry,
        events: usize,
    }

    impl SimObserver for Inline<'_> {
        fn on_event(&mut self, event: &SimEvent) {
            self.events += 1;
            self.tel.on_event(event);
        }

        fn interest(&self) -> Interest {
            self.tel.interest()
        }
    }

    #[test]
    fn telemetry_folded_beside_the_replay_equals_the_inline_fold() {
        let (system, model, par) = parts();
        let cfg = TelemetryConfig {
            window_s: 0.05,
            max_windows: 64,
        };
        // The blades active at t = 0: the autoscaler starts at its floor.
        for (name, active) in [("one blade", 1), ("autoscaled central", 1), ("2P+2D", 4)] {
            // One trace inside a single batch, one spanning several
            // batches and a partial last one.
            for (requests, small) in [(3, true), (160, false)] {
                let base = scenario(&system, &model, &par);
                let compiled = match name {
                    "one blade" => base.topology(Topology::mixed(1)),
                    "autoscaled central" => base.dispatch(DispatchMode::Central).control(
                        ControlPlane::new()
                            .autoscale(AutoscaleConfig::new(1, 4).with_watermarks(0, 2)),
                    ),
                    _ => base.topology(Topology::disaggregated(2, 2)),
                }
                .poisson(TraceConfig {
                    requests,
                    ..prefill_heavy_trace()
                })
                .telemetry(cfg)
                .compile()
                .unwrap();
                let (report, piped) = compiled.run_with_telemetry().unwrap();
                let mut tel =
                    Telemetry::new(&cfg, compiled.topology.blades(), &compiled.sim.classes)
                        .unwrap();
                tel.set_active_blades(active);
                tel.observe_arrivals(compiled.trace());
                let mut inline = Inline {
                    tel: &mut tel,
                    events: 0,
                };
                let observed = compiled.run_observed(&mut inline).unwrap();
                let events = inline.events;
                tel.finish();
                let case = format!("{name}, {requests} requests, {events} events");
                if name == "autoscaled central" && !small {
                    let scales: u64 = piped.cluster_windows().iter().map(|w| w.scale_events).sum();
                    assert!(scales > 0, "{case}: the autoscaler never scaled");
                }
                if small {
                    assert!(events < RELAY_BATCH, "{case}");
                } else {
                    assert!(
                        events > 2 * RELAY_BATCH && !events.is_multiple_of(RELAY_BATCH),
                        "{case}"
                    );
                }
                assert_eq!(report, observed, "{case}: report");
                assert_eq!(piped.to_csv(), tel.to_csv(), "{case}: CSV");
                assert_eq!(
                    piped.to_prometheus(),
                    tel.to_prometheus(),
                    "{case}: Prometheus"
                );
                for metric in [TailMetric::Ttft, TailMetric::Tpot, TailMetric::Latency] {
                    assert_eq!(piped.tail(metric), tel.tail(metric), "{case}: {metric:?}");
                }
            }
        }
    }

    /// Panics at its `n`th event.
    struct Bails(usize);

    impl SimObserver for Bails {
        fn on_event(&mut self, _: &SimEvent) {
            self.0 -= 1;
            assert!(self.0 > 0, "the user observer bails out");
        }
    }

    #[test]
    fn a_user_observer_panic_reaches_the_caller_without_a_hang() {
        // The replay runs on a thread of its own, so a deadlocked pipe
        // fails this test at the timeout instead of hanging it.
        let (done, outcome) = mpsc::channel();
        thread::spawn(move || {
            let (system, model, par) = parts();
            let compiled = scenario(&system, &model, &par)
                .topology(Topology::disaggregated(2, 2))
                .poisson(TraceConfig {
                    requests: 320,
                    ..prefill_heavy_trace()
                })
                .telemetry(TelemetryConfig::default())
                .compile()
                .unwrap();
            // At the first event, before any batch is sent, and past
            // more batches than the pipe holds.
            for n in [1, (RELAY_DEPTH + 2) * RELAY_BATCH + 5] {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compiled.run_observed_with_telemetry(&mut Bails(n))
                }));
                let message = caught.err().map_or_else(
                    || "no panic".to_owned(),
                    |p| {
                        p.downcast_ref::<&str>()
                            .map(|m| (*m).to_owned())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_default()
                    },
                );
                let _ = done.send((n, message));
            }
        });
        for _ in 0..2 {
            let (n, message) = outcome
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the replay returned within a minute");
            assert!(
                message.contains("the user observer bails out"),
                "event {n}: caught {message:?}"
            );
        }
    }
}
