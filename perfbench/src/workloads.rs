//! The four benchmark workloads: how each synthesizes its trace from a
//! seed, how it is compiled into a scenario, and how it is replayed.
//!
//! Every workload runs Llama-405B on the paper-baseline SCD blade
//! estimator with `Parallelism::pure_tp(64)`, the same system
//! `core_bench` measures. Arrivals come from an open-loop schedule fixed
//! by the trace, so simulated queues may grow but the generator is never
//! late.

use std::sync::Arc;

use llm_workload::model::TransformerConfig;
use llm_workload::parallelism::Parallelism;
use optimus::inference::InferenceEstimator;
use optimus::serving::{
    AdmissionControl, BurstyTraceConfig, CacheEviction, ClusterReport, CompiledScenario,
    ControlPlane, DispatchMode, DiurnalTraceConfig, FcfsPolicy, HandoffLink, RequestSpec,
    RoutingPolicy, Scenario, SchedulerPolicy, SharedPrefixTraceConfig, SloClass,
    StrictPriorityPolicy, TelemetryConfig, Topology, TraceConfig, TraceSource, WeightedFairPolicy,
};
use optimus::OptimusError;

use crate::policy_timer::{PolicyStats, TimedPolicy};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 mixed blades on one central queue, the `core_bench` diurnal
    /// trace: the leapfrog argmin and the decode-stretch path.
    Fleet64Central,
    /// 8 blades with cache-aware routing, LFU prefix caches, the global
    /// KV tier, two SLO classes and a shedding gate.
    PrefixCacheAware,
    /// 2 prefill + 2 decode blades with telemetry mounted.
    DisaggTelemetry,
    /// One overloaded blade under the clock-dependent weighted-fair
    /// policy.
    WfqOverload,
}

/// The NVLink-class link the cache tier and the disaggregated handoff
/// stream over (an estimator-anchored scenario has no fabric to derive
/// one from).
const LINK: HandoffLink = HandoffLink {
    bytes_per_s: 400e9,
    latency_s: 5e-6,
};

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Self; 4] = [
        Self::Fleet64Central,
        Self::PrefixCacheAware,
        Self::DisaggTelemetry,
        Self::WfqOverload,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fleet64Central => "fleet64_central",
            Self::PrefixCacheAware => "prefix_cache_aware",
            Self::DisaggTelemetry => "disagg_telemetry",
            Self::WfqOverload => "wfq_overload",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace seed used when none is given, and the one the pinned
    /// fingerprint was taken at.
    pub fn default_seed(self) -> u64 {
        match self {
            Self::WfqOverload => 99,
            _ => 2026,
        }
    }

    /// FNV-1a digest of the simulated output at [`Self::default_seed`]
    /// (see `crate::fingerprint`). A change to any of these means the
    /// simulator's results changed, not merely its speed.
    pub fn pinned_fingerprint(self) -> u64 {
        match self {
            Self::Fleet64Central => 0xbfb3_26ab_9d9c_5889,
            Self::PrefixCacheAware => 0xad3f_f6b2_c2b1_b960,
            Self::DisaggTelemetry => 0x3548_8eef_c6f6_4055,
            Self::WfqOverload => 0x3aec_0758_e864_e2bc,
        }
    }

    /// Requests per replay.
    pub fn requests(self) -> u32 {
        match self {
            Self::Fleet64Central => 60_000,
            Self::PrefixCacheAware => 20_000,
            Self::DisaggTelemetry => 40_000,
            Self::WfqOverload => 4_000,
        }
    }

    /// Whether the replay goes through `run_with_telemetry()`.
    pub fn has_telemetry(self) -> bool {
        self == Self::DisaggTelemetry
    }

    /// Materializes the workload's trace for `seed`
    /// (`TraceSource::requests()`).
    pub fn synthesize(self, seed: u64) -> Result<Vec<RequestSpec>, OptimusError> {
        let requests = self.requests();
        match self {
            Self::Fleet64Central => DiurnalTraceConfig {
                seed,
                requests,
                // 2 req/s per blade: the per-blade load of `core_bench`'s
                // 4-blade `cluster_event` row.
                mean_rate_per_s: 128.0,
                amplitude: 0.9,
                period_s: 3600.0,
                prompt_tokens: (32, 128),
                output_tokens: (16, 64),
            }
            .requests(),
            Self::PrefixCacheAware => {
                let mut trace = SharedPrefixTraceConfig {
                    seed,
                    requests,
                    arrival_rate_per_s: 900.0,
                    prefixes: 64,
                    prefix_tokens: (256, 1024),
                    zipf_s: 1.1,
                    share_fraction: 0.8,
                    unique_prompt_tokens: (32, 256),
                    output_tokens: (16, 128),
                }
                .requests()?;
                // The system-prompt catalogue belongs to the workload, not
                // to the seed: the generator draws each prompt's length
                // from the seed, and with Zipf popularity the top few
                // lengths alone swing replay cost by a third between
                // seeds. The seed still draws arrivals, popularity picks
                // and unique and output lengths.
                for r in &mut trace {
                    if let Some(prefix) = &mut r.prefix {
                        let tokens = catalogue_prefix_tokens(prefix.id);
                        r.prompt_tokens = r.prompt_tokens - prefix.tokens + tokens;
                        prefix.tokens = tokens;
                    }
                }
                Ok(trace)
            }
            Self::DisaggTelemetry => BurstyTraceConfig {
                seed,
                requests,
                base_rate_per_s: 20.0,
                burst_rate_per_s: 400.0,
                burst_s: 1.0,
                gap_s: 4.0,
                prompt_tokens: (512, 1024),
                output_tokens: (16, 48),
            }
            .requests(),
            Self::WfqOverload => TraceConfig {
                seed,
                requests,
                arrival_rate_per_s: 40.0,
                prompt_tokens: (64, 256),
                output_tokens: (8, 256),
            }
            .requests(),
        }
    }

    /// Builds and compiles the workload's scenario over a materialized
    /// trace. With `timer`, the workload's policy is wrapped in the
    /// delegating [`TimedPolicy`].
    pub fn compile<'a>(
        self,
        system: &'a System,
        trace: Vec<RequestSpec>,
        timer: Option<&Arc<PolicyStats>>,
    ) -> Result<CompiledScenario<'a>, OptimusError> {
        let base = Scenario::on_estimator(system.estimator.clone())
            .model(&system.model)
            .parallelism(&system.par)
            .requests(trace);
        let scenario = match self {
            Self::Fleet64Central => with_policy(
                base.max_batch(32)
                    .topology(Topology::mixed(64))
                    .dispatch(DispatchMode::Central),
                FcfsPolicy,
                timer,
            ),
            Self::PrefixCacheAware => with_policy(
                base.max_batch(32)
                    .topology(Topology::mixed(8))
                    .routing(RoutingPolicy::CacheAware)
                    .prefix_caching(16)
                    .cache_eviction(CacheEviction::Lfu)
                    .global_kv_cache(1 << 15)
                    .handoff(LINK)
                    // Small enough that shared blocks are evicted and
                    // running sequences preempted.
                    .kv_capacity_bytes(5e9)
                    .slo_classes(vec![
                        SloClass::new("interactive", 0.25, 0.05).with_weight(2.0),
                        SloClass::new("batch", 10.0, 0.5),
                    ])
                    .classify(|r| u32::from(r.output_tokens > 64))
                    .control(ControlPlane::new().shed(AdmissionControl::new(0, 0.8))),
                StrictPriorityPolicy::new(),
                timer,
            ),
            Self::DisaggTelemetry => with_policy(
                base.max_batch(32)
                    .topology(Topology::disaggregated(2, 2))
                    .handoff(LINK)
                    .telemetry(TelemetryConfig {
                        window_s: 1.0,
                        ..TelemetryConfig::default()
                    }),
                FcfsPolicy,
                timer,
            ),
            Self::WfqOverload => with_policy(
                base.max_batch(8)
                    .slo_classes(vec![
                        SloClass::new("interactive", 0.5, 0.02).with_weight(2.0),
                        SloClass::new("batch", 60.0, 0.5),
                    ])
                    .classify(|r| u32::from(r.output_tokens > 64)),
                WeightedFairPolicy::new(),
                timer,
            ),
        };
        scenario.compile()
    }

    /// One replay: `run()`, or `run_with_telemetry()` with the telemetry
    /// CSV export on [`Self::DisaggTelemetry`].
    pub fn replay(
        self,
        compiled: &CompiledScenario<'_>,
    ) -> Result<(ClusterReport, Option<String>), OptimusError> {
        if self.has_telemetry() {
            let (report, telemetry) = compiled.run_with_telemetry()?;
            Ok((report, Some(telemetry.to_csv())))
        } else {
            Ok((compiled.run()?, None))
        }
    }
}

/// The simulated system every workload shares.
pub struct System {
    estimator: InferenceEstimator,
    model: TransformerConfig,
    par: Parallelism,
}

impl System {
    /// Llama-405B, TP=64, on the paper-baseline SCD blade.
    pub fn paper_baseline() -> Result<Self, OptimusError> {
        Ok(Self {
            estimator: optimus::SpeedupStudy::paper_baseline().scd_inference(),
            model: llm_workload::model::ModelZoo::llama_405b(),
            par: Parallelism::pure_tp(64)?,
        })
    }
}

/// Length of system prompt `id` in the `prefix_cache_aware` catalogue:
/// a golden-ratio sequence over 256..=1024 tokens, so lengths spread
/// evenly whatever the popularity rank.
fn catalogue_prefix_tokens(id: u64) -> u32 {
    let spread = ((id + 1) as f64 * 0.618_033_988_749_895).fract();
    256 + (spread * 768.0) as u32
}

fn with_policy<'a, P: SchedulerPolicy + Clone + 'static>(
    scenario: Scenario<'a>,
    policy: P,
    timer: Option<&Arc<PolicyStats>>,
) -> Scenario<'a> {
    match timer {
        Some(stats) => scenario.policy(TimedPolicy::new(policy, Arc::clone(stats))),
        None => scenario.policy(policy),
    }
}
