//! Serving-simulator experiments: dynamic-traffic extensions of the
//! paper's §VI batching study, all expressed through the scenario-first
//! serving API (`optimus::serving::Scenario`).
//!
//! Where `extensions::serving_capacity` answers the *static* question
//! (largest batch within a per-token budget), these experiments replay
//! traces — seeded Poisson, bursty flash crowds, and a bundled
//! Azure-LLM-shaped recorded sample — through the continuous-batching
//! engine and report what actually matters for serving heavy traffic:
//! TTFT/TPOT tails, per-SLO-class goodput, routing and disaggregation
//! effects at cluster scale.

use llm_workload::kvcache::{KvCache, KvConvention};
use llm_workload::model::ModelZoo;
use llm_workload::parallelism::Parallelism;
use llm_workload::taskgraph::weights_per_unit_bytes;
use optimus::serving::{
    AdmissionControl, AutoscaleConfig, BurstyTraceConfig, CacheEviction, ClusterReport,
    ControlPlane, CsvTrace, DispatchMode, DiurnalTraceConfig, FcfsPolicy, FrontierPoint, KvLayout,
    MaxWaitGuardPolicy, ProfileReport, RoutingPolicy, Scenario, SharedPrefixTraceConfig, SjfPolicy,
    SloClass, StrictPriorityPolicy, TailMetric, TelemetryConfig, Topology, TraceConfig,
    WeightedFairPolicy, WindowRow,
};
use optimus::{
    Comparison, InferenceEstimator, MultiBladeSystem, OptimusError, ServingReport, SpeedupStudy,
};

/// The shared workload: Llama-405B, TP=64, prompt/output spread around
/// the paper's I/O 200/200 point.
fn base_trace() -> TraceConfig {
    TraceConfig {
        seed: 2025,
        requests: 48,
        arrival_rate_per_s: 8.0,
        prompt_tokens: (150, 250),
        output_tokens: (150, 250),
    }
}

/// Sweeps offered load on the SCD blade (16 TB/s per SPU) into an
/// SLO-vs-throughput frontier.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn scd_serving_frontier() -> Result<Vec<FrontierPoint>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
        .model(&model)
        .parallelism(&par)
        .max_batch(64)
        .poisson(base_trace())
        .compile()?
        .frontier(&[2.0, 8.0, 32.0, 128.0])
}

/// Renders the frontier sweep.
#[must_use]
pub fn render_serving_frontier(points: &[FrontierPoint]) -> String {
    let mut out = String::from(
        "Continuous-batching frontier: Llama-405B on the SCD blade (TP=64, 16 TB/s)\n\
         seeded Poisson trace, 48 requests, I/O ~200/200, KV capacity = cryo-DRAM − weights\n\n\
         rate(req/s)  tok/s  goodput  TTFT p95(ms)  TPOT p95(ms)  mean B  evict\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<13}{:>5.0}{:>9.0}{:>14.0}{:>14.2}{:>8.1}{:>7}\n",
            p.arrival_rate_per_s,
            p.report.throughput_tok_s,
            p.report.goodput_tok_s,
            p.report.ttft.p95 * 1e3,
            p.report.tpot.p95 * 1e3,
            p.report.mean_batch,
            p.report.evictions
        ));
    }
    out
}

/// Replays the same trace on the SCD blade and the 64×H100 baseline,
/// each against its own KV capacity.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn scd_vs_gpu_serving() -> Result<Comparison<ServingReport>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    SpeedupStudy::paper_baseline().serving(&model, &par, &base_trace(), 64)
}

/// Renders the serving comparison.
#[must_use]
pub fn render_serving_comparison(c: &Comparison<ServingReport>) -> String {
    let row = |name: &str, r: &ServingReport| {
        format!(
            "{:<6}{:>7.0}{:>9.0}{:>13.0}{:>13.0}{:>13.2}{:>13.2}{:>9.2}{:>7}\n",
            name,
            r.throughput_tok_s,
            r.goodput_tok_s,
            r.ttft.p50 * 1e3,
            r.ttft.p95 * 1e3,
            r.tpot.p50 * 1e3,
            r.tpot.p95 * 1e3,
            r.mean_batch,
            r.evictions
        )
    };
    format!(
        "Serving the same trace: SCD blade vs 64×H100 (Llama-405B, TP=64)\n\
         48 requests at 8 req/s, I/O ~200/200; p95-TPOT speed-up {:.1}×\n\n\
         sys    tok/s  goodput  TTFT p50(ms)  TTFT p95(ms)  TPOT p50(ms)  TPOT p95(ms)  mean B  evict\n{}{}",
        c.speedup,
        row("SCD", &c.scd),
        row("GPU", &c.gpu)
    )
}

/// The bursty cluster workload: flash crowds of mixed-length requests
/// that expose routing-policy differences (long flat periods would let
/// every policy look alike).
fn bursty_cluster_trace() -> BurstyTraceConfig {
    BurstyTraceConfig {
        seed: 4242,
        requests: 64,
        base_rate_per_s: 2.0,
        burst_rate_per_s: 120.0,
        burst_s: 1.5,
        gap_s: 6.0,
        prompt_tokens: (100, 300),
        output_tokens: (50, 400),
    }
}

/// One row of the cluster routing study.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Routing policy under test.
    pub routing: RoutingPolicy,
    /// Dispatch mode under test.
    pub dispatch: DispatchMode,
    /// The cluster replay outcome.
    pub report: ClusterReport,
}

/// Replays the same bursty trace across 4 SCD blades under every routing
/// policy (per-blade dispatch) plus the central-queue reference: the
/// cluster-scale counterpart of the single-blade frontier.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn cluster_routing_study() -> Result<Vec<ClusterRow>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let system = MultiBladeSystem::new(4)?;
    let trace = bursty_cluster_trace();
    let variants = [
        (RoutingPolicy::RoundRobin, DispatchMode::PerBlade),
        (RoutingPolicy::JoinShortestQueue, DispatchMode::PerBlade),
        (RoutingPolicy::LeastLoadedKv, DispatchMode::PerBlade),
        (RoutingPolicy::JoinShortestQueue, DispatchMode::Central),
    ];
    // 8 decode slots per blade: bursts must queue, so routing and
    // dispatch choices actually show up in the TTFT tail. One compiled
    // scenario, one cost table, four replays.
    let reports = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .trace(&trace)
        .compile()?
        .run_each(&variants)?;
    Ok(variants
        .iter()
        .zip(reports)
        .map(|(&(routing, dispatch), report)| ClusterRow {
            routing,
            dispatch,
            report,
        })
        .collect())
}

/// Renders the routing study.
#[must_use]
pub fn render_cluster_routing(rows: &[ClusterRow]) -> String {
    let mut out = String::from(
        "Cluster serving: one bursty trace across 4 SCD blades (Llama-405B, TP=64 per blade)\n\
         64 requests, 120 req/s flash crowds, 8 slots/blade, I/O 100-300 / 50-400\n\n\
         routing              dispatch   TTFT p99(ms)  TPOT p95(ms)  tok/s  util skew  evict\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<21}{:<11}{:>12.0}{:>14.2}{:>7.0}{:>11.2}{:>7}\n",
            r.routing.to_string(),
            match r.dispatch {
                DispatchMode::PerBlade => "per-blade",
                DispatchMode::Central => "central",
            },
            r.report.report.ttft.p99 * 1e3,
            r.report.report.tpot.p95 * 1e3,
            r.report.report.throughput_tok_s,
            r.report.utilization_skew,
            r.report.report.evictions,
        ));
    }
    out
}

/// One row of the paged-KV study.
#[derive(Debug, Clone)]
pub struct PagedKvRow {
    /// KV layout under test.
    pub layout: KvLayout,
    /// The replay outcome.
    pub report: ServingReport,
}

/// Replays a capacity-starved workload (KV budget ≈ 6 full requests for
/// 12 concurrent slots, via
/// [`Accelerator::with_dram_capacity`](scd_arch::Accelerator)) under
/// contiguous accounting and paged blocks of 16/64/256 tokens: block
/// granularity trades admission parallelism against fragmentation.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn paged_kv_study() -> Result<Vec<PagedKvRow>, OptimusError> {
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1)?;
    let base = SpeedupStudy::paper_baseline().scd_inference();
    // Shrink the per-unit DRAM so the KV budget is ~6 full-length
    // requests while max_batch wants 12.
    let per_token = KvCache {
        batch: 1,
        seq_len: 1,
        precision: base.precision(),
    }
    .bytes(&model, KvConvention::Gqa);
    let weights = weights_per_unit_bytes(&model, &par, base.precision());
    let kv_budget = per_token * f64::from(200 + 200) * 6.0;
    let accel = base
        .accelerator()
        .clone()
        .with_dram_capacity((weights + kv_budget).ceil() as u64);
    let est = InferenceEstimator::new(accel, scd_arch::Blade::baseline().interconnect());
    let trace = TraceConfig {
        seed: 77,
        requests: 32,
        arrival_rate_per_s: 24.0,
        prompt_tokens: (150, 250),
        output_tokens: (150, 250),
    };
    let mut rows = Vec::new();
    for layout in [
        KvLayout::Contiguous,
        KvLayout::Paged { block_tokens: 16 },
        KvLayout::Paged { block_tokens: 64 },
        KvLayout::Paged { block_tokens: 256 },
    ] {
        let report = Scenario::on_estimator(est.clone())
            .model(&model)
            .parallelism(&par)
            .max_batch(12)
            .kv_layout(layout)
            .poisson(trace)
            .compile()?
            .run()?
            .report;
        rows.push(PagedKvRow { layout, report });
    }
    Ok(rows)
}

/// Renders the paged-KV study.
#[must_use]
pub fn render_paged_kv(rows: &[PagedKvRow]) -> String {
    let mut out = String::from(
        "Paged KV under capacity pressure: Llama2-7B, KV budget ≈ 6 requests, 12 slots\n\
         32 requests at 24 req/s, I/O ~200/200\n\n\
         layout           mean B  evict  wasted tok  frag peak(MB)  TTFT p99(ms)\n",
    );
    for r in rows {
        let name = match r.layout {
            KvLayout::Contiguous => "contiguous".to_owned(),
            KvLayout::Paged { block_tokens } => format!("paged/{block_tokens}"),
        };
        out.push_str(&format!(
            "{:<17}{:>6.2}{:>7}{:>12}{:>15.1}{:>14.0}\n",
            name,
            r.report.mean_batch,
            r.report.evictions,
            r.report.wasted_tokens,
            r.report.kv_fragmentation_peak_bytes / 1e6,
            r.report.ttft.p99 * 1e3,
        ));
    }
    out
}

/// One row of the disaggregation study.
#[derive(Debug, Clone)]
pub struct DisaggRow {
    /// Human-readable topology label ("4 mixed", "2P + 2D").
    pub label: &'static str,
    /// The replay outcome.
    pub report: ClusterReport,
}

/// The prefill-heavy flash-crowd workload disaggregation exists for:
/// long prompts, short outputs, bursts that force prompt passes to
/// collide with running decodes on mixed blades.
fn prefill_heavy_trace() -> BurstyTraceConfig {
    BurstyTraceConfig {
        seed: 808,
        requests: 48,
        base_rate_per_s: 2.0,
        burst_rate_per_s: 80.0,
        burst_s: 1.0,
        gap_s: 5.0,
        prompt_tokens: (512, 1024),
        output_tokens: (16, 48),
    }
}

/// Replays the same prefill-heavy bursty trace on 4 SCD blades as a
/// 2-prefill + 2-decode DistServe-style split versus 4 interchangeable
/// mixed blades: dedicating prefill blades keeps long prompt passes out
/// of the decode iterations, cutting the worst decode stall and the
/// inter-token tail at the cost of the fabric handoff.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn disaggregation_study() -> Result<Vec<DisaggRow>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let system = MultiBladeSystem::new(4)?;
    let trace = prefill_heavy_trace();
    let variants: [(&'static str, Topology); 2] = [
        ("4 mixed", Topology::mixed(4)),
        ("2P + 2D", Topology::disaggregated(2, 2)),
    ];
    variants
        .into_iter()
        .map(|(label, topology)| {
            let report = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(6)
                .trace(&trace)
                .topology(topology)
                .compile()?
                .run()?;
            Ok(DisaggRow { label, report })
        })
        .collect()
}

/// Renders the disaggregation study.
#[must_use]
pub fn render_disaggregation(rows: &[DisaggRow]) -> String {
    let mut out = String::from(
        "Disaggregated prefill/decode: 2P+2D split vs 4 mixed blades (Llama-405B, TP=64)\n\
         prefill-heavy flash crowds: 48 requests, prompts 512-1024, outputs 16-48\n\n\
         topology   TTFT p50(ms)  TTFT p99(ms)  TPOT p99(ms)  max step(ms)  tok/s\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11}{:>12.0}{:>14.0}{:>14.2}{:>14.0}{:>7.0}\n",
            r.label,
            r.report.report.ttft.p50 * 1e3,
            r.report.report.ttft.p99 * 1e3,
            r.report.report.tpot.p99 * 1e3,
            r.report.report.max_step_s * 1e3,
            r.report.report.throughput_tok_s,
        ));
    }
    out
}

/// Path of the bundled Azure-LLM-shaped recorded trace sample.
#[must_use]
pub fn recorded_trace_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/data/azure_llm_sample.csv")
}

/// Replays the bundled recorded trace (Azure-LLM-shaped prompt/output
/// distributions) as a blade-count capacity sweep (1/2/4 SCD blades,
/// JSQ routing) — the cluster studies on recorded arrivals the ROADMAP
/// asked for — with interactive/batch SLO classes assigned by output
/// length.
///
/// # Errors
///
/// Propagates IO ([`OptimusError::Io`]) and simulation failures.
pub fn recorded_trace_study() -> Result<Vec<RecordedRow>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let trace = CsvTrace::from_path(recorded_trace_path())?;
    [1u32, 2, 4]
        .into_iter()
        .map(|blades| {
            let system = MultiBladeSystem::new(blades)?;
            let report = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(8)
                .trace(&trace)
                .routing(RoutingPolicy::JoinShortestQueue)
                .slo_classes(vec![
                    SloClass::new("interactive", 4.0, 0.05),
                    SloClass::batch(),
                ])
                .classify(|r| u32::from(r.output_tokens > 200))
                .compile()?
                .run()?;
            Ok(RecordedRow { blades, report })
        })
        .collect()
}

/// One row of the recorded-trace capacity sweep.
#[derive(Debug, Clone)]
pub struct RecordedRow {
    /// Blades serving the recorded trace.
    pub blades: u32,
    /// The replay outcome (with per-class breakdown).
    pub report: ClusterReport,
}

/// Renders the recorded-trace study with its per-class breakdown.
#[must_use]
pub fn render_recorded_trace(rows: &[RecordedRow]) -> String {
    let mut out = String::from(
        "Recorded arrivals: bundled Azure-LLM-shaped sample, blade-count sweep (JSQ)\n\
         (Llama-405B, TP=64 per blade; 64 requests, log-normal prompts ~900, outputs ~180)\n\n\
         blades  TTFT p50(ms)  TTFT p99(ms)  tok/s  mean B  inter-goodput  batch-goodput\n",
    );
    for r in rows {
        let class = |name: &str| r.report.report.class(name).map_or(0.0, |c| c.goodput_tok_s);
        out.push_str(&format!(
            "{:<8}{:>12.0}{:>14.0}{:>7.0}{:>8.2}{:>15.0}{:>15.0}\n",
            r.blades,
            r.report.report.ttft.p50 * 1e3,
            r.report.report.ttft.p99 * 1e3,
            r.report.report.throughput_tok_s,
            r.report.report.mean_batch,
            class("interactive"),
            class("batch"),
        ));
    }
    out
}

/// One row of the prefix-caching study.
#[derive(Debug, Clone)]
pub struct PrefixCacheRow {
    /// Topology label ("1 blade", "1P + 3D").
    pub topology: &'static str,
    /// Fraction of requests sharing a system prompt.
    pub share: f64,
    /// Whether prefix caching was enabled.
    pub caching: bool,
    /// The replay outcome.
    pub report: ClusterReport,
}

/// The system-prompt-heavy workload prefix caching exists for: a few
/// long (unaligned, so copy-on-write fires) system prompts Zipf-shared
/// across most requests, each followed by a short unique user turn.
fn prefix_trace(share: f64) -> SharedPrefixTraceConfig {
    SharedPrefixTraceConfig {
        seed: 1717,
        requests: 48,
        arrival_rate_per_s: 12.0,
        prefixes: 3,
        prefix_tokens: (600, 900),
        zipf_s: 1.0,
        share_fraction: share,
        unique_prompt_tokens: (32, 128),
        output_tokens: (32, 96),
    }
}

/// Replays the same system-prompt-heavy workload with prefix caching off
/// and on, at equal KV capacity, sweeping the fraction of requests that
/// share a prefix (0 / 0.5 / 0.9) on one SCD blade and comparing the
/// disaggregated 1P+3D split at the 0.9 point: cached prefixes skip
/// their prefill (on the prefill tier too), so TTFT tails collapse as
/// sharing rises, while ref-counted shared blocks keep the reported
/// occupancy honest (stored once, not per sequence).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn prefix_caching_study() -> Result<Vec<PrefixCacheRow>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let system = MultiBladeSystem::new(4)?;
    let mut rows = Vec::new();
    for share in [0.0, 0.5, 0.9] {
        for caching in [false, true] {
            let mut s = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
                .model(&model)
                .parallelism(&par)
                .max_batch(8)
                .trace(&prefix_trace(share));
            if caching {
                s = s.prefix_caching(16);
            }
            rows.push(PrefixCacheRow {
                topology: "1 blade",
                share,
                caching,
                report: s.compile()?.run()?,
            });
        }
    }
    for caching in [false, true] {
        let mut s = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .topology(Topology::disaggregated(1, 3))
            .trace(&prefix_trace(0.9));
        if caching {
            s = s.prefix_caching(16);
        }
        rows.push(PrefixCacheRow {
            topology: "1P + 3D",
            share: 0.9,
            caching,
            report: s.compile()?.run()?,
        });
    }
    Ok(rows)
}

/// Renders the prefix-caching study.
#[must_use]
pub fn render_prefix_caching(rows: &[PrefixCacheRow]) -> String {
    let mut out = String::from(
        "Prefix caching: shared system prompts stored once vs per-request\n\
         (Llama-405B, TP=64; 48 requests, 600-900-token prompts Zipf-shared, equal KV)\n\n\
         topology  share  cache  hit rate  tok saved  shared pk(MB)  TTFT p50(ms)  TTFT p99(ms)  goodput\n",
    );
    for r in rows {
        let rep = &r.report.report;
        out.push_str(&format!(
            "{:<10}{:<7.1}{:<7}{:>8.2}{:>11}{:>15.1}{:>14.0}{:>14.0}{:>9.0}\n",
            r.topology,
            r.share,
            if r.caching { "on" } else { "off" },
            rep.prefix_hit_rate(),
            rep.prefix_tokens_saved,
            rep.kv_shared_peak_bytes / 1e6,
            rep.ttft.p50 * 1e3,
            rep.ttft.p99 * 1e3,
            rep.goodput_tok_s,
        ));
    }
    out
}

/// One row of the cluster-cache coordination study.
#[derive(Debug, Clone)]
pub struct ClusterCacheRow {
    /// Routing policy under test.
    pub routing: RoutingPolicy,
    /// Whether the global KV cache tier was enabled.
    pub tier: bool,
    /// Blade-cache eviction order.
    pub eviction: CacheEviction,
    /// The replay outcome.
    pub report: ClusterReport,
}

/// The multi-tenant workload cluster coordination exists for: several
/// Zipf-popular system prompts spread over four blades, with per-blade
/// KV tight enough that a blade holding every prompt's cache thrashes.
fn cluster_cache_trace() -> SharedPrefixTraceConfig {
    SharedPrefixTraceConfig {
        seed: 4242,
        requests: 96,
        arrival_rate_per_s: 300.0,
        prefixes: 8,
        prefix_tokens: (600, 900),
        zipf_s: 1.2,
        share_fraction: 0.9,
        unique_prompt_tokens: (32, 128),
        output_tokens: (8, 32),
    }
}

/// Replays the same Zipf-shared multi-prompt workload over a 4-blade
/// cluster at *equal aggregate KV*, sweeping the coordination stack in:
/// round-robin and join-shortest-queue scatter every prompt over every
/// blade (each blade caches — and thrashes — all of them), cache-aware
/// routing concentrates each prompt's requests on the blade already
/// holding its blocks, the global KV tier streams the head prompt's
/// blocks to blades that are still cold, and LFU eviction keeps the
/// Zipf head resident where LRU recency drops it during tail bursts.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn cluster_cache_study() -> Result<Vec<ClusterCacheRow>, OptimusError> {
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1)?;
    let system = MultiBladeSystem::new(4)?;
    let trace = cluster_cache_trace();
    // Per-blade KV sized to hold roughly two of the eight prompts'
    // blocks plus the running batch — identical across every variant,
    // so the sweep compares coordination, not capacity.
    let per_token = KvCache {
        batch: 1,
        seq_len: 1,
        precision: system.inference_estimator().precision(),
    }
    .bytes(&model, KvConvention::Gqa);
    let capacity = 2048.0 * per_token;
    let variants = [
        (RoutingPolicy::RoundRobin, false, CacheEviction::Lru),
        (RoutingPolicy::JoinShortestQueue, false, CacheEviction::Lru),
        (RoutingPolicy::CacheAware, false, CacheEviction::Lru),
        (RoutingPolicy::CacheAware, true, CacheEviction::Lru),
        (RoutingPolicy::CacheAware, true, CacheEviction::Lfu),
    ];
    variants
        .into_iter()
        .map(|(routing, tier, eviction)| {
            let mut s = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(8)
                .kv_capacity_bytes(capacity)
                .routing(routing)
                .prefix_caching(16)
                .cache_eviction(eviction)
                .trace(&trace);
            if tier {
                // The tier holds what one warm blade holds: enough for
                // every prompt's chain, far less than 4x the blade KV.
                s = s.global_kv_cache(8192);
            }
            Ok(ClusterCacheRow {
                routing,
                tier,
                eviction,
                report: s.compile()?.run()?,
            })
        })
        .collect()
}

/// Renders the cluster-cache coordination study.
#[must_use]
pub fn render_cluster_cache(rows: &[ClusterCacheRow]) -> String {
    let mut out = String::from(
        "Cluster cache coordination: routing x global tier x eviction at equal aggregate KV\n\
         (Llama-2-7B, 4 blades; 96 requests over 8 Zipf-shared prompts, 90% tagged)\n\n\
         routing              tier  evict  hit rate  tok saved  streams  fabric(MB)  skew(MB)  TTFT p50(ms)  TTFT p99(ms)  goodput\n",
    );
    for r in rows {
        let rep = &r.report.report;
        out.push_str(&format!(
            "{:<21}{:<6}{:<7}{:>8.2}{:>11}{:>9}{:>12.1}{:>10.1}{:>14.0}{:>14.0}{:>9.0}\n",
            r.routing.to_string(),
            if r.tier { "on" } else { "off" },
            match r.eviction {
                CacheEviction::Lru => "lru",
                CacheEviction::Lfu => "lfu",
            },
            rep.prefix_hit_rate(),
            rep.prefix_tokens_saved,
            rep.remote_prefix_streams,
            rep.remote_kv_streamed_bytes / 1e6,
            r.report.cache_residency_skew / 1e6,
            rep.ttft.p50 * 1e3,
            rep.ttft.p99 * 1e3,
            rep.goodput_tok_s,
        ));
    }
    out
}

/// One row of the SLO-class policy study.
#[derive(Debug, Clone)]
pub struct SloPolicyRow {
    /// Scheduling policy under test.
    pub policy: &'static str,
    /// The replay outcome (with per-class breakdown).
    pub report: ServingReport,
}

/// An overloaded single blade serving a mixed population — interactive
/// requests (short outputs, a tight 2 s TTFT / 20 ms TPOT target,
/// double weight) against batch requests (long outputs, loose targets) —
/// under FCFS, SJF and SJF + max-wait-guard: the ROADMAP's SLO-class
/// goodput comparison. The whole population arrives as one flash burst,
/// so FCFS leaves interactive requests queued behind long batch jobs
/// past their TTFT target while SJF runs the short jobs first, buying
/// interactive goodput at the batch class's expense.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn slo_class_study() -> Result<Vec<SloPolicyRow>, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let trace = TraceConfig {
        seed: 99,
        requests: 48,
        arrival_rate_per_s: f64::INFINITY,
        prompt_tokens: (64, 256),
        output_tokens: (8, 256),
    };
    let classes = || {
        vec![
            SloClass::new("interactive", 2.0, 0.02).with_weight(2.0),
            SloClass::new("batch", 60.0, 0.5),
        ]
    };
    let scenario = || {
        Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .poisson(trace)
            .slo_classes(classes())
            .classify(|r| u32::from(r.output_tokens > 64))
    };
    let mut rows = Vec::new();
    for (name, scenario) in [
        ("fcfs", scenario().policy(FcfsPolicy)),
        ("sjf", scenario().policy(SjfPolicy)),
        (
            "sjf+guard(2s)",
            scenario().policy(MaxWaitGuardPolicy::new(2.0)),
        ),
    ] {
        rows.push(SloPolicyRow {
            policy: name,
            report: scenario.compile()?.run()?.report,
        });
    }
    Ok(rows)
}

/// Renders the SLO-class policy study.
#[must_use]
pub fn render_slo_classes(rows: &[SloPolicyRow]) -> String {
    let mut out = String::from(
        "SLO-class goodput under admission policies: one flash-crowded SCD blade\n\
         (Llama-405B, TP=64; interactive = tight 2 s/20 ms targets, 2× weight)\n\n\
         policy         inter-attain  inter-goodput  batch-attain  batch-goodput  weighted\n",
    );
    for r in rows {
        let c = |name: &str| r.report.class(name).expect("class present");
        out.push_str(&format!(
            "{:<15}{:>12.2}{:>15.0}{:>14.2}{:>15.0}{:>10.0}\n",
            r.policy,
            c("interactive").slo_attainment,
            c("interactive").goodput_tok_s,
            c("batch").slo_attainment,
            c("batch").goodput_tok_s,
            r.report.weighted_goodput_tok_s(),
        ));
    }
    out
}

/// One overload row of the control-plane study.
#[derive(Debug, Clone)]
pub struct ControlRow {
    /// Configuration under test.
    pub label: &'static str,
    /// The cluster replay outcome.
    pub report: ClusterReport,
}

/// The closed-loop control-plane study: class-aware ordering and load
/// shedding under overload, plus the queue-depth autoscaler on a
/// diurnal trace.
#[derive(Debug, Clone)]
pub struct ControlPlaneStudy {
    /// Flash-crowd rows: fcfs / strict-priority / weighted-fair /
    /// fcfs + shedding gate.
    pub overload: Vec<ControlRow>,
    /// The attainment floor the shedding gate defends.
    pub floor: f64,
    /// Diurnal trace on 4 always-on blades (the reference).
    pub fixed: ClusterReport,
    /// The same trace with the 1..=4-blade queue-depth autoscaler.
    pub autoscaled: ClusterReport,
}

/// Requests in the diurnal autoscaling phase.
pub const CONTROL_DIURNAL_REQUESTS: u32 = 480;

/// Closes the serving control loop. Phase one drives one blade at a
/// sustained ~2× overload with [`slo_class_study`]'s mixed
/// interactive/batch population, under FCFS, strict-priority,
/// weighted-fair, and FCFS behind the load-shedding admission gate:
/// class-aware ordering must buy weighted goodput, and the gate must
/// hold interactive attainment at its floor by shedding batch work.
/// Phase two replays a day/night diurnal trace against a fixed 4-blade
/// pool and against the queue-depth autoscaler, which must track the
/// peaks without flapping.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn control_plane_study() -> Result<ControlPlaneStudy, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    // Phase one: sustained ~2× overload on ONE blade. The 4 decode
    // slots clear roughly 20 req/s of this population, so 40 req/s
    // builds an ever-deeper backlog: admission order decides who meets
    // the 0.5 s TTFT target, and — unlike a one-shot flash crowd,
    // whose misses only finish after the queue has already drained —
    // the backlog keeps feeding the shedding gate's attainment window
    // while there is still work left to protect.
    let trace = TraceConfig {
        seed: 99,
        requests: 192,
        arrival_rate_per_s: 40.0,
        prompt_tokens: (64, 256),
        output_tokens: (8, 256),
    };
    let classes = || {
        vec![
            SloClass::new("interactive", 0.5, 0.02).with_weight(2.0),
            SloClass::new("batch", 60.0, 0.5),
        ]
    };
    let floor = 0.8;
    let scenario = || {
        Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .poisson(trace)
            .slo_classes(classes())
            .classify(|r| u32::from(r.output_tokens > 64))
    };
    let gate = ControlPlane::new().shed(
        AdmissionControl::new(0, floor)
            .with_window(8, 2)
            .with_resume_margin(0.1),
    );
    let mut overload = Vec::new();
    for (label, scenario) in [
        ("fcfs", scenario().policy(FcfsPolicy)),
        (
            "strict-priority",
            scenario().policy(StrictPriorityPolicy::new()),
        ),
        (
            "weighted-fair",
            scenario().policy(WeightedFairPolicy::new()),
        ),
        ("fcfs+shed", scenario().policy(FcfsPolicy).control(gate)),
    ] {
        overload.push(ControlRow {
            label,
            report: scenario.compile()?.run()?,
        });
    }

    // Phase two: day/night arrivals on the 4-blade central queue.
    // Daytime peaks (~2× the mean) swamp a single blade, overnight
    // troughs leave the pool idle — the autoscaler's habitat.
    let system = MultiBladeSystem::new(4)?;
    let diurnal = DiurnalTraceConfig {
        seed: 7,
        requests: CONTROL_DIURNAL_REQUESTS,
        mean_rate_per_s: 8.0,
        amplitude: 0.9,
        period_s: 30.0,
        prompt_tokens: (64, 256),
        output_tokens: (128, 384),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .dispatch(DispatchMode::Central)
            .trace(&diurnal)
    };
    let fixed = base().compile()?.run()?;
    let autoscaled = base()
        .control(
            ControlPlane::new().autoscale(
                AutoscaleConfig::new(1, 4)
                    .with_watermarks(1, 6)
                    .with_warmup(0.5)
                    .with_cooldown(2.0),
            ),
        )
        .compile()?
        .run()?;
    Ok(ControlPlaneStudy {
        overload,
        floor,
        fixed,
        autoscaled,
    })
}

/// Renders the control-plane study.
#[must_use]
pub fn render_control_plane(study: &ControlPlaneStudy) -> String {
    let mut out = format!(
        "Control plane: class-aware ordering + shedding at 2x sustained overload\n\
         (one SCD blade, 4 slots; interactive 0.5 s/20 ms targets, 2x weight;\n\
         shedding gate defends interactive attainment >= {:.2})\n\n\
         config           inter-attain  inter-goodput  shed  weighted\n",
        study.floor
    );
    for r in &study.overload {
        let inter = r.report.report.class("interactive").expect("class present");
        out.push_str(&format!(
            "{:<17}{:>12.2}{:>15.0}{:>6}{:>10.0}\n",
            r.label,
            inter.slo_attainment,
            inter.goodput_tok_s,
            r.report.report.shed_requests,
            r.report.report.weighted_goodput_tok_s(),
        ));
    }
    let line = |label: &str, rep: &ClusterReport| {
        format!(
            "{:<11}{:>7}{:>13}{:>13.0}{:>15.0}\n",
            label,
            rep.peak_blades,
            rep.scale_events,
            rep.report.ttft.p99 * 1e3,
            rep.report.throughput_tok_s,
        )
    };
    out.push_str(&format!(
        "\nAutoscaler on the diurnal trace ({} requests, 8 req/s mean, 0.9 swing):\n\n\
         pool       blades  scale-events  TTFT p99(ms)  tok/s\n{}{}",
        CONTROL_DIURNAL_REQUESTS,
        line("fixed-4", &study.fixed),
        line("auto-1..4", &study.autoscaled),
    ));
    out
}

/// The telemetry study outcome: the windowed series pinned against the
/// exact event timeline on both control-plane phases, plus the run-long
/// sketch/exact tail comparison and the simulator self-profile.
#[derive(Debug, Clone)]
pub struct TelemetryStudy {
    /// Overload replay (FCFS + shedding gate) with telemetry mounted.
    pub overload: ClusterReport,
    /// Exact instant of the first shed (the gate opening).
    pub shed_open_s: f64,
    /// Exact instant of the last shed (the gate's final close).
    pub shed_close_s: f64,
    /// `[start, end)` of the telemetry window resolving the gate open.
    pub shed_open_window: (f64, f64),
    /// `[start, end)` of the telemetry window resolving the gate close.
    pub shed_close_window: (f64, f64),
    /// Diurnal autoscaled replay with telemetry + profiling mounted.
    pub autoscaled: ClusterReport,
    /// Start of the first window whose queue depth crossed the scale-up
    /// watermark.
    pub depth_cross_s: f64,
    /// Exact instant of the first scale-up.
    pub scale_up_s: f64,
    /// Autoscaler reaction lag the series resolves:
    /// `scale_up_s - depth_cross_s`.
    pub scale_lag_s: f64,
    /// Run-long P² sketch estimate of the p99 request latency (s).
    pub sketch_p99_s: f64,
    /// Exact nearest-rank p99 request latency from the report (s).
    pub exact_p99_s: f64,
    /// Self-profile of the autoscaled replay.
    pub profile: ProfileReport,
    /// Windowed series of the autoscaled phase.
    pub windows: Vec<WindowRow>,
    /// The wide-row CSV export of the autoscaled phase.
    pub csv: String,
    /// The Prometheus text-format export of the autoscaled phase.
    pub prometheus: String,
}

/// The window of `rows` containing instant `t` (falling back to the
/// last window for the replay's final event, whose window is closed by
/// the end-of-run flush).
fn window_at(rows: &[WindowRow], t: f64) -> &WindowRow {
    rows.iter()
        .find(|w| w.start_s <= t && t < w.end_s)
        .or_else(|| rows.last())
        .expect("telemetry recorded windows")
}

/// Mounts the telemetry collector on both control-plane phases and
/// checks the series against the exact event timeline. Phase one
/// replays [`control_plane_study`]'s FCFS + shedding-gate overload with
/// a [`crate::timeline::TimelineObserver`] co-mounted: the windows
/// containing the exact first and last shed instants must themselves
/// record sheds, and the windowed shed counts must conserve the
/// report's total. Phase two replays the diurnal autoscaled pool: the
/// queue-depth series must cross the scale-up watermark at or before
/// the first scale-up, the window holding that scale-up must record it,
/// and the run-long P² latency sketch must land within 10 % of the
/// report's exact nearest-rank p99.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics when the telemetry series fails to resolve the gate or the
/// autoscaler — the study's acceptance checks.
pub fn telemetry_study() -> Result<TelemetryStudy, OptimusError> {
    use crate::timeline::TimelineObserver;
    use optimus::serving::telemetry::profile;
    use optimus::serving::EventKind;
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;

    // Phase one: the control-plane study's sustained ~2x overload under
    // FCFS + the shedding gate, with quarter-second telemetry windows.
    let trace = TraceConfig {
        seed: 99,
        requests: 192,
        arrival_rate_per_s: 40.0,
        prompt_tokens: (64, 256),
        output_tokens: (8, 256),
    };
    let gate = ControlPlane::new().shed(
        AdmissionControl::new(0, 0.8)
            .with_window(8, 2)
            .with_resume_margin(0.1),
    );
    let mut shed_timeline = TimelineObserver::default();
    let (overload, shed_tel) =
        Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .poisson(trace)
            .slo_classes(vec![
                SloClass::new("interactive", 0.5, 0.02).with_weight(2.0),
                SloClass::new("batch", 60.0, 0.5),
            ])
            .classify(|r| u32::from(r.output_tokens > 64))
            .policy(FcfsPolicy)
            .control(gate)
            .telemetry(TelemetryConfig {
                window_s: 0.25,
                max_windows: 512,
            })
            .compile()?
            .run_observed_with_telemetry(&mut shed_timeline)?;
    let sheds: Vec<f64> = shed_timeline
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Shed { .. }))
        .map(|e| e.clock_s)
        .collect();
    assert!(!sheds.is_empty(), "the overload phase must shed");
    let (shed_open_s, shed_close_s) = (sheds[0], *sheds.last().expect("non-empty"));
    let shed_rows = shed_tel.cluster_windows();
    let open_w = window_at(&shed_rows, shed_open_s);
    let close_w = window_at(&shed_rows, shed_close_s);
    assert!(
        open_w.sheds > 0 && close_w.sheds > 0,
        "the series must resolve the gate's open and close instants"
    );
    assert_eq!(
        shed_rows.iter().map(|w| w.sheds).sum::<u64>(),
        overload.report.shed_requests,
        "windowed sheds must conserve the report total"
    );
    let shed_open_window = (open_w.start_s, open_w.end_s);
    let shed_close_window = (close_w.start_s, close_w.end_s);

    // Phase two: the diurnal autoscaled pool, profiled, at half-second
    // resolution (finer than the 0.5 s warm-up it must resolve).
    let high_watermark = 6;
    let system = MultiBladeSystem::new(4)?;
    let diurnal = DiurnalTraceConfig {
        seed: 7,
        requests: CONTROL_DIURNAL_REQUESTS,
        mean_rate_per_s: 8.0,
        amplitude: 0.9,
        period_s: 30.0,
        prompt_tokens: (64, 256),
        output_tokens: (128, 384),
    };
    let mut scale_timeline = TimelineObserver::default();
    let compiled = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(4)
        .dispatch(DispatchMode::Central)
        .trace(&diurnal)
        .control(
            ControlPlane::new().autoscale(
                AutoscaleConfig::new(1, 4)
                    .with_watermarks(1, high_watermark)
                    .with_warmup(0.5)
                    .with_cooldown(2.0),
            ),
        )
        .telemetry(TelemetryConfig {
            window_s: 0.5,
            max_windows: 512,
        })
        .compile()?;
    profile::start();
    let replay = compiled.run_observed_with_telemetry(&mut scale_timeline);
    let profile = profile::stop();
    let (autoscaled, tel) = replay?;
    assert!(autoscaled.scale_events > 0, "the diurnal peak must scale");
    let scale_up_s = scale_timeline
        .events
        .iter()
        .find(|e| {
            matches!(e.kind, EventKind::Scale { active_from, active_to } if active_to > active_from)
        })
        .map(|e| e.clock_s)
        .expect("the first scale event is a scale-up");
    let windows = tel.cluster_windows();
    // The depth series must see the backlog cross the watermark at or
    // before the scale-up it triggers — the lag the series resolves.
    let depth_cross_s = windows
        .iter()
        .find(|w| w.queue_depth >= high_watermark && w.start_s <= scale_up_s)
        .map(|w| w.start_s)
        .expect("the depth series must cross the watermark before scale-up");
    let scale_lag_s = scale_up_s - depth_cross_s;
    assert!(scale_lag_s >= 0.0);
    assert!(
        window_at(&windows, scale_up_s).scale_events > 0,
        "the series must resolve the scale-up window"
    );
    assert!(
        windows.iter().map(|w| w.active_blades).max() > Some(1),
        "the active-blade gauge must follow the scale-up"
    );
    let sketch_p99_s = tel
        .tail(TailMetric::Latency)
        .p99
        .expect("completions were sketched");
    let exact_p99_s = autoscaled.report.latency.p99;
    assert!(
        (sketch_p99_s - exact_p99_s).abs() <= 0.1 * exact_p99_s,
        "P2 p99 {sketch_p99_s} vs exact {exact_p99_s}: off by more than 10%"
    );
    Ok(TelemetryStudy {
        overload,
        shed_open_s,
        shed_close_s,
        shed_open_window,
        shed_close_window,
        autoscaled,
        depth_cross_s,
        scale_up_s,
        scale_lag_s,
        sketch_p99_s,
        exact_p99_s,
        profile,
        csv: tel.to_csv(),
        prometheus: tel.to_prometheus(),
        windows,
    })
}

/// Renders the telemetry study.
#[must_use]
pub fn render_telemetry(study: &TelemetryStudy) -> String {
    let mut out = format!(
        "Telemetry: windowed series vs exact event timeline\n\n\
         Shedding gate (overload phase, 0.25 s windows): {} shed\n\
         gate opens  {:.3} s -> window [{:.2}, {:.2}) s\n\
         gate closes {:.3} s -> window [{:.2}, {:.2}) s\n\n\
         Autoscaler (diurnal phase, 0.5 s windows): {} scale events\n\
         depth crosses watermark at {:.2} s, first scale-up at {:.3} s \
         (lag {:.2} s)\n\n\
         Run-long P2 sketch vs exact nearest-rank (request latency):\n\
         p99 sketch {:.3} s vs exact {:.3} s ({:+.1}%)\n",
        study.overload.report.shed_requests,
        study.shed_open_s,
        study.shed_open_window.0,
        study.shed_open_window.1,
        study.shed_close_s,
        study.shed_close_window.0,
        study.shed_close_window.1,
        study.autoscaled.scale_events,
        study.depth_cross_s,
        study.scale_up_s,
        study.scale_lag_s,
        study.sketch_p99_s,
        study.exact_p99_s,
        (study.sketch_p99_s / study.exact_p99_s - 1.0) * 100.0,
    );
    let p = &study.profile;
    out.push_str(&format!(
        "\nSelf-profile of the autoscaled replay:\n\
         phase            calls      wall(ms)\n\
         admission   {:>10}{:>12.1}\n\
         routing     {:>10}{:>12.1}\n\
         stretch-plan{:>10}{:>12.1}\n\
         leapfrog    {:>10}{:>12.1}\n\
         table-chunks{:>10}{:>12.1}\n\
         heap-ops    {:>10}\n",
        p.admission_rounds,
        p.admission_s * 1e3,
        p.routing_calls,
        p.routing_s * 1e3,
        p.stretch_plans,
        p.stretch_plan_s * 1e3,
        p.leapfrogs,
        p.leapfrog_s * 1e3,
        p.cost_table_builds,
        p.cost_table_s * 1e3,
        p.heap_ops,
    ));
    out.push_str(&format!(
        "\nExports: {} CSV rows ({} windows), {} Prometheus lines\n",
        study.csv.lines().count().saturating_sub(1),
        study.windows.len(),
        study.prometheus.lines().count(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_saturates_gracefully() {
        let pts = scd_serving_frontier().unwrap();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert_eq!(p.report.completed, 48);
        }
        // Tail TTFT must grow with offered load; throughput must not
        // collapse.
        assert!(pts.last().unwrap().report.ttft.p95 >= pts[0].report.ttft.p95);
        assert!(
            pts.last().unwrap().report.throughput_tok_s >= pts[0].report.throughput_tok_s * 0.9
        );
        assert!(render_serving_frontier(&pts).contains("TPOT p95"));
    }

    #[test]
    fn serving_comparison_reports_scd_advantage() {
        let c = scd_vs_gpu_serving().unwrap();
        assert!(c.speedup > 2.0, "got {:.2}", c.speedup);
        assert!(c.scd.tpot.p95 < c.gpu.tpot.p95);
        assert!(render_serving_comparison(&c).contains("speed-up"));
    }

    #[test]
    fn join_shortest_queue_beats_round_robin_on_bursty_p99_ttft() {
        // The PR 3 cluster acceptance criterion: under flash-crowd
        // arrivals with heavily mixed lengths, load-aware routing must
        // beat blind round-robin on tail TTFT and spread load more
        // evenly.
        let rows = cluster_routing_study().unwrap();
        let find = |routing, dispatch| {
            rows.iter()
                .find(|r| r.routing == routing && r.dispatch == dispatch)
                .expect("row present")
        };
        let rr = find(RoutingPolicy::RoundRobin, DispatchMode::PerBlade);
        let jsq = find(RoutingPolicy::JoinShortestQueue, DispatchMode::PerBlade);
        assert_eq!(rr.report.report.completed, 64);
        assert_eq!(jsq.report.report.completed, 64);
        assert!(
            jsq.report.report.ttft.p99 < rr.report.report.ttft.p99 * 0.85,
            "JSQ p99 TTFT {:.1} ms must beat RR {:.1} ms by a clear margin",
            jsq.report.report.ttft.p99 * 1e3,
            rr.report.report.ttft.p99 * 1e3
        );
        assert!(
            jsq.report.utilization_skew <= rr.report.utilization_skew,
            "JSQ skew {:.3} vs RR {:.3}",
            jsq.report.utilization_skew,
            rr.report.utilization_skew
        );
        assert!(render_cluster_routing(&rows).contains("join-shortest-queue"));
    }

    #[test]
    fn paged_kv_study_exposes_fragmentation() {
        let rows = paged_kv_study().unwrap();
        assert_eq!(rows.len(), 4);
        let frag = |r: &PagedKvRow| r.report.kv_fragmentation_peak_bytes;
        assert_eq!(frag(&rows[0]), 0.0, "contiguous does not fragment");
        // Fragmentation grows with block size.
        assert!(frag(&rows[1]) > 0.0);
        assert!(frag(&rows[3]) > frag(&rows[1]));
        for r in &rows {
            assert_eq!(r.report.completed, 32, "{:?}", r.layout);
        }
        assert!(render_paged_kv(&rows).contains("paged/64"));
    }

    #[test]
    fn disaggregated_split_beats_mixed_on_prefill_heavy_load() {
        // The PR 4 acceptance criterion: the 2P+2D split must beat the
        // 4-mixed baseline on decode interference under prefill-heavy
        // flash crowds — a strictly smaller worst iteration stall and a
        // lower inter-token p99.
        let rows = disaggregation_study().unwrap();
        assert_eq!(rows.len(), 2);
        let mixed = &rows[0].report.report;
        let disagg = &rows[1].report.report;
        assert_eq!(mixed.completed, 48);
        assert_eq!(disagg.completed, 48);
        assert!(
            disagg.max_step_s < mixed.max_step_s,
            "dedicated prefill blades must bound the decode stall: {} vs {}",
            disagg.max_step_s,
            mixed.max_step_s
        );
        assert!(
            disagg.tpot.p99 < mixed.tpot.p99,
            "disaggregation must cut the inter-token tail: {} vs {}",
            disagg.tpot.p99,
            mixed.tpot.p99
        );
        assert!(render_disaggregation(&rows).contains("2P + 2D"));
    }

    #[test]
    fn recorded_trace_study_runs_on_bundled_sample() {
        let rows = recorded_trace_study().unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.report.report.completed, 64, "{} blades", r.blades);
            assert_eq!(r.report.report.per_class.len(), 2);
            let split: u32 = r.report.report.per_class.iter().map(|c| c.requests).sum();
            assert_eq!(split, 64, "every request lands in a class");
        }
        // Adding blades never worsens the recorded trace's tail.
        for w in rows.windows(2) {
            assert!(
                w[1].report.report.ttft.p99 <= w[0].report.report.ttft.p99 + 1e-12,
                "{}→{} blades must not inflate p99 TTFT",
                w[0].blades,
                w[1].blades
            );
        }
        assert!(render_recorded_trace(&rows).contains("inter-goodput"));
    }

    #[test]
    fn prefix_caching_wins_materially_on_shared_prompts_at_equal_kv() {
        // The PR 5 acceptance criterion: with 90% of requests sharing a
        // long system prompt, enabling prefix caching at *equal* KV
        // capacity must buy a material TTFT-p99 win (the skipped prefill
        // is the dominant cost), on the single blade and on the
        // disaggregated prefill tier alike — and the reported hit rate /
        // shared occupancy must be consistent with refcount accounting.
        let rows = prefix_caching_study().unwrap();
        assert_eq!(rows.len(), 8);
        let find = |topology: &str, share: f64, caching: bool| {
            &rows
                .iter()
                .find(|r| r.topology == topology && r.share == share && r.caching == caching)
                .expect("row present")
                .report
                .report
        };
        for topology in ["1 blade", "1P + 3D"] {
            let plain = find(topology, 0.9, false);
            let cached = find(topology, 0.9, true);
            assert_eq!(cached.completed, 48, "{topology}");
            assert!(
                cached.ttft.p99 < plain.ttft.p99 * 0.8,
                "{topology}: cached TTFT p99 {:.0} ms must materially beat uncached {:.0} ms",
                cached.ttft.p99 * 1e3,
                plain.ttft.p99 * 1e3
            );
            assert!(
                cached.goodput_tok_s >= plain.goodput_tok_s,
                "{topology}: caching must not cost goodput"
            );
            // Hit-rate / occupancy consistency with the refcount
            // accounting: every prefix-tagged admission was looked up
            // exactly once, savings only come from hits, and the shared
            // pool is bounded by the whole-KV peak.
            assert!(cached.prefix_hits > 0);
            assert!(cached.prefix_hit_rate() > 0.5 && cached.prefix_hit_rate() <= 1.0);
            assert!(cached.prefix_tokens_saved >= 600 * cached.prefix_hits / 2);
            assert!(cached.kv_shared_peak_bytes > 0.0);
            assert!(cached.kv_shared_peak_bytes <= cached.kv_peak_bytes);
            assert_eq!(plain.prefix_hits + plain.prefix_misses, 0);
        }
        // No sharing, caching on: lookups all miss, nothing saved — and
        // the share sweep shows the win growing with the share fraction.
        let none = find("1 blade", 0.0, true);
        assert_eq!(none.prefix_hits, 0);
        assert_eq!(none.prefix_tokens_saved, 0);
        let gain = |share: f64| {
            let plain = find("1 blade", share, false);
            let cached = find("1 blade", share, true);
            plain.ttft.p99 - cached.ttft.p99
        };
        assert!(gain(0.9) > gain(0.5) * 0.9, "more sharing, more win");
        assert!(render_prefix_caching(&rows).contains("hit rate"));
    }

    #[test]
    fn cluster_cache_coordination_wins_at_equal_aggregate_kv() {
        // The coordination acceptance criteria: at equal aggregate KV,
        // cache-aware routing must beat both scatter baselines on hit
        // rate *and* the TTFT tail; the global tier must actually
        // stream blocks to cold blades; and LFU must hold more of the
        // Zipf head resident than LRU under the same pressure.
        let rows = cluster_cache_study().unwrap();
        assert_eq!(rows.len(), 5);
        let find = |routing: RoutingPolicy, tier: bool, eviction: CacheEviction| {
            rows.iter()
                .find(|r| r.routing == routing && r.tier == tier && r.eviction == eviction)
                .expect("row present")
        };
        let rr = find(RoutingPolicy::RoundRobin, false, CacheEviction::Lru);
        let jsq = find(RoutingPolicy::JoinShortestQueue, false, CacheEviction::Lru);
        let aware = find(RoutingPolicy::CacheAware, false, CacheEviction::Lru);
        let tiered = find(RoutingPolicy::CacheAware, true, CacheEviction::Lru);
        let lfu = find(RoutingPolicy::CacheAware, true, CacheEviction::Lfu);
        for r in &rows {
            assert_eq!(r.report.report.completed, 96);
        }
        for baseline in [rr, jsq] {
            assert!(
                aware.report.report.prefix_hit_rate() > baseline.report.report.prefix_hit_rate(),
                "cache-aware hit rate {:.2} must beat {} at {:.2}",
                aware.report.report.prefix_hit_rate(),
                baseline.routing,
                baseline.report.report.prefix_hit_rate()
            );
            assert!(
                aware.report.report.ttft.p99 < baseline.report.report.ttft.p99,
                "cache-aware TTFT p99 {:.0} ms must beat {} at {:.0} ms",
                aware.report.report.ttft.p99 * 1e3,
                baseline.routing,
                baseline.report.report.ttft.p99 * 1e3
            );
        }
        // Affinity concentrates each prompt's blocks on one blade: the
        // residency spread is the price the report makes visible.
        assert!(aware.report.cache_residency_skew >= rr.report.cache_residency_skew);
        // The global tier finds cold blades to warm and wins at least
        // one stream-vs-recompute race over the cluster interconnect.
        let t = &tiered.report.report;
        assert!(t.remote_prefix_hits > 0, "tier must be exercised");
        assert!(
            t.remote_prefix_streams > 0 && t.remote_kv_streamed_bytes > 0.0,
            "the interconnect must win at least one race"
        );
        assert_eq!(
            t.remote_prefix_streams + t.remote_prefix_recomputes,
            t.remote_prefix_hits
        );
        assert!(
            t.prefix_tokens_saved >= aware.report.report.prefix_tokens_saved,
            "streamed tier hits only add to the saved prefill"
        );
        // Popularity-weighted eviction: under the same pressure LFU
        // keeps the Zipf-head prompt's blocks where LRU recency drops
        // them during tail bursts, saving more prefill.
        assert!(
            lfu.report.report.prefix_tokens_saved > tiered.report.report.prefix_tokens_saved,
            "LFU must retain the Zipf head: {} vs LRU {}",
            lfu.report.report.prefix_tokens_saved,
            tiered.report.report.prefix_tokens_saved
        );
        let rendered = render_cluster_cache(&rows);
        assert!(rendered.contains("cache-aware"));
        assert!(rendered.contains("hit rate"));
    }

    #[test]
    fn sjf_buys_interactive_goodput_under_mixed_classes() {
        let rows = slo_class_study().unwrap();
        let find = |name: &str| rows.iter().find(|r| r.policy == name).expect("row");
        let fcfs = find("fcfs").report.class("interactive").unwrap();
        let sjf = find("sjf").report.class("interactive").unwrap();
        assert!(
            sjf.slo_attainment > fcfs.slo_attainment,
            "under the flash burst SJF must lift interactive attainment: {} vs {}",
            sjf.slo_attainment,
            fcfs.slo_attainment
        );
        assert!(
            sjf.ttft.p99 < fcfs.ttft.p99,
            "SJF must cut the interactive TTFT tail: {} vs {}",
            sjf.ttft.p99,
            fcfs.ttft.p99
        );
        assert!(
            find("sjf").report.weighted_goodput_tok_s()
                > find("fcfs").report.weighted_goodput_tok_s(),
            "2×-weighted interactive goodput should favor SJF"
        );
        assert!(render_slo_classes(&rows).contains("weighted"));
    }

    #[test]
    fn control_plane_closes_the_loop() {
        // The PR 7 acceptance criteria, all three control-plane legs.
        let s = control_plane_study().unwrap();
        let find = |label: &str| {
            &s.overload
                .iter()
                .find(|r| r.label == label)
                .expect("row present")
                .report
                .report
        };
        let fcfs = find("fcfs");
        let wf = find("weighted-fair");
        let sp = find("strict-priority");
        for rep in [fcfs, wf, sp] {
            assert_eq!(rep.completed, 192);
            assert_eq!(rep.shed_requests, 0);
        }
        // (1) Class-aware ordering must buy weighted goodput at the
        // (far past 2×) overload the flash crowd creates.
        assert!(
            wf.weighted_goodput_tok_s() > fcfs.weighted_goodput_tok_s(),
            "weighted-fair must beat FCFS on weighted goodput: {:.0} vs {:.0}",
            wf.weighted_goodput_tok_s(),
            fcfs.weighted_goodput_tok_s()
        );
        assert!(
            sp.class("interactive").unwrap().slo_attainment
                >= fcfs.class("interactive").unwrap().slo_attainment,
            "strict priority must not lose interactive attainment to FCFS"
        );
        // (2) The shedding gate holds the strict class at its floor by
        // dropping batch work, where FCFS without the gate misses it.
        let shed = find("fcfs+shed");
        let inter = |rep: &ServingReport| rep.class("interactive").unwrap().slo_attainment;
        assert!(shed.shed_requests > 0, "the gate must actually shed");
        assert_eq!(
            shed.class("interactive").unwrap().shed,
            0,
            "shedding never drops the strict class"
        );
        assert!(
            inter(shed) >= s.floor,
            "with shedding, interactive attainment {:.2} must hold the {:.2} floor",
            inter(shed),
            s.floor
        );
        assert!(
            inter(fcfs) < s.floor,
            "ungated FCFS at {:.2} should miss the {:.2} floor (else the gate is idle)",
            inter(fcfs),
            s.floor
        );
        // (3) The autoscaler tracks the diurnal trace without flapping:
        // every request completes, the pool actually grows past its
        // 1-blade start, and the event count stays bounded.
        assert_eq!(s.fixed.report.completed, CONTROL_DIURNAL_REQUESTS);
        assert_eq!(s.autoscaled.report.completed, CONTROL_DIURNAL_REQUESTS);
        assert!(
            s.autoscaled.peak_blades >= 2,
            "the daytime peak must force a scale-up (peak {})",
            s.autoscaled.peak_blades
        );
        assert!(
            s.autoscaled.scale_events <= 16,
            "bounded flapping: {} scale events over {} requests",
            s.autoscaled.scale_events,
            CONTROL_DIURNAL_REQUESTS
        );
        assert!(
            s.autoscaled.report.throughput_tok_s > s.fixed.report.throughput_tok_s * 0.5,
            "scaling down in the troughs must not halve delivered throughput"
        );
        assert!(render_control_plane(&s).contains("auto-1..4"));
    }

    #[test]
    fn telemetry_study_resolves_gate_and_autoscaler() {
        // The study's own asserts pin the gate's open/close windows, the
        // scale-up lag, shed conservation and the 10 % sketch bound;
        // this test pins the surface it returns.
        let s = telemetry_study().unwrap();
        assert!(s.overload.report.shed_requests > 0);
        assert!(s.shed_open_s <= s.shed_close_s);
        assert!(s.shed_open_window.0 <= s.shed_open_s);
        assert!(s.scale_lag_s >= 0.0);
        assert!(s.depth_cross_s <= s.scale_up_s);
        // The exporters carry the full series.
        assert!(s.csv.starts_with("window_start_s,"));
        assert_eq!(s.csv.lines().count(), s.windows.len() + 1);
        assert!(s.prometheus.contains("# TYPE"));
        // Every engine iteration scans admission (central dispatch pulls
        // from the shared queue without per-blade routing calls).
        assert!(!s.profile.is_empty());
        assert!(s.profile.admission_rounds > 0);
        let rendered = render_telemetry(&s);
        assert!(rendered.contains("gate opens"));
        assert!(rendered.contains("lag"));
        assert!(rendered.contains("admission"));
    }
}
