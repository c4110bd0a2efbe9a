//! Continuous-batching serving: dynamic traffic on top of the
//! per-request estimator, from one blade to a cluster.
//!
//! The paper's batching study (§VI, Fig. 7 inset b) answers a *static*
//! capacity question — the largest batch within a per-token budget. A
//! serving deployment faces a *dynamic* one: requests arrive over time,
//! must be admitted against finite KV-cache capacity, and user experience
//! is set by tail latency, not the mean. This module tree closes that gap
//! with an iteration-level simulator in the style of continuous-batching
//! engines (Orca, vLLM), split along its natural seams:
//!
//! * [`traces`] — where requests come from: seeded Poisson
//!   ([`TraceConfig`]), bursty and diurnal generators, and a CSV loader
//!   for recorded logs, all behind the [`TraceSource`] trait.
//! * [`policy`] — who runs next: the [`SchedulerPolicy`] trait (admission
//!   order + eviction victim) with FCFS, SJF and max-waiting-time-guard
//!   implementations.
//! * [`kv`] — how capacity is charged: contiguous token-granular
//!   accounting or vLLM-style block-granular paging ([`KvLayout`]) with
//!   fragmentation tracking.
//! * [`engine`] — the engine step and the single-blade replay loop
//!   ([`ServingConfig`]): iteration-level admission, recompute-style
//!   preemption, chunked prefill, and decode pricing from a roofline
//!   cost table made for every replay, whose cells are priced in
//!   chunks when the replay first reads them (bucketized-mean fast path
//!   or exact per-sequence spans). Every replay loop is generic over a queue
//!   discipline, and [`SimCore`] picks it: the event-driven default
//!   (incremental queue order, ready times read off the shared queue's
//!   arrival axis, batched decode stretches) or the per-step reference,
//!   bit-identical by construction.
//! * [`events`] — the queue disciplines and their machinery: the shared
//!   queue's ready-time bookkeeping (its sorted arrival axis and the
//!   members off it), policy-ordered queues built on the
//!   [`OrderingContract`] each [`SchedulerPolicy`] declares, and the
//!   closed-form decode fast-forwards.
//! * [`cluster`] — the two multi-blade replays. Mixed clusters
//!   ([`ClusterConfig`]) route round-robin / join-shortest-queue /
//!   least-loaded-KV / cache-aware into per-blade queues, or share one
//!   central queue; role-typed topologies ([`Topology`]) run the
//!   disaggregated prefill→decode loop. Both return a [`ClusterReport`]
//!   with per-blade utilization skew.
//! * [`coord`] — cluster-wide prefix-cache coordination: the
//!   cache-aware router's per-blade residency model, and the global KV
//!   cache tier ([`GlobalCacheConfig`]) whose hits stream cached spans
//!   over the interconnect, raced against local recompute. Both off by
//!   default and bit-inert when off.
//! * [`control`] — the closed-loop control plane: class-aware load
//!   shedding behind an attainment-floor gate with hysteresis
//!   ([`AdmissionControl`]) and a watermark-driven cluster autoscaler
//!   ([`AutoscaleConfig`]), composed via [`ControlPlane`] and attached
//!   with [`Scenario::control`]. Class-aware *ordering* lives in
//!   [`policy`]: [`StrictPriorityPolicy`] and [`WeightedFairPolicy`]
//!   rank the queue by the bound SLO-class table.
//! * [`report`] — TTFT/TPOT/latency percentiles, throughput, goodput,
//!   eviction and fragmentation accounting ([`ServingReport`]).
//! * [`telemetry`] — read-only time-resolved observability mounted with
//!   [`Scenario::telemetry`]: bounded-memory windowed time-series per
//!   blade and cluster-wide, P² streaming tail sketches
//!   ([`telemetry::P2Sketch`]), Prometheus/CSV exporters, and
//!   simulator self-profiling ([`telemetry::profile`]). Bit-inert by
//!   construction.
//!
//! The one way to run a scenario is the [`Scenario`] builder in
//! [`scenario`]: one fluent chain describes the system, workload, policy,
//! KV layout, SLO classes and blade topology, and compiles into a
//! validated [`CompiledScenario`] holding the engine it built. Its run
//! methods replay the mixed cluster's per-blade queues (a single blade is
//! a 1-blade cluster) or its one coupled loop: central dispatch, or the
//! same loop fed by the DistServe-style disaggregated prefill tier
//! ([`BladeRole`]-typed blades streaming finished prefills over the
//! system fabric). The [`SimObserver`] seam exposes per-iteration events
//! (admission, eviction, chunk dispatch, handoff, completion) without
//! reaching into engine internals.
//!
//! Replay is exactly reproducible. Every replay makes its own
//! iteration-cost table and prices a chunk of a row, from reused kernel
//! buffers, when it first reads a cell of it; each cell is bit-identical
//! to a per-cell
//! [`InferenceEstimator::decode_step_time`](crate::InferenceEstimator::decode_step_time)
//! call, whichever thread prices it. [`CompiledScenario::run`] replays
//! the blades of a mixed per-blade topology on rayon workers while
//! [`CompiledScenario::run_serial`] replays them on one thread, and the
//! two reports are bit-identical (enforced by the
//! `parallel_equivalence` suite, like every other parallel path in this
//! workspace). The default configuration — FCFS, contiguous KV,
//! whole-prompt prefill, bucketized-mean pricing, one default SLO class
//! — reproduces the PR 2/PR 3 engines bit-for-bit (pinned by
//! `tests/serving_regression.rs`).
//!
//! # Examples
//!
//! ```
//! use llm_workload::{ModelZoo, Parallelism};
//! use optimus::serving::{Scenario, TraceConfig};
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
//!     .poisson(TraceConfig {
//!         seed: 7,
//!         requests: 8,
//!         arrival_rate_per_s: 50.0,
//!         prompt_tokens: (32, 64),
//!         output_tokens: (8, 16),
//!     })
//!     .compile()?
//!     .run()?;
//! assert_eq!(report.report.completed, 8);
//! assert!(report.report.ttft.p99 >= report.report.ttft.p50);
//! # Ok(())
//! # }
//! ```
//!
//! Scaling the same replay across four blades with load-aware routing:
//!
//! ```
//! use llm_workload::{ModelZoo, Parallelism};
//! use optimus::serving::{RoutingPolicy, Scenario, TraceConfig};
//! use optimus::MultiBladeSystem;
//!
//! # fn main() -> Result<(), optimus::OptimusError> {
//! let system = MultiBladeSystem::new(4)?;
//! let model = ModelZoo::llama2_7b();
//! let par = Parallelism::new(1, 1, 1)?;
//! let report = Scenario::new(&system)
//!     .model(&model)
//!     .parallelism(&par)
//!     .max_batch(4)
//!     .unconstrained_kv()
//!     .routing(RoutingPolicy::JoinShortestQueue)
//!     .poisson(TraceConfig {
//!         seed: 11,
//!         requests: 32,
//!         arrival_rate_per_s: 200.0,
//!         prompt_tokens: (32, 64),
//!         output_tokens: (8, 16),
//!     })
//!     .compile()?
//!     .run()?;
//! assert_eq!(report.report.completed, 32);
//! assert_eq!(report.per_blade.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! Disaggregated prefill/decode with per-request SLO classes:
//!
//! ```
//! use llm_workload::{ModelZoo, Parallelism};
//! use optimus::serving::{Scenario, SloClass, Topology, TraceConfig};
//! use optimus::MultiBladeSystem;
//!
//! # fn main() -> Result<(), optimus::OptimusError> {
//! let system = MultiBladeSystem::new(4)?;
//! let model = ModelZoo::llama2_7b();
//! let par = Parallelism::new(1, 1, 1)?;
//! let report = Scenario::new(&system)
//!     .model(&model)
//!     .parallelism(&par)
//!     .max_batch(4)
//!     .unconstrained_kv()
//!     .topology(Topology::disaggregated(1, 3))
//!     .slo_classes(vec![SloClass::interactive(), SloClass::batch()])
//!     .classify(|r| u32::from(r.output_tokens > 12))
//!     .poisson(TraceConfig {
//!         seed: 13,
//!         requests: 24,
//!         arrival_rate_per_s: 100.0,
//!         prompt_tokens: (64, 256),
//!         output_tokens: (4, 24),
//!     })
//!     .compile()?
//!     .run()?;
//! assert_eq!(report.report.completed, 24);
//! assert_eq!(report.report.per_class.len(), 2);
//! # Ok(())
//! # }
//! ```

// Replays must not panic: an impossible state is unrepresentable or a
// debug-asserted invariant. The few `expect`s left carry an
// `#[expect(..)]` with the reason they cannot fire.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cluster;
pub mod control;
pub mod coord;
pub mod engine;
pub mod events;
pub mod kv;
pub mod observer;
pub mod policy;
pub mod prefix;
pub mod report;
pub mod scenario;
pub mod telemetry;
pub mod traces;

pub use cluster::{
    BladeLoad, BladeRole, ClusterConfig, ClusterReport, DispatchMode, HandoffLink, RoutingPolicy,
    StretchStats, Topology,
};
pub use control::{AdmissionControl, AutoscaleConfig, ControlPlane};
pub use coord::{GlobalCacheConfig, CACHE_AWARE_MAX_IMBALANCE};
pub use engine::{DecodePricing, RunningSeq, ServingConfig, SimCore};
pub use kv::KvLayout;
pub use observer::{
    first_divergence, CallbackCounts, CountingObserver, Divergence, EventKind, Interest,
    NoopObserver, SimEvent, SimObserver,
};
pub use policy::{
    FcfsPolicy, MaxWaitGuardPolicy, OrderingContract, SchedulerPolicy, SjfPolicy,
    StrictPriorityPolicy, WeightedFairPolicy,
};
pub use prefix::{
    BlockInterner, CacheEviction, Lease, PrefixBlock, PrefixCache, PrefixCachingConfig,
    SharedPrefix,
};
pub use report::{FrontierPoint, Percentiles, ServingReport, SloClass, SloClassReport};
pub use scenario::{CompiledScenario, Scenario};
pub use telemetry::{
    BladeWindowRow, ClassWindow, P2Sketch, ProfileReport, TailMetric, TailSummary, Telemetry,
    TelemetryConfig, WindowRow,
};
pub use traces::{
    BurstyTraceConfig, CsvTrace, DiurnalTraceConfig, RequestSpec, SharedPrefixTraceConfig,
    TraceConfig, TraceSource,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OptimusError;
    use crate::inference::InferenceEstimator;
    use crate::scheduler::plan_serving;
    use llm_workload::kvcache::{KvCache, KvConvention};
    use llm_workload::model::{ModelZoo, TransformerConfig};
    use llm_workload::parallelism::Parallelism;
    use scd_arch::Blade;
    use scd_tech::units::Bandwidth;

    fn spu_estimator() -> InferenceEstimator {
        let blade = Blade::baseline();
        InferenceEstimator::new(
            blade
                .accelerator()
                .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        )
    }

    fn small_model_sim_parts() -> (InferenceEstimator, TransformerConfig, Parallelism) {
        (
            spu_estimator(),
            ModelZoo::llama2_7b(),
            Parallelism::new(1, 1, 1).unwrap(),
        )
    }

    /// A single-blade unconstrained scenario over `est` — the Scenario
    /// spelling of PR 3's `ServingConfig::unconstrained(max_batch)`.
    fn unconstrained<'a>(
        est: &InferenceEstimator,
        model: &'a TransformerConfig,
        par: &'a Parallelism,
        max_batch: u32,
    ) -> Scenario<'a> {
        Scenario::on_estimator(est.clone())
            .model(model)
            .parallelism(par)
            .max_batch(max_batch)
            .unconstrained_kv()
    }

    #[test]
    fn burst_reproduces_static_scheduler_operating_point() {
        // All requests arrive at t=0 with the paper's I/O 200/200 shape
        // and nothing ever evicts: the simulator must run at the static
        // scheduler's chosen batch, and its mean decode-iteration cost
        // must equal the static per-token time at that batch.
        let est = spu_estimator();
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let batch = 8u32;
        let decision = plan_serving(&est, &model, &par, (200, 200), batch, 1.0).unwrap();
        let static_point = decision.chosen.unwrap();
        assert_eq!(static_point.batch, batch);

        let report = unconstrained(&est, &model, &par, batch)
            .poisson(TraceConfig::burst(batch, 200, 200))
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(report.completed, batch);
        assert_eq!(report.evictions, 0);
        assert!((report.mean_batch - f64::from(batch)).abs() < 1e-9);
        let rel =
            (report.mean_step_s() - static_point.per_token_s).abs() / static_point.per_token_s;
        assert!(
            rel < 1e-12,
            "sim step {} vs static per-token {}",
            report.mean_step_s(),
            static_point.per_token_s
        );
    }

    #[test]
    fn poisson_replay_reports_sane_tails() {
        let (est, model, par) = small_model_sim_parts();
        let r = unconstrained(&est, &model, &par, 8)
            .poisson(TraceConfig {
                seed: 9,
                requests: 24,
                arrival_rate_per_s: 200.0,
                prompt_tokens: (32, 128),
                output_tokens: (8, 32),
            })
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(r.completed, 24);
        assert!(r.ttft.p50 > 0.0 && r.ttft.p50 <= r.ttft.p95 && r.ttft.p95 <= r.ttft.p99);
        assert!(r.tpot.p50 > 0.0 && r.tpot.p50 <= r.tpot.p95 && r.tpot.p95 <= r.tpot.p99);
        assert!(r.latency.p99 >= r.ttft.p99);
        assert!(r.throughput_tok_s > 0.0);
        assert!(r.goodput_tok_s <= r.throughput_tok_s);
        assert!((0.0..=1.0).contains(&r.slo_attainment));
        assert!(r.mean_batch >= 1.0 && r.mean_batch <= 8.0);
        assert!(r.kv_peak_bytes > 0.0);
        assert_eq!(r.kv_fragmentation_peak_bytes, 0.0, "contiguous layout");
        // One default class blending to the global figures.
        assert_eq!(r.per_class.len(), 1);
        assert_eq!(r.per_class[0].name, "default");
        assert_eq!(
            r.per_class[0].goodput_tok_s.to_bits(),
            r.goodput_tok_s.to_bits()
        );
        assert_eq!(
            r.weighted_goodput_tok_s().to_bits(),
            r.goodput_tok_s.to_bits()
        );
    }

    /// Capacity for ~2.5 full-length requests while concurrency wants 6.
    fn tight_kv_bytes(est: &InferenceEstimator, model: &TransformerConfig) -> f64 {
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(model, KvConvention::Gqa);
        per_token * f64::from(96 + 32) * 2.5
    }

    #[test]
    fn tight_kv_capacity_forces_evictions_but_completes() {
        let (est, model, par) = small_model_sim_parts();
        let trace = TraceConfig {
            seed: 3,
            requests: 12,
            arrival_rate_per_s: f64::INFINITY,
            prompt_tokens: (96, 96),
            output_tokens: (32, 32),
        };
        let r = unconstrained(&est, &model, &par, 6)
            .kv_capacity_bytes(tight_kv_bytes(&est, &model))
            .poisson(trace)
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(r.completed, 12, "every request must finish eventually");
        assert!(r.evictions > 0, "tight capacity must preempt");
        assert!(r.wasted_tokens > 0);

        // The same workload with ample capacity evicts nothing.
        let roomy = unconstrained(&est, &model, &par, 6)
            .poisson(trace)
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(roomy.evictions, 0);
        assert!(
            roomy.makespan_s <= r.makespan_s + 1e-12,
            "evictions cost time"
        );
    }

    #[test]
    fn paged_layout_fragments_and_evicts_earlier() {
        // Same tight capacity: block-granular charging rounds every
        // sequence up to whole blocks, so the paged run carries visible
        // fragmentation and can only do worse (more evictions, never
        // fewer admissions) than token-granular accounting.
        let (est, model, par) = small_model_sim_parts();
        let trace = TraceConfig {
            seed: 3,
            requests: 12,
            arrival_rate_per_s: f64::INFINITY,
            prompt_tokens: (90, 100),
            output_tokens: (28, 36),
        };
        let run = |layout: KvLayout| {
            unconstrained(&est, &model, &par, 6)
                .kv_capacity_bytes(tight_kv_bytes(&est, &model))
                .kv_layout(layout)
                .poisson(trace)
                .compile()
                .unwrap()
                .run()
                .unwrap()
                .report
        };
        let contiguous = run(KvLayout::Contiguous);
        let paged = run(KvLayout::Paged { block_tokens: 64 });
        assert_eq!(paged.completed, 12);
        assert!(paged.kv_fragmentation_peak_bytes > 0.0);
        assert_eq!(contiguous.kv_fragmentation_peak_bytes, 0.0);
        // Block rounding wastes capacity, so the paged run can never pack
        // more concurrent sequences (it may well finish sooner, though:
        // conservative admission avoids eviction thrash).
        assert!(paged.mean_batch <= contiguous.mean_batch + 1e-12);
        assert!(paged.wasted_tokens <= contiguous.wasted_tokens);
        // Paged occupancy is always a whole number of blocks.
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let peak_tokens = (paged.kv_peak_bytes / per_token).round() as u64;
        assert_eq!(peak_tokens % 64, 0, "peak {peak_tokens} not block-aligned");
    }

    #[test]
    fn chunked_prefill_bounds_interference() {
        // Long prompts, short outputs: with whole-prompt prefill a newly
        // admitted 512-token prompt stalls every running decode for the
        // full prefill in one iteration; 64-token chunks bound that
        // per-iteration stall (the inter-token jitter chunked prefill
        // exists to control), at the price of the chunked request's own
        // TTFT.
        let (est, model, par) = small_model_sim_parts();
        let trace = TraceConfig {
            seed: 21,
            requests: 16,
            arrival_rate_per_s: 40.0,
            prompt_tokens: (384, 512),
            output_tokens: (24, 48),
        };
        let run = |chunk: u32| {
            unconstrained(&est, &model, &par, 8)
                .chunked_prefill(chunk)
                .poisson(trace)
                .compile()
                .unwrap()
                .run()
                .unwrap()
                .report
        };
        let whole = run(0);
        let chunked = run(64);
        assert_eq!(chunked.completed, 16);
        assert!(
            chunked.max_step_s < whole.max_step_s,
            "chunking must bound the worst iteration stall: {} vs {}",
            chunked.max_step_s,
            whole.max_step_s
        );
        // Chunked prefill spreads a prompt across iterations, so the
        // chunked request's own first token comes later.
        assert!(chunked.ttft.p50 >= whole.ttft.p50);
    }

    #[test]
    fn sjf_policy_beats_fcfs_on_median_latency_under_mixed_lengths() {
        let (est, model, par) = small_model_sim_parts();
        let trace = TraceConfig {
            seed: 5,
            requests: 24,
            arrival_rate_per_s: f64::INFINITY,
            prompt_tokens: (16, 512),
            output_tokens: (4, 128),
        };
        let mk = || unconstrained(&est, &model, &par, 2).poisson(trace);
        let fcfs = mk().compile().unwrap().run().unwrap().report;
        let sjf = mk()
            .policy(SjfPolicy)
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(sjf.completed, 24);
        assert!(
            sjf.latency.p50 < fcfs.latency.p50,
            "SJF should cut median latency: {} vs {}",
            sjf.latency.p50,
            fcfs.latency.p50
        );
        // The max-wait guard interpolates: overdue requests jump ahead,
        // so its worst-case latency cannot exceed pure SJF's.
        let guarded = mk()
            .policy(MaxWaitGuardPolicy::new(0.5))
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(guarded.completed, 24);
        assert!(guarded.latency.p99 <= sjf.latency.p99 + 1e-12);
    }

    #[test]
    fn oversized_request_is_a_typed_error() {
        let (est, model, par) = small_model_sim_parts();
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let compiled = unconstrained(&est, &model, &par, 4)
            .kv_capacity_bytes(per_token * 100.0)
            .poisson(TraceConfig::burst(2, 96, 32))
            .compile();
        assert!(matches!(compiled, Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn gqa_convention_admits_more_than_paper_mha() {
        // Same capacity: physical GQA sizing (8 of 128 head-pairs for
        // Llama-405B) packs far more concurrent requests than the
        // MHA-convention bookkeeping would, so the trace finishes sooner.
        let est = spu_estimator();
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let per_token_mha = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes_mha(&model);
        let capacity = per_token_mha * 400.0 * 3.0; // three MHA requests
        let run = |conv: KvConvention| {
            unconstrained(&est, &model, &par, 16)
                .kv_capacity_bytes(capacity)
                .kv_convention(conv)
                .kv_bucket(8)
                .slo(100.0, 10.0)
                .poisson(TraceConfig::burst(16, 200, 16))
                .compile()
                .unwrap()
                .run()
                .unwrap()
                .report
        };
        let gqa = run(KvConvention::Gqa);
        let mha = run(KvConvention::PaperMha);
        assert!(
            gqa.mean_batch > mha.mean_batch,
            "GQA sizing must batch more: {} vs {}",
            gqa.mean_batch,
            mha.mean_batch
        );
        assert!(gqa.makespan_s < mha.makespan_s);
    }

    #[test]
    fn slo_frontier_throughput_rises_with_offered_load() {
        let (est, model, par) = small_model_sim_parts();
        let compiled = unconstrained(&est, &model, &par, 8)
            .poisson(TraceConfig {
                seed: 11,
                requests: 16,
                arrival_rate_per_s: 1.0,
                prompt_tokens: (32, 64),
                output_tokens: (8, 16),
            })
            .compile()
            .unwrap();
        let pts = compiled.frontier(&[5.0, 50.0, 500.0]).unwrap();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(
                w[1].report.throughput_tok_s >= w[0].report.throughput_tok_s * 0.99,
                "throughput should not collapse as load rises below saturation"
            );
            assert!(w[1].report.ttft.p99 >= w[0].report.ttft.p99 * 0.5);
        }
        // At saturation the batch runs fuller than at a trickle.
        assert!(pts[2].report.mean_batch > pts[0].report.mean_batch);

        // A frontier needs a re-synthesizable workload.
        let fixed = unconstrained(&est, &model, &par, 8)
            .requests(TraceConfig::burst(4, 16, 4).synthesize().unwrap())
            .compile()
            .unwrap();
        assert!(matches!(
            fixed.frontier(&[1.0]),
            Err(OptimusError::Serving { .. })
        ));
    }

    #[test]
    fn for_system_subtracts_weights() {
        let est = spu_estimator();
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let cfg = ServingConfig::for_system(&est, &model, &par, 64).unwrap();
        let total = est.accelerator().dram_capacity_bytes() as f64 * 64.0;
        assert!(cfg.kv_capacity_bytes > 0.0 && cfg.kv_capacity_bytes < total);

        // A model too large for the system is a typed error.
        let mut huge = ModelZoo::llama_405b();
        huge.layers *= 20;
        assert!(matches!(
            ServingConfig::for_system(&est, &huge, &par, 64),
            Err(OptimusError::Serving { .. })
        ));
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let (est, model, par) = small_model_sim_parts();
        let mk = || unconstrained(&est, &model, &par, 1).poisson(TraceConfig::burst(1, 10, 10));
        for scenario in [
            mk().max_batch(0),
            mk().kv_bucket(0),
            mk().kv_capacity_bytes(-1.0),
            mk().slo(0.0, 0.1),
            mk().paged_kv(0),
            mk().slo_classes(vec![]),
            mk().slo_classes(vec![SloClass::new("bad", f64::NAN, 0.1)]),
            mk().slo_classes(vec![SloClass::interactive().with_weight(0.0)]),
            mk().classify(|_| 7),
            // A negative arrival, which a CSV trace refuses too.
            mk().requests(vec![RequestSpec::new(0, -1.0, 10, 10)]),
            // Degenerate control planes: shed floor outside (0, 1], a
            // strict class the table doesn't have, inverted autoscale
            // watermarks, and a zero-blade floor.
            mk().slo_classes(vec![SloClass::interactive(), SloClass::batch()])
                .control(ControlPlane::new().shed(AdmissionControl::new(0, 0.0))),
            mk().slo_classes(vec![SloClass::interactive(), SloClass::batch()])
                .control(ControlPlane::new().shed(AdmissionControl::new(5, 0.9))),
            mk().dispatch(DispatchMode::Central).control(
                ControlPlane::new().autoscale(AutoscaleConfig::new(1, 1).with_watermarks(4, 4)),
            ),
            mk().dispatch(DispatchMode::Central)
                .control(ControlPlane::new().autoscale(AutoscaleConfig::new(0, 1))),
        ] {
            assert!(matches!(
                scenario.compile().err(),
                Some(OptimusError::Serving { .. })
            ));
        }
        // Missing pieces are named.
        let missing_model = Scenario::on_estimator(est.clone())
            .parallelism(&par)
            .poisson(TraceConfig::burst(1, 10, 10))
            .compile();
        assert!(matches!(missing_model, Err(OptimusError::Serving { .. })));
        let missing_trace = Scenario::on_estimator(est.clone())
            .model(&model)
            .parallelism(&par)
            .compile();
        assert!(matches!(missing_trace, Err(OptimusError::Serving { .. })));
    }

    #[test]
    fn kv_peak_counts_sequences_that_finish_in_one_iteration() {
        // Four 64-token prompts generating a single token each: every
        // sequence completes in its admission iteration, but the KV it
        // held during that iteration (65 tokens per sequence) must still
        // register in the occupancy peak.
        let (est, model, par) = small_model_sim_parts();
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let r = unconstrained(&est, &model, &par, 4)
            .poisson(TraceConfig::burst(4, 64, 1))
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(r.completed, 4);
        let expected = 4.0 * 65.0 * per_token;
        assert!(
            (r.kv_peak_bytes - expected).abs() < 1e-6,
            "peak {} should equal the resident footprint {expected}",
            r.kv_peak_bytes
        );
    }

    /// A shared-prefix workload: every request opens with one of two
    /// ~250-token system prompts (non-block-aligned so full-chain hits
    /// exercise copy-on-write), followed by a short unique turn.
    fn shared_prefix_trace(share: f64) -> SharedPrefixTraceConfig {
        SharedPrefixTraceConfig {
            seed: 5,
            requests: 16,
            arrival_rate_per_s: 30.0,
            prefixes: 2,
            prefix_tokens: (250, 250),
            zipf_s: 1.0,
            share_fraction: share,
            unique_prompt_tokens: (16, 48),
            output_tokens: (8, 16),
        }
    }

    #[test]
    fn prefix_caching_skips_prefill_and_accounts_shared_blocks() {
        let (est, model, par) = small_model_sim_parts();
        let trace = shared_prefix_trace(1.0);
        let run = |caching: bool| {
            let mut s = unconstrained(&est, &model, &par, 8).trace(&trace);
            if caching {
                s = s.prefix_caching(16);
            }
            s.compile().unwrap().run().unwrap().report
        };
        let plain = run(false);
        let cached = run(true);
        assert_eq!(cached.completed, 16);
        // Off: no lookups, no savings, no shared occupancy.
        assert_eq!(plain.prefix_hits + plain.prefix_misses, 0);
        assert_eq!(plain.prefix_tokens_saved, 0);
        assert_eq!(plain.kv_shared_peak_bytes, 0.0);
        // On: every admission looks up; only the first request per
        // prefix misses; every full-chain hit of the unaligned 250-token
        // prefix copies the shared tail block.
        assert_eq!(cached.prefix_hits + cached.prefix_misses, 16);
        assert!(cached.prefix_misses >= 1 && cached.prefix_misses <= 2);
        assert_eq!(cached.prefix_cow_copies, cached.prefix_hits);
        // Full hits skip the whole 250-token prefix.
        assert_eq!(cached.prefix_tokens_saved, 250 * cached.prefix_hits);
        assert!(cached.prefix_hit_rate() > 0.8);
        assert!(cached.kv_shared_peak_bytes > 0.0);
        assert!(cached.kv_shared_peak_bytes <= cached.kv_peak_bytes);
        // Skipped prefill is time off the clock: first tokens come
        // sooner and the replay finishes earlier.
        assert!(
            cached.ttft.p50 < plain.ttft.p50,
            "cached TTFT p50 {} must beat uncached {}",
            cached.ttft.p50,
            plain.ttft.p50
        );
        assert!(cached.makespan_s < plain.makespan_s);
        // Per-class accounting blends to the global figure.
        assert_eq!(
            cached.per_class[0].prefix_tokens_saved,
            cached.prefix_tokens_saved
        );
        assert!(cached.to_string().contains("prefix hit rate"));
        assert!(!plain.to_string().contains("prefix hit rate"));
    }

    #[test]
    fn prefix_caching_admits_more_under_tight_kv() {
        // KV capacity for ~2.5 unshared full-length requests while 6
        // requests want to run. With the 256-token prefix stored once,
        // each extra sequence costs only its unique tail, so the cached
        // run packs a deeper batch and finishes sooner at *equal* KV
        // capacity.
        let (est, model, par) = small_model_sim_parts();
        let trace = SharedPrefixTraceConfig {
            seed: 9,
            requests: 12,
            arrival_rate_per_s: f64::INFINITY,
            prefixes: 1,
            prefix_tokens: (256, 256),
            zipf_s: 0.0,
            share_fraction: 1.0,
            unique_prompt_tokens: (16, 32),
            output_tokens: (16, 24),
        };
        let per_token = KvCache {
            batch: 1,
            seq_len: 1,
            precision: est.precision(),
        }
        .bytes(&model, KvConvention::Gqa);
        let capacity = per_token * f64::from(256 + 32 + 24) * 2.5;
        let run = |caching: bool| {
            let mut s = unconstrained(&est, &model, &par, 6)
                .kv_capacity_bytes(capacity)
                .trace(&trace);
            if caching {
                s = s.prefix_caching(16);
            }
            s.compile().unwrap().run().unwrap().report
        };
        let plain = run(false);
        let cached = run(true);
        assert_eq!(cached.completed, 12);
        assert!(
            cached.mean_batch > plain.mean_batch,
            "sharing must deepen the batch: {} vs {}",
            cached.mean_batch,
            plain.mean_batch
        );
        assert!(cached.makespan_s < plain.makespan_s);
        // Shared + private stays within the configured capacity.
        assert!(cached.kv_peak_bytes <= capacity * (1.0 + 1e-12));
        assert!(plain.kv_peak_bytes <= capacity * (1.0 + 1e-12));
    }

    #[test]
    fn prefix_caching_off_ignores_prefix_tags_bit_for_bit() {
        // Without .prefix_caching the engine must not even look at the
        // SharedPrefix tags: the report equals the same trace with the
        // tags stripped, bit for bit.
        let (est, model, par) = small_model_sim_parts();
        let tagged = shared_prefix_trace(0.7).requests().unwrap();
        let stripped: Vec<RequestSpec> = tagged
            .iter()
            .map(|r| RequestSpec { prefix: None, ..*r })
            .collect();
        let run = |trace: Vec<RequestSpec>| {
            unconstrained(&est, &model, &par, 8)
                .requests(trace)
                .compile()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run(tagged);
        let b = run(stripped);
        assert_eq!(a, b);
        assert_eq!(a.report.makespan_s.to_bits(), b.report.makespan_s.to_bits());

        // Conversely, caching *on* over a trace with no tags is also
        // bit-identical: the cache path never activates.
        let plain = TraceConfig {
            seed: 23,
            requests: 12,
            arrival_rate_per_s: 100.0,
            prompt_tokens: (32, 128),
            output_tokens: (8, 24),
        };
        let off = unconstrained(&est, &model, &par, 8)
            .poisson(plain)
            .compile()
            .unwrap()
            .run()
            .unwrap();
        let on = unconstrained(&est, &model, &par, 8)
            .poisson(plain)
            .prefix_caching(16)
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(off, on);
    }

    #[test]
    fn prefix_caching_composes_with_chunked_prefill_and_paged_kv() {
        let (est, model, par) = small_model_sim_parts();
        let trace = shared_prefix_trace(1.0);
        let r = unconstrained(&est, &model, &par, 8)
            .trace(&trace)
            .paged_kv(32)
            .chunked_prefill(64)
            .prefix_caching(16)
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        assert_eq!(r.completed, 16);
        assert!(r.prefix_tokens_saved > 0);
        assert!(r.kv_shared_peak_bytes > 0.0);
    }

    #[test]
    fn prefix_observer_counts_match_report() {
        use crate::serving::observer::CountingObserver;
        let (est, model, par) = small_model_sim_parts();
        let compiled = unconstrained(&est, &model, &par, 8)
            .trace(&shared_prefix_trace(1.0))
            .prefix_caching(16)
            .compile()
            .unwrap();
        let mut observer = CountingObserver::default();
        let observed = compiled.run_observed(&mut observer).unwrap();
        let counts = observer.counts();
        assert_eq!(observed, compiled.run().unwrap(), "observers are read-only");
        assert_eq!(counts.cache_hits, observed.report.prefix_hits);
        assert_eq!(counts.cache_misses, observed.report.prefix_misses);
        assert_eq!(
            counts.cache_evictions,
            observed.report.prefix_cache_evictions
        );
    }

    #[test]
    fn prefix_misuse_is_a_typed_error() {
        let (est, model, par) = small_model_sim_parts();
        // Zero-sized blocks are rejected at compile.
        let bad_block = unconstrained(&est, &model, &par, 4)
            .poisson(TraceConfig::burst(1, 10, 10))
            .prefix_caching(0)
            .compile();
        assert!(matches!(bad_block, Err(OptimusError::Serving { .. })));
        // A prefix longer than its prompt is rejected at compile, with
        // and without caching enabled.
        let overlong = vec![RequestSpec::new(0, 0.0, 64, 8).with_prefix(1, 65)];
        for caching in [false, true] {
            let mut s = unconstrained(&est, &model, &par, 4).requests(overlong.clone());
            if caching {
                s = s.prefix_caching(16);
            }
            assert!(matches!(s.compile(), Err(OptimusError::Serving { .. })));
        }
    }

    #[test]
    fn report_display_formats() {
        let (est, model, par) = small_model_sim_parts();
        let r = unconstrained(&est, &model, &par, 2)
            .poisson(TraceConfig::burst(2, 16, 4))
            .compile()
            .unwrap()
            .run()
            .unwrap()
            .report;
        let s = r.to_string();
        assert!(s.contains("TTFT") && s.contains("TPOT") && s.contains("2/2"));
    }

    #[test]
    fn exact_pricing_diverges_from_bucketized_mean_on_skewed_lengths() {
        // A batch holding one ~2000-token and several ~16-token KV
        // streams: the bucketized mean prices everyone at the arithmetic
        // mean length, while exact pricing sums the true per-sequence
        // spans. The decode-time gap quantifies the approximation error
        // (the ROADMAP's heterogeneous-decode-pricing item). Finding:
        // this roofline's decode cost is near-affine in KV length, so the
        // memoized-mean table errs only where short sequences sit in the
        // latency-dominated transfer regime — a small but nonzero,
        // exactly-reproducible gap (exact prices *below* the mean, the
        // concave-side Jensen direction). That is why BucketizedMean
        // stays the default fast path.
        let (est, model, par) = small_model_sim_parts();
        let trace = vec![
            RequestSpec::new(0, 0.0, 1900, 100),
            RequestSpec::new(1, 0.0, 16, 100),
            RequestSpec::new(2, 0.0, 16, 100),
            RequestSpec::new(3, 0.0, 16, 100),
        ];
        let run = |pricing: DecodePricing| {
            unconstrained(&est, &model, &par, 4)
                .pricing(pricing)
                .requests(trace.clone())
                .compile()
                .unwrap()
                .run()
                .unwrap()
                .report
        };
        let approx = run(DecodePricing::BucketizedMean);
        let exact = run(DecodePricing::ExactPerSequence);
        assert_eq!(exact.completed, 4);
        assert_eq!(exact.decode_iterations, approx.decode_iterations);
        let gap = (exact.decode_time_s - approx.decode_time_s) / approx.decode_time_s;
        assert!(
            gap < 0.0 && gap.abs() > 1e-6,
            "skewed batch must expose a concave-side pricing gap, got {:+.5}%",
            gap * 100.0
        );
        assert!(
            gap.abs() < 0.01,
            "near-affine cost model: the gap stays sub-percent, got {:+.3}%",
            gap * 100.0
        );
        // On a homogeneous batch the two modes coincide: every sequence
        // sits at the mean, so the per-sequence sum collapses (up to the
        // rounding of summing identical step costs).
        let uniform = TraceConfig::burst(4, 64, 16).synthesize().unwrap();
        let run_uniform = |pricing: DecodePricing| {
            unconstrained(&est, &model, &par, 4)
                .pricing(pricing)
                .requests(uniform.clone())
                .compile()
                .unwrap()
                .run()
                .unwrap()
                .report
        };
        let a = run_uniform(DecodePricing::BucketizedMean);
        let e = run_uniform(DecodePricing::ExactPerSequence);
        let uniform_gap = (a.decode_time_s - e.decode_time_s).abs() / a.decode_time_s;
        assert!(
            uniform_gap < 1e-12,
            "homogeneous batches must price identically, gap {uniform_gap}"
        );
    }
}
