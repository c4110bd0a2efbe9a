//! The rayon-parallelized hot paths must be *bit-identical* to their
//! serial reference implementations: the estimation engine is an
//! analytical model, so any nondeterminism would make figures
//! irreproducible across machines with different core counts.

use llm_workload::{ModelZoo, Parallelism};
use optimus::{InferenceEstimator, MappingSearch, RequestShape, TrainingEstimator};
use scd_arch::{Blade, GpuSystem};
use scd_tech::units::{Bandwidth, TimeInterval};

fn estimator(bw_tbps: f64) -> TrainingEstimator {
    let blade = Blade::baseline();
    TrainingEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(bw_tbps)),
        blade.interconnect(),
    )
}

#[test]
fn mapper_search_parallel_matches_serial_bit_for_bit() {
    let search = MappingSearch::new(64);
    let model = ModelZoo::gpt3_76b();
    for bw in [1.0, 4.0, 16.0] {
        let est = estimator(bw);
        let (par_choice, par_report) = search.best_training(&est, &model, 64).unwrap();
        let (ser_choice, ser_report) = search.best_training_serial(&est, &model, 64).unwrap();
        assert_eq!(
            (par_choice.tp, par_choice.pp, par_choice.dp),
            (ser_choice.tp, ser_choice.pp, ser_choice.dp),
            "bw={bw}: chosen factorization must match"
        );
        assert_eq!(
            par_choice.step_time_s.to_bits(),
            ser_choice.step_time_s.to_bits(),
            "bw={bw}: step time must match to the last bit"
        );
        assert_eq!(par_report.total_s.to_bits(), ser_report.total_s.to_bits());
        assert_eq!(
            par_report.compute_s.to_bits(),
            ser_report.compute_s.to_bits()
        );
        assert_eq!(par_report.comm_s.to_bits(), ser_report.comm_s.to_bits());
    }
}

#[test]
fn mapper_search_error_case_matches_serial() {
    // A unit count with no valid factorization errors identically on both
    // paths.
    let search = MappingSearch::new(7);
    let mut model = ModelZoo::gpt3_76b();
    model.heads = 64;
    model.ffn_hidden = 4096;
    model.layers = 4;
    let est = estimator(16.0);
    let par = search.best_training(&est, &model, 3);
    let ser = search.best_training_serial(&est, &model, 3);
    assert_eq!(par.unwrap_err(), ser.unwrap_err());
}

#[test]
fn inference_decode_sweep_parallel_matches_serial_bit_for_bit() {
    let blade = Blade::baseline();
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    for (bw, batch) in [(0.5, 1), (16.0, 8), (32.0, 64)] {
        let accel = blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(bw))
            .with_dram_latency(TimeInterval::from_ns(30.0));
        let est = InferenceEstimator::new(accel, blade.interconnect());
        let shape = RequestShape::paper_io(batch);
        let p = est.estimate(&model, &par, shape).unwrap();
        let s = est.estimate_serial(&model, &par, shape).unwrap();
        assert_eq!(p.prefill_s.to_bits(), s.prefill_s.to_bits());
        assert_eq!(p.decode_s.to_bits(), s.decode_s.to_bits());
        assert_eq!(p.comm_s.to_bits(), s.comm_s.to_bits());
        assert_eq!(p.total_s.to_bits(), s.total_s.to_bits());
        assert_eq!(p.flops_per_unit.to_bits(), s.flops_per_unit.to_bits());
        assert_eq!(p.per_token_s.to_bits(), s.per_token_s.to_bits());
        assert_eq!(p.kv_cache_bytes.to_bits(), s.kv_cache_bytes.to_bits());
    }
}

#[test]
fn serving_trace_replay_parallel_matches_serial_bit_for_bit() {
    use optimus::serving::{Scenario, TraceConfig};
    let blade = Blade::baseline();
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let est = InferenceEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
        blade.interconnect(),
    );
    for (seed, rate) in [(1u64, 4.0), (2, 32.0), (3, f64::INFINITY)] {
        let compiled = Scenario::on_estimator(est.clone())
            .model(&model)
            .parallelism(&par)
            .max_batch(32)
            .poisson(TraceConfig {
                seed,
                requests: 24,
                arrival_rate_per_s: rate,
                prompt_tokens: (150, 250),
                output_tokens: (100, 200),
            })
            .compile()
            .unwrap();
        let p = compiled.run().unwrap().report;
        let s = compiled.run_serial().unwrap().report;
        assert_eq!(p.completed, s.completed, "seed={seed}");
        assert_eq!(p.evictions, s.evictions);
        assert_eq!(p.makespan_s.to_bits(), s.makespan_s.to_bits());
        assert_eq!(p.throughput_tok_s.to_bits(), s.throughput_tok_s.to_bits());
        assert_eq!(p.goodput_tok_s.to_bits(), s.goodput_tok_s.to_bits());
        assert_eq!(p.decode_time_s.to_bits(), s.decode_time_s.to_bits());
        assert_eq!(p.mean_batch.to_bits(), s.mean_batch.to_bits());
        for (a, b) in [(p.ttft, s.ttft), (p.tpot, s.tpot), (p.latency, s.latency)] {
            assert_eq!(a.p50.to_bits(), b.p50.to_bits());
            assert_eq!(a.p95.to_bits(), b.p95.to_bits());
            assert_eq!(a.p99.to_bits(), b.p99.to_bits());
        }
    }
}

#[test]
fn cluster_replay_parallel_matches_serial_bit_for_bit() {
    use optimus::serving::{BurstyTraceConfig, DispatchMode, RoutingPolicy, Scenario, Topology};
    let system = optimus::MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = BurstyTraceConfig {
        seed: 9,
        requests: 48,
        base_rate_per_s: 5.0,
        burst_rate_per_s: 400.0,
        burst_s: 0.5,
        gap_s: 2.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 64),
    };
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::LeastLoadedKv,
        RoutingPolicy::CacheAware,
    ] {
        for dispatch in [DispatchMode::PerBlade, DispatchMode::Central] {
            let compiled = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(8)
                .unconstrained_kv()
                .routing(routing)
                .dispatch(dispatch)
                .trace(&trace)
                .compile()
                .unwrap();
            let p = compiled.run().unwrap();
            let s = compiled.run_serial().unwrap();
            assert_eq!(p, s, "{routing} / {dispatch:?} must be bit-identical");
            assert_eq!(p.report.completed, 48);
        }
    }
    // The disaggregated prefill→decode loop is serial by construction;
    // both paths must still agree bit-for-bit.
    let disagg = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .unconstrained_kv()
        .topology(Topology::disaggregated(1, 3))
        .trace(&trace)
        .compile()
        .unwrap();
    let p = disagg.run().unwrap();
    let s = disagg.run_serial().unwrap();
    assert_eq!(p, s, "disaggregated replay must be bit-identical");
    assert_eq!(p.report.completed, 48);
}

#[test]
fn run_each_sweep_parallel_matches_serial_bit_for_bit() {
    // `run_each` replays the routing/dispatch variants concurrently on
    // rayon workers off one shared cost table; every report must match
    // the serial reference sweep bit-for-bit, in variant order.
    use optimus::serving::{BurstyTraceConfig, DispatchMode, RoutingPolicy, Scenario, Topology};
    let system = optimus::MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = BurstyTraceConfig {
        seed: 17,
        requests: 40,
        base_rate_per_s: 6.0,
        burst_rate_per_s: 300.0,
        burst_s: 0.4,
        gap_s: 1.5,
        prompt_tokens: (32, 256),
        output_tokens: (8, 64),
    };
    let compiled = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .unconstrained_kv()
        .topology(Topology::mixed(4))
        .trace(&trace)
        .compile()
        .unwrap();
    let variants = [
        (RoutingPolicy::RoundRobin, DispatchMode::PerBlade),
        (RoutingPolicy::RoundRobin, DispatchMode::Central),
        (RoutingPolicy::JoinShortestQueue, DispatchMode::PerBlade),
        (RoutingPolicy::JoinShortestQueue, DispatchMode::Central),
        (RoutingPolicy::LeastLoadedKv, DispatchMode::PerBlade),
        (RoutingPolicy::LeastLoadedKv, DispatchMode::Central),
    ];
    let p = compiled.run_each(&variants).unwrap();
    let s = compiled.run_each_serial(&variants).unwrap();
    assert_eq!(p.len(), variants.len());
    for (i, (pr, sr)) in p.iter().zip(&s).enumerate() {
        assert_eq!(pr, sr, "variant {:?} must be bit-identical", variants[i]);
        assert_eq!(pr.report.completed, 40, "variant {:?}", variants[i]);
        assert_eq!(
            pr.report.makespan_s.to_bits(),
            sr.report.makespan_s.to_bits(),
            "variant {:?}",
            variants[i]
        );
    }
    // A disaggregated topology has no routing/dispatch axis: both paths
    // must reject it with the same error.
    let disagg = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .unconstrained_kv()
        .topology(Topology::disaggregated(1, 3))
        .trace(&trace)
        .compile()
        .unwrap();
    assert_eq!(
        disagg.run_each(&variants).unwrap_err(),
        disagg.run_each_serial(&variants).unwrap_err()
    );
}

#[test]
fn prefix_cached_replay_parallel_matches_serial_bit_for_bit() {
    // Prefix caching adds per-blade shared-block state to the replay;
    // like every other serving path, replaying blades on rayon workers
    // must not perturb a single bit of it — single blade, the central-queue
    // cluster, and the disaggregated prefill tier alike.
    use optimus::serving::{
        DispatchMode, RoutingPolicy, Scenario, SharedPrefixTraceConfig, Topology,
    };
    let system = optimus::MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = SharedPrefixTraceConfig {
        seed: 27,
        requests: 32,
        arrival_rate_per_s: 120.0,
        prefixes: 3,
        prefix_tokens: (100, 260),
        zipf_s: 1.0,
        share_fraction: 0.8,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 32),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .prefix_caching(16)
            .trace(&trace)
    };
    let variants = [
        base().topology(Topology::mixed(1)),
        base()
            .topology(Topology::mixed(4))
            .routing(RoutingPolicy::JoinShortestQueue),
        base()
            .topology(Topology::mixed(4))
            .dispatch(DispatchMode::Central),
        base().topology(Topology::disaggregated(1, 3)),
    ];
    for (i, scenario) in variants.into_iter().enumerate() {
        let compiled = scenario.compile().unwrap();
        let p = compiled.run().unwrap();
        let s = compiled.run_serial().unwrap();
        assert_eq!(p, s, "variant {i} must be bit-identical");
        assert_eq!(p.report.completed, 32, "variant {i}");
        assert!(p.report.prefix_hits > 0, "variant {i} exercised the cache");
        assert_eq!(
            p.report.makespan_s.to_bits(),
            s.report.makespan_s.to_bits(),
            "variant {i}"
        );
    }
}

#[test]
fn coordinated_cluster_replay_parallel_matches_serial_bit_for_bit() {
    // The full coordination stack — cache-aware routing, the global KV
    // cache tier, popularity-weighted (LFU) eviction — adds routing-time
    // residency state and an arrival-order tier pre-pass to the replay;
    // both are computed off the trace alone, so the rayon-built cost
    // table must still not perturb a single bit, on the routed cluster
    // loops and the disaggregated prefill tier alike.
    use optimus::serving::{
        CacheEviction, DispatchMode, HandoffLink, RoutingPolicy, Scenario, SharedPrefixTraceConfig,
        Topology,
    };
    let system = optimus::MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = SharedPrefixTraceConfig {
        seed: 33,
        requests: 32,
        arrival_rate_per_s: 120.0,
        prefixes: 3,
        prefix_tokens: (100, 260),
        zipf_s: 1.0,
        share_fraction: 0.85,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 32),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .prefix_caching(16)
            .cache_eviction(CacheEviction::Lfu)
            .global_kv_cache(1 << 20)
            .handoff(HandoffLink {
                bytes_per_s: 1e12,
                latency_s: 1e-6,
            })
            .trace(&trace)
    };
    let variants = [
        base()
            .topology(Topology::mixed(4))
            .routing(RoutingPolicy::CacheAware),
        base()
            .topology(Topology::mixed(4))
            .dispatch(DispatchMode::Central),
        base().topology(Topology::disaggregated(1, 3)),
    ];
    for (i, scenario) in variants.into_iter().enumerate() {
        let compiled = scenario.compile().unwrap();
        let p = compiled.run().unwrap();
        let s = compiled.run_serial().unwrap();
        assert_eq!(p, s, "variant {i} must be bit-identical");
        assert_eq!(p.report.completed, 32, "variant {i}");
        assert!(p.report.prefix_hits > 0, "variant {i} exercised the cache");
    }
}

#[test]
fn inference_parallel_matches_on_gpu_baseline_too() {
    let gpus = GpuSystem::h100_cluster(64);
    let model = ModelZoo::llama_70b();
    let par = Parallelism::pure_tp(64).unwrap();
    let est = InferenceEstimator::new(gpus.accelerator().clone(), gpus.fabric().clone());
    let shape = RequestShape::paper_io(8);
    let p = est.estimate(&model, &par, shape).unwrap();
    let s = est.estimate_serial(&model, &par, shape).unwrap();
    assert_eq!(p.total_s.to_bits(), s.total_s.to_bits());
}
