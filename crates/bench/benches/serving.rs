//! Criterion bench: scenario-compiled serving replays — single blade,
//! the cluster loop at 1/4/16 blades, the disaggregated prefill→decode
//! loop, the prefix-cached shared-prompt replay, and the simulation-core
//! scaling trend (event-driven vs per-step on the diurnal trace) — plus
//! the per-block cost of a prefix-cache touch under eviction pressure and
//! the per-event cost of folding a replay into the telemetry collector.

use criterion::{criterion_group, criterion_main, Criterion};
use llm_workload::{ModelZoo, Parallelism};
use optimus::serving::{
    BlockInterner, CacheEviction, DispatchMode, HandoffLink, Interest, NoopObserver, PrefixBlock,
    PrefixCache, PrefixCachingConfig, RoutingPolicy, Scenario, SharedPrefix,
    SharedPrefixTraceConfig, SimCore, SimEvent, SimObserver, SloClass, Telemetry, TelemetryConfig,
    Topology, TraceConfig,
};
use optimus::{InferenceEstimator, MultiBladeSystem, SpeedupStudy};
use scd_arch::Blade;
use scd_bench::core_bench::diurnal_workload;
use scd_tech::units::Bandwidth;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_serving(c: &mut Criterion) {
    let blade = Blade::baseline();
    let est = InferenceEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
        blade.interconnect(),
    );
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let compiled = Scenario::on_estimator(est)
        .model(&model)
        .parallelism(&par)
        .max_batch(32)
        .poisson(TraceConfig {
            seed: 1,
            requests: 32,
            arrival_rate_per_s: 16.0,
            prompt_tokens: (150, 250),
            output_tokens: (100, 200),
        })
        .compile()
        .unwrap();

    c.bench_function("serving/replay_single_blade", |b| {
        b.iter(|| black_box(&compiled).run().unwrap())
    });
}

fn bench_cluster(c: &mut Criterion) {
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 2,
        requests: 96,
        arrival_rate_per_s: 400.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 64),
    };
    for blades in [1u32, 4, 16] {
        let system = MultiBladeSystem::new(blades).unwrap();
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .unconstrained_kv()
            .routing(RoutingPolicy::JoinShortestQueue)
            .poisson(trace)
            .compile()
            .unwrap();
        c.bench_function(&format!("serving/cluster_replay_{blades}_blades"), |b| {
            b.iter(|| black_box(&compiled).run().unwrap())
        });
    }
    // The disaggregated loop at the same scale as the 4-blade cluster.
    let system = MultiBladeSystem::new(4).unwrap();
    let disagg = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(8)
        .unconstrained_kv()
        .topology(Topology::disaggregated(1, 3))
        .poisson(trace)
        .compile()
        .unwrap();
    c.bench_function("serving/disaggregated_replay_1p3d", |b| {
        b.iter(|| black_box(&disagg).run().unwrap())
    });
}

fn bench_prefix_caching(c: &mut Criterion) {
    let blade = Blade::baseline();
    let est = InferenceEstimator::new(
        blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
        blade.interconnect(),
    );
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = SharedPrefixTraceConfig {
        seed: 3,
        requests: 96,
        arrival_rate_per_s: 60.0,
        prefixes: 4,
        prefix_tokens: (256, 512),
        zipf_s: 1.0,
        share_fraction: 0.9,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 32),
    };
    for (name, caching) in [("off", false), ("on", true)] {
        let mut s = Scenario::on_estimator(est.clone())
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .unconstrained_kv()
            .trace(&trace);
        if caching {
            s = s.prefix_caching(16);
        }
        let compiled = s.compile().unwrap();
        c.bench_function(&format!("serving/prefix_cache_{name}"), |b| {
            b.iter(|| black_box(&compiled).run().unwrap())
        });
    }
}

/// One `PrefixCache::touch` plus `evict_to_budget` per iteration, the
/// step the global tier's plan and the routing residency model take per
/// request: a Zipf(1.1) sequence over 64 system prompts of 256–1023
/// tokens in 16-token blocks, on an LFU cache whose 8192-token budget
/// holds about a fifth of the catalogue, so most touches evict.
fn bench_prefix_touch(c: &mut Criterion) {
    const PROMPTS: usize = 64;
    const BUDGET_TOKENS: u64 = 8192;
    let mut ids = BlockInterner::new();
    let chains: Vec<Vec<PrefixBlock>> = (0..PROMPTS as u64)
        .map(|id| {
            let spread = ((id + 1) as f64 * 0.618_033_988_749_895).fract();
            let tokens = 256 + (spread * 768.0) as u32;
            ids.chain(SharedPrefix { id, tokens }, 16)
        })
        .collect();
    // Zipf picks by inverse CDF over a xorshift stream.
    let cdf: Vec<f64> = (1..=PROMPTS)
        .scan(0.0, |acc, rank| {
            *acc += (rank as f64).powf(-1.1);
            Some(*acc)
        })
        .collect();
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let picks: Vec<usize> = (0..4096)
        .map(|_| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let u = (rng >> 11) as f64 / (1u64 << 53) as f64 * cdf[PROMPTS - 1];
            cdf.partition_point(|&c| c < u).min(PROMPTS - 1)
        })
        .collect();
    let mut cache = PrefixCache::new(PrefixCachingConfig {
        block_tokens: 16,
        eviction: CacheEviction::Lfu,
    });
    let mut touch = |i: usize| {
        let hits = cache.touch(&chains[picks[i % picks.len()]]);
        hits as u64 + cache.evict_to_budget(BUDGET_TOKENS)
    };
    // Start from the steady state, not from a cold cache.
    (0..picks.len()).for_each(|i| {
        touch(i);
    });
    let mut next = 0;
    c.bench_function("serving/prefix_touch_zipf", |b| {
        b.iter(|| {
            next += 1;
            touch(next)
        })
    });
}

/// Records the event stream an observer of [`Interest::Summaries`]
/// receives — the stream the telemetry collector folds.
struct SummaryRecorder(Vec<SimEvent>);

impl SimObserver for SummaryRecorder {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.push(*event);
    }

    fn interest(&self) -> Interest {
        Interest::Summaries
    }
}

/// Alternating pairs timed by [`bench_telemetry_fold`] for the mounted
/// replay's overhead.
const OVERHEAD_PAIRS: usize = 31;

/// The telemetry fold alone, without the replay: one summary-reading
/// event stream of a 2P+2D replay (2000 Poisson requests, two SLO classes,
/// 0.1 s windows) is recorded once, then folded into a fresh collector
/// per iteration — arrivals registered, every event folded, finished.
/// Prints ns per iteration and, on a second line, ns per event. A third
/// line prints what mounting the collector adds to the replay:
/// `run_with_telemetry()` minus `run_observed(&mut NoopObserver)`, timed
/// in alternating pairs, as the median of the pairs' differences.
fn bench_telemetry_fold(c: &mut Criterion) {
    let fold_row = c.selected("serving/telemetry_fold");
    let overhead_row = c.selected("serving/telemetry_mounted_overhead");
    if !fold_row && !overhead_row {
        return;
    }
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let classes = vec![SloClass::interactive(), SloClass::batch()];
    let cfg = TelemetryConfig {
        window_s: 0.1,
        ..TelemetryConfig::default()
    };
    let compiled = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(16)
        .unconstrained_kv()
        .topology(Topology::disaggregated(2, 2))
        .slo_classes(classes.clone())
        .classify(|r| u32::from(r.output_tokens > 64))
        .telemetry(cfg)
        .poisson(TraceConfig {
            seed: 5,
            requests: 2000,
            arrival_rate_per_s: 200.0,
            prompt_tokens: (64, 512),
            output_tokens: (16, 256),
        })
        .compile()
        .unwrap();
    let mut recorder = SummaryRecorder(Vec::new());
    compiled.run_observed(&mut recorder).unwrap();
    let events = recorder.0;
    let fold = || {
        let mut telemetry = Telemetry::new(&cfg, 4, &classes).unwrap();
        telemetry.observe_arrivals(compiled.trace());
        for event in &events {
            telemetry.on_event(event);
        }
        telemetry.finish();
        telemetry
    };
    let (_, mounted) = compiled.run_with_telemetry().unwrap();
    assert_eq!(
        fold().to_csv(),
        mounted.to_csv(),
        "the fold is the mounted collector's"
    );
    let (mut folds, mut spent) = (0u32, Duration::ZERO);
    c.bench_function("serving/telemetry_fold", |b| {
        b.iter(|| {
            let started = Instant::now();
            let telemetry = fold();
            spent += started.elapsed();
            folds += 1;
            telemetry
        })
    });
    if fold_row {
        println!(
            "bench {:<40} {:>12.1} ns/event ({} events)",
            "serving/telemetry_fold",
            spent.as_secs_f64() * 1e9 / (f64::from(folds) * events.len() as f64),
            events.len()
        );
    }
    if !overhead_row {
        return;
    }
    let time = |replay: &dyn Fn()| {
        let started = Instant::now();
        replay();
        started.elapsed().as_secs_f64()
    };
    let mounted = || {
        black_box(compiled.run_with_telemetry().unwrap());
    };
    let bare = || {
        black_box(compiled.run_observed(&mut NoopObserver).unwrap());
    };
    let mut overheads: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let m = time(&mounted);
                m - time(&bare)
            } else {
                let b = time(&bare);
                time(&mounted) - b
            }
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    println!(
        "bench {:<40} {:>12.1} us/replay (median of {OVERHEAD_PAIRS} paired differences)",
        "serving/telemetry_mounted_overhead",
        overheads[OVERHEAD_PAIRS / 2] * 1e6
    );
}

/// The core-scaling trend behind `BENCH_serving_core.json`: the event
/// core at 10k/100k/1M diurnal requests against the per-step reference
/// at 10k/100k, plus the leapfrogged multi-blade event loops — 4-blade
/// central dispatch and the 2P+2D disaggregated topology — at 10k/100k.
/// The per-step million-request point is omitted — its idle-gap scan is
/// quadratic in trace length (minutes per iteration), which is exactly
/// the cost the event core removes.
fn bench_core_trend(c: &mut Criterion) {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let points: [(SimCore, &str, &[u32]); 2] = [
        (SimCore::EventDriven, "event", &[10_000, 100_000, 1_000_000]),
        (SimCore::PerStep, "per_step", &[10_000, 100_000]),
    ];
    for (core, name, sizes) in points {
        for &requests in sizes {
            let compiled = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
                .model(&model)
                .parallelism(&par)
                .max_batch(32)
                .core(core)
                .trace(&diurnal_workload(requests))
                .compile()
                .unwrap();
            c.bench_function(&format!("serving/core_{name}_{requests}_requests"), |b| {
                b.iter(|| black_box(&compiled).run().unwrap())
            });
        }
    }
    // The multi-blade event loops the stretch-horizon fast-forward
    // accelerates, mirroring the `cluster_event`/`disagg_event` rows of
    // the committed trajectory (criterion keeps the 1M points out of the
    // default run's time budget).
    for requests in [10_000u32, 100_000] {
        let central = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(32)
            .core(SimCore::EventDriven)
            .topology(Topology::mixed(4))
            .dispatch(DispatchMode::Central)
            .trace(&diurnal_workload(requests))
            .compile()
            .unwrap();
        c.bench_function(
            &format!("serving/core_cluster_event_{requests}_requests"),
            |b| b.iter(|| black_box(&central).run().unwrap()),
        );
        let disagg = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(32)
            .core(SimCore::EventDriven)
            .topology(Topology::disaggregated(2, 2))
            // Estimator-anchored scenarios carry no fabric to derive the
            // prefill→decode link from; pin an NVLink-class one instead.
            .handoff(HandoffLink {
                bytes_per_s: 400e9,
                latency_s: 5e-6,
            })
            .trace(&diurnal_workload(requests))
            .compile()
            .unwrap();
        c.bench_function(
            &format!("serving/core_disagg_event_{requests}_requests"),
            |b| b.iter(|| black_box(&disagg).run().unwrap()),
        );
    }
}

criterion_group!(
    benches,
    bench_serving,
    bench_cluster,
    bench_prefix_caching,
    bench_prefix_touch,
    bench_telemetry_fold,
    bench_core_trend
);
criterion_main!(benches);
