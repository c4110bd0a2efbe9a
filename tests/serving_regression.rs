//! Regression anchor for the serving API redesign: the single-blade
//! FCFS + contiguous-KV configuration must reproduce the PR 2 monolith's
//! `ServingReport` **bit-for-bit** on the seeded Poisson trace used by
//! the bench experiments, through the `Scenario` builder.
//!
//! The golden bit patterns below were captured from the pre-refactor
//! `crates/core/src/serving.rs` (commit `bff4d3a`) replaying the
//! `serving_experiments::base_trace()` workload: Llama-405B, TP=64, the
//! SCD blade at 16 TB/s per SPU, `ServingConfig::for_system(max_batch=32)`
//! (contiguous KV, whole-prompt prefill, bucketized-mean pricing, bucket
//! 32), trace seed 2025 with 48 requests at 8 req/s and I/O ~200/200.

use llm_workload::{ModelZoo, Parallelism};
use optimus::serving::{
    AdmissionControl, AutoscaleConfig, CacheEviction, ClusterReport, ControlPlane, DispatchMode,
    NoopObserver, RequestSpec, RoutingPolicy, Scenario, ServingReport, SharedPrefixTraceConfig,
    SimCore, SloClass, StrictPriorityPolicy, TelemetryConfig, Topology, TraceConfig,
    WeightedFairPolicy,
};
use optimus::{MultiBladeSystem, SpeedupStudy};

fn golden_trace() -> TraceConfig {
    TraceConfig {
        seed: 2025,
        requests: 48,
        arrival_rate_per_s: 8.0,
        prompt_tokens: (150, 250),
        output_tokens: (150, 250),
    }
}

fn assert_pr2_bits(path: &str, r: &ServingReport) {
    assert_eq!(r.requests, 48, "{path}");
    assert_eq!(r.completed, 48, "{path}");
    assert_eq!(r.evictions, 0, "{path}");
    assert_eq!(r.wasted_tokens, 0, "{path}");
    assert_eq!(r.decode_iterations, 3300, "{path}");
    // Prefix caching is off by default: the cache must never have been
    // consulted, let alone perturbed anything.
    assert_eq!(r.prefix_hits + r.prefix_misses, 0, "{path}");
    assert_eq!(r.prefix_tokens_saved, 0, "{path}");
    assert_eq!(r.prefix_cow_copies, 0, "{path}");
    assert_eq!(r.prefix_cache_evictions, 0, "{path}");
    assert_eq!(r.kv_shared_peak_bytes, 0.0, "{path}");
    let bits = [
        ("makespan_s", r.makespan_s, 0x4014708407609be9u64),
        ("throughput_tok_s", r.throughput_tok_s, 0x409dba5b5ab1f1e4),
        ("goodput_tok_s", r.goodput_tok_s, 0x409dba5b5ab1f1e4),
        ("slo_attainment", r.slo_attainment, 0x3ff0000000000000),
        ("mean_batch", r.mean_batch, 0x4007a666cddab3e4),
        ("decode_time_s", r.decode_time_s, 0x4013a5c20250ce63),
        ("ttft.p50", r.ttft.p50, 0x3f6fdd14604de400),
        ("ttft.p95", r.ttft.p95, 0x3f7679c31757e600),
        ("ttft.p99", r.ttft.p99, 0x3f796fe787a21e00),
        ("tpot.p50", r.tpot.p50, 0x3f58bfa3a25353fa),
        ("tpot.p95", r.tpot.p95, 0x3f5987e162f6ebbc),
        ("tpot.p99", r.tpot.p99, 0x3f59909e07f63427),
        ("latency.p50", r.latency.p50, 0x3fd4396658dd2420),
        ("latency.p95", r.latency.p95, 0x3fd81b42f3b214c0),
        ("latency.p99", r.latency.p99, 0x3fd8c5ea83027430),
    ];
    for (name, got, want) in bits {
        assert_eq!(
            got.to_bits(),
            want,
            "{path}: {name} drifted from the PR 2 monolith: {got} ({:#018x} vs {want:#018x})",
            got.to_bits()
        );
    }
}

/// The scenario builder with the PR 2 settings (for-system KV, FCFS,
/// one blade) must keep reproducing the PR 2 float bit patterns exactly.
#[test]
fn scenario_single_blade_default_reproduces_pr2_bits() {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let compiled = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
        .model(&model)
        .parallelism(&par)
        .max_batch(32)
        .poisson(golden_trace())
        .compile()
        .unwrap();
    for (path, r) in [
        ("scenario/parallel", compiled.run().unwrap()),
        ("scenario/serial", compiled.run_serial().unwrap()),
    ] {
        assert_eq!(r.blades, 1, "{path}");
        assert_pr2_bits(path, &r.report);
        // The default SLO class blends to the same goodput bits.
        assert_eq!(r.report.per_class.len(), 1, "{path}");
        assert_eq!(
            r.report.per_class[0].goodput_tok_s.to_bits(),
            r.report.goodput_tok_s.to_bits(),
            "{path}"
        );
    }
}

/// Golden bit patterns for the cluster-scale replay paths, captured at
/// the introduction of the event-driven core (which replays them
/// bit-identically to the per-step loops — both cores are pinned here, so
/// a drift in either one, or a divergence between them, fails).
#[test]
fn cluster_disaggregated_and_prefix_pins_hold_on_both_cores() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 41,
        requests: 48,
        arrival_rate_per_s: 30.0,
        prompt_tokens: (64, 384),
        output_tokens: (16, 96),
    };
    let prefix_trace = SharedPrefixTraceConfig {
        seed: 43,
        requests: 32,
        arrival_rate_per_s: 60.0,
        prefixes: 2,
        prefix_tokens: (120, 250),
        zipf_s: 1.0,
        share_fraction: 0.9,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 32),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
    };
    // (field value, golden bits) per scenario; captured from the per-step
    // loops at the pin commit.
    struct Pin {
        name: &'static str,
        completed: u32,
        decode_iterations: u64,
        prefix_hits: u64,
        prefix_tokens_saved: u64,
        bits: [(&'static str, u64); 8],
    }
    let pins = [
        Pin {
            name: "central",
            completed: 48,
            decode_iterations: 2321,
            prefix_hits: 0,
            prefix_tokens_saved: 0,
            bits: [
                ("makespan_s", 0x3ffb1f76da7c1ff6),
                ("throughput_tok_s", 0x409836bed9f91f46),
                ("decode_time_s", 0x400c831a8bfa15f4),
                ("mean_batch", 0x3ff2210649cf91cf),
                ("ttft.p50", 0x3f6a98d81d031000),
                ("ttft.p99", 0x3f73fc10103fe300),
                ("tpot.p50", 0x3f59331133aff863),
                ("latency.p99", 0x3fc3a04e94586368),
            ],
        },
        Pin {
            name: "disaggregated",
            completed: 48,
            decode_iterations: 2098,
            prefix_hits: 0,
            prefix_tokens_saved: 0,
            bits: [
                ("makespan_s", 0x3ffb1f8796a32eaf),
                ("throughput_tok_s", 0x409836afe95a1063),
                ("decode_time_s", 0x4009cd642e363eee),
                ("mean_batch", 0x3ff4147bf97d8dc0),
                ("ttft.p50", 0x3f6b7eb837fc4b00),
                ("ttft.p99", 0x3f74db6d37341d00),
                ("tpot.p50", 0x3f5936bf58ebb58e),
                ("latency.p99", 0x3fc351386987c630),
            ],
        },
        Pin {
            name: "prefix",
            completed: 32,
            decode_iterations: 260,
            prefix_hits: 23,
            prefix_tokens_saved: 3777,
            bits: [
                ("makespan_s", 0x3fdd25afa1279fa2),
                ("throughput_tok_s", 0x4095f51ef86462b1),
                ("decode_time_s", 0x3fd9b412d01f700c),
                ("mean_batch", 0x4003c9b519cc6eb7),
                ("ttft.p50", 0x3f700a9901e13300),
                ("ttft.p99", 0x3f7840cc4f983208),
                ("tpot.p50", 0x3f5c5d313eccb8ab),
                ("latency.p99", 0x3fad0798cf543510),
            ],
        },
    ];
    for core in [SimCore::EventDriven, SimCore::PerStep] {
        let runs = [
            base()
                .routing(RoutingPolicy::JoinShortestQueue)
                .dispatch(DispatchMode::Central)
                .poisson(trace),
            base()
                .topology(Topology::disaggregated(1, 3))
                .poisson(trace),
            base()
                .prefix_caching(16)
                .topology(Topology::mixed(1))
                .trace(&prefix_trace),
        ];
        for (scenario, pin) in runs.into_iter().zip(&pins) {
            let r = scenario.core(core).compile().unwrap().run().unwrap().report;
            let path = format!("{}/{core:?}", pin.name);
            assert_eq!(r.completed, pin.completed, "{path}");
            assert_eq!(r.decode_iterations, pin.decode_iterations, "{path}");
            assert_eq!(r.prefix_hits, pin.prefix_hits, "{path}");
            assert_eq!(r.prefix_tokens_saved, pin.prefix_tokens_saved, "{path}");
            let got = [
                ("makespan_s", r.makespan_s),
                ("throughput_tok_s", r.throughput_tok_s),
                ("decode_time_s", r.decode_time_s),
                ("mean_batch", r.mean_batch),
                ("ttft.p50", r.ttft.p50),
                ("ttft.p99", r.ttft.p99),
                ("tpot.p50", r.tpot.p50),
                ("latency.p99", r.latency.p99),
            ];
            for ((name, value), &(_, want)) in got.into_iter().zip(&pin.bits) {
                assert_eq!(
                    value.to_bits(),
                    want,
                    "{path}: {name} drifted: {value} ({:#018x} vs {want:#018x})",
                    value.to_bits()
                );
            }
        }
    }
}

/// An *empty* control plane — and class-aware policies bound to the
/// single default class — must not move the golden workload by a bit:
/// the entire PR 7 control layer is provably inert when off.
#[test]
fn inert_control_plane_reproduces_cluster_pins() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 41,
        requests: 48,
        arrival_rate_per_s: 30.0,
        prompt_tokens: (64, 384),
        output_tokens: (16, 96),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .routing(RoutingPolicy::JoinShortestQueue)
            .dispatch(DispatchMode::Central)
            .poisson(trace)
    };
    for core in [SimCore::EventDriven, SimCore::PerStep] {
        let plain = base().core(core).compile().unwrap().run().unwrap();
        // The plain run is the pinned "central" workload of
        // `cluster_disaggregated_and_prefix_pins_hold_on_both_cores`.
        assert_eq!(plain.report.decode_iterations, 2321);
        assert_eq!(plain.report.makespan_s.to_bits(), 0x3ffb1f76da7c1ff6);
        let empty = base()
            .control(ControlPlane::new())
            .core(core)
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(plain, empty, "{core:?}: empty control plane must be inert");
        let strict = base()
            .policy(StrictPriorityPolicy::new())
            .core(core)
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            plain, strict,
            "{core:?}: single-class strict priority degenerates to FCFS"
        );
        let fair = base()
            .policy(WeightedFairPolicy::new())
            .core(core)
            .compile()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            plain, fair,
            "{core:?}: single-class weighted fair degenerates to FCFS"
        );
    }
}

/// Golden bit patterns for the PR 7 control-plane configurations:
/// class-aware ordering (strict-priority, weighted-fair), the load-shed
/// gate, and the autoscaler, each pinned on both cores.
#[test]
fn control_plane_pins_hold_on_both_cores() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    // A flash crowd (everything arrives at t=0): the central queue is
    // deep from the first iteration, so ordering, shedding and scaling
    // all leave visible fingerprints (at a finite trickle these blades
    // absorb arrivals instantly and every policy degenerates to FCFS).
    let trace = TraceConfig {
        seed: 47,
        requests: 48,
        arrival_rate_per_s: f64::INFINITY,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .dispatch(DispatchMode::Central)
            .slo_classes(vec![
                SloClass::new("interactive", 1e-6, 1e-9).with_weight(2.0),
                SloClass::batch(),
            ])
            .classify(|r| u32::from(r.prompt_tokens > 128))
            .poisson(trace)
    };
    struct Pin {
        name: &'static str,
        completed: u32,
        shed: u64,
        scale_events: u32,
        bits: [(&'static str, u64); 5],
    }
    let pins = [
        Pin {
            name: "strict-priority",
            completed: 48,
            shed: 0,
            scale_events: 0,
            bits: [
                ("makespan_s", 0x3fcff5c70690f23a),
                ("throughput_tok_s", 0x40bc69136b67c434),
                ("decode_time_s", 0x3fea428bd63b86dd),
                ("ttft.p99", 0x3fc419b30cbc4567),
                ("latency.p99", 0x3fcff5c70690f23a),
            ],
        },
        Pin {
            name: "weighted-fair",
            completed: 48,
            shed: 0,
            scale_events: 0,
            bits: [
                ("makespan_s", 0x3fcfeec1c0cd6622),
                ("throughput_tok_s", 0x40bc6f5273a550e1),
                ("decode_time_s", 0x3feab291262fdb9b),
                ("ttft.p99", 0x3fc424cd164b0791),
                ("latency.p99", 0x3fcfeec1c0cd6622),
            ],
        },
        Pin {
            name: "shedding",
            completed: 27,
            shed: 21,
            scale_events: 0,
            bits: [
                ("makespan_s", 0x3fc3521862c39de7),
                ("throughput_tok_s", 0x40b786259855972a),
                ("decode_time_s", 0x3fdc3ece41c4c94b),
                ("ttft.p99", 0x3fb03f1dfbba5c09),
                ("latency.p99", 0x3fc3521862c39de7),
            ],
        },
        Pin {
            name: "autoscaled",
            completed: 48,
            shed: 0,
            scale_events: 1,
            bits: [
                ("makespan_s", 0x3fdd7e60db6b85b5),
                ("throughput_tok_s", 0x40aec9491bc921d6),
                ("decode_time_s", 0x3fe8b470899cf4ce),
                ("ttft.p99", 0x3fd926ca2d6d9fe0),
                ("latency.p99", 0x3fdd7e60db6b85b5),
            ],
        },
    ];
    for core in [SimCore::EventDriven, SimCore::PerStep] {
        let runs = [
            base().policy(StrictPriorityPolicy::new()),
            base().policy(WeightedFairPolicy::new()),
            base()
                .control(ControlPlane::new().shed(AdmissionControl::new(0, 0.9).with_window(8, 2))),
            base().control(
                ControlPlane::new().autoscale(
                    AutoscaleConfig::new(1, 4)
                        .with_watermarks(0, 3)
                        .with_warmup(0.05),
                ),
            ),
        ];
        for (scenario, pin) in runs.into_iter().zip(&pins) {
            let r = scenario.core(core).compile().unwrap().run().unwrap();
            let path = format!("{}/{core:?}", pin.name);
            if std::env::var("PIN_CAPTURE").is_ok() {
                eprintln!(
                    "{path}: completed {} shed {} scale_events {} makespan {:#018x} throughput {:#018x} decode_time {:#018x} ttft.p99 {:#018x} latency.p99 {:#018x}",
                    r.report.completed,
                    r.report.shed_requests,
                    r.scale_events,
                    r.report.makespan_s.to_bits(),
                    r.report.throughput_tok_s.to_bits(),
                    r.report.decode_time_s.to_bits(),
                    r.report.ttft.p99.to_bits(),
                    r.report.latency.p99.to_bits()
                );
                continue;
            }
            assert_eq!(r.report.completed, pin.completed, "{path}");
            assert_eq!(r.report.shed_requests, pin.shed, "{path}");
            assert_eq!(r.scale_events, pin.scale_events, "{path}");
            let got = [
                ("makespan_s", r.report.makespan_s),
                ("throughput_tok_s", r.report.throughput_tok_s),
                ("decode_time_s", r.report.decode_time_s),
                ("ttft.p99", r.report.ttft.p99),
                ("latency.p99", r.report.latency.p99),
            ];
            for ((name, value), &(_, want)) in got.into_iter().zip(&pin.bits) {
                assert_eq!(
                    value.to_bits(),
                    want,
                    "{path}: {name} drifted: {value} ({:#018x} vs {want:#018x})",
                    value.to_bits()
                );
            }
        }
    }
}

/// A request whose prompt plus output overflows `u32` is rejected with a
/// typed error: the trace check widens before adding, so the sum can
/// neither panic nor wrap to a length that fits the KV capacity.
#[test]
fn overflowing_token_sum_is_a_typed_error() {
    let system = MultiBladeSystem::new(1).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let compiled = Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .requests(vec![RequestSpec::new(0, 0.0, u32::MAX, 1)])
        .compile();
    assert!(
        matches!(compiled, Err(optimus::OptimusError::Serving { .. })),
        "{compiled:?}"
    );
}

/// FNV-1a digest of a report's simulated output: every field but the
/// `stretch` diagnostics, through `Debug`, which prints each float in
/// shortest round-trip form (equal digests mean bit-equal floats).
fn report_digest(report: &ClusterReport) -> u64 {
    let mut simulated = report.clone();
    simulated.stretch = Default::default();
    format!("{simulated:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A recorded trace may reuse one prefix id at two lengths: id 7 tags
/// 40-token and 64-token prefixes, which share two 16-token blocks and
/// then diverge (a partial tail against two more full blocks). Prefix
/// chains are keyed by id *and* length, so both shapes replay as they
/// always did under cache-aware routing, central dispatch and the
/// disaggregated prefill tier, each with the global tier and blade
/// caches small enough to evict.
#[test]
fn prefix_id_reused_at_two_lengths_keeps_its_pins() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let requests: Vec<RequestSpec> = (0..48u32)
        .map(|i| {
            let r = RequestSpec::new(
                i,
                f64::from(i) * 0.004,
                72 + (i * 13) % 40,
                8 + (i * 7) % 24,
            );
            match i % 6 {
                0 | 3 => r.with_prefix(7, 40),
                1 | 4 => r.with_prefix(7, 64),
                2 => r.with_prefix(9, 48),
                _ => r,
            }
        })
        .collect();
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .kv_capacity_bytes(200.0 * 524_288.0)
            .prefix_caching(16)
            .cache_eviction(CacheEviction::Lfu)
            .global_kv_cache(96)
            .requests(requests.clone())
    };
    let pins = [
        ("cache-aware", 0xeaf5_63a9_35b9_c178u64),
        ("central", 0xca04_e3a5_4979_8f0d),
        ("disaggregated", 0x93d2_8807_24c2_ad34),
    ];
    for core in [SimCore::EventDriven, SimCore::PerStep] {
        let runs = [
            base().routing(RoutingPolicy::CacheAware),
            base().dispatch(DispatchMode::Central),
            base().topology(Topology::disaggregated(2, 2)),
        ];
        for (scenario, (name, want)) in runs.into_iter().zip(pins) {
            let r = scenario.core(core).compile().unwrap().run().unwrap();
            assert_eq!(r.report.completed, 48, "{name}/{core:?}");
            let got = report_digest(&r);
            assert_eq!(
                got, want,
                "{name}/{core:?}: report digest drifted ({got:#018x} vs {want:#018x})"
            );
        }
    }
}

/// FNV-1a digest of an exported text.
fn text_digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The telemetry CSV of a small 2P+2D replay with a 1.0 s window,
/// pinned by digest: once at full resolution and once with the window
/// bound at 2, so the series is downsampled twice on the way. Mounting
/// the collector alone and teeing it with an observer of
/// `Interest::Nothing` must export the same CSV.
#[test]
fn disaggregated_telemetry_csv_keeps_its_pin() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let pins = [(512, 0x4775_6b66_90d0_8f31u64), (2, 0x6595_9095_c466_735d)];
    for (max_windows, want) in pins {
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .topology(Topology::disaggregated(2, 2))
            .telemetry(TelemetryConfig {
                window_s: 1.0,
                max_windows,
            })
            .poisson(TraceConfig {
                seed: 47,
                requests: 64,
                arrival_rate_per_s: 10.0,
                prompt_tokens: (64, 384),
                output_tokens: (16, 256),
            })
            .compile()
            .unwrap();
        let (report, telemetry) = compiled.run_with_telemetry().unwrap();
        assert_eq!(report.report.completed, 64);
        let csv = telemetry.to_csv();
        let (_, teed) = compiled
            .run_observed_with_telemetry(&mut NoopObserver)
            .unwrap();
        assert_eq!(csv, teed.to_csv(), "max_windows {max_windows}");
        let got = text_digest(&csv);
        assert_eq!(
            got, want,
            "max_windows {max_windows}: telemetry CSV digest drifted ({got:#018x} vs {want:#018x})\n{csv}"
        );
    }
}

/// Request ids are labels: a trace whose requests all carry id 0
/// replays, and exports its telemetry, exactly like the same trace
/// numbered `0..n`, under central dispatch with evictions and under the
/// disaggregated handoff.
#[test]
fn repeated_request_ids_leave_reports_and_telemetry_unchanged() {
    let system = MultiBladeSystem::new(2).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let numbered = TraceConfig {
        seed: 11,
        requests: 200,
        arrival_rate_per_s: 60.0,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    }
    .synthesize()
    .unwrap();
    let repeated: Vec<RequestSpec> = numbered
        .iter()
        .map(|r| RequestSpec { id: 0, ..*r })
        .collect();
    let run = |topology: Topology, dispatch: DispatchMode, requests: &[RequestSpec]| {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .kv_capacity_bytes(1_200.0 * 524_288.0)
            .topology(topology)
            .dispatch(dispatch)
            .telemetry(TelemetryConfig {
                window_s: 0.5,
                max_windows: 512,
            })
            .requests(requests.to_vec())
            .compile()
            .unwrap()
            .run_with_telemetry()
            .unwrap()
    };
    for (name, topology, dispatch) in [
        ("central", Topology::mixed(2), DispatchMode::Central),
        (
            "1P+1D",
            Topology::disaggregated(1, 1),
            DispatchMode::PerBlade,
        ),
    ] {
        let (report, telemetry) = run(topology.clone(), dispatch, &numbered);
        let (same_report, same_telemetry) = run(topology, dispatch, &repeated);
        assert!(report.report.evictions > 0, "{name}: no eviction exercised");
        assert_eq!(same_report, report, "{name}: reports");
        assert_eq!(same_telemetry.to_csv(), telemetry.to_csv(), "{name}: CSV");
    }
}

/// The replay follows arrival time, not the order the trace lists its
/// requests in: a permuted FCFS trace with distinct arrivals reports
/// exactly like the sorted one under every routing policy of per-blade
/// dispatch, under central dispatch and under 1P+3D.
#[test]
fn permuted_trace_replays_like_the_sorted_one() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let sorted: Vec<RequestSpec> = TraceConfig {
        seed: 3,
        requests: 200,
        arrival_rate_per_s: 120.0,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    }
    .synthesize()
    .unwrap()
    .into_iter()
    .map(|r| match r.id % 3 {
        0 if r.prompt_tokens > 64 => r.with_prefix(1, 64),
        1 if r.prompt_tokens > 96 => r.with_prefix(2, 96),
        _ => r,
    })
    .collect();
    assert!(sorted.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
    // 37 is coprime to 200: position `i` holds request `37 i mod 200`.
    let n = sorted.len();
    let permuted: Vec<RequestSpec> = (0..n).map(|i| sorted[(37 * i) % n]).collect();
    let base = |requests: &[RequestSpec]| {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .kv_capacity_bytes(1_600.0 * 524_288.0)
            .prefix_caching(16)
            .requests(requests.to_vec())
    };
    for name in ["JSQ", "round-robin", "cache-aware", "central", "1P+3D"] {
        let run = |requests: &[RequestSpec]| {
            let s = base(requests);
            let s = match name {
                "JSQ" => s.routing(RoutingPolicy::JoinShortestQueue),
                "round-robin" => s.routing(RoutingPolicy::RoundRobin),
                "cache-aware" => s.routing(RoutingPolicy::CacheAware),
                "central" => s.dispatch(DispatchMode::Central),
                _ => s.topology(Topology::disaggregated(1, 3)),
            };
            s.compile().unwrap().run().unwrap()
        };
        let want = run(&sorted);
        assert_eq!(want.report.completed, 200, "{name}");
        assert_eq!(run(&permuted), want, "{name}");
    }
}
