//! Property-based tests over the core invariants of every layer.

use llm_workload::kernel::{Kernel, KernelClass};
use llm_workload::kvcache::{KvCache, KvConvention};
use llm_workload::model::{ModelZoo, Precision};
use llm_workload::parallelism::Parallelism;
use llm_workload::taskgraph::{decode_step, training_step};
use optimus::serving::PrefixBlock;
use optimus::Roofline;
use proptest::prelude::*;
use scd_arch::Blade;
use scd_eda::flow::StarlingFlow;
use scd_eda::netlist::{LogicOp, Netlist, NodeId};
use scd_noc::topology::{NodeId as TorusNode, Torus};
use scd_tech::units::{Bandwidth, TimeInterval};

/// Strategy: a random acyclic netlist with `inputs` primary inputs and up
/// to `gates` gates over {AND, OR, XOR, NOT, MAJ, MUX}.
fn arb_netlist(inputs: usize, gates: usize) -> impl Strategy<Value = Netlist> {
    let ops = prop::collection::vec(
        (
            0u8..6,
            prop::collection::vec(any::<prop::sample::Index>(), 3),
        ),
        1..=gates,
    );
    ops.prop_map(move |specs| {
        let mut n = Netlist::new("random");
        let mut nodes: Vec<NodeId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
        for (op, picks) in specs {
            let pick = |k: usize| picks[k].get(&nodes);
            let id = match op {
                0 => n.add_gate(LogicOp::And, vec![*pick(0), *pick(1)]),
                1 => n.add_gate(LogicOp::Or, vec![*pick(0), *pick(1)]),
                2 => n.add_gate(LogicOp::Xor, vec![*pick(0), *pick(1)]),
                3 => n.add_gate(LogicOp::Not, vec![*pick(0)]),
                4 => n.add_gate(LogicOp::Maj, vec![*pick(0), *pick(1), *pick(2)]),
                _ => n.add_gate(LogicOp::Mux, vec![*pick(0), *pick(1), *pick(2)]),
            }
            .expect("arity is valid by construction");
            nodes.push(id);
        }
        // Expose the last few nodes as outputs.
        let out_count = nodes.len().min(4);
        for (k, &node) in nodes.iter().rev().take(out_count).enumerate() {
            n.add_output(format!("o{k}"), node);
        }
        n
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full Starling flow preserves functionality on arbitrary logic
    /// (the built-in equivalence check would error otherwise), and its
    /// report is internally consistent.
    #[test]
    fn synthesis_preserves_function(netlist in arb_netlist(6, 24)) {
        let flow = StarlingFlow::default().with_verify_words(4);
        let design = flow.compile(&netlist).expect("flow verifies equivalence");
        let r = &design.report;
        prop_assert_eq!(
            r.total_junctions,
            r.logic_junctions + r.splitter_junctions + r.padding_junctions
        );
        prop_assert!(r.overhead_fraction() >= 0.0 && r.overhead_fraction() <= 1.0);
    }

    /// Roofline: kernel time is never below either asymptote and is
    /// monotone in DRAM bandwidth.
    #[test]
    fn roofline_bounds_and_monotonicity(
        m in 1.0f64..512.0,
        n in 64.0f64..8192.0,
        k in 64.0f64..8192.0,
        bw_low in 0.25f64..4.0,
        bw_scale in 1.0f64..32.0,
    ) {
        let kernel = Kernel::gemm("k", KernelClass::Gemm, m, n, k, Precision::Bf16, 1.0);
        let slow = Blade::baseline()
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(bw_low));
        let fast = Blade::baseline()
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(bw_low * bw_scale));
        let t_slow = Roofline::new(&slow).time_kernel(&kernel);
        let t_fast = Roofline::new(&fast).time_kernel(&kernel);
        // More bandwidth never hurts.
        prop_assert!(t_fast.total.seconds() <= t_slow.total.seconds() + 1e-15);
        // Time is at least the compute asymptote.
        let compute_floor = kernel.flops / slow.achievable_flops();
        prop_assert!(t_slow.total.seconds() >= compute_floor - 1e-15);
    }

    /// Training estimates are monotone in DRAM bandwidth and the
    /// breakdown always sums to the total.
    #[test]
    fn training_time_monotone_in_bandwidth(bw in 0.5f64..32.0) {
        let blade = Blade::baseline();
        let model = ModelZoo::gpt3_18b();
        let par = Parallelism::training_baseline();
        let est_lo = optimus::TrainingEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(bw)),
            blade.interconnect(),
        );
        let est_hi = optimus::TrainingEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(bw * 2.0)),
            blade.interconnect(),
        );
        let lo = est_lo.estimate(&model, &par, 16).expect("estimates");
        let hi = est_hi.estimate(&model, &par, 16).expect("estimates");
        prop_assert!(hi.total_s <= lo.total_s + 1e-12);
        let sum = lo.compute_s + lo.comm_s + lo.bubble_s + lo.update_s;
        prop_assert!((sum - lo.total_s).abs() <= 1e-9 * lo.total_s);
    }

    /// Decode graphs: FLOPs and traffic grow monotonically with batch.
    #[test]
    fn decode_graph_monotone_in_batch(batch in 1u32..64) {
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let small = decode_step(&model, &par, batch, 256, Precision::Bf16).expect("graph");
        let large = decode_step(&model, &par, batch + 1, 256, Precision::Bf16).expect("graph");
        prop_assert!(large.total_flops() > small.total_flops());
        prop_assert!(large.total_bytes() >= small.total_bytes());
    }

    /// Training graphs: total FLOPs stay within sane bounds of the 6·N·D
    /// rule for dense models.
    #[test]
    fn training_flops_near_6nd(batch in 1u32..8) {
        let model = ModelZoo::gpt3_18b();
        let par = Parallelism::new(8, 8, 1).expect("valid");
        let g = training_step(&model, &par, batch * 8, 2048, Precision::Bf16).expect("graph");
        let total = g.total_flops() * f64::from(par.units());
        let tokens = f64::from(batch * 8) * 2048.0;
        let ratio = total / (6.0 * model.total_params() * tokens);
        prop_assert!((0.8..1.5).contains(&ratio), "ratio {}", ratio);
    }

    /// KV cache is exactly linear in batch and sequence length.
    #[test]
    fn kv_cache_linearity(batch in 1u32..256, seq in 1u32..8192) {
        let model = ModelZoo::llama2_13b();
        let base = KvCache { batch, seq_len: seq, precision: Precision::Bf16 };
        let double = KvCache { batch: batch * 2, seq_len: seq, precision: Precision::Bf16 };
        let b = base.bytes_mha(&model);
        let d = double.bytes_mha(&model);
        prop_assert!((d / b - 2.0).abs() < 1e-12);
    }

    /// KV cache bytes are monotone in batch, sequence length and element
    /// width under both conventions, and the GQA convention never exceeds
    /// MHA (they coincide when kv_heads == heads).
    #[test]
    fn kv_cache_monotone_and_gqa_bounded(
        batch in 1u32..256,
        seq in 1u32..8192,
        kv_heads_pow in 0u32..7,
    ) {
        let mut model = ModelZoo::llama_70b(); // 64 heads
        model.kv_heads = 1 << kv_heads_pow;    // any divisor of 64
        for conv in [KvConvention::PaperMha, KvConvention::Gqa] {
            let base = KvCache { batch, seq_len: seq, precision: Precision::Bf16 };
            let bigger_batch = KvCache { batch: batch + 1, ..base };
            let longer = KvCache { seq_len: seq + 1, ..base };
            let wider = KvCache { precision: Precision::Fp32, ..base };
            let narrower = KvCache { precision: Precision::Fp8, ..base };
            let b = base.bytes(&model, conv);
            prop_assert!(bigger_batch.bytes(&model, conv) > b);
            prop_assert!(longer.bytes(&model, conv) > b);
            prop_assert!(wider.bytes(&model, conv) > b);
            prop_assert!(narrower.bytes(&model, conv) < b);
        }
        let kv = KvCache { batch, seq_len: seq, precision: Precision::Bf16 };
        let gqa = kv.bytes(&model, KvConvention::Gqa);
        let mha = kv.bytes(&model, KvConvention::PaperMha);
        prop_assert!(gqa <= mha);
        let expected_ratio = f64::from(model.heads) / f64::from(model.kv_heads);
        prop_assert!((mha / gqa - expected_ratio).abs() < 1e-9);
        // decode_read_bytes follows the same convention.
        prop_assert!(
            kv.decode_read_bytes(&model, KvConvention::Gqa).to_bits() == gqa.to_bits()
        );
    }

    /// The refined scheduler frontier is strictly ascending in batch and
    /// the chosen point (when any) meets the budget and is the largest
    /// feasible probed batch.
    #[test]
    fn scheduler_frontier_ascending(max_batch in 1u32..48, budget_ms in 1.0f64..40.0) {
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let d = optimus::plan_serving(&est, &model, &par, (64, 16), max_batch, budget_ms / 1e3)
            .expect("plans");
        prop_assert!(!d.frontier.is_empty());
        for w in d.frontier.windows(2) {
            prop_assert!(w[0].batch < w[1].batch, "frontier must strictly ascend");
        }
        if let Some(c) = d.chosen {
            prop_assert!(c.per_token_s <= d.budget_s);
            for p in &d.frontier {
                if p.per_token_s <= d.budget_s {
                    prop_assert!(p.batch <= c.batch, "chosen must be the largest feasible");
                }
            }
        }
    }

    /// The serving scenario is a pure function of (trace seed, config):
    /// identical seeds replay bit-identically, and every replay conserves
    /// requests.
    #[test]
    fn serving_replay_deterministic(seed in 0u64..32, rate in 10.0f64..500.0) {
        use optimus::serving::{Scenario, TraceConfig};
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let cfg = TraceConfig {
            seed,
            requests: 8,
            arrival_rate_per_s: rate,
            prompt_tokens: (16, 64),
            output_tokens: (4, 12),
        };
        let compiled = Scenario::on_estimator(est)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .poisson(cfg)
            .compile()
            .expect("valid scenario");
        let a = compiled.run().expect("replays").report;
        let b = compiled.run().expect("replays").report;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.completed, 8);
        prop_assert!(a.goodput_tok_s <= a.throughput_tok_s);
        prop_assert!(a.ttft.p50 <= a.ttft.p99);
    }

    /// SLO-class backward compatibility: an explicit single class holding
    /// the engine's global SLO pair reproduces the classless (PR 3)
    /// report's goodput, attainment and throughput bit-for-bit.
    #[test]
    fn single_class_with_global_pair_reproduces_classless_goodput(
        seed in 0u64..24,
        ttft_ms in 5.0f64..5000.0,
        tpot_ms in 0.5f64..100.0,
    ) {
        use optimus::serving::{Scenario, SloClass, TraceConfig};
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let (ttft, tpot) = (ttft_ms / 1e3, tpot_ms / 1e3);
        let mk = || {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .slo(ttft, tpot)
                .poisson(TraceConfig {
                    seed,
                    requests: 8,
                    arrival_rate_per_s: 150.0,
                    prompt_tokens: (16, 96),
                    output_tokens: (4, 16),
                })
        };
        let classless = mk().compile().expect("valid").run().expect("replays").report;
        let one_class = mk()
            .slo_classes(vec![SloClass::new("all", ttft, tpot)])
            .compile()
            .expect("valid")
            .run()
            .expect("replays")
            .report;
        prop_assert_eq!(
            one_class.goodput_tok_s.to_bits(),
            classless.goodput_tok_s.to_bits()
        );
        prop_assert_eq!(
            one_class.slo_attainment.to_bits(),
            classless.slo_attainment.to_bits()
        );
        prop_assert_eq!(
            one_class.throughput_tok_s.to_bits(),
            classless.throughput_tok_s.to_bits()
        );
        prop_assert_eq!(
            one_class.weighted_goodput_tok_s().to_bits(),
            classless.goodput_tok_s.to_bits()
        );
        prop_assert_eq!(one_class.per_class.len(), 1);
        prop_assert_eq!(&one_class.per_class[0].name, "all");
    }

    /// Goodput monotonicity: tightening one class's targets never
    /// increases that class's goodput or attainment, and never perturbs
    /// the other class's slice (scheduling ignores SLO classes).
    #[test]
    fn tightening_a_class_never_increases_its_goodput(
        seed in 0u64..24,
        loose_ttft_ms in 50.0f64..5000.0,
        shrink in 0.05f64..1.0,
    ) {
        use optimus::serving::{Scenario, SloClass, TraceConfig};
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let loose = loose_ttft_ms / 1e3;
        let tight = loose * shrink;
        let mk = |ttft: f64| {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .slo_classes(vec![
                    SloClass::new("watched", ttft, 0.02),
                    SloClass::batch(),
                ])
                .classify(|r| u32::from(r.output_tokens > 10))
                .poisson(TraceConfig {
                    seed,
                    requests: 10,
                    arrival_rate_per_s: 300.0,
                    prompt_tokens: (16, 96),
                    output_tokens: (4, 24),
                })
        };
        let loose_r = mk(loose).compile().expect("valid").run().expect("replays").report;
        let tight_r = mk(tight).compile().expect("valid").run().expect("replays").report;
        let watched_loose = loose_r.class("watched").expect("present");
        let watched_tight = tight_r.class("watched").expect("present");
        prop_assert!(watched_tight.goodput_tok_s <= watched_loose.goodput_tok_s);
        prop_assert!(watched_tight.slo_attainment <= watched_loose.slo_attainment);
        // The untouched class is bit-identical: classes only relabel
        // goodput accounting, never scheduling.
        prop_assert_eq!(
            loose_r.class("batch").expect("present"),
            tight_r.class("batch").expect("present")
        );
        prop_assert_eq!(
            loose_r.throughput_tok_s.to_bits(),
            tight_r.throughput_tok_s.to_bits()
        );
    }

    /// Control-plane inertness: an empty control plane, and the
    /// class-aware policies bound to a single default class, reproduce
    /// the class-blind replay bit-for-bit on both cores (no evictions:
    /// FCFS requeues preemption victims at the queue front, which a
    /// single-class virtual-finish sort would legitimately re-order).
    #[test]
    fn inert_control_plane_is_bit_identical(
        seed in 0u64..24,
        rate in 20.0f64..400.0,
        event in any::<bool>(),
    ) {
        use optimus::serving::{
            ControlPlane, Scenario, SimCore, StrictPriorityPolicy, TraceConfig,
            WeightedFairPolicy,
        };
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let core = if event { SimCore::EventDriven } else { SimCore::PerStep };
        let mk = || {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .core(core)
                .poisson(TraceConfig {
                    seed,
                    requests: 16,
                    arrival_rate_per_s: rate,
                    prompt_tokens: (16, 192),
                    output_tokens: (4, 32),
                })
        };
        let plain = mk().compile().expect("valid").run().expect("replays");
        let empty = mk()
            .control(ControlPlane::new())
            .compile()
            .expect("valid")
            .run()
            .expect("replays");
        prop_assert_eq!(&plain, &empty);
        let strict = mk()
            .policy(StrictPriorityPolicy::new())
            .compile()
            .expect("valid")
            .run()
            .expect("replays");
        prop_assert_eq!(&plain, &strict);
        let fair = mk()
            .policy(WeightedFairPolicy::new())
            .compile()
            .expect("valid")
            .run()
            .expect("replays");
        prop_assert_eq!(&plain, &fair);
    }

    /// Telemetry inertness: mounting the telemetry collector at any
    /// resolution leaves the report bit-identical AND the event stream a
    /// co-mounted observer sees unchanged, across the
    /// policy × topology × core matrix. The collector itself must agree
    /// with the report on conserved totals and honor its memory bound.
    /// It reads every leapfrog call's stretch summaries, so central
    /// dispatch commits each member's rounds per call with it mounted,
    /// and only when the loop reads the blade without: the decode rounds
    /// must agree, in no more commits unobserved. The central case's 48
    /// requests and 32-token cost buckets let plans outlast a call. Over
    /// 144 event-core cases of its seeds, rates and policies, members
    /// carried uncommitted rounds across calls in 95; with 16 requests,
    /// in 11; with the default 1-token buckets, every plan runs out after
    /// one round, so in none.
    #[test]
    fn telemetry_mounting_is_bit_inert(
        seed in 0u64..16,
        rate in 50.0f64..400.0,
        window_exp in 0i32..5,
        topology in 0u8..3,
        policy in 0u8..3,
        event in any::<bool>(),
    ) {
        use optimus::serving::{
            AutoscaleConfig, ControlPlane, DispatchMode, Scenario, SimCore, SjfPolicy,
            TelemetryConfig, Topology, TraceConfig, WeightedFairPolicy,
        };
        let system =
            optimus::MultiBladeSystem::new(if topology == 0 { 1 } else { 4 }).expect("valid");
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let core = if event { SimCore::EventDriven } else { SimCore::PerStep };
        let cfg = TelemetryConfig {
            window_s: 0.0625 * f64::powi(2.0, window_exp),
            max_windows: 32,
        };
        let central = topology == 1;
        let mk = || {
            let mut s = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .core(core)
                .poisson(TraceConfig {
                    seed,
                    requests: if central { 48 } else { 16 },
                    arrival_rate_per_s: rate,
                    prompt_tokens: (16, 192),
                    output_tokens: (4, 32),
                });
            s = match topology {
                0 => s,
                // The autoscaler keeps the control plane exercised and
                // needs central dispatch; control planes don't compose
                // with the disaggregated loop.
                1 => s
                    .dispatch(DispatchMode::Central)
                    .kv_bucket(32)
                    .control(ControlPlane::new().autoscale(
                        AutoscaleConfig::new(1, 4).with_watermarks(1, 4).with_warmup(0.1),
                    )),
                _ => s.topology(Topology::disaggregated(1, 3)),
            };
            match policy {
                0 => s,
                1 => s.policy(SjfPolicy),
                _ => s.policy(WeightedFairPolicy::new()),
            }
        };
        let plain = mk().compile().expect("valid").run_serial().expect("replays");
        let (mounted, tel) = mk()
            .telemetry(cfg)
            .compile()
            .expect("valid")
            .run_with_telemetry()
            .expect("replays");
        prop_assert_eq!(&plain, &mounted);
        let (lazy, eager) = (plain.stretch, mounted.stretch);
        prop_assert_eq!(lazy.stretched_iterations, eager.stretched_iterations);
        prop_assert_eq!(lazy.single_steps, eager.single_steps);
        prop_assert!(lazy.stretches <= eager.stretches);
        // The event stream a user observer sees is also untouched.
        let mut solo = Vec::new();
        mk().compile().expect("valid").run_observed(&mut solo).expect("replays");
        let mut tee = Vec::new();
        mk().telemetry(cfg)
            .compile()
            .expect("valid")
            .run_observed_with_telemetry(&mut tee)
            .expect("replays");
        prop_assert_eq!(solo, tee);
        // Collector consistency: conserved totals and the memory bound.
        let windows = tel.cluster_windows();
        prop_assert!(windows.len() <= 32);
        prop_assert_eq!(
            windows.iter().map(|w| w.completions).sum::<u64>(),
            u64::from(mounted.report.completed)
        );
        prop_assert_eq!(
            windows.iter().map(|w| w.sheds).sum::<u64>(),
            mounted.report.shed_requests
        );
    }

    /// The shedding gate never drops a strict-class request, sheds are
    /// conserved (completed + shed == requests, globally and per class),
    /// and both cores agree on every shed decision: on 1–3 blades behind
    /// per-blade queues (one gate per blade) and under central dispatch
    /// (one gate). The report's shed tally is the recorded `Shed`
    /// events, and no request is both shed and completed.
    #[test]
    fn shedding_never_drops_the_strict_class(
        seed in 0u64..24,
        floor_pct in 50u32..101,
        rate in 100.0f64..500.0,
        blades in 1u32..4,
        central in any::<bool>(),
    ) {
        use optimus::serving::{
            AdmissionControl, ControlPlane, DispatchMode, EventKind, RoutingPolicy, Scenario,
            SimCore, SimEvent, SloClass, Topology, TraceConfig,
        };
        use std::collections::BTreeSet;
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let floor = f64::from(floor_pct) / 100.0;
        let dispatch = if central { DispatchMode::Central } else { DispatchMode::PerBlade };
        let mk = |core: SimCore| {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .core(core)
                .topology(Topology::mixed(blades))
                .routing(RoutingPolicy::JoinShortestQueue)
                .dispatch(dispatch)
                .slo_classes(vec![
                    // Unattainable strict target: the gate latches as soon
                    // as its window fills.
                    SloClass::new("strict", 1e-6, 1e-9).with_weight(2.0),
                    SloClass::batch(),
                ])
                .classify(|r| u32::from(r.prompt_tokens > 96))
                .control(ControlPlane::new().shed(
                    AdmissionControl::new(0, floor).with_resume_margin(0.0).with_window(6, 2),
                ))
                .poisson(TraceConfig {
                    seed,
                    requests: 24,
                    arrival_rate_per_s: rate,
                    prompt_tokens: (16, 192),
                    output_tokens: (4, 32),
                })
        };
        let run = mk(SimCore::EventDriven).compile().expect("valid").run().expect("replays");
        prop_assert_eq!(&run, &mk(SimCore::PerStep).compile().expect("valid").run().expect("replays"));
        let r = &run.report;
        let strict = r.class("strict").expect("present");
        let batch = r.class("batch").expect("present");
        prop_assert_eq!(strict.shed, 0);
        prop_assert_eq!(r.shed_requests, batch.shed);
        prop_assert_eq!(
            u64::from(r.completed) + r.shed_requests,
            u64::from(r.requests)
        );
        prop_assert_eq!(strict.requests + batch.requests, r.requests);
        // The recorded stream agrees with the report's shed tally.
        let mut events: Vec<SimEvent> = Vec::new();
        let observed = mk(SimCore::EventDriven)
            .compile()
            .expect("valid")
            .run_observed(&mut events)
            .expect("replays");
        prop_assert_eq!(&observed, &run);
        let shed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Shed { request } => Some(request.id),
                _ => None,
            })
            .collect();
        prop_assert_eq!(shed.len() as u64, r.shed_requests);
        let shed: BTreeSet<u32> = shed.into_iter().collect();
        // No request was shed twice.
        prop_assert_eq!(shed.len() as u64, r.shed_requests);
        for e in &events {
            if let EventKind::Completion { request, .. } = e.kind {
                prop_assert!(!shed.contains(&request.id), "request {} shed and completed", request.id);
            }
        }
    }

    /// Prefix-cache invariants under random workloads: refcounts never
    /// underflow (misuse is a typed error, not a panic), LRU eviction
    /// never touches a referenced block, and releasing every holder
    /// drains the cache to zero. Between holders, writers `touch` random
    /// chains and uncommitted leases are dropped (after reclaiming through
    /// them): neither may leave a reference behind or disturb a holder.
    #[test]
    fn prefix_cache_refcounts_never_underflow_and_drain(
        holders in prop::collection::vec(
            (0u64..6, 1u32..200, any::<bool>(), 0u64..8, 0u32..200, any::<bool>()),
            1..20,
        ),
        block_pow in 2u32..7,
    ) {
        use optimus::serving::{
            BlockInterner, CacheEviction, PrefixCache, PrefixCachingConfig, SharedPrefix,
        };
        let block = 1u32 << block_pow;
        let mut cache = PrefixCache::new(PrefixCachingConfig {
            block_tokens: block,
            eviction: CacheEviction::Lru,
        });
        let mut ids = BlockInterner::new();
        let mut held: Vec<Vec<optimus::serving::PrefixBlock>> = Vec::new();
        for &(id, tokens, evict, other_id, other_tokens, touch) in &holders {
            let chain = ids.chain(SharedPrefix { id, tokens }, block);
            let charged = cache.charged_tokens();
            let lease = cache.lease(&chain);
            prop_assert!(lease.hits() <= chain.len());
            // Committing charges exactly the missing suffix, whole blocks.
            let promised = lease.charged_after_commit();
            let missing = (chain.len() - lease.hits()) as u64;
            prop_assert_eq!(promised, charged + missing * u64::from(block));
            lease.commit();
            prop_assert_eq!(cache.charged_tokens(), promised);
            held.push(chain);
            // A writer holding nothing (`other_tokens == 0`: none).
            if other_tokens > 0 {
                let other = ids.chain(SharedPrefix { id: other_id, tokens: other_tokens }, block);
                if touch {
                    prop_assert!(cache.touch(&other) <= other.len());
                    prop_assert_eq!(cache.peek(&other), other.len());
                } else {
                    let before = cache.resident_blocks();
                    let mut lease = cache.lease(&other);
                    let hits = lease.hits();
                    let reclaimed = u64::from(lease.evict_lru().is_some());
                    drop(lease);
                    // A dropped lease inserts nothing.
                    prop_assert_eq!(cache.peek(&other), hits);
                    prop_assert_eq!(cache.resident_blocks(), before - reclaimed);
                }
            }
            if evict {
                // Reclaim whatever the writers left unreferenced: then
                // everything resident is referenced, so LRU reclamation
                // must find nothing more.
                while cache.evict_lru().is_some() {}
                prop_assert_eq!(cache.reclaimable_blocks(), 0);
                prop_assert!(cache.evict_lru().is_none());
            }
            // Every held chain stays fully resident.
            for chain in &held {
                prop_assert_eq!(cache.peek(chain), chain.len());
            }
            prop_assert!(cache.resident_tokens() <= cache.charged_tokens());
        }
        // Release every holder once: blocks become reclaimable but stay
        // resident (warm cache) until evicted.
        for chain in &held {
            cache.release(chain).expect("holder releases once");
        }
        // A second release of any chain is a typed underflow error.
        let first = &held[0];
        prop_assert!(matches!(
            cache.release(first),
            Err(optimus::OptimusError::Serving { .. })
        ));
        let resident = cache.resident_blocks();
        prop_assert!(resident > 0);
        // Fully unreferenced: at least the chain leaves are reclaimable,
        // and peeling them frees their parents until nothing remains.
        prop_assert!(cache.reclaimable_blocks() > 0);
        let mut evicted = 0u64;
        while cache.evict_lru().is_some() {
            evicted += 1;
        }
        prop_assert_eq!(evicted, resident);
        prop_assert_eq!(cache.resident_blocks(), 0);
        prop_assert_eq!(cache.resident_tokens(), 0);
        prop_assert_eq!(cache.reclaimable_blocks(), 0);
    }

    /// `touch` is lease → commit → release in one pass: twin caches run
    /// one random op sequence, one writing through `touch`, the other
    /// through the three public calls, and must agree on every hit, on
    /// every size after each op, and on the order blocks are evicted in.
    /// Ids recur at different lengths, budget evictions interleave, and
    /// holders keep committed leases across touches.
    #[test]
    fn touch_equals_lease_commit_release(
        ops in prop::collection::vec((0u8..6, 0u64..4, 1u32..160, 0u64..256), 1..80),
        lfu in any::<bool>(),
        block_pow in 2u32..6,
    ) {
        use optimus::serving::{
            BlockInterner, CacheEviction, PrefixCache, PrefixCachingConfig, SharedPrefix,
        };
        let block = 1u32 << block_pow;
        let config = PrefixCachingConfig {
            block_tokens: block,
            eviction: if lfu { CacheEviction::Lfu } else { CacheEviction::Lru },
        };
        let (mut one_pass, mut three_calls) = (PrefixCache::new(config), PrefixCache::new(config));
        let mut ids = BlockInterner::new();
        let mut held: Vec<Vec<optimus::serving::PrefixBlock>> = Vec::new();
        fn sizes(c: &PrefixCache) -> [u64; 4] {
            [c.resident_blocks(), c.resident_tokens(), c.charged_tokens(), c.reclaimable_blocks()]
        }
        fn drain(c: &mut PrefixCache) -> Vec<u32> {
            std::iter::from_fn(|| c.evict_lru()).collect()
        }
        for (step, &(op, id, tokens, arg)) in ops.iter().enumerate() {
            let chain = ids.chain(SharedPrefix { id, tokens }, block);
            match op {
                0..=2 => {
                    let hits = one_pass.touch(&chain);
                    let lease = three_calls.lease(&chain);
                    prop_assert_eq!((step, hits), (step, lease.hits()));
                    lease.commit();
                    three_calls.release(&chain).expect("a committed chain is held");
                }
                3 => {
                    let (a, b) = (one_pass.lease(&chain), three_calls.lease(&chain));
                    prop_assert_eq!((step, a.hits()), (step, b.hits()));
                    a.commit();
                    b.commit();
                    held.push(chain.clone());
                }
                4 if !held.is_empty() => {
                    let chain = held.swap_remove(arg as usize % held.len());
                    one_pass.release(&chain).expect("held");
                    three_calls.release(&chain).expect("held");
                }
                _ => {
                    let budget = arg * u64::from(block);
                    let evicted = one_pass.evict_to_budget(budget);
                    prop_assert_eq!((step, evicted), (step, three_calls.evict_to_budget(budget)));
                }
            }
            // Tagged with the step, so a failure names where the twins
            // first diverged.
            prop_assert_eq!((step, sizes(&one_pass)), (step, sizes(&three_calls)));
            prop_assert_eq!((step, one_pass.peek(&chain)), (step, three_calls.peek(&chain)));
        }
        // What the holders leave reclaimable, then everything.
        prop_assert_eq!(drain(&mut one_pass), drain(&mut three_calls));
        for chain in &held {
            one_pass.release(chain).expect("held");
            three_calls.release(chain).expect("held");
        }
        prop_assert_eq!(drain(&mut one_pass), drain(&mut three_calls));
        prop_assert_eq!(one_pass.resident_blocks(), 0);
    }

    /// Cache-aware accounting stays within capacity and agrees with the
    /// observer event stream: shared + private blocks never exceed the
    /// KV budget, the shared pool is bounded by the whole-KV peak, and
    /// the report's hit/miss/eviction counters equal what the observer
    /// saw.
    #[test]
    fn prefix_caching_respects_capacity_and_observer_accounting(
        seed in 0u64..24,
        share in 0.0f64..1.0,
        tight in 1.1f64..3.0,
    ) {
        use llm_workload::kvcache::{KvCache, KvConvention};
        use optimus::serving::{CountingObserver, Scenario, SharedPrefixTraceConfig, TraceSource};
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let cfg = SharedPrefixTraceConfig {
            seed,
            requests: 10,
            arrival_rate_per_s: 200.0,
            prefixes: 2,
            prefix_tokens: (48, 96),
            zipf_s: 1.0,
            share_fraction: share,
            unique_prompt_tokens: (8, 48),
            output_tokens: (4, 16),
        };
        let trace = cfg.requests().expect("valid");
        let per_token = KvCache { batch: 1, seq_len: 1, precision: est.precision() }
            .bytes(&model, KvConvention::Gqa);
        let max_len = trace
            .iter()
            .map(|r| r.prompt_tokens + r.output_tokens)
            .max()
            .expect("non-empty") as f64;
        // +32: headroom for the chain's block rounding and tail copy
        // (prefix caching charges whole 16-token blocks), so the largest
        // request passes validation even at tight = 1.1.
        let capacity = per_token * (max_len + 32.0) * tight;
        let compiled = Scenario::on_estimator(est)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .kv_capacity_bytes(capacity)
            .kv_bucket(4)
            .prefix_caching(16)
            .requests(trace.clone())
            .compile()
            .expect("valid scenario");
        let mut observer = CountingObserver::default();
        let r = compiled.run_observed(&mut observer).expect("replays").report;
        let counts = observer.counts();
        prop_assert_eq!(r.completed, 10);
        prop_assert!(r.kv_peak_bytes <= capacity * (1.0 + 1e-12));
        prop_assert!(r.kv_shared_peak_bytes <= r.kv_peak_bytes + 1e-9);
        prop_assert_eq!(r.prefix_hits, counts.cache_hits);
        prop_assert_eq!(r.prefix_misses, counts.cache_misses);
        prop_assert_eq!(r.prefix_cache_evictions, counts.cache_evictions);
        // Every prefix-tagged admission performed exactly one lookup.
        let tagged = trace.iter().filter(|t| t.prefix.is_some()).count() as u64;
        prop_assert!(r.prefix_hits + r.prefix_misses >= tagged);
        // Savings only come from hits, bounded by the largest prefix.
        prop_assert!(r.prefix_tokens_saved <= r.prefix_hits * 96);
        if r.prefix_hits == 0 {
            prop_assert_eq!(r.prefix_tokens_saved, 0);
        }
    }

    /// PR 4 compatibility: with prefix caching off, SharedPrefix tags are
    /// inert — the report is bit-identical to the same trace with the
    /// tags stripped.
    #[test]
    fn prefix_tags_are_inert_without_caching(seed in 0u64..24, share in 0.0f64..1.0) {
        use optimus::serving::{RequestSpec, Scenario, SharedPrefixTraceConfig, TraceSource};
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let tagged = SharedPrefixTraceConfig {
            seed,
            requests: 8,
            arrival_rate_per_s: 150.0,
            prefixes: 2,
            prefix_tokens: (32, 64),
            zipf_s: 0.8,
            share_fraction: share,
            unique_prompt_tokens: (8, 32),
            output_tokens: (4, 12),
        }
        .requests()
        .expect("valid");
        let stripped: Vec<RequestSpec> = tagged
            .iter()
            .map(|r| RequestSpec { prefix: None, ..*r })
            .collect();
        let run = |t: Vec<RequestSpec>| {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .requests(t)
                .compile()
                .expect("valid")
                .run()
                .expect("replays")
                .report
        };
        let a = run(tagged);
        let b = run(stripped);
        prop_assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        prop_assert_eq!(a.throughput_tok_s.to_bits(), b.throughput_tok_s.to_bits());
        prop_assert_eq!(a.goodput_tok_s.to_bits(), b.goodput_tok_s.to_bits());
        prop_assert_eq!(a.ttft.p99.to_bits(), b.ttft.p99.to_bits());
        prop_assert_eq!(a.prefix_hits + a.prefix_misses, 0);
        prop_assert_eq!(&a, &b);
    }

    /// Policy conformance: under every scheduler policy the head-of-line
    /// request that fits is admitted — i.e. replay never livelocks, every
    /// request completes, and conservation holds — even when capacity is
    /// tight enough to force evictions.
    #[test]
    fn every_policy_drains_its_queue(seed in 0u64..24, tight in 1.0f64..3.0) {
        use llm_workload::kvcache::{KvCache, KvConvention};
        use optimus::serving::{
            FcfsPolicy, MaxWaitGuardPolicy, Scenario, SjfPolicy, TraceConfig,
        };
        let blade = Blade::baseline();
        let est = optimus::InferenceEstimator::new(
            blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        );
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let cfg = TraceConfig {
            seed,
            requests: 8,
            arrival_rate_per_s: 200.0,
            prompt_tokens: (16, 96),
            output_tokens: (4, 24),
        };
        let trace = cfg.synthesize().expect("valid");
        // Capacity scaled from the largest single request: always ≥ one
        // full-length sequence (the no-livelock precondition), rarely
        // enough for the whole batch.
        let per_token = KvCache { batch: 1, seq_len: 1, precision: est.precision() }
            .bytes(&model, KvConvention::Gqa);
        let max_len = trace
            .iter()
            .map(|r| r.prompt_tokens + r.output_tokens)
            .max()
            .expect("non-empty") as f64;
        let mk = || {
            Scenario::on_estimator(est.clone())
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .kv_capacity_bytes(per_token * max_len * tight)
                .kv_bucket(4)
                .poisson(cfg)
        };
        let scenarios = [
            ("fcfs-default", mk()),
            ("sjf", mk().policy(SjfPolicy)),
            ("guard", mk().policy(MaxWaitGuardPolicy::new(0.05))),
            ("fcfs", mk().policy(FcfsPolicy)),
        ];
        for (name, scenario) in scenarios {
            let r = scenario.compile().expect("valid").run().expect("replays").report;
            prop_assert!(r.completed == 8, "{} must drain", name);
            prop_assert!(r.goodput_tok_s <= r.throughput_tok_s);
        }
    }

    /// Cluster replay is deterministic and conserving: the rayon and
    /// serial paths agree exactly and every routed request completes.
    #[test]
    fn cluster_replay_deterministic(seed in 0u64..16, blades in 1u32..5) {
        use optimus::serving::{RoutingPolicy, Scenario, TraceConfig};
        let system = optimus::MultiBladeSystem::new(blades).expect("valid");
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .routing(RoutingPolicy::JoinShortestQueue)
            .poisson(TraceConfig {
                seed,
                requests: 12,
                arrival_rate_per_s: 300.0,
                prompt_tokens: (16, 64),
                output_tokens: (4, 12),
            })
            .compile()
            .expect("valid scenario");
        let p = compiled.run().expect("replays");
        let s = compiled.run_serial().expect("replays");
        prop_assert_eq!(&p, &s);
        prop_assert_eq!(p.report.completed, 12);
        prop_assert_eq!(p.per_blade.iter().map(|b| b.requests).sum::<u32>(), 12);
    }

    /// Cache-aware routing degenerates to join-shortest-queue whenever it
    /// has no residency signal to act on: with no prefix tags in the
    /// trace (caching on) or with prefix caching off entirely (tags
    /// present but inert), the full cluster report is bit-identical to
    /// [`RoutingPolicy::JoinShortestQueue`].
    #[test]
    fn cache_aware_routing_without_signal_is_jsq(seed in 0u64..16, blades in 2u32..5) {
        use optimus::serving::{
            RequestSpec, RoutingPolicy, Scenario, SharedPrefixTraceConfig, TraceSource,
        };
        let system = optimus::MultiBladeSystem::new(blades).expect("valid");
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let tagged = SharedPrefixTraceConfig {
            seed,
            requests: 12,
            arrival_rate_per_s: 300.0,
            prefixes: 2,
            prefix_tokens: (32, 64),
            zipf_s: 0.8,
            share_fraction: 0.8,
            unique_prompt_tokens: (8, 32),
            output_tokens: (4, 12),
        }
        .requests()
        .expect("valid");
        let stripped: Vec<RequestSpec> = tagged
            .iter()
            .map(|r| RequestSpec { prefix: None, ..*r })
            .collect();
        let run = |routing, trace: &Vec<RequestSpec>, caching: bool| {
            let mut s = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .unconstrained_kv()
                .routing(routing)
                .requests(trace.clone());
            if caching {
                s = s.prefix_caching(16);
            }
            s.compile().expect("valid").run().expect("replays")
        };
        // Caching on, but nothing tagged: no residency to match.
        let aware = run(RoutingPolicy::CacheAware, &stripped, true);
        let jsq = run(RoutingPolicy::JoinShortestQueue, &stripped, true);
        prop_assert_eq!(&aware, &jsq);
        // Tags present, caching off: the residency model is never built.
        let aware_off = run(RoutingPolicy::CacheAware, &tagged, false);
        let jsq_off = run(RoutingPolicy::JoinShortestQueue, &tagged, false);
        prop_assert_eq!(&aware_off, &jsq_off);
    }

    /// Disaggregated replay conservation: for any role split of a 4-blade
    /// system, every request completes exactly once, prefill blades
    /// complete none, and repeated runs are bit-identical.
    #[test]
    fn disaggregated_replay_conserves_requests(seed in 0u64..16, prefill in 1u32..4) {
        use optimus::serving::{BladeRole, Scenario, Topology, TraceConfig};
        let system = optimus::MultiBladeSystem::new(4).expect("valid");
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).expect("valid");
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .topology(Topology::disaggregated(prefill, 4 - prefill))
            .poisson(TraceConfig {
                seed,
                requests: 12,
                arrival_rate_per_s: 300.0,
                prompt_tokens: (16, 64),
                output_tokens: (4, 12),
            })
            .compile()
            .expect("valid scenario");
        let p = compiled.run().expect("replays");
        prop_assert_eq!(&p, &compiled.run().expect("replays"));
        prop_assert_eq!(p.report.completed, 12);
        prop_assert_eq!(p.per_blade.iter().map(|b| b.requests).sum::<u32>(), 12);
        for b in &p.per_blade {
            if b.role == BladeRole::Prefill {
                prop_assert_eq!(b.requests, 0);
            }
        }
    }

    /// Torus routing: the dimension-order path always reaches the
    /// destination in exactly `distance` hops, and distance is symmetric.
    #[test]
    fn torus_routing_terminates(
        w in 2usize..10,
        h in 2usize..10,
        ax in 0usize..10,
        ay in 0usize..10,
        bx in 0usize..10,
        by in 0usize..10,
    ) {
        let torus = Torus::new(w, h).expect("valid");
        let a = TorusNode::new(ax % w, ay % h);
        let b = TorusNode::new(bx % w, by % h);
        let path = torus.path(a, b);
        prop_assert_eq!(path.len(), torus.distance(a, b));
        if let Some(&last) = path.last() {
            prop_assert_eq!(last, b);
        }
        prop_assert_eq!(torus.distance(a, b), torus.distance(b, a));
        // Diameter bound for a torus.
        prop_assert!(torus.distance(a, b) <= w / 2 + h / 2);
    }

    /// The latency-aware transfer model never reports more than wire
    /// bandwidth and degrades monotonically with latency.
    #[test]
    fn transfer_model_sane(
        bytes in 1.0f64..1e9,
        lat_ns in 1.0f64..500.0,
        bw in 0.5f64..64.0,
    ) {
        use scd_mem::transfer::TransferModel;
        let m = TransferModel::cryo_dram();
        let bw = Bandwidth::from_tbps(bw);
        let lat = TimeInterval::from_ns(lat_ns);
        let achieved = m.achieved_bandwidth(bytes, bw, lat);
        prop_assert!(achieved.bytes_per_s() <= bw.bytes_per_s() + 1.0);
        let worse = m.achieved_bandwidth(bytes, bw, TimeInterval::from_ns(lat_ns * 2.0));
        prop_assert!(worse.bytes_per_s() <= achieved.bytes_per_s() + 1.0);
    }
}

/// Strategy: any `f64`, weighted towards the values a sort has to get
/// right: NaNs of both signs and several payloads, signed zeros and
/// infinities, the extremes, subnormals, and a small pool of repeats.
fn arb_sample() -> impl Strategy<Value = f64> {
    const SPECIAL: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0002),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
    ];
    const REPEATS: [f64; 5] = [-1.0, -0.0, 0.0, 0.25, 3.5];
    (0u8..4, any::<u64>()).prop_map(|(kind, bits)| match kind {
        0 => SPECIAL[(bits % SPECIAL.len() as u64) as usize],
        1 => f64::from_bits(bits),
        2 => REPEATS[(bits % REPEATS.len() as u64) as usize],
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
    })
}

/// Checks `Percentiles::of` against nearest ranks read off a full
/// `total_cmp` sort, bit for bit, and that it only reorders its input.
fn percentiles_match_sorted_reference(values: &[f64]) -> Result<(), TestCaseError> {
    use optimus::serving::Percentiles;
    let bits = |v: &[f64]| -> Vec<u64> {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v.iter().map(|x| x.to_bits()).collect()
    };
    let sorted = bits(values);
    let at = |q: f64| -> u64 {
        if sorted.is_empty() {
            return 0.0f64.to_bits();
        }
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    let mut reordered = values.to_vec();
    let p = Percentiles::of(&mut reordered);
    prop_assert_eq!(p.p50.to_bits(), at(0.50));
    prop_assert_eq!(p.p95.to_bits(), at(0.95));
    prop_assert_eq!(p.p99.to_bits(), at(0.99));
    prop_assert_eq!(bits(&reordered), sorted);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Selection percentiles equal the sort-based nearest-rank reference
    /// bit for bit, on any `f64` input of 0 to 300 values (and on the
    /// shortest inputs, drawn separately so each length is hit).
    #[test]
    fn selection_percentiles_equal_sorted_nearest_rank(
        values in prop::collection::vec(arb_sample(), 0..=300),
        short in prop::collection::vec(arb_sample(), 0..=3),
    ) {
        percentiles_match_sorted_reference(&values)?;
        percentiles_match_sorted_reference(&short)?;
    }
}

/// One resident block of [`CacheModel`].
#[derive(Debug, Clone, Copy)]
struct ModelBlock {
    id: u32,
    parent: Option<u32>,
    refcount: u32,
    tokens: u32,
    last_use: u64,
    hits: u64,
}

/// Brute-force reference for `PrefixCache`: the resident blocks in a
/// plain `Vec`, every query a linear scan. Its victim is the minimum
/// reclamation key among unreferenced resident leaves: `(last_use, 0,
/// id)` under LRU, `(hits, last_use, id)` under LFU.
struct CacheModel {
    blocks: Vec<ModelBlock>,
    tick: u64,
    lfu: bool,
    block_tokens: u32,
}

impl CacheModel {
    fn resident(&self, id: u32) -> Option<usize> {
        self.blocks.iter().position(|m| m.id == id)
    }

    fn peek(&self, chain: &[PrefixBlock]) -> usize {
        chain
            .iter()
            .take_while(|b| self.resident(b.id()).is_some())
            .count()
    }

    /// Stamps, counts and references the resident leading blocks.
    fn pin(&mut self, chain: &[PrefixBlock]) -> usize {
        let hits = self.peek(chain);
        for b in &chain[..hits] {
            self.tick += 1;
            let i = self.resident(b.id()).unwrap();
            let m = &mut self.blocks[i];
            m.last_use = self.tick;
            m.refcount += 1;
            m.hits += 1;
        }
        hits
    }

    /// Inserts `chain[from..]`, each block referenced once.
    fn commit(&mut self, chain: &[PrefixBlock], from: usize) {
        for i in from..chain.len() {
            self.tick += 1;
            self.blocks.push(ModelBlock {
                id: chain[i].id(),
                parent: i.checked_sub(1).map(|p| chain[p].id()),
                refcount: 1,
                tokens: chain[i].tokens(),
                last_use: self.tick,
                hits: 0,
            });
        }
    }

    fn unpin(&mut self, blocks: &[PrefixBlock]) {
        for b in blocks {
            let i = self.resident(b.id()).unwrap();
            self.blocks[i].refcount -= 1;
        }
    }

    /// Whether the release succeeds; a failed one changes nothing.
    fn release(&mut self, chain: &[PrefixBlock]) -> bool {
        let held = chain.iter().all(|b| {
            self.resident(b.id())
                .is_some_and(|i| self.blocks[i].refcount > 0)
        });
        if held {
            self.unpin(chain);
        }
        held
    }

    fn touch(&mut self, chain: &[PrefixBlock]) -> usize {
        let hits = self.pin(chain);
        self.commit(chain, hits);
        self.unpin(chain);
        hits
    }

    fn is_leaf(&self, m: &ModelBlock) -> bool {
        m.refcount == 0 && !self.blocks.iter().any(|c| c.parent == Some(m.id))
    }

    fn key(&self, m: &ModelBlock) -> (u64, u64, u32) {
        if self.lfu {
            (m.hits, m.last_use, m.id)
        } else {
            (m.last_use, 0, m.id)
        }
    }

    /// Evicts the minimum-key unreferenced leaf: its id and tokens.
    fn evict(&mut self) -> Option<(u32, u32)> {
        let victim = (0..self.blocks.len())
            .filter(|&i| self.is_leaf(&self.blocks[i]))
            .min_by_key(|&i| self.key(&self.blocks[i]))?;
        let m = self.blocks.swap_remove(victim);
        Some((m.id, m.tokens))
    }

    fn charged(&self) -> u64 {
        self.blocks.len() as u64 * u64::from(self.block_tokens)
    }

    fn evict_to_budget(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.charged() > budget && self.evict().is_some() {
            evicted += 1;
        }
        evicted
    }

    fn sizes(&self) -> [u64; 4] {
        let tokens = self.blocks.iter().map(|m| u64::from(m.tokens)).sum();
        let leaves = self.blocks.iter().filter(|m| self.is_leaf(m)).count();
        [
            self.blocks.len() as u64,
            tokens,
            self.charged(),
            leaves as u64,
        ]
    }
}

/// splitmix64's finalizer and its inverse: block hashes chain through
/// `mix`, seeded by `mix(id ^ CHAIN_SEED)`, which is how a crafted trace
/// inverts them into colliding prefix ids.
const CHAIN_SEED: u64 = 0xa076_1d64_78bd_642f;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn unmix(mut x: u64) -> u64 {
    let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |x, _| y ^ (x >> s));
    let inverse = |a: u64| {
        (0..5).fold(a, |inv: u64, _| {
            inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)))
        })
    };
    x = unshift(x, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    x = unshift(x, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
    unshift(x, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PrefixCache` equals [`CacheModel`] under LRU and LFU: random
    /// leases (committed, or dropped after reclaiming through them),
    /// touches, releases (of held chains and of any chain, misuse
    /// included), evictions and budget evictions agree on every return
    /// value, on every size after each op, and on which blocks stay
    /// resident, so the victim order is the model's. Ids recur at
    /// several lengths, so chains share leading blocks, and a crafted
    /// pair collides: a one-block chain whose partial tail hashes to
    /// another chain's first full block.
    #[test]
    fn prefix_cache_matches_a_brute_force_model(
        tags in prop::collection::vec((0u64..4, 1u32..120), 1..8),
        ops in prop::collection::vec((0u8..7, any::<prop::sample::Index>(), 0u64..64), 1..120),
        lfu in any::<bool>(),
        block_pow in 2u32..5,
    ) {
        use optimus::serving::{
            BlockInterner, CacheEviction, PrefixCache, PrefixCachingConfig, SharedPrefix,
        };
        let block = 1u32 << block_pow;
        let mut ids = BlockInterner::new();
        let mut chains: Vec<Vec<PrefixBlock>> = tags
            .iter()
            .map(|&(id, tokens)| ids.chain(SharedPrefix { id, tokens }, block))
            .collect();
        // The crafted pair: `mix(b ^ CHAIN_SEED)` is chosen so that the
        // tail's salt cancels out of its hash.
        let full = SharedPrefix { id: 17, tokens: 2 * block + 1 };
        let tail = block / 2;
        let salt = u64::from(tail) << 32;
        let crafted = SharedPrefix {
            id: unmix(mix(full.id ^ CHAIN_SEED) ^ salt) ^ CHAIN_SEED,
            tokens: tail,
        };
        let (long, short) = (ids.chain(full, block), ids.chain(crafted, block));
        prop_assert_eq!(short.len(), 1);
        // The crafted pair collides: one hash, one id, two token counts.
        prop_assert_eq!(short[0].hash(), long[0].hash());
        prop_assert_eq!(short[0].id(), long[0].id());
        prop_assert_ne!(short[0].tokens(), long[0].tokens());
        chains.extend([long, short, Vec::new()]);

        let eviction = if lfu { CacheEviction::Lfu } else { CacheEviction::Lru };
        let mut cache = PrefixCache::new(PrefixCachingConfig { block_tokens: block, eviction });
        let mut model = CacheModel { blocks: Vec::new(), tick: 0, lfu, block_tokens: block };
        let mut held: Vec<usize> = Vec::new();
        for (step, &(op, pick, arg)) in ops.iter().enumerate() {
            let c = pick.index(chains.len());
            let chain = &chains[c];
            match op {
                0 | 1 => {
                    let mut lease = cache.lease(chain);
                    let hits = model.pin(chain);
                    prop_assert_eq!((step, lease.hits()), (step, hits));
                    let missing = (chain.len() - hits) as u64;
                    prop_assert_eq!(
                        lease.charged_after_commit(),
                        model.charged() + missing * u64::from(block)
                    );
                    for _ in 0..arg % 3 {
                        let want = model.evict().map(|(_, tokens)| tokens);
                        prop_assert_eq!((step, lease.evict_lru()), (step, want));
                    }
                    if op == 0 {
                        lease.commit();
                        model.commit(chain, hits);
                        held.push(c);
                    } else {
                        drop(lease);
                        model.unpin(&chain[..hits]);
                    }
                }
                2 => prop_assert_eq!((step, cache.touch(chain)), (step, model.touch(chain))),
                3 => {
                    // A held chain when there is one, else any chain:
                    // releasing what nobody holds is a typed error.
                    let chain = match held.len() {
                        0 => chain,
                        n => &chains[held.swap_remove(arg as usize % n)],
                    };
                    let want = model.release(chain);
                    prop_assert_eq!((step, cache.release(chain).is_ok()), (step, want));
                }
                4 => {
                    let want = model.release(chain);
                    prop_assert_eq!((step, cache.release(chain).is_ok()), (step, want));
                }
                5 => {
                    let want = model.evict().map(|(_, tokens)| tokens);
                    prop_assert_eq!((step, cache.evict_lru()), (step, want));
                }
                _ => {
                    let budget = arg * u64::from(block);
                    let want = model.evict_to_budget(budget);
                    prop_assert_eq!((step, cache.evict_to_budget(budget)), (step, want));
                }
            }
            let sizes = [
                cache.resident_blocks(),
                cache.resident_tokens(),
                cache.charged_tokens(),
                cache.reclaimable_blocks(),
            ];
            prop_assert_eq!((step, sizes), (step, model.sizes()));
            // Residency seen through every chain: a different victim
            // shows here, since a resident block's ancestors are.
            for other in &chains {
                prop_assert_eq!((step, cache.peek(other)), (step, model.peek(other)));
            }
        }
        // Release what is still held, then drain in the model's order.
        for c in held {
            let want = model.release(&chains[c]);
            prop_assert_eq!(cache.release(&chains[c]).is_ok(), want);
        }
        while let Some((_, tokens)) = model.evict() {
            prop_assert_eq!(cache.evict_lru(), Some(tokens));
        }
        prop_assert_eq!(cache.evict_lru(), None);
        prop_assert_eq!(cache.resident_blocks(), model.blocks.len() as u64);
    }
}
