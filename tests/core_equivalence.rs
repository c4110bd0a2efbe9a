//! Each replay loop (the single-blade drive, and the coupled loop that
//! central dispatch and the disaggregated topology share) is generic over
//! a queue discipline; `SimCore` picks the discipline. The event-driven
//! disciplines must be *bit-identical* to the per-step reference
//! discipline on every workload: same reports, same per-blade accounting,
//! same observer event streams. The reference re-sorts and partitions the queue in full every
//! round, scans for ready times and never fast-forwards, so this suite
//! checks the incremental orders, the skipped partitions, keyed
//! extraction and the decode stretches and leapfrogs against it — across
//! policies (each `OrderingContract`), KV layouts, pricing modes, chunked
//! prefill, prefix caching, cluster dispatch modes and the disaggregated
//! prefill→decode topology. The reference reports zero stretches, so a
//! reference that silently fast-forwarded (checking the fast path
//! against itself) would fail here too.

use llm_workload::kvcache::{KvCache, KvConvention};
use llm_workload::model::{ModelZoo, TransformerConfig};
use llm_workload::Parallelism;
use optimus::serving::{
    first_divergence, AdmissionControl, AutoscaleConfig, ClusterReport, ControlPlane,
    DecodePricing, DispatchMode, DiurnalTraceConfig, EventKind, HandoffLink, KvLayout,
    MaxWaitGuardPolicy, RequestSpec, RoutingPolicy, Scenario, SharedPrefixTraceConfig, SimCore,
    SimEvent, SjfPolicy, SloClass, StretchStats, StrictPriorityPolicy, TelemetryConfig, Topology,
    TraceConfig, TraceSource, WeightedFairPolicy,
};
use optimus::{MultiBladeSystem, SpeedupStudy};
use proptest::prelude::*;
use scd_tech::units::Bandwidth;

/// KV bytes for one token of `model` at the system's serving precision.
fn per_token_bytes(system: &MultiBladeSystem, model: &TransformerConfig) -> f64 {
    KvCache {
        batch: 1,
        seq_len: 1,
        precision: system.inference_estimator().precision(),
    }
    .bytes(model, KvConvention::Gqa)
}

/// Events of `events` matching `kind`.
fn count(events: &[SimEvent], kind: fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| kind(&e.kind)).count()
}

/// Compiles `build()` under both cores, runs each, and asserts the full
/// cluster reports (global + per-blade + per-class) are identical.
fn assert_cores_agree<'a>(label: &str, build: impl Fn() -> Scenario<'a>) -> ClusterReport {
    let event = build()
        .core(SimCore::EventDriven)
        .compile()
        .unwrap()
        .run()
        .unwrap();
    let per_step = build()
        .core(SimCore::PerStep)
        .compile()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(event, per_step, "{label}: cores must be bit-identical");
    assert!(
        per_step.stretch.stretches == 0 && per_step.stretch.stretched_iterations == 0,
        "{label}: the per-step reference must not fast-forward: {:?}",
        per_step.stretch
    );
    assert_eq!(
        event.report.makespan_s.to_bits(),
        per_step.report.makespan_s.to_bits(),
        "{label}: makespan bits"
    );
    assert_eq!(
        event.report.decode_time_s.to_bits(),
        per_step.report.decode_time_s.to_bits(),
        "{label}: decode time bits"
    );
    event
}

/// Replays `build()` on the event core twice and asserts both report
/// alike over the same decode rounds: unobserved, where no events are
/// built and a leapfrog member commits its rounds only when the loop
/// reads its blade, and with telemetry mounted, where every member
/// commits at the end of every leapfrog call. The unobserved replay
/// commits no more often. Returns its report.
fn assert_commits_agree<'a>(label: &str, build: impl Fn() -> Scenario<'a>) -> ClusterReport {
    let event = || build().core(SimCore::EventDriven);
    let lazy = event().compile().unwrap().run().unwrap();
    let (eager, _) = event()
        .telemetry(TelemetryConfig::default())
        .compile()
        .unwrap()
        .run_with_telemetry()
        .unwrap();
    assert_eq!(lazy, eager, "{label}: reports with telemetry");
    let (lazy_s, eager_s) = (lazy.stretch, eager.stretch);
    let decode_iterations = |s: StretchStats| s.stretched_iterations + s.single_steps;
    assert_eq!(
        decode_iterations(lazy_s),
        decode_iterations(eager_s),
        "{label}: decode iterations"
    );
    assert_eq!(
        lazy_s.stretched_iterations, eager_s.stretched_iterations,
        "{label}: stretched iterations"
    );
    assert!(
        lazy_s.stretches <= eager_s.stretches,
        "{label}: {} commits unobserved, {} with telemetry",
        lazy_s.stretches,
        eager_s.stretches
    );
    lazy
}

#[test]
fn single_blade_cores_agree_across_policies_and_pressure() {
    let system = MultiBladeSystem::new(1).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    // Underloaded trickle: the regime the idle fast-forward and decode
    // stretches exist for.
    let trickle = TraceConfig {
        seed: 11,
        requests: 40,
        arrival_rate_per_s: 3.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 64),
    };
    // Saturating burst with tight KV: eviction/re-admission churn.
    let burst = TraceConfig {
        seed: 13,
        requests: 18,
        arrival_rate_per_s: 500.0,
        prompt_tokens: (90, 96),
        output_tokens: (24, 32),
    };
    let tight = per_token_bytes(&system, &model) * f64::from(96 + 32) * 2.5;
    let base = |trace: TraceConfig| {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .poisson(trace)
    };
    let r = assert_cores_agree("fcfs trickle", || base(trickle));
    assert_eq!(r.report.completed, 40);
    assert_cores_agree("sjf trickle", || base(trickle).policy(SjfPolicy));
    assert_cores_agree("guard trickle", || {
        base(trickle).policy(MaxWaitGuardPolicy::new(0.5))
    });
    let r = assert_cores_agree("fcfs tight kv", || base(burst).kv_capacity_bytes(tight));
    assert!(r.report.evictions > 0, "pressure must preempt");
    assert_cores_agree("sjf tight kv", || {
        base(burst).kv_capacity_bytes(tight).policy(SjfPolicy)
    });
    assert_cores_agree("guard tight kv", || {
        base(burst)
            .kv_capacity_bytes(tight)
            .policy(MaxWaitGuardPolicy::new(0.05))
    });
}

#[test]
fn single_blade_cores_agree_across_kv_and_pricing_features() {
    let system = MultiBladeSystem::new(1).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 21,
        requests: 24,
        arrival_rate_per_s: 20.0,
        prompt_tokens: (64, 512),
        output_tokens: (8, 48),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(8)
            .unconstrained_kv()
            .poisson(trace)
    };
    let r = assert_cores_agree("paged kv", || base().paged_kv(64));
    assert!(r.report.kv_fragmentation_peak_bytes > 0.0);
    assert_cores_agree("chunked prefill", || base().chunked_prefill(64));
    assert_cores_agree("exact pricing", || {
        base().pricing(DecodePricing::ExactPerSequence)
    });
    assert_cores_agree("kitchen sink", || {
        base()
            .paged_kv(32)
            .chunked_prefill(128)
            .pricing(DecodePricing::ExactPerSequence)
            .policy(SjfPolicy)
    });
}

#[test]
fn cluster_and_disaggregated_cores_agree() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 31,
        requests: 48,
        arrival_rate_per_s: 40.0,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .poisson(trace)
    };
    assert_cores_agree("jsq per-blade", || {
        base().routing(RoutingPolicy::JoinShortestQueue)
    });
    let r = assert_cores_agree("central fcfs", || base().dispatch(DispatchMode::Central));
    assert!(
        r.stretch.stretched_iterations > 0,
        "the cluster leapfrog must batch decode rounds"
    );
    assert!(r.stretch.mean_stretch_len() >= 1.0);
    assert_cores_agree("central sjf", || {
        base().dispatch(DispatchMode::Central).policy(SjfPolicy)
    });
    assert_cores_agree("central guard", || {
        base()
            .dispatch(DispatchMode::Central)
            .policy(MaxWaitGuardPolicy::new(0.2))
    });
    let r = assert_cores_agree("disaggregated fcfs", || {
        base().topology(Topology::disaggregated(1, 3))
    });
    assert_eq!(r.report.completed, 48);
    assert!(
        r.stretch.stretched_iterations > 0,
        "the decoder-pool leapfrog must batch decode rounds"
    );
    assert_cores_agree("disaggregated sjf", || {
        base()
            .topology(Topology::disaggregated(2, 2))
            .policy(SjfPolicy)
    });
    // Central dispatch under KV pressure: eviction causality flows
    // through the shared queue identically on both cores.
    let two = MultiBladeSystem::new(2).unwrap();
    let tight = per_token_bytes(&two, &model) * f64::from(96 + 32) * 1.5;
    let pressure = TraceConfig {
        seed: 13,
        requests: 18,
        arrival_rate_per_s: 500.0,
        prompt_tokens: (90, 96),
        output_tokens: (24, 32),
    };
    let r = assert_cores_agree("central tight kv", || {
        Scenario::new(&two)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .kv_capacity_bytes(tight)
            .dispatch(DispatchMode::Central)
            .poisson(pressure)
    });
    assert!(r.report.evictions > 0);
}

#[test]
fn class_aware_policies_and_control_plane_cores_agree() {
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    // Sustained overload so ordering, shedding and scaling all matter.
    let trace = TraceConfig {
        seed: 41,
        requests: 48,
        arrival_rate_per_s: 120.0,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    };
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .slo_classes(vec![
                // An unattainable strict target (TTFT below any prefill
                // time): every gate below latches no matter how the
                // dispatch mode spreads the load.
                SloClass::new("interactive", 1e-6, 1e-9).with_weight(2.0),
                SloClass::batch(),
            ])
            .classify(|r| u32::from(r.prompt_tokens > 128))
            .poisson(trace)
    };
    assert_cores_agree("strict-priority single", || {
        base()
            .topology(Topology::mixed(1))
            .policy(StrictPriorityPolicy::new())
    });
    assert_cores_agree("strict-priority central", || {
        base()
            .dispatch(DispatchMode::Central)
            .policy(StrictPriorityPolicy::new())
    });
    assert_cores_agree("weighted-fair central", || {
        base()
            .dispatch(DispatchMode::Central)
            .policy(WeightedFairPolicy::new())
    });
    assert_cores_agree("weighted-fair per-blade jsq", || {
        base()
            .routing(RoutingPolicy::JoinShortestQueue)
            .policy(WeightedFairPolicy::new())
    });
    // Load shedding: the hopeless 20 ms TTFT floor latches the gate open,
    // so best-effort requests are dropped — identically on both cores,
    // through the engine gate (single blade), the per-blade merged gates
    // and the central shared gate. The short window lets even a per-blade
    // gate (which sees only its own ~12-request share) gather enough
    // strict completions to latch.
    let shed = ControlPlane::new().shed(AdmissionControl::new(0, 0.95).with_window(8, 2));
    let r = assert_cores_agree("shedding single", || {
        base().topology(Topology::mixed(1)).control(shed)
    });
    assert!(r.report.shed_requests > 0, "the gate must fire");
    let r = assert_cores_agree("shedding per-blade", || base().control(shed));
    assert!(r.report.shed_requests > 0);
    let r = assert_cores_agree("shedding central", || {
        base().dispatch(DispatchMode::Central).control(shed)
    });
    assert!(r.report.shed_requests > 0);
    assert!(
        r.stretch.stretches > 0,
        "leapfrogging must coexist with a live shedding gate"
    );
    // The autoscaler's end-of-round evaluation sees the same queue depth
    // on both cores, so the scale trajectories coincide.
    let scaled = ControlPlane::new().autoscale(
        AutoscaleConfig::new(1, 4)
            .with_watermarks(0, 3)
            .with_warmup(0.05),
    );
    let r = assert_cores_agree("autoscaled central", || {
        base().dispatch(DispatchMode::Central).control(scaled)
    });
    assert!(r.scale_events > 0, "the backlog must trigger a scale-up");
    assert!(
        r.stretch.stretches > 0,
        "per-blade stretches must survive an active autoscaler"
    );
    // Everything at once: class-aware ordering + shedding + autoscaling.
    assert_cores_agree("full control plane", || {
        base()
            .dispatch(DispatchMode::Central)
            .policy(WeightedFairPolicy::new())
            .control(shed.autoscale(AutoscaleConfig::new(2, 4).with_watermarks(1, 3)))
    });
    assert_cores_agree("full control plane, strict-priority", || {
        base()
            .dispatch(DispatchMode::Central)
            .policy(StrictPriorityPolicy::new())
            .control(shed.autoscale(AutoscaleConfig::new(2, 4).with_watermarks(1, 3)))
    });
}

#[test]
fn weighted_fair_ties_under_preemption_agree_between_cores() {
    // The event-driven core serves weighted-fair order from ranks taken
    // once per replay, and breaks virtual-finish ties by trace index. A
    // cross-class tie plus preempted victims re-entering the queue is
    // where an insertion-order tie-break would show.
    let system = MultiBladeSystem::new(2).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let classes = vec![SloClass::interactive(), SloClass::batch()];
    // Equal 120-token demands alternating between the weight-2 and the
    // weight-1 class, 2 ms apart: a saturating burst.
    let requests: Vec<RequestSpec> = (0..24u32)
        .map(|i| RequestSpec::new(i, f64::from(i) * 0.002, 90, 30).in_class(i % 2))
        .collect();
    let mut cum = [0.0f64; 2];
    let virtual_finish: Vec<(u32, f64)> = requests
        .iter()
        .map(|r| {
            let c = r.class as usize;
            cum[c] += f64::from(r.prompt_tokens + r.output_tokens) / classes[c].weight;
            (r.class, cum[c])
        })
        .collect();
    assert!(
        virtual_finish
            .iter()
            .any(|a| virtual_finish.iter().any(|b| a.0 != b.0 && a.1 == b.1)),
        "the trace must tie virtual finishes across classes"
    );
    let tight = per_token_bytes(&system, &model) * 120.0 * 2.5;
    let base = || {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .kv_capacity_bytes(tight)
            .slo_classes(classes.clone())
            .policy(WeightedFairPolicy::new())
            .requests(requests.clone())
    };
    fn check<'a>(label: &str, build: &dyn Fn() -> Scenario<'a>) {
        let record = |core: SimCore| {
            let mut events = Vec::new();
            let report = build()
                .core(core)
                .compile()
                .unwrap()
                .run_observed(&mut events)
                .unwrap();
            (report, events)
        };
        let (step_report, step_events) = record(SimCore::PerStep);
        let (event_report, event_events) = record(SimCore::EventDriven);
        assert_eq!(
            first_divergence(&event_events, &step_events),
            None,
            "{label}: event streams"
        );
        assert_eq!(event_report, step_report, "{label}: reports");
        assert_eq!(step_report.report.completed, 24, "{label}");
        assert!(step_report.report.evictions > 0, "{label}: must preempt");
    }
    check("single blade", &|| base().topology(Topology::mixed(1)));
    check("central", &|| base().dispatch(DispatchMode::Central));
    check("per-blade jsq", &|| {
        base().routing(RoutingPolicy::JoinShortestQueue)
    });
}

#[test]
fn prefix_cached_cores_agree() {
    let system = MultiBladeSystem::new(4).unwrap();
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
    let r = assert_cores_agree("prefix single", || base().topology(Topology::mixed(1)));
    assert!(r.report.prefix_hits > 0, "the cache must be exercised");
    assert_cores_agree("prefix central", || {
        base()
            .topology(Topology::mixed(4))
            .dispatch(DispatchMode::Central)
    });
    assert_cores_agree("prefix disaggregated", || {
        base().topology(Topology::disaggregated(1, 3))
    });
}

#[test]
fn coordinated_cluster_cores_agree() {
    // Cluster coordination — cache-aware routing, the global KV tier,
    // LFU eviction — is computed in arrival-order pre-passes off the
    // trace alone, so it must leave the two cores bit-identical just
    // like the base prefix cache does.
    use optimus::serving::{CacheEviction, HandoffLink};
    let system = MultiBladeSystem::new(4).unwrap();
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
            .cache_eviction(CacheEviction::Lfu)
            .global_kv_cache(1 << 20)
            .handoff(HandoffLink {
                bytes_per_s: 1e12,
                latency_s: 1e-6,
            })
            .trace(&trace)
    };
    let r = assert_cores_agree("coordinated cache-aware", || {
        base()
            .topology(Topology::mixed(4))
            .routing(RoutingPolicy::CacheAware)
    });
    assert!(r.report.prefix_hits > 0, "the cache must be exercised");
    assert_cores_agree("coordinated central", || {
        base()
            .topology(Topology::mixed(4))
            .dispatch(DispatchMode::Central)
    });
    assert_cores_agree("coordinated disaggregated", || {
        base().topology(Topology::disaggregated(1, 3))
    });
}

#[test]
fn observer_event_streams_are_identical_between_cores() {
    // An observer of `Interest::Rounds` forces the event core's decode
    // stretches onto their per-iteration event path: the full event stream (not
    // just the report) must match the per-step core's.
    let system = MultiBladeSystem::new(1).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 7,
        requests: 24,
        arrival_rate_per_s: 5.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 48),
    };
    let run = |core: SimCore| {
        let compiled = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .poisson(trace)
            .core(core)
            .compile()
            .unwrap();
        let mut events = Vec::new();
        let report = compiled.run_observed(&mut events).unwrap();
        (report, events)
    };
    let (event_report, event_events) = run(SimCore::EventDriven);
    let (step_report, step_events) = run(SimCore::PerStep);
    assert_eq!(event_report, step_report);
    assert_eq!(first_divergence(&event_events, &step_events), None);
    assert_eq!(
        count(&event_events, |k| matches!(k, EventKind::Completion { .. })),
        24
    );
    assert!(count(&event_events, |k| matches!(k, EventKind::Step { .. })) > 0);
}

#[test]
fn cluster_observer_event_streams_are_identical_between_cores() {
    // The cluster leapfrog and the disaggregated decoder-pool leapfrog
    // replay skipped rounds in true global order, so even with an
    // observer of `Interest::Rounds` attached the per-step event stream — one
    // `Step` event per decode round, in execution order — must be
    // reproduced exactly. Shedding keeps the control plane live on the
    // central variant while the observer watches.
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let trace = TraceConfig {
        seed: 19,
        requests: 36,
        arrival_rate_per_s: 30.0,
        prompt_tokens: (32, 256),
        output_tokens: (8, 48),
    };
    let shed = ControlPlane::new().shed(AdmissionControl::new(0, 0.95).with_window(8, 2));
    fn check<'a>(label: &str, build: &dyn Fn() -> Scenario<'a>) {
        let run = |core: SimCore| {
            let compiled = build().core(core).compile().unwrap();
            let mut events = Vec::new();
            let report = compiled.run_observed(&mut events).unwrap();
            (report, events)
        };
        let (event_report, event_events) = run(SimCore::EventDriven);
        let (step_report, step_events) = run(SimCore::PerStep);
        assert_eq!(event_report, step_report, "{label}: reports");
        assert_eq!(
            first_divergence(&event_events, &step_events),
            None,
            "{label}: event streams"
        );
        assert!(
            count(&event_events, |k| matches!(k, EventKind::Step { .. })) > 0,
            "{label}"
        );
    }
    check("central + shedding", &|| {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .slo_classes(vec![
                SloClass::new("interactive", 1e-6, 1e-9).with_weight(2.0),
                SloClass::batch(),
            ])
            .classify(|r| u32::from(r.prompt_tokens > 128))
            .dispatch(DispatchMode::Central)
            .control(shed)
            .poisson(trace)
    });
    check("disaggregated 2P+2D", &|| {
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .topology(Topology::disaggregated(2, 2))
            .poisson(trace)
    });
}

/// Replays a central-dispatch fleet of `blades` blades under both cores,
/// at 2 req/s per blade on a fast diurnal cycle, and checks the reports
/// and the recorded event streams agree for each `(layout, pricing)`.
/// With `autoscale`, the fleet is autoscaled too, and the run must scale
/// both up and down.
fn assert_central_fleet_matches_per_step(
    blades: u32,
    requests: u32,
    variants: &[(KvLayout, DecodePricing)],
    autoscale: Option<AutoscaleConfig>,
) {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let trace = DiurnalTraceConfig {
        seed: 5,
        requests,
        mean_rate_per_s: 2.0 * f64::from(blades),
        amplitude: 0.9,
        period_s: 10.0,
        prompt_tokens: (32, 128),
        output_tokens: (16, 64),
    };
    for &(layout, pricing) in variants {
        let label = format!("{blades} blades, {layout:?} {pricing:?}");
        let build = || {
            let scenario = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
                .model(&model)
                .parallelism(&par)
                .max_batch(32)
                .topology(Topology::mixed(blades))
                .dispatch(DispatchMode::Central)
                .kv_layout(layout)
                .pricing(pricing)
                .trace(&trace);
            match autoscale {
                Some(a) => scenario.control(ControlPlane::new().autoscale(a)),
                None => scenario,
            }
        };
        let record = |core: SimCore| {
            let mut events = Vec::new();
            let report = build()
                .core(core)
                .compile()
                .unwrap()
                .run_observed(&mut events);
            (report.unwrap(), events)
        };
        let (step_report, step_events) = record(SimCore::PerStep);
        assert_eq!(step_report.stretch.stretches, 0, "{label}");
        assert_eq!(step_report.report.completed, requests, "{label}");
        let lazy = assert_commits_agree(&label, build);
        assert_eq!(lazy, step_report, "{label}: reports");
        assert!(lazy.stretch.stretched_iterations > 0, "{label}");
        if autoscale.is_some() {
            let up = count(
                &step_events,
                |k| matches!(k, EventKind::Scale { active_from, active_to } if active_to > active_from),
            );
            let down = count(
                &step_events,
                |k| matches!(k, EventKind::Scale { active_from, active_to } if active_to < active_from),
            );
            assert!(up > 0 && down > 0, "{label}: scales both ways");
            assert!(lazy.stretch.stretches > 0, "{label}");
        }
        let (event_report, event_events) = record(SimCore::EventDriven);
        assert_eq!(event_report, step_report, "{label}: observed reports");
        assert_eq!(
            first_divergence(&event_events, &step_events),
            None,
            "{label}: event streams"
        );
    }
}

#[test]
fn fleet_scale_central_leapfrog_matches_per_step() {
    // The serving benchmark's 64-blade system, cut to 16 blades: enough
    // members that leapfrogs end with partly used plans, which the next
    // call reuses rebased (and debug builds check against a fresh plan).
    let mut variants = Vec::new();
    for layout in [KvLayout::Contiguous, KvLayout::Paged { block_tokens: 16 }] {
        for pricing in [
            DecodePricing::BucketizedMean,
            DecodePricing::ExactPerSequence,
        ] {
            variants.push((layout, pricing));
        }
    }
    assert_central_fleet_matches_per_step(16, 1_000, &variants, None);
}

#[test]
fn fleet64_central_leapfrog_matches_per_step() {
    // The serving benchmark's full 64-blade fleet: a dozen running
    // members per leapfrog, whose cut loop repeats after re-plans while
    // the other members' walks resume (debug builds also check the idle
    // index and the members against a fresh fleet scan every round).
    let variants = [(
        KvLayout::Paged { block_tokens: 16 },
        DecodePricing::ExactPerSequence,
    )];
    assert_central_fleet_matches_per_step(64, 2_000, &variants, None);
}

/// A scaling autoscaler over the whole fleet: watermarks low enough that
/// a diurnal peak scales up and a trough scales back down, with warm-ups
/// and cooldowns short against the 10 s cycle.
fn scaling(blades: u32) -> AutoscaleConfig {
    AutoscaleConfig::new(1, blades)
        .with_watermarks(0, 2)
        .with_warmup(0.05)
        .with_cooldown(0.2)
}

#[test]
fn autoscaled_central_fleets_leapfrog_like_per_step() {
    let variants = [(
        KvLayout::Paged { block_tokens: 16 },
        DecodePricing::ExactPerSequence,
    )];
    assert_central_fleet_matches_per_step(16, 1_000, &variants, Some(scaling(16)));
    assert_central_fleet_matches_per_step(64, 2_000, &variants, Some(scaling(64)));
}

#[test]
fn central_leapfrog_under_kv_pressure_agrees() {
    // Preemption victims re-enter off the arrival axis. A full blade
    // whose rounds the leapfrog skips partitions the queue in each of
    // them, moving a victim not yet ready behind the ready requests; the
    // next real round may start after the victim is ready. With an
    // autoscaler, the scaler's depth signal counts victims too.
    let system = MultiBladeSystem::new(4).unwrap();
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1).unwrap();
    let per_token = per_token_bytes(&system, &model);
    let trace = TraceConfig {
        seed: 1,
        requests: 40,
        arrival_rate_per_s: 150.0,
        prompt_tokens: (32, 384),
        output_tokens: (8, 64),
    };
    let scaled = ControlPlane::new().autoscale(
        AutoscaleConfig::new(1, 4)
            .with_watermarks(0, 3)
            .with_warmup(0.05),
    );
    fn check<'a>(label: &str, build: &dyn Fn() -> Scenario<'a>) -> ClusterReport {
        let r = assert_cores_agree(label, build);
        assert_eq!(assert_commits_agree(label, build), r, "{label}");
        r
    }
    for (label, max_batch, control) in [
        ("central", 2, ControlPlane::new()),
        ("autoscaled central", 4, scaled),
    ] {
        let base = || {
            Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(max_batch)
                .kv_capacity_bytes(per_token * 384.0 * 1.7)
                .dispatch(DispatchMode::Central)
                .control(control)
                .poisson(trace)
        };
        for r in [
            check(label, &base),
            check(label, &|| base().policy(SjfPolicy)),
            check(label, &|| base().policy(MaxWaitGuardPolicy::new(0.25))),
        ] {
            let evictions: u32 = r.per_blade.iter().map(|b| b.evictions).sum();
            assert!(evictions > 0, "{label}: {evictions} evictions");
            assert_eq!(r.scale_events > 0, control.autoscale.is_some(), "{label}");
        }
    }
}

#[test]
fn fleet64_central_leapfrog_under_kv_pressure_agrees() {
    // The 64-blade fleet at 16 req/s per blade, batches of 4 and room for
    // 300 KV tokens per blade: the diurnal peak preempts, so victims
    // re-enter off the arrival axis, and full members' skipped rounds
    // partition the queue, while leapfrog members carry uncommitted
    // rounds across calls.
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let estimator = SpeedupStudy::paper_baseline().scd_inference();
    let per_token = KvCache {
        batch: 1,
        seq_len: 1,
        precision: estimator.precision(),
    }
    .bytes(&model, KvConvention::Gqa);
    let trace = DiurnalTraceConfig {
        seed: 5,
        requests: 1_000,
        mean_rate_per_s: 16.0 * 64.0,
        amplitude: 0.9,
        period_s: 10.0,
        prompt_tokens: (32, 128),
        output_tokens: (16, 64),
    };
    let build = || {
        Scenario::on_estimator(estimator.clone())
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .topology(Topology::mixed(64))
            .dispatch(DispatchMode::Central)
            .kv_capacity_bytes(per_token * 300.0)
            .kv_bucket(32)
            .trace(&trace)
    };
    let label = "64 blades under KV pressure";
    let report = assert_cores_agree(label, build);
    assert_eq!(assert_commits_agree(label, build), report, "{label}");
    let evictions: u32 = report.per_blade.iter().map(|b| b.evictions).sum();
    assert!(evictions > 0, "{label}: {evictions} evictions");
    let record = |core: SimCore| {
        let mut events = Vec::new();
        build()
            .core(core)
            .compile()
            .unwrap()
            .run_observed(&mut events)
            .unwrap();
        events
    };
    assert_eq!(
        first_divergence(&record(SimCore::EventDriven), &record(SimCore::PerStep)),
        None,
        "{label}: event streams"
    );
}

#[test]
fn pinned_autoscaler_reports_like_no_autoscaler_at_64_blades() {
    // At `min == max` the scaler never fires, so the run is the unscaled
    // one; the leapfrog's round-end gate must not change that.
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).unwrap();
    let trace = DiurnalTraceConfig {
        seed: 5,
        requests: 2_000,
        mean_rate_per_s: 128.0,
        amplitude: 0.9,
        period_s: 10.0,
        prompt_tokens: (32, 128),
        output_tokens: (16, 64),
    };
    let build = || {
        Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
            .model(&model)
            .parallelism(&par)
            .max_batch(32)
            .topology(Topology::mixed(64))
            .dispatch(DispatchMode::Central)
            .trace(&trace)
    };
    let unscaled = build().compile().unwrap().run().unwrap();
    let pinned = build()
        .control(ControlPlane::new().autoscale(AutoscaleConfig::new(64, 64)))
        .compile()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(pinned.scale_events, 0);
    assert_eq!(pinned, unscaled);
    assert_eq!(pinned.stretch, unscaled.stretch, "the same leapfrogs");
}

/// The start clock and blade of each round in a recorded per-step stream
/// that its blade starts busy: where its previous round ended with
/// sequences still running. A round's completions follow its `Step`
/// event, so the blade's count is read once they are in.
fn busy_round_starts(events: &[SimEvent], blades: usize) -> Vec<(f64, usize)> {
    let mut running = vec![0usize; blades];
    let mut starts = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let b = e.blade as usize;
        match e.kind {
            EventKind::Admission { .. } => running[b] += 1,
            EventKind::Eviction { .. } | EventKind::Completion { .. } => running[b] -= 1,
            _ => {}
        }
        let round_ends = matches!(
            e.kind,
            EventKind::Step { .. } | EventKind::Completion { .. }
        );
        let completes =
            |n: &SimEvent| n.blade == e.blade && matches!(n.kind, EventKind::Completion { .. });
        if round_ends && !events.get(i + 1).is_some_and(completes) && running[b] > 0 {
            starts.push((e.clock_s, b));
        }
    }
    starts
}

/// Whether `request` was admitted at exactly its arrival in the recorded
/// per-step stream `events`, and if so by a blade already running work
/// (a member whose round started then) rather than an idle one.
fn admitted_on_arrival(events: &[SimEvent], blades: usize, request: u32) -> Option<bool> {
    let mut running = vec![0usize; blades];
    for e in events {
        let b = e.blade as usize;
        match e.kind {
            EventKind::Admission { request: r } if r.id == request => {
                return (e.clock_s == r.arrival_s).then_some(running[b] > 0);
            }
            EventKind::Admission { .. } => running[b] += 1,
            EventKind::Eviction { .. } | EventKind::Completion { .. } => running[b] -= 1,
            _ => {}
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact ties between an arrival and a running member's round start,
    /// on central FCFS fleets of 4, 16 and 64 blades with 32-token cost
    /// buckets (so a plan lasts several rounds and a leapfrog call meets
    /// its members mid-plan). A per-step replay's busy round starts are
    /// real round starts, and a round that starts at `t` is unchanged by
    /// an arrival at `t`: each replay inserts one arrival at such an
    /// instant. When no idle blade of a lower index can admit it first,
    /// the member's round does (a tie below the idle blade); otherwise an
    /// idle blade does, ahead of the member (a tie above it). The event
    /// core must agree with the per-step loop on the unobserved report and
    /// on the recorded stream. Every case must hit ties of both kinds, so
    /// the property cannot hold vacuously.
    #[test]
    fn arrival_ties_with_member_rounds_agree(
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 3),
    ) {
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let (mut below, mut above) = (0, 0);
        for blades in [4u32, 16, 64] {
            let base = DiurnalTraceConfig {
                seed,
                requests: 4 * blades,
                mean_rate_per_s: 2.0 * f64::from(blades),
                amplitude: 0.9,
                period_s: 10.0,
                prompt_tokens: (32, 128),
                output_tokens: (16, 64),
            }
            .requests()
            .unwrap();
            let build = |trace: &[RequestSpec], core: SimCore| {
                Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
                    .model(&model)
                    .parallelism(&par)
                    .max_batch(32)
                    .kv_bucket(32)
                    .topology(Topology::mixed(blades))
                    .dispatch(DispatchMode::Central)
                    .requests(trace.to_vec())
                    .core(core)
                    .compile()
                    .unwrap()
            };
            let record = |trace: &[RequestSpec], core: SimCore| {
                let mut events = Vec::new();
                let report = build(trace, core).run_observed(&mut events).unwrap();
                (report, events)
            };
            let (_, base_events) = record(&base, SimCore::PerStep);
            let starts = busy_round_starts(&base_events, blades as usize);
            prop_assert!(!starts.is_empty(), "{} blades: no busy round", blades);
            for pick in &picks {
                let (t, _) = *pick.get(&starts);
                let id = 4 * blades;
                let mut trace = base.clone();
                trace.push(RequestSpec::new(id, t, 64, 24));
                let (step_report, step_events) = record(&trace, SimCore::PerStep);
                match admitted_on_arrival(&step_events, blades as usize, id) {
                    Some(true) => below += 1,
                    Some(false) => above += 1,
                    None => {}
                }
                let event = build(&trace, SimCore::EventDriven).run().unwrap();
                prop_assert!(event == step_report, "{} blades, arrival at {}", blades, t);
                let (observed, event_events) = record(&trace, SimCore::EventDriven);
                prop_assert_eq!(&observed, &step_report);
                prop_assert_eq!(first_divergence(&event_events, &step_events), None);
            }
        }
        prop_assert!(
            below > 0 && above > 0,
            "ties below the idle blade: {}, above it: {}",
            below,
            above
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// KV-pressured pools, where preemption victims re-enter off the
    /// arrival axis while full blades skip rounds: central dispatch at 2
    /// and 4 blades, and decode pools behind 1 or 2 prefill blades. The
    /// leapfrog's catch-up partition must leave the queue as the per-step
    /// loop's skipped rounds would. `cores_agree_on_random_scenarios`
    /// rarely fills a batch on one blade while a victim waits for
    /// another's round. Behind a prefill tier the trace is sparser, the
    /// outputs shorter and the handoff link slow (5 GB/s), so the decode
    /// pool often drains while a long prompt's KV is still in flight and a
    /// short prompt's handoff overtakes it: a prefill round must drop the
    /// pool's next action that the last leapfrog found. With the catch-up
    /// partition removed, 4 of these 192 cases diverge (all central); with
    /// the next action kept across prefill rounds, 38 (all disaggregated).
    /// Each case replays again with 32-token cost buckets: there plans
    /// outlast a leapfrog call, so a full member's skipped rounds may
    /// still be uncommitted when the loop checks whether it skipped any.
    #[test]
    fn pool_cores_agree_under_kv_pressure(
        seed in any::<u64>(),
        topology in 0usize..4,
        batch in 0usize..3,
        tight in any::<bool>(),
        policy in 0usize..3,
    ) {
        let slow = HandoffLink::new(Bandwidth::from_gbps(5.0), 2e-6);
        let (topology, link, rate, output) = match topology {
            0 => (Topology::mixed(2), None, 150.0, 64),
            1 => (Topology::mixed(4), None, 150.0, 64),
            2 => (Topology::disaggregated(1, 3), Some(slow), 50.0, 16),
            _ => (Topology::disaggregated(2, 2), Some(slow), 50.0, 16),
        };
        let system = MultiBladeSystem::new(topology.blades()).unwrap();
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        // Room for ~1.7 or ~3 worst-case requests.
        let kv = per_token_bytes(&system, &model) * 384.0 * if tight { 1.7 } else { 3.0 };
        let run = |core: SimCore, bucket: Option<u32>| {
            let s = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch([1, 2, 4][batch])
                .kv_capacity_bytes(kv)
                .topology(topology.clone())
                .dispatch(DispatchMode::Central)
                .poisson(TraceConfig {
                    seed,
                    requests: 30,
                    arrival_rate_per_s: rate,
                    prompt_tokens: (32, 384),
                    output_tokens: (8, output),
                })
                .core(core);
            let s = match link {
                Some(link) => s.handoff(link),
                None => s,
            };
            let s = match policy {
                0 => s,
                1 => s.policy(SjfPolicy),
                _ => s.policy(MaxWaitGuardPolicy::new(0.25)),
            };
            let s = match bucket {
                Some(tokens) => s.kv_bucket(tokens),
                None => s,
            };
            s.compile().unwrap().run().unwrap()
        };
        for bucket in [None, Some(32)] {
            let event = run(SimCore::EventDriven, bucket);
            let per_step = run(SimCore::PerStep, bucket);
            prop_assert_eq!(&event, &per_step);
            prop_assert_eq!(per_step.stretch.stretches, 0);
            prop_assert_eq!(event.report.completed, 30);
        }
    }
}

/// A random sorted trace over exact (dyadic) arrival times.
fn arb_trace() -> impl Strategy<Value = Vec<RequestSpec>> {
    prop::collection::vec((0u32..48, 8u32..260, 1u32..48), 4..20).prop_map(|specs| {
        let mut arrivals: Vec<f64> = specs
            .iter()
            .map(|&(a, _, _)| f64::from(a) * 0.0625)
            .collect();
        arrivals.sort_by(f64::total_cmp);
        specs
            .iter()
            .zip(&arrivals)
            .enumerate()
            .map(|(i, (&(_, prompt, output), &arrival))| {
                RequestSpec::new(i as u32, arrival, prompt, output)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random traces × policies × KV pressure × layouts × topologies ×
    /// prefix caching × observation: the two cores never diverge by a
    /// single bit — in reports or in observer event streams.
    #[test]
    fn cores_agree_on_random_scenarios(
        trace in arb_trace(),
        policy in 0usize..5,
        topology in 0usize..4,
        kv in 0usize..3,
        control in 0usize..3,
        paged in any::<bool>(),
        chunked in any::<bool>(),
        exact in any::<bool>(),
        prefix in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let system = MultiBladeSystem::new(4).unwrap();
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        let per_token = per_token_bytes(&system, &model);
        // Two shared system prompts (block-aligned to the 16-token page)
        // tagged deterministically by request id; prompts too short to
        // hold theirs stay unique.
        let trace: Vec<RequestSpec> = if prefix {
            trace
                .iter()
                .map(|r| {
                    let (id, tokens) = if r.id % 2 == 0 { (0, 48) } else { (1, 96) };
                    if r.prompt_tokens > tokens {
                        r.with_prefix(id, tokens)
                    } else {
                        *r
                    }
                })
                .collect()
        } else {
            trace
        };
        // The shedding gate needs a sheddable second class, and any
        // control needs a mixed topology; class-aware policies work
        // either way but only bite with a class table bound.
        let classed = policy >= 3 || control > 0;
        let build = || {
            let mut s = Scenario::new(&system)
                .model(&model)
                .parallelism(&par)
                .max_batch(4)
                .requests(trace.clone());
            s = match kv {
                0 => s.unconstrained_kv(),
                // Room for ~1.7 / ~3 worst-case requests: eviction churn
                // without rejecting any single request (paged rounding
                // included).
                1 => s.kv_capacity_bytes(per_token * 384.0 * 1.7),
                _ => s.kv_capacity_bytes(per_token * 384.0 * 3.0),
            };
            s = match policy {
                0 => s,
                1 => s.policy(SjfPolicy),
                2 => s.policy(MaxWaitGuardPolicy::new(0.25)),
                3 => s.policy(StrictPriorityPolicy::new()),
                _ => s.policy(WeightedFairPolicy::new()),
            };
            if classed {
                s = s
                    .slo_classes(vec![
                        SloClass::new("strict", 0.05, 0.005).with_weight(2.0),
                        SloClass::batch(),
                    ])
                    .classify(|r| u32::from(r.prompt_tokens > 128));
            }
            s = match topology {
                0 => s.topology(Topology::mixed(1)),
                1 => s
                    .topology(Topology::mixed(4))
                    .routing(RoutingPolicy::JoinShortestQueue),
                2 => s
                    .topology(Topology::mixed(4))
                    .dispatch(DispatchMode::Central),
                _ => s.topology(Topology::disaggregated(1, 3)),
            };
            // Control planes don't compose with the disaggregated
            // topology, and the autoscaler needs central dispatch.
            if control > 0 && topology != 3 {
                let mut cp = ControlPlane::new().shed(AdmissionControl::new(0, 0.9));
                if control == 2 && topology == 2 {
                    cp = cp.autoscale(
                        AutoscaleConfig::new(2, 4).with_watermarks(0, 3).with_warmup(0.1),
                    );
                }
                s = s.control(cp);
            }
            if paged {
                s = s.paged_kv(64);
            }
            if chunked {
                s = s.chunked_prefill(64);
            }
            if exact {
                s = s.pricing(DecodePricing::ExactPerSequence);
            }
            if prefix {
                s = s.prefix_caching(16);
            }
            s
        };
        let run = |core: SimCore| {
            let compiled = build().core(core).compile().unwrap();
            let mut events = Vec::new();
            let report = if observed {
                compiled.run_observed(&mut events).unwrap()
            } else {
                compiled.run().unwrap()
            };
            (report, events)
        };
        let (event, event_events) = run(SimCore::EventDriven);
        let (per_step, step_events) = run(SimCore::PerStep);
        prop_assert_eq!(&event, &per_step);
        prop_assert_eq!(per_step.stretch.stretches, 0);
        prop_assert_eq!(per_step.stretch.stretched_iterations, 0);
        prop_assert_eq!(first_divergence(&event_events, &step_events), None);
        prop_assert_eq!(
            u64::from(event.report.completed) + event.report.shed_requests,
            trace.len() as u64
        );
        prop_assert_eq!(
            event.report.makespan_s.to_bits(),
            per_step.report.makespan_s.to_bits()
        );
    }
}
