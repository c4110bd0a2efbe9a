//! Timeline tooling on top of the [`SimObserver`] seam: record every
//! [`SimEvent`] of a replay and dump a per-request
//! admission→prefill-chunk→handoff→completion event CSV — the
//! observer-driven alternative to growing the report structs.
//!
//! The CSV is one event per row, sorted by event time (ties keep engine
//! order), so a per-request lifecycle is the subset of rows sharing a
//! `request` id and a Gantt lane is the subset sharing a `blade`. The
//! `event` column is the [`EventKind`] in snake case and `detail` its
//! main payload (see [`TimelineObserver::render_csv`]); a `scale` row's
//! blade is the one whose round fired the resize, its detail the new
//! active blade count:
//!
//! ```csv
//! clock_s,event,blade,request,detail
//! 0.013127,admission,0,3,
//! 0.013127,cache_hit,0,3,240
//! 0.029418,handoff,0,3,0.000114
//! ```

use optimus::serving::{EventKind, SimEvent, SimObserver};
use std::fmt::Write as _;

/// A [`SimObserver`] that records the whole replay as an event list.
///
/// Observers are read-only, so recording a timeline never perturbs the
/// replay (`run_observed` is bit-identical to `run_serial`).
#[derive(Debug, Clone, Default)]
pub struct TimelineObserver {
    /// Recorded events, in engine order.
    pub events: Vec<SimEvent>,
}

impl TimelineObserver {
    /// Events involving request `id`, in engine order — its lifecycle.
    #[must_use]
    pub fn request_events(&self, id: u32) -> Vec<SimEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.request().is_some_and(|r| r.id == id))
            .collect()
    }

    /// Renders the recorded timeline as CSV, rows sorted by event time
    /// (stable: ties keep engine order). `include_steps` also emits the
    /// per-iteration `step` rows (one per engine iteration — verbose,
    /// but what a Gantt lane needs). The detail column holds the tokens
    /// an event wasted, chunked, skipped, reclaimed or found in the
    /// global tier, a transfer or step length in seconds, or the active
    /// blade count after a resize; it is empty when the kind has none.
    #[must_use]
    pub fn render_csv(&self, include_steps: bool) -> String {
        let mut rows: Vec<&SimEvent> = self
            .events
            .iter()
            .filter(|e| include_steps || !matches!(e.kind, EventKind::Step { .. }))
            .collect();
        rows.sort_by(|a, b| a.clock_s.total_cmp(&b.clock_s));
        let mut out = String::from("clock_s,event,blade,request,detail\n");
        for e in rows {
            let request = e.request().map_or(String::new(), |r| r.id.to_string());
            let d = detail(e.kind);
            let detail = if d == 0.0 {
                String::new()
            } else {
                format!("{d:.6}")
            };
            let _ = writeln!(
                out,
                "{:.6},{},{},{request},{detail}",
                e.clock_s,
                label(e.kind),
                e.blade
            );
        }
        out
    }
}

impl SimObserver for TimelineObserver {
    fn on_event(&mut self, event: &SimEvent) {
        self.events.push(*event);
    }
}

/// Stable CSV label of an event kind.
fn label(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Admission { .. } => "admission",
        EventKind::Eviction { .. } => "eviction",
        EventKind::Chunk { .. } => "chunk",
        EventKind::Handoff { .. } => "handoff",
        EventKind::Completion { .. } => "completion",
        EventKind::CacheHit { .. } => "cache_hit",
        EventKind::CacheMiss { .. } => "cache_miss",
        EventKind::CacheEvict { .. } => "cache_evict",
        EventKind::RemoteCacheHit { .. } => "remote_hit",
        EventKind::Step { .. } => "step",
        EventKind::Stretch { .. } => "stretch",
        EventKind::Shed { .. } => "shed",
        EventKind::Scale { .. } => "scale",
    }
}

/// The CSV detail column (0 renders empty).
fn detail(kind: EventKind) -> f64 {
    match kind {
        EventKind::Eviction {
            wasted_tokens: n, ..
        }
        | EventKind::Chunk {
            chunk_tokens: n, ..
        }
        | EventKind::CacheHit {
            cached_tokens: n, ..
        }
        | EventKind::CacheEvict { block_tokens: n }
        | EventKind::RemoteCacheHit {
            remote_tokens: n, ..
        }
        | EventKind::Scale { active_to: n, .. } => f64::from(n),
        EventKind::Handoff { transfer_s: s, .. }
        | EventKind::Step { step_s: s, .. }
        | EventKind::Stretch { step_s: s, .. } => s,
        EventKind::Admission { .. }
        | EventKind::Completion { .. }
        | EventKind::CacheMiss { .. }
        | EventKind::Shed { .. } => 0.0,
    }
}

/// Runs the bundled showcase scenario — 1 prefill blade feeding 3 decode
/// blades, chunked prefill, prefix caching over a shared-prefix trace —
/// and returns its timeline (used by the `timeline` binary and tests).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn showcase_timeline() -> Result<TimelineObserver, optimus::OptimusError> {
    use llm_workload::{ModelZoo, Parallelism};
    use optimus::serving::{Scenario, SharedPrefixTraceConfig, Topology};
    use optimus::MultiBladeSystem;

    let system = MultiBladeSystem::new(4)?;
    let model = ModelZoo::llama2_7b();
    let par = Parallelism::new(1, 1, 1)?;
    let trace = SharedPrefixTraceConfig {
        seed: 42,
        requests: 24,
        arrival_rate_per_s: 80.0,
        prefixes: 2,
        prefix_tokens: (200, 300),
        zipf_s: 1.0,
        share_fraction: 0.8,
        unique_prompt_tokens: (16, 64),
        output_tokens: (8, 24),
    };
    let mut timeline = TimelineObserver::default();
    Scenario::new(&system)
        .model(&model)
        .parallelism(&par)
        .max_batch(6)
        .unconstrained_kv()
        .topology(Topology::disaggregated(1, 3))
        .prefix_caching(16)
        .trace(&trace)
        .compile()?
        .run_observed(&mut timeline)?;
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_records_full_lifecycles_and_renders_csv() {
        let timeline = showcase_timeline().unwrap();
        // Every request admits, hands off exactly once per (re)stream,
        // and completes exactly once.
        for id in 0..24u32 {
            let events = timeline.request_events(id);
            let count = |l| events.iter().filter(|e| label(e.kind) == l).count();
            assert!(count("admission") >= 1, "request {id}");
            assert!(count("handoff") >= 1, "request {id}");
            assert_eq!(count("completion"), 1, "request {id}");
            // The lifecycle is causally ordered: handoff before the
            // decode admission, completion last.
            let last = events.last().unwrap();
            assert_eq!(label(last.kind), "completion");
        }
        // The shared-prefix workload produced cache activity.
        assert!(timeline
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CacheHit { .. })));

        let csv = timeline.render_csv(false);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("clock_s,event,blade,request,detail"));
        let rows: Vec<&str> = lines.collect();
        assert!(rows.iter().any(|r| r.contains(",admission,")));
        assert!(rows.iter().any(|r| r.contains(",handoff,")));
        assert!(rows.iter().any(|r| r.contains(",cache_hit,")));
        assert!(rows.iter().any(|r| r.contains(",completion,")));
        assert!(!csv.contains(",step,"), "steps excluded by default");
        // Rows are time-sorted.
        let clocks: Vec<f64> = rows
            .iter()
            .map(|r| r.split(',').next().unwrap().parse().unwrap())
            .collect();
        for w in clocks.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // With steps included the CSV strictly grows.
        let with_steps = timeline.render_csv(true);
        assert!(with_steps.contains(",step,"));
        assert!(with_steps.lines().count() > csv.lines().count());
    }

    #[test]
    fn timeline_records_sheds_and_scale_events_on_a_flash_crowd() {
        use llm_workload::{ModelZoo, Parallelism};
        use optimus::serving::{
            AdmissionControl, AutoscaleConfig, BurstyTraceConfig, ControlPlane, DispatchMode,
            Scenario, SloClass,
        };
        use optimus::MultiBladeSystem;

        // A flash crowd against the full control plane: the gate sheds
        // best-effort work while the strict class is drowning, and the
        // autoscaler chases the burst.
        let system = MultiBladeSystem::new(4).unwrap();
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        let trace = BurstyTraceConfig {
            seed: 17,
            requests: 48,
            base_rate_per_s: 2.0,
            burst_rate_per_s: 150.0,
            burst_s: 1.0,
            gap_s: 4.0,
            prompt_tokens: (32, 256),
            output_tokens: (8, 48),
        };
        let mut timeline = TimelineObserver::default();
        let report = Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(4)
            .unconstrained_kv()
            .slo_classes(vec![
                // Unattainable strict target: the gate latches as soon
                // as its attainment window fills.
                SloClass::new("strict", 1e-6, 1e-9).with_weight(2.0),
                SloClass::batch(),
            ])
            .classify(|r| u32::from(r.prompt_tokens > 128))
            .dispatch(DispatchMode::Central)
            .control(
                ControlPlane::new()
                    .shed(AdmissionControl::new(0, 0.95).with_window(8, 2))
                    .autoscale(
                        AutoscaleConfig::new(1, 4)
                            .with_watermarks(1, 6)
                            .with_warmup(0.1),
                    ),
            )
            .trace(&trace)
            .compile()
            .unwrap()
            .run_observed(&mut timeline)
            .unwrap();
        let count = |l| {
            timeline
                .events
                .iter()
                .filter(|e| label(e.kind) == l)
                .count() as u64
        };
        assert!(report.report.shed_requests > 0, "the crowd must overload");
        assert!(report.scale_events > 0, "the autoscaler must react");
        assert_eq!(count("shed"), report.report.shed_requests);
        assert_eq!(count("scale"), u64::from(report.scale_events));
        // Shed rows carry the victim; scale rows carry the new count.
        assert!(timeline
            .events
            .iter()
            .filter(|e| label(e.kind) == "shed")
            .all(|e| e.request().is_some()));
        assert!(timeline
            .events
            .iter()
            .filter(|e| label(e.kind) == "scale")
            .all(|e| e.request().is_none() && detail(e.kind) >= 1.0));
        let csv = timeline.render_csv(false);
        assert!(csv.contains(",shed,"));
        assert!(csv.contains(",scale,"));
    }

    #[test]
    fn timeline_records_global_tier_remote_hits() {
        use llm_workload::{ModelZoo, Parallelism};
        use optimus::serving::{HandoffLink, RequestSpec, RoutingPolicy, Scenario};
        use optimus::MultiBladeSystem;

        // Round-robin over four blades with two alternating prefixes
        // leaves every other blade cold for each prefix — exactly the
        // arrivals the global tier covers.
        let system = MultiBladeSystem::new(4).unwrap();
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        let trace: Vec<RequestSpec> = (0..24)
            .map(|i| {
                RequestSpec::new(i, f64::from(i) * 0.01, 320, 8)
                    .with_prefix(1 + u64::from(i % 2), 256)
            })
            .collect();
        let mut timeline = TimelineObserver::default();
        Scenario::new(&system)
            .model(&model)
            .parallelism(&par)
            .max_batch(6)
            .unconstrained_kv()
            .requests(trace)
            .routing(RoutingPolicy::RoundRobin)
            .prefix_caching(16)
            .global_kv_cache(1 << 20)
            .handoff(HandoffLink {
                bytes_per_s: 1e12,
                latency_s: 1e-6,
            })
            .compile()
            .unwrap()
            .run_observed(&mut timeline)
            .unwrap();
        let remote: Vec<&SimEvent> = timeline
            .events
            .iter()
            .filter(|e| label(e.kind) == "remote_hit")
            .collect();
        assert!(!remote.is_empty(), "cold blades must hit the tier");
        // The tier offers whole blocks beyond the blade's local hit.
        assert!(remote
            .iter()
            .all(|e| e.request().is_some() && detail(e.kind) > 0.0));
        assert!(timeline.render_csv(false).contains(",remote_hit,"));
    }
}
