//! Core-scaling study: wall-clock cost of the two serving simulation
//! cores on a multi-hour diurnal workload.
//!
//! The event-driven core ([`SimCore::EventDriven`]) replays the same
//! traces bit-identically to the per-step reference loop but skips the
//! rounds that provably change nothing: idle gaps jump straight to the
//! next arrival and pure-decode stretches advance in one closed-form
//! hop instead of one loop iteration per token. This module measures
//! that difference where it matters — million-request, multi-hour
//! traces — and emits the machine-readable `BENCH_serving_core.json`
//! snapshot the CI bench-smoke job gates on.
//!
//! No external JSON crate is vendored, so the snapshot is written and
//! re-parsed by the small hand-rolled helpers here; the format is kept
//! deliberately flat (one object per measured point, one line each) so
//! the parser stays trivial. The committed baseline is a *trajectory*:
//! one snapshot per measured git revision, appended by
//! [`append_snapshot`], with the CI smoke gate reading only the latest
//! entry. Legacy single-snapshot baselines still parse as a one-entry
//! trajectory.

use std::fmt;
use std::time::Instant;

use llm_workload::model::ModelZoo;
use llm_workload::parallelism::Parallelism;
use optimus::serving::{
    AutoscaleConfig, CacheEviction, ControlPlane, DispatchMode, DiurnalTraceConfig, HandoffLink,
    RoutingPolicy, Scenario, SharedPrefixTraceConfig, Topology,
};
use optimus::{OptimusError, SpeedupStudy};

pub use optimus::serving::SimCore;

/// One measured point of the core-scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreBenchRow {
    /// Which core produced the point: `"event"` or `"per_step"`.
    pub scenario: String,
    /// Requests replayed.
    pub requests: u32,
    /// Wall-clock replay time (ms), best of [`BENCH_PASSES`] passes.
    pub wall_ms: f64,
    /// Simulator throughput: requests replayed per wall-clock second.
    pub req_per_s: f64,
    /// Self-profile of one extra instrumented pass (`None` in every
    /// trajectory row written before the profiler existed).
    pub profile: Option<RowProfile>,
}

/// Flattened [`optimus::serving::ProfileReport`]: where one replay pass
/// spent its wall clock, as the phase counters the trajectory rows
/// carry. Times are milliseconds to match `wall_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowProfile {
    /// Event-heap pushes + pops + stale-entry discards in rows measured
    /// while the replay loops kept one; 0 since.
    pub heap_ops: u64,
    /// Closed-form decode-stretch plans built.
    pub stretch_plans: u64,
    /// Wall clock inside stretch planning (ms).
    pub stretch_plan_ms: f64,
    /// Cluster leapfrog replays.
    pub leapfrogs: u64,
    /// Wall clock inside leapfrog replay (ms).
    pub leapfrog_ms: f64,
    /// Admission scans (one per engine iteration prologue).
    pub admission_rounds: u64,
    /// Wall clock inside admission scans (ms).
    pub admission_ms: f64,
    /// Cluster routing decisions.
    pub routing_calls: u64,
    /// Wall clock inside routing (ms).
    pub routing_ms: f64,
}

impl From<optimus::serving::ProfileReport> for RowProfile {
    fn from(p: optimus::serving::ProfileReport) -> Self {
        Self {
            heap_ops: p.heap_ops,
            stretch_plans: p.stretch_plans,
            stretch_plan_ms: p.stretch_plan_s * 1e3,
            leapfrogs: p.leapfrogs,
            leapfrog_ms: p.leapfrog_s * 1e3,
            admission_rounds: p.admission_rounds,
            admission_ms: p.admission_s * 1e3,
            routing_calls: p.routing_calls,
            routing_ms: p.routing_s * 1e3,
        }
    }
}

/// Replay passes per point; the best (minimum wall time) is reported so
/// the snapshot tracks the code's cost rather than scheduler noise.
pub const BENCH_PASSES: u32 = 3;

/// The request count the CI bench-smoke job measures and gates on.
pub const SMOKE_REQUESTS: u32 = 10_000;

/// A smoke run must stay within this fraction of the committed
/// baseline's `req_per_s` (0.7 ⇒ fail on a >30 % regression).
pub const SMOKE_FLOOR: f64 = 0.7;

/// The diurnal workload scaled to `requests`: one sinusoidal day/night
/// cycle per simulated hour, 0.9 relative swing around 8 req/s — the
/// overnight troughs are what give the event core its idle gaps to
/// fast-forward across. At one million requests the trace spans roughly
/// 35 simulated hours.
#[must_use]
pub fn diurnal_workload(requests: u32) -> DiurnalTraceConfig {
    DiurnalTraceConfig {
        seed: 2026,
        requests,
        mean_rate_per_s: 8.0,
        amplitude: 0.9,
        period_s: 3600.0,
        prompt_tokens: (32, 128),
        output_tokens: (16, 64),
    }
}

/// One measured scenario of the core-scaling study: the single-blade
/// cores from PR 6, plus the multi-blade event loops whose stretch
/// batching this study pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreScenario {
    /// Single blade, event-driven core.
    Event,
    /// Single blade, per-step reference loop.
    PerStep,
    /// 4-blade central-dispatch cluster on the event core (one shared
    /// queue, blades coupled through it).
    ClusterEvent,
    /// [`Self::ClusterEvent`] at 16 blades, its 2 req/s per blade kept.
    ClusterEvent16,
    /// [`Self::ClusterEvent`] at 64 blades, its 2 req/s per blade kept:
    /// the fleet of perfbench's `fleet64_central`.
    ClusterEvent64,
    /// [`Self::ClusterEvent`] at 256 blades, its 2 req/s per blade kept.
    ClusterEvent256,
    /// [`Self::ClusterEvent64`] under an autoscaler that scales between
    /// 1 and 64 blades (watermarks 0 and 2, default warm-up and
    /// cooldown), so its rows read what scaling adds per request.
    ClusterAutoscaled64,
    /// 2-prefill + 2-decode disaggregated topology on the event core.
    DisaggEvent,
    /// 4-blade cluster with the full cache-coordination stack on the
    /// event core: cache-aware routing, the global KV tier and LFU
    /// eviction over a shared-prefix workload — prices the routing
    /// residency model and the tier's arrival-order pre-pass.
    ClusterCache,
}

impl CoreScenario {
    /// The `scenario` label the JSON rows carry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Event => "event",
            Self::PerStep => "per_step",
            Self::ClusterEvent => "cluster_event",
            Self::ClusterEvent16 => "cluster_event_16",
            Self::ClusterEvent64 => "cluster_event_64",
            Self::ClusterEvent256 => "cluster_event_256",
            Self::ClusterAutoscaled64 => "cluster_autoscaled_64",
            Self::DisaggEvent => "disagg_event",
            Self::ClusterCache => "cluster_cache",
        }
    }

    /// The scenario's blade count.
    #[must_use]
    pub fn blades(self) -> u32 {
        match self {
            Self::Event | Self::PerStep => 1,
            Self::ClusterEvent | Self::DisaggEvent | Self::ClusterCache => 4,
            Self::ClusterEvent16 => 16,
            Self::ClusterEvent64 | Self::ClusterAutoscaled64 => 64,
            Self::ClusterEvent256 => 256,
        }
    }
}

/// The shared-prefix workload the `cluster_cache` scenario replays:
/// the diurnal arrival shape swapped for a steady Zipf-shared prompt
/// mix, so the routing residency model and the tier pre-pass see one
/// cache lookup per request.
#[must_use]
pub fn shared_prefix_workload(requests: u32) -> SharedPrefixTraceConfig {
    SharedPrefixTraceConfig {
        seed: 2026,
        requests,
        arrival_rate_per_s: 8.0,
        prefixes: 8,
        prefix_tokens: (64, 128),
        zipf_s: 1.2,
        share_fraction: 0.9,
        unique_prompt_tokens: (32, 128),
        output_tokens: (16, 64),
    }
}

/// Replays the diurnal workload (the shared-prefix one for
/// [`CoreScenario::ClusterCache`], and for the 16-, 64- and 256-blade
/// central fleets, autoscaled or not, one scaled to their blades) once through
/// `scenario` and returns
/// the wall-clock milliseconds of the replay alone (trace synthesis and
/// scenario compilation excluded).
///
/// # Errors
///
/// Propagates trace-synthesis and simulation failures.
pub fn scenario_wall_ms(scenario: CoreScenario, requests: u32) -> Result<f64, OptimusError> {
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64)?;
    let mut builder = Scenario::on_estimator(SpeedupStudy::paper_baseline().scd_inference())
        .model(&model)
        .parallelism(&par)
        .max_batch(32);
    // Estimator-anchored scenarios carry no fabric to derive a
    // cross-blade link from; pin an NVLink-class one where needed.
    let link = HandoffLink {
        bytes_per_s: 400e9,
        latency_s: 5e-6,
    };
    builder = match scenario {
        CoreScenario::Event => builder.core(SimCore::EventDriven),
        CoreScenario::PerStep => builder.core(SimCore::PerStep),
        CoreScenario::ClusterEvent
        | CoreScenario::ClusterEvent16
        | CoreScenario::ClusterEvent64
        | CoreScenario::ClusterEvent256 => builder
            .core(SimCore::EventDriven)
            .topology(Topology::mixed(scenario.blades()))
            .dispatch(DispatchMode::Central),
        CoreScenario::ClusterAutoscaled64 => builder
            .core(SimCore::EventDriven)
            .topology(Topology::mixed(scenario.blades()))
            .dispatch(DispatchMode::Central)
            .control(
                ControlPlane::new()
                    .autoscale(AutoscaleConfig::new(1, scenario.blades()).with_watermarks(0, 2)),
            ),
        CoreScenario::DisaggEvent => builder
            .core(SimCore::EventDriven)
            .topology(Topology::disaggregated(2, 2))
            .handoff(link),
        CoreScenario::ClusterCache => builder
            .core(SimCore::EventDriven)
            .topology(Topology::mixed(4))
            .routing(RoutingPolicy::CacheAware)
            .prefix_caching(16)
            .cache_eviction(CacheEviction::Lfu)
            .global_kv_cache(1 << 20)
            .handoff(link),
    };
    let mut diurnal = diurnal_workload(requests);
    if matches!(
        scenario,
        CoreScenario::ClusterEvent16
            | CoreScenario::ClusterEvent64
            | CoreScenario::ClusterEvent256
            | CoreScenario::ClusterAutoscaled64
    ) {
        // The 4-blade cluster's 2 req/s per blade, scaled to the fleet.
        diurnal.mean_rate_per_s *= f64::from(scenario.blades()) / 4.0;
    }
    let compiled = if scenario == CoreScenario::ClusterCache {
        builder.trace(&shared_prefix_workload(requests)).compile()?
    } else {
        builder.trace(&diurnal).compile()?
    };
    let started = Instant::now();
    let report = compiled.run()?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.report.completed, requests,
        "core-scaling replay must complete every request"
    );
    Ok(wall_ms)
}

/// Replays the diurnal workload once through a single-blade `core` —
/// the PR 6 entry point, kept for callers that sweep the two cores.
///
/// # Errors
///
/// Propagates trace-synthesis and simulation failures.
pub fn replay_wall_ms(core: SimCore, requests: u32) -> Result<f64, OptimusError> {
    scenario_wall_ms(
        match core {
            SimCore::EventDriven => CoreScenario::Event,
            SimCore::PerStep => CoreScenario::PerStep,
        },
        requests,
    )
}

/// Measures one `(scenario, requests)` point, best of [`BENCH_PASSES`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn measure_scenario(
    scenario: CoreScenario,
    requests: u32,
) -> Result<CoreBenchRow, OptimusError> {
    use optimus::serving::telemetry::profile;
    let mut best = f64::MAX;
    for _ in 0..BENCH_PASSES {
        best = best.min(scenario_wall_ms(scenario, requests)?);
    }
    // One extra pass under the self-profiler, kept out of the timed
    // passes so the phase counters never contaminate `wall_ms`.
    profile::start();
    scenario_wall_ms(scenario, requests)?;
    let profiled = profile::stop();
    Ok(CoreBenchRow {
        scenario: scenario.label().to_owned(),
        requests,
        wall_ms: best,
        req_per_s: f64::from(requests) / (best / 1e3),
        profile: Some(RowProfile::from(profiled)),
    })
}

/// Measures one single-blade `(core, requests)` point, best of
/// [`BENCH_PASSES`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn measure_point(core: SimCore, requests: u32) -> Result<CoreBenchRow, OptimusError> {
    measure_scenario(
        match core {
            SimCore::EventDriven => CoreScenario::Event,
            SimCore::PerStep => CoreScenario::PerStep,
        },
        requests,
    )
}

/// The full scaling study: the event core — single-blade, central
/// dispatch at 4, 16, 64 and 256 blades and autoscaled at 64, 2P+2D
/// disaggregated and the cache-coordinated cluster — at 10k/100k/1M
/// requests and the per-step
/// reference at 10k/100k. The central fleets carry 2 req/s per blade, so
/// their rows read how the per-request cost grows with the fleet. The
/// per-step loop is left out of
/// the million-request point on purpose — its idle-gap scan is
/// quadratic in trace length, which is precisely the behaviour the
/// event core removes; the 10k/100k pairs pin the speedup trend (the
/// 1M speedup is an extrapolation, flagged as such wherever quoted).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn core_scaling_study() -> Result<Vec<CoreBenchRow>, OptimusError> {
    let points: [(CoreScenario, &[u32]); 9] = [
        (CoreScenario::Event, &[10_000, 100_000, 1_000_000]),
        (CoreScenario::PerStep, &[10_000, 100_000]),
        (CoreScenario::ClusterEvent, &[10_000, 100_000, 1_000_000]),
        (CoreScenario::ClusterEvent16, &[10_000, 100_000, 1_000_000]),
        (CoreScenario::ClusterEvent64, &[10_000, 100_000, 1_000_000]),
        (CoreScenario::ClusterEvent256, &[10_000, 100_000, 1_000_000]),
        (
            CoreScenario::ClusterAutoscaled64,
            &[10_000, 100_000, 1_000_000],
        ),
        (CoreScenario::DisaggEvent, &[10_000, 100_000, 1_000_000]),
        (CoreScenario::ClusterCache, &[10_000, 100_000, 1_000_000]),
    ];
    let mut rows = Vec::new();
    for (scenario, sizes) in points {
        for &requests in sizes {
            rows.push(measure_scenario(scenario, requests)?);
        }
    }
    Ok(rows)
}

/// Renders the study as a table, with the per-step/event speedup at
/// every request count both cores measured.
#[must_use]
pub fn render_core_scaling(rows: &[CoreBenchRow]) -> String {
    let mut out = String::from(
        "Simulation-core scaling: event-driven vs per-step on the diurnal trace\n\
         Llama-405B on the SCD blade (TP=64, max batch 32), 8 req/s mean, 0.9 swing\n\n\
         core      requests     wall(ms)     req/s      speedup\n",
    );
    for r in rows {
        let speedup = rows
            .iter()
            .find(|o| o.requests == r.requests && o.scenario != r.scenario)
            .map_or_else(String::new, |o| {
                if r.scenario == "event" {
                    format!("{:>10.1}x", o.wall_ms / r.wall_ms)
                } else {
                    String::new()
                }
            });
        out.push_str(&format!(
            "{:<10}{:>8}{:>13.1}{:>10.0}{speedup}\n",
            r.scenario, r.requests, r.wall_ms, r.req_per_s
        ));
    }
    out
}

/// The current `git rev-parse HEAD`, or `"unknown"` outside a checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The rows measured at one git revision. `BENCH_serving_core.json`
/// holds a *trajectory* of these, oldest first, so the committed
/// baseline records how simulator throughput moved across the repo's
/// history rather than only its latest value.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// `git rev-parse HEAD` on the checkout that was measured.
    pub git_rev: String,
    /// The measured points at that revision.
    pub rows: Vec<CoreBenchRow>,
}

/// Renders one row as a flat one-line JSON object; the profile keys are
/// appended only when the row carries a [`RowProfile`], so rows written
/// before the profiler existed keep the legacy four-key shape.
fn row_json(r: &CoreBenchRow) -> String {
    let mut obj = format!(
        "{{\"scenario\": \"{}\", \"requests\": {}, \"wall_ms\": {:.3}, \"req_per_s\": {:.1}",
        r.scenario, r.requests, r.wall_ms, r.req_per_s
    );
    if let Some(p) = &r.profile {
        obj.push_str(&format!(
            ", \"heap_ops\": {}, \"stretch_plans\": {}, \"stretch_plan_ms\": {:.3}, \
             \"leapfrogs\": {}, \"leapfrog_ms\": {:.3}, \"admission_rounds\": {}, \
             \"admission_ms\": {:.3}, \"routing_calls\": {}, \"routing_ms\": {:.3}",
            p.heap_ops,
            p.stretch_plans,
            p.stretch_plan_ms,
            p.leapfrogs,
            p.leapfrog_ms,
            p.admission_rounds,
            p.admission_ms,
            p.routing_calls,
            p.routing_ms,
        ));
    }
    obj.push('}');
    obj
}

/// Serializes a trajectory to the multi-snapshot
/// `BENCH_serving_core.json` schema:
/// `{study, trajectory: [{git_rev, rows: [...]}, ...]}`, oldest first.
#[must_use]
pub fn to_trajectory_json(trajectory: &[BenchSnapshot]) -> String {
    let mut out = String::from("{\n  \"study\": \"serving_core_scaling\",\n  \"trajectory\": [\n");
    for (i, snap) in trajectory.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"git_rev\": \"{}\", \"rows\": [\n",
            snap.git_rev
        ));
        for (j, r) in snap.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                row_json(r),
                if j + 1 < snap.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < trajectory.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Why a committed `BENCH_serving_core.json` baseline failed to parse.
/// The variants name the offending snapshot (and field, for row errors)
/// so a CI failure message points at the corruption instead of a bare
/// "no baseline" — and so a half-mangled trajectory is a loud error
/// rather than a silently truncated one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchParseError {
    /// No `"git_rev"` key anywhere: not a bench baseline at all.
    NoSnapshots,
    /// Snapshot `snapshot` (0-based, oldest first) has a `git_rev` key
    /// without a parseable string value.
    MalformedGitRev {
        /// Index of the broken snapshot in the trajectory.
        snapshot: usize,
    },
    /// The named snapshot has no `rows` array or an empty one.
    NoRows {
        /// `git_rev` of the row-less snapshot.
        git_rev: String,
    },
    /// A row object of the named snapshot is missing (or has a
    /// non-parseable value for) the named field.
    MalformedRow {
        /// `git_rev` of the snapshot holding the broken row.
        git_rev: String,
        /// The first missing or unparseable row field.
        field: &'static str,
    },
}

impl fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSnapshots => write!(f, "no bench snapshot found (missing \"git_rev\" key)"),
            Self::MalformedGitRev { snapshot } => {
                write!(f, "snapshot {snapshot}: unparseable git_rev value")
            }
            Self::NoRows { git_rev } => write!(f, "snapshot {git_rev}: no bench rows"),
            Self::MalformedRow { git_rev, field } => {
                write!(
                    f,
                    "snapshot {git_rev}: row field {field:?} missing or unparseable"
                )
            }
        }
    }
}

impl std::error::Error for BenchParseError {}

/// Parses a trajectory baseline, accepting both the multi-snapshot
/// schema of [`to_trajectory_json`] and the legacy single-snapshot
/// schema `{study, git_rev, rows: [...]}` (which yields a one-entry
/// trajectory).
///
/// Snapshots may carry different row sets: the measured scenario/size
/// matrix has grown over the repo's history (per-step points stop at
/// 100k requests, cluster and disaggregated rows only exist from the
/// stretch-batching revision on), so no cross-snapshot shape check is
/// applied — each snapshot stands alone.
///
/// # Errors
///
/// Returns a [`BenchParseError`] naming the first malformed snapshot or
/// row rather than silently truncating the trajectory there.
pub fn try_parse_trajectory_json(json: &str) -> Result<Vec<BenchSnapshot>, BenchParseError> {
    // Every snapshot — legacy or not — leads with its "git_rev" key, so
    // the text between consecutive "git_rev" keys is one snapshot.
    let starts: Vec<usize> = json.match_indices("\"git_rev\"").map(|(i, _)| i).collect();
    if starts.is_empty() {
        return Err(BenchParseError::NoSnapshots);
    }
    let mut trajectory = Vec::new();
    for (k, &start) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(json.len());
        let chunk = &json[start..end];
        // Stop at the snapshot's own closing `]` so the row parser never
        // sees the next snapshot's opening brace (rows contain no `]`).
        let chunk = chunk.find(']').map_or(chunk, |i| &chunk[..i]);
        let git_rev = (|| {
            let tail = &chunk[chunk.find(':')? + 1..];
            let tail = &tail[tail.find('"')? + 1..];
            Some(tail[..tail.find('"')?].to_owned())
        })()
        .ok_or(BenchParseError::MalformedGitRev { snapshot: k })?;
        trajectory.push(BenchSnapshot {
            rows: try_parse_bench_rows(chunk, &git_rev)?,
            git_rev,
        });
    }
    Ok(trajectory)
}

/// [`try_parse_trajectory_json`] with the error collapsed to `None` —
/// for callers that only care whether a usable baseline exists.
#[must_use]
pub fn parse_trajectory_json(json: &str) -> Option<Vec<BenchSnapshot>> {
    try_parse_trajectory_json(json).ok()
}

/// Appends a freshly measured snapshot to the committed trajectory
/// (re-measuring at an already recorded revision replaces that entry
/// in place, keeping one snapshot per revision). A missing or
/// unparseable baseline starts a fresh one-entry trajectory.
#[must_use]
pub fn append_snapshot(
    existing_json: Option<&str>,
    rows: Vec<CoreBenchRow>,
    git_rev: &str,
) -> String {
    let mut trajectory = existing_json
        .and_then(parse_trajectory_json)
        .unwrap_or_default();
    trajectory.retain(|s| s.git_rev != git_rev);
    trajectory.push(BenchSnapshot {
        git_rev: git_rev.to_owned(),
        rows,
    });
    to_trajectory_json(&trajectory)
}

/// Parses the rows of one snapshot (any JSON that keeps each row object
/// on one line with the same four keys, plus the optional profile
/// block), reporting the first broken row as a typed error.
fn try_parse_bench_rows(json: &str, git_rev: &str) -> Result<Vec<CoreBenchRow>, BenchParseError> {
    fn str_field(obj: &str, key: &str) -> Option<String> {
        let tail = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
        let tail = &tail[tail.find('"')? + 1..];
        Some(tail[..tail.find('"')?].to_owned())
    }
    fn num_field(obj: &str, key: &str) -> Option<f64> {
        let tail = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
        let tail = tail.trim_start_matches([':', ' ']);
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(tail.len());
        tail[..end].parse().ok()
    }
    let no_rows = || BenchParseError::NoRows {
        git_rev: git_rev.to_owned(),
    };
    let bad_row = |field: &'static str| BenchParseError::MalformedRow {
        git_rev: git_rev.to_owned(),
        field,
    };
    let rows_block = &json[json.find("\"rows\"").ok_or_else(no_rows)?..];
    let mut rows = Vec::new();
    for obj in rows_block.split('{').skip(1) {
        let obj = obj.split('}').next().ok_or_else(|| bad_row("}"))?;
        // Legacy rows carry only the four core keys; the profile keys
        // are present as a block or not at all.
        let profile = if obj.contains("\"heap_ops\"") {
            let num = |key: &'static str| num_field(obj, key).ok_or_else(|| bad_row(key));
            Some(RowProfile {
                heap_ops: num("heap_ops")? as u64,
                stretch_plans: num("stretch_plans")? as u64,
                stretch_plan_ms: num("stretch_plan_ms")?,
                leapfrogs: num("leapfrogs")? as u64,
                leapfrog_ms: num("leapfrog_ms")?,
                admission_rounds: num("admission_rounds")? as u64,
                admission_ms: num("admission_ms")?,
                routing_calls: num("routing_calls")? as u64,
                routing_ms: num("routing_ms")?,
            })
        } else {
            None
        };
        rows.push(CoreBenchRow {
            scenario: str_field(obj, "scenario").ok_or_else(|| bad_row("scenario"))?,
            requests: num_field(obj, "requests").ok_or_else(|| bad_row("requests"))? as u32,
            wall_ms: num_field(obj, "wall_ms").ok_or_else(|| bad_row("wall_ms"))?,
            req_per_s: num_field(obj, "req_per_s").ok_or_else(|| bad_row("req_per_s"))?,
            profile,
        });
    }
    if rows.is_empty() {
        Err(no_rows())
    } else {
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_baselines() {
        assert_eq!(parse_trajectory_json(""), None);
        assert_eq!(parse_trajectory_json("{\"study\": \"x\"}"), None);
    }

    #[test]
    fn typed_errors_name_the_corruption() {
        assert_eq!(
            try_parse_trajectory_json(""),
            Err(BenchParseError::NoSnapshots)
        );
        assert_eq!(
            try_parse_trajectory_json("{\"git_rev\": \"abc\"}"),
            Err(BenchParseError::NoRows {
                git_rev: "abc".to_owned()
            })
        );
        let missing_wall =
            "{\"git_rev\": \"abc\", \"rows\": [{\"scenario\": \"event\", \"requests\": 10}]}";
        assert_eq!(
            try_parse_trajectory_json(missing_wall),
            Err(BenchParseError::MalformedRow {
                git_rev: "abc".to_owned(),
                field: "wall_ms"
            })
        );
        // A broken later snapshot is an error, not a truncated parse.
        let good = append_snapshot(None, sample_rows(1e6), "aaaa");
        let mangled = format!("{good}{{\"git_rev\": \"bbbb\"}}");
        assert_eq!(
            try_parse_trajectory_json(&mangled),
            Err(BenchParseError::NoRows {
                git_rev: "bbbb".to_owned()
            })
        );
    }

    #[test]
    fn snapshots_may_carry_different_row_sets() {
        // The measured matrix grew across history: an old snapshot with
        // only the single-blade pair and a new one that adds cluster
        // and disaggregated rows coexist in one trajectory.
        let old_rows = vec![
            CoreBenchRow {
                scenario: "event".to_owned(),
                requests: 10_000,
                wall_ms: 10.0,
                req_per_s: 1e6,
                profile: None,
            },
            CoreBenchRow {
                scenario: "per_step".to_owned(),
                requests: 1_000_000,
                wall_ms: 9e5,
                req_per_s: 1.1e3,
                profile: None,
            },
        ];
        let new_rows = vec![
            CoreBenchRow {
                scenario: "event".to_owned(),
                requests: 10_000,
                wall_ms: 9.0,
                req_per_s: 1.1e6,
                profile: None,
            },
            CoreBenchRow {
                scenario: "cluster_event".to_owned(),
                requests: 100_000,
                wall_ms: 100.0,
                req_per_s: 1e6,
                profile: None,
            },
            CoreBenchRow {
                scenario: "disagg_event".to_owned(),
                requests: 100_000,
                wall_ms: 90.0,
                req_per_s: 1.1e6,
                profile: None,
            },
        ];
        let v1 = append_snapshot(None, old_rows.clone(), "aaaa");
        let v2 = append_snapshot(Some(&v1), new_rows.clone(), "bbbb");
        let parsed = try_parse_trajectory_json(&v2).expect("mixed-shape parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].rows, old_rows);
        assert_eq!(parsed[1].rows, new_rows);
    }

    fn sample_rows(req_per_s: f64) -> Vec<CoreBenchRow> {
        vec![CoreBenchRow {
            scenario: "event".to_owned(),
            requests: 10_000,
            wall_ms: 10.0,
            req_per_s,
            profile: None,
        }]
    }

    #[test]
    fn trajectory_round_trips_and_appends() {
        // A fresh baseline is a one-entry trajectory...
        let v1 = append_snapshot(None, sample_rows(1e6), "aaaa");
        let parsed = parse_trajectory_json(&v1).expect("parse v1");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].git_rev, "aaaa");
        assert_eq!(parsed[0].rows, sample_rows(1e6));
        // ...a second revision appends, oldest first...
        let v2 = append_snapshot(Some(&v1), sample_rows(2e6), "bbbb");
        let parsed = parse_trajectory_json(&v2).expect("parse v2");
        assert_eq!(
            parsed
                .iter()
                .map(|s| s.git_rev.as_str())
                .collect::<Vec<_>>(),
            ["aaaa", "bbbb"]
        );
        // ...and re-measuring at the same revision replaces in place.
        let v2b = append_snapshot(Some(&v2), sample_rows(3e6), "bbbb");
        let parsed = parse_trajectory_json(&v2b).expect("parse v2b");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].rows[0].req_per_s, 3e6);
    }

    #[test]
    fn legacy_single_snapshot_baselines_still_parse() {
        let legacy = "{\n  \"study\": \"serving_core_scaling\",\n  \"git_rev\": \"cafe\",\n  \
             \"rows\": [\n    {\"scenario\": \"event\", \"requests\": 10000, \
             \"wall_ms\": 10.000, \"req_per_s\": 500000.0}\n  ]\n}\n";
        let parsed = parse_trajectory_json(legacy).expect("legacy parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].git_rev, "cafe");
        assert_eq!(parsed[0].rows, sample_rows(5e5));
        // Appending to a legacy baseline preserves it as entry zero.
        let grown = append_snapshot(Some(legacy), sample_rows(6e5), "f00d");
        let parsed = parse_trajectory_json(&grown).expect("grown parse");
        assert_eq!(
            parsed
                .iter()
                .map(|s| s.git_rev.as_str())
                .collect::<Vec<_>>(),
            ["cafe", "f00d"]
        );
    }

    #[test]
    fn profiled_rows_round_trip_and_legacy_rows_parse_as_unprofiled() {
        let profiled = CoreBenchRow {
            scenario: "event".to_owned(),
            requests: 10_000,
            wall_ms: 10.0,
            req_per_s: 1e6,
            profile: Some(RowProfile {
                heap_ops: 123,
                stretch_plans: 45,
                stretch_plan_ms: 1.5,
                leapfrogs: 6,
                leapfrog_ms: 0.25,
                admission_rounds: 789,
                admission_ms: 3.125,
                routing_calls: 10,
                routing_ms: 0.5,
            }),
        };
        // A mixed trajectory: a legacy pre-profiler snapshot followed by
        // a profiled one — both shapes must survive the round trip.
        let v1 = append_snapshot(None, sample_rows(1e6), "aaaa");
        let v2 = append_snapshot(Some(&v1), vec![profiled.clone()], "bbbb");
        let parsed = try_parse_trajectory_json(&v2).expect("mixed parse");
        assert_eq!(parsed[0].rows[0].profile, None);
        assert_eq!(parsed[1].rows[0], profiled);
        // A profiled row with a key torn out is a loud error.
        let torn = v2.replace("\"routing_ms\": 0.500", "\"routing\": 0.500");
        assert_eq!(
            try_parse_trajectory_json(&torn),
            Err(BenchParseError::MalformedRow {
                git_rev: "bbbb".to_owned(),
                field: "routing_ms"
            })
        );
    }

    #[test]
    fn small_points_measure_on_both_cores() {
        let event = measure_point(SimCore::EventDriven, 500).unwrap();
        let per_step = measure_point(SimCore::PerStep, 500).unwrap();
        for r in [&event, &per_step] {
            assert_eq!(r.requests, 500);
            assert!(r.wall_ms > 0.0 && r.req_per_s > 0.0);
            // Every engine iteration scans admission, so the extra pass
            // counted some.
            let p = r.profile.expect("every measured row is profiled");
            assert!(p.admission_rounds > 0 && p.admission_ms >= 0.0);
        }
        assert_eq!(event.scenario, "event");
        assert_eq!(per_step.scenario, "per_step");
    }

    #[test]
    fn central_fleets_replay_their_scaled_load() {
        // `scenario_wall_ms` asserts every request completed.
        for scenario in [
            CoreScenario::ClusterEvent16,
            CoreScenario::ClusterEvent64,
            CoreScenario::ClusterEvent256,
            CoreScenario::ClusterAutoscaled64,
        ] {
            assert!(scenario_wall_ms(scenario, 300).unwrap() > 0.0);
        }
        assert_eq!(CoreScenario::ClusterEvent64.label(), "cluster_event_64");
        assert_eq!(CoreScenario::ClusterEvent256.label(), "cluster_event_256");
        assert_eq!(CoreScenario::ClusterEvent256.blades(), 256);
        assert_eq!(
            CoreScenario::ClusterAutoscaled64.label(),
            "cluster_autoscaled_64"
        );
    }

    #[test]
    fn render_reports_speedup_for_paired_points() {
        let rows = vec![
            CoreBenchRow {
                scenario: "event".to_owned(),
                requests: 10_000,
                wall_ms: 10.0,
                req_per_s: 1_000_000.0,
                profile: None,
            },
            CoreBenchRow {
                scenario: "per_step".to_owned(),
                requests: 10_000,
                wall_ms: 80.0,
                req_per_s: 125_000.0,
                profile: None,
            },
        ];
        let table = render_core_scaling(&rows);
        assert!(table.contains("8.0x"), "table:\n{table}");
    }
}
