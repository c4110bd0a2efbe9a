//! CI gate for the event-driven simulation core's performance: replays
//! the 10k-request diurnal point through the single-blade event core,
//! the 4-blade central cluster, the 2P+2D disaggregated topology and
//! the cache-coordinated cluster (shared-prefix point),
//! failing (exit 1) if any measured simulator throughput falls below
//! 70 % of the committed `BENCH_serving_core.json` baseline's *latest*
//! trajectory entry on every attempt (a below-floor scenario is granted
//! [`SMOKE_RETRIES`] fresh measurements before it counts as a
//! regression). Baselines predating a gated scenario (e.g. legacy
//! single-blade-only snapshots) skip that scenario's gate with a
//! notice — the next `--bench-json` refresh starts gating it.
//!
//! The committed baseline is read from the path given as the first
//! argument (default `BENCH_serving_core.json`, i.e. repo root when run
//! via `cargo run`). Grow it with
//! `cargo run --release -p scd-bench --bin serving_capacity -- --bench-json`,
//! which appends a snapshot keyed to the current git revision.

use scd_bench::core_bench::{
    measure_scenario, try_parse_trajectory_json, CoreScenario, SMOKE_FLOOR, SMOKE_REQUESTS,
};

/// The scenarios the smoke gate measures, each against its own
/// baseline row.
const GATED: [CoreScenario; 4] = [
    CoreScenario::Event,
    CoreScenario::ClusterEvent,
    CoreScenario::DisaggEvent,
    CoreScenario::ClusterCache,
];

/// Extra measurements granted to a scenario that lands below its floor.
/// Shared CI machines hand out ~2x-slow scheduling windows often enough
/// that one best-of-passes sample against a 70 % floor is flaky; a real
/// regression fails every retry, a noisy window does not.
const SMOKE_RETRIES: u32 = 2;

fn main() -> Result<(), optimus::OptimusError> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serving_core.json".to_owned());
    let baseline_json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("bench_smoke: cannot read baseline {path}: {e}");
        std::process::exit(1);
    });
    let trajectory = try_parse_trajectory_json(&baseline_json).unwrap_or_else(|e| {
        eprintln!("bench_smoke: malformed baseline {path}: {e}");
        std::process::exit(1);
    });
    let latest = trajectory.last().expect("parse yields at least one entry");

    let mut failed = false;
    for scenario in GATED {
        let label = scenario.label();
        let Some(baseline) = latest
            .rows
            .iter()
            .find(|r| r.scenario == label && r.requests == SMOKE_REQUESTS)
        else {
            println!(
                "bench_smoke: baseline {} predates the {label}/{SMOKE_REQUESTS} row; \
                 skipping that gate (refresh with --bench-json to arm it)",
                latest.git_rev
            );
            continue;
        };
        let floor = SMOKE_FLOOR * baseline.req_per_s;
        let mut measured = measure_scenario(scenario, SMOKE_REQUESTS)?;
        let mut retries = 0;
        while measured.req_per_s < floor && retries < SMOKE_RETRIES {
            retries += 1;
            println!(
                "bench_smoke: {label} at {:.0} req/s is below floor {floor:.0}; \
                 retrying ({retries}/{SMOKE_RETRIES}) in case the window was noisy",
                measured.req_per_s
            );
            measured = measure_scenario(scenario, SMOKE_REQUESTS)?;
        }
        println!(
            "bench_smoke: {label}, {SMOKE_REQUESTS} requests: {:.0} req/s \
             (baseline {:.0} at {}, floor {floor:.0}; {} snapshot(s) on the trajectory)",
            measured.req_per_s,
            baseline.req_per_s,
            latest.git_rev,
            trajectory.len()
        );
        // Self-profile phase counters ride along informationally — the
        // gate stays on req_per_s alone, and rows without them (legacy
        // baselines) are equally fine.
        if let Some(p) = &measured.profile {
            println!(
                "bench_smoke: {label} profile: {} heap ops, {} stretch plans \
                 ({:.1} ms), {} leapfrogs ({:.1} ms), {} admission rounds \
                 ({:.1} ms), {} routing calls ({:.1} ms)",
                p.heap_ops,
                p.stretch_plans,
                p.stretch_plan_ms,
                p.leapfrogs,
                p.leapfrog_ms,
                p.admission_rounds,
                p.admission_ms,
                p.routing_calls,
                p.routing_ms
            );
        }
        if measured.req_per_s < floor {
            eprintln!(
                "bench_smoke: FAIL — {label} at {:.0} req/s is below {:.0}% of the \
                 committed baseline",
                measured.req_per_s,
                SMOKE_FLOOR * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_smoke: PASS");
    Ok(())
}
