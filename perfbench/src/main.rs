//! Host-time benchmark of the `optimus::serving` simulator: what a
//! replay costs to run, never the simulated time it reports.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One process runs one workload (see `README.md` beside this crate).
//! It sets the scenario up once cold and replays it once untimed as a
//! warm-up, then for `--seconds` repeats set-up (trace synthesis +
//! `Scenario::compile()`) and replay back to back, reporting medians
//! scaled by the host's speed (see `reference.rs`).
//! Every replay's simulated output is checked against the run's first
//! replay and, at the workload's default seed, against its pinned
//! fingerprint. With `--trace 1` a separate traced run follows and the
//! per-layer metrics are reported instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod policy_timer;
mod reference;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus::serving::telemetry::profile;
use optimus::serving::{ClusterReport, CompiledScenario, NoopObserver};
use optimus::OptimusError;

use policy_timer::PolicyStats;
use workloads::{System, Workload};

/// Timed iterations a run makes even when `--seconds` is already spent.
const MIN_RUNS: usize = 5;

/// Share of each timed iteration given to set-up (the iteration's own
/// set-up plus set-up-only repetitions).
const SETUP_SHARE: f64 = 0.1;

/// Share of each timed iteration given to the host-speed reference.
const REFERENCE_SHARE: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

/// FNV-1a over `bytes`, continuing from `hash`: a digest that is stable
/// across Rust releases, unlike the standard library's hashers.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a replay's simulated output: the report without its
/// `stretch` diagnostics (what `ClusterReport`'s `PartialEq` compares)
/// and, when the replay mounts telemetry, the telemetry CSV export.
/// `Debug` prints every float in shortest round-trip form, so equal
/// digests mean bit-equal floats.
fn fingerprint(report: &ClusterReport, csv: Option<&str>) -> (u64, u64) {
    let mut simulated = report.clone();
    simulated.stretch = Default::default();
    let report_digest = fnv1a(FNV_OFFSET, format!("{simulated:?}").as_bytes());
    let digest = csv.map_or(report_digest, |csv| fnv1a(report_digest, csv.as_bytes()));
    (report_digest, digest)
}

/// Counts replays and the ones that failed: returned `Err`, panicked,
/// lost a request, or produced output that differs from the run's first
/// replay or from the pinned fingerprint.
struct Checker {
    pin: Option<u64>,
    reference: Option<(u64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Times one replay and checks its output. Returns the report and
    /// the replay's wall seconds unless it returned `Err` or panicked.
    fn replay(
        &mut self,
        run: impl FnOnce() -> Result<(ClusterReport, Option<String>), OptimusError>,
    ) -> Option<(ClusterReport, f64)> {
        self.attempted += 1;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let seconds = started.elapsed().as_secs_f64();
        let (report, csv) = match outcome {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                eprintln!("replay failed: {e}");
                self.failed += 1;
                return None;
            }
            Err(_) => {
                eprintln!("replay panicked");
                self.failed += 1;
                return None;
            }
        };
        let (report_digest, digest) = fingerprint(&report, csv.as_deref());
        let (ref_report, ref_digest) = *self.reference.get_or_insert((report_digest, digest));
        let expected = self.pin.unwrap_or(ref_digest);
        let matches = if csv.is_none() && ref_digest != ref_report {
            // The `run_observed` twin of a telemetry replay has no CSV
            // to digest; its report must still match.
            report_digest == ref_report
        } else {
            digest == expected
        };
        let conserved = u64::from(report.report.completed) + report.report.shed_requests
            == u64::from(report.report.requests);
        if !(conserved && matches) {
            eprintln!(
                "replay output check failed: conserved={conserved} digest={digest:#018x} \
                 expected={expected:#018x}"
            );
            self.failed += 1;
        }
        Some((report, seconds))
    }
}

/// A run's median (upper median for an even count). On a shared host a
/// core's speed swings between a fast and a slow mode every few
/// seconds. The run's median follows the mix of modes over the whole
/// run; a low percentile flips with whether the run caught a fast
/// phase, and spread several times as widely across runs.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Peak resident set of this process so far (`VmHWM`, reported in
/// KiB), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// One cold set-up: the compiled scenario, synthesis and compile seconds.
fn set_up(
    workload: Workload,
    system: &System,
    seed: u64,
) -> Result<(CompiledScenario<'_>, f64, f64), OptimusError> {
    let started = Instant::now();
    let trace = workload.synthesize(seed)?;
    let synth_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let compiled = workload.compile(system, trace, None)?;
    Ok((compiled, synth_s, started.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Samples {
    /// Every set-up's synthesis and compile seconds.
    synth_s: Vec<f64>,
    compile_s: Vec<f64>,
    /// Replay, and set-up plus replay, of each timed iteration.
    replay_s: Vec<f64>,
    e2e_s: Vec<f64>,
    /// Every run of the host-speed reference.
    reference_s: Vec<f64>,
}

impl Samples {
    fn set_up<'a>(
        &mut self,
        workload: Workload,
        system: &'a System,
        seed: u64,
    ) -> Result<(CompiledScenario<'a>, f64), OptimusError> {
        let (compiled, synth_s, compile_s) = set_up(workload, system, seed)?;
        self.synth_s.push(synth_s);
        self.compile_s.push(compile_s);
        Ok((compiled, synth_s + compile_s))
    }

    fn setup_s(&self) -> Vec<f64> {
        self.synth_s
            .iter()
            .zip(&self.compile_s)
            .map(|(s, c)| s + c)
            .collect()
    }
}

type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Checker, Vec<Metric>), OptimusError> {
    let workload = args.workload;
    let system = System::paper_baseline()?;
    let mut checker = Checker {
        pin: (args.seed == workload.default_seed()).then(|| workload.pinned_fingerprint()),
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut samples = Samples::default();

    // The first set-up is timed cold; its replay is the untimed warm-up.
    let (compiled, _) = samples.set_up(workload, &system, args.seed)?;
    let warm = checker.replay(|| workload.replay(&compiled));
    drop(compiled);
    // The timed iterations repeat this set-up and replay, so the peak so
    // far is the workload's; the reference's memory comes after it.
    let peak_rss_mb = peak_rss_mb();
    let host = reference::Reference::new();
    if let Some((report, _)) = &warm {
        let r = &report.report;
        println!(
            "simulated: {} requests, {} completed, {} shed, ttft p50 {:.4} s p99 {:.4} s, \
             makespan {:.1} s, {} evictions",
            r.requests,
            r.completed,
            r.shed_requests,
            r.ttft.p50,
            r.ttft.p99,
            r.makespan_s,
            r.evictions
        );
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut iterations = 0;
    while started.elapsed() < budget || iterations < MIN_RUNS {
        iterations += 1;
        let (compiled, setup_s) = samples.set_up(workload, &system, args.seed)?;
        let Some((_, replay_s)) = checker.replay(|| workload.replay(&compiled)) else {
            continue;
        };
        samples.replay_s.push(replay_s);
        samples.e2e_s.push(setup_s + replay_s);
        // Set-up alone until it has had its share of the iteration, so
        // a set-up of a millisecond or less still gets enough samples,
        // taken between the replays rather than in one stretch.
        let mut spent = setup_s;
        while spent < SETUP_SHARE * (setup_s + replay_s) {
            spent += samples.set_up(workload, &system, args.seed)?.1;
        }
        // Likewise the host-speed reference, at least once per iteration.
        let mut spent = 0.0;
        while spent == 0.0 || spent < REFERENCE_SHARE * (setup_s + replay_s) {
            let reference_s = host.time_once();
            samples.reference_s.push(reference_s);
            spent += reference_s;
        }
    }
    if samples.replay_s.is_empty() {
        return Ok((checker, Vec::new()));
    }
    let replay_s = median(&samples.replay_s);
    let (e2e_s, setup_s) = (median(&samples.e2e_s), median(&samples.setup_s()));
    let reference_s = median(&samples.reference_s);
    let scale = reference::NOMINAL_S / reference_s;
    println!("runs = {}", samples.replay_s.len());
    println!("unscaled: e2e_s = {e2e_s} s, setup_s = {setup_s} s, replay_s = {replay_s} s");
    println!(
        "host: reference median {reference_s} s over {} runs, nominal {} s, scale {scale}",
        samples.reference_s.len(),
        reference::NOMINAL_S
    );

    if !args.trace {
        return Ok((
            checker,
            vec![
                ("e2e_s", e2e_s * scale, "s"),
                ("setup_s", setup_s * scale, "s"),
                ("replay_s", replay_s * scale, "s"),
                ("peak_rss_mb", peak_rss_mb, "MB"),
            ],
        ));
    }
    let metrics = traced_run(args, &system, &mut checker, &samples, replay_s)?;
    Ok((checker, metrics))
}

/// The traced run: one replay under the simulator's self-profiler, one
/// of the scenario rebuilt with the policy timer, and on telemetry
/// workloads one `run_observed(&mut NoopObserver)` twin. `replay_s` is
/// the untraced replays' median, which the traced replays are set against.
fn traced_run(
    args: &Args,
    system: &System,
    checker: &mut Checker,
    samples: &Samples,
    replay_s: f64,
) -> Result<Vec<Metric>, OptimusError> {
    let workload = args.workload;
    let (compiled, _, _) = set_up(workload, system, args.seed)?;

    profile::start();
    let profiled = checker.replay(|| workload.replay(&compiled));
    let prof = profile::stop();
    let Some((report, profiled_s)) = profiled else {
        return Ok(Vec::new());
    };

    let stats = Arc::new(PolicyStats::default());
    let timed = workload.compile(system, workload.synthesize(args.seed)?, Some(&stats))?;
    checker.replay(|| workload.replay(&timed));

    let telemetry_overhead_s = if workload.has_telemetry() {
        checker
            .replay(|| Ok((compiled.run_observed(&mut NoopObserver)?, None)))
            .map_or(0.0, |(_, twin_s)| replay_s - twin_s)
    } else {
        0.0
    };

    let r = &report.report;
    let s = report.stretch;
    let rounds = s.stretched_iterations + s.single_steps;
    let count = |n: u64| n as f64;
    let attributed = prof.admission_s + prof.routing_s + prof.leapfrog_s + prof.stretch_plan_s;
    Ok(vec![
        ("traces.synth_s", median(&samples.synth_s), "s"),
        ("scenario.compile_s", median(&samples.compile_s), "s"),
        (
            "engine.admission_rounds",
            count(prof.admission_rounds),
            "count",
        ),
        ("engine.admission_s", prof.admission_s, "s"),
        (
            "engine.decode_iterations",
            count(r.decode_iterations),
            "count",
        ),
        ("engine.mean_batch", r.mean_batch, "seqs"),
        ("events.heap_ops", count(prof.heap_ops), "count"),
        ("events.stretch_plans", count(prof.stretch_plans), "count"),
        ("events.stretch_plan_s", prof.stretch_plan_s, "s"),
        ("events.stretches", count(s.stretches), "count"),
        (
            "events.stretched_iterations",
            count(s.stretched_iterations),
            "count",
        ),
        ("events.single_steps", count(s.single_steps), "count"),
        (
            "events.stretch_share",
            if rounds == 0 {
                0.0
            } else {
                s.stretched_iterations as f64 / rounds as f64
            },
            "frac",
        ),
        ("events.leapfrogs", count(prof.leapfrogs), "count"),
        ("events.leapfrog_s", prof.leapfrog_s, "s"),
        ("cluster.routing_calls", count(prof.routing_calls), "count"),
        ("cluster.routing_s", prof.routing_s, "s"),
        ("cluster.utilization_skew", report.utilization_skew, "frac"),
        ("policy.order_calls", count(stats.order_calls()), "count"),
        ("policy.order_s", stats.order_s(), "s"),
        ("policy.key_calls", count(stats.key_calls()), "count"),
        ("kv.evictions", f64::from(r.evictions), "count"),
        ("kv.wasted_tokens", count(r.wasted_tokens), "tokens"),
        ("prefix.hits", count(r.prefix_hits), "count"),
        ("prefix.misses", count(r.prefix_misses), "count"),
        ("prefix.hit_rate", r.prefix_hit_rate(), "frac"),
        (
            "prefix.cache_evictions",
            count(r.prefix_cache_evictions),
            "count",
        ),
        (
            "prefix.tokens_saved",
            count(r.prefix_tokens_saved),
            "tokens",
        ),
        ("coord.remote_hits", count(r.remote_prefix_hits), "count"),
        (
            "coord.remote_streams",
            count(r.remote_prefix_streams),
            "count",
        ),
        (
            "coord.cache_residency_skew",
            report.cache_residency_skew,
            "B",
        ),
        ("control.shed_requests", count(r.shed_requests), "count"),
        ("telemetry.overhead_s", telemetry_overhead_s, "s"),
        (
            "replay.unattributed_s",
            (profiled_s - attributed).max(0.0),
            "s",
        ),
        ("trace.overhead_frac", profiled_s / replay_s - 1.0, "frac"),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "workload = {}, seed = {} (default {}), requests = {}, worker threads <= {}",
        workload.name(),
        args.seed,
        workload.default_seed(),
        workload.requests(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let (checker, metrics) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((_, digest)) = checker.reference {
        println!("fingerprint = {digest:#018x}");
    }
    println!("replays_attempted = {}", checker.attempted);
    println!("replays_failed = {}", checker.failed);
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = checker.failed == 0 && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
