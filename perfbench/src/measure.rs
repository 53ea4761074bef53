//! Timed passes, output checks and the metrics they produce.
//!
//! A *pass* is one execution of a workload: one quantum for the single
//! simulations, one supervised campaign for `campaign_cycle`. Passes
//! repeat until the requested seconds are used up; timings are reported
//! as medians over passes. Every pass's output is checked, and a pass
//! that errors, panics, is quarantined or fails its check counts as
//! failed.

use crate::trace::{self, Profile, STAGES};
use crate::workloads::{self, Scenario, Size};
use hs_sim::{Campaign, CampaignReport, ExecMode, SimError, SimStats, Simulator, Supervision};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-ups timed before the first pass, on top of one per pass.
const SETUP_REPS: usize = 200;
/// Per-block peak-temperature tolerance of the interval-mode accuracy
/// contract (DESIGN.md §3d), K.
const PEAK_TOL_K: f64 = 1.0;

/// What one benchmark invocation asks for.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Seconds to spend on timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Directory for the campaign journal; created and removed by the run.
    pub scratch: PathBuf,
    /// Workload size (tests use `Size::Reduced`).
    pub size: Size,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Worker threads: the host's parallelism, as the campaign CLI defaults.
#[must_use]
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A workload made ready to execute.
enum Ready {
    Sim(Box<Simulator>),
    Campaign(Campaign),
}

/// Config to a ready simulator or campaign: program generation, attach
/// and preflight. For a campaign this also readies every run's simulator
/// once, the set-up each of its runs repeats when it executes.
fn setup(sc: &Scenario) -> Result<Ready, SimError> {
    let ready_sim = |spec: &hs_sim::RunSpec| -> Result<Simulator, SimError> {
        spec.preflight()?;
        let mut sim = Simulator::try_new(*spec.config(), spec.policy(), spec.sink())?;
        for &w in spec.workloads() {
            sim.attach(w)?;
        }
        Ok(sim)
    };
    if sc.campaign {
        let c = sc.to_campaign();
        c.preflight()?;
        for (_, spec) in &sc.runs {
            drop(std::hint::black_box(ready_sim(spec)?));
        }
        Ok(Ready::Campaign(c))
    } else {
        Ok(Ready::Sim(Box::new(ready_sim(&sc.runs[0].1)?)))
    }
}

fn supervision(journal_dir: &Path) -> Supervision {
    Supervision {
        journal: Some(journal_dir.join("campaign.journal.jsonl")),
        ..Supervision::default()
    }
}

/// A pass's output.
enum Output {
    Stats(SimStats),
    Report(CampaignReport),
}

fn execute(ready: Ready, journal_dir: &Path) -> Result<Output, String> {
    match ready {
        Ready::Sim(mut sim) => sim
            .try_run_quantum()
            .map(Output::Stats)
            .map_err(|e| e.to_string()),
        Ready::Campaign(c) => c
            .run_supervised(jobs(), &supervision(journal_dir))
            .map(Output::Report)
            .map_err(|e| e.to_string()),
    }
}

fn stats_json(s: &SimStats) -> String {
    s.to_json().to_string_compact()
}

/// The interval-mode accuracy contract of DESIGN.md §3d, as
/// `crates/hs-sim/tests/interval_differential.rs` enforces it: the
/// emergency count and each thread's sedation decision (sedated at least
/// once or never) exact, per-block peaks within [`PEAK_TOL_K`] of the
/// cycle-accurate reference.
fn contract(reference: &SimStats, got: &SimStats) -> Result<(), String> {
    if reference.emergencies != got.emergencies {
        return Err(format!(
            "emergencies {} differ from the cycle-accurate {}",
            got.emergencies, reference.emergencies
        ));
    }
    for (a, b) in reference.threads.iter().zip(&got.threads) {
        if (a.sedations > 0) != (b.sedations > 0) {
            return Err(format!(
                "{}: sedated {} times against {} cycle-accurate",
                b.name, b.sedations, a.sedations
            ));
        }
    }
    for (i, (a, b)) in reference.peak_temps.iter().zip(&got.peak_temps).enumerate() {
        if (a - b).abs() >= PEAK_TOL_K {
            return Err(format!(
                "block {i} peak {b:.3} K is {:.3} K from the cycle-accurate {a:.3} K",
                (a - b).abs()
            ));
        }
    }
    Ok(())
}

/// The reference every pass is checked against, and what each pass must
/// repeat exactly.
struct Checker {
    /// Interval workloads: the cycle-accurate run of the same seed.
    cycle_reference: Option<SimStats>,
    /// Campaign: a plain `Campaign::run` of the same matrix, as JSON.
    campaign_reference: Option<String>,
    /// Single simulations: the first pass's statistics and their JSON,
    /// which every later pass must repeat byte for byte.
    first: Option<(SimStats, String)>,
}

impl Checker {
    fn new(sc: &Scenario) -> Result<Self, String> {
        let mut checker = Checker {
            cycle_reference: None,
            campaign_reference: None,
            first: None,
        };
        if sc.campaign {
            let report = sc
                .to_campaign()
                .run(jobs())
                .map_err(|e| format!("reference campaign: {e}"))?;
            checker.campaign_reference = Some(report.to_json());
        } else {
            let spec = &sc.runs[0].1;
            if spec.config().exec == ExecMode::Interval {
                let reference = workloads::cycle_accurate(spec)
                    .try_run()
                    .map_err(|e| format!("cycle-accurate reference: {e}"))?;
                checker.cycle_reference = Some(reference);
            }
        }
        Ok(checker)
    }

    /// How the checked output compares with the cycle-accurate reference
    /// beyond what the contract fixes.
    fn summary(&self) -> Option<String> {
        let reference = self.cycle_reference.as_ref()?;
        let (first, _) = self.first.as_ref()?;
        let sedations = |s: &SimStats| s.threads.iter().map(|t| t.sedations).collect::<Vec<_>>();
        Some(format!(
            "against cycle-accurate: emergencies {} vs {}, sedations {:?} vs {:?}, \
             worst peak drift {:.3} K, {} cycles credited",
            first.emergencies,
            reference.emergencies,
            sedations(first),
            sedations(reference),
            first
                .peak_temps
                .iter()
                .zip(&reference.peak_temps)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
            first.fast_forwarded_cycles,
        ))
    }

    fn check_stats(&mut self, got: &SimStats) -> Result<(), String> {
        let json = stats_json(got);
        match &self.first {
            Some((_, first)) if *first != json => {
                return Err("statistics differ from the first pass of the same seed".into())
            }
            Some(_) => {}
            None => self.first = Some((got.clone(), json)),
        }
        match &self.cycle_reference {
            Some(reference) => contract(reference, got),
            None => Ok(()),
        }
    }

    fn check_report(&self, got: &CampaignReport) -> Result<(), String> {
        if !got.quarantined.is_empty() {
            return Err(format!("{} runs quarantined", got.quarantined.len()));
        }
        match &self.campaign_reference {
            Some(reference) if *reference != got.to_json() => {
                Err("report differs from a plain Campaign::run of the same matrix".into())
            }
            _ => Ok(()),
        }
    }

    fn check(&mut self, out: &Output) -> Result<(), String> {
        match out {
            Output::Stats(s) => self.check_stats(s),
            Output::Report(r) => self.check_report(r),
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(&*p)))
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// Returns a message for an unknown workload or when the reference run
/// that the output checks need cannot be produced; no result is printed
/// then.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let sc = workloads::generate(&args.workload, args.seed, args.size).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {:?})",
            args.workload,
            workloads::NAMES
        )
    })?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let checker = guarded(|| Checker::new(&sc))?;
    let outcome = if args.trace {
        traced(args, &sc, checker)
    } else {
        untraced(args, &sc, checker)
    };
    // Best effort: the run must not leave its journal behind, but a
    // failed removal does not change what was measured.
    let _ = std::fs::remove_dir_all(&args.scratch);
    Ok(outcome)
}

fn untraced(args: &Args, sc: &Scenario, mut checker: Checker) -> Outcome {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ready = setup(sc);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(ready);
    }
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let result = guarded(|| {
            let t = Instant::now();
            let ready = setup(sc).map_err(|e| e.to_string())?;
            setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let out = execute(ready, &args.scratch)?;
            let wall = t.elapsed().as_secs_f64();
            checker.check(&out)?;
            Ok(wall)
        });
        match result {
            Ok(wall) => walls.push(wall),
            Err(e) => {
                failed += 1;
                notes.push(format!("pass {attempted} failed: {e}"));
                if failed as usize >= MIN_PASSES {
                    break;
                }
            }
        }
    }
    notes.extend(checker.summary());
    let wall = median(&walls);
    notes.push(format!(
        "{} passes of {:.1} Mcycles; wall_s median {wall:.4} of {} samples \
         (min {:.4}, max {:.4}); setup_s median of {} samples",
        walls.len(),
        sc.cycles() as f64 / 1e6,
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        setup_s.len(),
    ));
    let metric = |name: &str, value: f64, unit| Metric {
        name: name.into(),
        value,
        unit,
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", wall, "s"),
            metric(
                "sim_mcycles_per_s",
                ratio(sc.cycles() as f64 / 1e6, wall),
                "Mcycles/s",
            ),
            metric("setup_s", median(&setup_s), "s"),
        ],
        notes,
    }
}

/// One run replayed: untraced wall, then the replica's profile.
struct Replayed {
    label: String,
    untraced_wall_s: f64,
    profile: Profile,
    stats: SimStats,
}

/// One traced pass's per-layer figures, before the median over passes.
struct TracedPass {
    runs: Vec<Replayed>,
    /// Campaign only: supervised campaign wall and report serialisation
    /// time, s.
    campaign: Option<(f64, f64)>,
}

impl TracedPass {
    fn profile(&self) -> Profile {
        let mut total = Profile::default();
        for r in &self.runs {
            total.add(&r.profile);
        }
        total
    }

    fn untraced_walls(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.untraced_wall_s).collect()
    }
}

/// Runs each spec untraced, then through the replica, and checks the
/// replica reproduces the untraced statistics exactly.
fn replay(sc: &Scenario) -> Result<Vec<Replayed>, String> {
    let mut out = Vec::new();
    for (label, spec) in &sc.runs {
        let mut sim = Simulator::try_new(*spec.config(), spec.policy(), spec.sink())
            .map_err(|e| e.to_string())?;
        for &w in spec.workloads() {
            sim.attach(w).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let stats = sim.try_run_quantum().map_err(|e| e.to_string())?;
        let untraced_wall_s = t.elapsed().as_secs_f64();
        let (traced, profile) = trace::run_traced(spec)?;
        if stats_json(&traced) != stats_json(&stats) {
            return Err(format!(
                "{label}: the traced replica's statistics differ from the simulator's"
            ));
        }
        out.push(Replayed {
            label: label.clone(),
            untraced_wall_s,
            profile,
            stats,
        });
    }
    Ok(out)
}

/// Makespan of running jobs of the given walls on `workers` threads that
/// each take the next job in id order, as the campaign engine does.
fn makespan(walls: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &w in walls {
        let slot = free
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *slot += w;
    }
    free.into_iter().fold(0.0, f64::max)
}

fn traced(args: &Args, sc: &Scenario, mut checker: Checker) -> Outcome {
    let mut notes = Vec::new();
    let clock_ns = trace::empty_region_ns();
    let mut passes: Vec<TracedPass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let result = guarded(|| {
            if !sc.campaign {
                let runs = replay(sc)?;
                checker.check_stats(&runs[0].stats)?;
                return Ok(TracedPass {
                    runs,
                    campaign: None,
                });
            }
            let ready = setup(sc).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let out = execute(ready, &args.scratch)?;
            let supervised_s = t.elapsed().as_secs_f64();
            checker.check(&out)?;
            let Output::Report(report) = out else {
                unreachable!("a campaign pass yields a report")
            };
            let t = Instant::now();
            drop(std::hint::black_box(report.to_json()));
            let json_s = t.elapsed().as_secs_f64();
            let runs = replay(sc)?;
            for (r, rec) in runs.iter().zip(&report.runs) {
                if stats_json(&r.stats) != stats_json(&rec.stats) {
                    return Err(format!(
                        "{}: statistics differ from the campaign's",
                        r.label
                    ));
                }
            }
            Ok(TracedPass {
                runs,
                campaign: Some((supervised_s, json_s)),
            })
        });
        match result {
            Ok(pass) => passes.push(pass),
            Err(e) => {
                failed += 1;
                notes.push(format!("traced pass {attempted} failed: {e}"));
                if failed as usize >= MIN_PASSES {
                    break;
                }
            }
        }
    }
    notes.extend(checker.summary());
    let per_pass: Vec<Vec<Metric>> = passes.iter().map(|p| layer_metrics(p, clock_ns)).collect();
    let mut metrics = Vec::new();
    if let Some(first) = per_pass.first() {
        for (k, m) in first.iter().enumerate() {
            let values: Vec<f64> = per_pass.iter().map(|p| p[k].value).collect();
            metrics.push(Metric {
                value: median(&values),
                ..m.clone()
            });
        }
    }
    if let Some(pass) = passes.first() {
        notes.push(format!(
            "{} traced passes; clock cost {clock_ns:.1} ns per timed region; per run:",
            passes.len()
        ));
        for Replayed {
            label,
            untraced_wall_s: wall,
            profile: p,
            ..
        } in &pass.runs
        {
            notes.push(format!(
                "  {label:<24} untraced {wall:.3} s, traced {:.3} s, warm-up {:.1}%, {:.1} ns/tick over {} ticks, \
                 idle hits {:.1}%, credited {:.1}%",
                secs(p.wall_ns),
                100.0 * ratio(p.warmup_ns as f64, p.wall_ns as f64),
                ratio(p.tick_ns as f64, p.ticks as f64),
                p.ticks,
                100.0 * ratio(p.idle_hits as f64, p.idle_probes as f64),
                100.0 * ratio(p.credited_cycles as f64, p.cycles as f64),
            ));
        }
    }
    Outcome {
        correct: failed == 0 && !passes.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Every per-layer metric of one traced pass, in `BENCHMARK.json` order.
fn layer_metrics(pass: &TracedPass, clock_ns: f64) -> Vec<Metric> {
    let p = &pass.profile();
    let walls = pass.untraced_walls();
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    };
    let wall = p.wall_ns as f64;
    put("hs_cpu.warmup_s", secs(p.warmup_ns), "s");
    put(
        "hs_cpu.warmup_share",
        ratio(p.warmup_ns as f64, wall),
        "ratio",
    );
    put("hs_cpu.tick_s", secs(p.tick_ns), "s");
    put("hs_cpu.ticks", p.ticks as f64, "count");
    put(
        "hs_cpu.ns_per_tick",
        ratio(p.tick_ns as f64, p.ticks as f64),
        "ns",
    );
    // Stage readings carry one empty-region clock cost each; remove it,
    // scale the sampled ticks up to all ticks, and share out tick time.
    let scale = ratio(p.ticks as f64, p.stage_ticks as f64);
    for (k, stage) in STAGES.iter().enumerate() {
        let own = (p.stage_ns[k] as f64 - p.stage_ticks as f64 * clock_ns).max(0.0);
        put(
            &format!("hs_cpu.stage_share.{stage}"),
            ratio(own * scale, p.tick_ns as f64),
            "ratio",
        );
    }
    put("hs_cpu.stage_clock_ns", clock_ns, "ns");
    put("hs_cpu.idle_probes", p.idle_probes as f64, "count");
    put(
        "hs_cpu.idle_hit_ratio",
        ratio(p.idle_hits as f64, p.idle_probes as f64),
        "ratio",
    );
    put(
        "hs_cpu.idle_skipped_cycles",
        p.idle_skipped_cycles as f64,
        "count",
    );
    put("hs_cpu.fast_forward_s", secs(p.fast_forward_ns), "s");
    put("hs_cpu.credited_cycles", p.credited_cycles as f64, "count");
    put(
        "hs_cpu.credited_share",
        ratio(p.credited_cycles as f64, p.cycles as f64),
        "ratio",
    );
    put("hs_cpu.phase_s", secs(p.phase_ns), "s");
    put("hs_cpu.phase_resets", p.phase_resets as f64, "count");
    put("hs_mem.accesses", p.mem_accesses as f64, "count");
    put(
        "hs_mem.l1d_miss_ratio",
        ratio(p.l1d.1 as f64, p.l1d.0 as f64),
        "ratio",
    );
    put(
        "hs_mem.l2_miss_ratio",
        ratio(p.l2.1 as f64, p.l2.0 as f64),
        "ratio",
    );
    put("hs_power.power_s", secs(p.power_ns), "s");
    put("hs_power.calls", p.power_calls as f64, "count");
    put("hs_thermal.step_s", secs(p.step_ns), "s");
    put("hs_thermal.substeps", p.substeps as f64, "count");
    put("hs_thermal.closed_form_s", secs(p.closed_form_ns), "s");
    put(
        "hs_thermal.closed_form_calls",
        p.closed_form_calls as f64,
        "count",
    );
    put("hs_thermal.sensor_read_s", secs(p.sensor_ns), "s");
    put("hs_core.policy_s", secs(p.policy_ns), "s");
    put("hs_core.policy_calls", p.policy_calls as f64, "count");
    put("hs_core.dtm_changes", p.dtm_changes as f64, "count");
    put(
        "hs_core.gated_share",
        ratio(p.gated_thread_cycles as f64, p.thread_cycles as f64),
        "ratio",
    );
    put("hs_workloads.program_s", secs(p.program_ns), "s");
    put("hs_sim.sample_glue_s", secs(p.glue_ns), "s");
    put(
        "hs_sim.unattributed_share",
        1.0 - ratio(p.attributed_ns() as f64, wall),
        "ratio",
    );
    put(
        "hs_sim.trace_overhead",
        ratio(secs(p.wall_ns), walls.iter().sum()) - 1.0,
        "ratio",
    );
    let (run_max, busy, overhead, json_s) = match &pass.campaign {
        Some((supervised_s, json_s)) => {
            let jobs = jobs();
            (
                walls.iter().copied().fold(0.0, f64::max),
                ratio(walls.iter().sum(), jobs as f64 * supervised_s),
                supervised_s - makespan(&walls, jobs),
                *json_s,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    put("hs_sim.campaign.run_wall_s_max", run_max, "s");
    put("hs_sim.campaign.busy_share", busy, "ratio");
    put("hs_sim.campaign.overhead_s", overhead, "s");
    put("hs_sim.campaign.report_json_s", json_s, "s");
    out
}
