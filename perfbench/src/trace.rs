//! The traced run: an outside-in replica of `Simulator::try_run_quantum`.
//!
//! The replica makes the same calls, in the same order, into each layer's
//! public functions — `Cpu::{tick, idle_bound, skip_idle_cycles,
//! fast_forward, take_access_counts}`, the `PhaseDetector`,
//! `PowerModel::power`, `ThermalNetwork::{step, advance_closed_form}`,
//! `SensorBank::read_at` and `ThermalPolicy::on_sample` — and reads the
//! clock only at span and sampling-instant boundaries, never per cycle.
//! Every nanosecond between two boundary reads is charged to the layer
//! whose call the interval covers, so the layer times add up to the traced
//! wall except for the thermal pre-warm and the final collection.
//!
//! The replica is only trustworthy while it runs the same program as the
//! simulator: the traced pass fails unless its `SimStats` equal the
//! untraced pass's exactly. It supports what the benchmark's workloads
//! use — the realistic sink, selective sedation and the failsafe policy,
//! no admission screening — and rejects anything else.

use hs_core::{
    BlockCounts, DtmInput, FaultTolerantDtm, ReportKind, SelectiveSedation, ThermalPolicy,
    ALL_SENSORS_VALID,
};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{
    AccessMatrix, Cpu, PhaseDetector, PhaseDetectorConfig, PhaseSample, Resource, ThreadId,
    ALL_RESOURCES,
};
use hs_power::{calibration, resource_block, PowerModel};
use hs_sim::{
    AdmissionMode, ExecMode, HeatSink, PolicyKind, RunSpec, SimStats, ThreadBreakdown,
    ThreadSummary,
};
use hs_thermal::{SensorBank, ThermalNetwork, ALL_BLOCKS, NUM_BLOCKS};
use std::time::Instant;

/// One tick in this many of the measured quantum goes through
/// `Cpu::tick_timed` for the pipeline-stage split.
pub const STAGE_EVERY: u64 = 256;

/// Pipeline stages in `Cpu::tick_timed`'s output order.
pub const STAGES: [&str; 5] = ["commit", "writeback", "issue", "dispatch", "fetch"];

/// Time and work per layer for one or more traced runs. Times are host
/// nanoseconds; everything else is a count of modelled work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Runs folded into this profile.
    pub runs: u64,
    /// Traced wall of the quanta (warm-up through collection), ns.
    pub wall_ns: u64,
    /// Simulated cycles, warm-up included.
    pub cycles: u64,
    /// `hs-workloads`: program generation at attach.
    pub program_ns: u64,
    /// `hs-cpu`: warm-up tick and idle-skip loop.
    pub warmup_ns: u64,
    /// `hs-cpu`: executing spans of the measured quantum.
    pub tick_ns: u64,
    /// `Cpu::tick` calls in the measured quantum.
    pub ticks: u64,
    /// Per-stage ns over the stage-sampled ticks, clock cost not removed.
    pub stage_ns: [u64; 5],
    /// Ticks that went through `Cpu::tick_timed`.
    pub stage_ticks: u64,
    /// `Cpu::idle_bound` calls (warm-up and quantum).
    pub idle_probes: u64,
    /// Probes that found an idle window.
    pub idle_hits: u64,
    /// Cycles advanced by `Cpu::skip_idle_cycles`.
    pub idle_skipped_cycles: u64,
    /// `hs-cpu`: `Cpu::fast_forward` calls.
    pub fast_forward_ns: u64,
    /// Cycles credited by the interval engine.
    pub credited_cycles: u64,
    /// `hs-cpu`: phase detection and credit bookkeeping.
    pub phase_ns: u64,
    /// Phase-detector resets forced by DTM state changes.
    pub phase_resets: u64,
    /// `hs-sim`: access-count drain, block-count fold, counter faults,
    /// peak bookkeeping and the loop's own accounting.
    pub glue_ns: u64,
    /// `hs-power`: `PowerModel::power`.
    pub power_ns: u64,
    /// `PowerModel::power` calls.
    pub power_calls: u64,
    /// `hs-thermal`: `ThermalNetwork::step`.
    pub step_ns: u64,
    /// Integrator substeps taken by `step`.
    pub substeps: u64,
    /// `hs-thermal`: `ThermalNetwork::advance_closed_form`.
    pub closed_form_ns: u64,
    /// `advance_closed_form` calls.
    pub closed_form_calls: u64,
    /// `hs-thermal`: `SensorBank::read_at`.
    pub sensor_ns: u64,
    /// `hs-core`: `ThermalPolicy::on_sample` and the gate merge.
    pub policy_ns: u64,
    /// `on_sample` calls.
    pub policy_calls: u64,
    /// Sampling instants at which the DTM changed a gate or the stall.
    pub dtm_changes: u64,
    /// Thread-cycles gated or globally stalled in the measured quanta.
    pub gated_thread_cycles: u64,
    /// Thread-cycles in the measured quanta.
    pub thread_cycles: u64,
    /// `hs-mem`: cache accesses (L1I + L1D + L2).
    pub mem_accesses: u64,
    /// L1D accesses and misses.
    pub l1d: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
}

impl Profile {
    /// Adds `other` into `self`.
    pub fn add(&mut self, o: &Profile) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            runs,
            wall_ns,
            cycles,
            program_ns,
            warmup_ns,
            tick_ns,
            ticks,
            stage_ticks,
            idle_probes,
            idle_hits,
            idle_skipped_cycles,
            fast_forward_ns,
            credited_cycles,
            phase_ns,
            phase_resets,
            glue_ns,
            power_ns,
            power_calls,
            step_ns,
            substeps,
            closed_form_ns,
            closed_form_calls,
            sensor_ns,
            policy_ns,
            policy_calls,
            dtm_changes,
            gated_thread_cycles,
            thread_cycles,
            mem_accesses
        );
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        self.l1d.0 += o.l1d.0;
        self.l1d.1 += o.l1d.1;
        self.l2.0 += o.l2.0;
        self.l2.1 += o.l2.1;
    }

    /// Layer time inside the traced wall, ns.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.warmup_ns
            + self.tick_ns
            + self.fast_forward_ns
            + self.phase_ns
            + self.glue_ns
            + self.power_ns
            + self.step_ns
            + self.closed_form_ns
            + self.sensor_ns
            + self.policy_ns
    }
}

/// Nanoseconds since `*t`, moving `*t` to now: one clock read per
/// boundary.
fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Mean cost in ns of an empty timed region (`Instant::now` then
/// `elapsed`), the fixed cost each `Cpu::tick_timed` stage reading carries.
#[must_use]
pub fn empty_region_ns() -> f64 {
    const N: u32 = 200_000;
    let mut acc = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        acc += std::hint::black_box(t.elapsed().as_nanos() as u64);
    }
    acc as f64 / f64::from(N)
}

/// `Simulator`'s idle-probe throttle, reproduced: a failed probe backs off
/// exponentially (up to 8 ticks), a hit probes again on the next tick.
struct IdleProbe {
    wait: u32,
    backoff: u32,
}

impl IdleProbe {
    const MAX_BACKOFF: u32 = 8;

    fn new() -> Self {
        Self {
            wait: 0,
            backoff: 1,
        }
    }

    fn should_probe(&mut self) -> bool {
        if self.wait == 0 {
            true
        } else {
            self.wait -= 1;
            false
        }
    }

    fn hit(&mut self) {
        self.wait = 0;
        self.backoff = 1;
    }

    fn miss(&mut self) {
        self.wait = self.backoff;
        self.backoff = (self.backoff * 2).min(Self::MAX_BACKOFF);
    }
}

/// Runs `spec` through the replica, returning its statistics and the
/// per-layer profile.
///
/// # Errors
///
/// Returns a message if the spec fails preflight or uses something the
/// replica does not reproduce: the ideal sink, a policy other than
/// selective sedation or the failsafe, or admission screening.
#[allow(clippy::too_many_lines)]
pub fn run_traced(spec: &RunSpec) -> Result<(SimStats, Profile), String> {
    spec.preflight().map_err(|e| e.to_string())?;
    let cfg = *spec.config();
    let n = cfg.cpu.contexts as usize;
    let mut policy: Box<dyn ThermalPolicy> = match spec.policy() {
        PolicyKind::SelectiveSedation => Box::new(SelectiveSedation::new(cfg.sedation, n)),
        PolicyKind::FaultTolerant => Box::new(FaultTolerantDtm::new(cfg.failsafe(), n)),
        other => return Err(format!("the traced replica does not run policy {other:?}")),
    };
    if spec.sink() != HeatSink::Realistic || cfg.admission != AdmissionMode::Off {
        return Err("the traced replica runs the realistic sink without admission".into());
    }
    let mut prof = Profile {
        runs: 1,
        cycles: cfg.warmup_cycles + cfg.quantum_cycles,
        ..Profile::default()
    };

    // ---- Set-up, as `Simulator::try_new` + `attach`.
    let mut cpu = Cpu::new(cfg.cpu, cfg.mem);
    let model = PowerModel::new(cfg.energy);
    let mut net = ThermalNetwork::new(&cfg.thermal);
    let mut sensors = SensorBank::with_faults(cfg.sensors, cfg.faults.sensors);
    let mut names = Vec::new();
    for &w in spec.workloads() {
        let t = Instant::now();
        let program = w.program_with(&cfg.mem, cfg.time_scale);
        prof.program_ns += t.elapsed().as_nanos() as u64;
        names.push(w.name());
        cpu.attach_thread(program);
    }
    // Without admission screening no thread is gated before the DTM acts.
    let open = FetchGate::open();

    let start = Instant::now();
    let mut t = start;
    let nthreads = cpu.num_threads();
    let quantum = cfg.quantum_cycles;
    let sample = cfg.sedation.sample_period_cycles;
    let sensor = cfg.sensor_interval_cycles;
    let sensor_dt = sensor as f64 / cfg.freq_hz;
    let emergency_k = cfg.sedation.thresholds.emergency_k;

    // ---- Warm-up.
    let mut done = 0u64;
    let mut probe = IdleProbe::new();
    while done < cfg.warmup_cycles {
        cpu.tick(open);
        done += 1;
        if done == cfg.warmup_cycles {
            break;
        }
        if probe.should_probe() {
            prof.idle_probes += 1;
            let bound = cpu.idle_bound(open);
            let skip = bound
                .map(|b| (b - 1 - cpu.cycle()).min(cfg.warmup_cycles - done))
                .unwrap_or(0);
            if skip > 0 {
                cpu.skip_idle_cycles(open, skip);
                done += skip;
                prof.idle_hits += 1;
                prof.idle_skipped_cycles += skip;
                probe.hit();
            } else {
                probe.miss();
            }
        }
    }
    prof.warmup_ns += lap(&mut t);
    let _ = cpu.take_access_counts();
    let committed_base: Vec<u64> = (0..nthreads)
        .map(|i| cpu.thread_stats(ThreadId(i as u8)).committed)
        .collect();

    // ---- Thermal pre-warm: left unattributed, like the collection.
    let nominal = calibration::chip_power(&model, 2.5, 1.0, cfg.freq_hz);
    net.initialize_steady_state(&nominal);
    let mut temps = net.block_temps();
    let substeps_base = net.substeps_taken();
    lap(&mut t);

    // ---- Measured quantum.
    let mut gate = open;
    let mut global_stall = false;
    let mut power_accum = AccessMatrix::new();
    let mut breakdowns = vec![ThreadBreakdown::default(); nthreads];
    let mut regfile_accesses = vec![0u64; nthreads];
    let mut peak_temps = temps;
    let mut above_emergency = [false; NUM_BLOCKS];
    let mut emergencies = 0u64;
    let mut sensor_valid = ALL_SENSORS_VALID;

    let interval_on = cfg.exec == ExecMode::Interval && cfg.faults.is_empty();
    let mut detector = PhaseDetector::new(PhaseDetectorConfig {
        confirm_samples: cfg.interval.confirm_samples,
        rel_tol: cfg.interval.rel_tol,
        abs_slack: cfg.interval.abs_slack,
    });
    let mut truth_temps = temps;
    let guard_limit = cfg.sedation.thresholds.normal_k - cfg.interval.guard_k;
    let mut last_committed = committed_base.clone();
    let mut consec_skips = 0u64;
    let mut fast_forwarded = 0u64;
    let mut refill_pending = false;
    let agg = cfg.interval.aggregate_samples;
    let mut agg_acc = PhaseSample::zero();
    let mut agg_n = 0u64;
    let mut credit_super = PhaseSample::zero();
    let mut credit_j = 0u64;
    let mut sensor_all_credited = true;

    let mut stage_countdown = STAGE_EVERY;
    let mut cycle = 1u64;
    let mut probe = IdleProbe::new();
    prof.glue_ns += lap(&mut t);
    while cycle <= quantum {
        let span_end = (cycle.div_ceil(sample) * sample).min(quantum);
        let span = span_end - cycle + 1;
        let can_start = agg_n == 0
            && detector.is_stable()
            && consec_skips < cfg.interval.max_skip_samples.min(detector.credit_cap());
        let credited = interval_on
            && !global_stall
            && !gate.any_gated()
            && span == sample
            && span_end.is_multiple_of(sample)
            && truth_temps.iter().all(|&x| x < guard_limit)
            && (credit_j > 0 || can_start);
        if !credited && credit_j > 0 {
            credit_j = 0;
        }
        if credited {
            if credit_j == 0 {
                credit_super = detector.credit_next();
            }
            let extrapolated = credit_super.bresenham_slice(credit_j, agg);
            credit_j = (credit_j + 1) % agg;
            prof.phase_ns += lap(&mut t);
            cpu.fast_forward(&extrapolated);
            prof.fast_forward_ns += lap(&mut t);
            for b in &mut breakdowns {
                b.normal_cycles += span;
            }
            fast_forwarded += span;
        } else if global_stall {
            for b in &mut breakdowns {
                b.global_stall_cycles += span;
            }
        } else {
            let mut ticked = 0u64;
            while ticked < span {
                stage_countdown -= 1;
                if stage_countdown == 0 {
                    stage_countdown = STAGE_EVERY;
                    cpu.tick_timed(gate, &mut prof.stage_ns);
                    prof.stage_ticks += 1;
                } else {
                    cpu.tick(gate);
                }
                prof.ticks += 1;
                ticked += 1;
                if ticked == span {
                    break;
                }
                if !probe.should_probe() {
                    continue;
                }
                prof.idle_probes += 1;
                let bound = cpu.idle_bound(gate);
                let skip = bound
                    .map(|b| (b - 1 - cpu.cycle()).min(span - ticked))
                    .unwrap_or(0);
                if skip > 0 {
                    cpu.skip_idle_cycles(gate, skip);
                    ticked += skip;
                    prof.idle_hits += 1;
                    prof.idle_skipped_cycles += skip;
                    probe.hit();
                } else {
                    probe.miss();
                }
            }
            prof.tick_ns += lap(&mut t);
            for (i, b) in breakdowns.iter_mut().enumerate() {
                if gate.is_gated(ThreadId(i as u8)) {
                    b.sedated_cycles += span;
                } else {
                    b.normal_cycles += span;
                }
            }
        }
        cycle = span_end;
        sensor_all_credited &= credited;

        if !cycle.is_multiple_of(sample) {
            cycle += 1;
            continue;
        }

        // Monitor sampling instant.
        let counts = cpu.take_access_counts();
        prof.glue_ns += lap(&mut t);
        if interval_on {
            let mut psample = PhaseSample {
                committed: [0; hs_cpu::MAX_THREADS],
                counts,
            };
            for (i, last) in last_committed.iter_mut().enumerate() {
                let committed = cpu.thread_stats(ThreadId(i as u8)).committed;
                psample.committed[i] = committed - *last;
                *last = committed;
            }
            if credited {
                if credit_j == 0 {
                    consec_skips += 1;
                }
                refill_pending = true;
            } else if refill_pending {
                refill_pending = false;
            } else {
                agg_acc.merge(&psample);
                agg_n += 1;
                if agg_n == agg {
                    consec_skips = 0;
                    detector.observe(&agg_acc);
                    agg_acc = PhaseSample::zero();
                    agg_n = 0;
                }
            }
            prof.phase_ns += lap(&mut t);
        }
        let mut block_counts = BlockCounts::new();
        for (i, regfile_acc) in regfile_accesses.iter_mut().enumerate().take(nthreads) {
            let tid = ThreadId(i as u8);
            *regfile_acc += counts.get(tid, Resource::IntRegFile);
            for r in ALL_RESOURCES {
                let n = counts.get(tid, r);
                if n > 0 {
                    block_counts.add(i, resource_block(r), n);
                }
            }
        }
        power_accum.merge(&counts);
        cfg.faults.counters.apply(cycle, sample, &mut block_counts);
        prof.glue_ns += lap(&mut t);

        let sensor_fresh = cycle.is_multiple_of(sensor);
        if sensor_fresh {
            let power = model.power(&power_accum, sensor, cfg.freq_hz);
            power_accum.clear();
            prof.power_calls += 1;
            prof.power_ns += lap(&mut t);
            if sensor_all_credited {
                net.advance_closed_form(sensor_dt, &power);
                prof.closed_form_calls += 1;
                prof.closed_form_ns += lap(&mut t);
            } else {
                net.step(sensor_dt, &power);
                prof.step_ns += lap(&mut t);
            }
            let frame = sensors.read_at(cycle, &net);
            prof.sensor_ns += lap(&mut t);
            temps = frame.values;
            sensor_valid = frame.valid;
            let truth = net.block_temps();
            truth_temps = truth;
            for b in ALL_BLOCKS {
                let i = b.index();
                peak_temps[i] = peak_temps[i].max(truth[i]);
                let above = truth[i] >= emergency_k;
                if above && !above_emergency[i] {
                    emergencies += 1;
                }
                above_emergency[i] = above;
            }
            sensor_all_credited = true;
            prof.glue_ns += lap(&mut t);
        }

        let decision = policy.on_sample(&DtmInput {
            cycle,
            block_temps: &temps,
            sensor_valid: &sensor_valid,
            sensor_fresh,
            counts: &block_counts,
            global_stalled: global_stall,
        });
        let (prev_gate, prev_stall) = (gate, global_stall);
        global_stall = decision.global_stall;
        gate = decision.gate;
        prof.policy_calls += 1;
        let changed = gate != prev_gate || global_stall != prev_stall;
        prof.dtm_changes += u64::from(changed);
        prof.policy_ns += lap(&mut t);
        if interval_on && changed {
            detector.reset();
            consec_skips = 0;
            refill_pending = false;
            agg_acc = PhaseSample::zero();
            agg_n = 0;
            credit_j = 0;
            prof.phase_resets += 1;
            prof.phase_ns += lap(&mut t);
        }
        cycle += 1;
    }

    // ---- Collect (unattributed).
    let mut reports = Vec::new();
    reports.extend(policy.take_reports());
    let threads = (0..nthreads)
        .map(|i| {
            let tid = ThreadId(i as u8);
            let committed = cpu.thread_stats(tid).committed - committed_base[i];
            ThreadSummary {
                name: names[i].to_string(),
                committed,
                ipc: committed as f64 / quantum as f64,
                int_regfile_rate: regfile_accesses[i] as f64 / quantum as f64,
                breakdown: breakdowns[i],
                sedations: reports
                    .iter()
                    .filter(|r| r.kind == ReportKind::Sedated && r.thread == Some(tid))
                    .count() as u64,
            }
        })
        .collect();
    let stats = SimStats {
        cycles: quantum,
        threads,
        emergencies,
        peak_temps,
        reports,
        policy: policy.name().to_string(),
        fast_forwarded_cycles: fast_forwarded,
    };
    prof.wall_ns = start.elapsed().as_nanos() as u64;

    prof.credited_cycles = fast_forwarded;
    prof.substeps = net.substeps_taken() - substeps_base;
    for b in &breakdowns {
        prof.gated_thread_cycles += b.global_stall_cycles + b.sedated_cycles;
        prof.thread_cycles += b.total();
    }
    let mem = cpu.mem_stats();
    prof.mem_accesses = mem.l1i.accesses() + mem.l1d.accesses() + mem.l2.accesses();
    prof.l1d = (mem.l1d.accesses(), mem.l1d.misses());
    prof.l2 = (mem.l2.accesses(), mem.l2.misses());
    Ok((stats, prof))
}
