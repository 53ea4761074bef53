//! The quantum simulator: pipeline + power + thermal + DTM in one loop.
//!
//! [`Simulator::try_run_quantum_with`] is that loop. It alternates two
//! steps until the quantum ends: a *span step* runs the cycles up to the
//! next monitor sampling instant under the DTM state in force, and a
//! *sample step* feeds the monitors, steps the thermal model when a
//! sensor interval closes, asks the policy for the next DTM state and
//! hands the result to an [`Observer`].

use crate::admission::{screen, AdmissionMode};
use crate::config::{ExecMode, HeatSink, PolicyKind, SimConfig};
use crate::error::SimError;
use crate::stats::{SimStats, ThreadBreakdown, ThreadSummary};
use hs_analyze::Verdict;
use hs_core::{
    BlockCounts, DtmInput, FaultTolerantDtm, GlobalDvfs, NoDtm, OsReport, RateCap, ReportKind,
    SelectiveSedation, StopAndGo, ThermalPolicy, ALL_SENSORS_VALID,
};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{
    AccessMatrix, Cpu, PhaseDetector, PhaseDetectorConfig, PhaseSample, Resource, ThreadId,
    ALL_RESOURCES, MAX_THREADS,
};
use hs_power::{calibration, resource_block, PowerModel};
use hs_thermal::{SensorBank, ThermalNetwork, ALL_BLOCKS, NUM_BLOCKS};
use hs_workloads::Workload;

/// What an [`Observer`] sees at one monitor sampling instant, after the
/// policy has decided.
#[derive(Debug, Clone, Copy)]
pub struct SampleView<'a> {
    /// The sampling instant's cycle within the measured quantum.
    pub cycle: u64,
    /// Whether the thermal model was stepped and the sensors re-read at
    /// this instant (the sample closes a sensor interval).
    pub sensor_fresh: bool,
    /// True per-thread access counts since the previous sample, before
    /// any counter fault corrupts what the monitors see.
    pub counts: &'a AccessMatrix,
    /// The sensor readings the policy saw.
    pub readings: &'a [f64; NUM_BLOCKS],
    /// The thermal model; `None` under the ideal heat sink.
    pub thermal: Option<&'a ThermalNetwork>,
    /// The pipeline-wide stall in force until the next sample.
    pub global_stall: bool,
    /// The fetch gates in force until the next sample, admission gates
    /// included.
    pub gate: FetchGate,
}

/// A hook into the quantum loop of [`Simulator::try_run_quantum_with`].
///
/// Observers only watch: nothing they do feeds back into the run, so an
/// observed run's [`SimStats`] equal an unobserved one's. `()` is the
/// no-op observer [`Simulator::try_run_quantum`] uses.
pub trait Observer {
    /// Called once per monitor sampling instant, in cycle order.
    fn on_sample(&mut self, view: &SampleView<'_>);
}

impl Observer for () {
    fn on_sample(&mut self, _view: &SampleView<'_>) {}
}

/// An execution-driven simulation of one OS quantum on the SMT processor.
///
/// Construct with [`Simulator::new`], attach one workload per hardware
/// context with [`Simulator::attach`], then call [`Simulator::run_quantum`].
pub struct Simulator {
    cfg: SimConfig,
    cpu: Cpu,
    model: PowerModel,
    /// `None` models the ideal heat sink (infinite heat removal).
    thermal: Option<ThermalNetwork>,
    sensors: SensorBank,
    policy: Box<dyn ThermalPolicy>,
    names: Vec<&'static str>,
    /// Fetch gates imposed at admission (sticky for the whole quantum).
    admission_gate: FetchGate,
    /// Cycle-0 reports filed by the admission screen.
    admission_reports: Vec<OsReport>,
}

/// The tick driver, with an adaptive throttle for [`Cpu::idle_bound`]
/// probes.
///
/// A failed probe backs off exponentially (up to 8 ticks between probes) so
/// dense phases pay a fraction of the probe cost; a successful skip resets
/// to probing on the very next tick, so stall chains are followed closely.
/// Only a heuristic over *which* provably idle cycles get fast-forwarded —
/// architectural state and statistics are identical either way.
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

    /// Ticks `cpu` for `cycles` cycles under the constant `gate`,
    /// fast-forwarding through provably idle stall windows instead of
    /// ticking them one by one.
    fn tick(&mut self, cpu: &mut Cpu, gate: FetchGate, cycles: u64) {
        let mut done = 0u64;
        while done < cycles {
            cpu.tick(gate);
            done += 1;
            if done == cycles {
                break;
            }
            if self.wait > 0 {
                self.wait -= 1;
                continue;
            }
            let skip = cpu
                .idle_bound(gate)
                .map(|b| (b - 1 - cpu.cycle()).min(cycles - done))
                .unwrap_or(0);
            if skip > 0 {
                cpu.skip_idle_cycles(gate, skip);
                done += skip;
                self.backoff = 1;
            } else {
                self.wait = self.backoff;
                self.backoff = (self.backoff * 2).min(Self::MAX_BACKOFF);
            }
        }
    }
}

/// Interval-mode state (DESIGN.md §3d): the phase detector and the
/// bookkeeping that decides which spans are credited instead of ticked.
struct IntervalEngine {
    detector: PhaseDetector,
    /// Every true block temperature must stay below this for a span to be
    /// credited.
    guard_limit: f64,
    max_skip_samples: u64,
    /// True block temperatures as of the last sensor step, for the
    /// thermal guard (sensor *readings* may be faulted or noisy; the
    /// guard must consult physics).
    truth_temps: [f64; NUM_BLOCKS],
    last_committed: Vec<u64>,
    consec_skips: u64,
    fast_forwarded: u64,
    /// Set while the first measured sample after a credit run is still
    /// pending: that sample rides the post-squash pipeline refill and is
    /// excluded from phase training.
    refill_pending: bool,
    /// Aggregation (`IntervalConfig::aggregate_samples`): the detector
    /// observes and credits in units of `agg` consecutive samples, so a
    /// loop longer than one sample period can still present a stationary
    /// profile. `agg_acc`/`agg_n` build the next measured aggregate;
    /// `credit_super`/`credit_j` spread a credited aggregate back over its
    /// constituent sample periods.
    agg: u64,
    agg_acc: PhaseSample,
    agg_n: u64,
    credit_super: PhaseSample,
    credit_j: u64,
    /// Whether every span since the last sensor step was credited; only
    /// then is the power history exactly phase-constant and the thermal
    /// state advanced in closed form instead of stepped.
    sensor_all_credited: bool,
}

impl IntervalEngine {
    /// The engine for `cfg`, or `None` when the run is cycle-accurate.
    /// Fault schedules demand cycle-level fidelity around their firing
    /// cycles; rather than track proximity, any configured fault keeps the
    /// whole run cycle-accurate.
    fn new(cfg: &SimConfig, truth_temps: [f64; NUM_BLOCKS], committed: Vec<u64>) -> Option<Self> {
        if cfg.exec != ExecMode::Interval || !cfg.faults.is_empty() {
            return None;
        }
        Some(Self {
            detector: PhaseDetector::new(PhaseDetectorConfig {
                confirm_samples: cfg.interval.confirm_samples,
                rel_tol: cfg.interval.rel_tol,
                abs_slack: cfg.interval.abs_slack,
            }),
            guard_limit: cfg.sedation.thresholds.normal_k - cfg.interval.guard_k,
            max_skip_samples: cfg.interval.max_skip_samples,
            truth_temps,
            last_committed: committed,
            consec_skips: 0,
            fast_forwarded: 0,
            refill_pending: false,
            agg: cfg.interval.aggregate_samples,
            agg_acc: PhaseSample::zero(),
            agg_n: 0,
            credit_super: PhaseSample::zero(),
            credit_j: 0,
            sensor_all_credited: true,
        })
    }

    /// Decides whether the next span of `span` cycles is credited, and
    /// returns the activity to credit if so.
    ///
    /// `free_running` says the span is a full sample period with no gates
    /// and no stall. On top of that the phase must be confirmed stable
    /// with skip allowance left, and every block cold enough that no
    /// temperature-driven DTM decision is near. A new aggregate credit may
    /// only start on an aggregate boundary (no verification measurement in
    /// flight); once started, its remaining slices keep flowing unless
    /// something breaks in, which abandons them.
    fn credit(&mut self, free_running: bool, span: u64) -> Option<PhaseSample> {
        let can_start = self.agg_n == 0
            && self.detector.is_stable()
            && self.consec_skips < self.max_skip_samples.min(self.detector.credit_cap());
        if !free_running
            || !self.truth_temps.iter().all(|&t| t < self.guard_limit)
            || (self.credit_j == 0 && !can_start)
        {
            self.credit_j = 0;
            self.sensor_all_credited = false;
            return None;
        }
        if self.credit_j == 0 {
            self.credit_super = self.detector.credit_next();
        }
        let slice = self.credit_super.bresenham_slice(self.credit_j, self.agg);
        self.credit_j = (self.credit_j + 1) % self.agg;
        self.fast_forwarded += span;
        Some(slice)
    }

    /// Phase bookkeeping at a sampling instant: measured samples train the
    /// detector; credited samples must not (they would confirm themselves)
    /// and instead consume skip allowance.
    fn observe(&mut self, cpu: &Cpu, counts: AccessMatrix, credited: bool) {
        let mut sample = PhaseSample {
            committed: [0; MAX_THREADS],
            counts,
        };
        for (t, last) in self.last_committed.iter_mut().enumerate() {
            let committed = cpu.thread_stats(ThreadId(t as u8)).committed;
            sample.committed[t] = committed - *last;
            *last = committed;
        }
        if credited {
            if self.credit_j == 0 {
                // The slice just applied completed its aggregate.
                self.consec_skips += 1;
            }
            self.refill_pending = true;
        } else if self.refill_pending {
            // First measured sample after a credit run: the pipeline is
            // still refilling from the squash, so this sample is a timing
            // artifact — neither trained into the profile nor allowed to
            // reset the skip budget (the *next* measured sample is the
            // real verify).
            self.refill_pending = false;
        } else {
            self.agg_acc.merge(&sample);
            self.agg_n += 1;
            if self.agg_n == self.agg {
                self.consec_skips = 0;
                self.detector.observe(&self.agg_acc);
                self.agg_acc = PhaseSample::zero();
                self.agg_n = 0;
            }
        }
    }

    /// Any DTM state change invalidates the phase profile: activity
    /// measured under one gating regime says nothing about the next (e.g.
    /// a sedated thread waking re-enters cycle level until a new phase is
    /// confirmed).
    fn reset(&mut self) {
        self.detector.reset();
        self.consec_skips = 0;
        self.refill_pending = false;
        self.agg_acc = PhaseSample::zero();
        self.agg_n = 0;
        self.credit_j = 0;
    }
}

/// The state one measured quantum carries from sample to sample.
struct Quantum {
    /// DTM state in force: it only changes at sampling instants.
    gate: FetchGate,
    global_stall: bool,
    probe: IdleProbe,
    /// True activity since the last sensor step, for the power model.
    power_accum: AccessMatrix,
    breakdowns: Vec<ThreadBreakdown>,
    regfile_accesses: Vec<u64>,
    /// Sensor readings and validity as of the last sensor step: what the
    /// policy sees.
    readings: [f64; NUM_BLOCKS],
    sensor_valid: [bool; NUM_BLOCKS],
    /// Physical truth, for the peak and emergency statistics.
    peak_temps: [f64; NUM_BLOCKS],
    above_emergency: [bool; NUM_BLOCKS],
    emergencies: u64,
    /// `None` runs every span at cycle level.
    interval: Option<IntervalEngine>,
}

impl Simulator {
    /// Creates a simulator with the requested DTM policy and package.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the policy/package
    /// combination is rejected (see [`Simulator::try_new`]).
    #[must_use]
    pub fn new(cfg: SimConfig, policy: PolicyKind, sink: HeatSink) -> Self {
        match Self::try_new(cfg, policy, sink) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a simulator with the requested DTM policy and package,
    /// reporting configuration problems instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails
    /// [`SimConfig::try_validate`], and [`SimError::RunawayCombination`]
    /// for [`PolicyKind::None`] on [`HeatSink::Realistic`] — with no DTM
    /// and a finite heat-removal rate nothing bounds the temperature, so
    /// the run would silently produce a meaningless thermal runaway.
    pub fn try_new(cfg: SimConfig, policy: PolicyKind, sink: HeatSink) -> Result<Self, SimError> {
        cfg.try_validate()?;
        if policy == PolicyKind::None && sink == HeatSink::Realistic {
            return Err(SimError::RunawayCombination);
        }
        let cpu = Cpu::new(cfg.cpu, cfg.mem);
        let model = PowerModel::new(cfg.energy);
        let thermal = match sink {
            HeatSink::Ideal => None,
            HeatSink::Realistic => Some(ThermalNetwork::new(&cfg.thermal)),
        };
        let policy: Box<dyn ThermalPolicy> = match policy {
            PolicyKind::None => Box::new(NoDtm::new()),
            PolicyKind::StopAndGo => Box::new(StopAndGo::new(cfg.sedation.thresholds)),
            PolicyKind::GlobalDvfs => Box::new(GlobalDvfs::new(cfg.sedation.thresholds, 2)),
            PolicyKind::RateCap => Box::new(RateCap::new(cfg.rate_cap, cfg.cpu.contexts as usize)),
            PolicyKind::SelectiveSedation => Box::new(SelectiveSedation::new(
                cfg.sedation,
                cfg.cpu.contexts as usize,
            )),
            PolicyKind::FaultTolerant => Box::new(FaultTolerantDtm::new(
                cfg.failsafe(),
                cfg.cpu.contexts as usize,
            )),
        };
        Ok(Simulator {
            cfg,
            cpu,
            model,
            thermal,
            sensors: SensorBank::with_faults(cfg.sensors, cfg.faults.sensors),
            policy,
            names: Vec::new(),
            admission_gate: FetchGate::open(),
            admission_reports: Vec::new(),
        })
    }

    /// Attaches a workload to the next free hardware context.
    ///
    /// When [`SimConfig::admission`] is not [`AdmissionMode::Off`], the
    /// workload's program is first screened by the static analyzer
    /// (`hs-analyze`); a heat-stroke verdict triggers the configured mode's
    /// action (warn / sedate from cycle 0 / reject) and a suspicious
    /// verdict files a warning report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyWorkloads`] when all `cpu.contexts`
    /// contexts are occupied, and [`SimError::AdmissionRejected`] when
    /// screening under [`AdmissionMode::Reject`] classifies the program as
    /// an attack; either way the workload is not attached.
    pub fn attach(&mut self, workload: Workload) -> Result<ThreadId, SimError> {
        if self.cpu.num_threads() as u32 >= self.cfg.cpu.contexts {
            return Err(SimError::TooManyWorkloads {
                requested: self.cpu.num_threads() + 1,
                contexts: self.cfg.cpu.contexts,
            });
        }
        let program = workload.program_with(&self.cfg.mem, self.cfg.time_scale);
        let verdict = if self.cfg.admission == AdmissionMode::Off {
            None
        } else {
            let analysis = screen(&program, &self.cfg);
            if analysis.verdict == Verdict::HeatStroke
                && self.cfg.admission == AdmissionMode::Reject
            {
                return Err(SimError::AdmissionRejected {
                    workload: workload.name().to_string(),
                    est_temp_k: analysis.est_temp_k,
                });
            }
            Some(analysis)
        };
        self.names.push(workload.name());
        let tid = self.cpu.attach_thread(program);
        if let Some(analysis) = verdict {
            let report = |kind| OsReport {
                cycle: 0,
                thread: Some(tid),
                block: analysis.hottest_block,
                kind,
                weighted_avg: Some(analysis.int_regfile_rate),
                temperature_k: analysis.est_temp_k,
            };
            match analysis.verdict {
                Verdict::HeatStroke if self.cfg.admission == AdmissionMode::Sedate => {
                    self.admission_gate.set(tid, true);
                    self.admission_reports
                        .push(report(ReportKind::AdmissionSedated));
                }
                Verdict::HeatStroke | Verdict::Suspicious => {
                    self.admission_reports
                        .push(report(ReportKind::AdmissionFlagged));
                }
                Verdict::Benign => {}
            }
        }
        Ok(tid)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Routes issue through the retained reference scheduler instead of the
    /// deferred-drain one. Differential-test hook only: both paths must
    /// produce bit-identical statistics.
    #[doc(hidden)]
    pub fn set_reference_issue(&mut self, on: bool) {
        self.cpu.set_reference_issue(on);
    }

    /// Runs the warm-up phase plus one measured quantum and returns its
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if no workload has been attached.
    pub fn run_quantum(&mut self) -> SimStats {
        match self.try_run_quantum() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the warm-up phase plus one measured quantum.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if nothing has been attached.
    pub fn try_run_quantum(&mut self) -> Result<SimStats, SimError> {
        self.try_run_quantum_with(&mut ())
    }

    /// Runs the warm-up phase plus one measured quantum, handing
    /// `observer` every monitor sampling instant of the quantum.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if nothing has been attached.
    pub fn try_run_quantum_with<O: Observer>(
        &mut self,
        observer: &mut O,
    ) -> Result<SimStats, SimError> {
        if self.names.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        // Warm-up: caches and predictors, no DTM, no thermal. Admission-
        // sedated threads stay gated even here: they were never supposed
        // to execute a cycle.
        IdleProbe::new().tick(&mut self.cpu, self.admission_gate, self.cfg.warmup_cycles);
        let _ = self.cpu.take_access_counts();
        let committed_base: Vec<u64> = (0..self.cpu.num_threads())
            .map(|t| self.cpu.thread_stats(ThreadId(t as u8)).committed)
            .collect();
        let mut q = self.start_quantum(&committed_base);

        // The loop runs in spans of constant DTM state: `gate` and
        // `global_stall` can only change at sampling instants, so each span
        // stretches from the cycle after one sampling instant to the next
        // (or to the quantum end).
        let quantum = self.cfg.quantum_cycles;
        let sample = self.cfg.sedation.sample_period_cycles;
        let mut cycle = 1u64;
        while cycle <= quantum {
            let span_end = (cycle.div_ceil(sample) * sample).min(quantum);
            let at_sample = span_end.is_multiple_of(sample);
            let credited = self.span_step(&mut q, span_end - cycle + 1, at_sample);
            if at_sample {
                self.sample_step(&mut q, span_end, credited, observer);
            }
            cycle = span_end + 1;
        }
        Ok(self.collect(q, &committed_base))
    }

    /// Pre-warms the thermal model and sets up the measured quantum.
    fn start_quantum(&mut self, committed_base: &[u64]) -> Quantum {
        let nthreads = self.cpu.num_threads();
        let mut temps = [self.cfg.thermal.ambient_k; NUM_BLOCKS];
        if let Some(net) = &mut self.thermal {
            // A slightly-below-normal operating point: warm package, but
            // safely under the DTM thresholds so the first trigger happens
            // only after the monitors have real history.
            let nominal = calibration::chip_power(&self.model, 2.5, 1.0, self.cfg.freq_hz);
            net.initialize_steady_state(&nominal);
            temps = net.block_temps();
        }
        Quantum {
            gate: self.admission_gate,
            global_stall: false,
            probe: IdleProbe::new(),
            power_accum: AccessMatrix::new(),
            breakdowns: vec![ThreadBreakdown::default(); nthreads],
            regfile_accesses: vec![0; nthreads],
            readings: temps,
            sensor_valid: ALL_SENSORS_VALID,
            peak_temps: temps,
            above_emergency: [false; NUM_BLOCKS],
            emergencies: 0,
            interval: IntervalEngine::new(&self.cfg, temps, committed_base.to_vec()),
        }
    }

    /// The span step: runs `span` cycles under the DTM state in force and
    /// returns whether the interval engine credited them. Stalled spans are
    /// accounted in bulk, credited spans fast-forward the pipeline by the
    /// stable phase's activity, and the rest go through the tick driver.
    fn span_step(&mut self, q: &mut Quantum, span: u64, full_sample: bool) -> bool {
        let free_running = full_sample && !q.global_stall && !q.gate.any_gated();
        let credit = q
            .interval
            .as_mut()
            .and_then(|e| e.credit(free_running, span));
        if let Some(extrapolated) = &credit {
            self.cpu.fast_forward(extrapolated);
        } else if !q.global_stall {
            q.probe.tick(&mut self.cpu, q.gate, span);
        }
        for (t, b) in q.breakdowns.iter_mut().enumerate() {
            if q.global_stall {
                b.global_stall_cycles += span;
            } else if q.gate.is_gated(ThreadId(t as u8)) {
                b.sedated_cycles += span;
            } else {
                b.normal_cycles += span;
            }
        }
        credit.is_some()
    }

    /// The sample step at a monitor sampling instant: feeds the monitors,
    /// closes the sensor interval when one ends, applies the policy's
    /// decision and shows the result to `observer`.
    fn sample_step<O: Observer>(
        &mut self,
        q: &mut Quantum,
        cycle: u64,
        credited: bool,
        observer: &mut O,
    ) {
        let counts = self.cpu.take_access_counts();
        if let Some(engine) = &mut q.interval {
            engine.observe(&self.cpu, counts, credited);
        }
        let mut block_counts = BlockCounts::new();
        for (t, regfile_acc) in q.regfile_accesses.iter_mut().enumerate() {
            let tid = ThreadId(t as u8);
            *regfile_acc += counts.get(tid, Resource::IntRegFile);
            for r in ALL_RESOURCES {
                let n = counts.get(tid, r);
                if n > 0 {
                    block_counts.add(t, resource_block(r), n);
                }
            }
        }
        q.power_accum.merge(&counts);
        // Counter faults corrupt what the monitors see; the power model
        // integrates the *true* activity (heat does not care what a broken
        // counter reports).
        self.cfg.faults.counters.apply(
            cycle,
            self.cfg.sedation.sample_period_cycles,
            &mut block_counts,
        );

        let sensor_fresh = cycle.is_multiple_of(self.cfg.sensor_interval_cycles);
        if sensor_fresh {
            self.sensor_step(q, cycle);
        }

        let decision = self.policy.on_sample(&DtmInput {
            cycle,
            block_temps: &q.readings,
            sensor_valid: &q.sensor_valid,
            sensor_fresh,
            counts: &block_counts,
            global_stalled: q.global_stall,
        });
        let (prev_gate, prev_stall) = (q.gate, q.global_stall);
        q.global_stall = decision.global_stall;
        q.gate = decision.gate;
        // Admission sedation is sticky: the DTM may open its own gates as
        // blocks cool, but a thread sedated at admission never runs.
        for t in 0..self.cpu.num_threads() {
            let tid = ThreadId(t as u8);
            if self.admission_gate.is_gated(tid) {
                q.gate.set(tid, true);
            }
        }
        if q.gate != prev_gate || q.global_stall != prev_stall {
            if let Some(engine) = &mut q.interval {
                engine.reset();
            }
        }
        observer.on_sample(&SampleView {
            cycle,
            sensor_fresh,
            counts: &counts,
            readings: &q.readings,
            thermal: self.thermal.as_ref(),
            global_stall: q.global_stall,
            gate: q.gate,
        });
    }

    /// Closes a sensor interval: steps the thermal model over it, reads
    /// the sensors, and tracks true peaks and emergency crossings.
    fn sensor_step(&mut self, q: &mut Quantum, cycle: u64) {
        // Whether every span of the closing interval was credited; the
        // next interval starts over.
        let all_credited = q
            .interval
            .as_mut()
            .is_some_and(|e| std::mem::replace(&mut e.sensor_all_credited, true));
        let Some(net) = &mut self.thermal else {
            q.power_accum.clear();
            return;
        };
        let sensor = self.cfg.sensor_interval_cycles;
        let sensor_dt = sensor as f64 / self.cfg.freq_hz;
        let power = self.model.power(&q.power_accum, sensor, self.cfg.freq_hz);
        q.power_accum.clear();
        if all_credited {
            // Every span of this interval was extrapolated from the stable
            // phase profile, so the power was phase-constant by
            // construction: advance the RC response in closed form (O(1)
            // in the interval).
            net.advance_closed_form(sensor_dt, &power);
        } else {
            net.step(sensor_dt, &power);
        }
        // Policies see sensor *readings*; the emergency count and peaks
        // track physical truth.
        let frame = self.sensors.read_at(cycle, net);
        q.readings = frame.values;
        q.sensor_valid = frame.valid;
        let truth = net.block_temps();
        if let Some(engine) = &mut q.interval {
            engine.truth_temps = truth;
        }
        let emergency_k = self.cfg.sedation.thresholds.emergency_k;
        for b in ALL_BLOCKS {
            let i = b.index();
            q.peak_temps[i] = q.peak_temps[i].max(truth[i]);
            let above = truth[i] >= emergency_k;
            if above && !q.above_emergency[i] {
                q.emergencies += 1;
            }
            q.above_emergency[i] = above;
        }
    }

    /// Assembles the quantum's statistics.
    fn collect(&mut self, q: Quantum, committed_base: &[u64]) -> SimStats {
        let quantum = self.cfg.quantum_cycles;
        // Admission reports happened "before cycle 0": they lead the list.
        let mut reports = self.admission_reports.clone();
        reports.extend(self.policy.take_reports());
        let threads = (0..self.cpu.num_threads())
            .map(|t| {
                let tid = ThreadId(t as u8);
                let committed = self.cpu.thread_stats(tid).committed - committed_base[t];
                ThreadSummary {
                    name: self.names[t].to_string(),
                    committed,
                    ipc: committed as f64 / quantum as f64,
                    int_regfile_rate: q.regfile_accesses[t] as f64 / quantum as f64,
                    breakdown: q.breakdowns[t],
                    sedations: reports
                        .iter()
                        .filter(|r| r.kind == ReportKind::Sedated && r.thread == Some(tid))
                        .count() as u64,
                }
            })
            .collect();
        SimStats {
            cycles: quantum,
            threads,
            emergencies: q.emergencies,
            peak_temps: q.peak_temps,
            reports,
            policy: self.policy.name().to_string(),
            fast_forwarded_cycles: q.interval.map_or(0, |e| e.fast_forwarded),
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("policy", &self.policy.name())
            .field("threads", &self.names)
            .field("quantum_cycles", &self.cfg.quantum_cycles)
            .finish_non_exhaustive()
    }
}
