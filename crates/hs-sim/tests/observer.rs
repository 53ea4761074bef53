//! The observer contract of `Simulator::try_run_quantum_with`: one call per
//! monitor sampling instant, in cycle order, freshness exactly at sensor
//! boundaries, and no feedback into the run.

use hs_sim::{
    ExecMode, HeatSink, Observer, PolicyKind, SampleView, SimConfig, SimStats, Simulator,
};
use hs_workloads::{SpecWorkload, Workload, SPEC_SUITE};

/// `(cycle, sensor_fresh, global_stall, thermal offered)` of every call.
#[derive(Default)]
struct Recorder(Vec<(u64, bool, bool, bool)>);

impl Observer for Recorder {
    fn on_sample(&mut self, v: &SampleView<'_>) {
        self.0
            .push((v.cycle, v.sensor_fresh, v.global_stall, v.thermal.is_some()));
    }
}

/// Thermal RC compressed 2000x so DTM engages inside a 50 k-cycle quantum
/// (the shape `interval_differential.rs` uses).
fn tiny_cfg(exec: ExecMode) -> SimConfig {
    let mut cfg = SimConfig::scaled(2000.0);
    cfg.warmup_cycles = 10_000;
    cfg.quantum_cycles = 50_000;
    cfg.exec = exec;
    cfg
}

fn simulator(cfg: SimConfig, policy: PolicyKind, sink: HeatSink, ws: &[Workload]) -> Simulator {
    let mut sim = Simulator::try_new(cfg, policy, sink).expect("valid config");
    for w in ws {
        sim.attach(*w).expect("attach");
    }
    sim
}

/// Runs the scenario observed and unobserved, checks the contract, and
/// returns the observed run's statistics and samples.
fn check(
    cfg: SimConfig,
    policy: PolicyKind,
    sink: HeatSink,
    ws: &[Workload],
) -> (SimStats, Recorder) {
    let mut rec = Recorder::default();
    let observed = simulator(cfg, policy, sink, ws)
        .try_run_quantum_with(&mut rec)
        .expect("run");
    let plain = simulator(cfg, policy, sink, ws).run_quantum();
    assert_eq!(
        observed.to_json().to_string_compact(),
        plain.to_json().to_string_compact(),
        "observing a run changed its statistics"
    );

    let (sample, sensor) = (
        cfg.sedation.sample_period_cycles,
        cfg.sensor_interval_cycles,
    );
    assert!(sensor > sample, "several samples per sensor interval");
    assert_eq!(rec.0.len() as u64, cfg.quantum_cycles / sample);
    for (i, &(cycle, fresh, _, thermal)) in rec.0.iter().enumerate() {
        assert_eq!(cycle, (i as u64 + 1) * sample, "sample {i}");
        assert_eq!(fresh, cycle % sensor == 0, "sample {i} at cycle {cycle}");
        assert_eq!(thermal, sink == HeatSink::Realistic, "sample {i}");
    }
    (observed, rec)
}

#[test]
fn stop_and_go_stall_is_observed_in_both_modes() {
    let attack = [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2];
    for exec in [ExecMode::CycleAccurate, ExecMode::Interval] {
        let (stats, rec) = check(
            tiny_cfg(exec),
            PolicyKind::StopAndGo,
            HeatSink::Realistic,
            &attack,
        );
        // Each stalled sample but the last opens a span of one sample
        // period that the breakdown books as stalled.
        let opening = &rec.0[..rec.0.len() - 1];
        let stalled = opening.iter().filter(|s| s.2).count() as u64;
        assert!(stalled > 0, "{exec:?}: no stalled sample observed");
        assert_eq!(
            stats.thread(0).breakdown.global_stall_cycles,
            stalled * tiny_cfg(exec).sedation.sample_period_cycles,
            "{exec:?}"
        );
    }
}

#[test]
fn credited_samples_are_observed_too() {
    let (stats, _) = check(
        tiny_cfg(ExecMode::Interval),
        PolicyKind::None,
        HeatSink::Ideal,
        &[Workload::Spec(SPEC_SUITE[0])],
    );
    assert!(stats.fast_forwarded_cycles > 0, "nothing was credited");
}
