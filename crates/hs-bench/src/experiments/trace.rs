//! Exports a CSV temperature/activity trace of an attack episode —
//! the raw material behind the paper's narrative timeline (heat-up,
//! emergency, cool-down; or sedation engaging below the emergency).
//!
//! The trace is cycle-level, not quantum-level, so it bypasses the
//! campaign engine: the matrix is empty and the renderer streams the CSV
//! directly, once per policy. Lines starting with `#` separate the two
//! sections. Like `Simulator`, it hands the policy every monitor sample at
//! that sample's own cycle, and steps the thermal network before the
//! sample that closes a sensor interval, the only one marked fresh.

use hs_core::{BlockCounts, DtmInput, SelectiveSedation, StopAndGo, ThermalPolicy};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{Cpu, Resource, ThreadId, ALL_RESOURCES};
use hs_power::{calibration, resource_block, PowerModel};
use hs_sim::{Campaign, CampaignReport, SimConfig};
use hs_thermal::{Block, ThermalNetwork};
use hs_workloads::{SpecWorkload, Workload};
use std::io::{self, Write};

pub(super) fn build(_cfg: &SimConfig) -> Campaign {
    Campaign::new("trace")
}

fn trace_one(
    cfg: &SimConfig,
    policy: &mut dyn ThermalPolicy,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut cpu = Cpu::new(cfg.cpu, cfg.mem);
    let victim = cpu.attach_thread(Workload::Spec(SpecWorkload::Gcc).program(cfg.time_scale));
    let attacker = cpu.attach_thread(Workload::Variant2.program(cfg.time_scale));
    for _ in 0..cfg.warmup_cycles {
        cpu.tick(FetchGate::open());
    }
    let _ = cpu.take_access_counts();

    let model = PowerModel::new(cfg.energy);
    let mut net = ThermalNetwork::new(&cfg.thermal);
    net.initialize_steady_state(&calibration::chip_power(&model, 2.5, 1.0, cfg.freq_hz));

    let sensor = cfg.sensor_interval_cycles;
    let sample = cfg.sedation.sample_period_cycles;
    let dt = sensor as f64 / cfg.freq_hz;
    let mut gate = FetchGate::open();
    let mut stalled = false;
    let mut power_accum = hs_cpu::AccessMatrix::new();
    let mut temps = net.block_temps();

    writeln!(out, "# policy: {}", policy.name())?;
    writeln!(
        out,
        "cycle,t_intreg_k,t_spreader_k,stalled,victim_gated,attacker_gated,victim_rate,attacker_rate"
    )?;
    let steps = (cfg.quantum_cycles / sensor).min(4000);
    let samples = sensor / sample;
    for step in 1..=steps {
        let mut block_counts = BlockCounts::new();
        let mut rates = [0u64; 2];
        for k in 1..=samples {
            if !stalled {
                for _ in 0..sample {
                    cpu.tick(gate);
                }
            }
            let counts = cpu.take_access_counts();
            rates[0] += counts.get(victim, Resource::IntRegFile);
            rates[1] += counts.get(attacker, Resource::IntRegFile);
            for t in 0..2usize {
                for r in ALL_RESOURCES {
                    let n = counts.get(ThreadId(t as u8), r);
                    if n > 0 {
                        block_counts.add(t, resource_block(r), n);
                    }
                }
            }
            power_accum.merge(&counts);
            let sensor_fresh = k == samples;
            if sensor_fresh {
                let power = model.power(&power_accum, sensor, cfg.freq_hz);
                power_accum.clear();
                net.step(dt, &power);
                temps = net.block_temps();
            }
            let d = policy.on_sample(&DtmInput {
                sensor_valid: &hs_core::policy::ALL_SENSORS_VALID,
                sensor_fresh,
                cycle: (step - 1) * sensor + k * sample,
                block_temps: &temps,
                counts: &block_counts,
                global_stalled: stalled,
            });
            stalled = d.global_stall;
            gate = d.gate;
            block_counts.clear();
        }
        writeln!(
            out,
            "{},{:.3},{:.3},{},{},{},{:.3},{:.3}",
            step * sensor,
            temps[Block::IntReg.index()],
            net.spreader_temp(),
            u8::from(stalled),
            u8::from(gate.is_gated(victim)),
            u8::from(gate.is_gated(attacker)),
            rates[0] as f64 / sensor as f64,
            rates[1] as f64 / sensor as f64,
        )?;
    }
    writeln!(
        out,
        "# policy {}: {} emergencies",
        policy.name(),
        policy.emergencies()
    )
}

pub(super) fn render(
    cfg: &SimConfig,
    _report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    trace_one(cfg, &mut StopAndGo::new(cfg.sedation.thresholds), out)?;
    trace_one(cfg, &mut SelectiveSedation::new(cfg.sedation, 2), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_core::DtmDecision;

    /// Records the `(cycle, sensor_fresh)` of every sample it is handed.
    #[derive(Default)]
    struct Recorder(Vec<(u64, bool)>);

    impl ThermalPolicy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
            self.0.push((input.cycle, input.sensor_fresh));
            DtmDecision::default()
        }
    }

    #[test]
    fn samples_carry_their_own_cycle_and_freshness_marks_sensor_boundaries() {
        let mut cfg = SimConfig::scaled(2000.0);
        cfg.warmup_cycles = 1_000;
        cfg.quantum_cycles = 5 * cfg.sensor_interval_cycles;
        let (sample, sensor) = (
            cfg.sedation.sample_period_cycles,
            cfg.sensor_interval_cycles,
        );
        assert!(sensor > sample, "several samples per sensor interval");

        let mut recorder = Recorder::default();
        trace_one(&cfg, &mut recorder, &mut Vec::new()).unwrap();
        assert_eq!(recorder.0.len() as u64, 5 * sensor / sample);
        for (i, &(cycle, fresh)) in recorder.0.iter().enumerate() {
            assert_eq!(cycle, (i as u64 + 1) * sample, "sample {i}");
            assert_eq!(fresh, cycle % sensor == 0, "sample {i} at cycle {cycle}");
        }
    }
}
