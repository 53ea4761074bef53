//! Exports a CSV temperature/activity trace of an attack episode —
//! the raw material behind the paper's narrative timeline (heat-up,
//! emergency, cool-down; or sedation engaging below the emergency).
//!
//! The trace is cycle-level, not quantum-level, so it bypasses the
//! campaign engine: the matrix is empty and the renderer runs one
//! `Simulator` per policy with a [`Csv`] observer on it, so the rows come
//! from the same loop as every other experiment (`--mode` included).
//! Lines starting with `#` separate the two sections. One row closes each
//! sensor interval; the quantum is cut to at most 4000 of them.

use hs_core::ReportKind;
use hs_cpu::{Resource, ThreadId};
use hs_sim::{
    Campaign, CampaignReport, HeatSink, Observer, PolicyKind, SampleView, SimConfig, Simulator,
};
use hs_thermal::Block;
use hs_workloads::{SpecWorkload, Workload};
use std::fmt::Write as _;
use std::io::{self, Write};

const VICTIM: ThreadId = ThreadId(0);
const ATTACKER: ThreadId = ThreadId(1);

pub(super) fn build(_cfg: &SimConfig) -> Campaign {
    Campaign::new("trace")
}

/// Formats one CSV row per sensor interval.
struct Csv {
    sensor: u64,
    /// Integer register file accesses per thread since the last row.
    regfile: [u64; 2],
    rows: String,
}

impl Observer for Csv {
    fn on_sample(&mut self, v: &SampleView<'_>) {
        for (n, tid) in self.regfile.iter_mut().zip([VICTIM, ATTACKER]) {
            *n += v.counts.get(tid, Resource::IntRegFile);
        }
        if !v.sensor_fresh {
            return;
        }
        let net = v.thermal.expect("the trace runs on the realistic sink");
        let _ = writeln!(
            self.rows,
            "{},{:.3},{:.3},{},{},{},{:.3},{:.3}",
            v.cycle,
            v.readings[Block::IntReg.index()],
            net.spreader_temp(),
            u8::from(v.global_stall),
            u8::from(v.gate.is_gated(VICTIM)),
            u8::from(v.gate.is_gated(ATTACKER)),
            self.regfile[0] as f64 / self.sensor as f64,
            self.regfile[1] as f64 / self.sensor as f64,
        );
        self.regfile = [0; 2];
    }
}

fn trace_one(cfg: &SimConfig, policy: PolicyKind, out: &mut dyn Write) -> io::Result<()> {
    let sensor = cfg.sensor_interval_cycles;
    let cfg = SimConfig {
        quantum_cycles: (cfg.quantum_cycles / sensor).min(4000) * sensor,
        ..*cfg
    };
    let mut sim = Simulator::try_new(cfg, policy, HeatSink::Realistic).map_err(io::Error::other)?;
    for w in [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2] {
        sim.attach(w).map_err(io::Error::other)?;
    }
    let mut csv = Csv {
        sensor,
        regfile: [0; 2],
        rows: String::new(),
    };
    let stats = sim
        .try_run_quantum_with(&mut csv)
        .map_err(io::Error::other)?;
    writeln!(out, "# policy: {}", stats.policy)?;
    writeln!(
        out,
        "cycle,t_intreg_k,t_spreader_k,stalled,victim_gated,attacker_gated,victim_rate,attacker_rate"
    )?;
    out.write_all(csv.rows.as_bytes())?;
    let emergencies = stats
        .reports
        .iter()
        .filter(|r| r.kind == ReportKind::Emergency)
        .count();
    writeln!(out, "# policy {}: {emergencies} emergencies", stats.policy)
}

pub(super) fn render(
    cfg: &SimConfig,
    _report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    trace_one(cfg, PolicyKind::StopAndGo, out)?;
    trace_one(cfg, PolicyKind::SelectiveSedation, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_sim::ExecMode;

    /// The rows of one policy section as `(stalled, victim_gated,
    /// attacker_gated)`.
    fn section(cfg: &SimConfig, policy: PolicyKind) -> Vec<(bool, bool, bool)> {
        let mut out = Vec::new();
        trace_one(cfg, policy, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<_> = text
            .lines()
            .skip(2)
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (f[3] == "1", f[4] == "1", f[5] == "1")
            })
            .collect();
        assert_eq!(
            rows.len() as u64,
            cfg.quantum_cycles / cfg.sensor_interval_cycles
        );
        rows
    }

    #[test]
    fn stop_and_go_stalls_and_sedation_gates_only_the_attacker() {
        for exec in [ExecMode::CycleAccurate, ExecMode::Interval] {
            // Thermal RC compressed 2000x: both policies engage inside a
            // 50 k-cycle quantum.
            let mut cfg = SimConfig::scaled(2000.0);
            cfg.warmup_cycles = 10_000;
            cfg.quantum_cycles = 50_000;
            cfg.exec = exec;

            let stop = section(&cfg, PolicyKind::StopAndGo);
            assert!(
                stop.iter().any(|r| r.0),
                "{exec:?}: stop-and-go never stalled"
            );

            let sed = section(&cfg, PolicyKind::SelectiveSedation);
            assert!(sed.iter().any(|r| r.2), "{exec:?}: attacker never gated");
            assert!(sed.iter().all(|r| !r.1), "{exec:?}: victim gated");
            assert!(sed.iter().all(|r| !r.0), "{exec:?}: sedation stalled");
        }
    }
}
