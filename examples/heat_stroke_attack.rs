//! Anatomy of the attack: trace the integer register file's temperature
//! while the Figure-2 attacker runs next to a victim under stop-and-go,
//! and print the heat/cool episodes.
//!
//! ```sh
//! cargo run --release --example heat_stroke_attack
//! ```

use heatstroke::prelude::*;
use heatstroke::sim::{Observer, SampleView};

/// Records `(cycle, int-reg reading, stalled)` at every sensor step.
#[derive(Default)]
struct Trace(Vec<(u64, f64, bool)>);

impl Observer for Trace {
    fn on_sample(&mut self, v: &SampleView<'_>) {
        if v.sensor_fresh {
            let t_reg = v.readings[Block::IntReg.index()];
            self.0.push((v.cycle, t_reg, v.global_stall));
        }
    }
}

fn main() {
    // 4000 sensor intervals: long enough for the attacker to drive the
    // register file into emergency and for stop-and-go to cool it again.
    let mut cfg = SimConfig::scaled(200.0);
    cfg.quantum_cycles = 4000 * cfg.sensor_interval_cycles;
    let mut sim = Simulator::new(cfg, PolicyKind::StopAndGo, HeatSink::Realistic);
    for w in [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2] {
        sim.attach(w)
            .expect("two contexts, admission screening off");
    }
    let mut trace = Trace::default();
    let stats = sim
        .try_run_quantum_with(&mut trace)
        .expect("workloads are attached");
    let trace = trace.0;

    println!("cycle        int-reg temp   state");
    for &(cycle, t_reg, stalled) in trace.iter().skip(59).step_by(60) {
        let bar = "#".repeat(((t_reg - 344.0).max(0.0) * 3.0) as usize);
        println!(
            "{:>9}    {:7.2} K     {} {}",
            cycle,
            t_reg,
            if stalled { "STALL" } else { "run  " },
            bar
        );
    }

    // Episode statistics.
    let episodes = trace.windows(2).filter(|w| !w[0].2 && w[1].2).count();
    let stall_frac = trace.iter().filter(|(_, _, s)| *s).count() as f64 / trace.len() as f64;
    let peak = trace.iter().map(|(_, t, _)| *t).fold(f64::MIN, f64::max);
    println!("\nheat-stroke episodes : {episodes}");
    println!(
        "peak temperature     : {peak:.2} K (emergency {:.1} K)",
        cfg.sedation.thresholds.emergency_k
    );
    println!("fraction stalled     : {:.0}%", 100.0 * stall_frac);
    println!(
        "victim committed     : {} instructions",
        stats.thread(0).committed
    );
    println!(
        "attacker committed   : {} instructions",
        stats.thread(1).committed
    );
}
