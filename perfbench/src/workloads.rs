//! The benchmark's workloads, generated from the benchmark seed.
//!
//! The seed sets the sensor-noise seed and the fault-plan seed of every
//! run; the simulator only ever receives the generated configuration.
//! `Size::Full` is what the benchmark measures; `Size::Reduced` keeps the
//! same shape (workloads, policies, execution modes, faults) at a
//! fraction of the cycles, for the benchmark's own tests.

use hs_sim::{Campaign, ExecMode, FaultConfig, HeatSink, PolicyKind, RunSpec, SimConfig};
use hs_thermal::{Block, SensorConfig, SensorFault, SensorFaultKind, SensorFaultPlan};
use hs_workloads::{SpecWorkload, Workload};

/// Seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed known to pass every output check, for re-checking a claim
/// on a seed it was not tuned on.
pub const SECOND_SEED: u64 = 2;

/// The benchmark's workloads, by their `BENCHMARK.json` names.
pub const NAMES: [&str; 3] = ["attack_interval", "steady_interval", "campaign_cycle"];

/// How large to make a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// The same shape at a test-sized cycle count.
    Reduced,
}

/// One generated workload: labelled runs, executed either as single
/// simulations (`campaign == false`, exactly one run) or as a supervised
/// campaign.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload name.
    pub name: &'static str,
    /// Labelled runs in declaration order.
    pub runs: Vec<(String, RunSpec)>,
    /// Whether the runs go through the campaign engine.
    pub campaign: bool,
}

impl Scenario {
    /// The runs as a campaign matrix (declaration order fixes run ids).
    #[must_use]
    pub fn to_campaign(&self) -> Campaign {
        let mut c = Campaign::new(format!("perfbench-{}", self.name));
        for (label, spec) in &self.runs {
            c.push(label.clone(), spec.clone());
        }
        c
    }

    /// Simulated cycles of one pass, warm-up included.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.runs
            .iter()
            .map(|(_, s)| s.config().warmup_cycles + s.config().quantum_cycles)
            .sum()
    }
}

/// SplitMix64 finaliser: decorrelates the derived seeds from each other
/// and from small benchmark seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sensor_seed(seed: u64) -> u64 {
    mix(seed ^ 0x5E45_0000)
}

fn fault_seed(seed: u64) -> u64 {
    mix(seed ^ 0xFA17_0000)
}

/// The harness configuration (time scale 50, the scale of the committed
/// `results/*.txt`), or a 2000x-compressed one small enough for tests.
fn harness(size: Size) -> SimConfig {
    match size {
        Size::Full => SimConfig::scaled(50.0),
        Size::Reduced => SimConfig {
            warmup_cycles: 10_000,
            quantum_cycles: 50_000,
            ..SimConfig::scaled(2000.0)
        },
    }
}

fn spec(workloads: &[Workload], policy: PolicyKind, cfg: SimConfig) -> RunSpec {
    RunSpec::builder()
        .workloads(workloads.iter().copied())
        .policy(policy)
        .sink(HeatSink::Realistic)
        .config(cfg)
        .build()
        .expect("benchmark runs are valid by construction")
}

/// Generates workload `name` from `seed`, or `None` for an unknown name.
#[must_use]
pub fn generate(name: &str, seed: u64, size: Size) -> Option<Scenario> {
    let gcc = Workload::Spec(SpecWorkload::Gcc);
    let (name, runs, campaign) = match name {
        "attack_interval" => {
            let cfg = SimConfig {
                exec: ExecMode::Interval,
                sensors: SensorConfig {
                    seed: sensor_seed(seed),
                    ..SensorConfig::realistic()
                },
                ..harness(size)
            };
            let run = spec(
                &[gcc, Workload::Variant1],
                PolicyKind::SelectiveSedation,
                cfg,
            );
            (
                "attack_interval",
                vec![("pair:gcc+variant1".into(), run)],
                false,
            )
        }
        "steady_interval" => {
            let mut cfg = SimConfig {
                exec: ExecMode::Interval,
                sensors: SensorConfig {
                    seed: sensor_seed(seed),
                    ..SensorConfig::realistic()
                },
                ..SimConfig::paper()
            };
            // A long quantum at the paper's cadence; 64-sample aggregation
            // lets applu's macro-loop present a stationary profile.
            (cfg.warmup_cycles, cfg.quantum_cycles) = match size {
                Size::Full => (3_000_000, 50_000_000),
                Size::Reduced => (50_000, 5_000_000),
            };
            cfg.interval.aggregate_samples = 64;
            let run = spec(
                &[Workload::Spec(SpecWorkload::Applu)],
                PolicyKind::SelectiveSedation,
                cfg,
            );
            ("steady_interval", vec![("solo:applu".into(), run)], false)
        }
        "campaign_cycle" => {
            let base = SimConfig {
                sensors: SensorConfig {
                    seed: sensor_seed(seed),
                    ..SensorConfig::default()
                },
                ..harness(size)
            };
            let pairs = [
                (SpecWorkload::Gcc, Workload::Variant1),
                (SpecWorkload::Mcf, Workload::Variant2),
                (SpecWorkload::Gzip, Workload::Variant3),
            ];
            let mut runs = Vec::new();
            for (s, _) in pairs {
                let w = Workload::Spec(s);
                runs.push((
                    format!("solo:{}", s.name()),
                    spec(&[w], PolicyKind::SelectiveSedation, base),
                ));
            }
            for (s, attack) in pairs {
                runs.push((
                    format!("pair:{}+{}", s.name(), attack.name()),
                    spec(
                        &[Workload::Spec(s), attack],
                        PolicyKind::SelectiveSedation,
                        base,
                    ),
                ));
            }
            // The failsafe path: the attacked block's sensor sticks at a
            // safe-looking 345 K shortly after the quantum starts.
            let faulted = SimConfig {
                faults: FaultConfig {
                    sensors: SensorFaultPlan::seeded(fault_seed(seed)).with(SensorFault {
                        block: Block::IntReg,
                        kind: SensorFaultKind::StuckAt { value_k: 345.0 },
                        from_cycle: 8 * base.sensor_interval_cycles,
                        until_cycle: u64::MAX,
                    }),
                    ..FaultConfig::none()
                },
                ..base
            };
            runs.push((
                "failsafe:gcc+variant2".into(),
                spec(
                    &[gcc, Workload::Variant2],
                    PolicyKind::FaultTolerant,
                    faulted,
                ),
            ));
            ("campaign_cycle", runs, true)
        }
        _ => return None,
    };
    Some(Scenario {
        name,
        runs,
        campaign,
    })
}

/// The cycle-accurate twin of an interval-mode run: the reference the
/// interval workloads' accuracy contract is checked against.
#[must_use]
pub fn cycle_accurate(spec: &RunSpec) -> RunSpec {
    spec.clone().with_config(SimConfig {
        exec: ExecMode::CycleAccurate,
        ..*spec.config()
    })
}
