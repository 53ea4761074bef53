//! The traced replica must run the same program as the simulator: for
//! every run of every workload, at reduced size, its statistics equal
//! `Simulator::run_quantum`'s byte for byte — including the faulted
//! failsafe run and both execution modes.

use hs_sim::{ExecMode, RunSpec};
use perfbench::trace::{self, Profile};
use perfbench::workloads::{self, Size, DEFAULT_SEED, NAMES, SECOND_SEED};

fn assert_replica_matches(context: &str, spec: &RunSpec) -> Profile {
    let expected = spec.try_run().expect("benchmark runs are valid");
    let (got, profile) = trace::run_traced(spec).expect("replica runs");
    assert_eq!(
        got.to_json().to_string_compact(),
        expected.to_json().to_string_compact(),
        "{context}: replica statistics differ from Simulator::run_quantum"
    );
    let cfg = spec.config();
    assert_eq!(profile.cycles, cfg.warmup_cycles + cfg.quantum_cycles);
    assert_eq!(profile.credited_cycles, expected.fast_forwarded_cycles);
    profile
}

#[test]
fn replica_reproduces_every_run_of_every_workload() {
    for name in NAMES {
        let sc = workloads::generate(name, DEFAULT_SEED, Size::Reduced).expect("known workload");
        for (label, spec) in &sc.runs {
            assert_replica_matches(&format!("{name}/{label}"), spec);
            if spec.config().exec == ExecMode::Interval {
                let twin = workloads::cycle_accurate(spec);
                assert_replica_matches(&format!("{name}/{label} cycle-accurate"), &twin);
            }
        }
    }
}

#[test]
fn reduced_workloads_exercise_the_layers_they_stand_for() {
    let profile = |name: &str| {
        let sc = workloads::generate(name, SECOND_SEED, Size::Reduced).expect("known workload");
        let mut total = Profile::default();
        for (label, spec) in &sc.runs {
            total.add(&assert_replica_matches(&format!("{name}/{label}"), spec));
        }
        total
    };
    let steady = profile("steady_interval");
    assert!(steady.credited_cycles > 0, "steady_interval credits cycles");
    assert!(
        steady.closed_form_calls > 0,
        "steady_interval advances in closed form"
    );
    let attack = profile("attack_interval");
    assert!(attack.dtm_changes > 0, "attack_interval drives the DTM");
    let campaign = profile("campaign_cycle");
    assert_eq!(
        campaign.credited_cycles, 0,
        "campaign_cycle is cycle-accurate"
    );
    assert_eq!(campaign.runs, 7);
}

#[test]
fn generation_is_a_function_of_the_seed() {
    for name in NAMES {
        let a = workloads::generate(name, DEFAULT_SEED, Size::Full).expect("known workload");
        let b = workloads::generate(name, DEFAULT_SEED, Size::Full).expect("known workload");
        let c = workloads::generate(name, SECOND_SEED, Size::Full).expect("known workload");
        let cfgs = |s: &workloads::Scenario| -> Vec<_> {
            s.runs.iter().map(|(_, r)| *r.config()).collect()
        };
        assert_eq!(cfgs(&a), cfgs(&b), "{name}: same seed, same inputs");
        assert_ne!(cfgs(&a), cfgs(&c), "{name}: the seed reaches the inputs");
    }
    assert!(workloads::generate("no_such_workload", 1, Size::Full).is_none());
}
