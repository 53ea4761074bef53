//! Integration tests for the campaign supervision layer: determinism under
//! chaos, panic isolation, deadlines, quarantine, and journal + resume.

use hs_sim::campaign::CampaignMatrix;
use hs_sim::{
    AdmissionMode, Campaign, ChaosPlan, HeatSink, PolicyKind, RunSpec, SimConfig, SimError,
    Supervision,
};
use hs_workloads::{SpecWorkload, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// Tiny runs: supervision logic, not thermal fidelity.
fn tiny() -> SimConfig {
    let mut c = SimConfig::scaled(2000.0);
    c.warmup_cycles = 20_000;
    c.quantum_cycles = 30_000;
    c
}

/// A 6-run matrix (3 workload sets × 2 policies).
fn matrix(name: &str) -> Campaign {
    CampaignMatrix::new(tiny())
        .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
        .workloads("v1", [Workload::Variant1])
        .workloads("v2", [Workload::Variant2])
        .policy(PolicyKind::StopAndGo)
        .policy(PolicyKind::SelectiveSedation)
        .sink(HeatSink::Ideal)
        .build(name)
        .expect("valid matrix")
}

/// A scratch path unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hs-sup-{}-{test}.journal.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn supervision_without_faults_matches_the_plain_engine() {
    let campaign = matrix("clean");
    let plain = campaign.run(2).expect("plain run");
    let supervised = campaign
        .run_supervised(2, &Supervision::default())
        .expect("supervised run");
    assert_eq!(
        plain.to_json(),
        supervised.to_json(),
        "supervision off-path must be invisible"
    );
    assert!(supervised.quarantined.is_empty());
}

#[test]
fn chaos_is_deterministic_across_worker_counts() {
    let campaign = matrix("chaos-det");
    let sup = Supervision {
        chaos: Some(ChaosPlan::default().permanent([1, 3])),
        ..Supervision::default()
    };
    let reports: Vec<String> = [1, 4, 64]
        .iter()
        .map(|&jobs| {
            campaign
                .run_supervised(jobs, &sup)
                .expect("supervised")
                .to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "jobs 1 vs 4");
    assert_eq!(reports[0], reports[2], "jobs 1 vs 64");

    let report = campaign.run_supervised(4, &sup).expect("supervised");
    let ids: Vec<usize> = report.quarantined.iter().map(|q| q.id).collect();
    assert_eq!(ids, vec![1, 3], "quarantine set == planned permanent set");
    for q in &report.quarantined {
        assert_eq!(q.kind, "panicked");
        assert!(
            q.detail.contains("chaos"),
            "detail names the injected fault: {}",
            q.detail
        );
    }
    assert_eq!(report.runs.len(), 4, "the other four runs complete");
}

#[test]
fn panic_isolation_keeps_the_pool_alive() {
    let campaign = matrix("panics");
    let sup = Supervision {
        chaos: Some(ChaosPlan::default().permanent([0])),
        ..Supervision::default()
    };
    let report = campaign
        .run_supervised(3, &sup)
        .expect("pool survives the panic");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].id, 0);
    assert_eq!(report.runs.len(), 5);
}

#[test]
fn a_panic_is_permanent_and_quarantined_on_its_one_attempt() {
    let campaign = matrix("panic-permanent");
    let path = scratch("panic-permanent");
    let chaotic = Supervision {
        chaos: Some(ChaosPlan::default().permanent([4])),
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let report = campaign.run_supervised(2, &chaotic).expect("supervised");
    assert_eq!(report.runs.len(), 5);
    let [q] = report.quarantined.as_slice() else {
        panic!("one quarantined run, got {:?}", report.quarantined);
    };
    assert_eq!((q.id, q.kind.as_str()), (4, "panicked"));

    // One attempt, one journal record: nothing re-executed the panic.
    let journal = std::fs::read_to_string(&path).expect("journal");
    let records = journal.lines().filter(|l| l.starts_with("{\"id\":4,"));
    assert_eq!(records.count(), 1, "{journal}");

    // Permanent means final: resume replays the quarantine even once the
    // chaos that caused it is gone.
    let clean = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let resumed = campaign.resume(2, &clean).expect("resume");
    assert_eq!(resumed.to_json(), report.to_json());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_run_that_fails_after_preflight_is_quarantined_as_failed() {
    // Under admission rejection variant2 passes preflight and is refused
    // at attach: `Campaign::run` quarantines it and completes the rest.
    let mut cfg = tiny();
    cfg.admission = AdmissionMode::Reject;
    let campaign = CampaignMatrix::new(cfg)
        .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
        .workloads("v2", [Workload::Variant2])
        .policy(PolicyKind::StopAndGo)
        .sink(HeatSink::Ideal)
        .build("screen")
        .expect("valid matrix");
    campaign.preflight().expect("both runs pass preflight");
    let report = campaign
        .run(2)
        .expect("a failed run does not abort the batch");
    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.runs[0].label, "gcc/stop-and-go/ideal");
    let [q] = report.quarantined.as_slice() else {
        panic!("one quarantined run, got {:?}", report.quarantined);
    };
    assert_eq!((q.id, q.label.as_str()), (1, "v2/stop-and-go/ideal"));
    assert_eq!(q.kind, "failed");
    assert!(
        q.detail
            .starts_with("admission screening rejected `variant2`"),
        "detail is the AdmissionRejected text: {}",
        q.detail
    );
}

#[test]
fn cycle_budget_refuses_busters_before_they_execute() {
    let cfg = tiny();
    let budget = cfg.warmup_cycles + cfg.quantum_cycles; // fits exactly
    let mut buster_cfg = cfg;
    buster_cfg.quantum_cycles *= 2;

    let mut campaign = Campaign::new("budget");
    campaign.push(
        "ok",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        ),
    );
    campaign.push(
        "buster",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        )
        .with_config(buster_cfg),
    );
    let sup = Supervision {
        cycle_budget: Some(budget),
        ..Supervision::default()
    };
    let report = campaign.run_supervised(2, &sup).expect("supervised");
    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.label, "buster");
    assert_eq!(q.kind, "timed-out:cycles");
}

#[test]
fn wall_deadline_times_out_runaways_and_resume_re_executes_them() {
    let campaign = matrix("wall");
    let path = scratch("wall");
    let sup = Supervision {
        wall_deadline: Some(Duration::ZERO), // every run overruns
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let report = campaign.run_supervised(2, &sup).expect("supervised");
    assert!(report.runs.is_empty());
    assert_eq!(report.quarantined.len(), 6);
    for q in &report.quarantined {
        assert_eq!(q.kind, "timed-out:wall");
    }

    // A wall-clock overrun is the one transient outcome: resume without the
    // deadline re-executes every such run instead of replaying it.
    let resumed = campaign
        .resume(
            2,
            &Supervision {
                journal: Some(path.clone()),
                ..Supervision::default()
            },
        )
        .expect("resume");
    let plain = campaign.run(2).expect("plain run");
    assert_eq!(resumed.to_json(), plain.to_json());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn abort_then_resume_is_byte_identical_to_an_uninterrupted_run() {
    let campaign = matrix("resume");
    let sup = Supervision {
        chaos: Some(ChaosPlan::default().permanent([2])),
        ..Supervision::default()
    };

    // The reference: uninterrupted, journaled.
    let full_path = scratch("resume-full");
    let full = campaign
        .run_supervised(
            1,
            &Supervision {
                journal: Some(full_path.clone()),
                ..sup.clone()
            },
        )
        .expect("uninterrupted run");

    // The crash: abort after 3 journaled outcomes.
    let path = scratch("resume-crash");
    let err = campaign
        .run_supervised(
            1,
            &Supervision {
                journal: Some(path.clone()),
                abort_after: Some(3),
                ..sup.clone()
            },
        )
        .expect_err("abort hook fires");
    assert!(matches!(err, SimError::Interrupted { .. }), "got {err}");
    let journal = std::fs::read_to_string(&path).expect("journal exists");
    assert_eq!(
        journal.lines().count(),
        4,
        "header + 3 outcomes:\n{journal}"
    );

    // The recovery: resume replays the journal and finishes the rest.
    let resumed = campaign
        .resume(
            2,
            &Supervision {
                journal: Some(path.clone()),
                ..sup.clone()
            },
        )
        .expect("resume");
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume must be invisible in the artifact"
    );

    // Resuming an already-complete journal executes nothing and still agrees.
    let again = campaign
        .resume(
            2,
            &Supervision {
                journal: Some(path.clone()),
                ..sup
            },
        )
        .expect("no-op resume");
    assert_eq!(again.to_json(), full.to_json());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&full_path);
}

#[test]
fn a_torn_final_journal_line_is_tolerated() {
    let campaign = matrix("torn");
    let path = scratch("torn");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let full = campaign.run_supervised(1, &sup).expect("run");
    // Simulate a crash mid-append: truncate the last line in half.
    let text = std::fs::read_to_string(&path).expect("journal");
    let whole = text.trim_end();
    let torn = &whole[..whole.len() - whole.lines().last().unwrap().len() / 2];
    std::fs::write(&path, torn).expect("write torn journal");

    let resumed = campaign.resume(1, &sup).expect("torn line tolerated");
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "the torn run re-executes"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journals_from_a_different_campaign_are_rejected() {
    let path = scratch("mismatch");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    matrix("owner").run_supervised(1, &sup).expect("run");

    // Same shape, different name.
    let err = matrix("thief").resume(1, &sup).expect_err("name mismatch");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    assert!(err.to_string().contains("owner"), "{err}");

    // Same name, different planned count.
    let mut shrunk = Campaign::new("owner");
    shrunk.push(
        "solo",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        ),
    );
    let err = shrunk.resume(1, &sup).expect_err("planned-count mismatch");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_file_corruption_is_an_error_not_a_panic() {
    let campaign = matrix("corrupt");
    let path = scratch("corrupt");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    campaign.run_supervised(1, &sup).expect("run");
    let text = std::fs::read_to_string(&path).expect("journal");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[2] = "{\"id\": garbage";
    std::fs::write(&path, lines.join("\n")).expect("corrupt journal");

    let err = campaign
        .resume(1, &sup)
        .expect_err("mid-file corruption detected");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    assert!(err.to_string().contains("line 3"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_labels_are_rejected_at_preflight() {
    let mut campaign = Campaign::new("dup");
    let spec = RunSpec::solo(
        Workload::Variant1,
        PolicyKind::StopAndGo,
        HeatSink::Ideal,
        tiny(),
    );
    campaign.push("same", spec.clone());
    campaign.push("other", spec.clone());
    campaign.push("same", spec);
    let err = campaign.preflight().expect_err("duplicate label");
    let SimError::DuplicateLabel {
        label,
        first,
        second,
    } = err
    else {
        panic!("expected DuplicateLabel, got {err}");
    };
    assert_eq!((label.as_str(), first, second), ("same", 0, 2));
    // Both engines refuse it the same way.
    assert!(matches!(
        campaign.run(1),
        Err(SimError::DuplicateLabel { .. })
    ));
    assert!(matches!(
        campaign.run_supervised(1, &Supervision::default()),
        Err(SimError::DuplicateLabel { .. })
    ));
}
