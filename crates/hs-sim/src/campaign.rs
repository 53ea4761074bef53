//! # Campaigns: deterministic multi-threaded experiment batches
//!
//! The paper's evaluation is a large matrix of runs — workload pairs × DTM
//! policies × heat sinks × thresholds (Figs. 3–6, Table 1). A [`Campaign`]
//! holds that matrix as declarative, labelled [`RunSpec`]s; [`Campaign::run`]
//! executes it on the one campaign worker pool ([`crate::supervise`]),
//! where **each run owns its own [`Simulator`](crate::Simulator)**, and
//! aggregates per-run [`SimStats`] into a [`CampaignReport`]. A run that
//! panics or fails is quarantined; the rest of the batch completes.
//!
//! ## Determinism contract
//!
//! Parallel execution is bit-identical to serial:
//!
//! * every run is identified by a **stable run id** — its index in
//!   declaration order — assigned before any worker starts;
//! * workers share nothing but an atomic cursor into the run list; a run's
//!   simulator, RNG streams and statistics are private to it;
//! * the report stores results **by run id, not completion order**;
//! * [`CampaignReport::to_json`] serializes only the deterministic payload
//!   (name, runs, quarantined runs). Wall-clock accounting lives next to it
//!   in the in-memory report and are deliberately **excluded** from the
//!   artifact, so `--jobs 1` and `--jobs N` write byte-identical files.
//!
//! The dedicated test `crates/hs-sim/tests/campaign.rs` enforces the
//! contract on a ≥16-run matrix.
//!
//! ```no_run
//! use hs_sim::campaign::CampaignMatrix;
//! use hs_sim::{HeatSink, PolicyKind, SimConfig};
//! use hs_workloads::{SpecWorkload, Workload};
//!
//! let campaign = CampaignMatrix::new(SimConfig::experiment())
//!     .workloads("gcc+v2", [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2])
//!     .workloads("mcf+v2", [Workload::Spec(SpecWorkload::Mcf), Workload::Variant2])
//!     .policy(PolicyKind::StopAndGo)
//!     .policy(PolicyKind::SelectiveSedation)
//!     .sink(HeatSink::Realistic)
//!     .build("demo")
//!     .expect("valid matrix");
//! let report = campaign.run(8).expect("runs");
//! println!("{}", report.to_json());
//! ```

use crate::config::{FaultConfig, HeatSink, PolicyKind, SimConfig};
use crate::error::SimError;
use crate::json::{Json, JsonError};
use crate::runner::RunSpec;
use crate::stats::SimStats;
use crate::supervise::{QuarantinedRun, Supervision};
use hs_workloads::Workload;
use std::time::Duration;

/// One labelled entry of a campaign's run matrix.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// Human-readable label, unique within the campaign.
    pub label: String,
    /// What to simulate.
    pub spec: RunSpec,
}

/// A declarative batch of labelled [`RunSpec`]s.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    name: String,
    runs: Vec<PlannedRun>,
}

impl Campaign {
    /// An empty campaign (renderer-only experiments use these).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            runs: Vec::new(),
        }
    }

    /// Appends a labelled run; its stable id is its insertion index.
    pub fn push(&mut self, label: impl Into<String>, spec: RunSpec) -> &mut Self {
        self.runs.push(PlannedRun {
            label: label.into(),
            spec,
        });
        self
    }

    /// The campaign name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The planned runs, in run-id order.
    #[must_use]
    pub fn runs(&self) -> &[PlannedRun] {
        &self.runs
    }

    /// Number of planned runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the matrix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Validates every planned run without executing anything, and rejects
    /// duplicate labels. Labels key [`CampaignReport::stats`] lookup and
    /// journal resume identity, so a duplicate would silently shadow one
    /// run behind another — it is caught here, before anything executes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateLabel`] naming both offending runs, or
    /// [`SimError::InvalidRun`] naming the first (lowest-id) invalid run.
    pub fn preflight(&self) -> Result<(), SimError> {
        for (second, run) in self.runs.iter().enumerate() {
            if let Some(first) = self.runs[..second]
                .iter()
                .position(|r| r.label == run.label)
            {
                return Err(SimError::DuplicateLabel {
                    label: run.label.clone(),
                    first,
                    second,
                });
            }
        }
        for (id, run) in self.runs.iter().enumerate() {
            run.spec.preflight().map_err(|e| SimError::InvalidRun {
                id,
                label: run.label.clone(),
                cause: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// Executes the whole matrix on `jobs` worker threads with the
    /// default [`Supervision`]: no deadlines, no journal. Shorthand for
    /// [`Campaign::run_supervised`], whose docs describe the pool; a run
    /// that panics or fails is quarantined in
    /// [`CampaignReport::quarantined`], not propagated.
    ///
    /// # Errors
    ///
    /// Returns the preflight's [`SimError`] if the matrix is invalid
    /// (nothing has executed at that point).
    pub fn run(&self, jobs: usize) -> Result<CampaignReport, SimError> {
        self.run_supervised(jobs, &Supervision::default())
    }
}

/// Cartesian-product builder over workloads × policies × sinks × configs ×
/// faults.
///
/// Axes left empty fall back to a single default: the base config, no
/// faults, the realistic sink. The product is emitted in a fixed
/// lexicographic order (workload set, then policy, then sink, then config,
/// then faults), which fixes every run's stable id.
#[derive(Debug, Clone)]
pub struct CampaignMatrix {
    base: SimConfig,
    workload_sets: Vec<(String, Vec<Workload>)>,
    policies: Vec<PolicyKind>,
    sinks: Vec<HeatSink>,
    configs: Vec<(String, SimConfig)>,
    faults: Vec<(String, FaultConfig)>,
}

impl CampaignMatrix {
    /// A matrix over `base` with all axes empty.
    #[must_use]
    pub fn new(base: SimConfig) -> Self {
        CampaignMatrix {
            base,
            workload_sets: Vec::new(),
            policies: Vec::new(),
            sinks: Vec::new(),
            configs: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds a labelled workload set (one co-schedule).
    #[must_use]
    pub fn workloads(
        mut self,
        label: impl Into<String>,
        ws: impl IntoIterator<Item = Workload>,
    ) -> Self {
        self.workload_sets
            .push((label.into(), ws.into_iter().collect()));
        self
    }

    /// Adds a policy to the policy axis.
    #[must_use]
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policies.push(p);
        self
    }

    /// Adds a sink to the package axis.
    #[must_use]
    pub fn sink(mut self, s: HeatSink) -> Self {
        self.sinks.push(s);
        self
    }

    /// Adds a labelled configuration variant (e.g. a scale or threshold
    /// point) to the config axis.
    #[must_use]
    pub fn config(mut self, label: impl Into<String>, cfg: SimConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Adds a labelled fault plan to the fault axis.
    #[must_use]
    pub fn faults(mut self, label: impl Into<String>, f: FaultConfig) -> Self {
        self.faults.push((label.into(), f));
        self
    }

    /// Expands the product into a validated [`Campaign`].
    ///
    /// Labels are `workloads/policy/sink[/config][/faults]` — the config and
    /// fault segments appear only when that axis has more than one point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if no workload set was added, or
    /// [`SimError::InvalidRun`] naming the first invalid combination.
    pub fn build(self, name: impl Into<String>) -> Result<Campaign, SimError> {
        if self.workload_sets.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        let policies = if self.policies.is_empty() {
            vec![PolicyKind::SelectiveSedation]
        } else {
            self.policies
        };
        let sinks = if self.sinks.is_empty() {
            vec![HeatSink::Realistic]
        } else {
            self.sinks
        };
        let configs = if self.configs.is_empty() {
            vec![(String::new(), self.base)]
        } else {
            self.configs
        };
        let faults = if self.faults.is_empty() {
            vec![(String::new(), FaultConfig::none())]
        } else {
            self.faults
        };
        let tag_configs = configs.len() > 1;
        let tag_faults = faults.len() > 1;

        let mut campaign = Campaign::new(name);
        for (wl, ws) in &self.workload_sets {
            for &policy in &policies {
                for &sink in &sinks {
                    for (cl, cfg) in &configs {
                        for (fl, fault) in &faults {
                            let mut label = format!("{wl}/{}/{}", policy.name(), sink.name());
                            if tag_configs {
                                label.push('/');
                                label.push_str(cl);
                            }
                            if tag_faults {
                                label.push('/');
                                label.push_str(fl);
                            }
                            let spec = RunSpec::builder()
                                .workloads(ws.iter().copied())
                                .policy(policy)
                                .sink(sink)
                                .config(*cfg)
                                .faults(*fault)
                                .build()
                                .map_err(|e| SimError::InvalidRun {
                                    id: campaign.len(),
                                    label: label.clone(),
                                    cause: Box::new(e),
                                })?;
                            campaign.push(label, spec);
                        }
                    }
                }
            }
        }
        Ok(campaign)
    }
}

/// One executed run: identity plus results.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Stable id (declaration index).
    pub id: usize,
    /// The label it was declared with.
    pub label: String,
    /// Workload names, in attach order.
    pub workloads: Vec<String>,
    /// Policy name.
    pub policy: String,
    /// Sink name.
    pub sink: String,
    /// The run's statistics.
    pub stats: SimStats,
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Per-run records, ordered by run id.
    pub runs: Vec<RunRecord>,
    /// Runs that did not complete, ordered by run id.
    pub quarantined: Vec<QuarantinedRun>,
    /// Wall-clock time of the batch (accounting only — not serialized).
    pub wall: Duration,
}

impl CampaignReport {
    /// The stats of the run with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no run has that label — a renderer asking for a label its
    /// own matrix never declared is a programming error.
    #[must_use]
    pub fn stats(&self, label: &str) -> &SimStats {
        &self
            .runs
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("campaign `{}` has no run labelled `{label}`", self.name))
            .stats
    }

    /// Serializes the deterministic payload (name + runs, ordered by run
    /// id). Wall-clock accounting is excluded by contract: the same matrix
    /// must serialize byte-identically whatever `jobs` was.
    #[must_use]
    pub fn to_json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".into(), Json::U64(r.id as u64)),
                    ("label".into(), Json::Str(r.label.clone())),
                    (
                        "workloads".into(),
                        Json::Arr(r.workloads.iter().map(|w| Json::Str(w.clone())).collect()),
                    ),
                    ("policy".into(), Json::Str(r.policy.clone())),
                    ("sink".into(), Json::Str(r.sink.clone())),
                    ("stats".into(), r.stats.to_json()),
                ])
            })
            .collect();
        let mut fields = vec![
            ("campaign".into(), Json::Str(self.name.clone())),
            ("format".into(), Json::U64(1)),
            ("runs".into(), Json::Arr(runs)),
        ];
        // Only serialized when non-empty: campaigns where nothing failed
        // stay byte-identical to the pre-supervision format.
        if !self.quarantined.is_empty() {
            fields.push((
                "quarantined".into(),
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(QuarantinedRun::to_json)
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields).to_string_pretty()
    }

    /// Reconstructs a report from [`CampaignReport::to_json`] output.
    /// The non-serialized wall-clock time comes back zeroed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed text or a payload that is not
    /// a version-1 campaign report.
    pub fn from_json(text: &str) -> Result<CampaignReport, JsonError> {
        let fail = |what: &str| JsonError {
            offset: 0,
            message: format!("CampaignReport: {what}"),
        };
        let v = Json::parse(text)?;
        let name = v
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string `campaign`"))?
            .to_string();
        if v.get("format").and_then(Json::as_u64) != Some(1) {
            return Err(fail("unsupported `format` (expected 1)"));
        }
        let mut runs = Vec::new();
        for r in v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing array `runs`"))?
        {
            let str_of = |key: &str| {
                r.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| fail(&format!("run missing string `{key}`")))
            };
            let workloads = r
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("run missing array `workloads`"))?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fail("non-string workload name"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            runs.push(RunRecord {
                id: r
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| fail("run missing integer `id`"))? as usize,
                label: str_of("label")?,
                workloads,
                policy: str_of("policy")?,
                sink: str_of("sink")?,
                stats: SimStats::from_json(
                    r.get("stats").ok_or_else(|| fail("run missing `stats`"))?,
                )?,
            });
        }
        let mut quarantined = Vec::new();
        if let Some(qs) = v.get("quarantined").and_then(Json::as_arr) {
            for q in qs {
                quarantined.push(
                    QuarantinedRun::from_json(q)
                        .map_err(|what| fail(&format!("bad quarantine record: {what}")))?,
                );
            }
        }
        Ok(CampaignReport {
            name,
            runs,
            quarantined,
            wall: Duration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workloads::SpecWorkload;

    /// Tiny runs: determinism logic, not thermal fidelity.
    fn tiny() -> SimConfig {
        let mut c = SimConfig::scaled(2000.0);
        c.warmup_cycles = 20_000;
        c.quantum_cycles = 30_000;
        c
    }

    #[test]
    fn matrix_expands_in_fixed_order_with_stable_ids() {
        let campaign = CampaignMatrix::new(tiny())
            .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
            .workloads("v2", [Workload::Variant2])
            .policy(PolicyKind::StopAndGo)
            .policy(PolicyKind::SelectiveSedation)
            .sink(HeatSink::Ideal)
            .sink(HeatSink::Realistic)
            .build("order")
            .expect("valid matrix");
        assert_eq!(campaign.len(), 8);
        let labels: Vec<&str> = campaign.runs().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels[0], "gcc/stop-and-go/ideal");
        assert_eq!(labels[1], "gcc/stop-and-go/realistic");
        assert_eq!(labels[2], "gcc/sedation/ideal");
        assert_eq!(labels[7], "v2/sedation/realistic");
    }

    #[test]
    fn matrix_rejects_runaway_combination() {
        let err = CampaignMatrix::new(tiny())
            .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
            .policy(PolicyKind::None)
            .sink(HeatSink::Realistic)
            .build("bad")
            .unwrap_err();
        let SimError::InvalidRun { id, label, cause } = err else {
            panic!("expected InvalidRun, got {err}");
        };
        assert_eq!(id, 0);
        assert!(label.contains("none"));
        assert_eq!(*cause, SimError::RunawayCombination);
    }

    #[test]
    fn matrix_without_workloads_is_rejected() {
        let err = CampaignMatrix::new(tiny()).build("empty").unwrap_err();
        assert_eq!(err, SimError::NoWorkloads);
    }

    #[test]
    fn empty_campaign_runs_to_an_empty_report() {
        let report = Campaign::new("empty").run(4).expect("empty batch is fine");
        assert!(report.runs.is_empty());
        let back = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back.name, "empty");
        assert!(back.runs.is_empty());
    }

    #[test]
    fn report_lookup_by_label() {
        let mut campaign = Campaign::new("lookup");
        campaign.push(
            "solo",
            RunSpec::solo(
                Workload::Variant1,
                PolicyKind::StopAndGo,
                HeatSink::Ideal,
                tiny(),
            ),
        );
        let report = campaign.run(1).expect("runs");
        assert_eq!(report.stats("solo").threads.len(), 1);
    }
}
