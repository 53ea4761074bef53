//! # Campaign supervision: panic isolation, deadlines, quarantine, chaos
//!
//! [`Campaign::run`](crate::Campaign::run) is fail-fast: the first bad run
//! aborts the batch, a panicking run poisons the whole worker pool, and a
//! runaway run can stall a campaign forever. That is the right contract
//! for reproducing the paper's figures, where every run is known good —
//! and the wrong one for fleet-scale screening of *hostile* guest code,
//! which is this paper's whole threat model. This module adds the
//! supervision layer:
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]; a poisoned run becomes a typed
//!   [`RunOutcome::Panicked`] instead of a pool abort. No simulation state
//!   is shared between runs, so unwinding one run cannot corrupt another
//!   (every run owns its own `Simulator`).
//! * **Deadlines** — a deterministic *cycle budget* (a run whose
//!   `warmup + quantum` exceeds the budget is refused before it executes)
//!   and a cooperative *wall-clock watchdog* (a run that overran the
//!   deadline is discarded and classified [`RunOutcome::TimedOut`]).
//! * **Quarantine** — every run executes exactly once. A run that fails
//!   lands in [`CampaignReport::quarantined`] as a [`QuarantinedRun`];
//!   the rest of the campaign completes. Runs are deterministic, so
//!   re-executing a panic or a typed error in place would only repeat it.
//! * **Crash-safe journal + resume** — with [`Supervision::journal`] set,
//!   every final outcome is appended to `<name>.journal.jsonl` (one JSON
//!   record per line, flushed per record); [`Campaign::resume`] replays
//!   journaled outcomes from disk and executes only the remainder,
//!   producing a report **byte-identical** to an uninterrupted run. The
//!   one [`ErrorClass::Transient`] outcome, a wall-clock overrun, is not
//!   replayed: resume re-executes it.
//! * **Chaos harness** — a [`ChaosPlan`] names run ids that panic, so
//!   panic isolation and quarantine are exercised deterministically in
//!   tests and the `chaos` registry experiment.
//!
//! ## Determinism
//!
//! The supervised engine keeps the campaign engine's serial≡parallel
//! byte-identity contract: outcomes are keyed by stable run id, chaos is
//! a pure function of the run id, and the serialized report excludes
//! everything scheduling-dependent (run wall times, journal record
//! order). The only nondeterministic input is the wall-clock watchdog,
//! which supervision treats as a genuine runaway.

use crate::campaign::{Campaign, CampaignReport, PlannedRun, RunRecord};
use crate::error::SimError;
use crate::journal::{Journal, JournalEntry};
use crate::json::Json;
use crate::stats::SimStats;
use hs_core::ErrorClass;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

thread_local! {
    /// Set while this thread executes a supervised run, so the panic
    /// hook knows the unwind is caught and expected.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics on supervised worker threads — they are caught, classified and
/// reported through [`RunOutcome::Panicked`], so the default hook's
/// backtrace would only spam stderr — and delegates every other panic to
/// the previously installed hook unchanged.
fn silence_supervised_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Which deadline a run overran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// The deterministic cycle budget: `warmup + quantum` exceeds
    /// [`Supervision::cycle_budget`]. Checked *before* execution, so a
    /// budget-busting run costs nothing — and since the overrun is a pure
    /// function of the spec, it is permanent (replayed, never re-executed).
    CycleBudget,
    /// The cooperative wall-clock watchdog: the run took longer than
    /// [`Supervision::wall_deadline`]. Environmental, hence transient:
    /// [`Campaign::resume`] re-executes it.
    WallClock,
}

/// The outcome lattice of one supervised run.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished and produced statistics.
    Completed(SimStats),
    /// The run returned a typed error.
    Failed(SimError),
    /// The run panicked; the payload's message, with the pool intact.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The run overran a deadline.
    TimedOut(DeadlineKind),
}

impl RunOutcome {
    /// Supervision classification; `None` for a completed run.
    #[must_use]
    pub fn class(&self) -> Option<ErrorClass> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Failed(e) => Some(e.class()),
            // Runs are deterministic: the same spec panics the same way.
            RunOutcome::Panicked { .. } | RunOutcome::TimedOut(DeadlineKind::CycleBudget) => {
                Some(ErrorClass::Permanent)
            }
            RunOutcome::TimedOut(DeadlineKind::WallClock) => Some(ErrorClass::Transient),
        }
    }

    /// Stable kind tag used in journals, artifacts, and renderings.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RunOutcome::Completed(_) => "completed",
            RunOutcome::Failed(_) => "failed",
            RunOutcome::Panicked { .. } => "panicked",
            RunOutcome::TimedOut(DeadlineKind::CycleBudget) => "timed-out:cycles",
            RunOutcome::TimedOut(DeadlineKind::WallClock) => "timed-out:wall",
        }
    }

    /// Deterministic one-line description (no wall-clock measurements).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            RunOutcome::Completed(_) => String::new(),
            RunOutcome::Failed(e) => e.to_string(),
            RunOutcome::Panicked { message } => message.clone(),
            RunOutcome::TimedOut(DeadlineKind::CycleBudget) => {
                "run needs more cycles than the supervision budget allows".into()
            }
            RunOutcome::TimedOut(DeadlineKind::WallClock) => {
                "run overran the wall-clock deadline".into()
            }
        }
    }
}

/// A run the supervisor gave up on: the campaign's poison list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRun {
    /// Stable run id (declaration index).
    pub id: usize,
    /// The run's label.
    pub label: String,
    /// Outcome kind tag ([`RunOutcome::kind`]).
    pub kind: String,
    /// Deterministic description of the final failure.
    pub detail: String,
}

impl QuarantinedRun {
    /// Serializes the record (used in both artifacts and journals).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::U64(self.id as u64)),
            ("label".into(), Json::Str(self.label.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }

    /// Whether the run overran the wall-clock deadline: the one transient
    /// outcome, which [`Campaign::resume`] re-executes instead of replaying.
    fn is_wall_overrun(&self) -> bool {
        self.kind == RunOutcome::TimedOut(DeadlineKind::WallClock).kind()
    }

    /// Reconstructs a record from [`QuarantinedRun::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<QuarantinedRun, String> {
        let str_of = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        Ok(QuarantinedRun {
            id: v
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("missing integer `id`")? as usize,
            label: str_of("label")?,
            kind: str_of("kind")?,
            detail: str_of("detail")?,
        })
    }
}

/// What chaos injects into a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Nothing; the run executes normally.
    None,
    /// Panic inside the worker before the run executes.
    Panic,
}

/// A deterministic fault schedule for the supervision layer itself: the
/// run ids in [`ChaosPlan::permanent`] panic, every other run executes
/// normally. Events are a pure function of the run id — never of worker
/// identity or timing — so a chaotic campaign is exactly as reproducible
/// as a clean one, and the quarantine set equals the planned one.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    permanent: Vec<usize>,
}

impl ChaosPlan {
    /// Run ids that panic (the planned quarantine set).
    #[must_use]
    pub fn permanent(mut self, ids: impl IntoIterator<Item = usize>) -> Self {
        self.permanent.extend(ids);
        self
    }

    /// The planned permanent failures, by run id.
    #[must_use]
    pub fn permanent_ids(&self) -> &[usize] {
        &self.permanent
    }

    /// The event for one run — a pure function of the plan and the run id.
    #[must_use]
    pub fn event(&self, run_id: usize) -> ChaosEvent {
        if self.permanent.contains(&run_id) {
            ChaosEvent::Panic
        } else {
            ChaosEvent::None
        }
    }
}

/// The supervision configuration for [`Campaign::run_supervised`] and
/// [`Campaign::resume`].
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Deterministic per-run cycle budget (`warmup + quantum` must not
    /// exceed it); `None` disables the check.
    pub cycle_budget: Option<u64>,
    /// Cooperative per-run wall-clock deadline; `None` disables it.
    pub wall_deadline: Option<Duration>,
    /// Fault injection for the supervision layer itself.
    pub chaos: Option<ChaosPlan>,
    /// Append-only run journal path (`<name>.journal.jsonl`); `None`
    /// disables journaling (and therefore resume).
    pub journal: Option<PathBuf>,
    /// Crash-test hook: once this many outcomes have been journaled, stop
    /// dispatching new runs and return [`SimError::Interrupted`] — the
    /// in-process equivalent of `kill -9` for resume tests.
    pub abort_after: Option<usize>,
}

/// A run's final supervised disposition.
#[derive(Debug)]
enum Done {
    Completed(SimStats),
    Quarantined(QuarantinedRun),
}

impl Campaign {
    /// Executes the matrix under supervision: panics are isolated,
    /// deadlines enforced, failed runs quarantined, and (with
    /// [`Supervision::journal`] set) every outcome journaled crash-safely.
    /// An existing journal file is **truncated**; use [`Campaign::resume`]
    /// to continue one.
    ///
    /// # Errors
    ///
    /// Returns the preflight's [`SimError`] for an invalid matrix,
    /// [`SimError::Journal`] if the journal cannot be written, and
    /// [`SimError::Interrupted`] if [`Supervision::abort_after`] fired.
    pub fn run_supervised(
        &self,
        jobs: usize,
        sup: &Supervision,
    ) -> Result<CampaignReport, SimError> {
        self.execute_supervised(jobs, sup, false)
    }

    /// Like [`Campaign::run_supervised`], but if the journal file already
    /// exists its completed and permanently quarantined runs are
    /// **replayed from disk** and only the remainder executes — including
    /// runs journaled as wall-clock overruns, the one transient outcome.
    /// The resulting report is byte-identical to an uninterrupted run
    /// (journaled statistics round-trip bit-exactly). Without an existing
    /// journal this is a fresh supervised run.
    ///
    /// # Errors
    ///
    /// As [`Campaign::run_supervised`], plus [`SimError::Journal`] when
    /// the journal on disk was written by a different campaign or is
    /// corrupt beyond its (tolerated) torn final line.
    pub fn resume(&self, jobs: usize, sup: &Supervision) -> Result<CampaignReport, SimError> {
        self.execute_supervised(jobs, sup, true)
    }

    fn execute_supervised(
        &self,
        jobs: usize,
        sup: &Supervision,
        resume: bool,
    ) -> Result<CampaignReport, SimError> {
        self.preflight()?;
        silence_supervised_panics();
        let started = Instant::now();
        let mut slots: Vec<Option<Done>> = self.runs().iter().map(|_| None).collect();

        // Replay the journal (resume) or start a fresh one.
        let journal = match &sup.journal {
            None => None,
            Some(path) => {
                let (journal, replayed) = if resume {
                    Journal::open_or_create(path, self)?
                } else {
                    (Journal::create(path, self)?, Vec::new())
                };
                for entry in replayed {
                    match entry {
                        JournalEntry::Completed { id, stats } => {
                            slots[id] = Some(Done::Completed(stats));
                        }
                        // A wall-clock overrun depends on the host, not the
                        // spec, so it re-executes instead of replaying.
                        JournalEntry::Quarantined(q) if !q.is_wall_overrun() => {
                            let id = q.id;
                            slots[id] = Some(Done::Quarantined(q));
                        }
                        JournalEntry::Quarantined(_) => {}
                    }
                }
                Some(journal)
            }
        };

        let pending: Vec<usize> = (0..self.len()).filter(|&i| slots[i].is_none()).collect();
        let jobs = jobs.clamp(1, pending.len().max(1));
        let cursor = AtomicUsize::new(0);
        let journaled = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let cells: Vec<Mutex<Option<Done>>> = pending.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if aborted.load(Ordering::SeqCst) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&id) = pending.get(i) else { break };
                    let done = supervise_one(&self.runs()[id], id, sup);
                    if let Some(journal) = &journal {
                        match &done {
                            Done::Completed(stats) => {
                                journal.completed(id, &self.runs()[id].label, stats);
                            }
                            Done::Quarantined(q) => journal.quarantined(q),
                        }
                    }
                    let n = journaled.fetch_add(1, Ordering::SeqCst) + 1;
                    if sup.abort_after.is_some_and(|k| n >= k) {
                        aborted.store(true, Ordering::SeqCst);
                    }
                    *cells[i].lock().expect("outcome cell poisoned") = Some(done);
                });
            }
        });

        if let Some(journal) = journal {
            journal.flush()?;
        }
        if aborted.load(Ordering::SeqCst) {
            return Err(SimError::Interrupted {
                what: format!(
                    "campaign `{}` aborted after {} supervised outcomes (abort-after hook)",
                    self.name(),
                    journaled.load(Ordering::SeqCst)
                ),
            });
        }
        for (i, cell) in cells.into_iter().enumerate() {
            let done = cell
                .into_inner()
                .expect("outcome cell poisoned")
                .unwrap_or_else(|| unreachable!("pending run {} unexecuted", pending[i]));
            slots[pending[i]] = Some(done);
        }

        let wall = started.elapsed();
        let mut runs = Vec::new();
        let mut quarantined = Vec::new();
        for (id, (planned, done)) in self.runs().iter().zip(slots).enumerate() {
            match done.unwrap_or_else(|| unreachable!("run {id} has no outcome")) {
                Done::Completed(stats) => runs.push(RunRecord {
                    id,
                    label: planned.label.clone(),
                    workloads: planned
                        .spec
                        .workloads()
                        .iter()
                        .map(|w| w.name().to_string())
                        .collect(),
                    policy: planned.spec.policy().name().to_string(),
                    sink: planned.spec.sink().name().to_string(),
                    stats,
                }),
                Done::Quarantined(q) => quarantined.push(q),
            }
        }
        Ok(CampaignReport {
            name: self.name().to_string(),
            runs,
            quarantined,
            jobs,
            wall,
        })
    }
}

/// Runs one planned run to its final disposition: completed, or
/// quarantined on its one attempt.
fn supervise_one(run: &PlannedRun, id: usize, sup: &Supervision) -> Done {
    match attempt_once(run, id, sup) {
        RunOutcome::Completed(stats) => Done::Completed(stats),
        failed => Done::Quarantined(QuarantinedRun {
            id,
            label: run.label.clone(),
            kind: failed.kind().to_string(),
            detail: failed.detail(),
        }),
    }
}

/// One supervised attempt: cycle-budget gate, chaos injection, panic
/// isolation, wall-clock check.
fn attempt_once(run: &PlannedRun, id: usize, sup: &Supervision) -> RunOutcome {
    if let Some(budget) = sup.cycle_budget {
        let cfg = run.spec.config();
        let needed = cfg.warmup_cycles.saturating_add(cfg.quantum_cycles);
        if needed > budget {
            return RunOutcome::TimedOut(DeadlineKind::CycleBudget);
        }
    }
    let chaos = sup.chaos.as_ref().map_or(ChaosEvent::None, |p| p.event(id));
    let label = &run.label;
    let started = Instant::now();
    let work = || {
        assert!(
            chaos != ChaosEvent::Panic,
            "chaos: injected panic in `{label}`"
        );
        run.spec.try_run()
    };
    // `RunSpec` is plain data and each run builds a fresh `Simulator`, so
    // nothing observable survives an unwind: AssertUnwindSafe is sound.
    SUPERVISED.with(|s| s.set(true));
    let caught = catch_unwind(AssertUnwindSafe(work));
    SUPERVISED.with(|s| s.set(false));
    let result = match caught {
        Ok(result) => result,
        Err(payload) => {
            return RunOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            }
        }
    };
    if let Some(limit) = sup.wall_deadline {
        if started.elapsed() > limit {
            // The result is discarded even when Ok: a run that overran its
            // deadline is a runaway by definition, and keeping the result
            // would make the report depend on scheduling luck.
            return RunOutcome::TimedOut(DeadlineKind::WallClock);
        }
    }
    match result {
        Ok(stats) => RunOutcome::Completed(stats),
        Err(e) => RunOutcome::Failed(e),
    }
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_events_are_pure_and_first_attempt_only() {
        // Every run has exactly one attempt, and chaos fires on it only for
        // the planned ids.
        let plan = ChaosPlan::default().permanent([5, 9]);
        for id in 0..40 {
            let e = plan.event(id);
            assert_eq!(e, plan.event(id), "pure function of the run id");
            let planned = id == 5 || id == 9;
            assert_eq!(e == ChaosEvent::Panic, planned, "run {id}");
        }
        assert_eq!(plan.permanent_ids(), [5, 9]);
        assert_eq!(ChaosPlan::default().event(5), ChaosEvent::None);
    }

    #[test]
    fn outcome_lattice_classification() {
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::CycleBudget).class(),
            Some(ErrorClass::Permanent)
        );
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::WallClock).class(),
            Some(ErrorClass::Transient)
        );
        assert_eq!(
            RunOutcome::Panicked {
                message: "x".into()
            }
            .class(),
            Some(ErrorClass::Permanent),
            "a deterministic run panics the same way every time"
        );
        assert_eq!(
            RunOutcome::Failed(SimError::NoWorkloads).class(),
            Some(ErrorClass::Permanent)
        );
        assert_eq!(RunOutcome::Completed(SimStats::default()).class(), None);
        assert_eq!(
            RunOutcome::TimedOut(DeadlineKind::CycleBudget).kind(),
            "timed-out:cycles"
        );
    }
}
