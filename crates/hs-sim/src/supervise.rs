//! # The campaign engine: panic isolation, deadlines, quarantine, journal
//!
//! Every campaign runs on the one worker pool in this module.
//! [`Campaign::run`](crate::Campaign::run) is
//! [`Campaign::run_supervised`] with the default [`Supervision`]; a
//! supervision is a configuration of the pool, not a second engine. A
//! screening campaign over *hostile* guest code — this paper's whole
//! threat model — must survive one bad run, so the pool always provides:
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]; a panicking run is quarantined as
//!   `panicked` instead of aborting the pool. No simulation state is
//!   shared between runs, so unwinding one run cannot corrupt another
//!   (every run owns its own `Simulator`).
//! * **Quarantine** — every run executes exactly once. A run that fails
//!   lands in [`CampaignReport::quarantined`] as a [`QuarantinedRun`]
//!   whose `kind` is `failed` (a typed [`SimError`]), `panicked`,
//!   `timed-out:cycles` or `timed-out:wall`; the rest of the campaign
//!   completes. Runs are deterministic, so re-executing a panic or a typed
//!   error in place would only repeat it.
//!
//! [`Supervision`] turns on the rest:
//!
//! * **Deadlines** — a deterministic *cycle budget* (a run whose
//!   `warmup + quantum` exceeds the budget is refused before it executes)
//!   and a cooperative *wall-clock watchdog* (a run that overran the
//!   deadline is discarded and quarantined `timed-out:wall`).
//! * **Crash-safe journal + resume** — with [`Supervision::journal`] set,
//!   every final outcome is appended to `<name>.journal.jsonl` (one JSON
//!   record per line, flushed per record); [`Campaign::resume`] replays
//!   journaled outcomes from disk and executes only the remainder,
//!   producing a report **byte-identical** to an uninterrupted run. A
//!   wall-clock overrun depends on the host, not the spec, so it is the
//!   one outcome resume re-executes instead of replaying.
//! * **Chaos harness** — a [`ChaosPlan`] names run ids that panic, so
//!   panic isolation and quarantine are exercised deterministically in
//!   tests and the `chaos` registry experiment.
//!
//! ## Determinism
//!
//! Parallel execution is bit-identical to serial: outcomes are keyed by
//! stable run id, chaos is a pure function of the run id, and the
//! serialized report excludes everything scheduling-dependent (run wall
//! times, journal record order). The only nondeterministic input is the
//! wall-clock watchdog, which supervision treats as a genuine runaway.

use crate::campaign::{Campaign, CampaignReport, PlannedRun, RunRecord};
use crate::error::SimError;
use crate::journal::{Journal, JournalEntry};
use crate::json::Json;
use crate::stats::SimStats;
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
/// panics on campaign worker threads — they are caught and quarantined as
/// `panicked`, so the default hook's backtrace would only spam stderr —
/// and delegates every other panic to the previously installed hook
/// unchanged.
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

/// The kind tag of a wall-clock overrun.
const WALL_OVERRUN: &str = "timed-out:wall";

/// A run the supervisor gave up on: the campaign's poison list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRun {
    /// Stable run id (declaration index).
    pub id: usize,
    /// The run's label.
    pub label: String,
    /// Outcome kind tag: `failed`, `panicked`, `timed-out:cycles` or
    /// `timed-out:wall`.
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

    /// Whether the run overran the wall-clock deadline: the one outcome
    /// that depends on the host, not the spec, so [`Campaign::resume`]
    /// re-executes it instead of replaying it.
    fn is_wall_overrun(&self) -> bool {
        self.kind == WALL_OVERRUN
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

    /// Whether run `id` panics — a pure function of the plan and the id.
    fn panics(&self, id: usize) -> bool {
        self.permanent.contains(&id)
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

/// A run's final disposition: what the pool collects, journals and
/// reports.
#[derive(Debug)]
enum Done {
    Completed(SimStats),
    Quarantined(QuarantinedRun),
}

impl Campaign {
    /// Executes the matrix on `jobs` worker threads under `sup`: panics
    /// are isolated, deadlines enforced, failed runs quarantined, and
    /// (with [`Supervision::journal`] set) every outcome journaled
    /// crash-safely. An existing journal file is **truncated**; use
    /// [`Campaign::resume`] to continue one.
    ///
    /// `jobs` is clamped to `1..=` the number of runs to execute. Runs are
    /// handed to workers in run-id order through an atomic cursor; each
    /// worker builds, runs and drops its own [`Simulator`](crate::Simulator)
    /// per run, so no simulation state is ever shared. The report is
    /// ordered by run id regardless of completion order.
    ///
    /// # Errors
    ///
    /// Returns the preflight's [`SimError`] for an invalid matrix (nothing
    /// has executed at that point), [`SimError::Journal`] if the journal
    /// cannot be written, and [`SimError::Interrupted`] if
    /// [`Supervision::abort_after`] fired.
    pub fn run_supervised(
        &self,
        jobs: usize,
        sup: &Supervision,
    ) -> Result<CampaignReport, SimError> {
        self.execute_supervised(jobs, sup, false)
    }

    /// Like [`Campaign::run_supervised`], but if the journal file already
    /// exists its completed and quarantined runs are **replayed from
    /// disk** and only the remainder executes — including runs journaled
    /// as `timed-out:wall`, which depend on the host and so re-execute.
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
                    let done = attempt_once(&self.runs()[id], id, sup);
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
            wall,
        })
    }
}

/// One supervised attempt — cycle-budget gate, chaos injection, panic
/// isolation, wall-clock check — and the run's final disposition.
fn attempt_once(run: &PlannedRun, id: usize, sup: &Supervision) -> Done {
    let quarantine = |kind: &str, detail: String| {
        Done::Quarantined(QuarantinedRun {
            id,
            label: run.label.clone(),
            kind: kind.to_string(),
            detail,
        })
    };
    if let Some(budget) = sup.cycle_budget {
        let cfg = run.spec.config();
        let needed = cfg.warmup_cycles.saturating_add(cfg.quantum_cycles);
        if needed > budget {
            // A pure function of the spec, so resume replays it.
            return quarantine(
                "timed-out:cycles",
                "run needs more cycles than the supervision budget allows".into(),
            );
        }
    }
    let panics = sup.chaos.as_ref().is_some_and(|p| p.panics(id));
    let label = &run.label;
    let started = Instant::now();
    let work = || {
        assert!(!panics, "chaos: injected panic in `{label}`");
        run.spec.try_run()
    };
    // `RunSpec` is plain data and each run builds a fresh `Simulator`, so
    // nothing observable survives an unwind: AssertUnwindSafe is sound.
    SUPERVISED.with(|s| s.set(true));
    let caught = catch_unwind(AssertUnwindSafe(work));
    SUPERVISED.with(|s| s.set(false));
    let result = match caught {
        Ok(result) => result,
        Err(payload) => return quarantine("panicked", panic_message(payload.as_ref())),
    };
    if let Some(limit) = sup.wall_deadline {
        if started.elapsed() > limit {
            // The result is discarded even when Ok: a run that overran its
            // deadline is a runaway by definition, and keeping the result
            // would make the report depend on scheduling luck.
            return quarantine(WALL_OVERRUN, "run overran the wall-clock deadline".into());
        }
    }
    match result {
        Ok(stats) => Done::Completed(stats),
        Err(e) => quarantine("failed", e.to_string()),
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
