//! # Crash-safe campaign run journal
//!
//! An append-only record of supervised run outcomes, one JSON object per
//! line (`<campaign>.journal.jsonl`), written through
//! [`Supervision::journal`](crate::Supervision) and replayed by
//! [`Campaign::resume`](crate::Campaign::resume).
//!
//! ## Format (version 1)
//!
//! ```text
//! {"journal":"chaos","format":1,"planned":10}                       header
//! {"id":0,"label":"…","outcome":"completed","stats":{…}}            per run
//! {"id":2,"label":"…","outcome":"quarantined","kind":"panicked","detail":"…"}
//! ```
//!
//! Every record is written and flushed as one line before the outcome is
//! considered durable, so a crash can lose at most the line being written.
//! The loader therefore **tolerates a torn final line** (a crash artifact)
//! but treats unparseable text anywhere else as corruption
//! ([`SimError::Journal`]). The header pins the campaign's name and
//! planned run count; resuming with a journal written by a different
//! campaign is rejected, and every replayed record must match the label
//! the campaign declares for that run id.
//!
//! A run journaled as a wall-clock overrun (`"kind":"timed-out:wall"`) is
//! not replayed: resume re-executes it and appends its new outcome, so one
//! run id may carry several records. Replay applies them in line order.
//!
//! Journal *line order* is completion order — nondeterministic under a
//! parallel pool. That is fine: replay keys records by stable run id, and
//! the report is assembled in id order, so resume stays byte-identical to
//! an uninterrupted run.

use crate::campaign::Campaign;
use crate::error::SimError;
use crate::json::Json;
use crate::stats::SimStats;
use crate::supervise::QuarantinedRun;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// One replayed journal record.
#[derive(Debug)]
pub(crate) enum JournalEntry {
    /// The run completed; its journaled statistics (bit-exact round-trip).
    Completed {
        /// Stable run id.
        id: usize,
        /// The journaled statistics.
        stats: SimStats,
    },
    /// The run was quarantined.
    Quarantined(QuarantinedRun),
}

/// The append side of a run journal.
///
/// Appends are serialized through a mutex and flushed per line. Write
/// errors do not kill workers mid-run; they are latched and surfaced once
/// by [`Journal::flush`].
#[derive(Debug)]
pub(crate) struct Journal {
    file: Mutex<File>,
    error: Mutex<Option<String>>,
    path: String,
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the header.
    pub(crate) fn create(path: &Path, campaign: &Campaign) -> Result<Journal, SimError> {
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        let journal = Journal {
            file: Mutex::new(file),
            error: Mutex::new(None),
            path: path.display().to_string(),
        };
        journal.line(&header(campaign));
        journal.flush()?;
        Ok(journal)
    }

    /// Opens an existing journal for resume — validating its header
    /// against `campaign` and replaying its records — or creates a fresh
    /// one if `path` does not exist.
    pub(crate) fn open_or_create(
        path: &Path,
        campaign: &Campaign,
    ) -> Result<(Journal, Vec<JournalEntry>), SimError> {
        if !path.exists() {
            return Ok((Journal::create(path, campaign)?, Vec::new()));
        }
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let entries = replay(&text, campaign).map_err(|detail| SimError::Journal {
            detail: format!("{}: {detail}", path.display()),
        })?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                error: Mutex::new(None),
                path: path.display().to_string(),
            },
            entries,
        ))
    }

    /// Appends a completed-run record.
    pub(crate) fn completed(&self, id: usize, label: &str, stats: &SimStats) {
        self.line(&Json::Obj(vec![
            ("id".into(), Json::U64(id as u64)),
            ("label".into(), Json::Str(label.to_string())),
            ("outcome".into(), Json::Str("completed".into())),
            ("stats".into(), stats.to_json()),
        ]));
    }

    /// Appends a quarantined-run record.
    pub(crate) fn quarantined(&self, q: &QuarantinedRun) {
        let Json::Obj(mut fields) = q.to_json() else {
            unreachable!("QuarantinedRun::to_json returns an object")
        };
        fields.insert(2, ("outcome".into(), Json::Str("quarantined".into())));
        self.line(&Json::Obj(fields));
    }

    /// Surfaces any latched append error.
    pub(crate) fn flush(&self) -> Result<(), SimError> {
        match self
            .error
            .lock()
            .expect("journal error latch poisoned")
            .take()
        {
            None => Ok(()),
            Some(detail) => Err(SimError::Journal {
                detail: format!("{}: {detail}", self.path),
            }),
        }
    }

    /// Writes one record + newline and flushes it to the OS. The write
    /// happens under the file lock, so concurrent workers cannot
    /// interleave bytes within a line.
    fn line(&self, record: &Json) {
        let mut text = record.to_string_compact();
        text.push('\n');
        let mut file = self.file.lock().expect("journal file poisoned");
        let result = file.write_all(text.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = result {
            let mut latch = self.error.lock().expect("journal error latch poisoned");
            latch.get_or_insert_with(|| format!("append failed: {e}"));
        }
    }
}

fn header(campaign: &Campaign) -> Json {
    Json::Obj(vec![
        ("journal".into(), Json::Str(campaign.name().to_string())),
        ("format".into(), Json::U64(1)),
        ("planned".into(), Json::U64(campaign.len() as u64)),
    ])
}

fn io_err(path: &Path, e: &std::io::Error) -> SimError {
    SimError::Journal {
        detail: format!("{}: {e}", path.display()),
    }
}

/// Parses and validates a journal body against the campaign it claims to
/// belong to. Tolerates exactly one unparseable line, and only at the end
/// of the file (a torn final write); anything else is corruption.
fn replay(text: &str, campaign: &Campaign) -> Result<Vec<JournalEntry>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let Some((&head, body)) = lines.split_first() else {
        return Err("empty journal (missing header)".into());
    };
    let header = Json::parse(head).map_err(|e| format!("bad header: {e}"))?;
    let name = header
        .get("journal")
        .and_then(Json::as_str)
        .ok_or("header missing string `journal`")?;
    if name != campaign.name() {
        return Err(format!(
            "journal belongs to campaign `{name}`, not `{}`",
            campaign.name()
        ));
    }
    if header.get("format").and_then(Json::as_u64) != Some(1) {
        return Err("unsupported journal `format` (expected 1)".into());
    }
    let planned = header.get("planned").and_then(Json::as_u64);
    if planned != Some(campaign.len() as u64) {
        return Err(format!(
            "journal planned {planned:?} runs, campaign has {}",
            campaign.len()
        ));
    }

    let mut entries = Vec::new();
    for (i, line) in body.iter().enumerate() {
        let record = match Json::parse(line) {
            Ok(v) => v,
            Err(e) if i + 1 == body.len() => {
                // A torn final line is the expected crash artifact: the
                // run it described was not durable, so it re-executes.
                let _ = e;
                break;
            }
            Err(e) => return Err(format!("corrupt record on line {}: {e}", i + 2)),
        };
        let at = |what: &str| format!("record on line {}: {what}", i + 2);
        let id = record
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| at("missing integer `id`"))? as usize;
        let label = record
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string `label`"))?;
        let Some(run) = campaign.runs().get(id) else {
            return Err(at(&format!("run id {id} out of range")));
        };
        if run.label != label {
            return Err(at(&format!(
                "run {id} is labelled `{}`, journal says `{label}`",
                run.label
            )));
        }
        match record.get("outcome").and_then(Json::as_str) {
            Some("completed") => {
                let stats = record.get("stats").ok_or_else(|| at("missing `stats`"))?;
                entries.push(JournalEntry::Completed {
                    id,
                    stats: SimStats::from_json(stats)
                        .map_err(|e| at(&format!("bad stats: {e}")))?,
                });
            }
            Some("quarantined") => entries.push(JournalEntry::Quarantined(
                QuarantinedRun::from_json(&record).map_err(|e| at(&e))?,
            )),
            other => return Err(at(&format!("unknown outcome {other:?}"))),
        }
    }
    Ok(entries)
}
