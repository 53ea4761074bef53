//! # hs-sim — the full heat-stroke simulation stack
//!
//! Binds the SMT pipeline (`hs-cpu`), the Wattch-style power model
//! (`hs-power`), the HotSpot-style thermal network (`hs-thermal`), and the
//! DTM policies (`hs-core`) into the execution-driven simulator the paper
//! describes in §4:
//!
//! * the pipeline runs cycle by cycle, producing per-thread per-resource
//!   access events;
//! * access-rate monitors sample every 1000 cycles (the paper's choice);
//! * temperature sensors are read every 20 000 cycles ("well under the
//!   thermal RC time-constant of any resource") and the thermal network is
//!   integrated between readings;
//! * the active DTM policy sees both and controls a global stall signal
//!   (stop-and-go) and per-thread fetch gates (selective sedation);
//! * one simulation covers one OS quantum (500 M cycles at 4 GHz in the
//!   paper).
//!
//! ## Time scaling
//!
//! Full-fidelity runs (`SimConfig::paper()`) use the paper's constants.
//! Because every result depends only on the *ratios* between heat-up time,
//! cool-down time and quantum length, the experiment harness uses
//! [`SimConfig::scaled`] — all thermal capacitances, monitoring periods and
//! the quantum divided by the same factor — to reproduce the dynamics of a
//! 500 M-cycle quantum inside a much shorter simulation. `DESIGN.md`
//! documents the substitution.
//!
//! ```
//! use hs_sim::{RunSpec, SimConfig, PolicyKind, HeatSink};
//! use hs_workloads::{Workload, SpecWorkload};
//!
//! // A fast, heavily time-scaled smoke run.
//! let stats = RunSpec::builder()
//!     .workload(Workload::Spec(SpecWorkload::Gcc))
//!     .policy(PolicyKind::StopAndGo)
//!     .sink(HeatSink::Realistic)
//!     .config(SimConfig::scaled(400.0))
//!     .build()
//!     .expect("valid spec")
//!     .run();
//! assert!(stats.thread(0).ipc > 0.0);
//! ```
//!
//! ## Campaigns
//!
//! Whole evaluation matrices (the paper's figures are cartesian products of
//! workloads × policies × sinks) run through the deterministic,
//! multi-threaded [`campaign`] engine; see its module docs for the
//! parallel-equals-serial contract and [`supervise`] for the worker pool,
//! which quarantines a failing run instead of aborting the batch.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod admission;
pub mod campaign;
pub mod config;
pub mod error;
mod journal;
pub mod json;
pub mod os;
pub mod runner;
pub mod simulator;
pub mod stats;
pub mod supervise;

pub use admission::AdmissionMode;
pub use campaign::{Campaign, CampaignMatrix, CampaignReport, RunRecord};
pub use config::{ExecMode, FaultConfig, HeatSink, IntervalConfig, PolicyKind, SimConfig};
pub use error::SimError;
pub use json::{Json, JsonError};
pub use os::{OsScheduler, ScheduleOutcome, SchedulerConfig};
pub use runner::{RunSpec, RunSpecBuilder};
pub use simulator::{Observer, SampleView, Simulator};
pub use stats::{SimStats, ThreadBreakdown, ThreadSummary};
pub use supervise::{ChaosPlan, QuarantinedRun, Supervision};
