//! The repository benchmark for the Heat Stroke simulator.
//!
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` builds this package and runs its binary. With
//! `--trace 0` it times whole passes of one workload and prints the
//! end-to-end metrics; with `--trace 1` it replays each run through an
//! outside-in replica of the simulator loop ([`trace`]) and prints the
//! per-layer metrics. Every pass's simulated output is checked
//! ([`measure`]). `perfbench/README.md` records why each workload exists
//! and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod measure;
pub mod trace;
pub mod workloads;
