//! # hs-thermal — a HotSpot-style lumped-RC thermal model
//!
//! The paper models power density with HotSpot: every floorplan block is a
//! node in an equivalent RC circuit where voltage ↔ temperature, current ↔
//! heat flow, and the package (thermal interface material → heat spreader →
//! heat sink → convection to ambient) forms the path that limits how fast
//! heat can leave the die. This crate implements that model at block
//! granularity:
//!
//! * one capacitive node per [`Block`] of the floorplan ([`block`]),
//! * lateral conductances between adjacent blocks (heat spreads sideways
//!   poorly — the reason hot *spots* exist at all),
//! * a vertical conductance per block through the TIM to a shared heat
//!   spreader node, then through the sink to ambient via the configured
//!   **convection resistance** (Table 1: 0.8 K/W),
//! * forward-Euler integration with automatically chosen stable substeps,
//! * a direct steady-state solver used to pre-warm the package, mirroring
//!   HotSpot's standard practice of initializing from the steady state of
//!   the average power (the sink's multi-second RC would otherwise dominate
//!   a 125 ms simulation).
//!
//! The RC time constants reproduce the paper's anchors: a malicious thread
//! heats the integer register file to the 358.5 K emergency in a few
//! million cycles at 4 GHz, and cooling back to ~355 K takes on the order
//! of 10 ms.
//!
//! ```
//! use hs_thermal::{ThermalConfig, ThermalNetwork, Block, PowerVector};
//!
//! let cfg = ThermalConfig::default();
//! let mut net = ThermalNetwork::new(&cfg);
//! let mut idle = PowerVector::zero();
//! net.initialize_steady_state(&idle);
//! let cold = net.block_temp(Block::IntReg);
//! idle.set(Block::IntReg, 4.0); // 4 W into the register file
//! net.step(0.005, &idle);       // 5 ms
//! assert!(net.block_temp(Block::IntReg) > cold + 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod block;
pub mod config;
pub mod faults;
pub mod network;
pub mod pole;
pub mod power_vector;
pub mod rng;
pub mod sensors;

pub use block::{Block, ALL_BLOCKS, NUM_BLOCKS};
pub use config::{ConfigError, ThermalConfig};
pub use faults::{SensorFault, SensorFaultKind, SensorFaultPlan, SensorFrame, MAX_SENSOR_FAULTS};
pub use network::ThermalNetwork;
pub use pole::{phase_decay, relax, AffineFold};
pub use power_vector::PowerVector;
pub use rng::XorShift64;
pub use sensors::{SensorBank, SensorConfig};
