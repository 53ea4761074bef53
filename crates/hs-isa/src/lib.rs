//! # hs-isa — a miniature RISC instruction set for the Heat Stroke reproduction
//!
//! The HPCA 2005 paper "Heat Stroke: Power-Density-Based Denial of Service in
//! SMT" evaluates its attack and defense on an execution-driven SimpleScalar
//! simulator running Alpha binaries. This crate substitutes the Alpha ISA with
//! a small register ISA that is sufficient to express every behaviour the
//! paper depends on:
//!
//! * long chains of **independent integer ALU operations** that hammer the
//!   integer register file (Figure 1 of the paper),
//! * **loads mapping to the same L2 set** so they conflict-miss all the way to
//!   memory (Figure 2),
//! * ordinary program behaviour: dependent dataflow, loops, conditional
//!   branches, stores, and floating-point work (the SPEC2K-like workloads in
//!   `hs-workloads`).
//!
//! The ISA is *executable*: [`machine::Machine`] gives architectural
//! semantics, and the cycle-level SMT pipeline in `hs-cpu` uses the same
//! [`semantics`] functions so the functional and timing models can never
//! disagree.
//!
//! ## Quick example
//!
//! ```
//! use hs_isa::{ProgramBuilder, IntReg, AluOp, Operand};
//!
//! // The Figure-1 malicious kernel: independent adds in an infinite loop.
//! let mut b = ProgramBuilder::new();
//! let top = b.label();
//! for r in 1..8 {
//!     b.int_alu(AluOp::Add, IntReg::new(r), IntReg::new(8), Operand::Imm(1));
//! }
//! b.jump(top);
//! let program = b.build().unwrap();
//! assert_eq!(program.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod inst;
pub mod machine;
pub mod program;
pub mod reg;
pub mod semantics;

pub use asm::{assemble, AsmError};
pub use builder::{BuildError, Label, ProgramBuilder};
pub use inst::{AluOp, BranchCond, FpOp, FuClass, Instruction, Kind, Operand};
pub use machine::{advance, Advance, ArchState, FlatMemory, Machine, StepOutcome};
pub use program::{InstIndex, Program};
pub use reg::{FpReg, IntReg, NUM_FP_REGS, NUM_INT_REGS};
