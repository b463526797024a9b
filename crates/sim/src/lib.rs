//! # uwm-sim — a microarchitectural simulator for weird machines
//!
//! This crate is the *substrate* of the [Computing with Time:
//! Microarchitectural Weird Machines](https://doi.org/10.1145/3445814.3446729)
//! (ASPLOS '21) reproduction: a cycle-level model of the CPU components the
//! paper computes with —
//!
//! * a split-L1 three-level [cache hierarchy](hierarchy) with `clflush`,
//! * a bimodal [direction predictor and BTB](branch) that can be mistrained
//!   through aliased branches,
//! * a [machine] whose mispredicted branches and faulting
//!   transactions open *speculative windows* in which wrong-path code races
//!   cache latencies,
//! * [contention] state (ROB, multiplier, VMX) for the volatile
//!   weird registers of the paper's Table 1, and
//! * a seeded [noise model](timing) reproducing the error rates and latency
//!   tails of the paper's evaluation.
//!
//! Programs are written in a small [micro-ISA](isa) with a real binary
//! encoding, so data written to simulated memory can be executed as code.
//!
//! The weird registers/gates/circuits themselves live in the `uwm-core`
//! crate, which drives this machine.
//!
//! ## Example
//!
//! ```
//! use uwm_sim::prelude::*;
//!
//! // A timed load distinguishes cached from uncached data — the read
//! // primitive of every data-cache weird register.
//! let mut m = Machine::new(MachineConfig::quiet(), 0);
//! let miss = m.timed_read(0x4000);
//! let hit = m.timed_read(0x4000);
//! assert!(miss > hit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Implements `Clone` for a struct field by field. The derive leaves
/// `clone_from` as `*self = src.clone()`, which frees and reallocates
/// every buffer; this `clone_from` clones each field in place, so a
/// restore into a warmed machine reuses the buffers it already has.
/// Naming every field keeps the impl in step with the struct: `clone`
/// does not compile while one is missing.
macro_rules! clone_by_field {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                Self { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, src: &Self) {
                $(self.$field.clone_from(&src.$field);)+
            }
        }
    };
}

pub mod branch;
pub mod cache;
pub mod contention;
pub mod hierarchy;
pub mod isa;
pub mod machine;
pub mod memory;
mod page_table;
pub mod predecode;
pub mod replacement;
pub mod timing;
pub mod trace;

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::branch::{Btb, DirectionPredictor};
    pub use crate::cache::{line_of, Cache, CacheConfig, LINE_SIZE};
    pub use crate::hierarchy::{Hierarchy, HitLevel};
    pub use crate::isa::{AluOp, Assembler, Inst, Operand, Program, Reg, INST_SIZE};
    pub use crate::machine::{
        ExecutionModel, FaultCause, Machine, MachineConfig, MachineStats, RunOutcome,
    };
    pub use crate::memory::Memory;
    pub use crate::predecode::CodeCache;
    pub use crate::timing::{LatencyConfig, NoiseConfig};
    pub use crate::trace::{ArchEvent, Tracer};
}
