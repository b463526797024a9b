//! # uwm-core — microarchitectural weird machines
//!
//! A reproduction of the computational framework of *Computing with Time:
//! Microarchitectural Weird Machines* (Evtyushkin et al., ASPLOS '21) on
//! top of the [`uwm_sim`] simulated CPU:
//!
//! * [`reg`] — **weird registers**: one-bit storage in cache residency,
//!   predictor state, and contention (the paper's Table 1);
//! * [`gate`] — **weird gates**: boolean logic computed by racing
//!   speculative windows against cache latencies (Figures 1–3);
//! * [`circuit`] — **weird circuits**: serial TSX-gate compositions whose
//!   intermediate values never exist architecturally (§4);
//! * [`skelly`] — the reliability/ergonomics framework of §6.2: layout
//!   management, threshold calibration, median-and-vote redundancy, and
//!   32-bit logic including the full adder used by the SHA-1 demo;
//! * [`substrate`] — the **execution backend abstraction**: gates are built
//!   as machine-independent specs ([`gate::GateSpec`]) and bound to any
//!   [`substrate::Substrate`] — the [`uwm_sim`] machine, in its full
//!   microarchitectural model or the flat (no-MA) model used by the §7
//!   emulation detector;
//! * [`exec`] — a sharded executor that fans deterministic trial batches
//!   across OS threads and merges results in batch order;
//! * [`batch`] — the pooling engine ([`batch::run_pooled`]: one warmed
//!   state per shard, its substrate restored and reseeded before every
//!   item) and the batch circuit evaluator on it, which binds compiled
//!   [`circuit::CircuitPlan`]s once per shard and streams thousands of
//!   input vectors per pooled machine.
//!
//! ## Quick start
//!
//! ```
//! use uwm_core::skelly::Skelly;
//!
//! let mut sk = Skelly::quiet(0).unwrap();
//! // A logical AND computed entirely by microarchitectural side effects:
//! assert!(sk.and(true, true));
//! assert!(!sk.and(true, false));
//! // 32-bit addition on weird gates (no architectural `add` combines bits):
//! assert_eq!(sk.add32(40, 2), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod circuit;
pub mod error;
pub mod exec;
pub mod gate;
pub mod layout;
pub mod reg;
pub mod skelly;
pub mod substrate;

pub use error::{CoreError, Result};

/// Convenient re-exports of the most used types.
pub mod prelude {
    pub use crate::batch::{BatchObservation, BatchRunner};
    pub use crate::circuit::{
        adder32_inputs, adder32_outputs, adder32_spec, Circuit, CircuitBuilder, CircuitPlan,
        CircuitSpec, Wire,
    };
    pub use crate::error::{CoreError, Result};
    pub use crate::exec::ShardedExecutor;
    pub use crate::gate::bp::BpGate;
    pub use crate::gate::tsx::{TsxGate, TsxXor};
    pub use crate::gate::{GateKind, GateReading, GateSpec, ProgramUnit, WeirdGate};
    pub use crate::layout::Layout;
    pub use crate::reg::{BpWr, BtbWr, DcWr, IcWr, MulWr, RobWr, VmxWr, WeirdRegister};
    pub use crate::skelly::{Redundancy, Skelly, SkellySpec};
    pub use crate::substrate::Substrate;
}
