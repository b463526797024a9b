//! Weird gates (§3.2): boolean logic computed by microarchitectural races.
//!
//! Every gate follows one protocol (§3.2, §4): initialize the outputs,
//! encode the inputs, activate a race, time one read. Gates differ only in
//! the race body and in whether the output is preset to 1, so a gate is a
//! [`GateKind`] plus wiring, in one of two families:
//!
//! * [`bp`] — gates built from intentional branch mispredictions racing the
//!   speculative window against instruction-cache residency (Figures 1–2).
//!   Accurate (Table 5) but slow: every activation retrains the predictor.
//! * [`tsx`] — gates built from post-fault speculative execution inside
//!   aborted transactions (Figure 3, §4). Fast and composable into
//!   [weird circuits](crate::circuit) with no architectural intermediates.
//!
//! Every gate's boolean function is *never* computed by an architectural
//! instruction: the inputs select which cache fills win a race, and the
//! output is a cache line's residency.
//!
//! # Specs and instances
//!
//! Gate construction is split in two:
//!
//! 1. A **spec** ([`GateSpec`]) is machine-independent: wiring addresses
//!    allocated from a [`crate::layout::Layout`] plus the assembled program
//!    templates. Build one with `TsxGate::spec(kind, &mut lay)`,
//!    `BpGate::spec(kind, &mut lay)` or `TsxXor::spec(&mut lay)`.
//! 2. An **instance** is the gate bound to a backend:
//!    `spec.instantiate(&mut substrate)` installs and warms the programs on
//!    any [`Substrate`], calibrates the hit/miss threshold there, and
//!    returns the runnable gate value, which decodes its reads against it.
//!
//! The same spec can be instantiated on any number of backends (the
//! emulation detector does exactly this) or on every shard of a
//! [`crate::exec::ShardedExecutor`].

pub mod bp;
pub mod tsx;

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::skelly::calibrate_threshold;
use crate::substrate::Substrate;
use uwm_sim::isa::Program;

/// The ten weird gates of the paper's tables.
///
/// A kind fixes everything about a gate except its wiring: the
/// paper-table [`name`](GateKind::name) (the key of every counter bank
/// and JSON report), the [`arity`](GateKind::arity), the reference
/// [`truth`](GateKind::truth) table, and whether the output is preset to
/// 1 before activation. The first four kinds are the branch-predictor
/// family ([`bp::BpGate`]); the `Tx` kinds are the TSX family
/// ([`tsx::TsxGate`], with [`tsx::TsxXor`] composing three of them).
///
/// # Examples
///
/// ```
/// use uwm_core::gate::GateKind;
///
/// assert_eq!(GateKind::AndAndOr.name(), "AND_AND_OR");
/// assert_eq!(GateKind::TxNot.arity(), 1);
/// assert!(GateKind::TxXor.truth(&[true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// BP/IC `AND` (Figure 1): `ic & bp`.
    And,
    /// BP/IC `OR` (Figure 2): `a | b`.
    Or,
    /// BP/IC `NAND`: `!(ic & bp)`.
    Nand,
    /// BP/IC `AND_AND_OR`: `(a & b) | (c & d)`.
    AndAndOr,
    /// TSX `ASSIGN`: `out := in`.
    TxAssign,
    /// TSX `AND`: `a & b`.
    TxAnd,
    /// TSX `OR`: `a | b`.
    TxOr,
    /// TSX `AND_OR` (Figure 3): `a & b` and `a | b` in one transaction;
    /// its first output is the AND.
    TxAndOr,
    /// TSX `NOT`: `!in`.
    TxNot,
    /// TSX `XOR` (§4.1): `a ^ b`, three chained transactions.
    TxXor,
}

impl GateKind {
    /// Every kind, branch-predictor family first.
    pub const ALL: [GateKind; 10] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::AndAndOr,
        GateKind::TxAssign,
        GateKind::TxAnd,
        GateKind::TxOr,
        GateKind::TxAndOr,
        GateKind::TxNot,
        GateKind::TxXor,
    ];

    /// Gate name as used in the paper's tables (e.g. `"AND"`,
    /// `"TSX_XOR"`).
    pub const fn name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::AndAndOr => "AND_AND_OR",
            GateKind::TxAssign => "TSX_ASSIGN",
            GateKind::TxAnd => "TSX_AND",
            GateKind::TxOr => "TSX_OR",
            GateKind::TxAndOr => "TSX_AND_OR",
            GateKind::TxNot => "TSX_NOT",
            GateKind::TxXor => "TSX_XOR",
        }
    }

    /// Number of boolean inputs.
    pub const fn arity(self) -> usize {
        match self {
            GateKind::TxAssign | GateKind::TxNot => 1,
            GateKind::AndAndOr => 4,
            _ => 2,
        }
    }

    /// Number of output registers: two for `TSX_AND_OR` (AND, then OR),
    /// one otherwise.
    pub const fn outputs(self) -> usize {
        match self {
            GateKind::TxAndOr => 2,
            _ => 1,
        }
    }

    /// Whether the gate is of the TSX family.
    pub const fn is_tsx(self) -> bool {
        !matches!(
            self,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::AndAndOr
        )
    }

    /// Whether the outputs are preset to 1 (touched) rather than 0
    /// (flushed) before activation: the gates whose race *clears* the
    /// output, `NAND` and `TSX_NOT`.
    pub const fn presets_output(self) -> bool {
        matches!(self, GateKind::Nand | GateKind::TxNot)
    }

    /// Reference boolean semantics (ground truth for accuracy counting);
    /// for `TSX_AND_OR`, the AND output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn truth(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "{} inputs", self.name());
        let x = inputs;
        match self {
            GateKind::And | GateKind::TxAnd | GateKind::TxAndOr => x[0] & x[1],
            GateKind::Or | GateKind::TxOr => x[0] | x[1],
            GateKind::Nand => !(x[0] & x[1]),
            GateKind::AndAndOr => (x[0] & x[1]) | (x[2] & x[3]),
            GateKind::TxAssign => x[0],
            GateKind::TxNot => !x[0],
            GateKind::TxXor => x[0] ^ x[1],
        }
    }
}

/// One assembled program fragment of a gate spec, with an optional code
/// range to warm at instantiation time.
///
/// The program is `Arc`-shared: cloning a spec (or pooling its units into
/// a circuit) never copies instructions, and binding the spec to a backend
/// installs from the shared reference.
#[derive(Debug, Clone)]
pub struct ProgramUnit {
    /// The assembled instructions, shared between all clones of the spec.
    pub program: Arc<Program>,
    /// `Some((base, end))` if the fragment's code must be resident before
    /// first activation (gate bodies racing the I-cache).
    pub warm: Option<(u64, u64)>,
}

/// A machine-independent description of a built gate: the gate's wiring
/// (a `Copy` value of addresses) plus the program fragments it needs
/// installed, in install order. The gate value in a spec is unbound: it
/// decodes against the threshold its backend calibrates at
/// [`GateSpec::instantiate`].
///
/// # Examples
///
/// ```
/// use uwm_core::gate::tsx::TsxGate;
/// use uwm_core::gate::{GateKind, WeirdGate};
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut lay = Layout::new(8192);
/// let spec = TsxGate::spec(GateKind::TxAnd, &mut lay).unwrap(); // no machine involved
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let gate = spec.instantiate(&mut m);
/// assert!(gate.execute_timed(&mut m, &[true, true]).unwrap().bit);
/// ```
#[derive(Debug, Clone)]
pub struct GateSpec<G> {
    gate: G,
    units: Vec<ProgramUnit>,
    /// The gate's first output register, the line its threshold is
    /// calibrated on.
    probe: u64,
    /// Returns the gate decoding against a given threshold.
    bind: fn(G, u64) -> G,
}

impl<G: Copy> GateSpec<G> {
    /// Wraps a wired gate value, its program fragments, its first output
    /// register and the function that sets its threshold.
    pub(crate) fn new(gate: G, units: Vec<ProgramUnit>, probe: u64, bind: fn(G, u64) -> G) -> Self {
        Self {
            gate,
            units,
            probe,
            bind,
        }
    }

    /// Binds the spec to an execution backend: installs every program
    /// fragment and warms the declared code ranges, in build order, then
    /// calibrates the read threshold on the gate's first output register
    /// and returns the runnable gate, which decodes against it.
    pub fn instantiate<S: Substrate + ?Sized>(&self, s: &mut S) -> G {
        install_units(s, &self.units);
        (self.bind)(self.gate, calibrate_threshold(s, self.probe))
    }

    /// Moves the program fragments onto `units` and returns the unbound
    /// gate value (composite structures — circuits, skelly, XOR — pool
    /// fragments and bind or read on their own).
    pub(crate) fn into_gate(self, units: &mut Vec<ProgramUnit>) -> G {
        units.extend(self.units);
        self.gate
    }
}

/// Common interface over all weird gates: the paper's protocol of
/// initializing the outputs, encoding the inputs, activating the race and
/// timing one read.
///
/// A gate is its [`GateKind`] plus wiring; name, arity and truth come from
/// the kind. The protocol is split in two so a harness can prepare once
/// and re-activate many times from a substrate snapshot (the redundancy
/// voter does). The trait is object-safe and backend-agnostic: harnesses
/// drive gates through `&mut dyn Substrate`.
pub trait WeirdGate {
    /// The gate's kind.
    fn kind(&self) -> GateKind;

    /// Gate name as used in the paper's tables (e.g. `"AND"`, `"TSX_XOR"`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Number of boolean inputs.
    fn arity(&self) -> usize {
        self.kind().arity()
    }

    /// Reference boolean semantics (ground truth for accuracy counting).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    fn truth(&self, inputs: &[bool]) -> bool {
        self.kind().truth(inputs)
    }

    /// First half of the protocol: initialize the output registers and
    /// encode `inputs` — everything input-dependent that precedes
    /// activation. After `begin`, a harness may snapshot the substrate and
    /// replay [`WeirdGate::activate_read`] from it any number of times.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len() != self.arity()`.
    fn begin(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<()>;

    /// Second half of the protocol: activate the gate body and read the
    /// output register. Only meaningful on a substrate state produced by
    /// [`WeirdGate::begin`] (directly or via snapshot restore).
    fn activate_read(&self, s: &mut dyn Substrate) -> GateReading;

    /// Full protocol, reporting the raw output-read delay (the measurement
    /// behind Tables 6–7 and Figures 7–8): [`WeirdGate::begin`], then
    /// [`WeirdGate::activate_read`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len() != self.arity()`.
    fn execute_timed(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<GateReading> {
        self.begin(s, inputs)?;
        Ok(self.activate_read(s))
    }

    /// Full protocol, returning only the output bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len() != self.arity()`.
    fn execute(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<bool> {
        Ok(self.execute_timed(s, inputs)?.bit)
    }
}

/// Result of one timed gate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReading {
    /// The logic value read from the output weird register.
    pub bit: bool,
    /// Raw read delay in cycles.
    pub delay: u64,
}

/// Installs program fragments and warms their declared code ranges, in
/// order.
pub(crate) fn install_units<S: Substrate + ?Sized>(s: &mut S, units: &[ProgramUnit]) {
    for u in units {
        s.install_shared(&u.program);
        if let Some((base, end)) = u.warm {
            s.warm_code_range(base, end);
        }
    }
}

/// Validates an input slice against a gate kind's arity.
pub(crate) fn check_arity(kind: GateKind, inputs: &[bool]) -> Result<()> {
    if inputs.len() == kind.arity() {
        Ok(())
    } else {
        Err(CoreError::Arity {
            gate: kind.name(),
            expected: kind.arity(),
            got: inputs.len(),
        })
    }
}

/// Writes a DC-WR (a data-cache line's residency): touch = 1, flush = 0.
/// Encodes DC inputs and initializes outputs.
pub(crate) fn set_dc<S: Substrate + ?Sized>(s: &mut S, addr: u64, bit: bool) {
    if bit {
        s.timed_read(addr);
    } else {
        s.flush_addr(addr);
    }
}

/// Reads a gate or circuit output: one timed load, decoded as 1 when it
/// is faster than `threshold` — the value
/// [`calibrate_threshold`] measured on this backend. The one place a gate
/// or circuit read delay becomes a bit; the weird registers of
/// [`crate::reg`] still decode against fixed thresholds of their own.
pub(crate) fn read_out<S: Substrate + ?Sized>(s: &mut S, out: u64, threshold: u64) -> GateReading {
    let delay = s.timed_read_tsc(out);
    GateReading {
        bit: delay < threshold,
        delay,
    }
}

/// Exhaustive truth-table check of a gate under quiet noise; returns the
/// first failing input combination, if any. Test/diagnostic helper.
pub fn verify_truth_table(
    gate: &dyn WeirdGate,
    s: &mut dyn Substrate,
) -> Result<Option<Vec<bool>>> {
    let n = gate.arity();
    for bits in 0..(1u32 << n) {
        let inputs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let got = gate.execute(s, &inputs)?;
        if got != gate.truth(&inputs) {
            return Ok(Some(inputs));
        }
    }
    Ok(None)
}
