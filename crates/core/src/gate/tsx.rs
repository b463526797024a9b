//! TSX-based weird gates (§4, Figure 3).
//!
//! Each gate is one transaction: an `xbegin`, an immediate divide-by-zero,
//! and a dependent load chain. The fault dooms the transaction, but the
//! pipeline keeps executing the chain for a short *post-fault speculative
//! window* before the abort squashes it. Whether the chain's final access
//! issues inside that window depends on whether its inputs were cache hits
//! — which is the boolean function.
//!
//! All inputs and outputs are DC-WRs (variables holding the value 0, so
//! `value + ADDR(out)` dereferences `out`). Because every register is the
//! same kind, gate outputs feed directly into later gates' inputs with no
//! architectural intermediate — the property [weird
//! circuits](crate::circuit) are built on.
//!
//! Reads of intermediate registers never happen; the paper stresses that a
//! debugger attached to the transaction sees only `xbegin` followed by the
//! abort handler.
//!
//! [`TsxGate`] covers the single-transaction kinds (ASSIGN, AND, OR,
//! AND_OR, NOT): the kind selects the load chain and the output preset.
//! [`TsxXor`] chains three of them. Both follow the spec/instance split:
//! `spec`/`spec_wired` produce a machine-independent [`GateSpec`] from a
//! [`Layout`] alone, and [`GateSpec::instantiate`] binds it to a
//! [`Substrate`].

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::gate::{
    check_arity, read_out, set_dc, GateKind, GateReading, GateSpec, ProgramUnit, WeirdGate,
};
use crate::layout::Layout;
use crate::substrate::Substrate;
use uwm_sim::isa::{AluOp, Assembler, Inst, Operand};

const R_TRASH: u8 = 1;
const R_A: u8 = 2;
const R_B: u8 = 5;
const R_T0: u8 = 6;
const R_T1: u8 = 7;
const R_T2: u8 = 8;

/// Assembles the transaction prologue (`xbegin` + faulting divide), the
/// gate body `chain`, and the closing `xend` + abort handler. Returns the
/// entry pc and the program fragment; nothing touches a machine.
fn emit_tx(lay: &mut Layout, chain: &[Inst]) -> Result<(u64, ProgramUnit)> {
    let base = lay.alloc_app_code((chain.len() as u64 + 4) * 8)?;
    let mut a = Assembler::new(base);
    a.xbegin("handler");
    a.push(Inst::Div {
        dst: R_TRASH,
        a: R_TRASH,
        b: Operand::Imm(0),
    });
    for &inst in chain {
        a.push(inst);
    }
    a.push(Inst::Xend); // unreachable: the fault always aborts
    a.label("handler")?;
    a.push(Inst::Halt);
    let end = a.pc();
    // skelly "initializes [gate memory] at run time" (§6.2): a cold code
    // line would lose the speculative race on the first activation, so the
    // spec declares the whole transaction for warming at instantiation.
    Ok((
        base,
        ProgramUnit {
            program: Arc::new(a.finish()?),
            warm: Some((base, end)),
        },
    ))
}

/// `dst := *addr` — loading an input register's value (0).
fn load(dst: u8, addr: u64) -> Inst {
    Inst::Load {
        dst,
        addr: addr as u32,
    }
}

/// `dst := a + b` — combining two loaded values so the next dereference
/// depends on both.
fn add(dst: u8, a: u8, b: u8) -> Inst {
    Inst::Alu {
        op: AluOp::Add,
        dst,
        a,
        b: Operand::Reg(b),
    }
}

/// `*(src + ADDR(out))` — the output-setting dereference.
fn deref(src: u8, tmp: u8, out: u64) -> [Inst; 2] {
    [
        Inst::Alu {
            op: AluOp::Add,
            dst: tmp,
            a: src,
            b: Operand::Imm(out as u32),
        },
        Inst::LoadInd {
            dst: R_TRASH,
            base: tmp,
            offset: 0,
        },
    ]
}

/// A single-transaction TSX gate: `ASSIGN` (`*(*in + ADDR(out))`), `AND`
/// (`*(*a + *b + ADDR(out))`), `OR` (two assignment chains into one
/// output), the Figure 3 `AND_OR` (both at once, AND output first) or
/// `NOT`.
///
/// `NOT` is our construction (the paper uses a NOT inside its XOR but
/// does not spell it out): the output is *pre-set to 1* and a speculative
/// `flush [*in + ADDR(out)]` only issues if the input loads in time, so
/// `out = !in`.
///
/// # Examples
///
/// ```
/// use uwm_core::gate::tsx::TsxGate;
/// use uwm_core::gate::{GateKind, WeirdGate};
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let gate = TsxGate::spec(GateKind::TxAssign, &mut lay).unwrap().instantiate(&mut m);
/// assert!(gate.execute(&mut m, &[true]).unwrap());
/// assert!(!gate.execute(&mut m, &[false]).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxGate {
    kind: GateKind,
    pc: u64,
    /// Input registers; the first `kind.arity()` are wired.
    ins: [u64; 2],
    /// Output registers; the first `kind.outputs()` are wired.
    outs: [u64; 2],
}

impl TsxGate {
    /// Describes a `kind` gate with freshly allocated input registers,
    /// then output registers.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Wiring`] when `kind` is not a
    /// single-transaction TSX kind, and on layout exhaustion or assembly
    /// error.
    pub fn spec(kind: GateKind, lay: &mut Layout) -> Result<GateSpec<Self>> {
        let n = kind.arity();
        let mut regs = [0; 5]; // room for any kind's registers: 4 in + 1 out
        let regs = &mut regs[..n + kind.outputs()];
        for r in regs.iter_mut() {
            *r = lay.alloc_var()?;
        }
        Self::spec_wired(kind, lay, &regs[..n], &regs[n..])
    }

    /// Describes a `kind` gate over existing registers (circuit wiring).
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Wiring`] when `kind` is not a
    /// single-transaction TSX kind or the register counts do not match its
    /// inputs and outputs, and on layout exhaustion or assembly error.
    pub fn spec_wired(
        kind: GateKind,
        lay: &mut Layout,
        ins: &[u64],
        outs: &[u64],
    ) -> Result<GateSpec<Self>> {
        if kind == GateKind::TxXor
            || !kind.is_tsx()
            || ins.len() != kind.arity()
            || outs.len() != kind.outputs()
        {
            return Err(CoreError::Wiring { gate: kind.name() });
        }
        let mut chain = Vec::with_capacity(9);
        chain.push(load(R_A, ins[0]));
        if let Some(&b) = ins.get(1) {
            chain.push(load(R_B, b));
        }
        match kind {
            GateKind::TxAssign => chain.extend(deref(R_A, R_T0, outs[0])),
            GateKind::TxNot => chain.push(Inst::FlushInd {
                base: R_A,
                offset: outs[0] as u32,
            }),
            GateKind::TxAnd => {
                chain.push(add(R_T0, R_A, R_B));
                chain.extend(deref(R_T0, R_T1, outs[0]));
            }
            GateKind::TxOr => {
                chain.extend(deref(R_A, R_T0, outs[0]));
                chain.extend(deref(R_B, R_T1, outs[0]));
            }
            _ => {
                // AND_OR (Figure 3): d3 := d0; d3 := d1; d2 := d0 & d1.
                chain.extend(deref(R_A, R_T0, outs[1]));
                chain.extend(deref(R_B, R_T1, outs[1]));
                chain.push(add(R_T2, R_A, R_B));
                chain.extend(deref(R_T2, R_T2, outs[0]));
            }
        }
        let (pc, unit) = emit_tx(lay, &chain)?;
        let mut gate = Self {
            kind,
            pc,
            ins: [0; 2],
            outs: [0; 2],
        };
        gate.ins[..ins.len()].copy_from_slice(ins);
        gate.outs[..outs.len()].copy_from_slice(outs);
        Ok(GateSpec::new(gate, vec![unit]))
    }

    /// Input register addresses.
    pub fn ins(&self) -> &[u64] {
        &self.ins[..self.kind.arity()]
    }

    /// Output register addresses (`AND_OR`: the AND output, then the OR).
    pub fn outs(&self) -> &[u64] {
        &self.outs[..self.kind.outputs()]
    }

    /// Entry pc of the gate's transaction (circuit-plan compilation).
    pub fn entry_pc(&self) -> u64 {
        self.pc
    }

    /// Initializes the outputs: flushed to 0, or touched to 1 for `NOT`.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        for &out in self.outs() {
            set_dc(s, out, self.kind.presets_output());
        }
    }

    /// Runs the transaction only — inputs and outputs untouched.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.run_at(self.pc);
    }

    /// Like [`WeirdGate::execute_timed`], but reads every output in order
    /// (`AND_OR`: `[a & b, a | b]`, both measured by Table 6).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] when `inputs.len()` is not the arity.
    pub fn execute_readings(
        &self,
        s: &mut dyn Substrate,
        inputs: &[bool],
    ) -> Result<Vec<GateReading>> {
        self.begin(s, inputs)?;
        self.activate(s);
        Ok(self.outs().iter().map(|&out| read_out(s, out)).collect())
    }
}

impl WeirdGate for TsxGate {
    fn kind(&self) -> GateKind {
        self.kind
    }

    fn begin(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<()> {
        check_arity(self.kind, inputs)?;
        self.prepare(s);
        for (&addr, &bit) in self.ins().iter().zip(inputs) {
            set_dc(s, addr, bit);
        }
        Ok(())
    }

    /// Activates and reads every output in order, reporting the first:
    /// `AND_OR`'s single-output view is its AND output, and its OR output
    /// is read right after.
    fn activate_read(&self, s: &mut dyn Substrate) -> GateReading {
        self.activate(s);
        let first = read_out(s, self.outs[0]);
        if let [_, or] = self.outs() {
            read_out(s, *or);
        }
        first
    }
}

/// The TSX `XOR` circuit (§4.1): `AND_OR` + `NOT` + `AND` chained through
/// DC-WR intermediates that are never read architecturally.
///
/// `xor(a,b) = (a | b) & !(a & b)` — three transactions, no visible
/// intermediate values. This is the gate the weird-obfuscation scheme's
/// one-time-pad decode runs on (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsxXor {
    /// `AND_OR`, `NOT`, `AND`, in dataflow order.
    txs: [TsxGate; 3],
}

impl TsxXor {
    /// Describes the circuit with freshly allocated registers.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec(lay: &mut Layout) -> Result<GateSpec<Self>> {
        let in_a = lay.alloc_var()?;
        let in_b = lay.alloc_var()?;
        let out = lay.alloc_var()?;
        Self::spec_wired(lay, in_a, in_b, out)
    }

    /// Describes the circuit over existing input/output registers,
    /// allocating private intermediates.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn spec_wired(lay: &mut Layout, in_a: u64, in_b: u64, out: u64) -> Result<GateSpec<Self>> {
        let d_and = lay.alloc_var()?;
        let d_or = lay.alloc_var()?;
        let d_not = lay.alloc_var()?;
        let mut units = Vec::new();
        let mut tx = |kind, ins: &[u64], outs: &[u64]| -> Result<TsxGate> {
            Ok(TsxGate::spec_wired(kind, lay, ins, outs)?.into_gate(&mut units))
        };
        let txs = [
            tx(GateKind::TxAndOr, &[in_a, in_b], &[d_and, d_or])?,
            tx(GateKind::TxNot, &[d_and], &[d_not])?,
            tx(GateKind::TxAnd, &[d_or, d_not], &[out])?,
        ];
        Ok(GateSpec::new(Self { txs }, units))
    }

    /// Input register addresses.
    pub fn ins(&self) -> &[u64] {
        self.txs[0].ins()
    }

    /// Output register address.
    pub fn out(&self) -> u64 {
        self.txs[2].outs[0]
    }

    /// Initializes all outputs and intermediates.
    pub fn prepare<S: Substrate + ?Sized>(&self, s: &mut S) {
        for tx in &self.txs {
            tx.prepare(s);
        }
    }

    /// Activates the three transactions in dataflow order. All
    /// intermediate values live only in cache state.
    pub fn activate<S: Substrate + ?Sized>(&self, s: &mut S) {
        for tx in &self.txs {
            tx.activate(s);
        }
    }
}

impl WeirdGate for TsxXor {
    fn kind(&self) -> GateKind {
        GateKind::TxXor
    }

    fn begin(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<()> {
        check_arity(GateKind::TxXor, inputs)?;
        self.prepare(s);
        for (&addr, &bit) in self.ins().iter().zip(inputs) {
            set_dc(s, addr, bit);
        }
        Ok(())
    }

    fn activate_read(&self, s: &mut dyn Substrate) -> GateReading {
        self.activate(s);
        read_out(s, self.out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::verify_truth_table;
    use crate::substrate::FlatEmulator;
    use uwm_sim::machine::{Machine, MachineConfig};
    use uwm_sim::trace::{ArchEvent, Tracer};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    fn build(kind: GateKind) -> (Machine, TsxGate) {
        let (mut m, mut lay) = setup();
        let g = TsxGate::spec(kind, &mut lay).unwrap().instantiate(&mut m);
        (m, g)
    }

    fn truth_table_holds(kind: GateKind) {
        let (mut m, g) = build(kind);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None, "{kind:?}");
    }

    #[test]
    fn assign_truth_table() {
        truth_table_holds(GateKind::TxAssign);
    }

    #[test]
    fn and_truth_table() {
        truth_table_holds(GateKind::TxAnd);
    }

    #[test]
    fn or_truth_table() {
        truth_table_holds(GateKind::TxOr);
    }

    #[test]
    fn not_truth_table() {
        truth_table_holds(GateKind::TxNot);
    }

    #[test]
    fn xor_truth_table() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
    }

    #[test]
    fn and_or_computes_both_outputs() {
        let (mut m, g) = build(GateKind::TxAndOr);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let bits: Vec<bool> = g
                .execute_readings(&mut m, &[a, b])
                .unwrap()
                .iter()
                .map(|r| r.bit)
                .collect();
            assert_eq!(bits, [a & b, a | b], "inputs ({a},{b})");
        }
    }

    /// Only the single-transaction TSX kinds build as a `TsxGate`, and
    /// only over as many registers as the kind has inputs and outputs.
    #[test]
    fn wrong_kind_or_wiring_is_rejected() {
        let (_m, mut lay) = setup();
        for kind in [GateKind::And, GateKind::AndAndOr, GateKind::TxXor] {
            assert_eq!(
                TsxGate::spec(kind, &mut lay).unwrap_err(),
                CoreError::Wiring { gate: kind.name() }
            );
        }
        assert!(matches!(
            TsxGate::spec_wired(GateKind::TxAnd, &mut lay, &[0x100], &[0x140]),
            Err(CoreError::Wiring { gate: "TSX_AND" })
        ));
    }

    #[test]
    fn gates_are_reusable() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        for i in 0..100 {
            let a = (i >> 1) % 2 == 0;
            let b = i % 2 == 0;
            assert_eq!(g.execute(&mut m, &[a, b]).unwrap(), a ^ b, "iteration {i}");
        }
    }

    /// One spec, two backends: on the simulator the gate computes; on the
    /// flat emulator the post-fault window does not exist, so the output
    /// read is hit-like regardless of input — the gate degenerates. This
    /// asymmetry is the emulation-detection signal of §7.
    #[test]
    fn same_spec_instantiates_on_both_backends() {
        let mut lay = Layout::new(crate::substrate::flat::DEFAULT_ALIAS_STRIDE);
        let spec = TsxGate::spec(GateKind::TxAnd, &mut lay).unwrap();

        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let g_sim = spec.instantiate(&mut m);
        assert_eq!(verify_truth_table(&g_sim, &mut m).unwrap(), None);

        let mut f = FlatEmulator::new();
        let g_flat = spec.instantiate(&mut f);
        assert_eq!(g_sim, g_flat, "specs bind the same wiring everywhere");
        for (a, b) in [(false, false), (false, true), (true, false)] {
            assert!(
                g_flat.execute(&mut f, &[a, b]).unwrap(),
                "flat backend always reads hit-like: gate output degenerates to 1"
            );
        }
    }

    /// The paper's central claim for TSX gates: the transaction aborts, so
    /// the analyzer sees only `xbegin` + abort; the chain never commits.
    #[test]
    fn aborted_gate_body_is_architecturally_invisible() {
        let (mut m, g) = build(GateKind::TxAnd);
        g.begin(&mut m, &[true, true]).unwrap();
        *m.tracer_mut() = Tracer::new();
        g.activate(&mut m);
        let events = m.tracer().events().to_vec();
        // Expect: Commit(xbegin), TxAbort, Commit(halt)+RegWrites only.
        assert!(events
            .iter()
            .any(|e| matches!(e, ArchEvent::TxAbort { .. })));
        let leaked = events.iter().any(|e| {
            matches!(e, ArchEvent::Commit { inst, .. }
                if matches!(inst, Inst::Load { .. } | Inst::LoadInd { .. } | Inst::Div { .. }))
        });
        assert!(
            !leaked,
            "chain instructions must not appear in the trace: {events:?}"
        );
    }

    /// Activation traces are identical across all input combinations.
    #[test]
    fn activation_trace_is_input_independent() {
        let (mut m, mut lay) = setup();
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        let mut prints = Vec::new();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            g.begin(&mut m, &[a, b]).unwrap();
            *m.tracer_mut() = Tracer::new();
            g.activate(&mut m);
            prints.push(m.tracer().fingerprint());
            *m.tracer_mut() = Tracer::disabled();
        }
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
    }

    /// Consecutive-gate composability (§4 property 1): activating a gate
    /// twice in a row still works — no BPU-style retraining needed.
    #[test]
    fn repeated_activation_is_contiguous() {
        let (mut m, g) = build(GateKind::TxAssign);
        g.begin(&mut m, &[true]).unwrap();
        g.activate(&mut m);
        g.activate(&mut m);
        assert!(g.activate_read(&mut m).bit);
    }
}
