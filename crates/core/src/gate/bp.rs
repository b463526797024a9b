//! Branch-predictor / instruction-cache weird gates (§3.2, Figures 1–2).
//!
//! Every gate here follows the same pattern. A conditional branch whose
//! condition word is flushed takes a DRAM round-trip to resolve; if the
//! direction predictor was *mistrained*, the wrong path — the gate body —
//! executes speculatively during that window. The body only wins the race
//! if its code line is resident in the instruction cache. Thus:
//!
//! * one input is a **BP-WR** — the trained direction of the gate branch,
//!   set through an *aliased training branch* one predictor stride away
//!   (the gate body is never executed architecturally during training);
//! * the other input is an **IC-WR** — the residency of the body's line;
//! * the output is a **DC-WR** — the body either touches (AND/OR) or
//!   flushes (NAND) the output line.
//!
//! The boolean function is computed by the race itself: no architectural
//! instruction ever combines the inputs.
//!
//! All four kinds are one [`BpGate`] over one or two branch blocks. Like
//! the TSX family, a gate is described machine-free by
//! `BpGate::spec(kind, &mut layout)` and bound to a backend with
//! [`GateSpec::instantiate`]. BP gate code is deliberately **not** warmed
//! at instantiation — body-line residency *is* one of the gate's inputs.

use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::gate::{
    check_arity, read_out, set_dc, GateKind, GateReading, GateSpec, ProgramUnit, WeirdGate,
};
use crate::layout::Layout;
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst};

/// How many times a training branch is executed per input write. Two-bit
/// counters saturate after two; four gives margin against aliasing noise.
pub const TRAIN_ITERS: u32 = 4;

/// Register whose (irrelevant) value the gate bodies store.
const BODY_SRC_REG: u8 = 3;

/// One mistrainable branch block: the gate branch, its aligned body line,
/// and the aliased training branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BranchBlock {
    /// Address of the gate's conditional branch.
    branch_pc: u64,
    /// Address of the (64-byte-aligned) speculative body.
    body: u64,
    /// The branch condition word; always holds 0, so the branch is always
    /// *actually* taken (skipping the body architecturally).
    cond: u64,
    /// Address of the aliased training branch.
    train_pc: u64,
    /// The training branch's condition word.
    train_cond: u64,
}

impl BranchBlock {
    /// Assembles the training branch for a gate branch at `branch_pc` and
    /// returns the completed block plus its program fragment.
    fn finish(
        lay: &mut Layout,
        branch_pc: u64,
        body: u64,
        cond: u64,
    ) -> Result<(Self, ProgramUnit)> {
        let train_cond = lay.alloc_var()?;
        let train_pc = lay.train_alias(branch_pc);
        let mut t = Assembler::new(train_pc);
        // Taken target == fall-through: training only moves the predictor.
        t.push(Inst::Brz {
            cond_addr: train_cond as u32,
            rel: 0,
        });
        t.push(Inst::Halt);
        let block = Self {
            branch_pc,
            body,
            cond,
            train_pc,
            train_cond,
        };
        Ok((
            block,
            ProgramUnit {
                program: Arc::new(t.finish()?),
                warm: None,
            },
        ))
    }

    /// Writes the block's IC-WR: body-line residency.
    fn set_ic<S: Substrate + ?Sized>(&self, s: &mut S, bit: bool) {
        if bit {
            s.touch_code(self.body);
        } else {
            s.flush_addr(self.body);
        }
    }

    /// Writes the block's BP-WR by running the aliased training branch.
    /// `toward_body = true` trains *not-taken* (fall through into the body
    /// on the speculative path).
    fn train<S: Substrate + ?Sized>(&self, s: &mut S, toward_body: bool) {
        s.write_word(self.train_cond, if toward_body { 1 } else { 0 });
        s.timed_read(self.train_cond); // warm: keep training cheap & reliable
        for _ in 0..TRAIN_ITERS {
            s.run_at(self.train_pc);
        }
    }

    /// Flushes the branch condition so resolution opens a long window.
    fn arm<S: Substrate + ?Sized>(&self, s: &mut S) {
        s.flush_addr(self.cond);
    }
}

/// Assembles a gate skeleton of one branch per condition word (Figure 1;
/// Figure 2 for two), each followed by its own 64-byte-aligned `body`
/// line that the branch skips architecturally, then a halt. Returns each
/// block's `(branch_pc, body)` and the program fragment.
fn emit_blocks(
    lay: &mut Layout,
    conds: &[u64],
    body: Inst,
) -> Result<([(u64, u64); 2], ProgramUnit)> {
    let base = lay.alloc_gate_code((2 * conds.len() as u64 + 2) * 64)?;
    let mut a = Assembler::new(base);
    let mut blocks = [(0, 0); 2];
    for ((&cond, block), skip) in conds.iter().zip(&mut blocks).zip(["skip1", "skip2"]) {
        let branch_pc = a.brz(cond as u32, skip);
        a.align_to(64);
        *block = (branch_pc, a.push(body));
        a.align_to(64);
        a.label(skip)?;
    }
    a.push(Inst::Halt);
    let unit = ProgramUnit {
        program: Arc::new(a.finish()?),
        warm: None,
    };
    Ok((blocks, unit))
}

/// A branch-predictor weird gate of any of the four BP kinds.
///
/// * `AND` (Figure 1): `out = ic & bp` — the body (`store out`) runs
///   speculatively only when the predictor was mistrained toward it
///   (*bp*) **and** its line is cached (*ic*).
/// * `NAND` (our construction; §3.2.3 says a NAND exists but leaves it
///   unspecified): the `AND` shape with the output *pre-set to 1* and a
///   `clflush` of the output as the body, so the output drops to 0 exactly
///   when both inputs are 1. NAND is universal, which is what makes the
///   gate set Turing-capable.
/// * `AND_AND_OR`: `out = (a & b) | (c & d)` — two AND blocks storing to
///   one output; the gate the paper's SHA-1 uses for its full adder's
///   carry and the round functions (§5.2, Table 4).
/// * `OR` (Figure 2): the `AND_AND_OR` shape fed `(a, 1, 1, b)` — block 1
///   is always mistrained and its body residency carries `a`; block 2's
///   body stays resident and its training carries `b`.
///
/// # Examples
///
/// ```
/// use uwm_core::gate::bp::BpGate;
/// use uwm_core::gate::{GateKind, WeirdGate};
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let gate = BpGate::spec(GateKind::And, &mut lay).unwrap().instantiate(&mut m);
/// assert!(gate.execute(&mut m, &[true, true]).unwrap());
/// assert!(!gate.execute(&mut m, &[true, false]).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpGate {
    kind: GateKind,
    first: BranchBlock,
    /// The second block of the two-block kinds (`OR`, `AND_AND_OR`).
    second: Option<BranchBlock>,
    out: u64,
    /// Read threshold calibrated on the bound backend (0 until bound).
    threshold: u64,
}

impl BpGate {
    /// Describes a `kind` gate at fresh layout addresses, machine-free.
    ///
    /// # Errors
    ///
    /// Fails with [`CoreError::Wiring`] when `kind` is not of the BP
    /// family, and on layout exhaustion or assembly error.
    pub fn spec(kind: GateKind, lay: &mut Layout) -> Result<GateSpec<Self>> {
        let n = match kind {
            GateKind::And | GateKind::Nand => 1,
            GateKind::Or | GateKind::AndAndOr => 2,
            _ => return Err(CoreError::Wiring { gate: kind.name() }),
        };
        let mut conds = [0; 2];
        for cond in &mut conds[..n] {
            *cond = lay.alloc_var()?;
        }
        let out = lay.alloc_var()?;
        let body = if kind.presets_output() {
            Inst::Flush { addr: out as u32 }
        } else {
            Inst::Store {
                addr: out as u32,
                src: BODY_SRC_REG,
            }
        };
        let (pcs, gate_unit) = emit_blocks(lay, &conds[..n], body)?;
        let mut units = vec![gate_unit];
        let mut block = |i: usize| -> Result<BranchBlock> {
            let (block, train) = BranchBlock::finish(lay, pcs[i].0, pcs[i].1, conds[i])?;
            units.push(train);
            Ok(block)
        };
        let first = block(0)?;
        let second = if n == 2 { Some(block(1)?) } else { None };
        let gate = Self {
            kind,
            first,
            second,
            out,
            threshold: 0,
        };
        Ok(GateSpec::new(gate, units, out, Self::bind))
    }

    /// The gate, decoding its output reads against `threshold`.
    pub(crate) fn bind(self, threshold: u64) -> Self {
        Self { threshold, ..self }
    }
}

impl WeirdGate for BpGate {
    fn kind(&self) -> GateKind {
        self.kind
    }

    /// Writes the IC and BP inputs, initializes the output and arms the
    /// branches. Single-block kinds take `(ic, bp)`; two-block kinds take
    /// `(ic1, bp1, ic2, bp2)`, `OR` as `(a, 1, 1, b)`.
    fn begin(&self, s: &mut dyn Substrate, inputs: &[bool]) -> Result<()> {
        check_arity(self.kind, inputs)?;
        match self.second {
            None => {
                self.first.set_ic(s, inputs[0]);
                self.first.train(s, inputs[1]);
                set_dc(s, self.out, self.kind.presets_output());
                self.first.arm(s);
            }
            Some(second) => {
                let [a, b, c, d] = if self.kind == GateKind::Or {
                    [inputs[0], true, true, inputs[1]]
                } else {
                    [inputs[0], inputs[1], inputs[2], inputs[3]]
                };
                self.first.set_ic(s, a);
                second.set_ic(s, c);
                self.first.train(s, b);
                second.train(s, d);
                s.flush_addr(self.out);
                self.first.arm(s);
                second.arm(s);
            }
        }
        Ok(())
    }

    fn activate_read(&self, s: &mut dyn Substrate) -> GateReading {
        s.run_at(self.first.branch_pc);
        read_out(s, self.out, self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::verify_truth_table;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    fn build(kind: GateKind) -> (Machine, BpGate) {
        let (mut m, mut lay) = setup();
        let g = BpGate::spec(kind, &mut lay).unwrap().instantiate(&mut m);
        (m, g)
    }

    fn truth_table_holds(kind: GateKind) {
        let (mut m, g) = build(kind);
        assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None, "{kind:?}");
    }

    #[test]
    fn and_truth_table() {
        truth_table_holds(GateKind::And);
    }

    #[test]
    fn or_truth_table() {
        truth_table_holds(GateKind::Or);
    }

    #[test]
    fn nand_truth_table() {
        truth_table_holds(GateKind::Nand);
    }

    #[test]
    fn and_and_or_truth_table() {
        truth_table_holds(GateKind::AndAndOr);
    }

    #[test]
    fn gates_are_reusable_and_stable() {
        let (mut m, g) = build(GateKind::And);
        for i in 0..50 {
            let a = i % 2 == 0;
            let b = i % 3 == 0;
            assert_eq!(g.execute(&mut m, &[a, b]).unwrap(), a & b, "iteration {i}");
        }
    }

    #[test]
    fn two_gate_instances_do_not_interfere() {
        let (mut m, mut lay) = setup();
        let g1 = BpGate::spec(GateKind::And, &mut lay)
            .unwrap()
            .instantiate(&mut m);
        let g2 = BpGate::spec(GateKind::Or, &mut lay)
            .unwrap()
            .instantiate(&mut m);
        assert!(g1.execute(&mut m, &[true, true]).unwrap());
        assert!(!g2.execute(&mut m, &[false, false]).unwrap());
        assert!(!g1.execute(&mut m, &[false, true]).unwrap());
        assert!(g2.execute(&mut m, &[true, false]).unwrap());
    }

    /// One spec can instantiate the same gate on any number of machines —
    /// the mechanism behind sharded execution.
    #[test]
    fn one_spec_instantiates_on_many_machines() {
        let mut lay = Layout::new(8192);
        let spec = BpGate::spec(GateKind::And, &mut lay).unwrap();
        for seed in 0..3 {
            let mut m = Machine::new(MachineConfig::quiet(), seed);
            let g = spec.instantiate(&mut m);
            assert_eq!(verify_truth_table(&g, &mut m).unwrap(), None, "seed {seed}");
        }
    }

    #[test]
    fn reading_reports_bimodal_delays() {
        let (mut m, g) = build(GateKind::And);
        let one = g.execute_timed(&mut m, &[true, true]).unwrap();
        let zero = g.execute_timed(&mut m, &[true, false]).unwrap();
        assert!(one.bit && !zero.bit);
        assert!(zero.delay > one.delay + 100, "hit/miss separation");
    }

    /// Every kind validates its input count, and TSX kinds do not build
    /// as branch-predictor gates.
    #[test]
    fn arity_is_validated() {
        let (mut m, mut lay) = setup();
        for kind in GateKind::ALL {
            let Ok(spec) = BpGate::spec(kind, &mut lay) else {
                assert!(kind.is_tsx(), "{kind:?}");
                continue;
            };
            let g = spec.instantiate(&mut m);
            assert_eq!(
                g.execute_timed(&mut m, &[true]),
                Err(CoreError::Arity {
                    gate: kind.name(),
                    expected: kind.arity(),
                    got: 1,
                })
            );
        }
    }

    /// The gate's logic is invisible to the architectural analyzer: the
    /// activation (branch execution) commits the same instruction stream
    /// for every input combination.
    #[test]
    fn activation_trace_is_input_independent() {
        let (mut m, g) = build(GateKind::And);
        let mut fingerprints = Vec::new();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            g.begin(&mut m, &[a, b]).unwrap();
            *m.tracer_mut() = uwm_sim::trace::Tracer::new();
            m.run_at(g.first.branch_pc); // the gate activation itself
            fingerprints.push(m.tracer().fingerprint());
            *m.tracer_mut() = uwm_sim::trace::Tracer::disabled();
        }
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "gate activation must commit identical architectural traces"
        );
    }
}
