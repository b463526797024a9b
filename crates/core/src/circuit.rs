//! Weird circuits (§4): TSX gates chained through microarchitectural state.
//!
//! A circuit is a DAG of TSX gates whose intermediate wires are DC-WRs that
//! are **never read architecturally**: data enters the MA layer once (the
//! primary inputs), flows through cache residency, and only the designated
//! outputs are ever timed. An analyzer watching every architectural event
//! sees an input-independent instruction stream.
//!
//! Because reading a weird register destroys a stored 0 (state
//! decoherence), the builder enforces the *single-consumption rule*: a wire
//! may feed any number of inputs of **one** gate, but once a gate has
//! consumed it, no later gate may read it again.
//!
//! Circuit construction follows the spec/instance split: the
//! [`CircuitBuilder`] works against a [`Layout`] only and
//! [`CircuitBuilder::finish`] yields a machine-independent [`CircuitSpec`];
//! [`CircuitSpec::instantiate`] binds it to any [`Substrate`] — possibly
//! several, possibly one per executor shard.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::gate::tsx::TsxGate;
use crate::gate::{read_out, set_dc, GateKind, GateReading, ProgramUnit, WeirdGate};
use crate::layout::Layout;
use crate::skelly::calibrate_threshold;
use crate::substrate::Substrate;
use uwm_sim::isa::Program;

/// A handle to one weird-register wire inside a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire(usize);

/// One gate of a circuit: the wired TSX gate plus the wires its input
/// and output registers belong to.
#[derive(Debug, Clone, Copy)]
struct Step {
    gate: TsxGate,
    /// Input wires; the first `kind.arity()` are used.
    ins: [Wire; 2],
    /// Output wires; the first `kind.outputs()` are used.
    outs: [Wire; 2],
}

impl Step {
    fn in_wires(&self) -> &[Wire] {
        &self.ins[..self.gate.ins().len()]
    }

    fn out_wires(&self) -> &[Wire] {
        &self.outs[..self.gate.outs().len()]
    }

    /// Appends the step's output-initialization ops: flush to 0, or touch
    /// to pre-set 1 for the kinds that clear their output (NOT).
    fn push_preps(&self, preps: &mut Vec<PrepOp>) {
        let preset = self.gate.kind().presets_output();
        for &addr in self.gate.outs() {
            preps.push(PrepOp { addr, preset });
        }
    }

    /// Architectural reference: the kind's truth on the first output; the
    /// second output of `AND_OR` is the OR.
    fn eval(&self, bits: &mut [bool]) {
        let kind = self.gate.kind();
        let x = [bits[self.ins[0].0], bits[self.ins[1].0]];
        let x = &x[..kind.arity()];
        bits[self.outs[0].0] = kind.truth(x);
        if let [_, q_or] = self.out_wires() {
            bits[q_or.0] = GateKind::TxOr.truth(x);
        }
    }
}

/// Builds a [`CircuitSpec`] gate by gate, with no machine in sight.
///
/// # Examples
///
/// ```
/// use uwm_core::circuit::CircuitBuilder;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let mut cb = CircuitBuilder::new();
/// let a = cb.input(&mut lay).unwrap();
/// let b = cb.input(&mut lay).unwrap();
/// let q = cb.xor(&mut lay, a, b).unwrap();
/// cb.mark_output(q);
/// let circuit = cb.finish().unwrap().instantiate(&mut m);
/// assert_eq!(circuit.run(&mut m, &[true, false]).unwrap(), vec![true]);
/// assert_eq!(circuit.run(&mut m, &[true, true]).unwrap(), vec![false]);
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    wires: Vec<u64>,
    consumed: Vec<bool>,
    inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    steps: Vec<Step>,
    units: Vec<ProgramUnit>,
}

impl CircuitBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_wire(&mut self, lay: &mut Layout) -> Result<Wire> {
        let addr = lay.alloc_var()?;
        self.wires.push(addr);
        self.consumed.push(false);
        Ok(Wire(self.wires.len() - 1))
    }

    fn consume(&mut self, wires: &[Wire]) -> Result<()> {
        for w in wires {
            if self.consumed[w.0] {
                return Err(CoreError::WireReused { wire: w.0 });
            }
        }
        for w in wires {
            self.consumed[w.0] = true;
        }
        Ok(())
    }

    /// Declares a primary input wire.
    ///
    /// # Errors
    ///
    /// Fails when the variable region is exhausted.
    pub fn input(&mut self, lay: &mut Layout) -> Result<Wire> {
        let w = self.fresh_wire(lay)?;
        self.inputs.push(w);
        Ok(w)
    }

    /// Adds one `kind` gate consuming `ins`; returns its output wires
    /// (the second is the first again for one-output kinds).
    fn gate(&mut self, lay: &mut Layout, kind: GateKind, ins: [Wire; 2]) -> Result<[Wire; 2]> {
        let (n_in, n_out) = (kind.arity(), kind.outputs());
        self.consume(&ins[..n_in])?;
        let q = self.fresh_wire(lay)?;
        let outs = if n_out == 2 {
            [q, self.fresh_wire(lay)?]
        } else {
            [q, q]
        };
        let addr = |w: Wire| self.wires[w.0];
        let (in_addrs, out_addrs) = (ins.map(addr), outs.map(addr));
        let gate = TsxGate::spec_wired(kind, lay, &in_addrs[..n_in], &out_addrs[..n_out])?
            .into_gate(&mut self.units);
        self.steps.push(Step { gate, ins, outs });
        Ok(outs)
    }

    /// Adds `q := a` and returns `q`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn assign(&mut self, lay: &mut Layout, a: Wire) -> Result<Wire> {
        Ok(self.gate(lay, GateKind::TxAssign, [a, a])?[0])
    }

    /// Adds `q := !a` and returns `q`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn not(&mut self, lay: &mut Layout, a: Wire) -> Result<Wire> {
        Ok(self.gate(lay, GateKind::TxNot, [a, a])?[0])
    }

    /// Adds `q := a & b` and returns `q`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn and(&mut self, lay: &mut Layout, a: Wire, b: Wire) -> Result<Wire> {
        Ok(self.gate(lay, GateKind::TxAnd, [a, b])?[0])
    }

    /// Adds `q := a | b` and returns `q`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn or(&mut self, lay: &mut Layout, a: Wire, b: Wire) -> Result<Wire> {
        Ok(self.gate(lay, GateKind::TxOr, [a, b])?[0])
    }

    /// Adds the Figure 3 combined gate; returns `(a & b, a | b)`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn and_or(&mut self, lay: &mut Layout, a: Wire, b: Wire) -> Result<(Wire, Wire)> {
        let [q_and, q_or] = self.gate(lay, GateKind::TxAndOr, [a, b])?;
        Ok((q_and, q_or))
    }

    /// Adds `q := a ^ b` (the §4.1 three-transaction construction) and
    /// returns `q`.
    ///
    /// # Errors
    ///
    /// Fails on wire reuse or layout exhaustion.
    pub fn xor(&mut self, lay: &mut Layout, a: Wire, b: Wire) -> Result<Wire> {
        let (d_and, d_or) = self.and_or(lay, a, b)?;
        let d_not = self.not(lay, d_and)?;
        self.and(lay, d_or, d_not)
    }

    /// Marks `w` as a circuit output (read architecturally by
    /// [`Circuit::run`]).
    pub fn mark_output(&mut self, w: Wire) {
        self.outputs.push(w);
    }

    /// Finalizes the machine-independent circuit description.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WireReused`] if an output wire was consumed by
    /// a gate, or was marked as an output twice — its read would observe a
    /// decohered value.
    pub fn finish(self) -> Result<CircuitSpec> {
        let mut seen = vec![false; self.wires.len()];
        for w in &self.outputs {
            if self.consumed[w.0] || seen[w.0] {
                return Err(CoreError::WireReused { wire: w.0 });
            }
            seen[w.0] = true;
        }
        // Dedupe pooled fragments: composed specs can contribute the same
        // Arc-shared unit more than once; installing it twice would only
        // re-predecode identical code. The first occurrence stays, so the
        // install order is unchanged.
        let mut units = self.units;
        let mut seen = HashSet::with_capacity(units.len());
        units.retain(|u| seen.insert(Arc::as_ptr(&u.program)));
        Ok(CircuitSpec {
            wires: self.wires,
            inputs: self.inputs,
            outputs: self.outputs,
            steps: self.steps,
            units,
        })
    }
}

/// A machine-independent circuit description: wiring, gate programs and
/// dataflow, ready to be bound to any number of backends.
#[derive(Clone)]
pub struct CircuitSpec {
    wires: Vec<u64>,
    inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    steps: Vec<Step>,
    units: Vec<ProgramUnit>,
}

impl fmt::Debug for CircuitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitSpec")
            .field("wires", &self.wires.len())
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("gates", &self.steps.len())
            .finish()
    }
}

impl CircuitSpec {
    /// Compiles the spec into an executable [`CircuitPlan`]: gates are
    /// topologically leveled into wavefronts, the per-run protocol is
    /// flattened into precomputed address arrays, and every gate program is
    /// merged into one shared image installed with a single predecode pass.
    /// No machine is involved; compile once, instantiate per backend.
    pub fn compile(&self) -> CircuitPlan {
        // Wavefront leveling: a gate's level is one past its deepest
        // producer; primary inputs sit at level 0. Order within a level
        // follows build order, so the plan order is a stable topological
        // sort — the canonical activation order for serial and batch runs.
        let mut wire_level = vec![0usize; self.wires.len()];
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(self.steps.len());
        for (i, step) in self.steps.iter().enumerate() {
            let lvl = 1 + step
                .in_wires()
                .iter()
                .map(|w| wire_level[w.0])
                .max()
                .unwrap_or(0);
            for w in step.out_wires() {
                wire_level[w.0] = lvl;
            }
            order.push((lvl, i));
        }
        order.sort_unstable();

        let mut steps = Vec::with_capacity(self.steps.len());
        let mut preps = Vec::new();
        let mut activations = Vec::with_capacity(self.steps.len());
        let mut level_starts = Vec::new();
        let mut cur_level = 0;
        for &(lvl, i) in &order {
            if lvl > cur_level {
                level_starts.push(activations.len());
                cur_level = lvl;
            }
            let step = self.steps[i];
            step.push_preps(&mut preps);
            activations.push(step.gate.entry_pc());
            steps.push(step);
        }

        let mut program = Program::new();
        let mut warm = Vec::new();
        for u in &self.units {
            program.merge_from(&u.program);
            if let Some(range) = u.warm {
                warm.push(range);
            }
        }

        CircuitPlan {
            wires: self.wires.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            steps,
            preps,
            activations,
            level_starts,
            input_addrs: self.inputs.iter().map(|w| self.wires[w.0]).collect(),
            output_addrs: self.outputs.iter().map(|w| self.wires[w.0]).collect(),
            program: Arc::new(program),
            warm,
        }
    }

    /// Compiles and binds in one step — the convenience path when a spec
    /// is only ever bound once. Sharded and batch callers should
    /// [`CircuitSpec::compile`] once and instantiate the plan per backend.
    pub fn instantiate<S: Substrate + ?Sized>(&self, s: &mut S) -> Circuit {
        self.compile().instantiate(s)
    }
}

/// One output-initialization op of the flattened per-run protocol: flush
/// the line to store 0, or touch it to pre-set 1 (NOT gates).
#[derive(Debug, Clone, Copy)]
struct PrepOp {
    addr: u64,
    preset: bool,
}

/// A compiled circuit: the machine-free product of
/// [`CircuitSpec::compile`].
///
/// The plan holds everything a run needs as flat precomputed arrays —
/// output-initialization ops, primary-input addresses, gate entry pcs in
/// wavefront (level-major) order, output addresses — plus the single
/// merged program image shared by every backend the plan is bound to.
/// [`CircuitPlan::instantiate`] installs that image with one predecode
/// pass, warms the declared ranges, and calibrates the read threshold
/// against the backend it binds to.
#[derive(Clone)]
pub struct CircuitPlan {
    wires: Vec<u64>,
    inputs: Vec<Wire>,
    outputs: Vec<Wire>,
    /// Steps in plan (level-major) order; retained for reference
    /// evaluation.
    steps: Vec<Step>,
    preps: Vec<PrepOp>,
    activations: Vec<u64>,
    /// Start index in `activations` of each wavefront.
    level_starts: Vec<usize>,
    input_addrs: Vec<u64>,
    output_addrs: Vec<u64>,
    program: Arc<Program>,
    warm: Vec<(u64, u64)>,
}

impl fmt::Debug for CircuitPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitPlan")
            .field("wires", &self.wires.len())
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("gates", &self.activations.len())
            .field("levels", &self.depth())
            .field("insts", &self.program.len())
            .finish()
    }
}

impl CircuitPlan {
    /// Number of gate activations per run.
    pub fn gate_count(&self) -> usize {
        self.activations.len()
    }

    /// Number of wavefronts (the circuit's critical-path depth in gates).
    pub fn depth(&self) -> usize {
        self.level_starts.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of designated outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Binds the plan to an execution backend: installs the merged program
    /// image (one predecode pass), warms the declared code ranges, then
    /// calibrates the read threshold against this backend's actual timing
    /// by probing the first output wire. A circuit with no outputs reads
    /// nothing, so it calibrates nothing.
    pub fn instantiate<S: Substrate + ?Sized>(&self, s: &mut S) -> Circuit {
        s.install_shared(&self.program);
        for &(base, end) in &self.warm {
            s.warm_code_range(base, end);
        }
        let threshold = self
            .output_addrs
            .first()
            .map_or(0, |&probe| calibrate_threshold(s, probe));
        Circuit {
            plan: self.clone(),
            threshold,
        }
    }
}

/// A finished weird circuit bound to a backend: activate-only gates over
/// shared weird registers, with designated architectural inputs and
/// outputs.
pub struct Circuit {
    plan: CircuitPlan,
    threshold: u64,
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("wires", &self.plan.wires.len())
            .field("inputs", &self.plan.inputs.len())
            .field("outputs", &self.plan.outputs.len())
            .field("gates", &self.plan.activations.len())
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl Circuit {
    /// Number of gate activations per run.
    pub fn gate_count(&self) -> usize {
        self.plan.gate_count()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.plan.inputs.len()
    }

    /// Number of designated outputs.
    pub fn output_count(&self) -> usize {
        self.plan.outputs.len()
    }

    /// The read threshold calibrated at instantiation on the backend the
    /// circuit is bound to (0 for a circuit with no outputs, which reads
    /// nothing).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Runs the circuit: initializes every gate output, stores
    /// `input_bits` into the primary input registers, activates the
    /// wavefronts in plan order (data flows through MA state only), then
    /// reads the designated outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] if `input_bits.len()` differs from the
    /// declared inputs.
    pub fn run<S: Substrate + ?Sized>(&self, s: &mut S, input_bits: &[bool]) -> Result<Vec<bool>> {
        Ok(self
            .run_timed(s, input_bits)?
            .into_iter()
            .map(|r| r.bit)
            .collect())
    }

    /// Like [`Circuit::run`], but reports each output's raw read delay
    /// alongside the decoded bit (golden equivalence tests compare these).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] if `input_bits.len()` differs from the
    /// declared inputs.
    pub fn run_timed<S: Substrate + ?Sized>(
        &self,
        s: &mut S,
        input_bits: &[bool],
    ) -> Result<Vec<GateReading>> {
        self.check_inputs(input_bits)?;
        for p in &self.plan.preps {
            set_dc(s, p.addr, p.preset);
        }
        for (&addr, &bit) in self.plan.input_addrs.iter().zip(input_bits) {
            set_dc(s, addr, bit);
        }
        for &pc in &self.plan.activations {
            s.run_at(pc);
        }
        Ok(self
            .plan
            .output_addrs
            .iter()
            .map(|&addr| read_out(s, addr, self.threshold))
            .collect())
    }

    /// Reference (architectural) evaluation of the circuit's function —
    /// ground truth for accuracy measurements.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] if `input_bits.len()` differs from the
    /// declared inputs.
    pub fn eval_reference(&self, input_bits: &[bool]) -> Result<Vec<bool>> {
        self.check_inputs(input_bits)?;
        let mut bits = vec![false; self.plan.wires.len()];
        for (w, &b) in self.plan.inputs.iter().zip(input_bits) {
            bits[w.0] = b;
        }
        for step in &self.plan.steps {
            step.eval(&mut bits);
        }
        Ok(self.plan.outputs.iter().map(|w| bits[w.0]).collect())
    }

    /// Rejects an input slice whose length differs from the declared
    /// inputs.
    fn check_inputs(&self, input_bits: &[bool]) -> Result<()> {
        if input_bits.len() == self.plan.input_addrs.len() {
            Ok(())
        } else {
            Err(CoreError::Arity {
                gate: "circuit",
                expected: self.plan.input_addrs.len(),
                got: input_bits.len(),
            })
        }
    }
}

/// Builds the 32-bit ripple-carry adder circuit used by the batch engine's
/// benchmarks and equivalence tests: inputs `a0..a31` then `b0..b31`
/// (least-significant bit first), outputs `sum0..sum31` then the final
/// carry. Fan-out is explicit — `and_or(w, w)` duplicates a wire — so the
/// whole adder respects the single-consumption rule.
///
/// # Errors
///
/// Fails on layout exhaustion or assembly error.
pub fn adder32_spec(lay: &mut Layout) -> Result<CircuitSpec> {
    let mut cb = CircuitBuilder::new();
    let a: Vec<Wire> = (0..32).map(|_| cb.input(lay)).collect::<Result<_>>()?;
    let b: Vec<Wire> = (0..32).map(|_| cb.input(lay)).collect::<Result<_>>()?;
    let mut carry: Option<Wire> = None;
    for i in 0..32 {
        let (ab, aob) = cb.and_or(lay, a[i], b[i])?;
        let (ab1, ab2) = cb.and_or(lay, ab, ab)?; // fan-out: ab feeds sum and carry
        let nab = cb.not(lay, ab1)?;
        let x = cb.and(lay, aob, nab)?; // x = a ^ b
        match carry.take() {
            None => {
                // Bit 0 has no carry-in: sum is x itself.
                cb.mark_output(x);
                carry = Some(ab2);
            }
            Some(cin) => {
                let (x1, x2) = cb.and_or(lay, x, x)?;
                let (c1, c2) = cb.and_or(lay, cin, cin)?;
                let sum = cb.xor(lay, x1, c1)?;
                cb.mark_output(sum);
                let cx = cb.and(lay, c2, x2)?;
                carry = Some(cb.or(lay, ab2, cx)?);
            }
        }
    }
    cb.mark_output(carry.expect("32 bits processed"));
    cb.finish()
}

/// Packs two operands into [`adder32_spec`]'s input order.
pub fn adder32_inputs(a: u32, b: u32) -> Vec<bool> {
    (0..32)
        .map(|i| a >> i & 1 == 1)
        .chain((0..32).map(|i| b >> i & 1 == 1))
        .collect()
}

/// Unpacks [`adder32_spec`]'s outputs into `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if `bits` is not the adder's 33 outputs.
pub fn adder32_outputs(bits: &[bool]) -> (u32, bool) {
    assert_eq!(bits.len(), 33, "adder32 has 32 sum bits plus a carry");
    let sum = bits[..32]
        .iter()
        .enumerate()
        .fold(0u32, |acc, (i, &b)| acc | (u32::from(b) << i));
    (sum, bits[32])
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    #[test]
    fn single_assign_circuit() {
        let (mut m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let q = cb.assign(&mut lay, a).unwrap();
        cb.mark_output(q);
        let c = cb.finish().unwrap().instantiate(&mut m);
        assert_eq!(c.run(&mut m, &[true]).unwrap(), vec![true]);
        assert_eq!(c.run(&mut m, &[false]).unwrap(), vec![false]);
    }

    #[test]
    fn wire_reuse_is_rejected() {
        let (_m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let _q = cb.and(&mut lay, a, b).unwrap();
        assert!(matches!(
            cb.not(&mut lay, a),
            Err(CoreError::WireReused { .. })
        ));
    }

    /// Property: a seeded random DAG over every builder gate, respecting
    /// single consumption, computes on a quiet machine exactly what its
    /// architectural reference computes, for random inputs.
    #[test]
    fn random_circuits_match_reference() {
        use uwm_rng::rngs::StdRng;
        use uwm_rng::{Rng, SeedableRng};

        let mut ops_seen = [false; 6];
        for seed in 1..=6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_m, mut lay) = setup();
            let mut cb = CircuitBuilder::new();
            // Unconsumed wires; every gate draws its inputs from here.
            let mut live: Vec<Wire> = (0..rng.gen_range(2..5usize))
                .map(|_| cb.input(&mut lay).unwrap())
                .collect();
            for _ in 0..14 {
                let op = rng.gen_range(0..6usize);
                ops_seen[op] = true;
                let a = live.swap_remove(rng.gen_range(0..live.len()));
                // A second input, or the first again (fan-in of one wire
                // into one gate is a single consumption).
                let b = if live.is_empty() || rng.gen() {
                    a
                } else {
                    live.swap_remove(rng.gen_range(0..live.len()))
                };
                let lay = &mut lay;
                match op {
                    0 => live.push(cb.assign(lay, a).unwrap()),
                    1 => live.push(cb.not(lay, a).unwrap()),
                    2 => live.push(cb.and(lay, a, b).unwrap()),
                    3 => live.push(cb.or(lay, a, b).unwrap()),
                    4 => {
                        let (q_and, q_or) = cb.and_or(lay, a, b).unwrap();
                        live.extend([q_and, q_or]);
                    }
                    _ => live.push(cb.xor(lay, a, b).unwrap()),
                }
                if op < 2 && b != a {
                    live.push(b); // unary gates leave the second draw live
                }
            }
            for &w in &live {
                cb.mark_output(w);
            }
            let spec = cb.finish().unwrap();
            let mut m = Machine::new(MachineConfig::quiet(), seed);
            let c = spec.instantiate(&mut m);
            for _ in 0..16 {
                let inputs: Vec<bool> = (0..c.input_count()).map(|_| rng.gen()).collect();
                assert_eq!(
                    c.run(&mut m, &inputs).unwrap(),
                    c.eval_reference(&inputs).unwrap(),
                    "seed {seed}, inputs {inputs:?}"
                );
            }
        }
        assert!(ops_seen.iter().all(|&seen| seen), "every gate kind drawn");
    }

    #[test]
    fn xor_circuit_all_inputs() {
        let (mut m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let q = cb.xor(&mut lay, a, b).unwrap();
        cb.mark_output(q);
        let c = cb.finish().unwrap().instantiate(&mut m);
        assert_eq!(c.gate_count(), 3, "xor = and_or + not + and");
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(c.run(&mut m, &[x, y]).unwrap(), vec![x ^ y]);
        }
    }

    #[test]
    fn repeated_units_keep_first_occurrence_order() {
        let (mut m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let [a, b, c, d] = [(); 4].map(|_| cb.input(&mut lay).unwrap());
        let q = cb.xor(&mut lay, a, b).unwrap();
        let r = cb.xor(&mut lay, c, d).unwrap();
        cb.mark_output(q);
        cb.mark_output(r);
        // Pool the two XORs' fragments again, shuffled, as composed specs
        // sharing `Arc` units would.
        let own: Vec<ProgramUnit> = cb.units.clone();
        assert_eq!(own.len(), 6);
        let order = [4, 1, 4, 0, 5, 1, 2, 3, 0, 5, 4];
        cb.units.extend(order.map(|i| own[i].clone()));
        cb.units.rotate_right(order.len());
        let spec = cb.finish().unwrap();
        let kept: Vec<*const Program> =
            spec.units.iter().map(|u| Arc::as_ptr(&u.program)).collect();
        let want: Vec<*const Program> = [4, 1, 0, 5, 2, 3]
            .map(|i| Arc::as_ptr(&own[i].program))
            .to_vec();
        assert_eq!(kept, want);
        let circuit = spec.instantiate(&mut m);
        for bits in 0..16u32 {
            let x = [0, 1, 2, 3].map(|i| bits >> i & 1 == 1);
            let got = circuit.run(&mut m, &x).unwrap();
            assert_eq!(got, vec![x[0] ^ x[1], x[2] ^ x[3]]);
        }
    }

    #[test]
    fn multi_output_circuit() {
        let (mut m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let (qa, qo) = cb.and_or(&mut lay, a, b).unwrap();
        cb.mark_output(qa);
        cb.mark_output(qo);
        let c = cb.finish().unwrap().instantiate(&mut m);
        assert_eq!(c.run(&mut m, &[true, false]).unwrap(), vec![false, true]);
    }

    #[test]
    fn one_spec_runs_on_two_machines() {
        let (_m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let q = cb.xor(&mut lay, a, b).unwrap();
        cb.mark_output(q);
        let spec = cb.finish().unwrap();
        for seed in [0, 1] {
            let mut m = Machine::new(MachineConfig::quiet(), seed);
            let c = spec.instantiate(&mut m);
            assert_eq!(
                c.run(&mut m, &[true, false]).unwrap(),
                vec![true],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn plan_levels_follow_dataflow() {
        let (_m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let q = cb.xor(&mut lay, a, b).unwrap();
        cb.mark_output(q);
        let plan = cb.finish().unwrap().compile();
        // xor = and_or (level 1) -> not (level 2) -> and (level 3).
        assert_eq!(plan.gate_count(), 3);
        assert_eq!(plan.depth(), 3);
    }

    #[test]
    fn adder32_sums_correctly() {
        let (mut m, mut lay) = setup();
        let c = adder32_spec(&mut lay).unwrap().instantiate(&mut m);
        assert_eq!(c.input_count(), 64);
        assert_eq!(c.output_count(), 33);
        for (a, b) in [
            (0u32, 0u32),
            (1, 1),
            (0x89AB_CDEF, 0x0123_4567),
            (u32::MAX, 1),
            (0xDEAD_BEEF, 0xFEED_F00D),
        ] {
            let out = c.run(&mut m, &adder32_inputs(a, b)).unwrap();
            let (sum, cout) = adder32_outputs(&out);
            let (want, want_cout) = a.overflowing_add(b);
            assert_eq!((sum, cout), (want, want_cout), "{a:#x} + {b:#x}");
        }
    }

    #[test]
    fn input_arity_checked() {
        let (mut m, mut lay) = setup();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        cb.mark_output(a);
        let c = cb.finish().unwrap().instantiate(&mut m);
        assert!(matches!(
            c.run(&mut m, &[true, false]),
            Err(CoreError::Arity { .. })
        ));
        assert!(matches!(
            c.eval_reference(&[true, false]),
            Err(CoreError::Arity { .. })
        ));
    }
}
