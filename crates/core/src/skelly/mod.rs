//! The `skelly` framework (§6.2): ergonomic, reliable μWM computation.
//!
//! `skelly` abstracts away the microarchitectural bookkeeping a weird-gate
//! programmer would otherwise fight by hand: it owns the simulated machine,
//! maps every gate to dedicated cache-aligned memory, calibrates the timing
//! threshold, executes gates redundantly (median + vote), and exposes plain
//! boolean functions — `and(a, b)`, a full adder, 32-bit logic — whose
//! *implementations never execute the corresponding ALU instruction*.

mod logic32;
mod redundancy;

pub use redundancy::{CounterBank, GateCounters, Redundancy};

use std::sync::OnceLock;

use crate::error::Result;
use crate::gate::bp::BpGate;
use crate::gate::tsx::{TsxGate, TsxXor};
use crate::gate::{install_units, GateKind, GateReading, ProgramUnit, WeirdGate};
use crate::layout::Layout;
use crate::substrate::{Substrate, DEFAULT_ALIAS_STRIDE};
use uwm_sim::machine::{Machine, MachineConfig};

/// Calibrates the hit/miss decision threshold on `s` by sampling timed
/// misses and hits of a scratch line and returning the midpoint of the
/// medians — the boundary visible in the paper's Figures 7–8.
pub fn calibrate_threshold<S: Substrate + ?Sized>(s: &mut S, probe: u64, samples: usize) -> u64 {
    assert!(samples > 0, "need at least one sample");
    let mut misses = Vec::with_capacity(samples);
    let mut hits = Vec::with_capacity(samples);
    for _ in 0..samples {
        s.flush_addr(probe);
        misses.push(s.timed_read_tsc(probe));
        hits.push(s.timed_read_tsc(probe));
    }
    misses.sort_unstable();
    hits.sort_unstable();
    let miss_med = misses[misses.len() / 2];
    let hit_med = hits[hits.len() / 2];
    hit_med + (miss_med.saturating_sub(hit_med)) / 2
}

/// One wired gate of every [`GateKind`] (addresses only).
#[derive(Debug, Clone)]
struct Gates {
    /// The branch-predictor kinds, in [`GateKind::ALL`] order.
    bp: Vec<BpGate>,
    /// The single-transaction TSX kinds, in [`GateKind::ALL`] order.
    tsx: Vec<TsxGate>,
    xor: TsxXor,
}

impl Gates {
    /// Builds every kind against `lay` in [`GateKind::ALL`] order,
    /// appending each gate's program fragments to `units`.
    fn build(lay: &mut Layout, units: &mut Vec<ProgramUnit>) -> Result<Self> {
        let mut bp = Vec::new();
        let mut tsx = Vec::new();
        for kind in GateKind::ALL {
            match kind {
                GateKind::TxXor => {}
                _ if kind.is_tsx() => tsx.push(TsxGate::spec(kind, lay)?.into_gate(units)),
                _ => bp.push(BpGate::spec(kind, lay)?.into_gate(units)),
            }
        }
        let xor = TsxXor::spec(lay)?.into_gate(units);
        Ok(Self { bp, tsx, xor })
    }

    /// The gate of `kind`.
    fn get(&self, kind: GateKind) -> &dyn WeirdGate {
        let i = kind as usize;
        match kind {
            GateKind::TxXor => &self.xor,
            _ if kind.is_tsx() => &self.tsx[i - self.bp.len()],
            _ => &self.bp[i],
        }
    }
}

/// The machine-independent half of a [`Skelly`]: one gate of every
/// [`GateKind`], built against a shared [`Layout`] in [`GateKind::ALL`]
/// order, their pooled program fragments, and the calibration probe
/// address.
///
/// A spec is built **once** and instantiated many times — on every shard of
/// a [`crate::exec::ShardedExecutor`], or on freshly seeded machines for
/// repeatability studies. Instantiation replays the gates' program installs
/// and code warming in build order, so every instance sees the identical
/// machine-visible construction sequence.
///
/// # Examples
///
/// ```
/// use uwm_core::skelly::SkellySpec;
/// use uwm_sim::machine::MachineConfig;
///
/// let spec = SkellySpec::new().unwrap();
/// let mut a = spec.instantiate(MachineConfig::quiet(), 1);
/// let mut b = spec.instantiate(MachineConfig::quiet(), 2);
/// assert!(a.and(true, true) && b.and(true, true));
/// ```
#[derive(Debug, Clone)]
pub struct SkellySpec {
    lay: Layout,
    probe: u64,
    gates: Gates,
    /// Every gate's program fragments, in build order.
    units: Vec<ProgramUnit>,
}

impl SkellySpec {
    /// Builds every gate spec against a fresh layout with the standard
    /// branch-alias stride.
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn new() -> Result<Self> {
        Self::with_alias_stride(DEFAULT_ALIAS_STRIDE)
    }

    /// Like [`SkellySpec::new`] with an explicit branch-alias stride (must
    /// match the target machines' predictor).
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn with_alias_stride(alias_stride: u64) -> Result<Self> {
        let mut lay = Layout::new(alias_stride);
        let mut units = Vec::new();
        let gates = Gates::build(&mut lay, &mut units)?;
        let probe = lay.alloc_var()?;
        Ok(Self {
            lay,
            probe,
            gates,
            units,
        })
    }

    /// Binds the spec to a freshly constructed machine: installs and warms
    /// every gate program in build order, calibrates the timing threshold,
    /// and returns the runnable framework.
    pub fn instantiate(&self, cfg: MachineConfig, seed: u64) -> Skelly {
        let mut m = Machine::new(cfg, seed);
        debug_assert_eq!(
            m.predictor().alias_stride(),
            self.lay.alias_stride(),
            "spec stride must match the machine's predictor"
        );
        install_units(&mut m, &self.units);
        let threshold = calibrate_threshold(&mut m, self.probe, 33);
        Skelly {
            m,
            lay: self.lay.clone(),
            threshold,
            red: Redundancy::default(),
            counters: CounterBank::new(),
            gates: self.gates.clone(),
        }
    }
}

/// One pre-built instance of every weird gate, plus the machinery to run
/// them reliably.
///
/// # Examples
///
/// ```
/// use uwm_core::gate::GateKind;
/// use uwm_core::skelly::Skelly;
/// let mut sk = Skelly::quiet(7).unwrap();
/// assert!(sk.xor(true, false));
/// assert!(!sk.xor(true, true));
/// assert_eq!(sk.add32(0xFFFF_FFFF, 1), 0, "wrap-around addition");
/// assert!(sk.execute_timed(GateKind::TxNot, &[false]).unwrap().bit);
/// ```
#[derive(Debug)]
pub struct Skelly {
    m: Machine,
    lay: Layout,
    threshold: u64,
    red: Redundancy,
    counters: CounterBank,
    gates: Gates,
}

impl Skelly {
    /// Builds the framework on a machine with the given configuration and
    /// noise seed by instantiating [`SkellySpec::new`]'s spec. The spec
    /// is machine-free and the same on every call, so it is built once per
    /// process and shared.
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn new(cfg: MachineConfig, seed: u64) -> Result<Self> {
        static SPEC: OnceLock<Result<SkellySpec>> = OnceLock::new();
        let spec = SPEC.get_or_init(SkellySpec::new).as_ref();
        Ok(spec.map_err(Clone::clone)?.instantiate(cfg, seed))
    }

    /// A noise-free instance (deterministic; handy in tests and docs).
    ///
    /// # Errors
    ///
    /// See [`Skelly::new`].
    pub fn quiet(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::quiet(), seed)
    }

    /// A default-noise instance, matching the paper's experimental setup.
    ///
    /// # Errors
    ///
    /// See [`Skelly::new`].
    pub fn noisy(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::default(), seed)
    }

    /// Sets the redundancy used by the logical operations.
    pub fn set_redundancy(&mut self, red: Redundancy) {
        self.red = red;
    }

    /// The active redundancy parameters.
    pub fn redundancy(&self) -> Redundancy {
        self.red
    }

    /// The calibrated hit/miss threshold in cycles.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The underlying machine (analyzer probes, cycle counts).
    pub fn machine(&self) -> &Machine {
        &self.m
    }

    /// Mutable access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.m
    }

    /// Splits the framework into machine + layout borrows (for wiring
    /// circuits that need both at once).
    pub fn machine_and_layout(&mut self) -> (&mut Machine, &mut Layout) {
        (&mut self.m, &mut self.lay)
    }

    /// Accuracy statistics accumulated by the voted operations.
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// Clears accumulated statistics.
    pub fn reset_counters(&mut self) {
        self.counters.clear();
    }

    // ------------------------------------------------------------------
    // Voted logical operations (BP/IC gate family — §6.3's gates)
    // ------------------------------------------------------------------

    fn vote(&mut self, kind: GateKind, inputs: &[bool]) -> bool {
        self.red
            .vote(
                self.gates.get(kind),
                &mut self.m,
                inputs,
                &mut self.counters,
            )
            .expect("arity is fixed by the caller")
    }

    /// `a & b` on the branch-predictor AND gate (Figure 1).
    pub fn and(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::And, &[a, b])
    }

    /// `a | b` on the branch-predictor OR gate (Figure 2).
    pub fn or(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::Or, &[a, b])
    }

    /// `!(a & b)` on the NAND gate.
    pub fn nand(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::Nand, &[a, b])
    }

    /// `!a`, as `nand(a, a)`.
    pub fn not(&mut self, a: bool) -> bool {
        self.nand(a, a)
    }

    /// `(a & b) | (c & d)` on the composed AND-AND-OR gate.
    pub fn and_and_or(&mut self, a: bool, b: bool, c: bool, d: bool) -> bool {
        self.vote(GateKind::AndAndOr, &[a, b, c, d])
    }

    /// `a ^ b` from four NAND gates — the construction behind the NAND
    /// counts dominating the paper's Table 4.
    pub fn xor(&mut self, a: bool, b: bool) -> bool {
        let n1 = self.nand(a, b);
        let n2 = self.nand(a, n1);
        let n3 = self.nand(b, n1);
        self.nand(n2, n3)
    }

    // ------------------------------------------------------------------
    // Voted TSX operations
    // ------------------------------------------------------------------

    /// `a` through the TSX assignment gate.
    pub fn tsx_assign(&mut self, a: bool) -> bool {
        self.vote(GateKind::TxAssign, &[a])
    }

    /// `a & b` on the TSX AND gate.
    pub fn tsx_and(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::TxAnd, &[a, b])
    }

    /// `a | b` on the TSX OR gate.
    pub fn tsx_or(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::TxOr, &[a, b])
    }

    /// `!a` on the TSX NOT gate.
    pub fn tsx_not(&mut self, a: bool) -> bool {
        self.vote(GateKind::TxNot, &[a])
    }

    /// `a ^ b` on the three-transaction TSX XOR circuit (§4.1).
    pub fn tsx_xor(&mut self, a: bool, b: bool) -> bool {
        self.vote(GateKind::TxXor, &[a, b])
    }

    // ------------------------------------------------------------------
    // Harness access
    // ------------------------------------------------------------------

    /// Executes the `kind` gate once with raw (unvoted) timing — the entry
    /// point the evaluation harness sweeps over.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Arity`] when `inputs.len()` is not the
    /// kind's arity.
    pub fn execute_timed(&mut self, kind: GateKind, inputs: &[bool]) -> Result<GateReading> {
        self.gates.get(kind).execute_timed(&mut self.m, inputs)
    }

    /// The TSX AND-OR gate instance (both-outputs measurements, Table 6).
    pub fn tsx_and_or_gate(&self) -> TsxGate {
        self.gates.tsx[GateKind::TxAndOr as usize - self.gates.bp.len()]
    }

    /// The TSX XOR circuit instance (Table 7 measurements).
    pub fn tsx_xor_gate(&self) -> TsxXor {
        self.gates.xor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_calibrates_sane_threshold() {
        let sk = Skelly::quiet(0).unwrap();
        let lat = sk.machine().latency().clone();
        assert!(sk.threshold() > lat.l1 + lat.rdtscp);
        assert!(sk.threshold() < lat.dram + lat.rdtscp);
    }

    #[test]
    fn boolean_ops_quiet() {
        let mut sk = Skelly::quiet(1).unwrap();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(sk.and(a, b), a & b);
            assert_eq!(sk.or(a, b), a | b);
            assert_eq!(sk.nand(a, b), !(a & b));
            assert_eq!(sk.xor(a, b), a ^ b);
            assert_eq!(sk.tsx_and(a, b), a & b);
            assert_eq!(sk.tsx_or(a, b), a | b);
            assert_eq!(sk.tsx_xor(a, b), a ^ b);
        }
        assert!(sk.not(false));
        assert!(sk.tsx_not(false));
        assert!(sk.tsx_assign(true));
        assert!(sk.and_and_or(true, true, false, false));
    }

    #[test]
    fn voted_ops_survive_default_noise() {
        let mut sk = Skelly::noisy(42).unwrap();
        sk.set_redundancy(Redundancy::paper());
        let mut wrong = 0;
        for i in 0..50 {
            let a = i % 2 == 0;
            let b = i % 3 == 0;
            if sk.tsx_xor(a, b) != (a ^ b) {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "paper redundancy must mask default noise");
        let c = sk.counters().get("TSX_XOR").unwrap();
        assert_eq!(c.vote_accuracy(), 1.0);
    }

    #[test]
    fn counters_accumulate_per_gate() {
        let mut sk = Skelly::quiet(3).unwrap();
        sk.and(true, true);
        sk.and(true, false);
        sk.or(false, false);
        let and = sk.counters().get("AND").unwrap();
        assert_eq!(and.raw_total, 2);
        assert!(sk.counters().get("OR").is_some());
        assert!(sk.counters().get("NAND").is_none());
        sk.reset_counters();
        assert!(sk.counters().get("AND").is_none());
    }

    #[test]
    fn one_spec_yields_identical_instances_per_seed() {
        let spec = SkellySpec::new().unwrap();
        let mut a = spec.instantiate(MachineConfig::default(), 9);
        let mut b = spec.instantiate(MachineConfig::default(), 9);
        assert_eq!(a.threshold(), b.threshold());
        for kind in [GateKind::And, GateKind::TxAnd, GateKind::TxXor] {
            for bits in 0..4u32 {
                let inputs = vec![bits & 1 == 1, bits >> 1 & 1 == 1];
                let ra = a.execute_timed(kind, &inputs).unwrap();
                let rb = b.execute_timed(kind, &inputs).unwrap();
                assert_eq!(ra, rb, "gate {kind:?}, inputs {inputs:?}");
            }
        }
        assert_eq!(a.machine().cycles(), b.machine().cycles());
    }

    #[test]
    fn spec_matches_direct_construction() {
        let mut direct = Skelly::quiet(11).unwrap();
        let mut via_spec = SkellySpec::new()
            .unwrap()
            .instantiate(MachineConfig::quiet(), 11);
        assert_eq!(direct.threshold(), via_spec.threshold());
        let rd = direct.execute_timed(GateKind::TxAndOr, &[true, false]);
        let rs = via_spec.execute_timed(GateKind::TxAndOr, &[true, false]);
        assert_eq!(rd, rs);
    }

    /// Every kind runs through the harness entry point, matches its truth
    /// table, and rejects a wrong input count with an error.
    #[test]
    fn execute_timed_covers_all_kinds() {
        let mut sk = Skelly::quiet(5).unwrap();
        for kind in GateKind::ALL {
            assert_eq!(sk.gates.get(kind).kind(), kind);
            for bits in 0..1u32 << kind.arity() {
                let inputs: Vec<bool> = (0..kind.arity()).map(|i| bits >> i & 1 == 1).collect();
                let r = sk.execute_timed(kind, &inputs).unwrap();
                assert_eq!(r.bit, kind.truth(&inputs), "{kind:?} {inputs:?}");
            }
            assert!(matches!(
                sk.execute_timed(kind, &[true; 3]),
                Err(crate::CoreError::Arity { got: 3, .. })
            ));
        }
    }
}
