//! The pooling engine, and the batch circuit evaluator built on it.
//!
//! Evaluating a weird circuit or hashing one SHA-1 block is cheap next to
//! the cost of *standing a machine up*: constructing the backend,
//! installing and predecoding the gate programs, warming code ranges, and
//! calibrating the read threshold. The serial idiom — a fresh backend per
//! item, so every item is a pure function of its seed — pays that setup
//! for every item.
//!
//! [`run_pooled`] keeps the purity but pays setup once per shard:
//!
//! 1. each shard builds one warmed state (a backend with a bound circuit,
//!    a skelly, …) and takes a [`Substrate::snapshot`] of its backend;
//! 2. for every item the shard restores the snapshot (the cache sets the
//!    previous item wrote and every resident page, overwritten in place;
//!    the program image is shared, not copied), reseeds the backend's
//!    randomness with [`batch_seed`]`(seed, item)`, and runs the item.
//!
//! Because the restore is *full* — clock, RNG, statistics and trace
//! included — every item starts from bit-identical machine state and a
//! seed that depends only on `(base seed, item index)`. The observables of
//! item `i` are therefore independent of shard count, scheduling order,
//! and which items ran before it, and identical to the serial path's
//! (fresh backend, instantiate, reseed, run). Golden tests in
//! `tests/batch_equiv.rs` enforce that equivalence on both execution
//! models for the [`BatchRunner`], which streams input vectors through a
//! compiled [`CircuitPlan`]; `uwm-apps`' `Sha1Batch` is the other caller.

use crate::circuit::CircuitPlan;
use crate::error::{CoreError, Result};
use crate::exec::{batch_seed, ShardedExecutor};
use crate::gate::GateReading;
use crate::substrate::Substrate;

/// Runs `work` for every item in `0..items` on pooled per-shard states,
/// returning the results in item order. This is the one place that pools.
///
/// Each shard builds its state once with `warm` and snapshots the
/// substrate `backend` picks out of it. Before item `i` it restores that
/// snapshot and reseeds the substrate with [`batch_seed`]`(seed, i)`, then
/// calls `work(i, state)`.
///
/// The contract: item `i`'s observables equal those of a freshly warmed
/// state whose substrate is reseeded with `batch_seed(seed, i)`, at any
/// shard count — provided `warm` is deterministic. Only the substrate is
/// rewound; anything else in the state carries over from item to item
/// (for example a skelly's `CounterBank`), so `work` must not let such
/// state reach its result.
pub fn run_pooled<S, B, R, W, A, F>(
    exec: &ShardedExecutor,
    items: usize,
    seed: u64,
    warm: W,
    backend: A,
    work: F,
) -> Vec<R>
where
    B: Substrate + ?Sized,
    R: Send,
    W: Fn() -> S + Sync,
    A: Fn(&mut S) -> &mut B + Sync,
    F: Fn(usize, &mut S) -> R + Sync,
{
    exec.run_with(
        items,
        || {
            let mut state = warm();
            let snap = backend(&mut state).snapshot();
            (state, snap)
        },
        |i, (state, snap)| {
            let b = backend(state);
            b.restore(snap);
            b.reseed(batch_seed(seed, i));
            work(i, state)
        },
    )
}

/// Everything observable about one batch item's evaluation — the
/// equivalence surface the golden tests compare against the serial path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchObservation {
    /// Decoded bit and raw read delay for each designated output.
    pub readings: Vec<GateReading>,
    /// The backend's cycle counter after the run. The full restore rewinds
    /// the clock to the snapshot point, so this is an absolute, per-item
    /// deterministic value.
    pub cycles: u64,
}

impl BatchObservation {
    /// The decoded output bits.
    pub fn bits(&self) -> Vec<bool> {
        self.readings.iter().map(|r| r.bit).collect()
    }
}

/// Streams input vectors through a circuit on [`run_pooled`] shards.
///
/// # Examples
///
/// ```
/// use uwm_core::batch::BatchRunner;
/// use uwm_core::circuit::{adder32_inputs, adder32_outputs, adder32_spec};
/// use uwm_core::exec::ShardedExecutor;
/// use uwm_core::layout::Layout;
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut lay = Layout::new(8192);
/// let plan = adder32_spec(&mut lay).unwrap().compile();
/// let runner = BatchRunner::new(plan, ShardedExecutor::new(2), 42);
/// let inputs: Vec<Vec<bool>> = (0..4u32)
///     .map(|i| adder32_inputs(i, 100))
///     .collect();
/// let outs = runner
///     .run(|| Machine::new(MachineConfig::quiet(), 42), &inputs)
///     .unwrap();
/// for (i, bits) in outs.iter().enumerate() {
///     assert_eq!(adder32_outputs(bits), (i as u32 + 100, false));
/// }
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    plan: CircuitPlan,
    exec: ShardedExecutor,
    seed: u64,
}

impl BatchRunner {
    /// A runner evaluating `plan` with per-item seeds derived from `seed`.
    pub fn new(plan: CircuitPlan, exec: ShardedExecutor, seed: u64) -> Self {
        Self { plan, exec, seed }
    }

    /// Evaluates every input vector and returns the decoded output bits,
    /// in input order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] if any input vector's length differs
    /// from the circuit's declared inputs.
    pub fn run<B, F>(&self, factory: F, inputs: &[Vec<bool>]) -> Result<Vec<Vec<bool>>>
    where
        B: Substrate,
        F: Fn() -> B + Sync,
    {
        Ok(self
            .run_observed(factory, inputs)?
            .into_iter()
            .map(|o| o.bits())
            .collect())
    }

    /// Like [`BatchRunner::run`], but returns the full per-item
    /// observables (readings with delays, end-of-run cycle counter).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arity`] if any input vector's length differs
    /// from the circuit's declared inputs.
    pub fn run_observed<B, F>(
        &self,
        factory: F,
        inputs: &[Vec<bool>],
    ) -> Result<Vec<BatchObservation>>
    where
        B: Substrate,
        F: Fn() -> B + Sync,
    {
        let expected = self.plan.input_count();
        if let Some(item) = inputs.iter().find(|item| item.len() != expected) {
            return Err(CoreError::Arity {
                gate: "batch circuit",
                expected,
                got: item.len(),
            });
        }
        Ok(run_pooled(
            &self.exec,
            inputs.len(),
            self.seed,
            || {
                let mut backend = factory();
                let circuit = self.plan.instantiate(&mut backend);
                (backend, circuit)
            },
            |(backend, _)| backend,
            |i, (backend, circuit)| {
                let readings = circuit
                    .run_timed(backend, &inputs[i])
                    .expect("arity validated before dispatch");
                BatchObservation {
                    readings,
                    cycles: backend.cycles(),
                }
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{adder32_inputs, adder32_outputs, adder32_spec, CircuitBuilder};
    use crate::layout::Layout;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn xor_plan() -> CircuitPlan {
        let mut lay = Layout::new(8192);
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let q = cb.xor(&mut lay, a, b).unwrap();
        cb.mark_output(q);
        cb.finish().unwrap().compile()
    }

    #[test]
    fn batch_outputs_match_reference() {
        let runner = BatchRunner::new(xor_plan(), ShardedExecutor::new(2), 9);
        let inputs: Vec<Vec<bool>> = (0..8).map(|i| vec![i & 1 == 1, i & 2 == 2]).collect();
        let outs = runner
            .run(|| Machine::new(MachineConfig::quiet(), 9), &inputs)
            .unwrap();
        for (item, out) in inputs.iter().zip(&outs) {
            assert_eq!(out, &vec![item[0] ^ item[1]], "inputs {item:?}");
        }
    }

    #[test]
    fn observables_are_shard_count_invariant() {
        let inputs: Vec<Vec<bool>> = (0..12).map(|i| vec![i & 1 == 1, i & 2 == 2]).collect();
        let base = BatchRunner::new(xor_plan(), ShardedExecutor::new(1), 7)
            .run_observed(|| Machine::new(MachineConfig::default(), 7), &inputs)
            .unwrap();
        for shards in [2, 4] {
            let got = BatchRunner::new(xor_plan(), ShardedExecutor::new(shards), 7)
                .run_observed(|| Machine::new(MachineConfig::default(), 7), &inputs)
                .unwrap();
            assert_eq!(got, base, "{shards} shards");
        }
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let runner = BatchRunner::new(xor_plan(), ShardedExecutor::new(1), 0);
        let err = runner
            .run(|| Machine::new(MachineConfig::quiet(), 0), &[vec![true; 3]])
            .unwrap_err();
        assert!(matches!(err, CoreError::Arity { .. }));
    }

    #[test]
    fn adder32_batch_sums_on_the_machine() {
        let mut lay = Layout::new(8192);
        let plan = adder32_spec(&mut lay).unwrap().compile();
        let runner = BatchRunner::new(plan, ShardedExecutor::new(2), 1);
        let pairs: Vec<(u32, u32)> = vec![(3, 4), (u32::MAX, 2), (0x1234, 0x4321)];
        let inputs: Vec<Vec<bool>> = pairs.iter().map(|&(a, b)| adder32_inputs(a, b)).collect();
        let outs = runner
            .run(|| Machine::new(MachineConfig::quiet(), 1), &inputs)
            .unwrap();
        for (&(a, b), out) in pairs.iter().zip(&outs) {
            let (want, want_c) = a.overflowing_add(b);
            assert_eq!(adder32_outputs(out), (want, want_c), "{a:#x} + {b:#x}");
        }
    }

    #[test]
    fn flat_backend_is_poolable() {
        // The flat model degenerates gates (that is the emulation
        // detector's signal); batching must still be deterministic on it.
        let inputs: Vec<Vec<bool>> = (0..6).map(|i| vec![i & 1 == 1, i & 2 == 2]).collect();
        let base = BatchRunner::new(xor_plan(), ShardedExecutor::new(1), 5)
            .run_observed(|| Machine::new(MachineConfig::flat(), 5), &inputs)
            .unwrap();
        let sharded = BatchRunner::new(xor_plan(), ShardedExecutor::new(3), 5)
            .run_observed(|| Machine::new(MachineConfig::flat(), 5), &inputs)
            .unwrap();
        assert_eq!(base, sharded);
    }
}
