//! Golden equivalence tests for the batch circuit-evaluation engine.
//!
//! The pooled path — one warmed backend per shard, warm-state snapshot
//! restored and the noise stream reseeded per item — is a host-side
//! optimization: every simulated observable must be bit-identical to
//! evaluating each item on a freshly instantiated backend reseeded with
//! the same derived seed. These tests enforce that contract for the BP
//! and TSX gate families and the 32-bit adder circuit, on both execution
//! backends, across shard counts.

use uwm_core::batch::BatchRunner;
use uwm_core::circuit::{adder32_inputs, adder32_spec, CircuitBuilder, CircuitPlan, CircuitSpec};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::gate::bp::BpGate;
use uwm_core::gate::tsx::TsxXor;
use uwm_core::gate::{GateKind, GateSpec, WeirdGate};
use uwm_core::layout::Layout;
use uwm_core::substrate::{Substrate, DEFAULT_ALIAS_STRIDE};
use uwm_core::Result;
use uwm_sim::machine::{Machine, MachineConfig};

const SEED: u64 = 0xBA7C;

const INPUTS2: [[bool; 2]; 4] = [[false, false], [false, true], [true, false], [true, true]];

fn xor_circuit() -> CircuitSpec {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let mut cb = CircuitBuilder::new();
    let a = cb.input(&mut lay).unwrap();
    let b = cb.input(&mut lay).unwrap();
    let x = cb.xor(&mut lay, a, b).unwrap();
    cb.mark_output(x);
    cb.finish().unwrap()
}

fn adder_circuit() -> CircuitSpec {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    adder32_spec(&mut lay).unwrap()
}

fn fresh_traced_machine(seed: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::default(), seed);
    m.tracer_mut().set_enabled(true);
    m
}

/// Everything externally observable about one item's evaluation on the
/// full machine backend.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    readings: Vec<(bool, u64)>,
    cycles: u64,
    trace_fingerprint: u64,
    committed_insts: u64,
}

fn observe(m: &Machine, readings: Vec<(bool, u64)>) -> Observables {
    Observables {
        readings,
        cycles: m.cycles(),
        trace_fingerprint: m.tracer().fingerprint(),
        committed_insts: m.stats().committed_insts,
    }
}

/// Serial reference: item `i` runs on a freshly instantiated, freshly
/// traced machine reseeded with the pool's derived seed.
fn circuit_serial(plan: &CircuitPlan, inputs: &[Vec<bool>]) -> Vec<Observables> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            let mut m = fresh_traced_machine(SEED);
            let c = plan.instantiate(&mut m);
            m.reseed_noise(batch_seed(SEED, i));
            let rs = c.run_timed(&mut m, inp).unwrap();
            observe(&m, rs.iter().map(|r| (r.bit, r.delay)).collect())
        })
        .collect()
}

/// Pooled path: one machine, snapshot right after binding, restore +
/// reseed per item — the loop `BatchRunner` runs on every shard.
fn circuit_pooled(plan: &CircuitPlan, inputs: &[Vec<bool>]) -> Vec<Observables> {
    let mut m = fresh_traced_machine(SEED);
    let c = plan.instantiate(&mut m);
    let snap = m.snapshot();
    inputs
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            m.restore_from(&snap);
            m.reseed_noise(batch_seed(SEED, i));
            let rs = c.run_timed(&mut m, inp).unwrap();
            observe(&m, rs.iter().map(|r| (r.bit, r.delay)).collect())
        })
        .collect()
}

/// Backend-generic readings + end-cycles, serial or pooled, through the
/// `Substrate` snapshot API (exercises the flat model too).
fn substrate_observed<S, F>(
    plan: &CircuitPlan,
    factory: F,
    pooled: bool,
    inputs: &[Vec<bool>],
) -> Vec<(Vec<(bool, u64)>, u64)>
where
    S: Substrate,
    F: Fn() -> S,
{
    let run_one = |s: &mut S, c: &uwm_core::circuit::Circuit, i: usize, inp: &[bool]| {
        s.reseed(batch_seed(SEED, i));
        let rs = c.run_timed(s, inp).unwrap();
        (
            rs.iter().map(|r| (r.bit, r.delay)).collect::<Vec<_>>(),
            s.cycles(),
        )
    };
    if pooled {
        let mut s = factory();
        let c = plan.instantiate(&mut s);
        let snap = s.snapshot();
        inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| {
                s.restore(&snap);
                run_one(&mut s, &c, i, inp)
            })
            .collect()
    } else {
        inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| {
                let mut s = factory();
                let c = plan.instantiate(&mut s);
                run_one(&mut s, &c, i, inp)
            })
            .collect()
    }
}

fn gate_pooled_matches_serial<G, F>(spec_fn: F)
where
    G: WeirdGate + Copy,
    F: Fn(&mut Layout) -> Result<GateSpec<G>>,
{
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let spec = spec_fn(&mut lay).unwrap();

    let serial: Vec<Observables> = INPUTS2
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            let mut m = fresh_traced_machine(SEED);
            let g = spec.instantiate(&mut m);
            m.reseed_noise(batch_seed(SEED, i));
            let r = g.execute_timed(&mut m, inp).unwrap();
            observe(&m, vec![(r.bit, r.delay)])
        })
        .collect();

    let mut m = fresh_traced_machine(SEED);
    let g = spec.instantiate(&mut m);
    let snap = m.snapshot();
    let pooled: Vec<Observables> = INPUTS2
        .iter()
        .enumerate()
        .map(|(i, inp)| {
            m.restore_from(&snap);
            m.reseed_noise(batch_seed(SEED, i));
            let r = g.execute_timed(&mut m, inp).unwrap();
            observe(&m, vec![(r.bit, r.delay)])
        })
        .collect();

    assert_eq!(pooled, serial);
}

/// The BP AND gate: pooled snapshot/restore execution preserves readings,
/// delays, absolute cycle counts, the committed trace fingerprint, and
/// committed-instruction counts.
#[test]
fn bp_and_gate_pooled_matches_serial() {
    gate_pooled_matches_serial(|lay| BpGate::spec(GateKind::And, lay));
}

/// Same contract for the TSX XOR gate (transaction + abort rollback).
#[test]
fn tsx_xor_gate_pooled_matches_serial() {
    gate_pooled_matches_serial(TsxXor::spec);
}

/// The XOR circuit (a TSX-gate composition) on the full machine: pooled
/// equals serial on every observable.
#[test]
fn tsx_xor_circuit_pooled_matches_serial_on_machine() {
    let plan = xor_circuit().compile();
    let inputs: Vec<Vec<bool>> = INPUTS2.iter().map(|c| c.to_vec()).collect();
    assert_eq!(
        circuit_pooled(&plan, &inputs),
        circuit_serial(&plan, &inputs)
    );
}

/// The 32-bit adder circuit on the full machine: pooled equals serial on
/// every observable.
#[test]
fn adder32_circuit_pooled_matches_serial_on_machine() {
    let plan = adder_circuit().compile();
    let inputs: Vec<Vec<bool>> = [(5u32, 7u32), (u32::MAX, 1), (0xDEAD_BEEF, 0x1234_5678)]
        .iter()
        .map(|&(a, b)| adder32_inputs(a, b))
        .collect();
    assert_eq!(
        circuit_pooled(&plan, &inputs),
        circuit_serial(&plan, &inputs)
    );
}

/// `BatchRunner` itself, on the machine backend: observations match the
/// fresh-backend serial reference at every shard count.
#[test]
fn batch_runner_matches_serial_reference_across_shard_counts() {
    let plan = adder_circuit().compile();
    let inputs: Vec<Vec<bool>> = [(1u32, 2u32), (u32::MAX, 1), (0, 0), (42, 4242), (7, 11)]
        .iter()
        .map(|&(a, b)| adder32_inputs(a, b))
        .collect();
    let factory = || Machine::new(MachineConfig::default(), SEED);
    let reference = substrate_observed(&plan, factory, false, &inputs);
    for shards in [1usize, 2, 4] {
        let runner = BatchRunner::new(plan.clone(), ShardedExecutor::new(shards), SEED);
        let obs = runner.run_observed(factory, &inputs).unwrap();
        let got: Vec<(Vec<(bool, u64)>, u64)> = obs
            .iter()
            .map(|o| {
                (
                    o.readings.iter().map(|r| (r.bit, r.delay)).collect(),
                    o.cycles,
                )
            })
            .collect();
        assert_eq!(got, reference, "shards={shards}");
    }
}

/// `BatchRunner` on the flat (no-MA) backend: the engine must not change
/// what the emulation detector sees either — pooled observations match
/// the serial reference at every shard count, for both the XOR and adder
/// circuits.
#[test]
fn flat_batch_runner_matches_serial_reference_across_shard_counts() {
    let xor_inputs: Vec<Vec<bool>> = INPUTS2.iter().map(|c| c.to_vec()).collect();
    let adder_inputs: Vec<Vec<bool>> = [(3u32, 9u32), (u32::MAX, u32::MAX)]
        .iter()
        .map(|&(a, b)| adder32_inputs(a, b))
        .collect();
    for (plan, inputs) in [
        (xor_circuit().compile(), xor_inputs),
        (adder_circuit().compile(), adder_inputs),
    ] {
        let reference = substrate_observed(
            &plan,
            || Machine::new(MachineConfig::flat(), SEED),
            false,
            &inputs,
        );
        for shards in [1usize, 2, 4] {
            let runner = BatchRunner::new(plan.clone(), ShardedExecutor::new(shards), SEED);
            let obs = runner
                .run_observed(|| Machine::new(MachineConfig::flat(), SEED), &inputs)
                .unwrap();
            let got: Vec<(Vec<(bool, u64)>, u64)> = obs
                .iter()
                .map(|o| {
                    (
                        o.readings.iter().map(|r| (r.bit, r.delay)).collect(),
                        o.cycles,
                    )
                })
                .collect();
            assert_eq!(got, reference, "shards={shards}");
        }
    }
}
