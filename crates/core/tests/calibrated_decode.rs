//! Every decoded bit uses the threshold calibrated on its own backend.
//!
//! The machine here has a slow timestamp read (`rdtscp` costs 150 cycles,
//! not 30), so even an L1 hit reads as about 154 cycles. A fixed
//! threshold tuned to the default machine would read every output as a
//! miss; a threshold calibrated on this machine separates hits from
//! misses as on any other. Each entry point that binds gates or circuits
//! to a backend is checked: skelly's gate bank, skelly's voter, a
//! standalone gate spec of either family, and a compiled circuit plan on
//! the batch engine.

use uwm_core::batch::BatchRunner;
use uwm_core::circuit::{adder32_inputs, adder32_outputs, adder32_spec};
use uwm_core::exec::ShardedExecutor;
use uwm_core::gate::bp::BpGate;
use uwm_core::gate::tsx::TsxGate;
use uwm_core::gate::{verify_truth_table, GateKind, WeirdGate};
use uwm_core::layout::Layout;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_sim::machine::{Machine, MachineConfig};
use uwm_sim::timing::LatencyConfig;

const SEED: u64 = 0x5C0E;

/// A quiet machine whose `rdtscp` costs 150 cycles.
fn slow_tsc() -> MachineConfig {
    MachineConfig {
        latency: LatencyConfig {
            rdtscp: 150,
            ..LatencyConfig::default()
        },
        ..MachineConfig::quiet()
    }
}

#[test]
fn hit_reads_are_slower_than_the_default_boundary() {
    let mut sk = Skelly::new(slow_tsc(), SEED).unwrap();
    let one = sk.execute_timed(GateKind::TxAssign, &[true]).unwrap();
    assert!(one.bit);
    assert!(one.delay >= 150, "a hit reads {} cycles", one.delay);
    assert!(sk.threshold() > one.delay);
}

#[test]
fn every_kind_decodes_through_skelly() {
    let mut sk = Skelly::new(slow_tsc(), SEED).unwrap();
    for kind in GateKind::ALL {
        for bits in 0..1u32 << kind.arity() {
            let inputs: Vec<bool> = (0..kind.arity()).map(|i| bits >> i & 1 == 1).collect();
            let r = sk.execute_timed(kind, &inputs).unwrap();
            assert_eq!(r.bit, kind.truth(&inputs), "{kind:?} {inputs:?}: {r:?}");
        }
    }
}

#[test]
fn voted_op_decodes() {
    let mut sk = Skelly::new(slow_tsc(), SEED).unwrap();
    sk.set_redundancy(Redundancy::paper());
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        assert_eq!(sk.and(a, b), a & b, "{a} AND {b}");
    }
    let c = sk.counters().get("AND").unwrap();
    assert_eq!((c.raw_correct, c.raw_total), (200, 200));
    assert_eq!(c.median_accuracy(), 1.0);
}

#[test]
fn instantiated_gates_decode() {
    let mut m = Machine::new(slow_tsc(), SEED);
    let mut lay = Layout::new(m.predictor().alias_stride());
    let tsx = TsxGate::spec(GateKind::TxAnd, &mut lay)
        .unwrap()
        .instantiate(&mut m);
    let bp = BpGate::spec(GateKind::And, &mut lay)
        .unwrap()
        .instantiate(&mut m);
    let gates: [&dyn WeirdGate; 2] = [&tsx, &bp];
    for g in gates {
        assert_eq!(verify_truth_table(g, &mut m).unwrap(), None, "{}", g.name());
    }
}

#[test]
fn adder32_batch_decodes() {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let plan = adder32_spec(&mut lay).unwrap().compile();
    let runner = BatchRunner::new(plan, ShardedExecutor::new(1), SEED);
    let pairs = [(0u32, 0u32), (0x89AB_CDEF, 0x0123_4567), (u32::MAX, 1)];
    let inputs: Vec<Vec<bool>> = pairs.iter().map(|&(a, b)| adder32_inputs(a, b)).collect();
    let outs = runner
        .run(|| Machine::new(slow_tsc(), SEED), &inputs)
        .unwrap();
    for (&(a, b), bits) in pairs.iter().zip(&outs) {
        assert_eq!(
            adder32_outputs(bits),
            a.overflowing_add(b),
            "{a:#x} + {b:#x}"
        );
    }
}
