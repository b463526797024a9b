//! Determinism guarantees of the sharded executor stack: the same seed
//! must produce identical merged results no matter how many shards run
//! the batches, and repeated runs must agree bit for bit.

use uwm_bench::{gate_performance_sharded, sharded_counters, sharded_delays, GATE_BATCH_OPS};
use uwm_core::circuit::CircuitBuilder;
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::gate::GateKind;
use uwm_core::layout::Layout;
use uwm_core::skelly::GateCounters;
use uwm_sim::machine::{Machine, MachineConfig};
use uwm_sim::trace::Tracer;

/// Enough operations for three hermetic batches, so the merge actually
/// crosses batch boundaries.
const OPS: u64 = 2 * GATE_BATCH_OPS + 100;

#[test]
fn gate_run_is_shard_count_invariant() {
    let one = gate_performance_sharded(GateKind::TxXor, OPS, 42, 1);
    let four = gate_performance_sharded(GateKind::TxXor, OPS, 42, 4);
    assert_eq!(one.run.ops, four.run.ops);
    assert_eq!(one.run.correct, four.run.correct);
    assert_eq!(one.run.sim_cycles, four.run.sim_cycles);
    assert_eq!(one.run.spurious_aborts, four.run.spurious_aborts);
    assert_eq!(
        one.delays, four.delays,
        "delay statistics must merge identically"
    );
}

#[test]
fn two_sharded_runs_are_identical() {
    let a = gate_performance_sharded(GateKind::And, GATE_BATCH_OPS + 50, 7, 3);
    let b = gate_performance_sharded(GateKind::And, GATE_BATCH_OPS + 50, 7, 3);
    assert_eq!(a.run.correct, b.run.correct);
    assert_eq!(a.run.sim_cycles, b.run.sim_cycles);
    assert_eq!(a.delays, b.delays);
}

#[test]
fn delay_sweep_is_shard_count_invariant() {
    let sweep = |shards| {
        sharded_delays(OPS, 9, shards, |sk, rng| {
            use uwm_rng::Rng;
            let inputs = [rng.gen::<bool>(), rng.gen::<bool>()];
            sk.execute_timed(GateKind::TxAnd, &inputs)
                .expect("arity")
                .delay
        })
    };
    assert_eq!(
        sweep(1),
        sweep(5),
        "concatenated delays must not depend on shard count"
    );
}

#[test]
fn merged_counters_are_shard_count_invariant() {
    let run = |shards| {
        sharded_counters(6, MachineConfig::default(), 11, shards, |sk, i| {
            for j in 0..5u32 {
                sk.tsx_xor(i % 2 == 0, j % 2 == 0);
                sk.and(j % 3 == 0, i % 2 == 1);
            }
        })
    };
    let one: Vec<(&str, GateCounters)> = run(1).iter().map(|(n, c)| (n, *c)).collect();
    let three: Vec<(&str, GateCounters)> = run(3).iter().map(|(n, c)| (n, *c)).collect();
    assert!(!one.is_empty(), "the workload must execute gates");
    assert_eq!(
        one, three,
        "merged counter banks must not depend on shard count"
    );
}

/// The §2.2 invisibility property holds inside every shard: each batch
/// builds its own machine from the shared spec, runs the XOR circuit on
/// all four input combinations under a tracer, and the committed
/// architectural trace is identical across inputs — while outputs differ.
#[test]
fn trace_invisibility_holds_per_shard() {
    let exec = ShardedExecutor::new(4);
    let per_batch = exec.run(8, |i| {
        let mut m = Machine::new(MachineConfig::quiet(), batch_seed(0xACE, i));
        let mut lay = Layout::new(m.predictor().alias_stride());
        let mut cb = CircuitBuilder::new();
        let a = cb.input(&mut lay).unwrap();
        let b = cb.input(&mut lay).unwrap();
        let q = cb.xor(&mut lay, a, b).unwrap();
        cb.mark_output(q);
        let circuit = cb.finish().unwrap().instantiate(&mut m);

        let mut fingerprints = Vec::new();
        let mut outputs = Vec::new();
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            *m.tracer_mut() = Tracer::new();
            let out = circuit.run(&mut m, &[x, y]).unwrap();
            fingerprints.push(m.tracer().fingerprint());
            outputs.push(out[0]);
            *m.tracer_mut() = Tracer::disabled();
        }
        (fingerprints, outputs)
    });
    assert_eq!(per_batch.len(), 8);
    for (shard_fps, outputs) in &per_batch {
        assert!(
            shard_fps.windows(2).all(|w| w[0] == w[1]),
            "per-shard traces must be input-independent"
        );
        assert_eq!(
            outputs,
            &[false, true, true, false],
            "…while outputs still compute XOR"
        );
    }
}
