//! Golden equivalence test for the fetch/speculation fast path.
//!
//! The predecoded instruction cache and the reusable speculation scratch
//! buffers are host-side optimizations: every observable of the simulated
//! machine — architectural results, per-execution delays, total cycle
//! counts, and the committed event trace — must be bit-identical with the
//! fast path on and off. This test runs a BP gate and a TSX gate through
//! every input combination under both configurations and compares all of
//! those observables.

use uwm_core::gate::GateKind;
use uwm_core::skelly::Skelly;
use uwm_sim::machine::MachineConfig;

const INPUTS2: [[bool; 2]; 4] = [[false, false], [false, true], [true, false], [true, true]];

/// Everything externally observable about a short gate workload.
#[derive(Debug, PartialEq, Eq)]
struct Observables {
    readings: Vec<(bool, u64)>,
    cycles: u64,
    trace_fingerprint: u64,
    speculative_insts: u64,
    committed_insts: u64,
}

fn run_gate(kind: GateKind, predecode: bool, seed: u64) -> Observables {
    let cfg = MachineConfig {
        predecode,
        ..MachineConfig::default()
    };
    let mut sk = Skelly::new(cfg, seed).expect("skelly builds");
    sk.machine_mut().tracer_mut().set_enabled(true);
    let mut readings = Vec::new();
    for round in 0..8 {
        let inputs = INPUTS2[round % INPUTS2.len()];
        let r = sk.execute_timed(kind, &inputs).expect("arity matches");
        readings.push((r.bit, r.delay));
    }
    Observables {
        readings,
        cycles: sk.machine().cycles(),
        trace_fingerprint: sk.machine().tracer().fingerprint(),
        speculative_insts: sk.machine().stats().speculative_insts,
        committed_insts: sk.machine().stats().committed_insts,
    }
}

#[test]
fn bp_gate_is_identical_with_predecode_on_and_off() {
    let on = run_gate(GateKind::And, true, 0x5EED);
    let off = run_gate(GateKind::And, false, 0x5EED);
    assert_eq!(on, off);
}

#[test]
fn tsx_gate_is_identical_with_predecode_on_and_off() {
    let on = run_gate(GateKind::TxXor, true, 0x5EED);
    let off = run_gate(GateKind::TxXor, false, 0x5EED);
    assert_eq!(on, off);
}

#[test]
fn noisy_machine_cycle_traces_match_across_the_toggle() {
    // Default noise exercises the contention/noise paths inside
    // speculation windows too; seeds differ per round to vary alignment.
    for seed in [1u64, 42, 0xDEAD] {
        let on = run_gate(GateKind::Or, true, seed);
        let off = run_gate(GateKind::Or, false, seed);
        assert_eq!(on, off, "seed {seed}");
    }
}
