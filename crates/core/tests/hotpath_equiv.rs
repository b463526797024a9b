//! Golden equivalence test for the fetch/speculation fast path.
//!
//! The predecode cache is the machine's only fetch path for static code;
//! the program lookup it replaced is gone. Every observable of the
//! simulated machine — architectural results, per-execution delays, total
//! cycle counts, and the committed event trace — must still equal what
//! that reference path produced. The pinned values below were recorded
//! from a build that still had both paths, with the cache on and off
//! agreeing on every one of them. The per-fetch comparison against the
//! reference lives in `uwm-sim`'s `machine::fetch_tests`.

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

fn run_gate(kind: GateKind, seed: u64) -> Observables {
    let mut sk = Skelly::new(MachineConfig::default(), seed).expect("skelly builds");
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
    let expected = Observables {
        readings: vec![
            (false, 233),
            (false, 230),
            (false, 232),
            (true, 36),
            (false, 233),
            (false, 233),
            (false, 231),
            (true, 37),
        ],
        cycles: 15894,
        trace_fingerprint: 7304760306378223071,
        speculative_insts: 58,
        committed_insts: 80,
    };
    assert_eq!(run_gate(GateKind::And, 0x5EED), expected);
}

#[test]
fn tsx_gate_is_identical_with_predecode_on_and_off() {
    let expected = Observables {
        readings: vec![
            (false, 231),
            (true, 35),
            (true, 35),
            (false, 233),
            (false, 231),
            (true, 34),
            (true, 34),
            (false, 232),
        ],
        cycles: 18400,
        trace_fingerprint: 17260815781949166834,
        speculative_insts: 143,
        committed_insts: 72,
    };
    assert_eq!(run_gate(GateKind::TxXor, 0x5EED), expected);
}

#[test]
fn noisy_machine_cycle_traces_match_across_the_toggle() {
    // Default noise exercises the contention/noise paths inside
    // speculation windows too; seeds differ per round to vary alignment.
    let cases: [(u64, [u64; 8], u64, u64); 3] = [
        (1, [230, 37, 34, 37, 232, 37, 37, 37], 17822, 142),
        (42, [233, 35, 34, 36, 233, 34, 36, 35], 17823, 142),
        (0xDEAD, [233, 37, 37, 34, 232, 35, 34, 36], 17783, 143),
    ];
    let bits = [false, true, true, true, false, true, true, true];
    for (seed, delays, cycles, speculative_insts) in cases {
        let expected = Observables {
            readings: bits.iter().copied().zip(delays).collect(),
            cycles,
            trace_fingerprint: 1432274313325739650,
            speculative_insts,
            committed_insts: 152,
        };
        assert_eq!(run_gate(GateKind::Or, seed), expected, "seed {seed}");
    }
}
