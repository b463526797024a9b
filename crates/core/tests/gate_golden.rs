//! Cross-version golden pin for the weird gates.
//!
//! The equivalence suite (`batch_equiv`) compares two execution paths of
//! the *same* build, so a change that moves a gate's
//! layout allocation or reorders its substrate calls passes them
//! unnoticed. This test pins absolute simulated observables instead: per
//! gate kind, the bits and timing of a fixed input schedule on a noisy
//! machine, the end cycle count, the machine statistics and the committed
//! trace fingerprint; the voter's counter bank under the paper's
//! redundancy; and the 32-bit adder circuit's readings on a quiet machine.
//! The expected values were recorded once and must never be edited to
//! make a refactor pass.
//!
//! Eight gate kinds are reached through `Skelly`'s logical operations with
//! no redundancy (one raw execution each); their per-round timing is the
//! cycle count the round took, of which the output-read delay is the last
//! addend. `TSX_AND_OR` and `TSX_XOR` are driven through their gate values
//! and also pin the raw read delay.

use uwm_core::circuit::{adder32_inputs, adder32_spec};
use uwm_core::gate::WeirdGate;
use uwm_core::layout::Layout;
use uwm_core::skelly::{GateCounters, Redundancy, Skelly};
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_sim::machine::{Machine, MachineConfig, MachineStats};

const SEED: u64 = 0x601D_3E7A;
const ROUNDS: usize = 8;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Round `r`'s inputs: a fixed schedule covering every combination of the
/// first two inputs twice.
fn inputs(r: usize) -> [bool; 4] {
    [
        r & 1 == 1,
        r >> 1 & 1 == 1,
        r >> 2 & 1 == 0,
        r.is_multiple_of(3),
    ]
}

/// Everything pinned about one gate kind's run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// FNV-1a of every round's `(bit, delay, round cycles)`; `delay` is 0
    /// for kinds reached through the voted operations.
    rounds: u64,
    cycles: u64,
    stats: MachineStats,
    trace: u64,
}

/// Runs `op` for [`ROUNDS`] rounds on a fresh default-noise skelly with
/// tracing on. `op` returns the round's bit and raw delay (0 if unknown).
fn pin(op: impl Fn(&mut Skelly, [bool; 4]) -> (bool, u64)) -> Pin {
    let mut sk = Skelly::new(MachineConfig::default(), SEED).expect("skelly builds");
    sk.machine_mut().tracer_mut().set_enabled(true);
    let mut h = Fnv::new();
    for r in 0..ROUNDS {
        let before = sk.machine().cycles();
        let (bit, delay) = op(&mut sk, inputs(r));
        h.word(u64::from(bit));
        h.word(delay);
        h.word(sk.machine().cycles() - before);
    }
    Pin {
        rounds: h.0,
        cycles: sk.machine().cycles(),
        stats: sk.machine().stats(),
        trace: sk.machine().tracer().fingerprint(),
    }
}

fn stats(
    committed_insts: u64,
    speculative_insts: u64,
    mispredicts: u64,
    tx_begun: u64,
    tx_aborted: u64,
    tx_spurious_aborts: u64,
) -> MachineStats {
    MachineStats {
        committed_insts,
        speculative_insts,
        mispredicts,
        tx_begun,
        tx_aborted,
        tx_spurious_aborts,
    }
}

fn voted(bit: bool) -> (bool, u64) {
    (bit, 0)
}

/// One raw two-input execution of a gate value on the skelly's machine.
fn raw(sk: &mut Skelly, gate: impl WeirdGate, x: [bool; 4]) -> (bool, u64) {
    let r = gate
        .execute_timed(sk.machine_mut(), &x[..2])
        .expect("two-input gate");
    (r.bit, r.delay)
}

#[test]
fn bp_and() {
    let got = pin(|sk, x| voted(sk.and(x[0], x[1])));
    let want = Pin {
        rounds: 0x8cc13049facebb21,
        cycles: 16122,
        stats: stats(80, 52, 10, 0, 0, 0),
        trace: 0x655fb8cbdf0c2ddf,
    };
    assert_eq!(got, want);
}

#[test]
fn bp_or() {
    let got = pin(|sk, x| voted(sk.or(x[0], x[1])));
    let want = Pin {
        rounds: 0xe95784cf19cb4719,
        cycles: 17679,
        stats: stats(152, 138, 18, 0, 0, 0),
        trace: 0x13e075e642b27e82,
    };
    assert_eq!(got, want);
}

#[test]
fn bp_nand() {
    let got = pin(|sk, x| voted(sk.nand(x[0], x[1])));
    let want = Pin {
        rounds: 0x830c0bb6d1e7d14,
        cycles: 15508,
        stats: stats(80, 52, 10, 0, 0, 0),
        trace: 0xb671cf9dec1af16b,
    };
    assert_eq!(got, want);
}

#[test]
fn bp_and_and_or() {
    let got = pin(|sk, x| voted(sk.and_and_or(x[0], x[1], x[2], x[3])));
    let want = Pin {
        rounds: 0x3ba42d19c0e204a2,
        cycles: 17730,
        stats: stats(152, 84, 20, 0, 0, 0),
        trace: 0x3437d87654061f53,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_assign() {
    let got = pin(|sk, x| voted(sk.tsx_assign(x[0])));
    let want = Pin {
        rounds: 0xb3c3dcc9ae0c8093,
        cycles: 14619,
        stats: stats(24, 32, 0, 8, 8, 0),
        trace: 0xdcac99cd23e03830,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_and() {
    let got = pin(|sk, x| voted(sk.tsx_and(x[0], x[1])));
    let want = Pin {
        rounds: 0xe25218a6677495f7,
        cycles: 15264,
        stats: stats(24, 42, 0, 8, 8, 0),
        trace: 0x155c71758f9d4272,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_or() {
    let got = pin(|sk, x| voted(sk.tsx_or(x[0], x[1])));
    let want = Pin {
        rounds: 0xe55f22eb21e182bb,
        cycles: 14490,
        stats: stats(24, 49, 0, 8, 8, 0),
        trace: 0x1ed661ecb0aabfdc,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_and_or() {
    let got = pin(|sk, x| raw(sk, sk.tsx_and_or_gate(), x));
    let want = Pin {
        rounds: 0xe1919c0c2fa42690,
        cycles: 15826,
        stats: stats(24, 80, 0, 8, 8, 0),
        trace: 0x2425aad80be6617d,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_not() {
    let got = pin(|sk, x| voted(sk.tsx_not(x[0])));
    let want = Pin {
        rounds: 0xd4f42d64a1825e64,
        cycles: 14779,
        stats: stats(24, 24, 0, 8, 8, 0),
        trace: 0x505bf5b216f4a010,
    };
    assert_eq!(got, want);
}

#[test]
fn tsx_xor() {
    let got = pin(|sk, x| raw(sk, sk.tsx_xor_gate(), x));
    let want = Pin {
        rounds: 0xc635a3a9e46588e9,
        cycles: 18377,
        stats: stats(72, 152, 0, 24, 24, 0),
        trace: 0xef8abc80808954f2,
    };
    assert_eq!(got, want);
}

/// The voter's per-gate counters after voted operations under the paper's
/// redundancy (split protocol: prepare once, replay from a snapshot).
#[test]
fn voted_counter_bank() {
    let mut sk = Skelly::new(MachineConfig::default(), SEED).expect("skelly builds");
    sk.set_redundancy(Redundancy::paper())
        .expect("redundancy can vote");
    let mut h = Fnv::new();
    for r in 0..4 {
        let x = inputs(r);
        h.word(u64::from(sk.tsx_xor(x[0], x[1])));
        h.word(u64::from(sk.nand(x[0], x[1])));
        h.word(u64::from(sk.and_and_or(x[0], x[1], x[2], x[3])));
    }
    let got: Vec<(&str, GateCounters)> = sk.counters().iter().map(|(n, c)| (n, *c)).collect();
    let counters = |raw_correct, medians_correct, votes_correct| GateCounters {
        raw_total: 4 * 50,
        raw_correct,
        medians_total: 4 * 5,
        medians_correct,
        votes_total: 4,
        votes_correct,
    };
    let want = vec![
        ("AND_AND_OR", counters(200, 20, 4)),
        ("NAND", counters(200, 20, 4)),
        ("TSX_XOR", counters(190, 20, 4)),
    ];
    assert_eq!(got, want);
    assert_eq!((h.0, sk.machine().cycles()), (0x1b1a6fd16f43d624, 311354));
}

/// The compiled 32-bit adder on a quiet machine: calibrated threshold,
/// every output's bit and raw delay, and the clock after each run.
#[test]
fn adder32_plan_readings() {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let plan = adder32_spec(&mut lay).expect("adder builds").compile();
    let mut m = Machine::new(MachineConfig::quiet(), SEED);
    let c = plan.instantiate(&mut m);
    let mut h = Fnv::new();
    for (a, b) in [
        (0u32, 0u32),
        (0x89AB_CDEF, 0x0123_4567),
        (u32::MAX, 1),
        (0xDEAD_BEEF, 0xFEED_F00D),
    ] {
        for r in c
            .run_timed(&mut m, &adder32_inputs(a, b))
            .expect("64 inputs")
        {
            h.word(u64::from(r.bit));
            h.word(r.delay);
        }
        h.word(m.cycles());
    }
    assert_eq!(
        (c.threshold(), h.0, m.cycles()),
        (132, 0x33746e79d2f07bd1, 481312)
    );
}
