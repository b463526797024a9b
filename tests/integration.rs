//! Cross-crate integration tests: the full stack from simulator to
//! applications, exercised together.

use uwm_apps::covert::CovertChannel;
use uwm_apps::emulation::{probe_config, Platform};
use uwm_apps::wm_apt::{Payload, WmApt};
use uwm_core::circuit::CircuitBuilder;
use uwm_core::gate::tsx::TsxGate;
use uwm_core::gate::GateKind;
use uwm_core::layout::Layout;
use uwm_core::reg::{DcWr, WeirdRegister};
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_sim::machine::{Machine, MachineConfig};

/// A weird register written through the register API is readable through a
/// weird gate wired to the same address — layers compose.
#[test]
fn register_and_gate_layers_share_state() {
    let mut m = Machine::new(MachineConfig::quiet(), 0);
    let mut lay = Layout::new(m.predictor().alias_stride());
    let input = lay.alloc_var().unwrap();
    let out = lay.alloc_var().unwrap();
    let gate = TsxGate::spec_wired(GateKind::TxAssign, &mut lay, &[input], &[out])
        .unwrap()
        .instantiate(&mut m);
    let reg = DcWr::at(&mut m, input);
    let out_reg = DcWr::at(&mut m, out);

    reg.write(&mut m, true);
    gate.prepare(&mut m);
    gate.activate(&mut m);
    assert!(out_reg.read(&mut m), "gate consumed the register's bit");
}

/// An 8-bit weird ripple-carry adder built from skelly: compare against
/// plain arithmetic over a sample of operand pairs.
#[test]
fn eight_bit_adder_from_skelly() {
    let mut sk = Skelly::quiet(5).unwrap();
    for (a, b) in [
        (0u32, 0u32),
        (1, 1),
        (127, 1),
        (200, 55),
        (255, 255),
        (170, 85),
    ] {
        let sum = sk.add32(a, b) & 0xFF;
        assert_eq!(sum, (a + b) & 0xFF, "{a}+{b}");
    }
}

/// Full trigger lifecycle under default noise: the trigger eventually
/// fires; wrong triggers never do.
#[test]
fn wm_apt_lifecycle_under_noise() {
    let (mut apt, trigger) = WmApt::new(2, Payload::ReverseShell).unwrap();
    let mut wrong = trigger;
    wrong[11] ^= 0xFF;
    for _ in 0..3 {
        assert!(!apt.ping(&wrong).triggered);
    }
    let fired = (0..300).any(|_| apt.ping(&trigger).triggered);
    assert!(fired, "real trigger must land within 300 pings");
}

/// The covert channel delivers data end to end on a noisy machine with a
/// tolerable bit error rate.
#[test]
fn covert_channel_is_usable_under_noise() {
    let mut m = Machine::new(MachineConfig::default(), 31);
    let mut lay = Layout::new(m.predictor().alias_stride());
    let chan = CovertChannel::build(&mut m, &mut lay).unwrap();
    let msg = b"weird machines compute with time";
    let (rx, stats) = chan.transfer(&mut m, msg);
    let ber = stats.bit_errors as f64 / stats.bits as f64;
    assert!(ber < 0.02, "BER {ber}");
    // Most bytes arrive intact.
    let intact = rx.iter().zip(msg).filter(|(a, b)| a == b).count();
    assert!(intact * 10 >= msg.len() * 9);
}

/// Emulation detection distinguishes the two machine models regardless of
/// seed.
#[test]
fn emulation_detection_is_seed_robust() {
    for seed in 0..5 {
        assert_eq!(
            probe_config(MachineConfig::default(), seed).unwrap(),
            Platform::RealHardware
        );
        assert_eq!(
            probe_config(MachineConfig::flat(), seed).unwrap(),
            Platform::Emulated
        );
    }
}

/// A multi-gate circuit and the voted skelly ops agree on the same
/// function (two independent μWM implementations of XOR).
#[test]
fn circuit_and_skelly_xor_agree() {
    let mut sk = Skelly::quiet(9).unwrap();
    let (m, lay) = sk.machine_and_layout();
    let mut cb = CircuitBuilder::new();
    let a = cb.input(lay).unwrap();
    let b = cb.input(lay).unwrap();
    let q = cb.xor(lay, a, b).unwrap();
    cb.mark_output(q);
    let circuit = cb.finish().unwrap().instantiate(m);
    for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
        let circuit_out = circuit.run(sk.machine_mut(), &[x, y]).unwrap()[0];
        let skelly_out = sk.tsx_xor(x, y);
        assert_eq!(circuit_out, skelly_out);
        assert_eq!(circuit_out, x ^ y);
    }
}

/// Redundancy rescues accuracy under heavy noise: raw executions err
/// noticeably, voted results err far less.
#[test]
fn redundancy_improves_noisy_accuracy() {
    let mut sk = Skelly::new(MachineConfig::default(), 77).unwrap();
    sk.set_redundancy(Redundancy::paper());
    let mut wrong_voted = 0u32;
    let trials = 60;
    for i in 0..trials {
        let a = i % 2 == 0;
        let b = i % 3 == 0;
        if sk.tsx_and(a, b) != (a & b) {
            wrong_voted += 1;
        }
    }
    let c = sk.counters().get("TSX_AND").unwrap();
    assert!(
        c.raw_correct < c.raw_total,
        "default noise should cause at least one raw error in {} executions",
        c.raw_total
    );
    assert_eq!(wrong_voted, 0, "votes must mask the raw errors");
}

/// The machine's determinism carries through the whole stack: identical
/// seeds give identical gate statistics.
#[test]
fn whole_stack_is_deterministic_per_seed() {
    let run = |seed| {
        let mut sk = Skelly::noisy(seed).unwrap();
        for i in 0..40u32 {
            sk.tsx_xor(i % 2 == 0, i % 3 == 0);
        }
        let c = sk.counters().get("TSX_XOR").unwrap();
        (c.raw_correct, c.raw_total)
    };
    assert_eq!(run(123), run(123));
    assert_ne!(
        run(123),
        run(124),
        "different seeds should differ somewhere"
    );
}
