//! Every decoded bit uses the threshold calibrated on its own backend.
//!
//! The machine here has a slow timestamp read (`rdtscp` costs 150 cycles,
//! not 30), so even an L1 hit reads as about 154 cycles. A fixed
//! threshold tuned to the default machine would read every output as a
//! miss; a threshold calibrated on this machine separates hits from
//! misses as on any other. Each entry point that binds gates or circuits
//! to a backend is checked: skelly's gate bank, skelly's voter, a
//! standalone gate spec of either family, and a compiled circuit plan on
//! the batch engine. The weird registers are checked on five machines.

use uwm_core::batch::BatchRunner;
use uwm_core::circuit::{adder32_inputs, adder32_outputs, adder32_spec};
use uwm_core::exec::ShardedExecutor;
use uwm_core::gate::bp::BpGate;
use uwm_core::gate::tsx::TsxGate;
use uwm_core::gate::{verify_truth_table, GateKind, WeirdGate};
use uwm_core::layout::Layout;
use uwm_core::reg::{Bound, BpWr, BtbWr, DcWr, IcWr, MulWr, RobWr, VmxWr, WeirdRegister};
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

/// Every `LatencyConfig` field at twice its default.
fn doubled() -> LatencyConfig {
    let l = LatencyConfig::default();
    LatencyConfig {
        l1: 2 * l.l1,
        l2: 2 * l.l2,
        l3: 2 * l.l3,
        dram: 2 * l.dram,
        alu: 2 * l.alu,
        mul: 2 * l.mul,
        div: 2 * l.div,
        rdtscp: 2 * l.rdtscp,
        clflush: 2 * l.clflush,
        mispredict_penalty: 2 * l.mispredict_penalty,
        btb_miss_penalty: 2 * l.btb_miss_penalty,
        xbegin: 2 * l.xbegin,
        xend: 2 * l.xend,
        xabort: 2 * l.xabort,
        tsx_spec_window: 2 * l.tsx_spec_window,
        spec_window_slack: 2 * l.spec_window_slack,
        vmx_warm: 2 * l.vmx_warm,
        vmx_cold: 2 * l.vmx_cold,
    }
}

/// One register of every Table 1 type, each calibrated on `m`.
fn registers(m: &mut Machine) -> Vec<Box<dyn WeirdRegister>> {
    let mut lay = Layout::new(m.predictor().alias_stride());
    vec![
        Box::new(DcWr::build(m, &mut lay).unwrap()),
        Box::new(IcWr::build(m, &mut lay).unwrap()),
        Box::new(BpWr::build(m, &mut lay).unwrap()),
        Box::new(BtbWr::build(m, &mut lay).unwrap()),
        Box::new(MulWr::build(m, &mut lay).unwrap()),
        Box::new(RobWr::build(m, &mut lay).unwrap()),
        Box::new(VmxWr::build(m, &mut lay).unwrap()),
    ]
}

/// Writes then reads `bits` alternating bits (1, 0, 1, …); returns the
/// reads.
fn round_trip(m: &mut Machine, r: &dyn WeirdRegister, bits: usize) -> Vec<bool> {
    (0..bits)
        .map(|i| {
            r.write(m, i % 2 == 0);
            r.read(m)
        })
        .collect()
}

/// Every register decodes against the bound calibrated on its own
/// machine: 20/20 alternating bits on quiet machines whatever their
/// latencies (`dram: 80` brings every miss under 100 cycles), at least
/// 190/200 under default noise, and one constant bit on the flat model,
/// which has no microarchitectural state.
#[test]
fn registers_decode() {
    let boundary = Bound {
        threshold: 100,
        one_is_fast: true,
    };
    assert!(boundary.bit(4) && !boundary.bit(200));
    assert!(!boundary.bit(100), "the boundary reads as a miss");

    let quiet = |latency| MachineConfig {
        latency,
        ..MachineConfig::quiet()
    };
    let dram_80 = LatencyConfig {
        dram: 80,
        ..LatencyConfig::default()
    };
    // (machine, bits written, least read back)
    let machines = [
        ("quiet", MachineConfig::quiet(), 20, 20),
        ("default noise", MachineConfig::default(), 200, 190),
        ("rdtscp 150", slow_tsc(), 20, 20),
        ("latencies x2", quiet(doubled()), 20, 20),
        ("dram 80", quiet(dram_80), 20, 20),
    ];
    for (what, cfg, bits, min_correct) in machines {
        let mut m = Machine::new(cfg, SEED);
        for r in registers(&mut m) {
            let reads = round_trip(&mut m, r.as_ref(), bits);
            let correct = (0..bits).filter(|&i| reads[i] == (i % 2 == 0)).count();
            assert!(
                correct >= min_correct,
                "{what}: `{}` read {correct}/{bits} ({:?})",
                r.name(),
                r.bound()
            );
        }
    }

    let mut m = Machine::new(MachineConfig::flat(), SEED);
    for r in registers(&mut m) {
        let reads = round_trip(&mut m, r.as_ref(), 20);
        assert!(
            reads.iter().all(|&b| b == reads[0]),
            "flat: `{}` read {reads:?}",
            r.name()
        );
    }
}
