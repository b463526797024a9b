//! Quickstart: compute with time.
//!
//! Builds a weird machine, stores bits in cache state, and runs boolean
//! logic whose operations never touch an architectural ALU.
//!
//! Run with: `cargo run -p uwm-apps --example quickstart`

use uwm_core::prelude::*;
use uwm_core::skelly::Skelly;
use uwm_sim::machine::{Machine, MachineConfig};

fn main() -> Result<()> {
    // --- 1. A weird register: one bit stored in L1-residency -----------
    let mut m = Machine::new(MachineConfig::quiet(), 0);
    let mut lay = Layout::new(m.predictor().alias_stride());
    let reg = DcWr::build(&mut m, &mut lay)?;
    reg.write(&mut m, true);
    println!("DC-WR roundtrip: wrote 1, read {}", reg.read(&mut m) as u8);
    reg.write(&mut m, false);
    println!("DC-WR roundtrip: wrote 0, read {}", reg.read(&mut m) as u8);

    // --- 2. A weird gate: AND computed by a speculative race -----------
    let gate = BpGate::spec(GateKind::And, &mut lay)?.instantiate(&mut m);
    println!("\nBranch-predictor AND gate (Figure 1):");
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let r = gate.execute_timed(&mut m, &[a, b])?;
        println!(
            "  {} AND {} = {}   (output read took {} cycles)",
            a as u8, b as u8, r.bit as u8, r.delay
        );
    }

    // --- 3. A weird circuit: XOR with invisible intermediates ----------
    let mut cb = CircuitBuilder::new();
    let a = cb.input(&mut lay)?;
    let b = cb.input(&mut lay)?;
    let q = cb.xor(&mut lay, a, b)?;
    cb.mark_output(q);
    // The spec is machine-free; instantiating binds it to this machine.
    let circuit = cb.finish()?.instantiate(&mut m);
    println!(
        "\nTSX XOR circuit ({} transactions, no visible intermediates):",
        circuit.gate_count()
    );
    for (x, y) in [(false, true), (true, true)] {
        let out = circuit.run(&mut m, &[x, y])?;
        println!("  {} XOR {} = {}", x as u8, y as u8, out[0] as u8);
    }

    // --- 4. The skelly framework: word-level computation ---------------
    let mut sk = Skelly::quiet(42)?;
    let sum = sk.add32(0x1234_5678, 0x1111_1111);
    println!("\nskelly add32(0x12345678, 0x11111111) = {sum:#010x}");
    println!("(every bit of that addition went through weird gates)");
    let count = |kind: GateKind| sk.counters().get(kind.name()).map_or(0, |c| c.raw_total);
    let (nand_count, aao_count) = (count(GateKind::Nand), count(GateKind::AndAndOr));
    println!("gate executions: {nand_count} NAND, {aao_count} AND_AND_OR");
    Ok(())
}
