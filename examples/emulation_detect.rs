//! μWM as an emulation detector (§2.1 of the paper).
//!
//! One machine-independent probe spec is instantiated on two [`Substrate`]
//! backends — the full microarchitectural model and a flat architectural
//! interpreter. Weird gates compute on the former and degenerate on the
//! latter, so a program can refuse to run under analysis, with no gate
//! code duplicated per backend.
//!
//! Run with: `cargo run -p uwm-apps --example emulation_detect`

use uwm_apps::emulation::{classify, probe_spec};
use uwm_core::layout::Layout;
use uwm_core::substrate::{FlatEmulator, Substrate};
use uwm_sim::machine::{Machine, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One spec, built once, bound to whichever backend is at hand.
    let mut lay = Layout::new(uwm_core::substrate::DEFAULT_ALIAS_STRIDE);
    let spec = probe_spec(&mut lay)?;

    let mut machine = Machine::new(MachineConfig::default(), 99);
    let mut flat = FlatEmulator::new();
    let backends: [(&str, &mut dyn Substrate); 2] = [
        ("uwm_sim::Machine (microarchitectural model)", &mut machine),
        ("FlatEmulator     (architectural interpreter)", &mut flat),
    ];
    for (label, s) in backends {
        let gate = spec.instantiate(s);
        let verdict = classify(s, &gate)?;
        println!("{label} → {verdict:?}");
    }

    // The guarded computation only reveals its answer on real hardware.
    println!("\nguarded secret computation (6 × 7):");
    {
        let mut m = Machine::new(MachineConfig::default(), 3);
        let mut lay = Layout::new(m.predictor().alias_stride());
        report(
            "real",
            uwm_apps::emulation::guarded_multiply(&mut m, &mut lay, 6, 7)?,
        );
    }
    {
        let mut flat = FlatEmulator::new();
        let mut lay = Layout::new(flat.alias_stride());
        report(
            "emulated",
            uwm_apps::emulation::guarded_multiply(&mut flat, &mut lay, 6, 7)?,
        );
    }
    Ok(())
}

fn report(label: &str, result: Option<u64>) {
    match result {
        Some(v) => println!("  on {label:<8} platform: result = {v}"),
        None => println!("  on {label:<8} platform: refused (emulation detected)"),
    }
}
