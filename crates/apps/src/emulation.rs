//! μWM as an emulation detector (§2.1, "Preventing emulation").
//!
//! Conventional emulators implement the *architectural* machine model —
//! fixed latencies, no speculation, no cache state. A μWM computation
//! therefore degenerates on them: a TSX assignment of `1` reads back `0`
//! because nothing raced, and timed loads are flat. A program can run a
//! handful of gates and refuse to reveal its real behaviour unless the
//! gates compute correctly, i.e. unless it is on real (here: fully
//! modelled) hardware.
//!
//! The probe is written once against [`Substrate`] and exercised on the two
//! execution models of [`uwm_sim::machine::Machine`] with **zero gate-code
//! duplication**:
//!
//! * the full microarchitectural model (caches, speculation,
//!   transactions): gates compute, verdict [`Platform::RealHardware`];
//! * [`MachineConfig::flat`] — the same ISA with fixed latencies and no
//!   speculation (what an analyst's emulator implements): every timed read
//!   is equally fast, the gates degenerate, verdict [`Platform::Emulated`].

use uwm_core::error::Result;
use uwm_core::gate::tsx::TsxGate;
use uwm_core::gate::{GateKind, GateSpec, WeirdGate};
use uwm_core::layout::Layout;
use uwm_core::substrate::Substrate;
use uwm_sim::machine::{Machine, MachineConfig};

/// How many probe gates a verdict is based on.
pub const PROBE_ROUNDS: usize = 16;

/// The detector's conclusion about the platform it ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Weird gates compute: a real microarchitecture is underneath.
    RealHardware,
    /// Weird gates degenerate: we are being emulated or analyzed.
    Emulated,
}

/// Builds the machine-independent probe program: one TSX assignment gate.
///
/// The same spec instantiates on every backend under test — the probe
/// *program* is identical everywhere; only the substrate differs.
///
/// # Errors
///
/// Fails if gate construction exhausts the layout.
pub fn probe_spec(lay: &mut Layout) -> Result<GateSpec<TsxGate>> {
    TsxGate::spec(GateKind::TxAssign, lay)
}

/// Runs a probe gate instance on `s` and classifies the platform.
///
/// The probe must exercise *both* logic levels: a flat emulator with
/// constant load latency reads every weird register as the same value, so
/// it fails on one of the two (it cannot fail on neither).
///
/// # Errors
///
/// Fails if `gate` does not take exactly one input.
pub fn classify(s: &mut dyn Substrate, gate: &TsxGate) -> Result<Platform> {
    let mut correct = 0usize;
    for round in 0..PROBE_ROUNDS {
        let bit = round % 2 == 0;
        if gate.execute(s, &[bit])? == bit {
            correct += 1;
        }
    }
    Ok(if correct * 4 >= PROBE_ROUNDS * 3 {
        Platform::RealHardware
    } else {
        Platform::Emulated
    })
}

/// Runs the μWM emulation probe on any substrate: builds the probe spec,
/// instantiates it on `s`, executes a TSX assignment of known bits and
/// checks that the MA layer faithfully carried them.
///
/// # Errors
///
/// Fails if gate construction exhausts the layout.
pub fn probe(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Platform> {
    let gate = probe_spec(lay)?.instantiate(s);
    classify(s, &gate)
}

/// Convenience: builds a machine from `cfg` and probes it.
///
/// # Errors
///
/// Fails if gate construction exhausts the layout.
pub fn probe_config(cfg: MachineConfig, seed: u64) -> Result<Platform> {
    let mut m = Machine::new(cfg, seed);
    let mut lay = Layout::new(m.predictor().alias_stride());
    probe(&mut m, &mut lay)
}

/// Runs **one** probe spec against both execution models — the full
/// simulated microarchitecture and the flat emulator model — and returns
/// `(on_machine, on_emulator)`. This is the paper's §2.1 demonstration in
/// a single call: same program, opposite verdicts.
///
/// # Errors
///
/// Fails if gate construction exhausts the layout.
pub fn probe_both(seed: u64) -> Result<(Platform, Platform)> {
    let mut m = Machine::new(MachineConfig::quiet(), seed);
    let mut flat = Machine::new(MachineConfig::flat(), seed);
    let mut lay = Layout::new(m.predictor().alias_stride());
    let spec = probe_spec(&mut lay)?;
    let run = |s: &mut dyn Substrate| {
        let gate = spec.instantiate(s);
        classify(s, &gate)
    };
    Ok((run(&mut m)?, run(&mut flat)?))
}

/// A computation that only reveals its result on real hardware: returns
/// `Some(a * b)` when the platform sustains μWM execution, `None` under
/// emulation — the "secret algorithm on an untrusted machine" use case.
///
/// # Errors
///
/// Fails if gate construction exhausts the layout.
pub fn guarded_multiply(
    s: &mut dyn Substrate,
    lay: &mut Layout,
    a: u32,
    b: u32,
) -> Result<Option<u64>> {
    Ok(match probe(s, lay)? {
        Platform::RealHardware => Some(a as u64 * b as u64),
        Platform::Emulated => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::machine::ExecutionModel;

    #[test]
    fn real_model_detected_as_hardware() {
        assert_eq!(
            probe_config(MachineConfig::quiet(), 0).unwrap(),
            Platform::RealHardware
        );
        assert_eq!(
            probe_config(MachineConfig::default(), 1).unwrap(),
            Platform::RealHardware,
            "default noise must not flip the verdict"
        );
    }

    #[test]
    fn flat_model_detected_as_emulator() {
        assert_eq!(
            probe_config(MachineConfig::flat(), 0).unwrap(),
            Platform::Emulated
        );
    }

    #[test]
    fn flat_substrate_detected_as_emulator() {
        // Noise perturbs only modelled microarchitecture, so turning it on
        // must not rescue the gates on the flat model.
        let cfg = MachineConfig {
            model: ExecutionModel::Flat,
            ..MachineConfig::default()
        };
        let mut flat = Machine::new(cfg, 0);
        let mut lay = Layout::new(flat.alias_stride());
        assert_eq!(probe(&mut flat, &mut lay).unwrap(), Platform::Emulated);
    }

    #[test]
    fn one_spec_opposite_verdicts() {
        let (hw, emu) = probe_both(0).unwrap();
        assert_eq!(hw, Platform::RealHardware);
        assert_eq!(emu, Platform::Emulated);
    }

    #[test]
    fn guarded_computation_withholds_result_under_emulation() {
        let mut flat = Machine::new(MachineConfig::flat(), 0);
        let mut lay = Layout::new(flat.alias_stride());
        assert_eq!(guarded_multiply(&mut flat, &mut lay, 6, 7).unwrap(), None);

        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        assert_eq!(guarded_multiply(&mut m, &mut lay, 6, 7).unwrap(), Some(42));
    }
}
