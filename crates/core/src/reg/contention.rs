//! Contention-based weird registers: MUL-WR, ROB-WR, VMX-WR.
//!
//! These are the *volatile* registers of Table 1: the stored value decays
//! within a few thousand cycles, which hurts reliability but improves
//! stealth (§3.1, property 1).

use crate::error::Result;
use crate::layout::Layout;
use crate::reg::{calibrate, install_stub, time_stub, Bound, WeirdRegister};
use crate::substrate::Substrate;
use uwm_sim::isa::{Inst, Operand};

/// Multiplier-port contention weird register.
///
/// Writing 1 hammers the multiplier with a burst of `mul` instructions;
/// writing 0 lets the pipeline drain. Reading times a single `mul`: a
/// backed-up multiplier shows a queuing delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulWr {
    burst_pc: u64,
    probe_pc: u64,
    bound: Bound,
}

/// `mul` instructions issued per write-1 burst.
const MUL_BURST: usize = 24;

impl MulWr {
    /// Builds the burst and probe stubs.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let mul = |r| Inst::Mul {
            dst: r,
            a: r,
            b: Operand::Imm(3),
        };
        let mut r = Self {
            burst_pc: install_stub(s, lay, &[mul(1); MUL_BURST])?,
            probe_pc: install_stub(s, lay, &[mul(2)])?,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }
}

impl WeirdRegister for MulWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.run_at(self.burst_pc);
        } else {
            // "Execute nops": give the pipeline time to drain.
            s.idle(uwm_sim::contention::MUL_QUEUE_CAP);
        }
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        time_stub(s, self.probe_pc)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "mul"
    }
}

/// Reorder-buffer pressure weird register.
///
/// Writing 1 issues a burst of cache-missing loads whose long latencies
/// park in the ROB; reading times a serializing `fence`, which must wait
/// for the buffer to drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobWr {
    burst_pc: u64,
    probe_pc: u64,
    /// First of the miss-target variables (one line each).
    targets: u64,
    bound: Bound,
}

/// Cache-missing loads per write-1 burst.
const ROB_BURST: u64 = 8;

impl RobWr {
    /// Builds the burst/probe stubs and their private miss targets.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let targets = lay.alloc_var()?;
        (1..ROB_BURST).try_for_each(|_| lay.alloc_var().map(drop))?; // the rest of the run
        let loads: Vec<Inst> = (0..ROB_BURST)
            .map(|i| Inst::Load {
                dst: 1,
                addr: (targets + i * 64) as u32,
            })
            .collect();
        let mut r = Self {
            burst_pc: install_stub(s, lay, &loads)?,
            probe_pc: install_stub(s, lay, &[Inst::Fence])?,
            targets,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }
}

impl WeirdRegister for RobWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            // Ensure the loads actually miss: flush the targets first.
            for i in 0..ROB_BURST {
                s.flush_addr(self.targets + i * 64);
            }
            s.run_at(self.burst_pc);
        } else {
            // Long enough for the deepest burst to drain completely.
            s.idle(20_000);
        }
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        time_stub(s, self.probe_pc)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "rob"
    }
}

/// VMX warm-up weird register (NetSpectre-style).
///
/// Writing 1 executes a VMX-class instruction, leaving the VMX machinery
/// powered/warm for a while; reading times a single VMX instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmxWr {
    probe_pc: u64,
    bound: Bound,
}

impl VmxWr {
    /// Builds the probe stub.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let mut r = Self {
            probe_pc: install_stub(s, lay, &[Inst::Vmx])?,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }
}

impl WeirdRegister for VmxWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.run_at(self.probe_pc);
        } else {
            s.idle(uwm_sim::contention::VMX_WARM_WINDOW + 1);
        }
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        time_stub(s, self.probe_pc)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "vmx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::machine::{Machine, MachineConfig};

    fn setup() -> (Machine, Layout) {
        let m = Machine::new(MachineConfig::quiet(), 0);
        let lay = Layout::new(m.predictor().alias_stride());
        (m, lay)
    }

    #[test]
    fn mul_value_decays_volatility() {
        let (mut m, mut lay) = setup();
        let r = MulWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        m.idle(10_000);
        assert!(!r.read(&mut m), "contention must decay to 0");
    }

    #[test]
    fn rob_value_decays() {
        let (mut m, mut lay) = setup();
        let r = RobWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        m.idle(100_000);
        assert!(!r.read(&mut m));
    }

    #[test]
    fn vmx_warm_window_carries_the_bit() {
        let (mut m, mut lay) = setup();
        let r = VmxWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        r.write(&mut m, false);
        assert!(!r.read(&mut m), "cold after the warm window passes");
        // Reading warmed it again: decoherence.
        assert!(r.read(&mut m));
    }

    #[test]
    fn vmx_read_zero_is_destructive() {
        let (mut m, mut lay) = setup();
        let r = VmxWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m));
        assert!(r.read(&mut m), "the probe itself warmed the machinery");
    }
}
