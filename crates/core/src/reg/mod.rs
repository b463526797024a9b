//! Weird registers (§3.1): data stored in microarchitectural state.
//!
//! Each type here realizes one row of the paper's Table 1. A weird register
//! is written by *doing things* to the machine (touching, flushing,
//! training, contending) and read by *timing things* — never by reading an
//! architectural location. Reads are invasive: they usually destroy or
//! perturb the stored value ("state decoherence").
//!
//! Every register decodes one way: [`WeirdRegister::read`] compares the
//! register's timed probe against the [`Bound`] that `build` measured on
//! its own backend with [`calibrate`]. [`DcWr`] is a gate output and takes
//! its threshold from
//! [`calibrate_threshold`](crate::skelly::calibrate_threshold). On
//! [`MachineConfig::flat`](uwm_sim::machine::MachineConfig::flat), which
//! has no microarchitectural state, every register reads one constant bit.

mod branch;
mod cache;
mod contention;

pub use branch::{BpWr, BtbWr};
pub use cache::{DcWr, IcWr};
pub use contention::{MulWr, RobWr, VmxWr};

use crate::error::Result;
use crate::layout::Layout;
use crate::skelly::{median, CALIBRATION_SAMPLES};
use crate::substrate::Substrate;
use uwm_sim::isa::{Assembler, Inst, INST_SIZE};

/// A one-bit storage entity encoded in microarchitectural state.
///
/// Implementations differ in which MA resource they use, how volatile the
/// stored value is, and how invasive a read is — see the paper's Table 1.
/// Registers are backend-agnostic: they run against any
/// [`Substrate`] (`&mut Machine` coerces at every call site).
///
/// # Examples
///
/// ```
/// use uwm_core::layout::Layout;
/// use uwm_core::reg::{DcWr, WeirdRegister};
/// use uwm_sim::machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut lay = Layout::new(m.predictor().alias_stride());
/// let r = DcWr::build(&mut m, &mut lay).unwrap();
/// r.write(&mut m, true);
/// assert!(r.read(&mut m));
/// r.write(&mut m, false);
/// assert!(!r.read(&mut m));
/// ```
pub trait WeirdRegister {
    /// Stores `bit` into the MA resource.
    fn write(&self, s: &mut dyn Substrate, bit: bool);

    /// Times the register's probe and returns the raw delay in cycles.
    /// **Invasive**, like [`WeirdRegister::read`].
    fn read_delay(&self, s: &mut dyn Substrate) -> u64;

    /// The bound calibrated on the register's backend.
    fn bound(&self) -> Bound;

    /// Decodes one probe against the bound. **Invasive**: the read itself
    /// changes MA state (usually toward `1` for cache-residency registers).
    fn read(&self, s: &mut dyn Substrate) -> bool {
        self.bound().bit(self.read_delay(s))
    }

    /// Short human-readable name ("dc", "ic", "bp", …).
    fn name(&self) -> &'static str;
}

/// Where a register's probe delays split into logic 0 and logic 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bound {
    /// Delays below this are fast; the threshold itself reads as slow.
    pub threshold: u64,
    /// Whether a fast probe means logic 1 (cached, warm, predicted).
    pub one_is_fast: bool,
}

impl Bound {
    /// Decodes one probe delay.
    pub fn bit(self, delay: u64) -> bool {
        (delay < self.threshold) == self.one_is_fast
    }
}

/// Measures `reg`'s [`Bound`] on `s`: the threshold lies midway between
/// the median probe after writing 0 and the median after writing 1, and
/// logic 1 is on the faster median's side.
pub fn calibrate(s: &mut dyn Substrate, reg: &dyn WeirdRegister) -> Bound {
    let mut probes = [[0; CALIBRATION_SAMPLES]; 2];
    for i in 0..CALIBRATION_SAMPLES {
        for (bit, p) in probes.iter_mut().enumerate() {
            reg.write(s, bit == 1);
            p[i] = reg.read_delay(s);
        }
    }
    let [zero, one] = probes.map(median);
    Bound {
        threshold: zero.min(one) + zero.abs_diff(one) / 2,
        one_is_fast: one < zero,
    }
}

/// Installs `insts` and a closing `Halt` as a warmed stub; returns its pc.
fn install_stub(s: &mut dyn Substrate, lay: &mut Layout, insts: &[Inst]) -> Result<u64> {
    let pc = lay.alloc_app_code((insts.len() as u64 + 1) * INST_SIZE)?;
    let mut a = Assembler::new(pc);
    for &i in insts.iter().chain(&[Inst::Halt]) {
        a.push(i);
    }
    let end = a.pc();
    s.install_program(a.finish()?);
    s.warm_code_range(pc, end);
    Ok(pc)
}

/// Times one run of the stub at `pc`, its line cached first.
fn time_stub(s: &mut dyn Substrate, pc: u64) -> u64 {
    s.touch_code(pc);
    let before = s.cycles();
    s.run_at(pc);
    s.cycles() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::machine::{Machine, MachineConfig};

    /// All seven WR types satisfy the round-trip contract under quiet noise.
    #[test]
    fn all_registers_round_trip() {
        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let regs: Vec<Box<dyn WeirdRegister>> = vec![
            Box::new(DcWr::build(&mut m, &mut lay).unwrap()),
            Box::new(IcWr::build(&mut m, &mut lay).unwrap()),
            Box::new(BpWr::build(&mut m, &mut lay).unwrap()),
            Box::new(BtbWr::build(&mut m, &mut lay).unwrap()),
            Box::new(MulWr::build(&mut m, &mut lay).unwrap()),
            Box::new(RobWr::build(&mut m, &mut lay).unwrap()),
            Box::new(VmxWr::build(&mut m, &mut lay).unwrap()),
        ];
        for r in &regs {
            for &bit in &[false, true, true, false] {
                r.write(&mut m, bit);
                assert_eq!(r.read(&mut m), bit, "register `{}` bit {bit}", r.name());
            }
        }
    }

    /// A bound splits delays at its threshold, which itself reads as slow.
    #[test]
    fn delay_to_bit_threshold() {
        let fast_one = Bound {
            threshold: 100,
            one_is_fast: true,
        };
        assert!(fast_one.bit(4));
        assert!(!fast_one.bit(200));
        assert!(!fast_one.bit(100), "boundary counts as miss");
        let slow_one = Bound {
            one_is_fast: false,
            ..fast_one
        };
        assert!(!slow_one.bit(4));
        assert!(slow_one.bit(200));
        assert!(slow_one.bit(100), "boundary counts as miss");
    }
}
