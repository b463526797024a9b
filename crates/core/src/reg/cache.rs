//! Cache-residency weird registers: DC-WR and IC-WR.

use crate::error::Result;
use crate::gate::set_dc;
use crate::layout::Layout;
use crate::reg::{calibrate, install_stub, Bound, WeirdRegister};
use crate::skelly::calibrate_threshold;
use crate::substrate::Substrate;

/// Data-cache weird register (§3.1's running example).
///
/// The bit is the L1-residency of a private variable: `flush` writes 0,
/// a load writes 1, and a timed load reads the bit (destroying a stored 0).
/// It is written, read and calibrated exactly like a gate output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcWr {
    addr: u64,
    bound: Bound,
}

impl DcWr {
    /// Allocates a fresh variable and wraps it as a DC-WR.
    ///
    /// # Errors
    ///
    /// Fails when the variable region is exhausted.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        Ok(Self::at(s, lay.alloc_var()?))
    }

    /// Wraps an existing line-aligned variable address, calibrating its
    /// bound on `s`. Calibration leaves the line cached (a stored 1).
    pub fn at(s: &mut dyn Substrate, addr: u64) -> Self {
        let bound = Bound {
            threshold: calibrate_threshold(s, addr),
            one_is_fast: true,
        };
        Self { addr, bound }
    }

    /// The variable's address (used to wire gates to this register).
    pub fn addr(&self) -> u64 {
        self.addr
    }
}

impl WeirdRegister for DcWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        set_dc(s, self.addr, bit);
    }

    /// The `rdtscp`-bracketed load a gate output read times.
    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        s.timed_read_tsc(self.addr)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "dc"
    }
}

/// Instruction-cache weird register.
///
/// The bit is the L1I-residency of a small code stub. Writing 1 executes
/// (or prefetches) the stub; writing 0 flushes its line; reading times a
/// code fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcWr {
    code_addr: u64,
    bound: Bound,
}

impl IcWr {
    /// Allocates a one-line code stub and wraps it as an IC-WR.
    ///
    /// # Errors
    ///
    /// Fails if layout space is exhausted or assembly fails.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let mut r = Self {
            code_addr: install_stub(s, lay, &[])?,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }
}

impl WeirdRegister for IcWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        if bit {
            s.touch_code(self.code_addr);
        } else {
            s.flush_addr(self.code_addr);
        }
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        let before = s.cycles();
        s.touch_code(self.code_addr);
        s.cycles() - before
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "ic"
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
    fn dc_read_is_destructive() {
        let (mut m, mut lay) = setup();
        let r = DcWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m), "first read sees the 0");
        assert!(r.read(&mut m), "…but the read itself cached the line");
    }

    #[test]
    fn dc_delay_separates_levels() {
        let (mut m, mut lay) = setup();
        let r = DcWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        let miss = r.read_delay(&mut m);
        let hit = r.read_delay(&mut m);
        assert!(miss > 4 * hit, "miss {miss} vs hit {hit}");
    }

    #[test]
    fn ic_independent_of_dc_for_distinct_lines() {
        let (mut m, mut lay) = setup();
        let dc = DcWr::build(&mut m, &mut lay).unwrap();
        let ic = IcWr::build(&mut m, &mut lay).unwrap();
        dc.write(&mut m, true);
        ic.write(&mut m, false);
        assert!(!ic.read(&mut m));
        assert!(dc.read(&mut m));
    }

    #[test]
    fn two_dc_registers_do_not_interfere() {
        let (mut m, mut lay) = setup();
        let a = DcWr::build(&mut m, &mut lay).unwrap();
        let b = DcWr::build(&mut m, &mut lay).unwrap();
        a.write(&mut m, true);
        b.write(&mut m, false);
        assert!(!b.read(&mut m));
        assert!(a.read(&mut m));
    }
}
