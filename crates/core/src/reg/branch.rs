//! Predictor-state weird registers: BP-WR (direction) and BTB-WR (target).

use crate::error::Result;
use crate::gate::bp::TRAIN_ITERS;
use crate::layout::Layout;
use crate::reg::{calibrate, install_stub, time_stub, Bound, WeirdRegister};
use crate::substrate::Substrate;
use uwm_sim::isa::Inst;

/// Branch-direction-predictor weird register (Table 1, BranchScope-style).
///
/// The bit is the trained direction of a private conditional branch:
/// writing trains the branch taken (0) or not-taken (1); reading executes
/// the branch not-taken with a warm condition and times it — a correctly
/// predicted execution is fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpWr {
    branch_pc: u64,
    cond: u64,
    bound: Bound,
}

impl BpWr {
    /// Builds the register's private branch stub.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let cond = lay.alloc_var()?;
        // Taken target == fall-through: both land on the Halt; only the
        // predictor outcome differs.
        let branch = Inst::Brz {
            cond_addr: cond as u32,
            rel: 0,
        };
        let mut r = Self {
            branch_pc: install_stub(s, lay, &[branch])?,
            cond,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }

    /// Sets the condition (non-zero = not taken), cached so it resolves fast.
    fn set_cond(&self, s: &mut dyn Substrate, not_taken: bool) {
        s.write_word(self.cond, u64::from(not_taken));
        s.timed_read(self.cond);
    }
}

impl WeirdRegister for BpWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        for _ in 0..TRAIN_ITERS {
            self.set_cond(s, bit);
            s.run_at(self.branch_pc);
        }
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        self.set_cond(s, true);
        time_stub(s, self.branch_pc)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "bp"
    }
}

/// Branch-target-buffer weird register (Jump-over-ASLR-style).
///
/// The bit is *which target* the BTB remembers for a private indirect
/// jump: writing executes the jump to target B (bit 0) or C (bit 1);
/// reading executes the jump to B and times it — a BTB entry holding C
/// mispredicts and pays a front-end bubble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbWr {
    jmp_pc: u64,
    target_b: u64,
    target_c: u64,
    bound: Bound,
}

/// Scratch register the jump stub reads its target from.
const TARGET_REG: u8 = 10;

impl BtbWr {
    /// Builds the register's private indirect-jump stub and two targets.
    ///
    /// # Errors
    ///
    /// Fails on layout exhaustion or assembly error.
    pub fn build(s: &mut dyn Substrate, lay: &mut Layout) -> Result<Self> {
        let mut r = Self {
            jmp_pc: install_stub(s, lay, &[Inst::JmpInd { base: TARGET_REG }])?,
            target_b: install_stub(s, lay, &[])?,
            target_c: install_stub(s, lay, &[])?,
            bound: Bound::default(),
        };
        r.bound = calibrate(s, &r);
        Ok(r)
    }

    /// Times a jump to `target`, both code lines cached: only the BTB shows.
    fn jump_to(&self, s: &mut dyn Substrate, target: u64) -> u64 {
        s.set_reg(TARGET_REG, target);
        s.touch_code(target);
        time_stub(s, self.jmp_pc)
    }
}

impl WeirdRegister for BtbWr {
    fn write(&self, s: &mut dyn Substrate, bit: bool) {
        let target = if bit { self.target_c } else { self.target_b };
        self.jump_to(s, target);
    }

    fn read_delay(&self, s: &mut dyn Substrate) -> u64 {
        self.jump_to(s, self.target_b)
    }

    fn bound(&self) -> Bound {
        self.bound
    }

    fn name(&self) -> &'static str {
        "btb"
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
    fn bp_read_is_perturbing_toward_not_taken() {
        let (mut m, mut lay) = setup();
        let r = BpWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, false);
        assert!(!r.read(&mut m));
        // Reads execute the branch not-taken; enough of them re-train it.
        let _ = r.read(&mut m);
        let _ = r.read(&mut m);
        assert!(r.read(&mut m), "reads decohere a stored 0 toward 1");
    }

    #[test]
    fn btb_read_after_read_stays_zero() {
        let (mut m, mut lay) = setup();
        let r = BtbWr::build(&mut m, &mut lay).unwrap();
        r.write(&mut m, true);
        assert!(r.read(&mut m));
        // The read executed jmp→B, overwriting the entry: decoherence.
        assert!(!r.read(&mut m));
    }

    #[test]
    fn bp_and_btb_coexist() {
        let (mut m, mut lay) = setup();
        let bp = BpWr::build(&mut m, &mut lay).unwrap();
        let btb = BtbWr::build(&mut m, &mut lay).unwrap();
        bp.write(&mut m, true);
        btb.write(&mut m, false);
        assert!(bp.read(&mut m));
        assert!(!btb.read(&mut m));
    }
}
