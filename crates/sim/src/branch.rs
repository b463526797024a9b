//! Branch direction prediction and the branch target buffer.
//!
//! The BP-WR of the paper (§3.2.1, Table 1) stores a bit in the direction
//! predictor's per-branch state: trained-taken vs. trained-not-taken. The
//! predictor here is a bimodal table of 2-bit saturating counters indexed
//! by the instruction address alone, which is what makes *aliased training
//! branches* possible — the mechanism `skelly` uses to train a gate's
//! branch without executing its body. A history-hashed index (gshare)
//! would break that: the gate branch and its training branch, one
//! [`DirectionPredictor::alias_stride`] apart, would stop sharing a counter.

use crate::isa::INST_SIZE;

/// A table of 2-bit saturating counters predicting branch direction.
///
/// Counter values: `0,1` predict not-taken; `2,3` predict taken. New
/// entries start at `1` (weakly not-taken).
///
/// # Examples
///
/// ```
/// use uwm_sim::branch::DirectionPredictor;
/// let mut bp = DirectionPredictor::default();
/// let pc = 0x4000;
/// for _ in 0..4 { bp.update(pc, true); }
/// assert!(bp.predict(pc));
/// for _ in 0..4 { bp.update(pc, false); }
/// assert!(!bp.predict(pc));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct DirectionPredictor {
    table: Vec<u8>,
}

clone_by_field!(DirectionPredictor { table });

impl Default for DirectionPredictor {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl DirectionPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor entries must be a power of two"
        );
        Self {
            table: vec![1; entries],
        }
    }

    /// Index of the counter used for a branch at `pc`. Exposed so callers
    /// (notably `skelly`) can construct *aliased* branches: two branch
    /// addresses with equal `slot_of` share predictor state.
    pub fn slot_of(&self, pc: u64) -> usize {
        let pc_index = (pc / INST_SIZE) as usize;
        pc_index & (self.table.len() - 1)
    }

    /// The stride (in bytes) between two branch addresses that alias to the
    /// same counter.
    pub fn alias_stride(&self) -> u64 {
        self.table.len() as u64 * INST_SIZE
    }

    /// Predicted direction for the branch at `pc` (`true` = taken).
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.slot_of(pc)] >= 2
    }

    /// Trains the predictor with the resolved direction of the branch at
    /// `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let slot = self.slot_of(pc);
        let c = &mut self.table[slot];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Resets every counter to weakly-not-taken.
    pub fn reset(&mut self) {
        self.table.fill(1);
    }
}

/// A direct-mapped branch target buffer.
///
/// The BTB-WR of Table 1 writes a bit by executing `jmp A → B` vs.
/// `jmp A → C` and reads it by timing a jump: a BTB hit with the right
/// target is fast; a miss or a mispredicted target costs a bubble.
///
/// # Examples
///
/// ```
/// use uwm_sim::branch::Btb;
/// let mut btb = Btb::new(512);
/// assert_eq!(btb.lookup(0x100), None);
/// btb.update(0x100, 0x900);
/// assert_eq!(btb.lookup(0x100), Some(0x900));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Btb {
    /// `(tag, target)` per entry.
    entries: Vec<Option<(u64, u64)>>,
}

clone_by_field!(Btb { entries });

impl Btb {
    /// Creates an empty BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "BTB entries must be a power of two"
        );
        Self {
            entries: vec![None; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc / INST_SIZE) as usize) & (self.entries.len() - 1)
    }

    /// Predicted target of the jump at `pc`, if this BTB entry holds it.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Records that the jump at `pc` went to `target`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, target));
    }

    /// Drops every entry.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entries_predict_not_taken() {
        let bp = DirectionPredictor::default();
        assert!(!bp.predict(0));
        assert!(!bp.predict(0x12345 * INST_SIZE));
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut bp = DirectionPredictor::default();
        let pc = 64;
        for _ in 0..8 {
            bp.update(pc, true);
        }
        // One contrary outcome must not flip a saturated counter.
        bp.update(pc, false);
        assert!(bp.predict(pc), "saturated-taken survives one not-taken");
        bp.update(pc, false);
        assert!(!bp.predict(pc), "two not-taken flip the prediction");
    }

    #[test]
    fn aliasing_at_stride() {
        let bp = DirectionPredictor::default();
        let pc = 0x200;
        let alias = pc + bp.alias_stride();
        assert_eq!(bp.slot_of(pc), bp.slot_of(alias));
        assert_ne!(bp.slot_of(pc), bp.slot_of(pc + INST_SIZE));
    }

    #[test]
    fn training_through_alias_transfers() {
        let mut bp = DirectionPredictor::default();
        let gate_branch = 0x800;
        let train_branch = gate_branch + bp.alias_stride();
        for _ in 0..4 {
            bp.update(train_branch, true);
        }
        assert!(bp.predict(gate_branch), "aliased training must transfer");
    }

    #[test]
    fn reset_clears_training() {
        let mut bp = DirectionPredictor::default();
        for _ in 0..4 {
            bp.update(0x40, true);
        }
        bp.reset();
        assert!(!bp.predict(0x40));
    }

    #[test]
    fn btb_tag_check_avoids_false_hits() {
        let mut btb = Btb::new(16);
        btb.update(0x100, 0x900);
        // Same index, different tag (stride = entries * INST_SIZE).
        let alias = 0x100 + 16 * INST_SIZE;
        assert_eq!(btb.lookup(alias), None);
        btb.update(alias, 0xAAA);
        // Direct-mapped: the alias displaced the original.
        assert_eq!(btb.lookup(0x100), None);
        assert_eq!(btb.lookup(alias), Some(0xAAA));
    }

    #[test]
    fn btb_reset() {
        let mut btb = Btb::new(16);
        btb.update(0x100, 0x900);
        btb.reset();
        assert_eq!(btb.lookup(0x100), None);
    }
}
