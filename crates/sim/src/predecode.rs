//! Predecoded instruction cache: the fetch fast path.
//!
//! Every committed and speculative step fetches an instruction, and before
//! this module existed each fetch searched the static program and then
//! re-decoded eight bytes of simulated memory. [`CodeCache`]
//! decodes each instruction slot once and serves later fetches as an index
//! lookup into a dense per-page table. This is purely a host-side
//! optimization: it must never change what an address decodes to, so the
//! cache distinguishes two slot origins:
//!
//! * **Static** slots mirror the loaded [`Program`]. The program shadows
//!   simulated memory (the machine consults it first), so data writes
//!   never invalidate a static slot; only reloading the program does.
//! * **Dynamic** slots were decoded from simulated memory (dynamically
//!   written code). Any data write that overlaps a slot's eight bytes
//!   precisely invalidates it — self-modifying code, as used by
//!   `wm_apt`'s patched jump, re-decodes from memory on its next fetch.
//!
//! Writes that bypass the machine (host-side `mem_mut()` access) cannot be
//! intercepted per address, so handing out that access drops every
//! dynamic slot up front. No fetch can run while the handle is borrowed,
//! so nothing decoded afterwards can predate the writes.
//!
//! Only [`INST_SIZE`]-aligned addresses are cached. Unaligned code (legal,
//! if odd) always takes the slow path, which keeps one byte from ever
//! belonging to two slots and makes write invalidation exact.

use crate::fxmap::IntMap;
use crate::isa::{Inst, Program, INST_SIZE};

/// Slot-table pages are this many bytes of address space (matches the
/// simulated memory's page size).
const PAGE_SIZE: u64 = 4096;
/// Instruction slots per page.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / INST_SIZE) as usize;

/// One predecoded instruction slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Slot {
    /// Nothing cached; fetch takes the slow path and installs.
    #[default]
    Empty,
    /// Mirrors the static program; immune to data writes.
    Static(Inst),
    /// Decoded from simulated memory; invalidated by overlapping writes.
    Dynamic(Inst),
}

/// A page of predecoded slots.
#[derive(Debug, Clone)]
struct Page {
    slots: Box<[Slot; SLOTS_PER_PAGE]>,
}

impl Page {
    fn new() -> Self {
        Self {
            slots: Box::new([Slot::Empty; SLOTS_PER_PAGE]),
        }
    }
}

/// Predecoded instruction cache (see the module docs for the contract).
///
/// # Examples
///
/// ```
/// use uwm_sim::isa::{Inst, Operand, Program};
/// use uwm_sim::predecode::CodeCache;
///
/// let mut p = Program::new();
/// p.put(0x1000, Inst::Halt);
/// let mut cc = CodeCache::new();
/// cc.rebuild(&p);
/// assert_eq!(cc.lookup(0x1000), Some(Inst::Halt));
/// assert_eq!(cc.lookup(0x1008), None); // not decoded yet
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeCache {
    pages: Vec<Page>,
    /// Page number (`addr / PAGE_SIZE`) → index into `pages`.
    index: IntMap<u64, u32>,
    /// One-entry cache of the last page hit (the common case: gate code
    /// stays within one or two pages).
    last: Option<(u64, u32)>,
    /// Live dynamic-slot count. While it is zero (all code came from the
    /// static program — the common case), write invalidation and
    /// external-write drops are no-ops, so pure data stores never pay a
    /// page probe.
    dynamic_slots: usize,
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops everything and predecodes `program` into static slots.
    /// Unaligned program addresses are left to the slow path.
    pub fn rebuild(&mut self, program: &Program) {
        self.pages.clear();
        self.index.clear();
        self.last = None;
        self.dynamic_slots = 0;
        for (pc, inst) in program.iter() {
            if pc.is_multiple_of(INST_SIZE) {
                *self.slot_mut(pc) = Slot::Static(inst);
            }
        }
    }

    /// Predecodes a unit just merged into the static program, without
    /// touching the rest of it: drops every dynamic slot, then installs
    /// `unit`'s instructions as static slots. Static slots always mirror
    /// the program, and the unit wins every clash of the merge, so the
    /// result equals a [`CodeCache::rebuild`] of the merged program.
    pub fn add_static(&mut self, unit: &Program) {
        self.drop_dynamic();
        for (pc, inst) in unit.iter() {
            if pc.is_multiple_of(INST_SIZE) {
                *self.slot_mut(pc) = Slot::Static(inst);
            }
        }
    }

    /// The cached decoding of the instruction at `pc`, if any. `None`
    /// means the caller must decode (slow path) and install the result.
    #[inline]
    pub fn lookup(&self, pc: u64) -> Option<Inst> {
        if !pc.is_multiple_of(INST_SIZE) {
            return None;
        }
        let idx = self.page_of(pc / PAGE_SIZE)?;
        match self.pages[idx as usize].slots[Self::slot_index(pc)] {
            Slot::Empty => None,
            Slot::Static(i) | Slot::Dynamic(i) => Some(i),
        }
    }

    /// Installs a slow-path decoding of the static program's instruction
    /// at `pc`.
    pub fn install_static(&mut self, pc: u64, inst: Inst) {
        if pc.is_multiple_of(INST_SIZE) {
            let slot = self.slot_mut(pc);
            let was_dynamic = matches!(slot, Slot::Dynamic(_));
            *slot = Slot::Static(inst);
            if was_dynamic {
                self.dynamic_slots -= 1;
            }
        }
    }

    /// Installs a slow-path decoding of dynamically written code at `pc`.
    pub fn install_dynamic(&mut self, pc: u64, inst: Inst) {
        if pc.is_multiple_of(INST_SIZE) {
            let slot = self.slot_mut(pc);
            let was_dynamic = matches!(slot, Slot::Dynamic(_));
            *slot = Slot::Dynamic(inst);
            if !was_dynamic {
                self.dynamic_slots += 1;
            }
        }
    }

    /// A data write landed on `[addr, addr + len)`: drop every dynamic
    /// slot whose eight bytes overlap it. Slots are aligned, so each
    /// written byte belongs to exactly one slot.
    pub fn invalidate_bytes(&mut self, addr: u64, len: u64) {
        if len == 0 || self.dynamic_slots == 0 {
            return;
        }
        let mut slot_addr = addr - addr % INST_SIZE;
        let last = addr + (len - 1);
        while slot_addr <= last {
            if let Some(idx) = self.page_of(slot_addr / PAGE_SIZE) {
                let slot = &mut self.pages[idx as usize].slots[Self::slot_index(slot_addr)];
                if matches!(slot, Slot::Dynamic(_)) {
                    *slot = Slot::Empty;
                    self.dynamic_slots -= 1;
                }
            }
            slot_addr += INST_SIZE;
        }
    }

    /// True if any slot was decoded from simulated memory — the only case
    /// in which a data write can change the cache.
    #[inline]
    pub fn has_dynamic(&self) -> bool {
        self.dynamic_slots > 0
    }

    /// Drops every dynamic slot: simulated memory is about to be written
    /// behind the machine's back (host-side writes it cannot intercept).
    pub fn drop_dynamic(&mut self) {
        if self.dynamic_slots == 0 {
            return;
        }
        self.dynamic_slots = 0;
        for page in &mut self.pages {
            for slot in page.slots.iter_mut() {
                if matches!(slot, Slot::Dynamic(_)) {
                    *slot = Slot::Empty;
                }
            }
        }
    }

    #[inline]
    fn slot_index(pc: u64) -> usize {
        ((pc % PAGE_SIZE) / INST_SIZE) as usize
    }

    #[inline]
    fn page_of(&self, page_no: u64) -> Option<u32> {
        if let Some((no, idx)) = self.last {
            if no == page_no {
                return Some(idx);
            }
        }
        self.index.get(&page_no).copied()
    }

    fn slot_mut(&mut self, pc: u64) -> &mut Slot {
        let page_no = pc / PAGE_SIZE;
        let idx = match self.page_of(page_no) {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.pages.len()).expect("page count fits u32");
                self.pages.push(Page::new());
                self.index.insert(page_no, idx);
                idx
            }
        };
        self.last = Some((page_no, idx));
        &mut self.pages[idx as usize].slots[Self::slot_index(pc)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand;

    fn mov(imm: u32) -> Inst {
        Inst::Mov {
            dst: 0,
            src: Operand::Imm(imm),
        }
    }

    #[test]
    fn rebuild_serves_static_slots() {
        let mut p = Program::new();
        p.put(0, mov(1));
        p.put(8, Inst::Halt);
        let mut cc = CodeCache::new();
        cc.rebuild(&p);
        assert_eq!(cc.lookup(0), Some(mov(1)));
        assert_eq!(cc.lookup(8), Some(Inst::Halt));
        assert_eq!(cc.lookup(16), None);
    }

    #[test]
    fn unaligned_addresses_bypass_the_cache() {
        // The static program is always aligned (Program::put asserts it),
        // but a jump can land anywhere in dynamically written code.
        let mut cc = CodeCache::new();
        cc.install_dynamic(4, mov(2));
        assert_eq!(cc.lookup(4), None, "unaligned pc is slow-path only");
    }

    #[test]
    fn writes_invalidate_dynamic_but_not_static_slots() {
        let mut cc = CodeCache::new();
        cc.install_static(0, mov(1));
        cc.install_dynamic(8, mov(2));
        cc.install_dynamic(16, mov(3));
        // An 8-byte write over [8, 16) touches only the middle slot.
        cc.invalidate_bytes(8, 8);
        assert_eq!(cc.lookup(0), Some(mov(1)));
        assert_eq!(cc.lookup(8), None);
        assert_eq!(cc.lookup(16), Some(mov(3)));
        // A one-byte write into a slot's window kills it too.
        cc.invalidate_bytes(23, 1);
        assert_eq!(cc.lookup(16), None);
        // Static slots shadow memory: writes never invalidate them.
        cc.invalidate_bytes(0, 8);
        assert_eq!(cc.lookup(0), Some(mov(1)));
    }

    #[test]
    fn straddling_write_invalidates_both_slots() {
        let mut cc = CodeCache::new();
        cc.install_dynamic(0, mov(1));
        cc.install_dynamic(8, mov(2));
        cc.invalidate_bytes(7, 2); // last byte of slot 0, first of slot 1
        assert_eq!(cc.lookup(0), None);
        assert_eq!(cc.lookup(8), None);
    }

    #[test]
    fn drop_dynamic_keeps_static_slots() {
        let mut cc = CodeCache::new();
        cc.install_static(0, mov(1));
        cc.install_dynamic(8, mov(2));
        assert!(cc.has_dynamic());
        cc.drop_dynamic();
        assert!(!cc.has_dynamic());
        assert_eq!(cc.lookup(0), Some(mov(1)));
        assert_eq!(cc.lookup(8), None);
        // Slots decoded after the drop stay.
        cc.install_dynamic(8, mov(3));
        assert_eq!(cc.lookup(8), Some(mov(3)));
    }

    #[test]
    fn slots_span_pages() {
        let mut cc = CodeCache::new();
        cc.install_dynamic(PAGE_SIZE - 8, mov(1));
        cc.install_dynamic(PAGE_SIZE, mov(2));
        assert_eq!(cc.lookup(PAGE_SIZE - 8), Some(mov(1)));
        assert_eq!(cc.lookup(PAGE_SIZE), Some(mov(2)));
        cc.invalidate_bytes(PAGE_SIZE - 1, 2);
        assert_eq!(cc.lookup(PAGE_SIZE - 8), None);
        assert_eq!(cc.lookup(PAGE_SIZE), None);
    }
}
