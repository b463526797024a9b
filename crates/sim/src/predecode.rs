//! Predecoded instruction cache: the machine's only source of static code.
//!
//! Every committed and speculative step fetches an instruction.
//! [`CodeCache`] decodes each instruction slot once and serves later
//! fetches from a dense per-page slot table, found through the same
//! direct-indexed page table as simulated memory. The fetching machine
//! keeps a one-entry memo of the last page it fetched from, which skips
//! even that lookup while fetches stay on one page. An address must
//! decode to the loaded program's instruction if it has one, else to
//! the eight memory bytes there, so the cache distinguishes two slot
//! origins:
//!
//! * **Static** slots mirror the loaded [`Program`]: every program pc has
//!   one from the moment the program is installed, and the machine never
//!   consults the program itself. The program shadows simulated memory,
//!   so data writes never invalidate a static slot; only reloading the
//!   program does.
//! * **Dynamic** slots were decoded from simulated memory (dynamically
//!   written code) on first fetch. Any data write that overlaps a slot's
//!   eight bytes precisely invalidates it — self-modifying code, as used
//!   by `wm_apt`'s patched jump, re-decodes from memory on its next
//!   fetch.
//!
//! Writes that bypass the machine (host-side `mem_mut()` access) cannot be
//! intercepted per address, so handing out that access drops every
//! dynamic slot up front. No fetch can run while the handle is borrowed,
//! so nothing decoded afterwards can predate the writes.
//!
//! Only [`INST_SIZE`]-aligned addresses are cached (program addresses
//! always are). Unaligned dynamic code (legal, if odd) is decoded from
//! memory on every fetch, which keeps one byte from ever belonging to two
//! slots and makes write invalidation exact.

use crate::isa::{Inst, Program, INST_SIZE};
use crate::page_table::{PageTable, PAGE_SIZE};

/// Instruction slots per page.
const SLOTS_PER_PAGE: usize = (PAGE_SIZE / INST_SIZE) as usize;

/// One predecoded instruction slot, empty while `inst` is `None`. A
/// struct rather than an empty/static/dynamic enum, so that a fetch hit
/// tests `inst`'s niche once instead of a tag and then an `Option`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    /// The decoded instruction, if any.
    inst: Option<Inst>,
    /// Decoded from simulated memory, so overlapping writes invalidate
    /// it; otherwise it mirrors the static program and is immune to them.
    dynamic: bool,
}

/// A page of predecoded slots.
type Page = Box<[Slot; SLOTS_PER_PAGE]>;

/// The page a run of fetches last found, for [`CodeCache::lookup_memo`].
///
/// A memo is valid for the cache that filled it and for clones of that
/// cache, until the cache is rebuilt: reset it whenever the cache it is
/// used with is replaced by another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageMemo {
    /// Page number (`pc / PAGE_SIZE`); `u64::MAX`, which no page has,
    /// when empty.
    page: u64,
    /// The page's index in the cache's page table.
    index: u32,
}

impl Default for PageMemo {
    fn default() -> Self {
        Self {
            page: u64::MAX,
            index: 0,
        }
    }
}

impl PageMemo {
    /// Forgets the memoized page.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
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
    /// Page number → slots. Pages are only added between rebuilds, so a
    /// page's index stays valid until the next [`CodeCache::rebuild`].
    pages: PageTable<Page>,
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
    /// Every page memo filled from this cache must be reset.
    pub fn rebuild(&mut self, program: &Program) {
        self.pages.clear();
        self.dynamic_slots = 0;
        self.add_static(program);
    }

    /// Predecodes a unit just merged into the static program, without
    /// touching the rest of it: drops every dynamic slot, then installs
    /// `unit`'s instructions as static slots. Static slots always mirror
    /// the program, and the unit wins every clash of the merge, so the
    /// result equals a [`CodeCache::rebuild`] of the merged program.
    pub fn add_static(&mut self, unit: &Program) {
        self.drop_dynamic();
        for (pc, inst) in unit.iter() {
            *self.slot_mut(pc) = Slot {
                inst: Some(inst),
                dynamic: false,
            };
        }
    }

    /// The cached decoding of the instruction at `pc`, if any. `None`
    /// means the caller must decode memory and install the result.
    #[inline]
    pub fn lookup(&self, pc: u64) -> Option<Inst> {
        if !pc.is_multiple_of(INST_SIZE) {
            return None;
        }
        self.pages.get(pc / PAGE_SIZE)?[Self::slot_index(pc)].inst
    }

    /// [`CodeCache::lookup`] through `memo`: while `pc` stays on the
    /// memoized page no page-table lookup is made, and a lookup that
    /// finds `pc`'s page memoizes it.
    #[inline]
    pub(crate) fn lookup_memo(&self, pc: u64, memo: &mut PageMemo) -> Option<Inst> {
        if !pc.is_multiple_of(INST_SIZE) {
            return None;
        }
        let page = pc / PAGE_SIZE;
        if page != memo.page {
            *memo = self.memo_for(page)?;
        }
        self.pages.at(memo.index)[Self::slot_index(pc)].inst
    }

    /// A memo of `page`, if the cache holds it. Kept out of line so the
    /// memo hit in [`CodeCache::lookup_memo`] inlines into the fetch.
    #[inline(never)]
    fn memo_for(&self, page: u64) -> Option<PageMemo> {
        Some(PageMemo {
            page,
            index: self.pages.index(page)?,
        })
    }

    /// Installs the decoding of dynamically written code at `pc`; an
    /// unaligned `pc` is not cached.
    pub fn install_dynamic(&mut self, pc: u64, inst: Inst) {
        if pc.is_multiple_of(INST_SIZE) {
            let slot = self.slot_mut(pc);
            let was_dynamic = slot.dynamic;
            *slot = Slot {
                inst: Some(inst),
                dynamic: true,
            };
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
            if let Some(page) = self.pages.get_mut(slot_addr / PAGE_SIZE) {
                let slot = &mut page[Self::slot_index(slot_addr)];
                if slot.dynamic {
                    *slot = Slot::default();
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
        for page in self.pages.pages_mut() {
            for slot in page.iter_mut() {
                if slot.dynamic {
                    *slot = Slot::default();
                }
            }
        }
    }

    #[inline]
    fn slot_index(pc: u64) -> usize {
        ((pc % PAGE_SIZE) / INST_SIZE) as usize
    }

    fn slot_mut(&mut self, pc: u64) -> &mut Slot {
        let page = self.pages.get_or_insert_with(pc / PAGE_SIZE, || {
            Box::new([Slot::default(); SLOTS_PER_PAGE])
        });
        &mut page[Self::slot_index(pc)]
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

    /// A cache whose only static slot is `inst` at `pc`.
    fn with_static(pc: u64, inst: Inst) -> CodeCache {
        let mut cc = CodeCache::new();
        cc.add_static(&[(pc, inst)].into_iter().collect());
        cc
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
        let mut cc = with_static(0, mov(1));
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
        let mut cc = with_static(0, mov(1));
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
