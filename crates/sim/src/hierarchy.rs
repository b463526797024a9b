//! The L1I/L1D/L2/L3 cache hierarchy, in one fixed geometry.
//!
//! The hierarchy answers one question for the machine: *at which level does
//! this access hit?* — because in a μWM the only output of the memory system
//! that matters is latency. A miss fills every level on its path, and
//! `clflush` evicts the line from every level, as the paper's flush-based
//! weird registers need. A line evicted from L2 or L3 is not
//! back-invalidated from L1, so the hierarchy is not strictly inclusive.

use crate::cache::{Cache, CacheConfig, RestoreScope};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data or instruction cache.
    L1,
    /// Unified private L2.
    L2,
    /// Shared last-level cache.
    L3,
    /// Main memory.
    Mem,
}

/// A three-level cache hierarchy with split L1: [`CacheConfig::l1`] for
/// each L1, then [`CacheConfig::l2`] and [`CacheConfig::l3`]. Fills
/// propagate down the access path; evictions are not back-invalidated.
///
/// # Examples
///
/// ```
/// use uwm_sim::hierarchy::{Hierarchy, HitLevel};
/// let mut h = Hierarchy::new();
/// assert_eq!(h.access_data(0x1000), HitLevel::Mem);
/// assert_eq!(h.access_data(0x1000), HitLevel::L1);
/// h.flush(0x1000);
/// assert_eq!(h.access_data(0x1000), HitLevel::Mem);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
}

impl Default for Hierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Self {
            l1i: Cache::new(CacheConfig::l1()),
            l1d: Cache::new(CacheConfig::l1()),
            l2: Cache::new(CacheConfig::l2()),
            l3: Cache::new(CacheConfig::l3()),
        }
    }

    /// Performs a data access, filling all levels on the path. Returns the
    /// level that satisfied the access.
    pub fn access_data(&mut self, addr: u64) -> HitLevel {
        self.access_through(addr, /* instruction: */ false)
    }

    /// Performs an instruction fetch through L1I/L2/L3.
    pub fn access_inst(&mut self, addr: u64) -> HitLevel {
        self.access_through(addr, /* instruction: */ true)
    }

    fn access_through(&mut self, addr: u64, instruction: bool) -> HitLevel {
        let l1 = if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if l1.access(addr) {
            return HitLevel::L1;
        }
        if self.l2.access(addr) {
            return HitLevel::L2;
        }
        // Each missing level's `access` has filled the line, so a miss
        // leaves it resident at every level on the path.
        if self.l3.access(addr) {
            return HitLevel::L3;
        }
        HitLevel::Mem
    }

    /// Peeks (without side effects) at which level `addr` would hit.
    pub fn probe_data(&self, addr: u64) -> HitLevel {
        if self.l1d.contains(addr) {
            HitLevel::L1
        } else if self.l2.contains(addr) {
            HitLevel::L2
        } else if self.l3.contains(addr) {
            HitLevel::L3
        } else {
            HitLevel::Mem
        }
    }

    /// `clflush` semantics: evict the line containing `addr` from every
    /// level (both L1s, L2, L3).
    pub fn flush(&mut self, addr: u64) {
        self.l1i.invalidate(addr);
        self.l1d.invalidate(addr);
        self.l2.invalidate(addr);
        self.l3.invalidate(addr);
    }

    /// True if `addr`'s line is present in the L1 data cache. This is the
    /// ground-truth value of a DC-WR, used by tests and the analyzer.
    pub fn in_l1d(&self, addr: u64) -> bool {
        self.l1d.contains(addr)
    }

    /// True if `addr`'s line is present in the L1 instruction cache
    /// (ground truth of an IC-WR).
    pub fn in_l1i(&self, addr: u64) -> bool {
        self.l1i.contains(addr)
    }

    /// Aggregate `(hits, misses)` across L1D accesses.
    pub fn l1d_stats(&self) -> (u64, u64) {
        self.l1d.stats()
    }

    fn caches_mut(&mut self) -> [&mut Cache; 4] {
        [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.l3]
    }

    /// [`Cache::restore_from`] on every level.
    pub(crate) fn restore_from(&mut self, snap: &Hierarchy, scope: RestoreScope) {
        let src = [&snap.l1i, &snap.l1d, &snap.l2, &snap.l3];
        for (dst, src) in self.caches_mut().into_iter().zip(src) {
            dst.restore_from(src, scope);
        }
    }

    /// [`Cache::rebase`] on every level.
    pub(crate) fn rebase(&mut self) {
        for c in self.caches_mut() {
            c.rebase();
        }
    }

    /// Sets listed dirty across all levels.
    #[cfg(test)]
    pub(crate) fn dirty_sets(&self) -> usize {
        [&self.l1i, &self.l1d, &self.l2, &self.l3]
            .iter()
            .map(|c| c.dirty_sets())
            .sum()
    }

    /// Every level's dirty and base lists (see [`Cache::lists`]).
    #[cfg(test)]
    pub(crate) fn lists(&self) -> [(&[u32], &[u32]); 4] {
        [&self.l1i, &self.l1d, &self.l2, &self.l3].map(Cache::lists)
    }

    /// Whole-state equality of every level (see [`Cache::same_state`]).
    #[cfg(test)]
    pub(crate) fn same_state(&self, other: &Hierarchy) -> bool {
        self.l1i.same_state(&other.l1i)
            && self.l1d.same_state(&other.l1d)
            && self.l2.same_state(&other.l2)
            && self.l3.same_state(&other.l3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new()
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut h = h();
        assert_eq!(h.access_data(0), HitLevel::Mem);
        assert_eq!(h.probe_data(0), HitLevel::L1);
        // And a subsequent instruction fetch of the same line hits L2
        // (unified beyond L1): split L1 means it misses L1I.
        assert_eq!(h.access_inst(0), HitLevel::L2);
    }

    #[test]
    fn flush_removes_from_every_level() {
        let mut h = h();
        h.access_data(0x40);
        h.access_inst(0x40);
        h.flush(0x40);
        assert_eq!(h.probe_data(0x40), HitLevel::Mem);
        assert!(!h.in_l1i(0x40));
    }

    #[test]
    fn split_l1_keeps_code_and_data_separate() {
        let mut h = h();
        h.access_inst(0x1000);
        assert!(h.in_l1i(0x1000));
        assert!(!h.in_l1d(0x1000));
    }

    #[test]
    fn l1_eviction_leaves_l2_copy() {
        let mut h = h();
        let cfg = CacheConfig::l1();
        // Fill one L1 set past associativity: lines mapping to set 0.
        let stride = cfg.sets as u64 * crate::cache::LINE_SIZE;
        for i in 0..(cfg.ways as u64 + 2) {
            h.access_data(i * stride);
        }
        // The first line was evicted from L1 but should still be in L2.
        assert_eq!(h.probe_data(0), HitLevel::L2);
        assert_eq!(h.access_data(0), HitLevel::L2);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut h = h();
        h.access_data(0);
        let before = h.l1d_stats();
        for _ in 0..10 {
            let _ = h.probe_data(0);
            let _ = h.probe_data(0x9999);
        }
        assert_eq!(h.l1d_stats(), before);
        assert_eq!(h.probe_data(0x9999), HitLevel::Mem);
    }
}
