//! The inclusive L1I/L1D/L2/L3 cache hierarchy.
//!
//! The hierarchy answers one question for the machine: *at which level does
//! this access hit?* — because in a μWM the only output of the memory system
//! that matters is latency. Inclusivity is modelled because the paper's
//! `clflush` semantics (evict from *every* level) and cross-level
//! entanglement depend on it.

use crate::cache::{line_of, Cache, CacheConfig, RestoreScope};

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

/// Configuration for a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1i: CacheConfig::l1(),
            l1d: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
        }
    }
}

/// An inclusive three-level cache hierarchy with split L1.
///
/// # Examples
///
/// ```
/// use uwm_sim::hierarchy::{Hierarchy, HierarchyConfig, HitLevel};
/// let mut h = Hierarchy::new(HierarchyConfig::default(), 0);
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

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig, seed: u64) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i, seed ^ 0x11),
            l1d: Cache::new(cfg.l1d, seed ^ 0x1D),
            l2: Cache::new(cfg.l2, seed ^ 0x22),
            l3: Cache::new(cfg.l3, seed ^ 0x33),
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
        // The L2/L3 `access` calls above already filled the line on miss;
        // inclusivity holds because every fill propagates down the path.
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

    /// Peeks (without side effects) at which level an instruction fetch of
    /// `addr` would hit.
    pub fn probe_inst(&self, addr: u64) -> HitLevel {
        if self.l1i.contains(addr) {
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

    /// Returns whether two addresses share a cache line — alignment hazards
    /// are the main reason the paper's `skelly` framework exists (§6.2).
    pub fn same_line(a: u64, b: u64) -> bool {
        line_of(a) == line_of(b)
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
        Hierarchy::new(HierarchyConfig::default(), 7)
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
        assert_eq!(h.probe_inst(0x40), HitLevel::Mem);
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

    #[test]
    fn same_line_helper() {
        assert!(Hierarchy::same_line(0, 63));
        assert!(!Hierarchy::same_line(63, 64));
    }
}
