//! The L1I/L1D/L2/L3 cache hierarchy, in one fixed geometry.
//!
//! The hierarchy answers one question for the machine: *at which level does
//! this access hit?* — because in a μWM the only output of the memory system
//! that matters is latency. A miss fills every level on its path, and
//! `clflush` evicts the line from every level, as the paper's flush-based
//! weird registers need. A line evicted from L2 or L3 is not
//! back-invalidated from L1, so the hierarchy is not strictly inclusive.
//!
//! # Residency index
//!
//! Every weird gate flushes lines and times reloads, and most flushed
//! lines are resident nowhere, so walking four sets per flush and two per
//! level per DRAM miss is mostly wasted. The hierarchy therefore keeps an
//! exact residency index: one `u32` per line holding the way that holds
//! it at each of L1I, L1D, L2 and L3 (one byte per level in that order,
//! `0xFF` where absent), 64 lines to a page of a `PageTable`. Every fill
//! sets the line's byte and clears its victim's, every invalidate clears
//! one, and a restore copies the snapshot's index page by page. With it:
//!
//! * a flush touches only the ways that hold the line, and no set at all
//!   when none does;
//! * an L1 miss goes straight to the level that holds the line, or to
//!   DRAM, without a lookup at L2 or L3;
//! * an L1 hit still scans its 8-way set, and a repeat access of the line
//!   the L1 touched last (the cache's same-line memo) is one inline
//!   compare: consulting the index first would slow both.

use crate::cache::{line_of, Cache, CacheConfig, RestoreScope};
use crate::page_table::PageTable;

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

/// Indices of the levels in [`Hierarchy`]'s cache array, and of their
/// bytes in an index entry.
const L1I: usize = 0;
const L1D: usize = 1;
const L2: usize = 2;
const L3: usize = 3;

/// log2 of the lines per index page.
const PAGE_LINES_SHIFT: u32 = 6;
/// Lines per index page.
const PAGE_LINES: usize = 1 << PAGE_LINES_SHIFT;
/// The index entry of a line no level holds.
const NOWHERE: u32 = u32::MAX;
/// An entry's byte for a level that does not hold the line.
const NO_WAY: u32 = 0xFF;

/// The way holding a line at `level`, from its index entry.
#[inline]
fn way_at(entry: u32, level: usize) -> Option<usize> {
    let way = (entry >> (8 * level)) & NO_WAY;
    (way != NO_WAY).then_some(way as usize)
}

/// `entry` with `level`'s byte set to `way` ([`NO_WAY`] to clear it).
#[inline]
fn with_way(entry: u32, level: usize, way: u32) -> u32 {
    entry & !(NO_WAY << (8 * level)) | way << (8 * level)
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
    /// L1I, L1D, L2 and L3, indexed by [`L1I`] … [`L3`].
    caches: [Cache; 4],
    /// The residency index (see the module docs), keyed by
    /// `line >> PAGE_LINES_SHIFT`.
    index: PageTable<[u32; PAGE_LINES]>,
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
            caches: [
                CacheConfig::l1(),
                CacheConfig::l1(),
                CacheConfig::l2(),
                CacheConfig::l3(),
            ]
            .map(Cache::new),
            index: PageTable::default(),
        }
    }

    /// Performs a data access, filling all levels on the path. Returns the
    /// level that satisfied the access.
    #[inline]
    pub fn access_data(&mut self, addr: u64) -> HitLevel {
        self.access(L1D, line_of(addr))
    }

    /// Performs an instruction fetch through L1I/L2/L3.
    #[inline]
    pub fn access_inst(&mut self, addr: u64) -> HitLevel {
        self.access(L1I, line_of(addr))
    }

    #[inline]
    fn access(&mut self, l1: usize, line: u64) -> HitLevel {
        if self.caches[l1].memo_hit(line) {
            return HitLevel::L1;
        }
        self.walk(l1, line)
    }

    /// An access the memo did not answer: scan the L1 set, and on a miss
    /// fill each level down to the first that the index says holds the
    /// line.
    #[inline(never)]
    fn walk(&mut self, l1: usize, line: u64) -> HitLevel {
        if let Some(way) = self.caches[l1].way_of(line) {
            self.caches[l1].hit_way(line, way);
            return HitLevel::L1;
        }
        // The index is exact, so the L1 that just missed reads absent.
        let mut entry = self.entry(line);
        let mut level = HitLevel::Mem;
        for (at, hit) in [(l1, HitLevel::L1), (L2, HitLevel::L2), (L3, HitLevel::L3)] {
            let cache = &mut self.caches[at];
            if let Some(way) = way_at(entry, at) {
                cache.hit_way(line, way);
                level = hit;
                break;
            }
            let (way, evicted) = cache.miss_fill(line);
            entry = with_way(entry, at, way as u32);
            if let Some(victim) = evicted {
                let slot = self.slot(victim).expect("an evicted line is indexed");
                *slot = with_way(*slot, at, NO_WAY);
            }
        }
        *self.slot_or_insert(line) = entry;
        level
    }

    /// The index entry of `line`.
    #[inline]
    fn entry(&self, line: u64) -> u32 {
        self.index
            .get(line >> PAGE_LINES_SHIFT)
            .map_or(NOWHERE, |page| page[line as usize % PAGE_LINES])
    }

    /// `line`'s index entry, if its page is indexed.
    #[inline]
    fn slot(&mut self, line: u64) -> Option<&mut u32> {
        let page = self.index.get_mut(line >> PAGE_LINES_SHIFT)?;
        Some(&mut page[line as usize % PAGE_LINES])
    }

    /// `line`'s index entry, its page indexed first if it is not.
    #[inline]
    fn slot_or_insert(&mut self, line: u64) -> &mut u32 {
        let page = self
            .index
            .get_or_insert_with(line >> PAGE_LINES_SHIFT, || [NOWHERE; PAGE_LINES]);
        &mut page[line as usize % PAGE_LINES]
    }

    /// Peeks (without side effects) at which level `addr` would hit.
    pub fn probe_data(&self, addr: u64) -> HitLevel {
        let entry = self.entry(line_of(addr));
        [(L1D, HitLevel::L1), (L2, HitLevel::L2), (L3, HitLevel::L3)]
            .into_iter()
            .find(|&(at, _)| way_at(entry, at).is_some())
            .map_or(HitLevel::Mem, |(_, hit)| hit)
    }

    /// `clflush` semantics: evict the line containing `addr` from every
    /// level (both L1s, L2, L3). Only the ways that hold it are touched.
    pub fn flush(&mut self, addr: u64) {
        let line = line_of(addr);
        let Some(slot) = self.slot(line) else {
            return;
        };
        let entry = std::mem::replace(slot, NOWHERE);
        for (at, cache) in self.caches.iter_mut().enumerate() {
            if let Some(way) = way_at(entry, at) {
                cache.invalidate_way(line, way);
            }
        }
    }

    /// True if `addr`'s line is present in the L1 data cache. This is the
    /// ground-truth value of a DC-WR, used by tests and the analyzer.
    pub fn in_l1d(&self, addr: u64) -> bool {
        way_at(self.entry(line_of(addr)), L1D).is_some()
    }

    /// True if `addr`'s line is present in the L1 instruction cache
    /// (ground truth of an IC-WR).
    pub fn in_l1i(&self, addr: u64) -> bool {
        way_at(self.entry(line_of(addr)), L1I).is_some()
    }

    /// [`Cache::restore_from`] on every level; the index is copied page
    /// by page, as a restored memory is.
    pub(crate) fn restore_from(&mut self, snap: &Hierarchy, scope: RestoreScope) {
        for (dst, src) in self.caches.iter_mut().zip(&snap.caches) {
            dst.restore_from(src, scope);
        }
        self.index.clone_from(&snap.index);
    }

    /// [`Cache::rebase`] on every level.
    pub(crate) fn rebase(&mut self) {
        for c in &mut self.caches {
            c.rebase();
        }
    }

    /// Sets listed dirty across all levels.
    #[cfg(test)]
    pub(crate) fn dirty_sets(&self) -> usize {
        self.caches.iter().map(Cache::dirty_sets).sum()
    }

    /// Every level's dirty and base lists (see [`Cache::lists`]).
    #[cfg(test)]
    pub(crate) fn lists(&self) -> [(&[u32], &[u32]); 4] {
        self.caches.each_ref().map(Cache::lists)
    }

    /// Whole-state equality of every level (see [`Cache::same_state`]).
    #[cfg(test)]
    pub(crate) fn same_state(&self, other: &Hierarchy) -> bool {
        self.caches
            .iter()
            .zip(&other.caches)
            .all(|(a, b)| a.same_state(b))
    }

    /// Whether the index says exactly what the four tag arrays do: an
    /// index rebuilt from them agrees with it on every line either knows.
    #[cfg(test)]
    pub(crate) fn index_is_exact(&self) -> bool {
        let mut rebuilt = std::collections::HashMap::new();
        for (at, cache) in self.caches.iter().enumerate() {
            for (line, way) in cache.resident() {
                let entry = rebuilt.entry(line).or_insert(NOWHERE);
                *entry = with_way(*entry, at, way as u32);
            }
        }
        let indexed = self.index.iter().flat_map(|(page, lines)| {
            (0..PAGE_LINES as u64).map(move |i| (page << PAGE_LINES_SHIFT | i, lines[i as usize]))
        });
        rebuilt.iter().all(|(&line, &e)| self.entry(line) == e)
            && indexed.filter(|&(_, e)| e != NOWHERE).count() == rebuilt.len()
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
        let before = h.clone();
        for _ in 0..10 {
            let _ = h.probe_data(0);
            let _ = h.probe_data(0x9999);
        }
        assert!(h.same_state(&before), "a probe changed the caches");
        assert_eq!(h.probe_data(0x9999), HitLevel::Mem);
        assert_eq!(h.access_data(0), HitLevel::L1);
    }

    /// The hierarchy as it walked before the residency index: each
    /// level's own `access` in turn, and `invalidate` at every level.
    #[derive(Clone)]
    struct Walking([Cache; 4]);

    impl Walking {
        fn access(&mut self, l1: usize, addr: u64) -> HitLevel {
            [(l1, HitLevel::L1), (L2, HitLevel::L2), (L3, HitLevel::L3)]
                .into_iter()
                .find(|&(at, _)| self.0[at].access(addr))
                .map_or(HitLevel::Mem, |(_, hit)| hit)
        }

        fn flush(&mut self, addr: u64) {
            for c in &mut self.0 {
                c.invalidate(addr);
            }
        }
    }

    /// Drives the hierarchy and a [`Walking`] twin through one seeded
    /// stream of instruction and data accesses (half repeating the last
    /// line), flushes of present and absent lines, restores of each
    /// scope, rebases and clones. After every operation the index must
    /// equal one rebuilt from the tag arrays, and the two must agree in
    /// what each access returned, in state and in both set lists.
    #[test]
    fn index_is_exact_after_every_operation() {
        use uwm_rng::rngs::StdRng;
        use uwm_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(22);
        let mut h = Hierarchy::new();
        let mut twin = Walking(h.caches.clone());
        // The machine's snapshot bookkeeping in miniature, as in the
        // cache's memo test.
        let (mut snap, mut snap_twin) = (h.clone(), twin.clone());
        let (mut snap_id, mut snap_base, mut anchor) = (0u32, 0u32, 0u32);
        // 24 lines in one L3 set (so every level evicts), 24 in one L2 set
        // spread over eight L3 sets, 256 neighbours, and lines no access
        // ever fills.
        let pick = |rng: &mut StdRng| -> u64 {
            let k = rng.gen_range(0..24u64);
            match rng.gen_range(0..4u32) {
                0 => 5 + k * 4096,
                1 => 9 + k * 512,
                2 => rng.gen_range(0..256),
                _ => (1 << 40) + k,
            }
        };
        let mut prev = 0u64;
        for op in 0..20_000 {
            let line = if rng.gen_bool(0.5) {
                prev
            } else {
                pick(&mut rng)
            };
            let addr = line * crate::cache::LINE_SIZE + rng.gen_range(0..64u64);
            match rng.gen_range(0..12u32) {
                0..=5 => {
                    let (l1, got) = if rng.gen_bool(0.5) {
                        (L1I, h.access_inst(addr))
                    } else {
                        (L1D, h.access_data(addr))
                    };
                    assert_eq!(got, twin.access(l1, addr), "op {op}: access");
                    prev = line;
                }
                6 | 7 => {
                    h.flush(addr);
                    twin.flush(addr);
                }
                8 => {
                    snap = h.clone();
                    snap.rebase();
                    snap_twin = twin.clone();
                    snap_twin.0.iter_mut().for_each(Cache::rebase);
                    snap_id += 1;
                    snap_base = anchor;
                }
                9 => {
                    let scope = if anchor != 0 && anchor == snap_id && rng.gen_bool(0.8) {
                        RestoreScope::Dirty
                    } else if snap_base != 0 && anchor == snap_base && rng.gen_bool(0.8) {
                        RestoreScope::DirtyAndBase
                    } else {
                        RestoreScope::Full
                    };
                    h.restore_from(&snap, scope);
                    for (c, s) in twin.0.iter_mut().zip(&snap_twin.0) {
                        c.restore_from(s, scope);
                    }
                    assert!(h.same_state(&snap), "op {op}: {scope:?} restore");
                    anchor = snap_id;
                }
                10 => {
                    h.rebase();
                    twin.0.iter_mut().for_each(Cache::rebase);
                    anchor = 0;
                }
                _ => {
                    h = h.clone();
                    twin = twin.clone();
                }
            }
            assert!(h.index_is_exact(), "op {op}: index");
            for (at, (a, b)) in h.caches.iter().zip(&twin.0).enumerate() {
                assert!(a.same_state(b), "op {op}: level {at} state");
                assert_eq!(a.lists(), b.lists(), "op {op}: level {at} set lists");
            }
        }
    }

    /// Exact work, which cannot flake: a flush of a line no level holds
    /// scans no set, and a miss scans only the L1 set.
    #[test]
    fn misses_and_absent_flushes_scan_only_the_l1() {
        use crate::cache::set_walks;

        let mut h = h();
        assert_eq!(set_walks(|| h.flush(0x1234_0000)), 0, "unindexed page");
        assert_eq!(set_walks(|| assert_eq!(h.access_data(0), HitLevel::Mem)), 1);
        assert_eq!(set_walks(|| h.flush(0x40)), 0, "indexed page, absent line");
        assert_eq!(set_walks(|| assert_eq!(h.access_inst(0), HitLevel::L2)), 1);
        assert_eq!(set_walks(|| assert_eq!(h.access_inst(0), HitLevel::L1)), 0);
        assert_eq!(set_walks(|| h.flush(0)), 0, "resident line");
        assert_eq!(h.probe_data(0), HitLevel::Mem);
    }
}
