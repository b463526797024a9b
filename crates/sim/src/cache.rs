//! A single set-associative cache.
//!
//! Caches store *line tags only* — data always lives in [`crate::memory`];
//! the cache's job in a μWM is purely to modulate latency, which is exactly
//! how the paper's DC-WR and IC-WR treat it (§3.1).

use crate::replacement::{Policy, SetState};

/// Line size in bytes (64 B, as on all recent x86 parts).
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Converts a byte address to its cache-line index.
///
/// # Examples
///
/// ```
/// use uwm_sim::cache::line_of;
/// assert_eq!(line_of(0), line_of(63));
/// assert_ne!(line_of(63), line_of(64));
/// ```
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Geometry and policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity; must be a power of two for [`Policy::TreePlru`].
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// 32 KiB, 8-way — a typical L1.
    pub fn l1() -> Self {
        Self {
            sets: 64,
            ways: 8,
            policy: Policy::TreePlru,
        }
    }

    /// 256 KiB, 8-way — a typical private L2.
    pub fn l2() -> Self {
        Self {
            sets: 512,
            ways: 8,
            policy: Policy::Lru,
        }
    }

    /// 4 MiB, 16-way — a small shared L3.
    pub fn l3() -> Self {
        Self {
            sets: 4096,
            ways: 16,
            policy: Policy::Lru,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * LINE_SIZE
    }
}

/// Which sets [`Cache::restore_from`] copies from the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RestoreScope {
    /// Every set: nothing is known about how the two caches relate.
    Full,
    /// The sets either side wrote since their shared anchor.
    Dirty,
    /// [`RestoreScope::Dirty`] plus the sets the snapshot itself had
    /// written relative to the target's anchor when it was taken.
    DirtyAndBase,
}

/// A set-associative cache of line tags.
///
/// Every write to a set (a hit's replacement touch, a fill, an
/// invalidation that cleared a tag) lists the set once in a dirty list,
/// so a restore can copy just the sets that may differ from the snapshot
/// the cache was last restored from. The machine owns the snapshot
/// bookkeeping; see `Machine::restore_from`.
///
/// # Examples
///
/// ```
/// use uwm_sim::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1(), 0);
/// assert!(!c.access(0x1000));          // cold miss
/// assert!(c.access(0x1000));           // now a hit
/// c.invalidate(0x1000);
/// assert!(!c.contains(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`: cached line index, or [`INVALID_TAG`]
    /// when empty. Flat (not `Vec<Vec<_>>`) and sentinel-coded rather
    /// than `Option<u64>`, so a set is a dense run of eight bytes per
    /// way — half the footprint, which matters for the L3's 64 K tags.
    tags: Box<[u64]>,
    repl: Vec<SetState>,
    hits: u64,
    misses: u64,
    /// Sets written since the machine's anchor snapshot, each listed once.
    dirty: Vec<u32>,
    /// One bit per set: is it in `dirty`?
    dirty_bits: Box<[u64]>,
    /// Snapshots only: the sets this snapshot differed in from its own
    /// anchor when it was taken.
    base: Vec<u32>,
}

/// Sentinel for an empty way. Unreachable as a real line index: line
/// indices are byte addresses shifted right by [`LINE_SHIFT`].
const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache. `seed` only matters for [`Policy::Random`].
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or if `ways` is not a power
    /// of two under [`Policy::TreePlru`].
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        if cfg.policy == Policy::TreePlru {
            assert!(
                cfg.ways.is_power_of_two(),
                "TreePlru needs power-of-two ways"
            );
        }
        assert!(cfg.ways >= 1, "cache needs at least one way");
        Self {
            tags: vec![INVALID_TAG; cfg.ways * cfg.sets].into_boxed_slice(),
            repl: (0..cfg.sets)
                .map(|s| {
                    SetState::new(
                        cfg.policy,
                        cfg.ways,
                        seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                })
                .collect(),
            dirty_bits: vec![0; cfg.sets.div_ceil(64)].into_boxed_slice(),
            cfg,
            hits: 0,
            misses: 0,
            dirty: Vec::new(),
            base: Vec::new(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.cfg.sets - 1)
    }

    /// The flat-tag range of the set containing `line`.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let base = self.set_of(line) * self.cfg.ways;
        base..base + self.cfg.ways
    }

    /// Accesses the line containing `addr`: returns `true` on hit. On miss
    /// the line is filled, possibly evicting a victim (returned by
    /// [`Cache::access_evicting`]). Updates replacement and hit statistics.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_evicting(addr).0
    }

    /// Like [`Cache::access`] but also reports the evicted line, if any.
    pub fn access_evicting(&mut self, addr: u64) -> (bool, Option<u64>) {
        let line = line_of(addr);
        let set = self.set_of(line);
        let ways = &self.tags[self.set_range(line)];
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.repl[set].touch(way, self.cfg.ways);
            self.mark(set);
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let evicted = self.fill_line(line);
        (false, evicted)
    }

    fn fill_line(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let range = self.set_range(line);
        let (way, evicted) = match self.tags[range.clone()]
            .iter()
            .position(|&t| t == INVALID_TAG)
        {
            Some(empty) => (empty, None),
            None => {
                let victim = self.repl[set].victim(self.cfg.ways);
                (victim, Some(self.tags[range.start + victim]))
            }
        };
        self.tags[range.start + way] = line;
        self.repl[set].touch(way, self.cfg.ways);
        self.mark(set);
        evicted
    }

    /// Lists `set` as written since the anchor (once).
    #[inline]
    fn mark(&mut self, set: usize) {
        let bit = 1u64 << (set % 64);
        let word = &mut self.dirty_bits[set / 64];
        if *word & bit == 0 {
            *word |= bit;
            self.dirty.push(set as u32);
        }
    }

    /// Non-invasive presence check: does not touch replacement state or
    /// statistics. This is the "omniscient analyzer" view used by tests.
    pub fn contains(&self, addr: u64) -> bool {
        let line = line_of(addr);
        self.tags[self.set_range(line)].contains(&line)
    }

    /// Removes `addr`'s line if present (this level only).
    pub fn invalidate(&mut self, addr: u64) {
        let line = line_of(addr);
        let range = self.set_range(line);
        if let Some(t) = self.tags[range].iter_mut().find(|t| **t == line) {
            *t = INVALID_TAG;
            self.mark(self.set_of(line));
        }
    }

    /// `(hits, misses)` counted by [`Cache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Makes this cache's contents and counters equal `snap`'s, copying
    /// the sets `scope` names, and adopts `snap`'s dirty list. A geometry
    /// mismatch forces a full copy.
    pub(crate) fn restore_from(&mut self, snap: &Cache, scope: RestoreScope) {
        if scope == RestoreScope::Full || self.cfg != snap.cfg {
            self.cfg = snap.cfg;
            self.tags.clone_from(&snap.tags);
            self.repl.clone_from(&snap.repl);
            self.dirty_bits.clone_from(&snap.dirty_bits);
        } else {
            let base: &[u32] = match scope {
                RestoreScope::DirtyAndBase => &snap.base,
                _ => &[],
            };
            let ways = self.cfg.ways;
            for &set in self.dirty.iter().chain(&snap.dirty).chain(base) {
                let set = set as usize;
                let range = set * ways..(set + 1) * ways;
                self.tags[range.clone()].copy_from_slice(&snap.tags[range]);
                self.repl[set] = snap.repl[set];
            }
            // Every set bit belongs to a listed set, so zeroing the words
            // of the listed sets clears exactly the list.
            for &set in &self.dirty {
                self.dirty_bits[set as usize / 64] = 0;
            }
            for &set in &snap.dirty {
                self.dirty_bits[set as usize / 64] |= 1 << (set % 64);
            }
        }
        self.dirty.clone_from(&snap.dirty);
        self.hits = snap.hits;
        self.misses = snap.misses;
    }

    /// Turns a fresh copy into a snapshot's view: the sets written since
    /// the anchor become the snapshot's base list, and its live dirty
    /// list starts empty.
    pub(crate) fn rebase(&mut self) {
        // As in `restore_from`: zeroing the listed sets' words clears
        // exactly the list.
        for &set in &self.dirty {
            self.dirty_bits[set as usize / 64] = 0;
        }
        self.base = std::mem::take(&mut self.dirty);
    }

    /// Number of sets in the live dirty list.
    #[cfg(test)]
    pub(crate) fn dirty_sets(&self) -> usize {
        self.dirty.len()
    }

    /// Whole-state equality: geometry, tags, replacement state and
    /// counters (not the dirty bookkeeping).
    #[cfg(test)]
    pub(crate) fn same_state(&self, other: &Cache) -> bool {
        self.cfg == other.cfg
            && self.tags == other.tags
            && self.repl == other.repl
            && self.stats() == other.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways, LRU: easy to reason about evictions.
        Cache::new(
            CacheConfig {
                sets: 2,
                ways: 2,
                policy: Policy::Lru,
            },
            0,
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn same_line_different_offsets_share_entry() {
        let mut c = tiny();
        c.access(0x40); // line 1
        assert!(c.access(0x7F)); // still line 1
    }

    #[test]
    fn conflict_eviction_respects_lru() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even lines).
        c.access(0);
        c.access(2 * 64);
        c.access(0); // line 0 is now MRU
        let (hit, evicted) = c.access_evicting(4 * 64);
        assert!(!hit);
        assert_eq!(evicted, Some(2), "LRU victim should be line 2");
        assert!(c.contains(0));
        assert!(!c.contains(2 * 64));
    }

    #[test]
    fn invalidate_is_local_and_precise() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.invalidate(0);
        assert!(!c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.access(128);
        assert_eq!(c.occupancy(), 3);
        for addr in [0, 64, 128] {
            c.invalidate(addr);
        }
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn every_write_lists_its_set_once() {
        let mut c = tiny();
        c.access(0); // miss: fill set 0
        c.access(0); // hit: LRU touch of set 0
        c.invalidate(64); // absent line: set 1 untouched
        assert_eq!(c.dirty, [0]);
        c.access(64);
        c.invalidate(64);
        assert_eq!(c.dirty, [0, 1]);
        c.rebase();
        assert!(c.dirty.is_empty());
        assert_eq!(c.base, [0, 1]);
        assert!(c.dirty_bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn contains_is_non_invasive() {
        let mut c = tiny();
        c.access(0);
        c.access(2 * 64);
        // Repeated contains() must not refresh line 0's recency.
        for _ in 0..10 {
            assert!(c.contains(0));
        }
        let (_, evicted) = c.access_evicting(4 * 64);
        assert_eq!(evicted, Some(0), "probe must not have touched LRU state");
    }

    #[test]
    fn l1_geometry() {
        let cfg = CacheConfig::l1();
        assert_eq!(cfg.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(
            CacheConfig {
                sets: 3,
                ways: 2,
                policy: Policy::Lru,
            },
            0,
        );
    }
}
