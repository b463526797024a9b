//! A single set-associative cache.
//!
//! Caches store *line tags only* — data always lives in [`crate::memory`];
//! the cache's job in a μWM is purely to modulate latency, which is exactly
//! how the paper's DC-WR and IC-WR treat it (§3.1).
//!
//! The machine's hierarchy uses the three fixed geometries
//! [`CacheConfig::l1`], [`CacheConfig::l2`] and [`CacheConfig::l3`]; a
//! standalone `Cache` takes any valid geometry. Replacement (LRU or
//! tree-PLRU) is a deterministic function of the access stream.

use crate::replacement::Policy;

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
/// A repeat access of the line the previous access touched skips the
/// set walk: that line is resident, its way is already the most recently
/// used, and its set is already listed dirty, so the walk would change
/// nothing but the hit count. Straight-line code thus walks each line
/// once, not once per instruction.
///
/// `access` and `invalidate` are built from way-addressed primitives
/// (`way_of`, `hit_way`, `miss_fill`, `invalidate_way`), which the
/// hierarchy calls directly when its residency index already knows the
/// way.
///
/// # Examples
///
/// ```
/// use uwm_sim::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1());
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
    /// One `u64` of [`Policy`] state per set (see [`crate::replacement`]).
    repl: Box<[u64]>,
    hits: u64,
    misses: u64,
    /// Sets written since the machine's anchor snapshot, each listed once.
    dirty: Vec<u32>,
    /// One bit per set: is it in `dirty`?
    dirty_bits: Box<[u64]>,
    /// Snapshots only: the sets this snapshot differed in from its own
    /// anchor when it was taken.
    base: Vec<u32>,
    /// The line of the most recent access, or [`INVALID_TAG`]: resident,
    /// the MRU way of its set, and its set listed dirty. Everything else
    /// that writes tags, replacement state or the dirty list clears it.
    last: u64,
}

#[cfg(test)]
thread_local! {
    /// Sets copied by [`Cache::restore_from`] on this thread, a full copy
    /// counting every set: what the restore-cost tests measure.
    pub(crate) static SETS_COPIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_copied(sets: usize) {
    SETS_COPIED.with(|c| c.set(c.get() + sets));
}

#[cfg(test)]
thread_local! {
    /// Tag lookups on this thread that scanned a set ([`Cache::way_of`]):
    /// what the memo and residency-index tests count. A fill's search for
    /// an empty way is not a lookup and is not counted.
    static SET_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Set walks, at every cache level, while `f` runs on this thread.
#[cfg(test)]
pub(crate) fn set_walks(f: impl FnOnce()) -> usize {
    let before = SET_WALKS.with(|c| c.get());
    f();
    SET_WALKS.with(|c| c.get()) - before
}

/// Sentinel for an empty way. Unreachable as a real line index: line
/// indices are byte addresses shifted right by [`LINE_SHIFT`].
const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or if `ways` is not a power
    /// of two under [`Policy::TreePlru`].
    pub fn new(cfg: CacheConfig) -> Self {
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
            repl: vec![cfg.policy.init(cfg.ways); cfg.sets].into_boxed_slice(),
            dirty_bits: vec![0; cfg.sets.div_ceil(64)].into_boxed_slice(),
            cfg,
            hits: 0,
            misses: 0,
            dirty: Vec::new(),
            base: Vec::new(),
            last: INVALID_TAG,
        }
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
    /// the line is filled, evicting the replacement policy's victim if the
    /// set is full. Updates replacement and hit statistics.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = line_of(addr);
        if self.memo_hit(line) {
            return true;
        }
        match self.way_of(line) {
            Some(way) => {
                self.hit_way(line, way);
                true
            }
            None => {
                self.miss_fill(line);
                false
            }
        }
    }

    /// The same-line memo: if `line` is the line of the most recent
    /// access, counts a hit and returns `true`. A repeat access of that
    /// line needs no walk: it is resident, its way is already the most
    /// recently used, and its set is already listed dirty.
    #[inline]
    pub(crate) fn memo_hit(&mut self, line: u64) -> bool {
        if line != self.last {
            return false;
        }
        debug_assert!(self.memo_holds(line), "stale same-line memo");
        self.hits += 1;
        true
    }

    /// The way of `line`'s set that holds it, by a scan of the set.
    #[inline]
    pub(crate) fn way_of(&self, line: u64) -> Option<usize> {
        #[cfg(test)]
        SET_WALKS.with(|c| c.set(c.get() + 1));
        self.tags[self.set_range(line)]
            .iter()
            .position(|&t| t == line)
    }

    /// Counts a hit on `line`, held in `way`, and touches that way.
    #[inline]
    pub(crate) fn hit_way(&mut self, line: u64, way: usize) {
        let set = self.set_of(line);
        self.cfg
            .policy
            .touch(&mut self.repl[set], way, self.cfg.ways);
        self.mark(set);
        self.hits += 1;
        self.last = line;
    }

    /// Counts a miss on `line`, which no way holds, and fills it into the
    /// set's first empty way, else the policy's victim. Returns the way
    /// filled and the line evicted from it, if any.
    pub(crate) fn miss_fill(&mut self, line: u64) -> (usize, Option<u64>) {
        self.misses += 1;
        let set = self.set_of(line);
        let range = self.set_range(line);
        let way = match self.tags[range.clone()]
            .iter()
            .position(|&t| t == INVALID_TAG)
        {
            Some(empty) => empty,
            None => self.cfg.policy.victim(self.repl[set], self.cfg.ways),
        };
        let evicted = std::mem::replace(&mut self.tags[range.start + way], line);
        self.cfg
            .policy
            .touch(&mut self.repl[set], way, self.cfg.ways);
        self.mark(set);
        self.last = line;
        (way, (evicted != INVALID_TAG).then_some(evicted))
    }

    /// Removes `line` from `way`, which holds it.
    pub(crate) fn invalidate_way(&mut self, line: u64, way: usize) {
        let set = self.set_of(line);
        let slot = &mut self.tags[set * self.cfg.ways + way];
        debug_assert_eq!(
            *slot, line,
            "invalidating a way that does not hold the line"
        );
        *slot = INVALID_TAG;
        self.mark(set);
        self.last = INVALID_TAG;
    }

    /// The memo's invariant for `line`: resident, touching its way leaves
    /// the replacement state as it is, and its set is listed dirty.
    fn memo_holds(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let Some(way) = self.tags[self.set_range(line)]
            .iter()
            .position(|&t| t == line)
        else {
            return false;
        };
        let mut state = self.repl[set];
        self.cfg.policy.touch(&mut state, way, self.cfg.ways);
        state == self.repl[set] && self.dirty_bits[set / 64] & (1 << (set % 64)) != 0
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
        if let Some(way) = self.way_of(line) {
            self.invalidate_way(line, way);
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
    /// the sets `scope` names, and adopts `snap`'s dirty list. Both caches
    /// must have the same geometry.
    pub(crate) fn restore_from(&mut self, snap: &Cache, scope: RestoreScope) {
        debug_assert_eq!(self.cfg, snap.cfg, "restore across geometries");
        if scope == RestoreScope::Full {
            self.tags.clone_from(&snap.tags);
            self.repl.clone_from(&snap.repl);
            self.dirty_bits.clone_from(&snap.dirty_bits);
            #[cfg(test)]
            count_copied(self.cfg.sets);
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
                #[cfg(test)]
                count_copied(1);
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
        self.last = INVALID_TAG;
    }

    /// Turns a copy into a snapshot's view: the sets written since the
    /// anchor become the snapshot's base list, and its live dirty list
    /// starts empty. Both lists keep their allocations, so a snapshot
    /// retaken in place allocates nothing. The memo goes too: its set is
    /// no longer listed dirty.
    pub(crate) fn rebase(&mut self) {
        // As in `restore_from`: zeroing the listed sets' words clears
        // exactly the list.
        for &set in &self.dirty {
            self.dirty_bits[set as usize / 64] = 0;
        }
        std::mem::swap(&mut self.base, &mut self.dirty);
        self.dirty.clear();
        self.last = INVALID_TAG;
    }

    /// Drops the same-line memo, so the next access walks its set.
    #[cfg(test)]
    pub(crate) fn forget_last(&mut self) {
        self.last = INVALID_TAG;
    }

    /// Number of sets in the live dirty list.
    #[cfg(test)]
    pub(crate) fn dirty_sets(&self) -> usize {
        self.dirty.len()
    }

    /// The live dirty list and the base list, in order.
    #[cfg(test)]
    pub(crate) fn lists(&self) -> (&[u32], &[u32]) {
        (&self.dirty, &self.base)
    }

    /// Every resident line with the way that holds it.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let ways = self.cfg.ways;
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != INVALID_TAG)
            .map(move |(slot, &t)| (t, slot % ways))
    }

    /// Whole-state equality: geometry, tags, replacement state and
    /// counters (not the dirty bookkeeping or the memo).
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
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            policy: Policy::Lru,
        })
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
        assert!(!c.access(4 * 64));
        assert!(c.contains(0));
        assert!(!c.contains(2 * 64), "LRU victim should be line 2");
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
        c.access(4 * 64);
        assert!(!c.contains(0), "probe must not have touched LRU state");
        assert!(c.contains(2 * 64));
    }

    /// Drives a cache and a twin that forgets its memo before every
    /// access through one seeded stream of accesses, invalidations
    /// (present and absent lines), restores of each scope, rebases and
    /// clones, and asserts after every operation that the two agree in
    /// what `access` returned, in state and in both set lists.
    fn memo_matches_walking_twin(cfg: CacheConfig, ops: usize) {
        use uwm_rng::rngs::StdRng;
        use uwm_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(cfg.sets as u64 ^ (cfg.ways as u64) << 20);
        let mut memo = Cache::new(cfg);
        let mut twin = memo.clone();
        // The machine's snapshot bookkeeping in miniature: snapshot ids,
        // the anchor a snapshot was taken on, and the caches' anchor.
        let mut snap = memo.clone();
        let (mut snap_id, mut snap_base, mut anchor) = (0u32, 0u32, 0u32);
        // `ways + 2` lines in each of (at most) four sets, so fills evict.
        let pick = |rng: &mut StdRng| -> u64 {
            let set = rng.gen_range(0..cfg.sets.min(4) as u64);
            set + rng.gen_range(0..cfg.ways as u64 + 2) * cfg.sets as u64
        };
        let mut prev = 0u64;
        for op in 0..ops {
            let what = format!("{cfg:?}, op {op}");
            // Half the accesses and invalidations hit the memo's line.
            let line = if rng.gen_bool(0.5) {
                prev
            } else {
                pick(&mut rng)
            };
            match rng.gen_range(0..12u32) {
                0..=6 => {
                    let addr = line * LINE_SIZE + rng.gen_range(0..LINE_SIZE);
                    twin.forget_last();
                    let got = memo.access(addr);
                    assert_eq!(got, twin.access(addr), "{what}: access");
                    prev = line;
                }
                7 => {
                    memo.invalidate(line * LINE_SIZE);
                    twin.invalidate(line * LINE_SIZE);
                }
                8 => {
                    snap = memo.clone();
                    snap.rebase();
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
                    memo.restore_from(&snap, scope);
                    twin.restore_from(&snap, scope);
                    assert!(memo.same_state(&snap), "{what}: {scope:?} restore");
                    anchor = snap_id;
                }
                10 => {
                    memo.rebase();
                    twin.rebase();
                    anchor = 0;
                }
                _ => {
                    memo = memo.clone();
                    twin = twin.clone();
                }
            }
            assert!(memo.same_state(&twin), "{what}: state");
            assert_eq!(memo.lists(), twin.lists(), "{what}: set lists");
        }
    }

    #[test]
    fn memo_is_exact_under_every_policy_and_geometry() {
        for policy in [Policy::Lru, Policy::TreePlru] {
            for (sets, ways) in [(2, 2), (64, 8), (4096, 16)] {
                memo_matches_walking_twin(CacheConfig { sets, ways, policy }, 3_000);
            }
        }
    }

    #[test]
    fn l1_geometry() {
        let cfg = CacheConfig::l1();
        assert_eq!(cfg.capacity(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 2,
            policy: Policy::Lru,
        });
    }
}
