//! Replacement policies for set-associative caches: true LRU (the L2 and
//! L3) and tree pseudo-LRU (the L1s). Both are deterministic functions of
//! the access stream.
//!
//! A cache reads its [`Policy`] once and keeps one `u64` of replacement
//! state per set. Under LRU the state is a nibble-coded recency list: the
//! way at recency position `i` lives in bits `4i..4i+4`, position 0 being
//! the MRU, which caps true LRU at 16 ways (the L3 is exactly 16-way).
//! Under tree-PLRU it is the flattened binary tree of direction bits, for
//! power-of-two ways.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU, as used by most real L1 caches.
    TreePlru,
}

/// Nibble-packed identity permutation: way `i` at recency position `i`.
fn lru_init(ways: usize) -> u64 {
    assert!(ways <= 16, "nibble-packed LRU supports at most 16 ways");
    let mut order = 0u64;
    for i in 0..ways {
        order |= (i as u64) << (4 * i);
    }
    order
}

/// The tree nodes on `way`'s root-to-leaf path, and the value touching
/// `way` gives each: every node on the path points *away* from it.
const fn plru_path(way: usize, ways: usize) -> (u64, u64) {
    let (mut mask, mut value) = (0u64, 0u64);
    let mut node = 0usize; // root at index 0 of an implicit heap
    let mut level = ways.trailing_zeros();
    while level > 0 {
        level -= 1;
        let dir = (way >> level) & 1;
        mask |= 1 << node;
        if dir == 0 {
            value |= 1 << node; // point right, away from the 0 side
        }
        node = 2 * node + 1 + dir;
    }
    (mask, value)
}

/// [`plru_path`] of every way of an 8-way set: the L1s' touch is one
/// table load, a mask and an or.
const PLRU8: [(u64, u64); 8] = {
    let mut table = [(0, 0); 8];
    let mut way = 0;
    while way < 8 {
        table[way] = plru_path(way, 8);
        way += 1;
    }
    table
};

impl Policy {
    /// The replacement state of a set no access has touched.
    pub(crate) fn init(self, ways: usize) -> u64 {
        match self {
            Policy::Lru => lru_init(ways),
            Policy::TreePlru => 0,
        }
    }

    /// Records a use of `way` in a set's `state`.
    #[inline]
    pub(crate) fn touch(self, state: &mut u64, way: usize, ways: usize) {
        match self {
            Policy::Lru => {
                // SWAR: the lowest zero nibble of `order ^ way·0x11…1` is
                // `way`'s recency position (unused high nibbles read 0,
                // but way 0 always sits below them). Splice it to the
                // front: positions below it shift one place older.
                let order = *state;
                let x = order ^ (way as u64).wrapping_mul(0x1111_1111_1111_1111);
                let zero = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
                let shift = zero.trailing_zeros() - 3;
                let older = u64::MAX << shift;
                *state = (order & (older << 4)) | ((order & !older) << 4) | way as u64;
            }
            Policy::TreePlru => {
                let (mask, value) = if ways == 8 {
                    PLRU8[way]
                } else {
                    plru_path(way, ways)
                };
                *state = (*state & !mask) | value;
            }
        }
    }

    /// Chooses the victim way of a full set for the next fill.
    pub(crate) fn victim(self, state: u64, ways: usize) -> usize {
        match self {
            Policy::Lru => ((state >> (4 * (ways - 1))) & 0xF) as usize,
            Policy::TreePlru => {
                let mut node = 0usize;
                let mut way = 0usize;
                for _ in 0..ways.trailing_zeros() {
                    let dir = ((state >> node) & 1) as usize;
                    way = (way << 1) | dir;
                    node = 2 * node + 1 + dir;
                }
                way
            }
        }
    }
}

/// One set's replacement state bundled with its policy: the form the
/// unit tests drive.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SetState {
    policy: Policy,
    state: u64,
}

#[cfg(test)]
impl SetState {
    fn new(policy: Policy, ways: usize) -> Self {
        Self {
            policy,
            state: policy.init(ways),
        }
    }

    fn touch(&mut self, way: usize, ways: usize) {
        self.policy.touch(&mut self.state, way, ways);
    }

    fn victim(&self, ways: usize) -> usize {
        self.policy.victim(self.state, ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = SetState::new(Policy::Lru, 4);
        for w in 0..4 {
            s.touch(w, 4);
        }
        // Way 0 was touched longest ago.
        assert_eq!(s.victim(4), 0);
        s.touch(0, 4);
        assert_eq!(s.victim(4), 1);
    }

    #[test]
    fn plru_points_away_from_recent() {
        let mut s = SetState::new(Policy::TreePlru, 4);
        s.touch(0, 4);
        let v = s.victim(4);
        assert_ne!(v, 0, "PLRU must not immediately evict the MRU way");
    }

    #[test]
    fn plru_full_touch_cycle_is_consistent() {
        let mut s = SetState::new(Policy::TreePlru, 8);
        // Touch all ways; victim must be a valid way index.
        for w in 0..8 {
            s.touch(w, 8);
        }
        let v = s.victim(8);
        assert!(v < 8);
        // The most recently touched way (7) must not be the victim.
        assert_ne!(v, 7);
    }

    /// The per-way loops the table and SWAR touches replace.
    fn reference_touch(policy: Policy, state: &mut u64, way: usize, ways: usize) {
        match policy {
            Policy::Lru => {
                let mut shift = 0u32;
                while (*state >> shift) & 0xF != way as u64 {
                    shift += 4;
                }
                let newer = *state & ((1u64 << shift) - 1);
                let older = if shift + 4 >= 64 {
                    0
                } else {
                    (*state >> (shift + 4)) << (shift + 4)
                };
                *state = older | (newer << 4) | way as u64;
            }
            Policy::TreePlru => {
                let mut node = 0usize;
                for level in (0..ways.trailing_zeros()).rev() {
                    let dir = (way >> level) & 1;
                    if dir == 0 {
                        *state |= 1 << node;
                    } else {
                        *state &= !(1 << node);
                    }
                    node = 2 * node + 1 + dir;
                }
            }
        }
    }

    #[test]
    fn touch_matches_the_per_way_loop() {
        use uwm_rng::rngs::StdRng;
        use uwm_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(11);
        for policy in [Policy::Lru, Policy::TreePlru] {
            for ways in [1, 2, 4, 8, 16] {
                let (mut fast, mut slow) = (policy.init(ways), policy.init(ways));
                for step in 0..5_000 {
                    let way = rng.gen_range(0..ways);
                    policy.touch(&mut fast, way, ways);
                    reference_touch(policy, &mut slow, way, ways);
                    assert_eq!(fast, slow, "{policy:?}, {ways} ways, step {step}");
                    assert_eq!(policy.victim(fast, ways), policy.victim(slow, ways));
                }
            }
        }
    }
}
