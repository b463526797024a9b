//! Replacement policies for set-associative caches: true LRU (the L2 and
//! L3) and tree pseudo-LRU (the L1s). Both are deterministic functions of
//! the access stream.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU, as used by most real L1 caches.
    TreePlru,
}

/// Per-set replacement state. One instance per cache set.
///
/// Both variants pack into a single `u64`, so a cache's `Vec<SetState>`
/// is a flat array with no per-set heap allocation — the LRU recency
/// list is nibble-coded (way index at recency position `i` lives in bits
/// `4i..4i+4`, position 0 = MRU), which caps true LRU at 16 ways; the
/// largest modelled cache (L3) is exactly 16-way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetState {
    /// Nibble `i` of `order` is the way at recency position `i` (0 = MRU).
    Lru { order: u64 },
    /// Flattened binary tree of direction bits; supports power-of-two ways.
    TreePlru { bits: u64 },
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

impl SetState {
    pub(crate) fn new(policy: Policy, ways: usize) -> Self {
        match policy {
            Policy::Lru => SetState::Lru {
                order: lru_init(ways),
            },
            Policy::TreePlru => SetState::TreePlru { bits: 0 },
        }
    }

    /// Records a use of `way`, updating recency metadata.
    pub(crate) fn touch(&mut self, way: usize, ways: usize) {
        match self {
            SetState::Lru { order } => {
                // Find `way`'s recency position, then splice it to the
                // front: positions below it shift one place older.
                let mut shift = 0u32;
                while (*order >> shift) & 0xF != way as u64 {
                    shift += 4;
                }
                let newer = *order & ((1u64 << shift) - 1);
                let older = if shift + 4 >= 64 {
                    0
                } else {
                    (*order >> (shift + 4)) << (shift + 4)
                };
                *order = older | (newer << 4) | way as u64;
            }
            SetState::TreePlru { bits } => {
                // Walk from the root to the leaf for `way`, setting each
                // internal node to point *away* from the path taken.
                let mut node = 0usize; // root at index 0 in implicit heap
                let levels = ways.trailing_zeros();
                for level in (0..levels).rev() {
                    let dir = (way >> level) & 1;
                    if dir == 0 {
                        *bits |= 1 << node; // point right (away from 0-side)
                    } else {
                        *bits &= !(1 << node);
                    }
                    node = 2 * node + 1 + dir;
                }
            }
        }
    }

    /// Chooses the victim way for the next fill.
    pub(crate) fn victim(&self, ways: usize) -> usize {
        match self {
            SetState::Lru { order } => ((*order >> (4 * (ways - 1))) & 0xF) as usize,
            SetState::TreePlru { bits } => {
                let mut node = 0usize;
                let mut way = 0usize;
                let levels = ways.trailing_zeros();
                for _ in 0..levels {
                    let dir = ((*bits >> node) & 1) as usize;
                    way = (way << 1) | dir;
                    node = 2 * node + 1 + dir;
                }
                way
            }
        }
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
}
