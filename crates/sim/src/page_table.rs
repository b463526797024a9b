//! The page table behind simulated memory and the predecode cache.
//!
//! Both stores are sparse and probed on the hot path: [`crate::memory`]
//! on every condition read and store, [`crate::predecode`] on every
//! fetch. [`PageTable`] maps a page number to a dense index through a
//! direct two-level directory for page numbers below 4 GiB (where the
//! simulated programs live), so a lookup is two loads and no hash; the
//! rare pages above that go through a `HashMap`. The pages themselves sit
//! in one dense vector, so iteration follows insertion order and an index
//! stays valid until a page is removed or the table is cleared.

use std::collections::HashMap;

/// Bytes of address space per page (`1 << PAGE_SHIFT`).
pub(crate) const PAGE_SHIFT: u32 = 12;
/// Bytes of address space per page.
pub(crate) const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Page numbers per directory leaf (`1 << LEAF_BITS`).
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
/// Page numbers below this (4 GiB of address space) are direct-indexed.
const DIRECT_PAGES: u64 = 1 << 20;
/// A leaf entry with no page.
const ABSENT: u32 = u32::MAX;

/// Page number → page, with a dense `u32` index per page.
#[derive(Debug)]
pub(crate) struct PageTable<T> {
    /// Leaves of `LEAF_LEN` indices, one per `page >> LEAF_BITS` below
    /// `DIRECT_PAGES`; grown on demand.
    dir: Vec<Option<Box<[u32; LEAF_LEN]>>>,
    /// Indices of the pages at or above `DIRECT_PAGES`.
    high: HashMap<u64, u32>,
    /// Page number of each index.
    keys: Vec<u64>,
    pages: Vec<T>,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        Self {
            dir: Vec::new(),
            high: HashMap::new(),
            keys: Vec::new(),
            pages: Vec::new(),
        }
    }
}

impl<T: Clone> Clone for PageTable<T> {
    fn clone(&self) -> Self {
        Self {
            dir: self.dir.clone(),
            high: self.high.clone(),
            keys: self.keys.clone(),
            pages: self.pages.clone(),
        }
    }

    /// Page by page: drops the pages `src` lacks, copies each of its pages
    /// over this table's copy in place and inserts the rest, so a table
    /// that already holds every page of `src` allocates nothing. Indices
    /// may differ from `src`'s.
    fn clone_from(&mut self, src: &Self) {
        self.retain(|k| src.index(k).is_some());
        for (k, page) in src.iter() {
            match self.get_mut(k) {
                Some(dst) => dst.clone_from(page),
                None => {
                    self.insert_new(k, page.clone());
                }
            }
        }
    }
}

impl<T> PageTable<T> {
    /// Number of pages.
    pub(crate) fn len(&self) -> usize {
        self.pages.len()
    }

    /// The index of page `page`, if present.
    #[inline]
    pub(crate) fn index(&self, page: u64) -> Option<u32> {
        let i = if page < DIRECT_PAGES {
            let leaf = self.dir.get((page >> LEAF_BITS) as usize)?.as_deref()?;
            leaf[page as usize & (LEAF_LEN - 1)]
        } else {
            self.high_index(page)?
        };
        (i != ABSENT).then_some(i)
    }

    /// [`PageTable::index`] above the direct range, out of line: those
    /// pages are rare, and the hash lookup would bloat every inlined
    /// direct one.
    #[cold]
    #[inline(never)]
    fn high_index(&self, page: u64) -> Option<u32> {
        self.high.get(&page).copied()
    }

    /// The page at `index` (from [`PageTable::index`]).
    #[inline]
    pub(crate) fn at(&self, index: u32) -> &T {
        &self.pages[index as usize]
    }

    /// Page `page`, if present.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<&T> {
        self.index(page).map(|i| self.at(i))
    }

    /// Page `page`, mutably, if present.
    #[inline]
    pub(crate) fn get_mut(&mut self, page: u64) -> Option<&mut T> {
        let i = self.index(page)?;
        Some(&mut self.pages[i as usize])
    }

    /// Page `page`, inserted from `make` if absent.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, page: u64, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.index(page) {
            Some(i) => i,
            None => self.insert_new(page, make()),
        };
        &mut self.pages[i as usize]
    }

    /// `(page number, page)` in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.keys.iter().copied().zip(&self.pages)
    }

    /// Every page, mutably, in index order.
    pub(crate) fn pages_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut()
    }

    /// Removes every page whose number fails `keep`. The last page moves
    /// into each hole, so indices of later pages change.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let mut i = 0;
        while i < self.keys.len() {
            if keep(self.keys[i]) {
                i += 1;
                continue;
            }
            self.set_slot(self.keys[i], ABSENT);
            self.keys.swap_remove(i);
            self.pages.swap_remove(i);
            if let Some(&moved) = self.keys.get(i) {
                self.set_slot(moved, i as u32);
            }
        }
    }

    /// Removes every page; the directory keeps its leaves.
    pub(crate) fn clear(&mut self) {
        for i in 0..self.keys.len() {
            self.set_slot(self.keys[i], ABSENT);
        }
        self.keys.clear();
        self.pages.clear();
    }

    #[cold]
    fn insert_new(&mut self, page: u64, value: T) -> u32 {
        let i = u32::try_from(self.pages.len())
            .ok()
            .filter(|&i| i != ABSENT)
            .expect("page count fits u32");
        if page < DIRECT_PAGES {
            let top = (page >> LEAF_BITS) as usize;
            if self.dir.len() <= top {
                self.dir.resize_with(top + 1, || None);
            }
            let leaf = self.dir[top].get_or_insert_with(|| Box::new([ABSENT; LEAF_LEN]));
            leaf[page as usize & (LEAF_LEN - 1)] = i;
        } else {
            self.high.insert(page, i);
        }
        self.keys.push(page);
        self.pages.push(value);
        i
    }

    /// Points the entry of an existing page at `index` (`ABSENT` drops it).
    fn set_slot(&mut self, page: u64, index: u32) {
        if page < DIRECT_PAGES {
            let leaf = self.dir[(page >> LEAF_BITS) as usize]
                .as_deref_mut()
                .expect("a present page has a leaf");
            leaf[page as usize & (LEAF_LEN - 1)] = index;
        } else if index == ABSENT {
            self.high.remove(&page);
        } else {
            self.high.insert(page, index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use uwm_rng::rngs::StdRng;
    use uwm_rng::{Rng, SeedableRng};

    /// Page numbers on both sides of the direct range and of a leaf edge.
    fn page(rng: &mut StdRng) -> u64 {
        const PAGES: [u64; 8] = [
            0,
            1,
            LEAF_LEN as u64 - 1,
            LEAF_LEN as u64,
            DIRECT_PAGES - 1,
            DIRECT_PAGES,
            DIRECT_PAGES + 7,
            u64::MAX >> PAGE_SHIFT,
        ];
        PAGES[rng.gen_range(0..PAGES.len())]
    }

    fn check(t: &PageTable<u32>, model: &BTreeMap<u64, u32>) {
        assert_eq!(t.len(), model.len());
        for (&p, &v) in model {
            assert_eq!(t.get(p), Some(&v), "page {p:#x}");
            assert_eq!(*t.at(t.index(p).unwrap()), v);
        }
        let mut seen: Vec<(u64, u32)> = t.iter().map(|(p, &v)| (p, v)).collect();
        seen.sort_unstable();
        assert!(seen.into_iter().eq(model.iter().map(|(&p, &v)| (p, v))));
    }

    #[test]
    fn matches_a_btreemap_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = PageTable::default();
        let mut model = BTreeMap::new();
        for step in 0..2000u32 {
            match rng.gen_range(0..10u32) {
                0 => {
                    let drop = page(&mut rng);
                    t.retain(|p| p != drop);
                    model.remove(&drop);
                }
                1 if step % 50 == 0 => {
                    t.clear();
                    model.clear();
                }
                2..=5 => {
                    let p = page(&mut rng);
                    *t.get_or_insert_with(p, || 0) += step;
                    *model.entry(p).or_insert(0) += step;
                }
                _ => {
                    let p = page(&mut rng);
                    assert_eq!(t.get_mut(p).copied(), model.get(&p).copied());
                }
            }
            check(&t, &model);
        }
    }

    #[test]
    fn indices_are_dense_and_stable_until_removal() {
        let mut t = PageTable::default();
        for p in [5u64, DIRECT_PAGES + 1, 2] {
            t.get_or_insert_with(p, || p);
        }
        assert_eq!(t.index(5), Some(0));
        assert_eq!(t.index(DIRECT_PAGES + 1), Some(1));
        assert_eq!(t.index(2), Some(2));
        t.retain(|p| p != 5);
        assert_eq!(t.index(2), Some(0), "the last page fills the hole");
        assert_eq!(t.index(5), None);
        t.clear();
        assert_eq!((t.len(), t.index(2)), (0, None));
    }
}
