//! Sharded trial execution: fan deterministic batches across OS threads.
//!
//! The paper's tables are statistics over many thousands of gate
//! activations. Those trials are embarrassingly parallel *if* each unit of
//! work is hermetic — no shared machine state between units. This module
//! provides the scheduling half of that bargain:
//!
//! * the **caller** makes each batch hermetic by constructing a fresh
//!   backend (machine / skelly / circuit instance) inside the batch
//!   closure, seeded from [`batch_seed`];
//! * the [`ShardedExecutor`] fans the batch indices across N shards
//!   (worker threads) with work-stealing, and returns the results **in
//!   batch order** — so the merged output is a pure function of
//!   `(spec, config, base_seed, batch_count)` and is bit-identical across
//!   shard counts, scheduling orders, and repeat runs.
//!
//! Built on [`std::thread::scope`] only; no external dependencies.
//!
//! # Examples
//!
//! ```
//! use uwm_core::exec::{batch_seed, ShardedExecutor};
//! use uwm_core::skelly::Skelly;
//!
//! let exec = ShardedExecutor::new(2);
//! let hits: Vec<u32> = exec.run(4, |batch| {
//!     let mut sk = Skelly::quiet(batch_seed(42, batch)).unwrap();
//!     (0..8).filter(|i| sk.and(i % 2 == 0, true) == (i % 2 == 0)).count() as u32
//! });
//! assert_eq!(hits, vec![8, 8, 8, 8]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uwm_rng::splitmix64;

/// Derives the RNG seed for one batch from a base seed.
///
/// Mixing through [`splitmix64`] decorrelates consecutive batch indices;
/// the result depends only on `(base, index)`, never on which shard runs
/// the batch, so sharded runs reproduce single-threaded ones exactly.
pub fn batch_seed(base: u64, index: usize) -> u64 {
    splitmix64(base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Runs closures over a range of batch indices on a fixed number of
/// worker threads, returning results in batch order.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    shards: usize,
}

impl ShardedExecutor {
    /// An executor with `shards` worker threads (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of worker threads.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs `work(batch_index)` for every index in `0..batches`, spread
    /// across the shards with atomic work-stealing, and returns the
    /// results ordered by batch index.
    ///
    /// `work` must be hermetic: anything stateful (machine, skelly, RNG)
    /// is constructed inside the closure from the batch index, typically
    /// via [`batch_seed`]. Under that contract the returned vector is
    /// identical for any shard count.
    ///
    /// With a single shard the batches run inline on the calling thread —
    /// no threads are spawned, preserving exact single-threaded behavior.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any batch closure after all workers stop.
    pub fn run<R, F>(&self, batches: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.shards == 1 || batches <= 1 {
            return (0..batches).map(&work).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(batches));
        std::thread::scope(|scope| {
            for _ in 0..self.shards.min(batches) {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= batches {
                            break;
                        }
                        local.push((idx, work(idx)));
                    }
                    // Free a kept snapshot while the scope still waits
                    // for this thread (see `drop_spare`).
                    crate::substrate::drop_spare();
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
        let mut out = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(out.len(), batches);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`ShardedExecutor::run`], but folds the ordered batch results
    /// into an accumulator — the common "merge counters" pattern.
    pub fn run_fold<R, A, F, M>(&self, batches: usize, work: F, init: A, mut merge: M) -> A
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        M: FnMut(A, R) -> A,
    {
        let mut acc = init;
        for r in self.run(batches, work) {
            acc = merge(acc, r);
        }
        acc
    }

    /// Like [`ShardedExecutor::run`], but each worker thread carries a
    /// scratch value built once by `init` and passed to every batch it
    /// runs — reusable buffers (input vectors, delay accumulators) survive
    /// across a shard's batches instead of being reallocated per batch.
    ///
    /// The determinism contract is unchanged *provided the scratch is
    /// state-free between batches*: `work` must produce the same result
    /// for a given batch index whether its scratch is fresh or reused
    /// (clearing, not trusting, any carried contents).
    pub fn run_with<S, R, F, G>(&self, batches: usize, init: G, work: F) -> Vec<R>
    where
        R: Send,
        G: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        if self.shards == 1 || batches <= 1 {
            let mut scratch = init();
            return (0..batches).map(|i| work(i, &mut scratch)).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(batches));
        std::thread::scope(|scope| {
            for _ in 0..self.shards.min(batches) {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= batches {
                            break;
                        }
                        local.push((idx, work(idx, &mut scratch)));
                    }
                    // As in `run`; dropping the shard state first frees
                    // its snapshot too.
                    drop(scratch);
                    crate::substrate::drop_spare();
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
        let mut out = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(out.len(), batches);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_batch_order() {
        let exec = ShardedExecutor::new(4);
        let out = exec.run(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let work = |i: usize| batch_seed(7, i);
        let one = ShardedExecutor::new(1).run(32, work);
        for shards in [2, 3, 8] {
            assert_eq!(ShardedExecutor::new(shards).run(32, work), one);
        }
    }

    #[test]
    fn zero_batches_is_empty() {
        let exec = ShardedExecutor::new(4);
        let out: Vec<u64> = exec.run(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_shards_than_batches_is_fine() {
        let exec = ShardedExecutor::new(16);
        assert_eq!(exec.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn run_fold_merges_in_order() {
        let exec = ShardedExecutor::new(4);
        let total = exec.run_fold(10, |i| i as u64, 0u64, |a, r| a * 10 + r);
        assert_eq!(total, 123_456_789); // 0,1,2,...,9 folded positionally
    }

    #[test]
    fn run_with_reuses_scratch_and_stays_deterministic() {
        let work = |i: usize, buf: &mut Vec<u64>| {
            buf.clear(); // hermetic: never trust carried contents
            buf.extend((0..4).map(|j| batch_seed(9, i) ^ j));
            buf.iter().copied().fold(0u64, u64::wrapping_add)
        };
        let one = ShardedExecutor::new(1).run_with(32, Vec::new, work);
        for shards in [2, 3, 8] {
            assert_eq!(
                ShardedExecutor::new(shards).run_with(32, Vec::new, work),
                one
            );
        }
        assert_eq!(one.len(), 32);
    }

    #[test]
    fn batch_seed_is_stable_and_distinct() {
        let a = batch_seed(1, 0);
        assert_eq!(a, batch_seed(1, 0));
        assert_ne!(a, batch_seed(1, 1));
        assert_ne!(a, batch_seed(2, 0));
    }

    #[test]
    fn shards_clamped_to_one() {
        assert_eq!(ShardedExecutor::new(0).shards(), 1);
    }
}
