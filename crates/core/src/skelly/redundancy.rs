//! Reliability machinery: s-sample medians and best-k-of-n voting (§5.2).
//!
//! Single weird-gate executions are 92–99.99 % accurate; a SHA-1 needs
//! hundreds of thousands of them, so `skelly` executes each logical gate
//! redundantly: `s` timed executions → median delay → one vote; `n` votes →
//! k-threshold decision. The paper's SHA-1 runs used `s = 10, k = 3, n = 5`.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::gate::{check_arity, WeirdGate, READ_THRESHOLD};
use crate::substrate::Substrate;

/// Redundancy parameters for voted gate execution.
///
/// # Examples
///
/// ```
/// use uwm_core::skelly::Redundancy;
/// let r = Redundancy::paper();
/// assert_eq!((r.samples, r.k, r.votes), (10, 3, 5));
/// assert_eq!(r.raw_executions(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redundancy {
    /// Timed executions per vote (`s`); the median delay becomes the vote.
    pub samples: usize,
    /// Votes per logical gate execution (`n`).
    pub votes: usize,
    /// Minimum number of 1-votes for the output to be 1 (`k`). With
    /// `votes = 5, k = 3` this is a straight majority.
    pub k: usize,
}

impl Default for Redundancy {
    /// No redundancy: one raw execution per logical gate.
    fn default() -> Self {
        Self {
            samples: 1,
            votes: 1,
            k: 1,
        }
    }
}

impl Redundancy {
    /// The conservative parameters of the paper's SHA-1 experiments
    /// (`s = 10, k = 3, n = 5`).
    pub fn paper() -> Self {
        Self {
            samples: 10,
            votes: 5,
            k: 3,
        }
    }

    /// Raw gate executions per logical operation.
    pub fn raw_executions(&self) -> usize {
        self.samples * self.votes
    }

    /// Executes `gate` redundantly and returns the voted output bit,
    /// recording accuracy statistics in `bank`.
    ///
    /// When more than one raw execution is needed, the invariant
    /// preparation ([`WeirdGate::begin`]: output initialization, input
    /// encoding, predictor training) runs **once**: the prepared state is
    /// snapshotted and every trial restores it
    /// ([`Substrate::restore_keeping_clock`], so the clock stays monotonic
    /// and each trial draws fresh noise) before
    /// [`WeirdGate::activate_read`]. In a run of votes on one machine,
    /// each snapshot is taken into the previous vote's, so it copies only
    /// the cache sets the machine wrote in between (see
    /// [`crate::substrate::SubstrateSnapshot`]). The no-redundancy default
    /// runs the full protocol once.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Arity`] when `inputs.len()` is not the
    /// gate's arity; nothing is executed or counted then.
    ///
    /// # Panics
    ///
    /// Panics if `samples`, `votes`, or `k` is zero, or `k > votes`.
    pub fn vote(
        &self,
        gate: &dyn WeirdGate,
        s: &mut dyn Substrate,
        inputs: &[bool],
        bank: &mut CounterBank,
    ) -> Result<bool> {
        assert!(
            self.samples > 0 && self.votes > 0,
            "redundancy must be positive"
        );
        assert!(self.k > 0 && self.k <= self.votes, "need 0 < k <= votes");
        check_arity(gate.kind(), inputs)?;
        let expected = gate.truth(inputs);
        let prepared = if self.raw_executions() > 1 {
            gate.begin(s, inputs)?;
            Some(s.snapshot())
        } else {
            None
        };
        let counters = bank.entry(gate.name());
        let mut ones = 0usize;
        let mut delays = Vec::with_capacity(self.samples);
        for _ in 0..self.votes {
            delays.clear();
            for _ in 0..self.samples {
                let r = match &prepared {
                    Some(snap) => {
                        s.restore_keeping_clock(snap);
                        gate.activate_read(s)
                    }
                    None => gate.execute_timed(s, inputs)?,
                };
                counters.raw_total += 1;
                if r.bit == expected {
                    counters.raw_correct += 1;
                }
                delays.push(r.delay);
            }
            delays.sort_unstable();
            let median = delays[delays.len() / 2];
            let vote = median < READ_THRESHOLD;
            counters.medians_total += 1;
            if vote == expected {
                counters.medians_correct += 1;
            }
            if vote {
                ones += 1;
            }
        }
        let out = ones >= self.k;
        counters.votes_total += 1;
        if out == expected {
            counters.votes_correct += 1;
        }
        Ok(out)
    }
}

/// Per-gate execution statistics — the raw material of the paper's
/// Table 4 ("Correct After Median" / "Correct After Vote").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateCounters {
    /// Raw gate executions.
    pub raw_total: u64,
    /// Raw executions whose bit matched the reference truth.
    pub raw_correct: u64,
    /// Median decisions taken.
    pub medians_total: u64,
    /// Median decisions that matched the reference truth.
    pub medians_correct: u64,
    /// Voted (logical) gate executions.
    pub votes_total: u64,
    /// Voted executions that matched the reference truth.
    pub votes_correct: u64,
}

impl GateCounters {
    /// Adds another counter set into this one (shard merging).
    pub fn merge(&mut self, other: &GateCounters) {
        self.raw_total += other.raw_total;
        self.raw_correct += other.raw_correct;
        self.medians_total += other.medians_total;
        self.medians_correct += other.medians_correct;
        self.votes_total += other.votes_total;
        self.votes_correct += other.votes_correct;
    }

    /// Fraction of medians that were correct (1.0 when none were taken).
    pub fn median_accuracy(&self) -> f64 {
        if self.medians_total == 0 {
            1.0
        } else {
            self.medians_correct as f64 / self.medians_total as f64
        }
    }

    /// Fraction of votes that were correct (1.0 when none were taken).
    pub fn vote_accuracy(&self) -> f64 {
        if self.votes_total == 0 {
            1.0
        } else {
            self.votes_correct as f64 / self.votes_total as f64
        }
    }
}

/// Statistics per gate name, ordered for stable reporting.
#[derive(Debug, Clone, Default)]
pub struct CounterBank {
    counters: BTreeMap<&'static str, GateCounters>,
}

impl CounterBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (possibly fresh) counters for `gate`.
    pub fn entry(&mut self, gate: &'static str) -> &mut GateCounters {
        self.counters.entry(gate).or_default()
    }

    /// Read-only counters for `gate`, if it ever executed.
    pub fn get(&self, gate: &str) -> Option<&GateCounters> {
        self.counters.get(gate)
    }

    /// Iterates `(gate name, counters)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &GateCounters)> {
        self.counters.iter().map(|(&k, v)| (k, v))
    }

    /// Merges another bank into this one, gate by gate — the deterministic
    /// reduction step after a [`crate::exec::ShardedExecutor`] run.
    pub fn merge(&mut self, other: &CounterBank) {
        for (name, c) in other.iter() {
            self.entry(name).merge(c);
        }
    }

    /// Drops all statistics.
    pub fn clear(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::gate::tsx::{TsxGate, TsxXor};
    use crate::gate::{GateKind, GateReading};
    use crate::layout::Layout;
    use std::cell::Cell;
    use uwm_sim::machine::{Machine, MachineConfig};

    /// A fake one-input gate with a programmable error pattern.
    #[derive(Debug)]
    struct FlakyGate {
        fail_every: u64,
        calls: Cell<u64>,
        input: Cell<bool>,
    }

    impl FlakyGate {
        fn new(fail_every: u64) -> Self {
            Self {
                fail_every,
                calls: 0.into(),
                input: false.into(),
            }
        }
    }

    impl WeirdGate for FlakyGate {
        fn kind(&self) -> GateKind {
            GateKind::TxAssign
        }
        fn begin(&self, _s: &mut dyn Substrate, inputs: &[bool]) -> Result<()> {
            self.input.set(inputs[0]);
            Ok(())
        }
        fn activate_read(&self, _s: &mut dyn Substrate) -> GateReading {
            let n = self.calls.get();
            self.calls.set(n + 1);
            let fail = self.fail_every != 0 && n.is_multiple_of(self.fail_every);
            let bit = self.input.get() ^ fail;
            GateReading {
                bit,
                delay: if bit { 40 } else { 230 },
            }
        }
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::quiet(), 0)
    }

    #[test]
    fn voting_corrects_sporadic_errors() {
        let gate = FlakyGate::new(7);
        let red = Redundancy::paper();
        let mut bank = CounterBank::new();
        let mut m = machine();
        for i in 0..40 {
            let input = i % 2 == 0;
            let out = red.vote(&gate, &mut m, &[input], &mut bank).unwrap();
            assert_eq!(out, input, "vote {i} must mask a 1/7 error rate");
        }
        let c = bank.get("TSX_ASSIGN").unwrap();
        assert!(c.raw_correct < c.raw_total, "raw errors did happen");
        assert_eq!(c.vote_accuracy(), 1.0);
        assert_eq!(c.raw_total, 40 * 50);
    }

    #[test]
    fn no_redundancy_passes_raw_bits_through() {
        let gate = FlakyGate::new(2);
        let red = Redundancy::default();
        let mut bank = CounterBank::new();
        let mut m = machine();
        let mut wrong = 0;
        for _ in 0..20 {
            if !red.vote(&gate, &mut m, &[true], &mut bank).unwrap() {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 10, "every other call fails by construction");
    }

    #[test]
    fn k_threshold_is_respected() {
        // With k = votes, a single 0-vote forces output 0.
        let gate = FlakyGate::new(5);
        let red = Redundancy {
            samples: 1,
            votes: 5,
            k: 5,
        };
        let mut bank = CounterBank::new();
        let mut m = machine();
        let out = red.vote(&gate, &mut m, &[true], &mut bank).unwrap();
        assert!(!out, "one failed sample among five must veto under k=5");
    }

    #[test]
    #[should_panic(expected = "k <= votes")]
    fn invalid_k_panics() {
        let gate = FlakyGate::new(0);
        let red = Redundancy {
            samples: 1,
            votes: 3,
            k: 4,
        };
        let mut m = machine();
        let _ = red.vote(&gate, &mut m, &[true], &mut CounterBank::new());
    }

    #[test]
    fn hoisted_split_path_votes_correctly() {
        // A real gate on a noisy machine: prepare runs once, every raw
        // execution replays the prepared snapshot.
        let mut m = Machine::new(MachineConfig::default(), 11);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let g = TsxGate::spec(GateKind::TxAnd, &mut lay)
            .unwrap()
            .instantiate(&mut m);
        let red = Redundancy::paper();
        let mut bank = CounterBank::new();
        for bits in 0..4u32 {
            let inputs = [bits & 1 == 1, bits & 2 == 2];
            let out = red.vote(&g, &mut m, &inputs, &mut bank).unwrap();
            assert_eq!(out, inputs[0] & inputs[1], "inputs {inputs:?}");
        }
        let c = bank.get("TSX_AND").unwrap();
        assert_eq!(c.raw_total, 4 * 50, "s*n raw executions per logical op");
        assert_eq!(c.vote_accuracy(), 1.0);
    }

    #[test]
    fn clock_stays_monotonic_across_hoisted_trials() {
        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let g = TsxGate::spec(GateKind::TxOr, &mut lay)
            .unwrap()
            .instantiate(&mut m);
        let red = Redundancy {
            samples: 5,
            votes: 3,
            k: 2,
        };
        let before = uwm_sim::machine::Machine::cycles(&m);
        let _ = red
            .vote(&g, &mut m, &[true, false], &mut CounterBank::new())
            .unwrap();
        assert!(
            uwm_sim::machine::Machine::cycles(&m) > before,
            "restore_keeping_clock must not rewind time"
        );
    }

    /// A noisy machine with a TSX-XOR, its counter bank, and the
    /// `(vote, cycles)` of every bit voted so far.
    struct XorRun {
        m: Machine,
        g: TsxXor,
        bank: CounterBank,
        votes: Vec<(bool, u64)>,
    }

    impl XorRun {
        fn new() -> Self {
            let mut m = Machine::new(MachineConfig::default(), 23);
            let mut lay = Layout::new(m.predictor().alias_stride());
            let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
            Self {
                m,
                g,
                bank: CounterBank::new(),
                votes: Vec::new(),
            }
        }

        fn vote(&mut self, bit: usize) {
            let red = Redundancy {
                samples: 3,
                votes: 1,
                k: 1,
            };
            let inputs = [bit & 1 == 1, bit & 2 == 2];
            let out = red.vote(&self.g, &mut self.m, &inputs, &mut self.bank);
            self.votes.push((out.unwrap(), self.m.cycles()));
        }
    }

    /// Each per-bit snapshot is taken into the last one dropped on this
    /// thread. Voting on two machines in turn recycles the other
    /// machine's, which is copied whole; voting on one machine after the
    /// other recycles its own, which copies only the sets written since.
    /// Both must decode the same.
    #[test]
    fn recycled_snapshots_vote_alike_from_either_machine() {
        const BITS: usize = 40;
        let mut interleaved = [XorRun::new(), XorRun::new()];
        for bit in 0..BITS {
            for run in &mut interleaved {
                run.vote(bit);
            }
        }
        let mut in_turn = [XorRun::new(), XorRun::new()];
        for run in &mut in_turn {
            for bit in 0..BITS {
                run.vote(bit);
            }
        }
        for (i, (a, b)) in interleaved.iter().zip(&in_turn).enumerate() {
            assert_eq!(a.votes, b.votes, "machine {i}: votes and cycles");
            assert_eq!(a.m.stats(), b.m.stats(), "machine {i}: stats");
            assert!(
                a.bank.iter().eq(b.bank.iter()),
                "machine {i}: counter banks"
            );
        }
        let c = in_turn[0].bank.get("TSX_XOR").unwrap();
        assert_eq!(c.raw_total, 3 * BITS as u64);
    }

    /// A wrong input count is an error, checked before the reference
    /// truth is taken or anything runs.
    #[test]
    fn wrong_arity_is_an_error_not_a_panic() {
        let mut m = machine();
        let mut lay = Layout::new(m.predictor().alias_stride());
        let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut m);
        let cycles = m.cycles();
        let mut bank = CounterBank::new();
        for red in [Redundancy::paper(), Redundancy::default()] {
            assert_eq!(
                red.vote(&g, &mut m, &[true], &mut bank),
                Err(CoreError::Arity {
                    gate: "TSX_XOR",
                    expected: 2,
                    got: 1,
                })
            );
        }
        assert_eq!(bank.iter().count(), 0, "no counters recorded");
        assert_eq!(m.cycles(), cycles, "nothing executed");
    }

    #[test]
    fn counter_bank_iterates_in_name_order() {
        let mut bank = CounterBank::new();
        bank.entry("Z").raw_total = 1;
        bank.entry("A").raw_total = 2;
        let names: Vec<_> = bank.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["A", "Z"]);
    }
}
