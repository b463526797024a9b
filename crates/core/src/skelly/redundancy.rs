//! Reliability machinery: s-sample medians and best-k-of-n voting (§5.2).
//!
//! Single weird-gate executions are 92–99.99 % accurate; a SHA-1 needs
//! hundreds of thousands of them, so `skelly` executes each logical gate
//! redundantly: `s` timed executions → the bit of the median-delay reading
//! → one vote; `n` votes → k-threshold decision. The paper's SHA-1 runs used `s = 10, k = 3, n = 5`.

use crate::error::{CoreError, Result};
use crate::gate::{check_arity, GateKind, WeirdGate};
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
    /// Timed executions per vote (`s`); the bit of the median-delay
    /// reading becomes the vote.
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

    /// Checks that these parameters can vote: [`CoreError::Redundancy`]
    /// if `samples`, `votes` or `k` is zero, or `k > votes`.
    pub(crate) fn check(&self) -> Result<()> {
        if self.samples > 0 && self.k > 0 && self.k <= self.votes {
            Ok(())
        } else {
            Err(CoreError::Redundancy {
                samples: self.samples,
                votes: self.votes,
                k: self.k,
            })
        }
    }

    /// Executes `gate` redundantly and returns the voted output bit,
    /// recording accuracy statistics in `bank`.
    ///
    /// [`WeirdGate::begin`] (output initialization, input encoding,
    /// predictor training) runs **once**, then each of the
    /// `samples * votes` trials runs [`WeirdGate::activate_read`]. With
    /// more than one trial, the prepared state is snapshotted and every
    /// trial after the first rewinds to it
    /// ([`Substrate::restore_keeping_clock`], so the clock stays monotonic
    /// and each trial draws fresh noise): `samples * votes - 1` rewinds
    /// per logical execution, and none for the no-redundancy default. In
    /// a run of votes on one machine, each snapshot is taken into the
    /// previous vote's, so it copies only the cache sets the machine wrote
    /// in between (see [`crate::substrate::SubstrateSnapshot`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Redundancy`] when `samples`, `votes` or `k` is
    /// zero, or `k > votes`, and [`CoreError::Arity`] when
    /// `inputs.len()` is not the gate's arity; nothing is executed or
    /// counted then.
    pub fn vote(
        &self,
        gate: &dyn WeirdGate,
        s: &mut dyn Substrate,
        inputs: &[bool],
        bank: &mut CounterBank,
    ) -> Result<bool> {
        self.check()?;
        check_arity(gate.kind(), inputs)?;
        let expected = gate.truth(inputs);
        gate.begin(s, inputs)?;
        let prepared = (self.raw_executions() > 1).then(|| s.snapshot());
        let counters = bank.entry(gate.kind());
        let mut ones = 0usize;
        for round in 0..self.votes {
            // Readings that decoded as 1, and the shortest delay read for
            // each bit.
            let mut sample_ones = 0usize;
            let mut shortest = [u64::MAX; 2];
            for sample in 0..self.samples {
                if let Some(snap) = prepared.as_ref().filter(|_| round + sample > 0) {
                    s.restore_keeping_clock(snap);
                }
                let r = gate.activate_read(s);
                counters.raw_total += 1;
                if r.bit == expected {
                    counters.raw_correct += 1;
                }
                sample_ones += usize::from(r.bit);
                let d = &mut shortest[usize::from(r.bit)];
                *d = (*d).min(r.delay);
            }
            // The gate decoded every reading against one threshold, so bits
            // are monotone in delay: the median-delay reading (rank
            // `samples / 2` in delay order) carries the vote, and its bit
            // follows from the count of ones and which bit the shorter
            // delays decode to.
            let median = self.samples / 2;
            let vote = if shortest[1] < shortest[0] {
                median < sample_ones
            } else {
                median >= self.samples - sample_ones
            };
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

/// Statistics per gate kind, reported in name order.
#[derive(Debug, Clone, Default)]
pub struct CounterBank {
    /// Indexed by `GateKind as usize`; `None` until the kind executes.
    counters: [Option<GateCounters>; GateKind::ALL.len()],
}

impl CounterBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (possibly fresh) counters for `kind`.
    pub fn entry(&mut self, kind: GateKind) -> &mut GateCounters {
        self.counters[kind as usize].get_or_insert_with(GateCounters::default)
    }

    /// Read-only counters for the gate named `gate` (as in
    /// [`GateKind::name`]), if it ever executed.
    pub fn get(&self, gate: &str) -> Option<&GateCounters> {
        let kind = GateKind::ALL.into_iter().find(|k| k.name() == gate)?;
        self.counters[kind as usize].as_ref()
    }

    /// Iterates `(gate name, counters)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &GateCounters)> {
        let mut kinds = GateKind::ALL;
        kinds.sort_unstable_by_key(|k| k.name());
        kinds
            .into_iter()
            .filter_map(|k| Some((k.name(), self.counters[k as usize].as_ref()?)))
    }

    /// Merges another bank into this one, gate by gate — the deterministic
    /// reduction step after a [`crate::exec::ShardedExecutor`] run.
    pub fn merge(&mut self, other: &CounterBank) {
        for (kind, c) in GateKind::ALL.into_iter().zip(&other.counters) {
            if let Some(c) = c {
                self.entry(kind).merge(c);
            }
        }
    }

    /// Drops all statistics.
    pub fn clear(&mut self) {
        self.counters = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::tsx::{TsxGate, TsxXor};
    use crate::gate::{GateKind, GateReading};
    use crate::layout::Layout;
    use crate::substrate::SubstrateSnapshot;
    use std::cell::Cell;
    use uwm_sim::isa::{Program, Reg};
    use uwm_sim::machine::{Machine, MachineConfig, RunOutcome};
    use uwm_sim::timing::LatencyConfig;

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

    /// `red` cannot vote: `vote` returns the error and executes and
    /// counts nothing.
    fn assert_rejected(red: Redundancy) {
        let gate = FlakyGate::new(0);
        let mut m = machine();
        let mut bank = CounterBank::new();
        let Redundancy { samples, votes, k } = red;
        assert_eq!(
            red.vote(&gate, &mut m, &[true], &mut bank),
            Err(CoreError::Redundancy { samples, votes, k })
        );
        assert_eq!(gate.calls.get(), 0, "nothing executed");
        assert_eq!(bank.iter().count(), 0, "no counters recorded");
    }

    #[test]
    fn zero_samples_is_an_error() {
        assert_rejected(Redundancy {
            samples: 0,
            ..Redundancy::paper()
        });
    }

    #[test]
    fn zero_votes_is_an_error() {
        assert_rejected(Redundancy {
            votes: 0,
            ..Redundancy::paper()
        });
    }

    #[test]
    fn zero_k_is_an_error() {
        assert_rejected(Redundancy {
            k: 0,
            ..Redundancy::paper()
        });
    }

    #[test]
    fn k_above_votes_is_an_error() {
        assert_rejected(Redundancy {
            samples: 1,
            votes: 3,
            k: 4,
        });
    }

    #[test]
    fn hoisted_split_path_votes_correctly() {
        // A real gate on a noisy machine: prepare runs once, every raw
        // execution after the first replays the prepared snapshot.
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

    /// A machine that counts the voter's snapshots and rewinds.
    struct Counting {
        m: Machine,
        snapshots: Cell<usize>,
        restores: usize,
        rewinds: usize,
    }

    impl Substrate for Counting {
        fn backend_name(&self) -> &'static str {
            Substrate::backend_name(&self.m)
        }
        fn install_program(&mut self, program: Program) {
            Substrate::install_program(&mut self.m, program);
        }
        fn install_shared(&mut self, program: &Program) {
            Substrate::install_shared(&mut self.m, program);
        }
        fn warm_code_range(&mut self, base: u64, end: u64) {
            Substrate::warm_code_range(&mut self.m, base, end);
        }
        fn run_at(&mut self, pc: u64) -> RunOutcome {
            Substrate::run_at(&mut self.m, pc)
        }
        fn flush_addr(&mut self, addr: u64) {
            Substrate::flush_addr(&mut self.m, addr);
        }
        fn timed_read(&mut self, addr: u64) -> u64 {
            Substrate::timed_read(&mut self.m, addr)
        }
        fn timed_read_tsc(&mut self, addr: u64) -> u64 {
            Substrate::timed_read_tsc(&mut self.m, addr)
        }
        fn touch_code(&mut self, addr: u64) {
            Substrate::touch_code(&mut self.m, addr);
        }
        fn cycles(&self) -> u64 {
            Substrate::cycles(&self.m)
        }
        fn idle(&mut self, cycles: u64) {
            Substrate::idle(&mut self.m, cycles);
        }
        fn write_word(&mut self, addr: u64, value: u64) {
            Substrate::write_word(&mut self.m, addr, value);
        }
        fn read_word(&self, addr: u64) -> u64 {
            Substrate::read_word(&self.m, addr)
        }
        fn set_reg(&mut self, r: Reg, value: u64) {
            Substrate::set_reg(&mut self.m, r, value);
        }
        fn latency(&self) -> &LatencyConfig {
            Substrate::latency(&self.m)
        }
        fn alias_stride(&self) -> u64 {
            Substrate::alias_stride(&self.m)
        }
        fn snapshot(&self) -> SubstrateSnapshot {
            self.snapshots.set(self.snapshots.get() + 1);
            Substrate::snapshot(&self.m)
        }
        fn restore(&mut self, snap: &SubstrateSnapshot) {
            self.restores += 1;
            Substrate::restore(&mut self.m, snap);
        }
        fn restore_keeping_clock(&mut self, snap: &SubstrateSnapshot) {
            self.rewinds += 1;
            Substrate::restore_keeping_clock(&mut self.m, snap);
        }
        fn reseed(&mut self, seed: u64) {
            Substrate::reseed(&mut self.m, seed);
        }
    }

    /// Per logical execution the voter takes one snapshot and rewinds
    /// before every trial but the first; a single raw execution takes
    /// neither, and no vote restores the clock.
    #[test]
    fn one_snapshot_and_a_rewind_between_trials() {
        for (samples, votes, k) in [(10, 5, 3), (3, 1, 1), (1, 3, 2), (1, 1, 1)] {
            let red = Redundancy { samples, votes, k };
            let mut s = Counting {
                m: Machine::new(MachineConfig::default(), 5),
                snapshots: 0.into(),
                restores: 0,
                rewinds: 0,
            };
            let mut lay = Layout::new(s.alias_stride());
            let g = TsxXor::spec(&mut lay).unwrap().instantiate(&mut s);
            let mut bank = CounterBank::new();
            let trials = samples * votes;
            for bit in 0..4 {
                let inputs = [bit & 1 == 1, bit & 2 == 2];
                red.vote(&g, &mut s, &inputs, &mut bank).unwrap();
                let (snapshots, rewinds) = (usize::from(trials > 1), trials - 1);
                let n = bit + 1;
                assert_eq!(
                    (s.snapshots.get(), s.rewinds, s.restores),
                    (n * snapshots, n * rewinds, 0),
                    "{red:?}, vote {bit}"
                );
            }
            assert_eq!(bank.get("TSX_XOR").unwrap().raw_total, 4 * trials as u64);
        }
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
        // The bank indexes its slots by `kind as usize` and merges by
        // walking `GateKind::ALL`, so the two orders must agree.
        for (i, kind) in GateKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        let mut bank = CounterBank::new();
        // Declaration order is not name order: TSX_ASSIGN is declared
        // before TSX_AND, and OR before NAND.
        for (i, kind) in [
            GateKind::TxAssign,
            GateKind::TxAnd,
            GateKind::Or,
            GateKind::Nand,
        ]
        .into_iter()
        .enumerate()
        {
            bank.entry(kind).raw_total = i as u64 + 1;
        }
        let seen: Vec<_> = bank.iter().map(|(n, c)| (n, c.raw_total)).collect();
        assert_eq!(
            seen,
            vec![("NAND", 4), ("OR", 3), ("TSX_AND", 2), ("TSX_ASSIGN", 1)]
        );
        assert_eq!(bank.get("TSX_AND").map(|c| c.raw_total), Some(2));
        assert!(bank.get("AND").is_none(), "never executed");
        assert!(bank.get("BOGUS").is_none(), "no such gate");
    }
}
