//! Records shared by the workloads: simulated counters, the
//! simulated-observable fingerprint, the fixed-prefix summary, timed
//! samples and rates, and host-time layer spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use uwm_core::skelly::CounterBank;
use uwm_sim::machine::MachineStats;

use crate::meter::{nanos, OpTable, OP_NAMES};

/// Simulated work summed over items.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    pub committed_insts: u64,
    pub speculative_insts: u64,
    pub mispredicts: u64,
    pub tx_begun: u64,
    pub tx_aborted: u64,
    pub tx_spurious_aborts: u64,
    /// Raw branch-predictor-family gate activations.
    pub gate_evals_bp: u64,
    /// Raw TSX-family gate activations (circuit gates are TSX gates).
    pub gate_evals_tsx: u64,
}

impl SimCounts {
    pub fn add_stats(&mut self, s: &MachineStats) {
        self.committed_insts += s.committed_insts;
        self.speculative_insts += s.speculative_insts;
        self.mispredicts += s.mispredicts;
        self.tx_begun += s.tx_begun;
        self.tx_aborted += s.tx_aborted;
        self.tx_spurious_aborts += s.tx_spurious_aborts;
    }

    pub fn insts(&self) -> u64 {
        self.committed_insts + self.speculative_insts
    }

    pub fn gate_evals(&self) -> u64 {
        self.gate_evals_bp + self.gate_evals_tsx
    }
}

/// Raw gate activations recorded in a skelly counter bank, split by
/// family: `(branch-predictor family, TSX family)`.
pub fn gate_totals(bank: &CounterBank) -> (u64, u64) {
    let mut bp = 0;
    let mut tsx = 0;
    for (name, c) in bank.iter() {
        if name.starts_with("TSX_") {
            tsx += c.raw_total;
        } else {
            bp += c.raw_total;
        }
    }
    (bp, tsx)
}

/// FNV-1a over 64-bit words: the simulated-observable fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn stats(&mut self, s: &MachineStats) {
        for w in [
            s.committed_insts,
            s.speculative_insts,
            s.mispredicts,
            s.tx_begun,
            s.tx_aborted,
            s.tx_spurious_aborts,
        ] {
            self.word(w);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One timed sample of a phase: a sharded `BatchRunner`/`compress_many`
/// call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub items: u64,
    pub gate_evals: u64,
    pub insts: u64,
    pub wall_ns: u64,
}

/// The host rates of a phase's timed part.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    pub items_per_s: f64,
    pub gate_evals_per_s: f64,
    pub sim_insts_per_s: f64,
}

impl Rates {
    /// Each rate's median over the samples, so one disturbed sample does
    /// not decide it.
    pub fn median_of(samples: &[Sample]) -> Self {
        let rate = |field: fn(&Sample) -> u64| {
            median(
                samples
                    .iter()
                    .map(|s| field(s) as f64 * 1e9 / s.wall_ns.max(1) as f64)
                    .collect(),
            )
        };
        Self {
            items_per_s: rate(|s| s.items),
            gate_evals_per_s: rate(|s| s.gate_evals),
            sim_insts_per_s: rate(|s| s.insts),
        }
    }
}

/// Simulated results over the workload's fixed item prefix. The prefix is
/// the same set of items in every run with the same seed, whatever the
/// host speed, so these values repeat exactly.
#[derive(Debug, Clone, Default)]
pub struct Prefix {
    pub items: u64,
    pub bits_checked: u64,
    pub bits_ok: u64,
    /// Simulated cycles of each item (each ping on `wm_apt_trigger`).
    pub cycles: Vec<u64>,
    /// Pings each experiment needed to fire (`wm_apt_trigger` only).
    pub pings_to_fire: Vec<u64>,
    pub fingerprint: Fingerprint,
}

/// Host time of one layer: calls, total ns, and ns not covered by the
/// child layers it calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
}

/// Layer spans of a traced phase, merged across shards.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub spans: BTreeMap<&'static str, Span>,
    /// Busy time of each shard: its pool's creation to its end.
    pub shard_busy_ns: Vec<u64>,
    /// Wall time of the measured calls times the shards they ran on: the
    /// host time the layers could have used.
    pub shard_wall_ns: u64,
}

impl Layers {
    /// Adds `calls` calls taking `ns`, of which `child_ns` ran in child
    /// layers.
    pub fn add(&mut self, name: &'static str, calls: u64, ns: u64, child_ns: u64) {
        let s = self.spans.entry(name).or_default();
        s.calls += calls;
        s.ns += ns;
        s.self_ns += ns.saturating_sub(child_ns);
    }

    /// Adds one call started at `t0` with `child_ns` spent in children;
    /// returns its duration.
    pub fn time(&mut self, name: &'static str, t0: Instant, child_ns: u64) -> u64 {
        let ns = nanos(t0.elapsed());
        self.add(name, 1, ns, child_ns);
        ns
    }

    /// Adds the substrate calls of a meter table as leaf layers.
    pub fn add_ops(&mut self, ops: &OpTable) {
        for (name, acc) in OP_NAMES.iter().zip(&ops.0) {
            if acc.calls > 0 {
                self.add(name, acc.calls, acc.ns, 0);
            }
        }
    }

    pub fn merge(&mut self, other: &Layers) {
        for (name, s) in &other.spans {
            let e = self.spans.entry(name).or_default();
            e.calls += s.calls;
            e.ns += s.ns;
            e.self_ns += s.self_ns;
        }
        self.shard_busy_ns.extend(&other.shard_busy_ns);
        self.shard_wall_ns += other.shard_wall_ns;
    }

    /// Zeroes every span, keeping the entries (and their allocations).
    pub fn reset(&mut self) {
        self.spans.values_mut().for_each(|s| *s = Span::default());
    }

    pub fn get(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The host time the spans account for: every layer's self time, plus
    /// the shard time spent idle outside the shards' busy spans (round
    /// tails, which `exec.shard_busy_frac` reports).
    pub fn accounted_ns(&self) -> u64 {
        let busy: u64 = self.shard_busy_ns.iter().sum();
        let idle = self.shard_wall_ns.saturating_sub(busy);
        self.spans.values().map(|s| s.self_ns).sum::<u64>() + idle
    }
}

/// What one phase of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Checked items, prefix included.
    pub items: u64,
    /// Items run in the timed part.
    pub timed_items: u64,
    /// Items whose check failed.
    pub failed: u64,
    /// Host seconds spent in the measured calls.
    pub wall_s: f64,
    pub rates: Rates,
    /// Simulated work of the timed items.
    pub sim: SimCounts,
    pub prefix: Prefix,
    /// Layer spans; empty unless the phase was traced.
    pub layers: Layers,
    /// Problems that make the run incorrect (replica divergence, ...).
    pub errors: Vec<String>,
    /// Set-up timings in seconds, sampled across the phase.
    pub setup: Vec<f64>,
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Median of repeated timings of `f`, in seconds: at least
/// `MIN_REPEATS` repeats, more while they fit in `REPEAT_BUDGET`, so short
/// set-up phases are sampled often enough to give a steady median.
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    const MIN_REPEATS: usize = 9;
    const MAX_REPEATS: usize = 1001;
    const REPEAT_BUDGET: Duration = Duration::from_millis(300);
    let start = Instant::now();
    let mut v: Vec<Duration> = Vec::new();
    while v.len() < MIN_REPEATS || (v.len() < MAX_REPEATS && start.elapsed() < REPEAT_BUDGET) {
        let t = Instant::now();
        f();
        v.push(t.elapsed());
    }
    v.sort_unstable();
    v[v.len() / 2].as_secs_f64()
}

/// Times `f` repeatedly for about 10 ms, at least 3 times, and appends
/// the timings in seconds. The workloads take such a burst after every
/// round, so `setup_s` is a median over samples spread across the whole
/// run, not over one moment of it.
pub fn setup_burst(samples: &mut Vec<f64>, mut f: impl FnMut()) {
    const MIN_REPEATS: usize = 3;
    const BUDGET: Duration = Duration::from_millis(10);
    let start = Instant::now();
    for n in 0.. {
        if n >= MIN_REPEATS && start.elapsed() >= BUDGET {
            break;
        }
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
}

/// A 64-bit value drawn from `(seed, stream, index)`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    uwm_rng::splitmix64(
        seed ^ uwm_rng::splitmix64(stream ^ uwm_rng::splitmix64(index.wrapping_add(1))),
    )
}

/// Bits equal between two words, over the low `width` bits.
pub fn equal_bits(a: u64, b: u64, width: u32) -> u64 {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    u64::from(width - ((a ^ b) & mask).count_ones())
}
