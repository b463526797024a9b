//! Latency and noise configuration for the simulated microarchitecture.
//!
//! The weird gates of the paper depend only on *relative* timing relations
//! (DRAM miss ≫ speculative window ≫ a chain of L1 hits), so the absolute
//! values here are chosen to resemble a Skylake-class core while keeping the
//! arithmetic easy to follow in tests.

use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};

/// Cycle counts for the basic operations of the simulated core.
///
/// All latencies are in simulated CPU cycles. The defaults approximate a
/// Skylake-class part: L1 ≈ 4 cycles, L2 ≈ 12, L3 ≈ 42, DRAM ≈ 200.
///
/// # Examples
///
/// ```
/// use uwm_sim::timing::LatencyConfig;
/// let lat = LatencyConfig::default();
/// assert!(lat.dram > lat.l3 && lat.l3 > lat.l2 && lat.l2 > lat.l1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 (data or instruction) hit latency.
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// L3 hit latency.
    pub l3: u64,
    /// DRAM access latency (cache miss all the way down).
    pub dram: u64,
    /// Base cost of executing one simple ALU instruction.
    pub alu: u64,
    /// Cost of an integer multiply when the multiplier is idle.
    pub mul: u64,
    /// Cost of an integer divide.
    pub div: u64,
    /// Cost of `rdtscp` (serializing timestamp read).
    pub rdtscp: u64,
    /// Cost of `clflush`.
    pub clflush: u64,
    /// Pipeline flush penalty paid after a branch misprediction resolves.
    pub mispredict_penalty: u64,
    /// Front-end bubble paid by a jump whose target missed in the BTB.
    pub btb_miss_penalty: u64,
    /// Cost of entering a transaction (`xbegin`).
    pub xbegin: u64,
    /// Cost of committing a transaction (`xend`).
    pub xend: u64,
    /// Cost of rolling back an aborted transaction.
    pub xabort: u64,
    /// Extra cycles the pipeline keeps running past a fault inside a
    /// transaction before the abort squashes it (the *post-fault speculative
    /// window* of §4 of the paper).
    pub tsx_spec_window: u64,
    /// Extra cycles added to a mispredicted branch's speculative window on
    /// top of the condition-resolution latency.
    pub spec_window_slack: u64,
    /// Cost of a VMX-class instruction when the VMX machinery is "warm".
    pub vmx_warm: u64,
    /// Cost of a VMX-class instruction when the VMX machinery is "cold".
    pub vmx_cold: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            l1: 4,
            l2: 12,
            l3: 42,
            dram: 200,
            alu: 1,
            mul: 5,
            div: 25,
            rdtscp: 30,
            clflush: 10,
            mispredict_penalty: 16,
            btb_miss_penalty: 12,
            xbegin: 40,
            xend: 30,
            xabort: 150,
            tsx_spec_window: 120,
            spec_window_slack: 10,
            vmx_warm: 40,
            vmx_cold: 400,
        }
    }
}

/// Probabilistic disturbance model.
///
/// Real μWM executions are disturbed by frequency scaling, interrupts,
/// predictor aliasing with unrelated code, and spurious transaction aborts.
/// The paper's evaluation tables (2, 5–8) show the resulting error rates and
/// heavy latency tails; this model reproduces those *shapes* with a seeded
/// RNG so experiments are repeatable.
///
/// # Examples
///
/// ```
/// use uwm_sim::timing::NoiseConfig;
/// let quiet = NoiseConfig::quiet();
/// assert_eq!(quiet.spike_prob, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseConfig {
    /// Maximum uniform jitter (in cycles) added to every memory access.
    pub jitter: u64,
    /// Probability that a timed operation is hit by an "interrupt spike".
    pub spike_prob: f64,
    /// Range of the interrupt spike, in cycles (inclusive bounds).
    pub spike_range: (u64, u64),
    /// Probability that a direction-predictor lookup is perturbed by
    /// aliasing with unrelated branches (the returned prediction flips).
    pub bp_alias_prob: f64,
    /// Probability that a transaction aborts spuriously (capacity,
    /// interrupt, …) even though the program did nothing wrong.
    pub tsx_spurious_abort_prob: f64,
    /// Relative jitter applied to speculative-window lengths
    /// (`0.1` = ±10 %). Kept small by default: a window stretched past the
    /// DRAM latency lets misses slip through, which real gates almost never
    /// exhibit.
    pub window_jitter: f64,
    /// Probability that a branch-mispredict window collapses (the branch
    /// resolves early, e.g. out of the store buffer). Rare: the paper's
    /// BP/IC gates are 99.998 % accurate (Table 5).
    pub bp_collapse_prob: f64,
    /// Probability that a TSX post-fault window collapses (the abort
    /// machinery wins the race). Much more common than BP collapse: TSX
    /// gates are 92–98 % accurate (Table 8).
    pub tsx_collapse_prob: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            jitter: 3,
            spike_prob: 0.0015,
            spike_range: (5_000, 21_000),
            bp_alias_prob: 0.000_02,
            tsx_spurious_abort_prob: 0.000_15,
            window_jitter: 0.05,
            bp_collapse_prob: 0.000_01,
            tsx_collapse_prob: 0.05,
        }
    }
}

impl NoiseConfig {
    /// A completely noise-free environment. Gates become deterministic;
    /// useful for unit tests of gate *logic*.
    pub fn quiet() -> Self {
        Self {
            jitter: 0,
            spike_prob: 0.0,
            spike_range: (0, 0),
            bp_alias_prob: 0.0,
            tsx_spurious_abort_prob: 0.0,
            window_jitter: 0.0,
            bp_collapse_prob: 0.0,
            tsx_collapse_prob: 0.0,
        }
    }

    /// A noisy shared-machine environment (roughly: a busy sibling
    /// hyperthread). Used by the ablation benches.
    pub fn busy() -> Self {
        Self {
            jitter: 12,
            spike_prob: 0.01,
            spike_range: (5_000, 30_000),
            bp_alias_prob: 0.001,
            tsx_spurious_abort_prob: 0.002,
            window_jitter: 0.15,
            bp_collapse_prob: 0.001,
            tsx_collapse_prob: 0.12,
        }
    }

    /// Linearly interpolate between [`NoiseConfig::quiet`] (`level = 0.0`)
    /// and [`NoiseConfig::busy`] (`level = 1.0`). Levels above `1.0`
    /// extrapolate. Used by the noise-ablation bench.
    pub fn scaled(level: f64) -> Self {
        let q = Self::quiet();
        let b = Self::busy();
        let mix = |a: f64, c: f64| a + (c - a) * level;
        Self {
            jitter: mix(q.jitter as f64, b.jitter as f64).round().max(0.0) as u64,
            spike_prob: mix(q.spike_prob, b.spike_prob).clamp(0.0, 1.0),
            spike_range: b.spike_range,
            bp_alias_prob: mix(q.bp_alias_prob, b.bp_alias_prob).clamp(0.0, 1.0),
            tsx_spurious_abort_prob: mix(q.tsx_spurious_abort_prob, b.tsx_spurious_abort_prob)
                .clamp(0.0, 1.0),
            window_jitter: mix(q.window_jitter, b.window_jitter).max(0.0),
            bp_collapse_prob: mix(q.bp_collapse_prob, b.bp_collapse_prob).clamp(0.0, 1.0),
            tsx_collapse_prob: mix(q.tsx_collapse_prob, b.tsx_collapse_prob).clamp(0.0, 1.0),
        }
    }
}

/// Seeded noise generator owned by a [`crate::machine::Machine`].
///
/// All randomness in the simulator flows through this type so that a machine
/// constructed with [`crate::machine::Machine::with_seed`] replays identically.
#[derive(Debug, Clone)]
pub struct NoiseGen {
    cfg: NoiseConfig,
    rng: StdRng,
}

impl NoiseGen {
    /// Creates a generator from a configuration and RNG seed.
    pub fn new(cfg: NoiseConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The active noise configuration.
    pub fn config(&self) -> &NoiseConfig {
        &self.cfg
    }

    /// Restarts the RNG stream from `seed`, keeping the configuration.
    ///
    /// After this call the generator draws exactly the sequence a fresh
    /// `NoiseGen::new(cfg, seed)` would — the primitive batch evaluation
    /// uses to give every item of a stream its own deterministic noise
    /// without rebuilding the machine.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Jitter added to a single memory access.
    pub fn mem_jitter(&mut self) -> u64 {
        if self.cfg.jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.cfg.jitter)
        }
    }

    /// Occasional large delay modelling an interrupt or SMI landing in the
    /// middle of a timed operation. Returns `0` most of the time.
    pub fn interrupt_spike(&mut self) -> u64 {
        if self.cfg.spike_prob > 0.0 && self.rng.gen_bool(self.cfg.spike_prob) {
            self.rng
                .gen_range(self.cfg.spike_range.0..=self.cfg.spike_range.1)
        } else {
            0
        }
    }

    /// Whether a predictor lookup is corrupted by aliasing.
    pub fn bp_alias(&mut self) -> bool {
        self.cfg.bp_alias_prob > 0.0 && self.rng.gen_bool(self.cfg.bp_alias_prob)
    }

    /// Whether a transaction spuriously aborts.
    pub fn tsx_spurious_abort(&mut self) -> bool {
        self.cfg.tsx_spurious_abort_prob > 0.0
            && self.rng.gen_bool(self.cfg.tsx_spurious_abort_prob)
    }

    /// Jittered length of a branch-mispredict speculative window.
    pub fn bp_window(&mut self, nominal: u64) -> u64 {
        if self.cfg.bp_collapse_prob > 0.0 && self.rng.gen_bool(self.cfg.bp_collapse_prob) {
            return 0;
        }
        self.jitter_window(nominal)
    }

    /// Jittered length of a TSX post-fault speculative window.
    pub fn tsx_window(&mut self, nominal: u64) -> u64 {
        if self.cfg.tsx_collapse_prob > 0.0 && self.rng.gen_bool(self.cfg.tsx_collapse_prob) {
            return 0;
        }
        self.jitter_window(nominal)
    }

    /// Applies symmetric relative jitter to a nominal window length.
    pub fn jitter_window(&mut self, nominal: u64) -> u64 {
        if self.cfg.window_jitter <= 0.0 {
            return nominal;
        }
        let spread = (nominal as f64 * self.cfg.window_jitter).round() as i64;
        if spread == 0 {
            return nominal;
        }
        let delta = self.rng.gen_range(-spread..=spread);
        (nominal as i64 + delta).max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        let lat = LatencyConfig::default();
        assert!(lat.l1 < lat.l2);
        assert!(lat.l2 < lat.l3);
        assert!(lat.l3 < lat.dram);
        // The core gate invariant: a DRAM miss must overflow the TSX window,
        // while several L1 hits must fit.
        assert!(lat.dram > lat.tsx_spec_window);
        assert!(lat.l1 * 8 < lat.tsx_spec_window);
    }

    #[test]
    fn quiet_noise_is_deterministic_zero() {
        let mut gen = NoiseGen::new(NoiseConfig::quiet(), 1);
        for _ in 0..100 {
            assert_eq!(gen.mem_jitter(), 0);
            assert_eq!(gen.interrupt_spike(), 0);
            assert!(!gen.bp_alias());
            assert!(!gen.tsx_spurious_abort());
            assert_eq!(gen.jitter_window(100), 100);
        }
    }

    #[test]
    fn same_seed_replays() {
        let mut a = NoiseGen::new(NoiseConfig::default(), 42);
        let mut b = NoiseGen::new(NoiseConfig::default(), 42);
        for _ in 0..1000 {
            assert_eq!(a.mem_jitter(), b.mem_jitter());
            assert_eq!(a.interrupt_spike(), b.interrupt_spike());
            assert_eq!(a.jitter_window(150), b.jitter_window(150));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = NoiseGen::new(NoiseConfig::default(), 1);
        let mut b = NoiseGen::new(NoiseConfig::default(), 2);
        let va: Vec<u64> = (0..100).map(|_| a.mem_jitter()).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.mem_jitter()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn window_jitter_bounds() {
        let mut gen = NoiseGen::new(
            NoiseConfig {
                window_jitter: 0.5,
                ..NoiseConfig::quiet()
            },
            7,
        );
        for _ in 0..1000 {
            let w = gen.jitter_window(200);
            assert!((100..=300).contains(&w), "window {w} out of ±50 % bounds");
        }
    }

    #[test]
    fn window_collapse_happens() {
        let mut gen = NoiseGen::new(
            NoiseConfig {
                tsx_collapse_prob: 0.5,
                ..NoiseConfig::quiet()
            },
            7,
        );
        let collapsed = (0..1000).filter(|_| gen.tsx_window(200) == 0).count();
        assert!(
            collapsed > 300,
            "expected frequent collapses, got {collapsed}"
        );
        // BP windows use the separate (zero here) collapse probability.
        assert_eq!(gen.bp_window(200), 200);
    }

    #[test]
    fn scaled_interpolates() {
        let zero = NoiseConfig::scaled(0.0);
        assert_eq!(zero.spike_prob, 0.0);
        let one = NoiseConfig::scaled(1.0);
        assert!((one.spike_prob - NoiseConfig::busy().spike_prob).abs() < 1e-12);
        let half = NoiseConfig::scaled(0.5);
        assert!(half.spike_prob > 0.0 && half.spike_prob < one.spike_prob);
    }

    #[test]
    fn spikes_fall_in_range() {
        let mut gen = NoiseGen::new(
            NoiseConfig {
                spike_prob: 1.0,
                spike_range: (10, 20),
                ..NoiseConfig::quiet()
            },
            3,
        );
        for _ in 0..100 {
            let s = gen.interrupt_spike();
            assert!((10..=20).contains(&s));
        }
    }
}
