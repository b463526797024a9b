//! # uwm-bench — the evaluation harness
//!
//! Reusable experiment runners that regenerate every table and figure of
//! the paper's evaluation (§6). Each `src/bin/table*.rs` binary prints one
//! table in the paper's row format; the Criterion benches under `benches/`
//! measure host-side throughput and ablations.
//!
//! | Experiment | Runner | Binary |
//! |---|---|---|
//! | Table 2 (gate perf + accuracy)     | [`gate_performance_sharded`] | `table2` |
//! | Table 3 + Fig 6 (trigger pings)    | [`trigger_distribution`]  | `table3_fig6` |
//! | Table 4 (SHA-1 gate correctness)   | [`sha1_experiment`]       | `table4` |
//! | Table 5 (BP/IC gate accuracy)      | [`gate_performance_sharded`] | `table5` |
//! | Figures 7–8 (timing KDEs)          | [`delay_histogram`]       | `fig7_fig8` |
//! | Tables 6–7 (TSX read delays)       | [`sharded_delays`]        | `table6_table7` |
//! | Table 8 (TSX accuracy + aborts)    | [`gate_performance_sharded`] | `table8` |
//!
//! Every binary accepts `--shards N` (fan hermetic trial batches across
//! `N` OS threads; results are deterministic per seed regardless of `N`)
//! and `--json PATH` (write a machine-readable report). The sharded
//! runners ([`gate_performance_sharded`] and friends) build one
//! machine-free [`SkellySpec`] and instantiate it per batch, so every
//! batch is hermetic: its own machine, its own gate instances, its own
//! seed derived by [`uwm_core::exec::batch_seed`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod json;
pub mod stats;

use std::time::Instant;

use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};

use json::Json;
use stats::Summary;
use uwm_apps::wm_apt::{Payload, WmApt};
use uwm_apps::UwmSha1;
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::gate::GateKind;
use uwm_core::skelly::{CounterBank, GateCounters, Redundancy, Skelly, SkellySpec};
use uwm_crypto::sha1;
use uwm_sim::machine::MachineConfig;

/// Common CLI arguments of the table binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Scale factor for iteration counts (first positional argument;
    /// `1.0` = the paper's sizes, so CI can run `table2 0.01`).
    pub scale: f64,
    /// Shard count for the parallel runners (`--shards N`).
    pub shards: usize,
    /// Destination for a machine-readable report (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
    /// A previously written report to compare against (`--baseline PATH`;
    /// used by `hotpath` to compute speedup ratios).
    pub baseline: Option<std::path::PathBuf>,
    /// Fail (exit 1) if throughput regresses more than this fraction
    /// against the baseline (`--check-regression FRAC`; requires
    /// `--baseline`). The CI perf-smoke job runs with `0.2`.
    pub check_regression: Option<f64>,
}

/// Parses `[scale] [--shards N] [--json PATH] [--baseline PATH]
/// [--check-regression FRAC]` from the process args.
///
/// Prints a usage message to stderr and exits with status 2 on malformed
/// arguments.
pub fn parse_args() -> BenchArgs {
    fn usage(msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: [scale] [--shards N] [--json PATH] [--baseline PATH] \
             [--check-regression FRAC]"
        );
        std::process::exit(2);
    }
    let mut out = BenchArgs {
        scale: 1.0,
        shards: 1,
        json: None,
        baseline: None,
        check_regression: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix("--shards=") {
            out.shards = v
                .parse()
                .unwrap_or_else(|_| usage("--shards takes a positive integer"));
        } else if a == "--shards" {
            let Some(v) = args.next() else {
                usage("--shards takes a value");
            };
            out.shards = v
                .parse()
                .unwrap_or_else(|_| usage("--shards takes a positive integer"));
        } else if let Some(v) = a.strip_prefix("--json=") {
            out.json = Some(v.into());
        } else if a == "--json" {
            let Some(v) = args.next() else {
                usage("--json takes a path");
            };
            out.json = Some(v.into());
        } else if let Some(v) = a.strip_prefix("--baseline=") {
            out.baseline = Some(v.into());
        } else if a == "--baseline" {
            let Some(v) = args.next() else {
                usage("--baseline takes a path");
            };
            out.baseline = Some(v.into());
        } else if let Some(v) = a.strip_prefix("--check-regression=") {
            out.check_regression = Some(
                v.parse()
                    .unwrap_or_else(|_| usage("--check-regression takes a fraction")),
            );
        } else if a == "--check-regression" {
            let Some(v) = args.next() else {
                usage("--check-regression takes a value");
            };
            out.check_regression = Some(
                v.parse()
                    .unwrap_or_else(|_| usage("--check-regression takes a fraction")),
            );
        } else {
            out.scale = a
                .parse()
                .unwrap_or_else(|_| usage(&format!("unrecognized argument {a:?}")));
        }
    }
    out.shards = out.shards.max(1);
    out
}

/// Writes `report` to `args.json` when the flag was given. A write failure
/// is reported on stderr and exits with status 1 (the printed table has
/// already reached stdout at that point).
pub fn maybe_write_json(args: &BenchArgs, report: &Json) {
    if let Some(path) = &args.json {
        if let Err(e) = json::write_file(path, report) {
            eprintln!("error: cannot write json report to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("json report written to {}", path.display());
    }
}

/// Scales an iteration count, keeping at least one.
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Result of a gate accuracy / throughput run.
#[derive(Debug, Clone, Copy)]
pub struct GateRun {
    /// Gate executions performed.
    pub ops: u64,
    /// Executions whose output matched the reference truth.
    pub correct: u64,
    /// Host wall-clock seconds.
    pub seconds: f64,
    /// Simulated machine cycles consumed.
    pub sim_cycles: u64,
    /// Spurious transaction aborts observed (TSX gates only).
    pub spurious_aborts: u64,
}

impl GateRun {
    /// Fraction correct.
    pub fn accuracy(&self) -> f64 {
        if self.ops == 0 {
            1.0
        } else {
            self.correct as f64 / self.ops as f64
        }
    }

    /// Host executions per second.
    pub fn execs_per_sec(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.seconds
        }
    }

    /// Simulated cycles per execution.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.sim_cycles as f64 / self.ops as f64
        }
    }
}

/// Executes the `kind` gate `ops` times with random inputs and reports
/// accuracy + throughput. This is the Table 2 / Table 5 / Table 8
/// measurement core.
pub fn gate_run(sk: &mut Skelly, kind: GateKind, ops: u64, seed: u64) -> GateRun {
    let arity = kind.arity();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0u64;
    let aborts_before = sk.machine().stats().tx_spurious_aborts;
    let cycles_before = sk.machine().cycles();
    let start = Instant::now();
    let mut inputs = vec![false; arity];
    for _ in 0..ops {
        for b in &mut inputs {
            *b = rng.gen();
        }
        let r = sk.execute_timed(kind, &inputs).expect("arity matches");
        if r.bit == kind.truth(&inputs) {
            correct += 1;
        }
    }
    GateRun {
        ops,
        correct,
        seconds: start.elapsed().as_secs_f64(),
        sim_cycles: sk.machine().cycles() - cycles_before,
        spurious_aborts: sk.machine().stats().tx_spurious_aborts - aborts_before,
    }
}

/// [`gate_run`] on a fresh default-noise machine.
pub fn gate_performance(kind: GateKind, ops: u64, seed: u64) -> GateRun {
    let mut sk = Skelly::noisy(seed).expect("skelly builds");
    gate_run(&mut sk, kind, ops, seed ^ 0xBEEF)
}

/// Operations per hermetic batch in the sharded runners. Fixed, so the
/// batch split — and therefore every per-batch seed — depends only on the
/// total operation count, never on the shard count: merged results are
/// identical for any `--shards` value.
pub const GATE_BATCH_OPS: u64 = 4096;

/// Merged result of a sharded gate accuracy / throughput run.
#[derive(Debug, Clone)]
pub struct ShardedGateRun {
    /// Merged counts; `seconds` is the wall-clock of the whole fan-out.
    pub run: GateRun,
    /// Shards the executor used.
    pub shards: usize,
    /// Order statistics over every output-read delay, merged in batch
    /// order.
    pub delays: Summary,
}

impl ShardedGateRun {
    /// The machine-readable report row for this run.
    pub fn report_row(&self, gate: &str) -> Json {
        Json::obj([
            ("gate", Json::Str(gate.to_owned())),
            ("ops", Json::UInt(self.run.ops)),
            ("correct", Json::UInt(self.run.correct)),
            ("accuracy", Json::Num(self.run.accuracy())),
            ("median_delay_cycles", Json::UInt(self.delays.median)),
            ("delay_std_dev", Json::Num(self.delays.std_dev)),
            ("sim_cycles", Json::UInt(self.run.sim_cycles)),
            ("spurious_aborts", Json::UInt(self.run.spurious_aborts)),
            ("wall_seconds", Json::Num(self.run.seconds)),
            ("shards", Json::UInt(self.shards as u64)),
        ])
    }
}

struct GateBatch {
    ops: u64,
    correct: u64,
    sim_cycles: u64,
    spurious_aborts: u64,
    delays: Vec<u64>,
}

/// [`gate_performance`] fanned across `shards` threads: one machine-free
/// [`SkellySpec`] instantiated per hermetic batch of [`GATE_BATCH_OPS`]
/// operations. Merged counts and delay statistics are deterministic per
/// `(kind, ops, seed)` for every shard count.
pub fn gate_performance_sharded(
    kind: GateKind,
    ops: u64,
    seed: u64,
    shards: usize,
) -> ShardedGateRun {
    let spec = SkellySpec::new().expect("spec builds");
    let exec = ShardedExecutor::new(shards);
    let batches = ops.div_ceil(GATE_BATCH_OPS).max(1) as usize;
    let start = Instant::now();
    // Per-shard scratch: the input buffer survives across a worker's
    // batches; its contents are fully overwritten before each use.
    let parts = exec.run_with(batches, Vec::new, |i, inputs: &mut Vec<bool>| {
        let done = i as u64 * GATE_BATCH_OPS;
        let batch_ops = GATE_BATCH_OPS.min(ops - done);
        let mut sk = spec.instantiate(MachineConfig::default(), batch_seed(seed, i));
        let mut rng = StdRng::seed_from_u64(batch_seed(seed ^ 0xBEEF, i));
        inputs.clear();
        inputs.resize(kind.arity(), false);
        let aborts_before = sk.machine().stats().tx_spurious_aborts;
        let cycles_before = sk.machine().cycles();
        let mut correct = 0u64;
        let mut delays = Vec::with_capacity(batch_ops as usize);
        for _ in 0..batch_ops {
            for b in inputs.iter_mut() {
                *b = rng.gen();
            }
            let r = sk.execute_timed(kind, inputs).expect("arity matches");
            if r.bit == kind.truth(inputs) {
                correct += 1;
            }
            delays.push(r.delay);
        }
        GateBatch {
            ops: batch_ops,
            correct,
            sim_cycles: sk.machine().cycles() - cycles_before,
            spurious_aborts: sk.machine().stats().tx_spurious_aborts - aborts_before,
            delays,
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut run = GateRun {
        ops: 0,
        correct: 0,
        seconds,
        sim_cycles: 0,
        spurious_aborts: 0,
    };
    let mut delays = Vec::with_capacity(ops as usize);
    for p in &parts {
        run.ops += p.ops;
        run.correct += p.correct;
        run.sim_cycles += p.sim_cycles;
        run.spurious_aborts += p.spurious_aborts;
        delays.extend_from_slice(&p.delays);
    }
    let delays = if delays.is_empty() {
        Summary::from_samples(&[0])
    } else {
        Summary::from_samples(&delays)
    };
    ShardedGateRun {
        run,
        shards: exec.shards(),
        delays,
    }
}

/// Collects one delay sample per operation from `sample`, fanning
/// hermetic batches across `shards` threads. Each batch gets a fresh
/// skelly (instantiated from one shared spec) and a seeded RNG; results
/// concatenate in batch order, so the full vector is deterministic per
/// seed for every shard count.
pub fn sharded_delays<F>(ops: u64, seed: u64, shards: usize, sample: F) -> Vec<u64>
where
    F: Fn(&mut Skelly, &mut StdRng) -> u64 + Sync,
{
    let spec = SkellySpec::new().expect("spec builds");
    let exec = ShardedExecutor::new(shards);
    let batches = ops.div_ceil(GATE_BATCH_OPS).max(1) as usize;
    exec.run(batches, |i| {
        let done = i as u64 * GATE_BATCH_OPS;
        let n = GATE_BATCH_OPS.min(ops - done);
        let mut sk = spec.instantiate(MachineConfig::default(), batch_seed(seed, i));
        let mut rng = StdRng::seed_from_u64(batch_seed(seed ^ 0xF00D, i));
        (0..n)
            .map(|_| sample(&mut sk, &mut rng))
            .collect::<Vec<u64>>()
    })
    .concat()
}

/// Runs `batches` hermetic skelly workloads across `shards` threads and
/// merges their counter banks in batch order — the determinism-test
/// entry point: merged counters are identical for every shard count.
pub fn sharded_counters<F>(
    batches: usize,
    cfg: MachineConfig,
    seed: u64,
    shards: usize,
    work: F,
) -> CounterBank
where
    F: Fn(&mut Skelly, usize) + Sync,
{
    let spec = SkellySpec::new().expect("spec builds");
    let banks = ShardedExecutor::new(shards).run(batches, |i| {
        let mut sk = spec.instantiate(cfg.clone(), batch_seed(seed, i));
        work(&mut sk, i);
        sk.counters().clone()
    });
    let mut merged = CounterBank::new();
    for bank in &banks {
        merged.merge(bank);
    }
    merged
}

/// Buckets `delays` for the Figure 7–8 "KDE" view: returns
/// `(bucket_start, count)` pairs with the given bucket width.
pub fn delay_histogram(delays: &[u64], bucket: u64) -> Vec<(u64, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &d in delays {
        *map.entry(d / bucket * bucket).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

/// Runs `experiments` arm-and-trigger experiments and returns the number
/// of pings each needed before the payload fired (Table 3 / Figure 6).
/// `cap` bounds each experiment so pathological noise cannot hang it.
pub fn trigger_distribution(experiments: u32, cap: u32, seed: u64) -> Vec<u32> {
    trigger_distribution_sharded(experiments, cap, seed, 1)
}

/// [`trigger_distribution`] with each arm-and-trigger experiment fanned
/// across `shards` threads. Experiments are hermetic by construction
/// (each builds its own machine from `seed + index`), so the counts are
/// identical for every shard count.
pub fn trigger_distribution_sharded(
    experiments: u32,
    cap: u32,
    seed: u64,
    shards: usize,
) -> Vec<u32> {
    ShardedExecutor::new(shards).run(experiments as usize, |e| {
        let (mut apt, trigger) =
            WmApt::new(seed.wrapping_add(e as u64), Payload::ReverseShell).expect("apt builds");
        let mut pings = 0u32;
        loop {
            pings += 1;
            if apt.ping(&trigger).triggered || pings >= cap {
                break;
            }
        }
        pings
    })
}

/// Result of one SHA-1-on-μWM experiment run (Table 4).
#[derive(Debug, Clone)]
pub struct Sha1Experiment {
    /// Digest produced by the weird machine.
    pub digest: [u8; 20],
    /// Whether it matches the architectural reference.
    pub correct: bool,
    /// Host seconds for the hash.
    pub seconds: f64,
    /// Per-gate counters accumulated during the run.
    pub counters: Vec<(&'static str, GateCounters)>,
}

/// Hashes `message` on weird gates with the given redundancy under
/// default noise, and reports per-gate median/vote correctness — the
/// Table 4 experiment.
pub fn sha1_experiment(message: &[u8], red: Redundancy, seed: u64) -> Sha1Experiment {
    sha1_experiment_cfg(MachineConfig::default(), message, red, seed)
}

/// Independent [`sha1_experiment`] runs (seeds `seed..seed+runs`) fanned
/// across `shards` threads, returned in run order.
pub fn sha1_experiments_sharded(
    message: &[u8],
    red: Redundancy,
    seed: u64,
    runs: u32,
    shards: usize,
) -> Vec<Sha1Experiment> {
    ShardedExecutor::new(shards).run(runs as usize, |r| {
        sha1_experiment(message, red, seed.wrapping_add(r as u64))
    })
}

/// [`sha1_experiment`] with an explicit machine configuration.
pub fn sha1_experiment_cfg(
    cfg: MachineConfig,
    message: &[u8],
    red: Redundancy,
    seed: u64,
) -> Sha1Experiment {
    let mut sk = Skelly::new(cfg, seed).expect("skelly builds");
    sk.set_redundancy(red);
    let start = Instant::now();
    let digest = UwmSha1::new(&mut sk).hash(message);
    let seconds = start.elapsed().as_secs_f64();
    Sha1Experiment {
        digest,
        correct: digest == sha1(message),
        seconds,
        counters: sk.counters().iter().map(|(n, c)| (n, *c)).collect(),
    }
}

/// Formats a [`Summary`] like the paper's Min/Q1/Med/Q3/Max/σ rows.
pub fn summary_row(label: &str, s: &Summary) -> String {
    format!(
        "{label:<12} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12.4} {:>12.4}",
        s.min, s.q1, s.median, s.q3, s.max, s.std_dev, s.mean
    )
}

/// Header matching [`summary_row`].
pub fn summary_header(first_col: &str) -> String {
    format!(
        "{first_col:<12} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12} {:>12}",
        "Min", "Q1", "Med", "Q3", "Max", "StdDev", "Mean"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_run_counts_and_times() {
        let mut sk = Skelly::quiet(0).unwrap();
        let r = gate_run(&mut sk, GateKind::TxAnd, 50, 1);
        assert_eq!(r.ops, 50);
        assert_eq!(r.correct, 50, "quiet machine is exact");
        assert!(r.sim_cycles > 0);
        assert!((r.accuracy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn delay_histogram_buckets() {
        let h = delay_histogram(&[1, 2, 3, 100, 101, 250], 50);
        assert_eq!(h, vec![(0, 3), (100, 2), (250, 1)]);
    }

    #[test]
    fn trigger_distribution_quiet_cap() {
        let counts = trigger_distribution(2, 50, 1000);
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|&c| (1..=50).contains(&c)));
    }

    #[test]
    fn scaled_floors_at_one() {
        assert_eq!(scaled(1_000_000, 0.000_000_1), 1);
        assert_eq!(scaled(100, 0.5), 50);
    }

    #[test]
    fn sha1_experiment_small_quick() {
        // One-block message, quiet machine: fast smoke test of the runner.
        let r = sha1_experiment_cfg(MachineConfig::quiet(), b"a", Redundancy::default(), 4);
        assert!(r.correct);
        assert!(r.counters.iter().any(|(n, _)| *n == "NAND"));
    }
}
