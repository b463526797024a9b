//! Interpreter hot-path throughput: the tracked perf baseline.
//!
//! Measures host-side gate-evals/sec and committed-insts/sec for the
//! workloads that exercise every layer of the hot path:
//!
//! - `bp_and` — the §3.2 branch-predictor AND gate (mispredicted branch,
//!   speculative window replay)
//! - `tsx_xor` — the §4 TSX XOR gate (transaction + abort rollback)
//! - `adder32` — a 32-bit skelly ripple-carry adder (composed weird gates,
//!   the SHA-1 building block)
//! - `adder32_serial` — the same adder as a circuit compiled once, then
//!   bound to a fresh machine for every operand pair (the batch engine's
//!   serial comparator)
//! - `adder32_batch` — the adder streamed through [`BatchRunner`]: pooled
//!   per-shard machines, warm-state snapshot/restore between items
//! - `sha1_block` — one SHA-1 compression per item through the pooled
//!   [`Sha1Batch`] runner
//!
//! Usage: `hotpath [scale] [--shards N] [--json PATH] [--baseline PATH]
//! [--check-regression FRAC]`
//!
//! With `--baseline PATH` the report embeds a previously written report
//! and per-workload speedup ratios, so a before/after pair measured by
//! the same binary documents an optimization (`BENCH_hotpath.json` at the
//! repo root is maintained this way). With `--check-regression FRAC` the
//! run exits non-zero when throughput regresses more than `FRAC` against
//! the baseline: every workload's timed samples alternate one by one
//! with equally long samples of a `bp_and` anchor, and its rate is
//! normalized by the anchor's pair by pair (the median over pairs), so
//! the comparison cancels host speed (CI runners and dev machines differ)
//! and drift during the run. The pooled workloads' anchor runs on as many
//! threads as they have shards. The ratio of the anchored
//! `adder32_batch` and `adder32_serial` rates is checked the same way.
//! The baseline must be a report written by this version.

use uwm_apps::{Sha1Batch, UwmSha1};
use uwm_bench::harness::{bench_against, Paired};
use uwm_bench::json::Json;
use uwm_bench::{gate_performance_sharded, maybe_write_json, parse_args, scaled};
use uwm_core::batch::{run_pooled, BatchRunner};
use uwm_core::circuit::{adder32_inputs, adder32_spec, CircuitSpec};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::gate::GateKind;
use uwm_core::layout::Layout;
use uwm_core::skelly::Skelly;
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_crypto::sha1::H0;
use uwm_sim::machine::{Machine, MachineConfig};

/// Input combinations cycled through the two-input gate workloads.
const INPUTS2: [[bool; 2]; 4] = [[false, false], [false, true], [true, false], [true, true]];

/// Operand pairs cycled through the adder workload.
const PAIRS: [(u32, u32); 4] = [
    (0x0123_4567, 0x89AB_CDEF),
    (0xFFFF_FFFF, 0x0000_0001),
    (0xDEAD_BEEF, 0x1234_5678),
    (0x0F0F_0F0F, 0xF0F0_F0F0),
];

/// One measured workload row.
struct Workload {
    name: &'static str,
    median_ns_per_op: f64,
    min_ns_per_op: f64,
    max_ns_per_op: f64,
    /// Weird-gate executions per benchmarked operation (1 for single-gate
    /// workloads, ~hundreds for the adder).
    gate_evals_per_op: f64,
    committed_insts_per_op: f64,
    /// `bp_and` rate of the anchor samples interleaved with this
    /// workload's.
    anchor_evals_per_sec: f64,
    /// Gate evals per `bp_and` eval: the median over interleaved sample
    /// pairs, the host-independent rate the regression check compares.
    evals_per_anchor_eval: f64,
}

impl Workload {
    /// A row from a [`bench_against`] measurement, against an anchor of
    /// `anchor_evals` evals per call, whose iterations are `ops_per_iter`
    /// ops each, and its per-op counts.
    fn new(
        name: &'static str,
        (p, anchor_evals): (Paired, f64),
        ops_per_iter: f64,
        gate_evals_per_op: f64,
        committed_insts_per_op: f64,
    ) -> Self {
        Self {
            name,
            median_ns_per_op: p.work.median_ns / ops_per_iter,
            min_ns_per_op: p.work.min_ns / ops_per_iter,
            max_ns_per_op: p.work.max_ns / ops_per_iter,
            gate_evals_per_op,
            committed_insts_per_op,
            anchor_evals_per_sec: anchor_evals * 1e9 / p.anchor.median_ns,
            evals_per_anchor_eval: gate_evals_per_op * ops_per_iter / (p.relative * anchor_evals),
        }
    }

    fn gate_evals_per_sec(&self) -> f64 {
        self.gate_evals_per_op * 1e9 / self.median_ns_per_op
    }

    fn insts_per_sec(&self) -> f64 {
        self.committed_insts_per_op * 1e9 / self.median_ns_per_op
    }

    fn report_row(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_owned())),
            ("median_ns_per_op", Json::Num(self.median_ns_per_op)),
            ("min_ns_per_op", Json::Num(self.min_ns_per_op)),
            ("max_ns_per_op", Json::Num(self.max_ns_per_op)),
            ("gate_evals_per_op", Json::Num(self.gate_evals_per_op)),
            ("gate_evals_per_sec", Json::Num(self.gate_evals_per_sec())),
            (
                "committed_insts_per_op",
                Json::Num(self.committed_insts_per_op),
            ),
            ("committed_insts_per_sec", Json::Num(self.insts_per_sec())),
            ("anchor_evals_per_sec", Json::Num(self.anchor_evals_per_sec)),
            (
                "evals_per_anchor_eval",
                Json::Num(self.evals_per_anchor_eval),
            ),
        ])
    }
}

/// Measures one of the single-gate workloads on a fresh default-noise
/// skelly.
fn gate_workload(
    name: &'static str,
    kind: GateKind,
    seed: u64,
    count_ops: u64,
    anchor: &mut Anchor,
) -> Workload {
    let mut sk = Skelly::noisy(seed).expect("skelly builds");

    // Counted pass: committed instructions per gate evaluation.
    let before = sk.machine().stats().committed_insts;
    for i in 0..count_ops {
        let inputs = &INPUTS2[i as usize % INPUTS2.len()];
        sk.execute_timed(kind, inputs).expect("arity matches");
    }
    let insts_per_op = (sk.machine().stats().committed_insts - before) as f64 / count_ops as f64;

    // Timed pass.
    let mut i = 0usize;
    let op = || {
        let inputs = &INPUTS2[i % INPUTS2.len()];
        i += 1;
        sk.execute_timed(kind, inputs).expect("arity matches");
    };
    let p = anchor.time(&format!("hotpath/{name}"), op);
    Workload::new(name, p, 1.0, 1.0, insts_per_op)
}

/// Measures the 32-bit skelly adder (one op = one `add32`, which executes
/// a chain of weird gates per bit).
fn adder_workload(seed: u64, count_ops: u64, anchor: &mut Anchor) -> Workload {
    let mut sk = Skelly::noisy(seed).expect("skelly builds");
    let raw_total = |sk: &Skelly| -> u64 { sk.counters().iter().map(|(_, c)| c.raw_total).sum() };

    // Counted pass: gate evaluations and committed instructions per add.
    let gates_before = raw_total(&sk);
    let insts_before = sk.machine().stats().committed_insts;
    for i in 0..count_ops {
        let (a, b) = PAIRS[i as usize % PAIRS.len()];
        sk.add32(a, b);
    }
    let gates_per_op = (raw_total(&sk) - gates_before) as f64 / count_ops as f64;
    let insts_per_op =
        (sk.machine().stats().committed_insts - insts_before) as f64 / count_ops as f64;

    // Timed pass.
    let mut i = 0usize;
    let op = || {
        let (a, b) = PAIRS[i % PAIRS.len()];
        i += 1;
        sk.add32(a, b);
    };
    let p = anchor.time("hotpath/adder32", op);
    Workload::new("adder32", p, 1.0, gates_per_op, insts_per_op)
}

/// The 32-bit ripple-carry adder as a compiled circuit spec.
fn adder_circuit() -> CircuitSpec {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    adder32_spec(&mut lay).expect("adder circuit builds")
}

/// Measures the serial circuit path — the batch engine's comparator: the
/// circuit is compiled once, and every operand pair pays a fresh
/// default-noise machine, a [`CircuitPlan::instantiate`] (one program
/// install, code warming, threshold calibration) and one run.
///
/// [`CircuitPlan::instantiate`]: uwm_core::circuit::CircuitPlan::instantiate
fn adder32_serial_workload(
    spec: &CircuitSpec,
    seed: u64,
    count_ops: u64,
    anchor: &mut Anchor,
) -> Workload {
    let plan = spec.compile();
    let gate_evals_per_op = plan.gate_count() as f64;
    let serial_op = |i: usize| -> u64 {
        let mut m = Machine::new(MachineConfig::default(), batch_seed(seed, i));
        let c = plan.instantiate(&mut m);
        let (a, b) = PAIRS[i % PAIRS.len()];
        c.run(&mut m, &adder32_inputs(a, b)).expect("arity matches");
        m.stats().committed_insts
    };

    // Counted pass: each op starts from a fresh machine, so its final
    // committed-instruction count is the per-op cost (binding included).
    let insts: u64 = (0..count_ops as usize).map(serial_op).sum();
    let insts_per_op = insts as f64 / count_ops as f64;

    // Timed pass.
    let mut i = 0usize;
    let op = || {
        serial_op(i);
        i += 1;
    };
    let p = anchor.time("hotpath/adder32_serial", op);
    Workload::new("adder32_serial", p, 1.0, gate_evals_per_op, insts_per_op)
}

/// Measures the batch engine on the same circuit: one warmed machine per
/// shard, snapshot/restore between items, `items` operand pairs streamed
/// per timed run (pool setup is inside the measurement, amortized over
/// the stream like production use).
fn adder32_batch_workload(
    spec: &CircuitSpec,
    seed: u64,
    shards: usize,
    items: u64,
    anchor: &mut Anchor,
) -> Workload {
    let plan = spec.compile();
    let gate_evals_per_op = plan.gate_count() as f64;
    let inputs: Vec<Vec<bool>> = (0..items as usize)
        .map(|i| {
            let (a, b) = PAIRS[i % PAIRS.len()];
            adder32_inputs(a, b)
        })
        .collect();
    let factory = || Machine::new(MachineConfig::default(), seed);

    // Counted pass: the pooled loop on one shard; an item's cost is the
    // committed-instruction delta around its run.
    let counted = inputs.len().min(8);
    let insts: u64 = run_pooled(
        &ShardedExecutor::new(1),
        counted,
        seed,
        || {
            let mut m = factory();
            let c = plan.instantiate(&mut m);
            (m, c)
        },
        |(m, _)| m,
        |i, (m, c)| {
            let before = m.stats().committed_insts;
            c.run(m, &inputs[i]).expect("arity matches");
            m.stats().committed_insts - before
        },
    )
    .into_iter()
    .sum();
    let insts_per_op = insts as f64 / counted as f64;

    // Timed pass: the whole stream is one measured unit.
    let runner = BatchRunner::new(plan, ShardedExecutor::new(shards), seed);
    let op = || {
        runner.run(factory, &inputs).expect("arity matches");
    };
    let p = anchor.time("hotpath/adder32_batch", op);
    let n = inputs.len() as f64;
    Workload::new("adder32_batch", p, n, gate_evals_per_op, insts_per_op)
}

/// Measures pooled SHA-1 compression: `blocks` single-block items
/// streamed through [`Sha1Batch`] across `shards` pooled machines.
fn sha1_block_workload(seed: u64, shards: usize, blocks: u64, anchor: &mut Anchor) -> Workload {
    // Counted pass: one compression on a dedicated skelly gives gate
    // evaluations and committed instructions per block.
    let mut sk = Skelly::noisy(seed).expect("skelly builds");
    let raw_total = |sk: &Skelly| -> u64 { sk.counters().iter().map(|(_, c)| c.raw_total).sum() };
    let block0: [u8; 64] = core::array::from_fn(|i| i as u8);
    let gates_before = raw_total(&sk);
    let insts_before = sk.machine().stats().committed_insts;
    UwmSha1::new(&mut sk).compress(H0, &block0);
    let gate_evals_per_op = (raw_total(&sk) - gates_before) as f64;
    let insts_per_op = (sk.machine().stats().committed_insts - insts_before) as f64;

    // Timed pass.
    let batch = Sha1Batch::new(MachineConfig::default(), ShardedExecutor::new(shards), seed)
        .expect("sha1 batch builds");
    let items: Vec<[u8; 64]> = (0..blocks)
        .map(|i| core::array::from_fn(|j| (i as u8).wrapping_mul(31) ^ j as u8))
        .collect();
    let op = || {
        batch.compress_many(&items);
    };
    let p = anchor.time("hotpath/sha1_block", op);
    let n = items.len() as f64;
    Workload::new("sha1_block", p, n, gate_evals_per_op, insts_per_op)
}

/// `bp_and` evals per shard per call of a sharded [`Anchor`].
const SHARD_ANCHOR_EVALS: usize = 1024;

/// The `bp_and` anchor a workload is timed against: `call` performs
/// `evals` AND gate evaluations.
struct Anchor {
    call: Box<dyn FnMut()>,
    evals: f64,
}

impl Anchor {
    /// One eval per call: the anchor for single-threaded workloads.
    fn single(seed: u64) -> Self {
        Self {
            call: Box::new(bp_and(seed)),
            evals: 1.0,
        }
    }

    /// [`SHARD_ANCHOR_EVALS`] evals on each of `shards` threads at once:
    /// the anchor for workloads spread over that many shards, so a host
    /// core that is busy elsewhere slows the anchor as it slows them.
    fn sharded(seed: u64, shards: usize) -> Self {
        let mut each: Vec<_> = (0..shards).map(|i| bp_and(seed + i as u64)).collect();
        let call = move || {
            std::thread::scope(|s| {
                for f in &mut each {
                    s.spawn(move || (0..SHARD_ANCHOR_EVALS).for_each(|_| f()));
                }
            })
        };
        Self {
            call: Box::new(call),
            evals: (shards * SHARD_ANCHOR_EVALS) as f64,
        }
    }

    /// [`bench_against`] with this anchor, and its evals per call.
    fn time(&mut self, label: &str, op: impl FnMut()) -> (Paired, f64) {
        (bench_against(label, op, &mut self.call), self.evals)
    }
}

/// One AND gate evaluation per call, on a default-noise skelly of its
/// own.
fn bp_and(seed: u64) -> impl FnMut() + Send {
    let mut sk = Skelly::noisy(seed).expect("skelly builds");
    let mut i = 0usize;
    move || {
        let inputs = &INPUTS2[i % INPUTS2.len()];
        i += 1;
        sk.execute_timed(GateKind::And, inputs)
            .expect("arity matches");
    }
}

/// Pulls `field` of workload `name` out of a parsed report.
fn baseline_field(doc: &Json, name: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))?
        .get(field)?
        .as_f64()
}

/// Pulls `gate_evals_per_sec` for `name` out of a parsed report.
fn baseline_rate(doc: &Json, name: &str) -> Option<f64> {
    baseline_field(doc, name, "gate_evals_per_sec")
}

fn main() {
    let args = parse_args();
    let seed = 0xCAFE;

    if args.check_regression.is_some() && args.baseline.is_none() {
        eprintln!("error: --check-regression requires --baseline");
        std::process::exit(2);
    }

    println!(
        "hotpath: interpreter hot-path throughput (scale {})",
        args.scale
    );
    println!();

    let circuit = adder_circuit();
    let mut anchor = Anchor::single(seed);
    let mut sharded_anchor = Anchor::sharded(seed, args.shards);
    let gate_ops = scaled(256, args.scale);
    let workloads = [
        gate_workload("bp_and", GateKind::And, seed, gate_ops, &mut anchor),
        gate_workload("tsx_xor", GateKind::TxXor, seed + 1, gate_ops, &mut anchor),
        adder_workload(seed + 2, scaled(8, args.scale), &mut anchor),
        adder32_serial_workload(&circuit, seed + 4, scaled(4, args.scale), &mut anchor),
        adder32_batch_workload(
            &circuit,
            seed + 5,
            args.shards,
            scaled(256, args.scale),
            &mut sharded_anchor,
        ),
        sha1_block_workload(
            seed + 6,
            args.shards,
            scaled(16, args.scale),
            &mut sharded_anchor,
        ),
    ];
    let workload = |name: &str| -> &Workload {
        workloads
            .iter()
            .find(|w| w.name == name)
            .expect("workload exists")
    };
    let rate_of = |name: &str| workload(name).gate_evals_per_sec();
    let batch_vs_serial = rate_of("adder32_batch") / rate_of("adder32_serial");
    // The same ratio with each side in units of its own anchor (a sharded
    // one for the batch): host drift between the two measurements and host
    // cores busy elsewhere cancel, leaving the batch engine's gain per
    // thread. This is the ratio the regression check compares.
    let anchored_batch_vs_serial = workload("adder32_batch").evals_per_anchor_eval
        / workload("adder32_serial").evals_per_anchor_eval;

    // A sharded AND run exercises the per-shard scratch reuse path.
    let sharded_ops = scaled(16 * uwm_bench::GATE_BATCH_OPS, args.scale);
    let sharded = gate_performance_sharded(GateKind::And, sharded_ops, seed + 3, args.shards);

    println!();
    println!(
        "{:<10} {:>16} {:>20} {:>22}",
        "workload", "ns/op", "gate-evals/sec", "committed-insts/sec"
    );
    for w in &workloads {
        println!(
            "{:<10} {:>16.0} {:>20.0} {:>22.0}",
            w.name,
            w.median_ns_per_op,
            w.gate_evals_per_sec(),
            w.insts_per_sec()
        );
    }
    println!(
        "{:<10} {:>16} {:>20.0} {:>22} ({} shards)",
        "sharded",
        "-",
        sharded.run.execs_per_sec(),
        "-",
        sharded.shards
    );
    println!();
    println!(
        "batch engine: adder32_batch vs adder32_serial: {batch_vs_serial:.2}x \
         gate-evals/sec at {} shard(s), {anchored_batch_vs_serial:.2}x anchored",
        args.shards
    );

    let mut report = vec![
        ("bench", Json::Str("hotpath".to_owned())),
        ("scale", Json::Num(args.scale)),
        ("shards", Json::UInt(args.shards as u64)),
        (
            "workloads",
            Json::Arr(workloads.iter().map(Workload::report_row).collect()),
        ),
        (
            "sharded",
            Json::obj([
                ("gate", Json::Str("AND".to_owned())),
                ("ops", Json::UInt(sharded.run.ops)),
                ("shards", Json::UInt(sharded.shards as u64)),
                ("evals_per_sec", Json::Num(sharded.run.execs_per_sec())),
            ]),
        ),
        (
            "batch",
            Json::obj([
                ("shards", Json::UInt(args.shards as u64)),
                (
                    "adder32_serial_evals_per_sec",
                    Json::Num(rate_of("adder32_serial")),
                ),
                (
                    "adder32_batch_evals_per_sec",
                    Json::Num(rate_of("adder32_batch")),
                ),
                ("batch_vs_serial", Json::Num(batch_vs_serial)),
                (
                    "anchored_batch_vs_serial",
                    Json::Num(anchored_batch_vs_serial),
                ),
            ]),
        ),
    ];

    let mut regressions: Vec<String> = Vec::new();
    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {}: {e}", path.display());
            std::process::exit(1);
        });
        let mut doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: cannot parse baseline {}: {e}", path.display());
            std::process::exit(1);
        });
        println!();
        let mut speedups = Vec::new();
        for w in &workloads {
            let Some(base) = baseline_rate(&doc, w.name) else {
                eprintln!("warning: baseline has no workload {:?}", w.name);
                continue;
            };
            let ratio = w.gate_evals_per_sec() / base;
            println!("{:<10} speedup vs baseline: {ratio:.2}x", w.name);
            speedups.push((w.name, Json::Num(ratio)));
        }
        if let Some(min) = speedups
            .iter()
            .filter_map(|(_, j)| j.as_f64())
            .min_by(f64::total_cmp)
        {
            println!("{:<10} speedup vs baseline: {min:.2}x", "min");
            speedups.push(("min", Json::Num(min)));
        }
        speedups.push(("batch_vs_serial", Json::Num(batch_vs_serial)));

        if let Some(frac) = args.check_regression {
            for w in &workloads {
                if w.name == "bp_and" {
                    continue;
                }
                let Some(base) = baseline_field(&doc, w.name, "evals_per_anchor_eval") else {
                    regressions.push(format!(
                        "baseline has no anchored rate for {}: regenerate it",
                        w.name
                    ));
                    continue;
                };
                let rel = w.evals_per_anchor_eval / base;
                if rel < 1.0 - frac {
                    regressions.push(format!(
                        "{}: {rel:.2}x of baseline (bp_and-normalized), \
                         below the {:.2} floor",
                        w.name,
                        1.0 - frac
                    ));
                }
            }
            match doc
                .get("batch")
                .and_then(|b| b.get("anchored_batch_vs_serial"))
                .and_then(Json::as_f64)
            {
                Some(base) if anchored_batch_vs_serial < base * (1.0 - frac) => {
                    regressions.push(format!(
                        "anchored_batch_vs_serial: {anchored_batch_vs_serial:.2}x, below {:.2} \
                         (baseline {base:.2}x at tolerance {frac})",
                        base * (1.0 - frac)
                    ));
                }
                Some(_) => {}
                None => regressions
                    .push("baseline has no anchored_batch_vs_serial: regenerate it".to_owned()),
            }
        }

        report.push(("speedup", Json::obj(speedups)));
        // Embed only the baseline's own measurements: drop its nested
        // baseline so the committed report doesn't grow without bound.
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "baseline");
        }
        report.push(("baseline", doc));
    }

    maybe_write_json(
        &args,
        &Json::Obj(report.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
    );

    if let Some(frac) = args.check_regression {
        if regressions.is_empty() {
            println!("regression check passed (tolerance {frac})");
        } else {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            std::process::exit(1);
        }
    }
}
