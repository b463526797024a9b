//! The repository benchmark: one checked workload per run, end-to-end
//! metrics untraced, per-layer metrics from a separate traced phase.
//!
//! Usage:
//! `perfbench --workload <adder32_batch|sha1_block|wm_apt_trigger> --seed N --seconds S --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! JSON report with every layer span, the fingerprints and the checks.
//! See `README.md` for the metrics and what each layer moves.

mod adder;
mod common;
mod meter;
mod sha1;
mod wm_apt;

use std::process::ExitCode;

use uwm_apps::sha1::Sha1Batch;
use uwm_core::exec::ShardedExecutor;
use uwm_core::skelly::SkellySpec;
use uwm_sim::machine::MachineConfig;

use common::Run;

const USAGE: &str = "usage: perfbench --workload <adder32_batch|sha1_block|wm_apt_trigger> \
                     --seed N --seconds S --trace <0|1>";

/// A seed kept out of tuning: a later speed-up claim must also hold on it.
const HELD_OUT_SEED: u64 = 0x7e57_5eed;

/// Share of the traced phase's shard time that the layer self-times and
/// idle shard time may leave unaccounted (executor hand-offs, untimed
/// glue).
const ACCOUNTING_TOLERANCE: f64 = 0.1;

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [(&str, &str); 7] = [
    ("items_per_s", "1/s"),
    ("gate_evals_per_s", "1/s"),
    ("sim_insts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("output_accuracy", "ratio"),
    ("sim_cycles_per_item", "cycles"),
];

/// Layers reported per item (`.calls`) and as a share of shard time
/// (`.self_share`).
const LAYERS: [&str; 16] = [
    "sim.install",
    "sim.warm_code_range",
    "sim.run_at",
    "sim.flush_addr",
    "sim.timed_read",
    "sim.snapshot",
    "sim.restore",
    "sim.restore_keeping_clock",
    "sim.reseed",
    "core.instantiate",
    "core.skelly_instantiate",
    "core.circuit_run",
    "core.vote",
    "apps.wm_apt_new",
    "apps.wm_apt_ping",
    "apps.sha1_compress",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Adder32Batch,
    Sha1Block,
    WmAptTrigger,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "adder32_batch" => Some(Self::Adder32Batch),
            "sha1_block" => Some(Self::Sha1Block),
            "wm_apt_trigger" => Some(Self::WmAptTrigger),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Adder32Batch => "adder32_batch",
            Self::Sha1Block => "sha1_block",
            Self::WmAptTrigger => "wm_apt_trigger",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=3600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything one invocation measured.
struct Outcome {
    /// The untraced phase, first in the process: end-to-end metrics come
    /// from it.
    plain: Run,
    /// `--trace 1` only: the traced phase, the untraced phase again, and
    /// the prefix on one shard.
    traced: Option<Traced>,
    /// Median `CircuitSpec::compile` time (`adder32_batch`).
    compile_s: Option<f64>,
}

struct Traced {
    traced: Run,
    /// The untraced phase run after the traced one. Its process state
    /// (allocator arenas, caches) matches the traced phase's, so the
    /// tracing overhead is measured against it rather than against
    /// `plain`, which starts from a fresh process.
    again: Run,
    single: Run,
}

fn measure(args: &Args, shards: usize) -> Outcome {
    let seed = args.seed;
    match args.workload {
        Workload::Adder32Batch => {
            let (plan, compile_s) = adder::setup();
            let phase = |sh, traced, secs| adder::phase(&plan, seed, sh, traced, secs);
            phases(args, shards, Some(compile_s), phase)
        }
        Workload::Sha1Block => {
            let batch = sha1::setup(seed, shards);
            let one = Sha1Batch::new(MachineConfig::quiet(), ShardedExecutor::new(1), seed)
                .expect("the skelly spec fits its layout");
            let spec = SkellySpec::new().expect("the skelly spec fits its layout");
            let phase = |sh, traced: bool, secs| {
                let batch = if sh == 1 { &one } else { &batch };
                sha1::phase((!traced).then_some(batch), &spec, seed, sh, secs)
            };
            phases(args, shards, None, phase)
        }
        Workload::WmAptTrigger => {
            fix_heap();
            let phase = |sh, traced, secs| wm_apt::phase(seed, sh, traced, secs);
            phases(args, shards, None, phase)
        }
    }
}

/// Runs the untraced phase and, for `--trace 1`, the traced one, the
/// untraced one again and the prefix on one shard.
fn phases(
    args: &Args,
    shards: usize,
    compile_s: Option<f64>,
    phase: impl Fn(usize, bool, f64) -> Run,
) -> Outcome {
    let secs = args.seconds as f64;
    let plain = phase(shards, false, secs);
    let traced = args.trace.then(|| Traced {
        traced: phase(shards, true, secs),
        again: phase(shards, false, secs),
        single: phase(1, false, 0.0),
    });
    Outcome {
        plain,
        traced,
        compile_s,
    }
}

/// Share of the traced phase's shard time that its layer self-times and
/// idle shard time cover.
fn accounted(t: &Run) -> f64 {
    t.layers.accounted_ns() as f64 / t.layers.shard_wall_ns.max(1) as f64
}

/// Fingerprint, replica and accounting checks of a traced invocation.
fn checks(o: &Outcome) -> Vec<(String, bool)> {
    let Some(t) = &o.traced else {
        return Vec::new();
    };
    let fp = o.plain.prefix.fingerprint.value();
    let mut out = vec![
        (
            "traced prefix fingerprint equals untraced".to_owned(),
            t.traced.prefix.fingerprint.value() == fp,
        ),
        (
            "repeated untraced prefix fingerprint equals the first".to_owned(),
            t.again.prefix.fingerprint.value() == fp,
        ),
        (
            "1-shard prefix fingerprint equals multi-shard".to_owned(),
            t.single.prefix.fingerprint.value() == fp,
        ),
    ];
    out.push((
        format!(
            "layer self-times and idle time cover at least {}% of shard time",
            (1.0 - ACCOUNTING_TOLERANCE) * 100.0
        ),
        accounted(&t.traced) >= 1.0 - ACCOUNTING_TOLERANCE,
    ));
    if !o.plain.prefix.pings_to_fire.is_empty() {
        out.push((
            "voter replica pings-to-fire equal WmApt::ping's".to_owned(),
            t.traced.prefix.pings_to_fire == o.plain.prefix.pings_to_fire,
        ));
    }
    out
}

fn per_item(v: u64, items: u64) -> f64 {
    v as f64 / items.max(1) as f64
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(untraced: &Run, t: &Run) -> Vec<(String, &'static str, f64)> {
    let l = &t.layers;
    let wall = l.shard_wall_ns.max(1) as f64;
    let n = t.timed_items;
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    for name in LAYERS {
        let s = l.get(name);
        m.push((format!("{name}.calls"), "count", per_item(s.calls, n)));
        m.push((
            format!("{name}.self_share"),
            "frac",
            s.self_ns as f64 / wall,
        ));
    }
    let gate_ns = ["core.circuit_run", "apps.sha1_compress", "core.vote"]
        .iter()
        .map(|n| l.get(n).ns)
        .sum::<u64>();
    m.push((
        "core.ns_per_gate_eval".into(),
        "ns",
        per_item(gate_ns, t.sim.gate_evals()),
    ));
    let busy: u64 = l.shard_busy_ns.iter().sum();
    m.push(("exec.shard_busy_frac".into(), "frac", busy as f64 / wall));
    m.push(("trace.accounted_frac".into(), "frac", accounted(t)));
    m.push((
        "trace.overhead_frac".into(),
        "frac",
        untraced.rates.items_per_s / t.rates.items_per_s - 1.0,
    ));
    let s = &t.sim;
    m.push((
        "sim.useful_frac".into(),
        "frac",
        per_item(s.committed_insts, s.insts()),
    ));
    for (name, v) in [
        ("sim.committed_insts", s.committed_insts),
        ("sim.speculative_insts", s.speculative_insts),
        ("sim.mispredicts", s.mispredicts),
        ("sim.tx_begun", s.tx_begun),
        ("sim.tx_aborted", s.tx_aborted),
        ("sim.tx_spurious_aborts", s.tx_spurious_aborts),
        ("core.gate_evals.bp", s.gate_evals_bp),
        ("core.gate_evals.tsx", s.gate_evals_tsx),
    ] {
        m.push((name.into(), "count", per_item(v, n)));
    }
    m
}

/// Turns off glibc's heap trimming and fixes its mmap threshold, for
/// `wm_apt_trigger`.
///
/// The `wm_apt` voter clones the whole machine for every decoded bit. By
/// default glibc hands the freed top of a heap back to the kernel once it
/// passes a threshold that moves with the allocation history, and the next
/// clone faults the pages in again; whether that happens depends on where
/// unrelated blocks sit, and it moved ping time and `WmApt::new` time by a
/// quarter to a half from run to run. With trimming off, freed pages are
/// reused. The other workloads keep the defaults: they do not churn whole
/// machines, and without trimming their peak RSS varied more.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_heap() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before the workload starts any thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_heap() {}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = nproc.min(2);
    let o = measure(&args, shards);
    let rss = match peak_rss_mib() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let p = &o.plain;
    let e2e = [
        p.rates.items_per_s,
        p.rates.gate_evals_per_s,
        p.rates.sim_insts_per_s,
        common::median(p.setup.clone()),
        rss,
        per_item(p.prefix.bits_ok, p.prefix.bits_checked),
        common::median(p.prefix.cycles.iter().map(|&c| c as f64).collect()),
    ];
    let checks = checks(&o);
    let mut runs = vec![p];
    if let Some(t) = &o.traced {
        runs.extend([&t.traced, &t.again, &t.single]);
    }
    let attempted: u64 = runs.iter().map(|r| r.items).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let errors: Vec<&String> = runs.iter().flat_map(|r| &r.errors).collect();
    let correct = failed == 0 && errors.is_empty() && checks.iter().all(|c| c.1);

    // Human-readable summary.
    println!(
        "perfbench {} seed={} seconds={} trace={} shards={shards} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("  {name:<22} {v:>16.4} {unit}");
    }
    let mut pings = p.prefix.pings_to_fire.clone();
    pings.sort_unstable();
    let pings_p50 = pings.get(pings.len() / 2).copied();
    if let Some(v) = pings_p50 {
        println!("  {:<22} {v:>16} pings", "pings_per_fire_p50");
    }
    for (c, ok) in &checks {
        println!("  check: {c}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for e in &errors {
        println!("  error: {e}");
    }

    // Report line: everything, machine-readable.
    let mut report: Vec<(&str, String)> = vec![
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("shards", shards.to_string()),
        ("nproc", nproc.to_string()),
        ("items", p.items.to_string()),
        ("timed_items", p.timed_items.to_string()),
        ("failed", p.failed.to_string()),
        ("wall_s", num(p.wall_s)),
        ("setup_samples", p.setup.len().to_string()),
        (
            "end_to_end",
            obj(END_TO_END
                .iter()
                .zip(e2e)
                .map(|(&(n, u), v)| (n, obj([("value", num(v)), ("unit", string(u))])))),
        ),
        ("prefix_items", p.prefix.items.to_string()),
        (
            "fingerprint",
            string(&format!("{:016x}", p.prefix.fingerprint.value())),
        ),
        (
            "pings_per_fire_p50",
            pings_p50.map_or("null".to_owned(), |v| v.to_string()),
        ),
        (
            "checks",
            obj(checks.iter().map(|(c, ok)| (c.as_str(), ok.to_string()))),
        ),
    ];
    if let Some(c) = o.compile_s {
        report.push(("core.compile.ns", num(c * 1e9)));
    }
    if let Some(Traced { traced: t, .. }) = &o.traced {
        let l = &t.layers;
        let run_at = l.get("sim.run_at");
        report.push((
            "sim.ns_per_inst",
            if run_at.calls > 0 {
                num(per_item(run_at.ns, t.sim.insts()))
            } else {
                "null".to_owned()
            },
        ));
        report.push((
            "layers",
            obj(l
                .spans
                .iter()
                .filter(|(_, s)| s.calls > 0)
                .map(|(name, s)| {
                    (
                        *name,
                        obj([
                            ("calls", s.calls.to_string()),
                            ("ns", s.ns.to_string()),
                            ("self_ns", s.self_ns.to_string()),
                            ("ns_per_item", num(per_item(s.ns, t.timed_items))),
                        ]),
                    )
                })),
        ));
        println!(
            "  traced: layer self-times and idle time cover {:.1}% of shard time (tolerance {:.0}%)",
            accounted(t) * 100.0,
            ACCOUNTING_TOLERANCE * 100.0
        );
        report.push(("accounting_tolerance", num(ACCOUNTING_TOLERANCE)));
        report.push(("traced_items", t.timed_items.to_string()));
        report.push(("traced_wall_s", num(t.wall_s)));
    }
    println!("{}", obj([("report", obj(report))]));

    let metrics: Vec<(String, &str, f64)> = match &o.traced {
        Some(t) => layer_metrics(&t.again, &t.traced),
        None => END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n.to_owned(), u, v))
            .collect(),
    };
    let metrics = obj(metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), obj([("value", num(*v)), ("unit", string(u))]))));
    println!(
        "{}",
        obj([
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
