//! Figures 7 and 8: measured-timing distributions ("KDEs") of the BP/IC
//! AND and OR gates, showing the logic-level boundary between hit-like
//! and miss-like output reads: the threshold each sampled machine
//! calibrated and decoded against.
//!
//! Usage: `cargo run --release -p uwm-bench --bin fig7_fig8 -- [scale] [--shards N] [--json PATH]`

use uwm_bench::json::Json;
use uwm_bench::{delay_histogram, maybe_write_json, parse_args, scaled, sharded_delays};
use uwm_core::gate::GateKind;
use uwm_rng::Rng;

fn main() {
    let args = parse_args("scale");
    let samples = scaled(20_000, args.scale);
    let mut figures = Vec::new();
    for (fig, kind) in [("Figure 7", GateKind::And), ("Figure 8", GateKind::Or)] {
        let gate = kind.name();
        let reads = sharded_delays(samples, 0xF7, args.shards, |sk, rng| {
            let inputs = [rng.gen::<bool>(), rng.gen::<bool>()];
            let delay = sk.execute_timed(kind, &inputs).expect("arity").delay;
            (delay, sk.threshold())
        });
        let delays: Vec<u64> = reads.iter().map(|&(d, _)| d).collect();
        // Each hermetic batch calibrates its own machine; they may differ
        // by a cycle or two.
        let lo = reads.iter().map(|&(_, t)| t).min().unwrap_or(0);
        let hi = reads.iter().map(|&(_, t)| t).max().unwrap_or(0);
        let boundary = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        };
        println!("{fig}: bp/icache {gate} gate — measured timing distribution");
        println!("({samples} samples, {} shard(s))\n", args.shards);
        println!("{:>10} {:>10}", "delay", "count");
        let histogram = delay_histogram(&delays, 8);
        let peak = histogram.iter().map(|&(_, c)| c).max().unwrap_or(1);
        let rows = |part: &[(u64, u64)]| {
            for &(bucket, count) in part {
                if bucket > 400 {
                    // Collapse the interrupt-spike tail into one line.
                    let tail: u64 = delays.iter().filter(|&&d| d > 400).count() as u64;
                    println!("{:>10} {:>10}   (interrupt-spike tail)", ">400", tail);
                    break;
                }
                let bar = "#".repeat((count * 50 / peak) as usize);
                println!("{bucket:>10} {count:>10} {bar}");
            }
        };
        // The boundary prints before the first bucket not wholly below it.
        let (below, above) = histogram.split_at(histogram.partition_point(|&(b, _)| b + 8 <= lo));
        rows(below);
        println!("{boundary:>10} {:>10} <-- logic boundary (calibrated)", "");
        rows(above);
        println!();
        figures.push(Json::obj([
            ("figure", Json::Str(fig.to_owned())),
            ("gate", Json::Str(gate.to_owned())),
            ("samples", Json::UInt(samples)),
            ("shards", Json::UInt(args.shards as u64)),
            ("threshold_min", Json::UInt(lo)),
            ("threshold_max", Json::UInt(hi)),
            (
                "histogram",
                Json::Arr(
                    histogram
                        .iter()
                        .map(|&(b, c)| Json::Arr(vec![Json::UInt(b), Json::UInt(c)]))
                        .collect(),
                ),
            ),
        ]));
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("fig7_fig8".into())),
            ("figures", Json::Arr(figures)),
        ]),
    );
    println!("Expected shape (paper): two clusters — logic-1 reads near the");
    println!("L1 latency, logic-0 reads near the DRAM latency — separated by");
    println!("the threshold, with a sparse heavy tail from interrupts.");
}
