//! Table 5: BPU and instruction-cache weird-gate accuracy evaluation
//! (320 000 random-input operations per gate).
//!
//! Usage: `cargo run --release -p uwm-bench --bin table5 -- [scale] [--shards N] [--json PATH]`

use uwm_bench::json::Json;
use uwm_bench::{gate_performance_sharded, maybe_write_json, parse_args, scaled};
use uwm_core::gate::GateKind;

fn main() {
    let args = parse_args();
    let ops = scaled(320_000, args.scale);
    println!("Table 5: BPU and instruction cache weird gate accuracy evaluation");
    println!(
        "({ops} operations per gate, randomized inputs, {} shard(s))\n",
        args.shards
    );
    println!(
        "{:<6} {:>10} {:>10} {:>14}",
        "Gate", "Operations", "Correct", "Mean Accuracy"
    );
    let mut rows = Vec::new();
    for (i, kind) in [GateKind::And, GateKind::Or].into_iter().enumerate() {
        let gate = kind.name();
        let r = gate_performance_sharded(kind, ops, 0x75 + i as u64, args.shards);
        println!(
            "{gate:<6} {:>10} {:>10} {:>14.8}",
            r.run.ops,
            r.run.correct,
            r.run.accuracy()
        );
        rows.push(r.report_row(gate));
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table5".into())),
            ("gates", Json::Arr(rows)),
        ]),
    );
    println!("\nExpected shape (paper): both ≥ 0.9996 — BP/IC gates are the");
    println!("accurate-but-slow family.");
}
