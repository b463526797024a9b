//! Table 8: TSX gate accuracy and unrecovered transaction aborts over
//! 64 000 random-input operations per gate.
//!
//! Usage: `cargo run --release -p uwm-bench --bin table8 -- [scale] [--shards N] [--json PATH]`

use uwm_bench::json::Json;
use uwm_bench::{gate_performance_sharded, maybe_write_json, parse_args, scaled};
use uwm_core::gate::GateKind;

fn main() {
    let args = parse_args();
    let ops = scaled(64_000, args.scale);
    println!(
        "Table 8: TSX Gate Accuracy ({ops} ops per gate, {} shard(s))\n",
        args.shards
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>14}",
        "Gate", "Correct Ops", "TSX Aborts", "Total Ops", "Mean Accuracy"
    );
    let mut rows = Vec::new();
    for (i, (label, kind)) in [
        ("AND", GateKind::TxAnd),
        ("OR", GateKind::TxOr),
        ("AND-OR", GateKind::TxAndOr),
        ("XOR", GateKind::TxXor),
    ]
    .into_iter()
    .enumerate()
    {
        let r = gate_performance_sharded(kind, ops, 0x78 + i as u64, args.shards);
        println!(
            "{label:<8} {:>12} {:>12} {:>10} {:>14.5}",
            r.run.correct,
            r.run.spurious_aborts,
            r.run.ops,
            r.run.accuracy()
        );
        rows.push(r.report_row(kind.name()));
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table8".into())),
            ("gates", Json::Arr(rows)),
        ]),
    );
    println!("\nExpected shape (paper): accuracies 0.92–0.99 with XOR lowest;");
    println!("a handful of spurious aborts per 64k ops (~1.5e-4).");
}
