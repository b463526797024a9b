//! Table 2: overview of weird-gate performance and accuracy.
//!
//! Usage: `cargo run --release -p uwm-bench --bin table2 -- [scale] [--shards N] [--json PATH]`
//! (scale 1.0 = the paper's 1M iterations per gate).

use uwm_bench::json::Json;
use uwm_bench::{gate_performance_sharded, maybe_write_json, parse_args, scaled};
use uwm_core::gate::GateKind;

fn main() {
    let args = parse_args();
    let ops = scaled(1_000_000, args.scale);
    println!("Table 2: Overview of various WG performance and accuracy");
    println!(
        "({ops} iterations per gate, default-noise machine, {} shard(s))\n",
        args.shards
    );
    println!(
        "{:<12} {:>10} {:>12} {:>16} {:>12} {:>10}",
        "Weird Gate", "Iterations", "Exec Time(s)", "Executions/Sec", "SimCyc/Op", "Accuracy"
    );
    let mut rows = Vec::new();
    for (i, kind) in [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::AndAndOr,
        GateKind::TxAnd,
        GateKind::TxOr,
        GateKind::TxAssign,
        GateKind::TxXor,
    ]
    .into_iter()
    .enumerate()
    {
        let gate = kind.name();
        let r = gate_performance_sharded(kind, ops, 0x72 + i as u64, args.shards);
        println!(
            "{gate:<12} {:>10} {:>12.3} {:>16.0} {:>12.0} {:>9.4}%",
            r.run.ops,
            r.run.seconds,
            r.run.execs_per_sec(),
            r.run.cycles_per_op(),
            r.run.accuracy() * 100.0
        );
        rows.push(r.report_row(gate));
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table2".into())),
            ("gates", Json::Arr(rows)),
        ]),
    );
    println!("\nExpected shape (paper): TSX gates are an order of magnitude");
    println!("faster than BP/IC gates (no predictor retraining); accuracies");
    println!("range 92-100% with TSX_XOR the lowest (three chained txns).");
}
