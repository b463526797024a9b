//! Table 4: correct / incorrect gate executions in the 2-block SHA-1 hash
//! experiment, with the paper's redundancy (s=10, k=3, n=5).
//!
//! Usage: `cargo run --release -p uwm-bench --bin table4 -- [runs] [--shards N] [--json PATH]`
//! (default 1 run; the paper ran 10 — each run is a full 2-block hash on
//! weird gates and takes a while).

use uwm_bench::json::Json;
use uwm_bench::{maybe_write_json, parse_args, sha1_experiments_sharded};
use uwm_core::skelly::Redundancy;

fn main() {
    let args = parse_args("runs");
    // The positional argument doubles as the run count here.
    let runs = (args.scale.round() as u32).max(1);
    // 100 bytes pads to exactly 2 SHA-1 blocks, like the paper's fixture.
    let message = vec![b'w'; 100];
    println!("Table 4: Correct / incorrect gate executions in 2-Block SHA-1 hash");
    println!(
        "(s=10, k=3, n=5; {runs} run(s), default-noise machine, {} shard(s))\n",
        args.shards
    );

    let results = sha1_experiments_sharded(&message, Redundancy::paper(), 0x34, runs, args.shards);
    let mut all_correct = true;
    let mut rows = Vec::new();
    for (run, r) in results.iter().enumerate() {
        println!(
            "run {}: hash {} in {:.1}s",
            run + 1,
            if r.correct { "CORRECT" } else { "INCORRECT" },
            r.seconds
        );
        all_correct &= r.correct;
        println!(
            "{:<12} {:>28} {:>28}",
            "", "Correct After Median", "Correct After Vote"
        );
        let mut gate_rows = Vec::new();
        for (name, c) in &r.counters {
            println!(
                "{name:<12} {:>15}/{:<12} = {:.6} {:>13}/{:<8} = {:.6}",
                c.medians_correct,
                c.medians_total,
                c.median_accuracy(),
                c.votes_correct,
                c.votes_total,
                c.vote_accuracy()
            );
            gate_rows.push(Json::obj([
                ("gate", Json::Str((*name).to_owned())),
                ("medians_correct", Json::UInt(c.medians_correct)),
                ("medians_total", Json::UInt(c.medians_total)),
                ("votes_correct", Json::UInt(c.votes_correct)),
                ("votes_total", Json::UInt(c.votes_total)),
            ]));
        }
        rows.push(Json::obj([
            ("run", Json::UInt(run as u64 + 1)),
            ("correct", Json::Bool(r.correct)),
            ("wall_seconds", Json::Num(r.seconds)),
            ("gates", Json::Arr(gate_rows)),
        ]));
        println!();
    }
    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table4".into())),
            ("shards", Json::UInt(args.shards as u64)),
            ("runs", Json::Arr(rows)),
        ]),
    );
    println!(
        "Expected shape (paper): vote accuracy 1.000000 across all gate types\n\
         (every run produced a correct hash); NAND executions dominate.\n\
         All runs correct here: {all_correct}"
    );
}
