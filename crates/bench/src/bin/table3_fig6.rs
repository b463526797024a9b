//! Table 3 + Figure 6: number of trigger pings required for a successful
//! wm_apt transform, over repeated arm-and-trigger experiments.
//!
//! Usage: `cargo run --release -p uwm-bench --bin table3_fig6 -- [scale] [--shards N] [--json PATH]`
//! (scale 1.0 = the paper's 100 experiments).

use uwm_bench::json::Json;
use uwm_bench::stats::{ascii_histogram, Summary};
use uwm_bench::{
    maybe_write_json, parse_args, scaled, summary_header, summary_row, trigger_distribution_sharded,
};

fn main() {
    let args = parse_args("scale");
    let experiments = scaled(100, args.scale) as u32;
    println!("Table 3: Triggers required for successful wm_apt transform");
    println!(
        "({experiments} experiments, 192-bit pad, median-of-3 per bit, {} shard(s))\n",
        args.shards
    );
    let counts = trigger_distribution_sharded(experiments, 500, 0x36, args.shards);
    let as64: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
    let s = Summary::from_samples(&as64);
    println!("{}", summary_header(""));
    println!("{}", summary_row("Triggers", &s));

    println!("\nFigure 6: histogram of wm_apt triggers yielding successful transform\n");
    print!("{}", ascii_histogram(&counts, 12, 50));

    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table3_fig6".into())),
            ("experiments", Json::UInt(experiments as u64)),
            ("shards", Json::UInt(args.shards as u64)),
            ("median_triggers", Json::UInt(s.median)),
            ("std_dev", Json::Num(s.std_dev)),
            (
                "counts",
                Json::Arr(counts.iter().map(|&c| Json::UInt(c as u64)).collect()),
            ),
        ]),
    );
    println!("\nExpected shape (paper): geometric-ish — Q1≈2, Med≈6, Q3≈11,");
    println!("a long tail of unlucky runs (paper Max 69).");
}
