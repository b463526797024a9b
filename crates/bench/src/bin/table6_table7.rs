//! Tables 6 and 7: TSX-AND-OR and TSX-XOR measurement delays (CPU cycles)
//! per input combination.
//!
//! Usage: `cargo run --release -p uwm-bench --bin table6_table7 -- [scale] [--shards N] [--json PATH]`

use uwm_bench::json::Json;
use uwm_bench::stats::Summary;
use uwm_bench::{
    maybe_write_json, parse_args, scaled, sharded_delays, summary_header, summary_row,
};
use uwm_core::gate::GateKind;

const COMBOS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

fn main() {
    let args = parse_args();
    let ops = scaled(64_000, args.scale);
    let mut rows = Vec::new();
    let mut measure =
        |table: &str,
         label: String,
         seed: u64,
         f: &(dyn Fn(&mut uwm_core::skelly::Skelly) -> u64 + Sync)| {
            let delays = sharded_delays(ops, seed, args.shards, |sk, _rng| f(sk));
            let s = Summary::from_samples(&delays);
            println!("{}", summary_row(&label, &s));
            rows.push(Json::obj([
                ("table", Json::Str(table.to_owned())),
                ("input", Json::Str(label)),
                ("ops", Json::UInt(ops)),
                ("median_delay_cycles", Json::UInt(s.median)),
                ("delay_std_dev", Json::Num(s.std_dev)),
                ("shards", Json::UInt(args.shards as u64)),
            ]));
        };

    println!(
        "Table 6: TSX-AND-OR measurement delay (CPU cycles), {ops} ops/combo, {} shard(s)\n",
        args.shards
    );
    println!("{}", summary_header("Input"));
    // The AND output of the combined circuit…
    for (i, (a, b)) in COMBOS.into_iter().enumerate() {
        let label = format!("AND ({},{})", a as u8, b as u8);
        measure("table6", label, 0x67 + i as u64, &move |sk| {
            let gate = sk.tsx_and_or_gate();
            let readings = gate.execute_readings(sk.machine_mut(), &[a, b]);
            readings.expect("arity")[0].delay
        });
    }
    // …and the OR output.
    for (i, (a, b)) in COMBOS.into_iter().enumerate() {
        let label = format!("OR  ({},{})", a as u8, b as u8);
        measure("table6", label, 0x6B + i as u64, &move |sk| {
            let gate = sk.tsx_and_or_gate();
            let readings = gate.execute_readings(sk.machine_mut(), &[a, b]);
            readings.expect("arity")[1].delay
        });
    }

    println!(
        "\nTable 7: TSX-XOR measurement delay (CPU cycles), {ops} ops/combo, {} shard(s)\n",
        args.shards
    );
    println!("{}", summary_header("Input"));
    for (i, (a, b)) in COMBOS.into_iter().enumerate() {
        let label = format!("({},{})", a as u8, b as u8);
        measure("table7", label, 0x70 + i as u64, &move |sk| {
            sk.execute_timed(GateKind::TxXor, &[a, b])
                .expect("arity")
                .delay
        });
    }

    maybe_write_json(
        &args,
        &Json::obj([
            ("table", Json::Str("table6_table7".into())),
            ("rows", Json::Arr(rows)),
        ]),
    );
    println!("\nExpected shape (paper): logic-0 outputs read slow (Med ≈ DRAM +");
    println!("rdtscp ≈ 220), logic-1 outputs fast (Med ≈ 36); Max in the tens");
    println!("of thousands from interrupt spikes; XOR mirrors (0,0)/(1,1) slow.");
}
