//! Throughput benchmarks for individual weird gates — the host-side
//! counterpart of Table 2's "Executions/Second" column, timed by the
//! crate's own mini-harness (`uwm_bench::harness`).
//!
//! Run with: `cargo bench -p uwm-bench --bench gates`

use uwm_bench::harness::bench;
use uwm_core::gate::GateKind;
use uwm_core::skelly::Skelly;

fn main() {
    println!("gate_execution: single voted execution per iteration\n");
    for kind in GateKind::ALL {
        let mut sk = Skelly::noisy(1).expect("skelly builds");
        let inputs = vec![true; kind.arity()];
        bench(&format!("gate_execution/{}", kind.name()), || {
            sk.execute_timed(kind, &inputs).expect("arity");
        });
    }
}
