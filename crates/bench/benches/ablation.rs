//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! gate accuracy vs. noise level, vs. redundancy parameters, and vs. the
//! TSX speculative-window length — the §5.2 time/visibility/accuracy
//! trade-off, measured.
//!
//! Each sweep prints the accuracy at the setting and times the per-op
//! cost via the crate's mini-harness (`uwm_bench::harness`).
//!
//! Run with: `cargo bench -p uwm-bench --bench ablation`

use uwm_bench::harness::bench;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::machine::MachineConfig;
use uwm_sim::timing::NoiseConfig;

/// Accuracy of ~2 000 TSX_XOR raw executions at a given noise level.
fn xor_accuracy(noise: NoiseConfig, red: Redundancy, seed: u64) -> f64 {
    let cfg = MachineConfig {
        noise,
        ..MachineConfig::default()
    };
    let mut sk = Skelly::new(cfg, seed).expect("skelly builds");
    sk.set_redundancy(red).expect("redundancy can vote");
    let mut rng = StdRng::seed_from_u64(seed);
    let trials = 2_000 / red.raw_executions().max(1) as u64 + 10;
    let mut correct = 0u64;
    for _ in 0..trials {
        let (a, b) = (rng.gen::<bool>(), rng.gen::<bool>());
        if sk.tsx_xor(a, b) == (a ^ b) {
            correct += 1;
        }
    }
    correct as f64 / trials as f64
}

fn noise_sweep() {
    for level in [0.0, 0.25, 0.5, 1.0] {
        let acc = xor_accuracy(NoiseConfig::scaled(level), Redundancy::default(), 11);
        println!("ablation: noise level {level}: raw TSX_XOR accuracy {acc:.4}");
        let cfg = MachineConfig {
            noise: NoiseConfig::scaled(level),
            ..MachineConfig::default()
        };
        let mut sk = Skelly::new(cfg, 11).expect("skelly builds");
        bench(&format!("noise_ablation/tsx_xor_at_noise/{level}"), || {
            sk.tsx_xor(true, false);
        });
    }
}

fn redundancy_sweep() {
    for (label, red) in [
        ("raw", Redundancy::default()),
        (
            "s3",
            Redundancy {
                samples: 3,
                votes: 1,
                k: 1,
            },
        ),
        (
            "s3n3k2",
            Redundancy {
                samples: 3,
                votes: 3,
                k: 2,
            },
        ),
        ("paper_s10n5k3", Redundancy::paper()),
    ] {
        let acc = xor_accuracy(NoiseConfig::default(), red, 13);
        println!(
            "ablation: redundancy {label} ({} raw execs/op): voted TSX_XOR accuracy {acc:.4}",
            red.raw_executions()
        );
        let mut sk = Skelly::noisy(13).expect("skelly builds");
        sk.set_redundancy(red).expect("redundancy can vote");
        bench(
            &format!("redundancy_ablation/tsx_xor_voted/{label}"),
            || {
                sk.tsx_xor(true, true);
            },
        );
    }
}

fn window_sweep() {
    // The TSX post-fault window must sit between "a few L1 hits" and "a
    // DRAM miss" for gates to work; sweep it across that band.
    for window in [40u64, 80, 120, 160, 240] {
        let mut cfg = MachineConfig::default();
        cfg.latency.tsx_spec_window = window;
        let mut sk = Skelly::new(cfg, 17).expect("skelly builds");
        let mut rng = StdRng::seed_from_u64(17);
        let mut correct = 0u32;
        let trials = 600;
        for _ in 0..trials {
            let (a, b) = (rng.gen::<bool>(), rng.gen::<bool>());
            if sk.tsx_and(a, b) == (a & b) {
                correct += 1;
            }
        }
        println!(
            "ablation: tsx window {window} cycles: TSX_AND accuracy {:.4}",
            correct as f64 / trials as f64
        );
        bench(
            &format!("window_ablation/tsx_and_at_window/{window}"),
            || {
                sk.tsx_and(true, true);
            },
        );
    }
}

fn main() {
    noise_sweep();
    redundancy_sweep();
    window_sweep();
}
