//! The paper's §4 claims that hold in the simulator, asserted at reduced
//! scale with the table binaries' own seeds and samplers. Claims that do
//! not hold are recorded as deviations in EXPERIMENTS.md instead.

use uwm_bench::{gate_performance_sharded, sharded_delays};
use uwm_core::gate::GateKind;
use uwm_core::skelly::Skelly;
use uwm_rng::Rng;

/// Table 8: every TSX gate is 92–99 % accurate, and XOR is the least
/// accurate. `table8`'s seeds, at 5 % of its 64 000 ops per gate.
#[test]
fn table8_tsx_accuracy_lies_in_the_papers_band_with_xor_lowest() {
    let gates = [
        GateKind::TxAnd,
        GateKind::TxOr,
        GateKind::TxAndOr,
        GateKind::TxXor,
    ];
    let accuracy: Vec<f64> = gates
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            gate_performance_sharded(kind, 3_200, 0x78 + i as u64, 2)
                .run
                .accuracy()
        })
        .collect();
    for (kind, acc) in gates.iter().zip(&accuracy) {
        assert!(
            (0.92..=0.99).contains(acc),
            "{} accuracy {acc} outside 0.92–0.99",
            kind.name()
        );
    }
    let xor = accuracy[3];
    assert!(
        accuracy[..3].iter().all(|&a| a > xor),
        "TSX_XOR must be the least accurate: {accuracy:?}"
    );
}

/// Tables 6–7: each TSX-AND-OR and TSX-XOR output reads fast for
/// logic 1 and slow for logic 0. `table6_table7`'s seeds and samplers, at
/// 5 % of its 64 000 ops per row; a row's median read, relative to the
/// threshold calibrated on the batch it ran in, must fall on its
/// truth-table side.
#[test]
fn table6_table7_median_reads_fall_on_their_truth_table_side() {
    const COMBOS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];
    let row = |seed: u64, one: bool, what: String, read: &(dyn Fn(&mut Skelly) -> u64 + Sync)| {
        let reads = sharded_delays(3_200, seed, 2, |sk, _rng| (read(sk), sk.threshold()));
        let mut offsets: Vec<i64> = reads.iter().map(|&(d, t)| d as i64 - t as i64).collect();
        offsets.sort_unstable();
        let median = offsets[offsets.len() / 2];
        assert_eq!(
            median < 0,
            one,
            "{what}: median read {median:+} cycles from the threshold, expected logic {}",
            one as u8
        );
    };
    for (i, (a, b)) in COMBOS.into_iter().enumerate() {
        for (out, base, truth) in [(0, 0x67, a && b), (1, 0x6B, a || b)] {
            let what = format!("AND_OR output {out} ({},{})", a as u8, b as u8);
            row(base + i as u64, truth, what, &move |sk| {
                let gate = sk.tsx_and_or_gate();
                let readings = gate.execute_readings(sk.machine_mut(), &[a, b]);
                readings.expect("arity")[out].delay
            });
        }
        let what = format!("XOR ({},{})", a as u8, b as u8);
        row(0x70 + i as u64, a ^ b, what, &move |sk| {
            sk.execute_timed(GateKind::TxXor, &[a, b])
                .expect("arity")
                .delay
        });
    }
}

/// Figures 7–8: output reads form two clusters, hit-like and miss-like,
/// far from the calibrated threshold, and the hit-like share is the share
/// of random inputs whose output is 1 (¼ for AND, ¾ for OR).
/// `fig7_fig8`'s sampler and seed, at 5 % of its 20 000 reads per gate.
#[test]
fn fig7_fig8_reads_split_into_two_clusters_by_truth_table() {
    for (kind, ones) in [(GateKind::And, 0.25), (GateKind::Or, 0.75)] {
        let reads = sharded_delays(1_000, 0xF7, 2, |sk, rng| {
            let inputs = [rng.gen::<bool>(), rng.gen::<bool>()];
            let delay = sk.execute_timed(kind, &inputs).expect("arity").delay;
            (delay, sk.threshold())
        });
        for &(delay, threshold) in &reads {
            assert!(
                delay.abs_diff(threshold) >= 80,
                "{}: read {delay} lies within 80 cycles of threshold {threshold}",
                kind.name()
            );
        }
        let fast = reads.iter().filter(|&&(d, t)| d < t).count();
        let share = fast as f64 / reads.len() as f64;
        assert!(
            (share - ones).abs() <= 0.05,
            "{}: fast-cluster share {share} vs truth-table share {ones}",
            kind.name()
        );
    }
}
