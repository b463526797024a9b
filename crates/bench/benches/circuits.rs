//! Benchmarks for composed weird computation: circuits, the full adder,
//! 32-bit addition, and one SHA-1 compression, timed by the crate's own
//! mini-harness (`uwm_bench::harness`).
//!
//! Run with: `cargo bench -p uwm-bench --bench circuits`

use uwm_apps::UwmSha1;
use uwm_bench::harness::bench;
use uwm_core::circuit::CircuitBuilder;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_crypto::sha1::H0;

fn bench_xor_circuit() {
    let mut sk = Skelly::noisy(3).expect("skelly builds");
    let circuit = {
        let (m, lay) = sk.machine_and_layout();
        let mut cb = CircuitBuilder::new();
        let a = cb.input(lay).expect("layout");
        let b = cb.input(lay).expect("layout");
        let q = cb.xor(lay, a, b).expect("layout");
        cb.mark_output(q);
        cb.finish().expect("valid circuit").instantiate(m)
    };
    let mut i = 0u32;
    bench("tsx_xor_circuit_run", || {
        i = i.wrapping_add(1);
        circuit
            .run(sk.machine_mut(), &[i & 1 == 0, i & 2 == 0])
            .expect("arity");
    });
}

fn bench_adders() {
    let mut sk = Skelly::noisy(4).expect("skelly builds");
    bench("full_adder_bit", || {
        sk.full_adder(true, false, true);
    });
    let mut x = 0u32;
    bench("add32", || {
        x = x.wrapping_add(0x9E37_79B9);
        sk.add32(x, 0x1234_5678);
    });
}

fn bench_sha1_compress() {
    let mut sk = Skelly::noisy(5).expect("skelly builds");
    sk.set_redundancy(Redundancy::default())
        .expect("redundancy can vote");
    let block: [u8; 64] = core::array::from_fn(|i| i as u8);
    bench("sha1/uwm_compress_block_raw", || {
        UwmSha1::new(&mut sk).compress(H0, &block);
    });
    bench("sha1/reference_compress_block", || {
        uwm_crypto::sha1::compress_block(H0, &block);
    });
}

fn main() {
    bench_xor_circuit();
    bench_adders();
    bench_sha1_compress();
}
