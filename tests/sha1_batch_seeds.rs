//! `Sha1Batch`'s per-item semantics, pinned on a noisy machine.
//!
//! On a quiet machine every seed yields the right digest, so a batch that
//! reseeded its items differently would still pass the reference checks.
//! Under default noise the weird-gate result depends on the noise stream,
//! so comparing against a serial replica of the contract — instantiate
//! with the batch seed, reseed with `batch_seed(seed, i)`, compress —
//! catches any change to how items are seeded or rewound.

use uwm_apps::{Sha1Batch, UwmSha1};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::skelly::SkellySpec;
use uwm_crypto::sha1::{compress_block, H0};
use uwm_sim::machine::MachineConfig;

const SEED: u64 = 0x5EED_0005;

fn blocks() -> Vec<[u8; 64]> {
    (0..3u8)
        .map(|i| core::array::from_fn(|j| i.wrapping_mul(97) ^ (j as u8).wrapping_mul(13)))
        .collect()
}

/// What each item must equal: a freshly instantiated machine, reseeded
/// with the item's batch seed, compressing the block from `H0`.
fn serial_reference(cfg: &MachineConfig, blocks: &[[u8; 64]]) -> Vec<[u32; 5]> {
    let spec = SkellySpec::new().unwrap();
    blocks
        .iter()
        .enumerate()
        .map(|(i, block)| {
            let mut sk = spec.instantiate(cfg.clone(), SEED);
            sk.machine_mut().reseed_noise(batch_seed(SEED, i));
            UwmSha1::new(&mut sk).compress(H0, block)
        })
        .collect()
}

#[test]
fn noisy_compress_many_matches_serial_reseeded_reference() {
    let cfg = MachineConfig::default();
    let blocks = blocks();
    let want = serial_reference(&cfg, &blocks);
    let exact: Vec<[u32; 5]> = blocks.iter().map(|b| compress_block(H0, b)).collect();
    assert_ne!(
        want, exact,
        "the fixture must depend on the noise, or it pins nothing"
    );
    // The second 1-shard call takes its pool snapshot into the spare the
    // first call's snapshot left on this thread.
    for shards in [1, 1, 2] {
        let batch = Sha1Batch::new(cfg.clone(), ShardedExecutor::new(shards), SEED).unwrap();
        assert_eq!(batch.compress_many(&blocks), want, "{shards} shard(s)");
    }
}
