//! End-to-end SHA-1 on the weird machine, verified against the reference
//! implementation — the §5.2 experiment at test scale.

use uwm_apps::UwmSha1;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_crypto::sha1;
use uwm_sim::machine::MachineConfig;

/// One-block message on a quiet machine: exact reproduction.
#[test]
fn one_block_hash_matches_reference() {
    let mut sk = Skelly::quiet(100).unwrap();
    let digest = UwmSha1::new(&mut sk).hash(b"abc");
    assert_eq!(digest, sha1(b"abc"));
}

/// The empty message exercises the padding-only path.
#[test]
fn empty_message_hash_matches_reference() {
    let mut sk = Skelly::quiet(101).unwrap();
    let digest = UwmSha1::new(&mut sk).hash(b"");
    assert_eq!(digest, sha1(b""));
}

/// A two-block message (the paper's Table 4 fixture size) on a quiet
/// machine.
#[test]
fn two_block_hash_matches_reference() {
    let message = vec![b'w'; 100];
    let mut sk = Skelly::quiet(102).unwrap();
    let digest = UwmSha1::new(&mut sk).hash(&message);
    assert_eq!(digest, sha1(&message));
}

/// Under default noise with the paper's redundancy, the hash still comes
/// out right and the per-gate vote accuracy is 1.0 — the Table 4 claim.
/// The suite's slowest test: 50 raw executions per logical gate, a few
/// seconds at the test profile.
#[test]
fn noisy_hash_with_paper_redundancy_is_correct() {
    let mut sk = Skelly::new(MachineConfig::default(), 103).unwrap();
    sk.set_redundancy(Redundancy::paper());
    let digest = UwmSha1::new(&mut sk).hash(b"abc");
    assert_eq!(digest, sha1(b"abc"));
    for (name, c) in sk.counters().iter() {
        assert_eq!(c.vote_accuracy(), 1.0, "gate {name} vote accuracy");
    }
}

/// The hash is deterministic for a given seed and differs across messages
/// (sanity against accidental constant output).
#[test]
fn hash_depends_on_message() {
    let mut sk = Skelly::quiet(104).unwrap();
    let d1 = UwmSha1::new(&mut sk).hash(b"message one");
    let d2 = UwmSha1::new(&mut sk).hash(b"message two");
    assert_ne!(d1, d2);
    assert_eq!(d1, sha1(b"message one"));
    assert_eq!(d2, sha1(b"message two"));
}
