//! SHA-1 on a weird machine (§5.2 of the paper).
//!
//! Hashes a message where every boolean operation — every XOR of the
//! message schedule, every round function, every bit of every addition —
//! executes as a microarchitectural race, then verifies the digest against
//! the architectural reference implementation.
//!
//! Run with: `cargo run --release -p uwm-apps --example sha1_hash [message]`

use uwm_apps::UwmSha1;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_crypto::sha1;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let message = std::env::args().nth(1).unwrap_or_else(|| "abc".to_owned());
    println!("hashing {message:?} on weird gates…");

    let mut sk = Skelly::quiet(2024)?;
    // Light redundancy so the example finishes quickly; the Table 4
    // experiment in the bench harness uses the paper's s=10, k=3, n=5.
    sk.set_redundancy(Redundancy {
        samples: 1,
        votes: 1,
        k: 1,
    })?;

    let digest = UwmSha1::new(&mut sk).hash(message.as_bytes());
    let reference = sha1(message.as_bytes());

    println!("  uwm-sha1:  {}", hex(&digest));
    println!("  reference: {}", hex(&reference));
    assert_eq!(digest, reference, "weird-machine hash must match");

    println!("\ngate executions by type:");
    for (name, c) in sk.counters().iter() {
        println!(
            "  {name:<12} {:>9} raw   median acc {:.6}   vote acc {:.6}",
            c.raw_total,
            c.median_accuracy(),
            c.vote_accuracy()
        );
    }
    println!("\nhash verified: OK");
    Ok(())
}
