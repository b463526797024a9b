//! Sharif-style conditional code obfuscation with a μWM hash (§5.2).
//!
//! Sharif et al. (NDSS '08) hide trigger-guarded code by storing
//! `H(trigger)` instead of the trigger and encrypting the guarded code
//! under a key derived from the trigger: an analyzer can see *that* a
//! guard exists but can neither invert the hash nor decrypt the body.
//!
//! The paper's twist: compute the hash **on weird gates**. A brute-force
//! search now has to run candidate triggers through a μWM SHA-1, which
//! only computes correctly on the real microarchitecture — emulated or
//! instrumented replays of the binary produce garbage hashes, so offline
//! dictionary attacks against the guard break down (§5.2, §7).

use uwm_core::error::Result;
use uwm_core::skelly::Skelly;
use uwm_crypto::{sha1, Aes128};

use crate::sha1::UwmSha1;

/// A trigger-guarded, encrypted payload in the Sharif scheme.
///
/// # Examples
///
/// ```
/// use uwm_apps::sharif::SharifGuard;
/// use uwm_core::skelly::Skelly;
///
/// let guard = SharifGuard::protect(b"open sesame", b"guarded bytes");
/// let mut sk = Skelly::quiet(0).unwrap();
/// assert!(guard.try_unlock(&mut sk, b"wrong").unwrap().is_none());
/// let payload = guard.try_unlock(&mut sk, b"open sesame").unwrap();
/// assert_eq!(payload.as_deref(), Some(&b"guarded bytes"[..]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharifGuard {
    /// SHA-1 of the trigger (safe to expose; preimage-resistant).
    stored_hash: [u8; 20],
    /// Payload encrypted under a key derived from the trigger.
    encrypted: Vec<u8>,
    /// Original payload length (the blob is padded to AES blocks).
    payload_len: usize,
}

/// Derives the AES key from a trigger (domain-separated second hash).
fn derive_key(trigger: &[u8]) -> [u8; 16] {
    let mut input = trigger.to_vec();
    input.extend_from_slice(b"/uwm-sharif-key");
    let digest = sha1(&input);
    let mut key = [0u8; 16];
    key.copy_from_slice(&digest[..16]);
    key
}

impl SharifGuard {
    /// Protects `payload` behind `trigger`: stores only the trigger's hash
    /// and the encrypted payload.
    pub fn protect(trigger: &[u8], payload: &[u8]) -> Self {
        let stored_hash = sha1(trigger);
        let mut padded = payload.to_vec();
        while !padded.len().is_multiple_of(16) {
            padded.push(0);
        }
        let encrypted = Aes128::new(&derive_key(trigger)).encrypt_cbc_zero_iv(&padded);
        Self {
            stored_hash,
            encrypted,
            payload_len: payload.len(),
        }
    }

    /// The exposed hash (what an analyzer gets to see).
    pub fn stored_hash(&self) -> [u8; 20] {
        self.stored_hash
    }

    /// Tests `candidate` by hashing it **on the weird machine** and, on a
    /// match, decrypting and returning the payload.
    ///
    /// Returns `Ok(None)` for a non-matching candidate — including a
    /// *correct* candidate hashed on a platform where μWM computation
    /// degenerates (the anti-emulation property).
    ///
    /// # Errors
    ///
    /// Currently infallible; reserved for gate-construction failures.
    pub fn try_unlock(&self, sk: &mut Skelly, candidate: &[u8]) -> Result<Option<Vec<u8>>> {
        let digest = UwmSha1::new(sk).hash(candidate);
        if digest != self.stored_hash {
            return Ok(None);
        }
        let mut plain = Aes128::new(&derive_key(candidate)).decrypt_cbc_zero_iv(&self.encrypted);
        plain.truncate(self.payload_len);
        Ok(Some(plain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_core::skelly::Redundancy;
    use uwm_sim::machine::MachineConfig;

    #[test]
    fn correct_trigger_unlocks() {
        let guard = SharifGuard::protect(b"xyzzy", b"the actual logic bomb body");
        let mut sk = Skelly::quiet(0).unwrap();
        let got = guard.try_unlock(&mut sk, b"xyzzy").unwrap();
        assert_eq!(got.as_deref(), Some(&b"the actual logic bomb body"[..]));
    }

    #[test]
    fn wrong_triggers_reveal_nothing() {
        let guard = SharifGuard::protect(b"xyzzy", b"hidden");
        let mut sk = Skelly::quiet(1).unwrap();
        for wrong in [&b"xyzz"[..], b"xyzzy ", b"", b"XYZZY"] {
            assert!(guard.try_unlock(&mut sk, wrong).unwrap().is_none());
        }
    }

    #[test]
    fn payload_bytes_not_in_guard_storage() {
        let payload = b"SECRET_PAYLOAD_MARKER";
        let guard = SharifGuard::protect(b"trigger", payload);
        let blob = &guard.encrypted;
        assert!(
            !blob.windows(payload.len()).any(|w| w == payload),
            "payload must not be recoverable from the guard"
        );
    }

    /// The μWM twist: on an emulated (flat) platform the weird hash
    /// degenerates, so even the *correct* trigger fails — offline
    /// brute-forcing in an emulator cannot find the trigger.
    #[test]
    fn correct_trigger_fails_under_emulation() {
        let guard = SharifGuard::protect(b"xyzzy", b"hidden");
        let mut sk = Skelly::new(MachineConfig::flat(), 0).unwrap();
        assert!(guard.try_unlock(&mut sk, b"xyzzy").unwrap().is_none());
    }

    /// Under default noise with voting, the guard still opens.
    #[test]
    fn noisy_machine_with_redundancy_unlocks() {
        let guard = SharifGuard::protect(b"k", b"body");
        let mut sk = Skelly::noisy(7).unwrap();
        sk.set_redundancy(Redundancy {
            samples: 3,
            votes: 3,
            k: 2,
        });
        // The hash is long (1 block = ~200k gate executions); a single
        // attempt with modest redundancy usually lands. Retry a few times
        // as the paper's APT does.
        let mut opened = false;
        for _ in 0..3 {
            if guard.try_unlock(&mut sk, b"k").unwrap().is_some() {
                opened = true;
                break;
            }
        }
        assert!(opened, "voted hash should match within three attempts");
    }
}
