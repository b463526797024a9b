//! # uwm-crypto — reference SHA-1 and AES-128
//!
//! Self-contained implementations of the two algorithms the μWM paper's
//! applications depend on:
//!
//! * [`sha1`](mod@sha1) — the verification oracle for the μWM SHA-1 of §5.2 (the
//!   paper compares its weird-machine hashes against a reference
//!   implementation), and the building block for Sharif-style conditional
//!   code obfuscation;
//! * [`aes`] — AES-128 ECB block encryption/decryption, used by the
//!   `wm_apt` weird-obfuscation demo (§5.1) to encrypt/decrypt the
//!   payload under the key hidden behind the one-time-pad trigger.
//!
//! These are plain, portable, constant-table implementations — **not**
//! hardened against side channels (they run inside a simulator whose side
//! channels are the whole point).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aes;
pub mod sha1;

pub use aes::Aes128;
pub use sha1::{sha1, Sha1};
