//! # uwm-apps — applications of microarchitectural weird machines
//!
//! The application layer of the ASPLOS '21 μWM reproduction:
//!
//! * [`sha1`] — SHA-1 computed on weird gates (§5.2): every boolean
//!   combination of bits runs through the branch-predictor gate family
//!   with median-and-vote redundancy; verified against
//!   [`uwm_crypto::sha1()`].
//! * [`wm_apt`] — the weird-obfuscation trigger system (§5.1): a payload
//!   hidden behind a one-time-pad whose decode runs on TSX XOR circuits;
//!   wrong triggers fault harmlessly inside a transaction. The payloads
//!   here are **benign simulations** (markers written into simulated
//!   memory) standing in for the paper's exfiltration/reverse-shell
//!   demos — the *mechanism* is what is reproduced.
//! * [`covert`] — a DC-WR covert channel between two parties sharing the
//!   machine (§3.1's channel framing of weird registers).
//! * [`emulation`] — μWM as an emulation detector (§2.1): the same
//!   computation degenerates on a flat "emulator" machine model.
//! * [`sharif`] — Sharif-style conditional code obfuscation whose guard
//!   hash runs on the weird machine (the second obfuscation scheme §5.2
//!   derives from the μWM SHA-1).
//! * [`detector`] — the defense side (§7): a performance-counter anomaly
//!   detector that flags μWM-like event rates, and the dilution evasion
//!   the paper predicts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod covert;
pub mod detector;
pub mod emulation;
pub mod sha1;
pub mod sharif;
pub mod wm_apt;

pub use sha1::{Sha1Batch, UwmSha1};
pub use wm_apt::{Payload, PingReport, Trigger, WmApt};
