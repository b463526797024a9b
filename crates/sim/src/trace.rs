//! The architectural observer ("the analyzer").
//!
//! §2.2–2.3 of the paper grant the defender full visibility of the
//! *architectural* machine model — every committed instruction, register
//! write, and memory write — but no visibility into the MA layer or into
//! squashed speculative work. This module is that defender: the machine
//! reports committed events here, and never reports wrong-path or
//! rolled-back-transaction work. Tests use trace equality to *prove* the
//! obfuscation property instead of just asserting it.

use crate::isa::Inst;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One architecturally visible event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArchEvent {
    /// An instruction committed at `pc`.
    Commit {
        /// Address of the instruction.
        pc: u64,
        /// The instruction itself.
        inst: Inst,
    },
    /// A register was architecturally written.
    RegWrite {
        /// Register index.
        reg: u8,
        /// New value.
        value: u64,
    },
    /// A memory word was architecturally written.
    MemWrite {
        /// Byte address.
        addr: u64,
        /// New value.
        value: u64,
    },
    /// A transaction committed.
    TxCommit,
    /// A transaction aborted; control moved to `handler`. The instructions
    /// executed inside the aborted transaction are *not* in the trace —
    /// exactly the debugger-blindness the paper describes in §4.
    TxAbort {
        /// Abort-handler address control transferred to.
        handler: u64,
    },
    /// A fault terminated the program (outside any transaction).
    Fault {
        /// Faulting instruction address.
        pc: u64,
    },
}

/// Records the architecturally visible event stream.
///
/// # Examples
///
/// ```
/// use uwm_sim::trace::{ArchEvent, Tracer};
/// let mut t = Tracer::new();
/// t.record(ArchEvent::TxCommit);
/// assert_eq!(t.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    events: Vec<ArchEvent>,
    /// Events staged inside an open transaction (invisible until commit).
    tx_buffer: Vec<ArchEvent>,
    in_tx: bool,
    enabled: bool,
}

impl Tracer {
    /// A new, enabled tracer.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A tracer that drops everything. The machine checks
    /// [`Tracer::is_enabled`] before it builds an event, so while tracing
    /// is off a step pays one predictable branch per event site and no
    /// call.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records an event (staged if a transaction is open).
    pub fn record(&mut self, ev: ArchEvent) {
        if !self.enabled {
            return;
        }
        if self.in_tx {
            self.tx_buffer.push(ev);
        } else {
            self.events.push(ev);
        }
    }

    /// A transaction opened: start staging events.
    pub fn begin_tx(&mut self) {
        self.in_tx = true;
        self.tx_buffer.clear();
    }

    /// The transaction committed: staged events become visible.
    pub fn commit_tx(&mut self) {
        if self.enabled {
            self.events.append(&mut self.tx_buffer);
            self.events.push(ArchEvent::TxCommit);
        }
        self.in_tx = false;
        self.tx_buffer.clear();
    }

    /// The transaction aborted: staged events vanish; only the abort and
    /// its handler address are visible.
    pub fn abort_tx(&mut self, handler: u64) {
        self.tx_buffer.clear();
        self.in_tx = false;
        if self.enabled {
            self.events.push(ArchEvent::TxAbort { handler });
        }
    }

    /// The committed event stream.
    pub fn events(&self) -> &[ArchEvent] {
        &self.events
    }

    /// Drops all recorded events (keeps enabled state).
    pub fn clear(&mut self) {
        self.events.clear();
        self.tx_buffer.clear();
        self.in_tx = false;
    }

    /// A 64-bit digest of the event stream — convenient for comparing two
    /// runs without holding both traces.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.events.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64) -> ArchEvent {
        ArchEvent::Commit {
            pc,
            inst: Inst::Nop,
        }
    }

    #[test]
    fn records_in_order() {
        let mut t = Tracer::new();
        t.record(ev(0));
        t.record(ev(8));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0], ev(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(ev(0));
        assert!(t.events().is_empty());
    }

    #[test]
    fn committed_tx_exposes_events() {
        let mut t = Tracer::new();
        t.begin_tx();
        t.record(ev(0));
        t.commit_tx();
        assert_eq!(t.events().len(), 2); // Commit + TxCommit
        assert!(matches!(t.events()[1], ArchEvent::TxCommit));
    }

    #[test]
    fn aborted_tx_hides_events() {
        let mut t = Tracer::new();
        t.begin_tx();
        t.record(ev(0));
        t.record(ev(8));
        t.abort_tx(0x9000);
        assert_eq!(t.events(), &[ArchEvent::TxAbort { handler: 0x9000 }]);
    }

    #[test]
    fn fingerprint_distinguishes_and_matches() {
        let mut a = Tracer::new();
        let mut b = Tracer::new();
        a.record(ev(0));
        b.record(ev(0));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(ev(8));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::new();
        t.record(ev(0));
        t.clear();
        assert!(t.events().is_empty());
        assert!(t.is_enabled());
    }
}
