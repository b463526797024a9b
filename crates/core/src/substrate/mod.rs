//! The [`Substrate`] abstraction: what weird gates need from an execution
//! backend.
//!
//! Gates never manipulate a concrete machine directly. They are described
//! by machine-independent *specs* ([`crate::gate::GateSpec`]) — wiring
//! addresses plus assembled program templates — and bound to a backend by
//! `spec.instantiate(&mut substrate)`. The [`Substrate`] trait is the
//! complete contract of that binding: program loading, code warming, timed
//! reads, cache flushes, and a cycle source.
//!
//! The one backend is [`uwm_sim::machine::Machine`], in either execution
//! model:
//!
//! * the full microarchitectural model (caches, speculation, TSX,
//!   predictors) — weird gates *compute* on it;
//! * [`MachineConfig::flat`](uwm_sim::machine::MachineConfig::flat) — the
//!   same ISA with fixed latencies and no speculative windows, the
//!   "emulator" of the paper's §2.1. Weird gates *degenerate* on it, which
//!   is exactly what the emulation detector exploits: the same gate spec
//!   instantiated on both models distinguishes them.
//!
//! Code is written against the trait rather than `Machine` so that a
//! pass-through wrapper (for example an instrumenting meter that times
//! every call) can stand in for the machine.

use uwm_sim::isa::{Program, Reg};
use uwm_sim::machine::{Machine, RunOutcome};
use uwm_sim::timing::LatencyConfig;

/// Alias stride of the default simulator predictor (1024 entries ×
/// 8-byte instructions): the stride a [`crate::layout::Layout`] must be
/// built for to instantiate on a default-configured `Machine`.
pub const DEFAULT_ALIAS_STRIDE: u64 = 8192;

/// An opaque capture of a backend's complete state, produced by
/// [`Substrate::snapshot`] and consumed by [`Substrate::restore`].
///
/// The capture is a boxed deep copy of the [`Machine`], which keeps the
/// trait object-safe: batch runners and the redundancy voter hold
/// `&mut dyn Substrate` and still snapshot/restore. Snapshots are not a
/// serialization format.
#[derive(Debug)]
pub struct SubstrateSnapshot(Box<Machine>);

/// Execution backend contract for weird gates, registers, and circuits.
///
/// Everything a gate does at runtime goes through this trait, so any type
/// implementing it can host an instantiated [`crate::gate::GateSpec`].
/// Methods mirror the primitive operations of the paper's weird-machine
/// construction: encode a bit (timed read vs. flush), activate a program,
/// and decode a bit (timed read against a threshold).
pub trait Substrate {
    /// Short backend identifier (diagnostics, experiment labels).
    fn backend_name(&self) -> &'static str;

    /// Installs an assembled program fragment, merging it with any code
    /// already loaded.
    fn install_program(&mut self, program: Program);

    /// Installs a program fragment from a shared reference, merging its
    /// instructions without cloning the whole [`Program`] first — the
    /// spec-binding path for `Arc`-shared gate units.
    fn install_shared(&mut self, program: &Program);

    /// Warms the instruction-side state for `[base, end)` so gate code
    /// itself never misses (its residency must stay input-independent).
    fn warm_code_range(&mut self, base: u64, end: u64);

    /// Runs installed code starting at `pc` until halt, fault, or limit.
    fn run_at(&mut self, pc: u64) -> RunOutcome;

    /// Evicts the cache line holding `addr` (stores a weird-register 0).
    fn flush_addr(&mut self, addr: u64);

    /// Loads `addr` and returns the access latency in cycles (stores a
    /// weird-register 1 and/or senses residency).
    fn timed_read(&mut self, addr: u64) -> u64;

    /// Like [`Substrate::timed_read`] but includes timestamp-read overhead
    /// — the latency a real attacker observes through `rdtscp` pairs.
    fn timed_read_tsc(&mut self, addr: u64) -> u64;

    /// Touches `addr` on the instruction side (IC-WR writes, code warming).
    fn touch_code(&mut self, addr: u64);

    /// Monotonic cycle counter.
    fn cycles(&self) -> u64;

    /// Advances time without touching gate state (contention drain).
    fn idle(&mut self, cycles: u64);

    /// Architectural 64-bit store (gate condition variables, payload data).
    fn write_word(&mut self, addr: u64, value: u64);

    /// Architectural 64-bit load.
    fn read_word(&self, addr: u64) -> u64;

    /// Sets an architectural register (pre-loading pointer operands).
    fn set_reg(&mut self, r: Reg, value: u64);

    /// The backend's latency model (threshold calibration, diagnostics).
    fn latency(&self) -> &LatencyConfig;

    /// Distance between a branch and its predictor-aliased twin; gate
    /// layouts are built for a specific stride.
    fn alias_stride(&self) -> u64;

    /// Captures the backend's complete state — architectural and
    /// microarchitectural, plus clock, randomness, statistics and trace —
    /// so that a later [`Substrate::restore`] replays every subsequent
    /// observable bit for bit.
    fn snapshot(&self) -> SubstrateSnapshot;

    /// Restores the exact state captured by [`Substrate::snapshot`].
    ///
    /// The determinism contract of batch evaluation rests on this being a
    /// *full* restore: after `restore(&snap)` the backend is
    /// indistinguishable from the one that took the snapshot, so
    /// `restore + reseed(s) + work` produces the same observables as a
    /// fresh backend built the same way and reseeded with `s`.
    ///
    /// # Panics
    ///
    /// Panics if `snap` came from a different backend type.
    fn restore(&mut self, snap: &SubstrateSnapshot);

    /// Restores machine state (registers, memory, caches, predictors,
    /// code) but keeps the clock monotonic, the noise stream advancing,
    /// and statistics/trace accumulating — rewinding *state* without
    /// rewinding *time*. Used by the redundancy voter to rerun a prepared
    /// gate under fresh noise.
    fn restore_keeping_clock(&mut self, snap: &SubstrateSnapshot);

    /// Restarts the backend's randomness from `seed`, as if it had been
    /// constructed with that seed.
    fn reseed(&mut self, seed: u64);
}

impl Substrate for Machine {
    fn backend_name(&self) -> &'static str {
        "uwm-sim"
    }

    fn install_program(&mut self, program: Program) {
        self.add_program(program);
    }

    fn install_shared(&mut self, program: &Program) {
        self.add_program_from(program);
    }

    fn warm_code_range(&mut self, base: u64, end: u64) {
        Machine::warm_code_range(self, base, end);
    }

    fn run_at(&mut self, pc: u64) -> RunOutcome {
        Machine::run_at(self, pc)
    }

    fn flush_addr(&mut self, addr: u64) {
        Machine::flush_addr(self, addr);
    }

    fn timed_read(&mut self, addr: u64) -> u64 {
        Machine::timed_read(self, addr)
    }

    fn timed_read_tsc(&mut self, addr: u64) -> u64 {
        Machine::timed_read_tsc(self, addr)
    }

    fn touch_code(&mut self, addr: u64) {
        Machine::touch_code(self, addr);
    }

    fn cycles(&self) -> u64 {
        Machine::cycles(self)
    }

    fn idle(&mut self, cycles: u64) {
        Machine::idle(self, cycles);
    }

    fn write_word(&mut self, addr: u64, value: u64) {
        self.mem_mut().write_u64(addr, value);
    }

    fn read_word(&self, addr: u64) -> u64 {
        self.mem().read_u64(addr)
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        Machine::set_reg(self, r, value);
    }

    fn latency(&self) -> &LatencyConfig {
        Machine::latency(self)
    }

    fn alias_stride(&self) -> u64 {
        self.predictor().alias_stride()
    }

    fn snapshot(&self) -> SubstrateSnapshot {
        SubstrateSnapshot(Machine::snapshot(self))
    }

    fn restore(&mut self, snap: &SubstrateSnapshot) {
        self.restore_from(&snap.0);
    }

    fn restore_keeping_clock(&mut self, snap: &SubstrateSnapshot) {
        self.restore_from_keeping_clock(&snap.0);
    }

    fn reseed(&mut self, seed: u64) {
        self.reseed_noise(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_sim::isa::{Assembler, Inst, Operand};
    use uwm_sim::machine::MachineConfig;

    fn as_substrate(s: &mut dyn Substrate) -> &mut dyn Substrate {
        s
    }

    #[test]
    fn machine_is_a_substrate() {
        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let s = as_substrate(&mut m);
        assert_eq!(s.backend_name(), "uwm-sim");
        s.write_word(0x10_0000, 42);
        assert_eq!(s.read_word(0x10_0000), 42);
        let miss = s.timed_read(0x20_0000);
        let hit = s.timed_read(0x20_0000);
        assert!(miss > hit, "machine timing is state-dependent");
    }

    #[test]
    fn both_backends_run_the_same_program() {
        let mut a = Assembler::new(0x100);
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(7),
        });
        a.push(Inst::Store {
            addr: 0x10_0000,
            src: 1,
        });
        a.push(Inst::Halt);
        let prog = a.finish().unwrap();

        for cfg in [MachineConfig::quiet(), MachineConfig::flat()] {
            let mut m = Machine::new(cfg, 0);
            let s = as_substrate(&mut m);
            s.install_program(prog.clone());
            assert_eq!(s.run_at(0x100), RunOutcome::Halted);
            assert_eq!(s.read_word(0x10_0000), 7);
        }
    }
}
