//! A pass-through [`Substrate`] that counts (and, when traced, times) every
//! trait call it forwards to a [`Machine`].
//!
//! The meter is the benchmark's view into the circuit path: it is the
//! backend a `BatchRunner` factory hands out, and the substrate the
//! `wm_apt` voter replica decodes on. It never changes what the machine
//! sees — every call is forwarded unchanged, in order — so simulated
//! observables are identical with and without it; the fingerprint checks
//! prove that per run.
//!
//! A pooled meter (one per `BatchRunner` shard) also splits its shard's
//! life into pool setup (construction up to the first `restore`) and
//! items, where an item runs from `reseed` to the runner's `cycles()` read
//! and is keyed by the reseed value. On drop it hands its [`ShardLog`] to
//! the shared [`Sink`].

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use uwm_core::substrate::{Substrate, SubstrateSnapshot};
use uwm_sim::isa::{Program, Reg};
use uwm_sim::machine::{Machine, MachineStats, RunOutcome};
use uwm_sim::timing::LatencyConfig;

/// Substrate calls with a slot of their own. Trivial accessors (clock,
/// word reads and writes, registers) are forwarded without accounting:
/// timing them would cost more than they do.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Install,
    WarmCodeRange,
    RunAt,
    FlushAddr,
    /// `timed_read` and `timed_read_tsc`.
    TimedRead,
    TouchCode,
    Snapshot,
    Restore,
    RestoreKeepingClock,
    Reseed,
}

/// Per-layer metric prefix of each [`Op`] slot, in slot order.
pub const OP_NAMES: [&str; 10] = [
    "sim.install",
    "sim.warm_code_range",
    "sim.run_at",
    "sim.flush_addr",
    "sim.timed_read",
    "sim.touch_code",
    "sim.snapshot",
    "sim.restore",
    "sim.restore_keeping_clock",
    "sim.reseed",
];

/// Calls and host nanoseconds spent in one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl Acc {
    pub fn add(&mut self, other: Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Adds one call that started at `t0` (untimed when `t0` is `None`).
    pub fn record(&mut self, t0: Option<Instant>) {
        self.calls += 1;
        if let Some(t0) = t0 {
            self.ns += nanos(t0.elapsed());
        }
    }
}

/// One [`Acc`] per [`Op`].
#[derive(Debug, Clone, Default)]
pub struct OpTable(pub [Acc; OP_NAMES.len()]);

impl OpTable {
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|a| a.ns).sum()
    }
}

/// What one pooled meter saw over its shard's life.
#[derive(Debug, Clone, Default)]
pub struct ShardLog {
    /// Order in which the shard's meter was created.
    pub shard: usize,
    /// Calls made while binding the plan (install, warm, calibration,
    /// snapshot).
    pub setup: OpTable,
    /// Calls made while items ran.
    pub items: OpTable,
    /// Meter creation to the first `restore`: the shard's pool setup.
    pub setup_ns: u64,
    /// Meter creation to drop.
    pub busy_ns: u64,
    /// `reseed` end to the `cycles()` read, summed over items: the
    /// circuit run, substrate calls included.
    pub circuit_run_ns: u64,
    /// The substrate-call part of `circuit_run_ns`.
    pub circuit_run_child_ns: u64,
    /// `(reseed value, MachineStats delta)` of every item, in run order.
    pub item_stats: Vec<(u64, MachineStats)>,
}

/// Where pooled meters deposit their logs when their shard ends.
#[derive(Debug, Default)]
pub struct Sink {
    logs: Mutex<Vec<ShardLog>>,
    created: AtomicUsize,
}

impl Sink {
    fn next_shard(&self) -> usize {
        self.created.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes every deposited log, in shard-creation order.
    pub fn drain(&self) -> Vec<ShardLog> {
        let mut logs =
            std::mem::take(&mut *self.logs.lock().unwrap_or_else(PoisonError::into_inner));
        logs.sort_by_key(|l| l.shard);
        logs
    }
}

struct OpenItem {
    seed: u64,
    stats: MachineStats,
    start: Option<Instant>,
    child_ns: u64,
}

/// The pass-through substrate. `M` is an owned [`Machine`] (pooled
/// meters) or a `&mut Machine` borrowed from a framework that owns it.
pub struct Meter<'a, M: BorrowMut<Machine>> {
    m: M,
    timed: bool,
    created: Instant,
    in_items: bool,
    log: ShardLog,
    open: Option<OpenItem>,
    item_end: Cell<Option<Instant>>,
    /// `snapshot` takes `&self`; its calls wait here until folded into the
    /// current phase's table.
    snapshots: Cell<Acc>,
    sink: Option<&'a Sink>,
}

impl<'a> Meter<'a, Machine> {
    /// A `BatchRunner` shard's backend. `created` is when the factory
    /// started, so machine construction counts as pool setup.
    pub fn pooled(m: Machine, timed: bool, created: Instant, sink: &'a Sink) -> Self {
        let mut meter = Self::new(m, timed, false, created);
        meter.log.shard = sink.next_shard();
        meter.sink = Some(sink);
        meter
    }
}

impl<'a, M: BorrowMut<Machine>> Meter<'a, M> {
    /// A timed meter over a machine someone else owns; every call counts
    /// as item work.
    pub fn borrowed(m: M) -> Self {
        Self::new(m, true, true, Instant::now())
    }

    fn new(m: M, timed: bool, in_items: bool, created: Instant) -> Self {
        Self {
            m,
            timed,
            created,
            in_items,
            log: ShardLog::default(),
            open: None,
            item_end: Cell::new(None),
            snapshots: Cell::new(Acc::default()),
            sink: None,
        }
    }

    /// The machine behind the meter, for architectural access the
    /// substrate contract does not cover.
    pub fn machine(&mut self) -> &mut Machine {
        self.m.borrow_mut()
    }

    /// Calls accounted so far in the item phase.
    pub fn item_ops(&mut self) -> &OpTable {
        self.fold_snapshots();
        &self.log.items
    }

    fn fold_snapshots(&mut self) {
        let acc = self.snapshots.take();
        self.table().0[Op::Snapshot as usize].add(acc);
    }

    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn table(&mut self) -> &mut OpTable {
        if self.in_items {
            &mut self.log.items
        } else {
            &mut self.log.setup
        }
    }

    fn call<R>(&mut self, op: Op, f: impl FnOnce(&mut Machine) -> R) -> R {
        let t0 = self.start();
        let r = f(self.m.borrow_mut());
        self.table().0[op as usize].record(t0);
        r
    }

    fn close_item(&mut self) {
        let Some(item) = self.open.take() else { return };
        let stats = stats_delta(self.m.borrow().stats(), item.stats);
        self.log.item_stats.push((item.seed, stats));
        if let Some(start) = item.start {
            let end = self.item_end.take().unwrap_or_else(Instant::now);
            self.log.circuit_run_ns += nanos(end.duration_since(start));
            self.log.circuit_run_child_ns += self.log.items.total_ns() - item.child_ns;
        }
    }
}

impl<M: BorrowMut<Machine>> Drop for Meter<'_, M> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        self.close_item();
        self.fold_snapshots();
        self.log.busy_ns = nanos(self.created.elapsed());
        if !self.in_items {
            self.log.setup_ns = self.log.busy_ns;
        }
        let log = std::mem::take(&mut self.log);
        sink.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(log);
    }
}

impl<M: BorrowMut<Machine>> Substrate for Meter<'_, M> {
    fn backend_name(&self) -> &'static str {
        self.m.borrow().backend_name()
    }

    fn install_program(&mut self, program: Program) {
        self.call(Op::Install, |m| m.install_program(program));
    }

    fn install_shared(&mut self, program: &Program) {
        self.call(Op::Install, |m| m.install_shared(program));
    }

    fn warm_code_range(&mut self, base: u64, end: u64) {
        self.call(Op::WarmCodeRange, |m| {
            Machine::warm_code_range(m, base, end)
        });
    }

    fn run_at(&mut self, pc: u64) -> RunOutcome {
        self.call(Op::RunAt, |m| Machine::run_at(m, pc))
    }

    fn flush_addr(&mut self, addr: u64) {
        self.call(Op::FlushAddr, |m| Machine::flush_addr(m, addr));
    }

    fn timed_read(&mut self, addr: u64) -> u64 {
        self.call(Op::TimedRead, |m| Machine::timed_read(m, addr))
    }

    fn timed_read_tsc(&mut self, addr: u64) -> u64 {
        self.call(Op::TimedRead, |m| Machine::timed_read_tsc(m, addr))
    }

    fn touch_code(&mut self, addr: u64) {
        self.call(Op::TouchCode, |m| Machine::touch_code(m, addr));
    }

    fn cycles(&self) -> u64 {
        if self.open.is_some() && self.timed {
            self.item_end.set(Some(Instant::now()));
        }
        Machine::cycles(self.m.borrow())
    }

    fn idle(&mut self, cycles: u64) {
        Machine::idle(self.m.borrow_mut(), cycles);
    }

    fn write_word(&mut self, addr: u64, value: u64) {
        self.m.borrow_mut().write_word(addr, value);
    }

    fn read_word(&self, addr: u64) -> u64 {
        self.m.borrow().read_word(addr)
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        Machine::set_reg(self.m.borrow_mut(), r, value);
    }

    fn latency(&self) -> &LatencyConfig {
        Machine::latency(self.m.borrow())
    }

    fn alias_stride(&self) -> u64 {
        self.m.borrow().alias_stride()
    }

    fn snapshot(&self) -> SubstrateSnapshot {
        let t0 = self.start();
        let snap = Substrate::snapshot(self.m.borrow());
        let mut acc = self.snapshots.get();
        acc.record(t0);
        self.snapshots.set(acc);
        snap
    }

    fn restore(&mut self, snap: &SubstrateSnapshot) {
        self.close_item();
        if !self.in_items {
            self.fold_snapshots();
            self.log.setup_ns = nanos(self.created.elapsed());
            self.in_items = true;
        }
        self.call(Op::Restore, |m| m.restore(snap));
    }

    fn restore_keeping_clock(&mut self, snap: &SubstrateSnapshot) {
        self.call(Op::RestoreKeepingClock, |m| m.restore_keeping_clock(snap));
    }

    fn reseed(&mut self, seed: u64) {
        self.call(Op::Reseed, |m| m.reseed(seed));
        if self.sink.is_some() {
            self.open = Some(OpenItem {
                seed,
                stats: self.m.borrow().stats(),
                start: self.start(),
                child_ns: self.log.items.total_ns(),
            });
        }
    }
}

/// `after - before`, field by field.
pub fn stats_delta(after: MachineStats, before: MachineStats) -> MachineStats {
    MachineStats {
        committed_insts: after.committed_insts - before.committed_insts,
        speculative_insts: after.speculative_insts - before.speculative_insts,
        mispredicts: after.mispredicts - before.mispredicts,
        tx_begun: after.tx_begun - before.tx_begun,
        tx_aborted: after.tx_aborted - before.tx_aborted,
        tx_spurious_aborts: after.tx_spurious_aborts - before.tx_spurious_aborts,
    }
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
