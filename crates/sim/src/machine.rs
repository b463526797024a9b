//! The simulated machine: fetch/execute engine with branch-mispredict
//! speculation, TSX transactions with post-fault speculative windows, and a
//! cycle counter whose variations carry the μWM's data.
//!
//! Two execution models are supported:
//!
//! * [`ExecutionModel::Microarchitectural`] — the full model. Caches,
//!   predictors, speculative windows and contention all modulate timing.
//! * [`ExecutionModel::Flat`] — an "emulator": architecturally identical,
//!   but every operation takes a fixed latency and nothing is speculated.
//!   μWM computations degenerate on it, which is the paper's
//!   emulation-detection use case (§2.1).
//!
//! The microarchitecture is one fixed design: the cache [`Hierarchy`]
//! (split tree-PLRU L1s, LRU L2 and L3), a bimodal [`DirectionPredictor`]
//! and a direct-mapped [`Btb`]. [`MachineConfig`] varies only latencies,
//! noise, the execution model and the predecode switch.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::branch::{Btb, DirectionPredictor};
use crate::cache::RestoreScope;
use crate::contention::Contention;
use crate::hierarchy::{Hierarchy, HitLevel};
use crate::isa::{brz_target, AluOp, Inst, Operand, Program, Reg, INST_SIZE, NUM_REGS};
use crate::memory::Memory;
use crate::predecode::{CodeCache, PageMemo};
use crate::timing::{LatencyConfig, NoiseConfig, NoiseGen};
use crate::trace::{ArchEvent, Tracer};

/// Maximum number of instructions executed inside one speculative window,
/// regardless of timing (hardware bounds this by ROB capacity).
pub const MAX_SPEC_INSTS: usize = 256;

/// Speculative source ready-time for values that never arrive.
const NEVER: u64 = u64::MAX / 2;

/// Whether the machine models the microarchitecture or emulates flatly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionModel {
    /// Full MA modelling (caches, speculation, TSX windows, contention).
    #[default]
    Microarchitectural,
    /// Flat emulation: fixed latencies, no speculation, no MA state. This
    /// is what a conventional emulator/analyzer implements.
    Flat,
}

/// Machine construction parameters. The microarchitecture itself is
/// fixed: the [`Hierarchy`]'s geometry and policies, a 1024-entry
/// bimodal [`DirectionPredictor`] and a 512-entry [`Btb`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// Disturbance model.
    pub noise: NoiseConfig,
    /// Execution model.
    pub model: ExecutionModel,
    /// Serve fetches from the predecoded instruction cache (host-side
    /// fast path; never affects timing or decoding — kept as a switch so
    /// tests can prove equivalence against the slow path).
    pub predecode: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            latency: LatencyConfig::default(),
            noise: NoiseConfig::default(),
            model: ExecutionModel::default(),
            predecode: true,
        }
    }
}

impl MachineConfig {
    /// A noise-free configuration, for deterministic logic tests.
    pub fn quiet() -> Self {
        Self {
            noise: NoiseConfig::quiet(),
            ..Self::default()
        }
    }

    /// A flat "emulator" configuration (see [`ExecutionModel::Flat`]).
    pub fn flat() -> Self {
        Self {
            model: ExecutionModel::Flat,
            noise: NoiseConfig::quiet(),
            ..Self::default()
        }
    }
}

/// Why a fault occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// Division by zero.
    DivByZero,
    /// Undecodable or unassigned instruction encoding.
    InvalidInstruction,
    /// `Xend` with no open transaction, or nested `Xbegin`.
    TxMisuse,
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::DivByZero => write!(f, "division by zero"),
            FaultCause::InvalidInstruction => write!(f, "invalid instruction"),
            FaultCause::TxMisuse => write!(f, "transaction misuse"),
        }
    }
}

/// How a [`Machine::run_at`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// `Halt` executed.
    Halted,
    /// A fault occurred outside any transaction.
    Fault {
        /// Faulting instruction address.
        pc: u64,
        /// Fault classification.
        cause: FaultCause,
    },
    /// The step budget was exhausted (runaway program).
    StepLimit,
}

/// Statistics the machine accumulates (not architecturally visible).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Committed (non-speculative) instructions.
    pub committed_insts: u64,
    /// Instructions executed on squashed speculative paths.
    pub speculative_insts: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Transactions begun.
    pub tx_begun: u64,
    /// Transactions aborted (fault or spurious).
    pub tx_aborted: u64,
    /// Spurious (noise-injected) transaction aborts.
    pub tx_spurious_aborts: u64,
}

/// State saved while a transaction is open.
#[derive(Debug)]
struct TxState {
    handler: u64,
    saved_regs: [u64; NUM_REGS],
    /// `(addr, previous value)` undo log for 64-bit stores. The backing
    /// allocation is recycled through [`Machine::undo_pool`] so steady-state
    /// transactions allocate nothing.
    undo_log: Vec<(u64, u64)>,
    /// This transaction was doomed at `Xbegin` by the noise model.
    doomed: bool,
}

clone_by_field!(TxState {
    handler,
    saved_regs,
    undo_log,
    doomed
});

/// Inline capacity of [`InflightTable`]; speculative windows track at most
/// a handful of distinct lines, so spilling is rare.
const INFLIGHT_INLINE: usize = 8;

/// In-flight line fills of one speculative window: `(is_inst, line)` →
/// data-ready time. A fixed-capacity linear-scan table (plus an overflow
/// vector that keeps its allocation across windows) — windows touch so few
/// lines that scanning beats hashing, and reuse makes it allocation-free.
#[derive(Debug, Default)]
struct InflightTable {
    len: usize,
    keys: [(bool, u64); INFLIGHT_INLINE],
    done: [u64; INFLIGHT_INLINE],
    spill: Vec<((bool, u64), u64)>,
}

impl InflightTable {
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    fn get(&self, key: (bool, u64)) -> Option<u64> {
        for i in 0..self.len {
            if self.keys[i] == key {
                return Some(self.done[i]);
            }
        }
        self.spill.iter().find(|(k, _)| *k == key).map(|&(_, d)| d)
    }

    /// Inserts a key the caller has already checked is absent.
    fn insert(&mut self, key: (bool, u64), done: u64) {
        if self.len < INFLIGHT_INLINE {
            self.keys[self.len] = key;
            self.done[self.len] = done;
            self.len += 1;
        } else {
            self.spill.push((key, done));
        }
    }
}

/// Source of snapshot ids; 0 is never handed out and means "none".
/// The ids publish no other data, so `Relaxed` increments suffice.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(1);

/// Which snapshot the caches' dirty-set lists are relative to. Every id
/// names the state of one snapshot at the moment it was taken, `R(id)`.
///
/// * `anchor`: the machine differs from `R(anchor)` only in its caches'
///   dirty sets (0: unknown, so the next restore copies everything).
/// * `id`, `base_anchor` (snapshots only): `R(id)` differs from
///   `R(base_anchor)` only in the caches' base lists.
///
/// Both hold for a derived `Clone` too, since a copy is the same state.
#[derive(Debug, Clone, Copy, Default)]
struct Lineage {
    anchor: u64,
    id: u64,
    base_anchor: u64,
}

/// Reusable speculative-window scratch owned by the machine, so opening a
/// window allocates nothing in steady state. Each window clears it before
/// use, so it holds nothing between windows: restores leave it alone and a
/// copy starts empty.
#[derive(Debug, Default)]
struct SpecScratch {
    /// Store buffer: `(addr, value, value-ready time)`.
    store_buf: Vec<(u64, u64, u64)>,
    /// In-flight line fills.
    inflight: InflightTable,
}

impl Clone for SpecScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Where fetches come from: the static program, its predecode cache and
/// the fetch's one-entry page memo into that cache. The memo is reset
/// whenever `code` is rebuilt or replaced by another cache.
#[derive(Debug, Clone, Default)]
struct Fetch {
    /// Fixed after set-up, so snapshots share it instead of copying it.
    program: Arc<Program>,
    /// Copy-on-write: cloned only if written while a snapshot shares it.
    code: Arc<CodeCache>,
    memo: PageMemo,
}

impl Fetch {
    /// Replaces the program and predecodes it.
    fn load(&mut self, program: Program) {
        self.program = Arc::new(program);
        Arc::make_mut(&mut self.code).rebuild(&self.program);
        self.memo.reset();
    }

    /// Shares `snap`'s program and predecode cache.
    fn restore_from(&mut self, snap: &Fetch) {
        share(&mut self.program, &snap.program);
        if !Arc::ptr_eq(&self.code, &snap.code) {
            self.code = Arc::clone(&snap.code);
            self.memo.reset();
        }
    }

    /// The instruction at `pc`: from the predecode cache when `predecode`
    /// is on and the slot is filled, otherwise through [`Fetch::slow`].
    #[inline]
    fn inst(&mut self, pc: u64, mem: &Memory, predecode: bool) -> Inst {
        if predecode {
            if let Some(i) = self.code.lookup_memo(pc, &mut self.memo) {
                return i;
            }
        }
        self.slow(pc, mem, predecode)
    }

    /// Slow-path fetch: consults the program, then decodes memory bytes;
    /// installs the result into the predecode cache when `predecode` is on.
    fn slow(&mut self, pc: u64, mem: &Memory, predecode: bool) -> Inst {
        if let Some(i) = self.program.get(pc) {
            if predecode {
                Arc::make_mut(&mut self.code).install_static(pc, i);
            }
            return i;
        }
        let inst = Inst::decode(&mem.read_array(pc));
        if predecode {
            Arc::make_mut(&mut self.code).install_dynamic(pc, inst);
        }
        inst
    }

    /// A 64-bit store landed at `addr`: drop the dynamic slots it overlaps.
    fn invalidate(&mut self, addr: u64) {
        if self.code.has_dynamic() {
            Arc::make_mut(&mut self.code).invalidate_bytes(addr, 8);
        }
    }
}

/// The simulated CPU.
///
/// # Examples
///
/// ```
/// use uwm_sim::isa::{Assembler, Inst, Operand};
/// use uwm_sim::machine::{Machine, MachineConfig, RunOutcome};
///
/// let mut m = Machine::new(MachineConfig::quiet(), 0);
/// let mut a = Assembler::new(0x1000);
/// a.push(Inst::Mov { dst: 0, src: Operand::Imm(21) });
/// a.push(Inst::Alu { op: uwm_sim::isa::AluOp::Add, dst: 0, a: 0, b: Operand::Reg(0) });
/// a.push(Inst::Halt);
/// m.load_program(a.finish().unwrap());
/// assert_eq!(m.run_at(0x1000), RunOutcome::Halted);
/// assert_eq!(m.reg(0), 42);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    regs: [u64; NUM_REGS],
    mem: Memory,
    hier: Hierarchy,
    bp: DirectionPredictor,
    btb: Btb,
    contention: Contention,
    noise: NoiseGen,
    tracer: Tracer,
    fetch: Fetch,
    cycles: u64,
    tx: Option<TxState>,
    stats: MachineStats,
    step_limit: u64,
    spec_scratch: SpecScratch,
    undo_pool: Vec<(u64, u64)>,
    lineage: Lineage,
}

impl Machine {
    /// Creates a machine with the given configuration and noise seed.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        Self {
            regs: [0; NUM_REGS],
            mem: Memory::new(),
            hier: Hierarchy::new(),
            bp: DirectionPredictor::new(1024),
            btb: Btb::new(512),
            contention: Contention::new(),
            noise: NoiseGen::new(cfg.noise.clone(), seed),
            tracer: Tracer::disabled(),
            fetch: Fetch::default(),
            cycles: 0,
            tx: None,
            stats: MachineStats::default(),
            step_limit: 10_000_000,
            spec_scratch: SpecScratch::default(),
            undo_pool: Vec::new(),
            lineage: Lineage::default(),
            cfg,
        }
    }

    /// Shorthand for a default-config machine with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(MachineConfig::default(), seed)
    }

    // ------------------------------------------------------------------
    // Program and memory management
    // ------------------------------------------------------------------

    /// Replaces the loaded program and predecodes it.
    pub fn load_program(&mut self, program: Program) {
        self.fetch.load(program);
    }

    /// Merges additional code into the loaded program and predecodes it
    /// (the added code only; see [`CodeCache::add_static`]).
    pub fn add_program(&mut self, program: Program) {
        Arc::make_mut(&mut self.fetch.code).add_static(&program);
        Arc::make_mut(&mut self.fetch.program).merge(program);
    }

    /// Merges additional code from a shared reference and predecodes it —
    /// no intermediate [`Program`] clone.
    pub fn add_program_from(&mut self, program: &Program) {
        Arc::make_mut(&mut self.fetch.program).merge_from(program);
        Arc::make_mut(&mut self.fetch.code).add_static(program);
    }

    /// The loaded static program.
    pub fn program(&self) -> &Program {
        &self.fetch.program
    }

    /// Direct memory access (the "operating system" view; no MA effects).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable direct memory access (no MA effects). Writes through this
    /// handle cannot be intercepted per address, so dynamically decoded
    /// instructions are dropped from the predecode cache up front.
    pub fn mem_mut(&mut self) -> &mut Memory {
        if self.fetch.code.has_dynamic() {
            Arc::make_mut(&mut self.fetch.code).drop_dynamic();
        }
        &mut self.mem
    }

    /// Reads register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= NUM_REGS`.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    /// Writes register `r` (no trace event; host-side setup).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r as usize] = value;
    }

    /// The current cycle counter.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The architectural trace recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the trace recorder (enable/clear).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Ground-truth MA state (tests / omniscient-analyzer experiments).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Ground-truth predictor state.
    pub fn predictor(&self) -> &DirectionPredictor {
        &self.bp
    }

    /// Sets the per-run step budget.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The latency configuration.
    pub fn latency(&self) -> &LatencyConfig {
        &self.cfg.latency
    }

    // ------------------------------------------------------------------
    // Host-side MA helpers (equivalent to tiny setup programs)
    // ------------------------------------------------------------------

    /// `clflush addr` performed by the host harness.
    pub fn flush_addr(&mut self, addr: u64) {
        self.hier.flush(addr);
        self.cycles += self.cfg.latency.clflush;
    }

    /// Touches `addr` as data (fills D-side caches), returning the access
    /// latency in cycles — the timed-load read primitive of §3.1.
    pub fn timed_read(&mut self, addr: u64) -> u64 {
        let lat = self.data_access(addr, true);
        self.cycles += lat;
        lat
    }

    /// Timed load as a μWM would really perform it — an `rdtscp`-bracketed
    /// load — so the returned delay includes the timestamp overhead, like
    /// the delay columns of the paper's Tables 6–7.
    pub fn timed_read_tsc(&mut self, addr: u64) -> u64 {
        let lat = self.data_access(addr, true) + self.cfg.latency.rdtscp;
        self.cycles += lat;
        lat
    }

    /// Touches a code address (fills L1I path).
    pub fn touch_code(&mut self, addr: u64) {
        let lat = self.inst_access(addr);
        self.cycles += lat;
    }

    /// Advances the cycle counter without doing anything (models idle
    /// time; lets contention-based WRs decay).
    pub fn idle(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Prefetches every code line in `[base, end)` into the I-cache —
    /// run-time initialization of freshly assembled stubs, so their first
    /// execution isn't perturbed by cold-fetch misses.
    pub fn warm_code_range(&mut self, base: u64, end: u64) {
        let mut line = base & !(crate::cache::LINE_SIZE - 1);
        while line < end {
            self.touch_code(line);
            line += crate::cache::LINE_SIZE;
        }
        // Predecode the range too (no timing effect): freshly assembled
        // stubs are typically executed right after warming.
        if self.cfg.predecode {
            let mut pc = base - base % INST_SIZE;
            while pc < end {
                if self.fetch.code.lookup(pc).is_none() {
                    self.fetch.slow(pc, &self.mem, true);
                }
                pc += INST_SIZE;
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (batch evaluation support)
    // ------------------------------------------------------------------

    /// Captures the machine's complete state: architectural (registers,
    /// memory, loaded program) and microarchitectural (caches, predictors,
    /// predecode cache, in-flight transaction), plus the clock, noise RNG,
    /// statistics and tracer. A machine restored from the snapshot
    /// reproduces every subsequent observable bit for bit.
    ///
    /// The copy is a fresh allocation and full, except that the program
    /// and the predecode cache are shared rather than copied. It gets a
    /// fresh snapshot id and records which cache sets it differs in from
    /// this machine's anchor (the snapshot this machine was last restored
    /// from), so a machine on that anchor can later restore from it by
    /// copying only those sets. A snapshot stays exact if it is run
    /// afterwards. [`Machine::snapshot_into`] takes the same snapshot into
    /// an existing machine.
    pub fn snapshot(&self) -> Box<Machine> {
        let mut snap = Box::new(self.clone());
        self.label_snapshot(&mut snap);
        snap
    }

    /// Takes [`Machine::snapshot`] into `snap`, overwriting it in place
    /// through [`Machine::restore_from`]: the result equals a fresh
    /// snapshot in every observable and in its snapshot bookkeeping,
    /// apart from the id.
    ///
    /// The cost follows `restore_from`'s scope. When `snap` is a retired
    /// snapshot this machine was last restored from (the redundancy
    /// voter's previous bit), only the cache sets this machine wrote since
    /// are copied; any other `snap` is copied whole, which costs no more
    /// than `snapshot` does.
    pub fn snapshot_into(&self, snap: &mut Machine) {
        snap.restore_from(self);
        self.label_snapshot(snap);
    }

    /// Makes a copy of this machine a snapshot: a fresh id, and the
    /// sets written since this machine's anchor become its base list.
    fn label_snapshot(&self, snap: &mut Machine) {
        let id = NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed);
        snap.lineage = Lineage {
            anchor: id,
            id,
            base_anchor: self.lineage.anchor,
        };
        snap.hier.rebase();
    }

    /// Restores every field from `snap`, reusing existing allocations, so
    /// repeated restores in a batch loop cost memcpy, not malloc.
    ///
    /// The program and predecode cache become pointer copies of `snap`'s.
    /// The caches copy only the sets that may differ:
    ///
    /// * this machine and `snap` share an anchor (for instance, this
    ///   machine was last restored from `snap`): the sets either one
    ///   wrote since that anchor;
    /// * `snap` was taken from a machine on this machine's anchor (the
    ///   redundancy voter's snapshot of a machine itself restored from a
    ///   batch snapshot): those sets plus the ones `snap` differed in
    ///   from the anchor when it was taken;
    /// * otherwise (the first restore of a machine): every set.
    ///
    /// Afterwards this machine is anchored where `snap` is. Memory copies
    /// every page resident in `snap`; the predictor, the BTB and the rest
    /// are copied whole. The snapshot id is not copied; a snapshot
    /// restored over gets a new one from [`Machine::snapshot_into`].
    pub fn restore_from(&mut self, snap: &Machine) {
        self.restore_state(snap);
        self.cfg = snap.cfg.clone();
        self.noise = snap.noise.clone();
        self.tracer.clone_from(&snap.tracer);
        self.cycles = snap.cycles;
        self.stats = snap.stats;
        self.step_limit = snap.step_limit;
    }

    /// Like [`Machine::restore_from`], but preserves the monotonic clock,
    /// the noise RNG stream, accumulated statistics and the tracer —
    /// rewinding *state* without rewinding *time*. This is the redundancy
    /// voter's per-trial reset: every sample restarts from identical
    /// machine state while the noise draws keep advancing. The caches
    /// copy only the sets that may differ, as in `restore_from`.
    pub fn restore_from_keeping_clock(&mut self, snap: &Machine) {
        self.restore_state(snap);
    }

    /// The state both restores rewind.
    fn restore_state(&mut self, snap: &Machine) {
        let (me, it) = (self.lineage, snap.lineage);
        let scope = if me.anchor != 0 && me.anchor == it.anchor {
            RestoreScope::Dirty
        } else if it.id != 0
            && it.anchor == it.id
            && it.base_anchor != 0
            && me.anchor == it.base_anchor
        {
            RestoreScope::DirtyAndBase
        } else {
            RestoreScope::Full
        };
        self.hier.restore_from(&snap.hier, scope);
        self.lineage.anchor = it.anchor;
        self.regs = snap.regs;
        self.mem.restore_from(&snap.mem);
        self.bp.clone_from(&snap.bp);
        self.btb.clone_from(&snap.btb);
        self.contention = snap.contention.clone();
        self.fetch.restore_from(&snap.fetch);
        self.tx.clone_from(&snap.tx);
        self.undo_pool.clone_from(&snap.undo_pool);
    }

    /// Restarts the noise RNG stream from `seed`, keeping the noise
    /// configuration. Combined with [`Machine::restore_from`] this gives
    /// each item of a batched input stream its own deterministic noise
    /// sequence, identical to a fresh machine reseeded the same way.
    pub fn reseed_noise(&mut self, seed: u64) {
        self.noise.reseed(seed);
    }

    // ------------------------------------------------------------------
    // Latency helpers
    // ------------------------------------------------------------------

    /// Non-speculative data access: fills caches, returns latency.
    fn data_access(&mut self, addr: u64, timed: bool) -> u64 {
        if self.cfg.model == ExecutionModel::Flat {
            return self.cfg.latency.l1;
        }
        let level = self.hier.access_data(addr);
        let mut lat = level_latency(&self.cfg.latency, level) + self.noise.mem_jitter();
        if timed {
            lat += self.noise.interrupt_spike();
        }
        lat
    }

    /// Non-speculative instruction fetch: fills L1I path, returns latency.
    fn inst_access(&mut self, addr: u64) -> u64 {
        if self.cfg.model == ExecutionModel::Flat {
            return 1;
        }
        let level = self.hier.access_inst(addr);
        level_latency(&self.cfg.latency, level) + self.noise.mem_jitter()
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    #[inline]
    fn operand(&self, op: Operand) -> u64 {
        operand_in(&self.regs, op)
    }

    fn alu_eval(op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
        }
    }

    /// Runs the loaded program starting at `pc` until `Halt`, a fault
    /// outside a transaction, or the step limit.
    pub fn run_at(&mut self, mut pc: u64) -> RunOutcome {
        let mut steps = 0u64;
        loop {
            if steps >= self.step_limit {
                return RunOutcome::StepLimit;
            }
            steps += 1;
            match self.step(pc) {
                StepResult::Continue(next) => pc = next,
                StepResult::Halted => return RunOutcome::Halted,
                StepResult::Fault(cause) => {
                    if self.tx.is_some() {
                        pc = self.tsx_abort_with_window(pc);
                    } else {
                        if self.tracer.is_enabled() {
                            self.tracer.record(ArchEvent::Fault { pc });
                        }
                        return RunOutcome::Fault { pc, cause };
                    }
                }
            }
        }
    }

    fn step(&mut self, pc: u64) -> StepResult {
        self.cycles += self.inst_access(pc);
        let inst = self.fetch.inst(pc, &self.mem, self.cfg.predecode);
        self.stats.committed_insts += 1;
        if self.tracer.is_enabled() {
            self.tracer.record(ArchEvent::Commit { pc, inst });
        }
        let lat = &self.cfg.latency;
        let next = pc + INST_SIZE;
        match inst {
            Inst::Nop => {
                self.cycles += lat.alu;
                StepResult::Continue(next)
            }
            Inst::Halt => {
                if self.tx.is_some() {
                    // As on real hardware, a syscall-class event inside a
                    // transaction aborts it; control resumes at the abort
                    // handler instead of halting.
                    let handler = self.tsx_abort_rollback(false);
                    return StepResult::Continue(handler);
                }
                StepResult::Halted
            }
            Inst::Mov { dst, src } => {
                let v = self.operand(src);
                self.cycles += lat.alu;
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::Alu { op, dst, a, b } => {
                let v = Self::alu_eval(op, self.regs[a as usize], self.operand(b));
                self.cycles += lat.alu;
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::Mul { dst, a, b } => {
                let v = self.regs[a as usize].wrapping_mul(self.operand(b));
                if self.cfg.model == ExecutionModel::Microarchitectural {
                    let delay = self.contention.mul_delay(self.cycles);
                    self.cycles += lat.mul + delay;
                    self.contention
                        .pressure_mul(crate::contention::MUL_OCCUPANCY, self.cycles);
                } else {
                    self.cycles += lat.mul;
                }
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::Div { dst, a, b } => {
                let divisor = self.operand(b);
                if divisor == 0 {
                    return StepResult::Fault(FaultCause::DivByZero);
                }
                self.cycles += lat.div;
                let v = self.regs[a as usize] / divisor;
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::Load { dst, addr } => {
                let lat = self.data_access(addr as u64, true);
                self.cycles += lat;
                self.rob_pressure_on_miss(lat);
                let v = self.mem.read_u64(addr as u64);
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::LoadInd { dst, base, offset } => {
                let addr = self.regs[base as usize].wrapping_add(offset as u64);
                let lat = self.data_access(addr, true);
                self.cycles += lat;
                self.rob_pressure_on_miss(lat);
                let v = self.mem.read_u64(addr);
                self.write_reg(dst, v);
                StepResult::Continue(next)
            }
            Inst::Store { addr, src } => {
                self.commit_store(addr as u64, self.regs[src as usize]);
                StepResult::Continue(next)
            }
            Inst::StoreInd { base, offset, src } => {
                let addr = self.regs[base as usize].wrapping_add(offset as u64);
                self.commit_store(addr, self.regs[src as usize]);
                StepResult::Continue(next)
            }
            Inst::Flush { addr } => {
                if self.cfg.model == ExecutionModel::Microarchitectural {
                    self.hier.flush(addr as u64);
                }
                self.cycles += lat.clflush;
                StepResult::Continue(next)
            }
            Inst::FlushInd { base, offset } => {
                let addr = self.regs[base as usize].wrapping_add(offset as u64);
                if self.cfg.model == ExecutionModel::Microarchitectural {
                    self.hier.flush(addr);
                }
                self.cycles += lat.clflush;
                StepResult::Continue(next)
            }
            Inst::TouchCode { addr } => {
                let l = self.inst_access(addr as u64);
                self.cycles += l;
                StepResult::Continue(next)
            }
            Inst::Jmp { target } => {
                self.account_jump(pc, target as u64);
                StepResult::Continue(target as u64)
            }
            Inst::JmpInd { base } => {
                let target = self.regs[base as usize];
                self.account_jump(pc, target);
                StepResult::Continue(target)
            }
            Inst::Brz { cond_addr, rel } => self.exec_branch(pc, cond_addr as u64, rel),
            Inst::Rdtscp { dst } => {
                self.cycles += lat.rdtscp + self.noise.interrupt_spike();
                let now = self.cycles;
                self.write_reg(dst, now);
                StepResult::Continue(next)
            }
            Inst::Xbegin { handler } => {
                if self.tx.is_some() {
                    return StepResult::Fault(FaultCause::TxMisuse);
                }
                self.cycles += lat.xbegin;
                self.stats.tx_begun += 1;
                let doomed = self.cfg.model == ExecutionModel::Microarchitectural
                    && self.noise.tsx_spurious_abort();
                self.tx = Some(TxState {
                    handler: handler as u64,
                    saved_regs: self.regs,
                    undo_log: std::mem::take(&mut self.undo_pool),
                    doomed,
                });
                self.tracer.begin_tx();
                StepResult::Continue(next)
            }
            Inst::Xend => match self.tx.take() {
                Some(tx) => {
                    if tx.doomed {
                        // Spurious abort surfaces at commit time.
                        self.tx = Some(tx);
                        let handler = self.tsx_abort_rollback(true);
                        return StepResult::Continue(handler);
                    }
                    self.cycles += lat.xend;
                    self.tracer.commit_tx();
                    self.recycle_undo_log(tx.undo_log);
                    StepResult::Continue(next)
                }
                None => StepResult::Fault(FaultCause::TxMisuse),
            },
            Inst::Vmx => {
                if self.cfg.model == ExecutionModel::Microarchitectural {
                    let warm = self.contention.vmx_execute(self.cycles);
                    self.cycles += if warm { lat.vmx_warm } else { lat.vmx_cold };
                } else {
                    self.cycles += lat.vmx_warm;
                }
                StepResult::Continue(next)
            }
            Inst::Fence => {
                // A serializing instruction waits for the reorder buffer to
                // drain: its latency exposes ROB pressure (Table 1's ROB
                // contention weird register).
                let stall = if self.cfg.model == ExecutionModel::Microarchitectural {
                    self.contention.rob_stall(self.cycles)
                } else {
                    0
                };
                self.cycles += 20 + stall;
                StepResult::Continue(next)
            }
            Inst::Invalid => StepResult::Fault(FaultCause::InvalidInstruction),
        }
    }

    /// A long-latency load parks in the reorder buffer: pressure other
    /// instructions can observe (ROB weird register write path).
    fn rob_pressure_on_miss(&mut self, lat: u64) {
        if self.cfg.model == ExecutionModel::Microarchitectural && lat >= self.cfg.latency.l3 {
            self.contention.pressure_rob(lat, self.cycles);
        }
    }

    fn write_reg(&mut self, dst: Reg, value: u64) {
        self.regs[dst as usize] = value;
        if self.tracer.is_enabled() {
            self.tracer.record(ArchEvent::RegWrite { reg: dst, value });
        }
    }

    fn commit_store(&mut self, addr: u64, value: u64) {
        let lat = self.data_access(addr, false); // write-allocate
        self.cycles += lat;
        if let Some(tx) = self.tx.as_mut() {
            tx.undo_log.push((addr, self.mem.read_u64(addr)));
        }
        self.mem.write_u64(addr, value);
        self.fetch.invalidate(addr); // self-modifying code
        if self.tracer.is_enabled() {
            self.tracer.record(ArchEvent::MemWrite { addr, value });
        }
    }

    fn account_jump(&mut self, pc: u64, target: u64) {
        self.cycles += self.cfg.latency.alu;
        if self.cfg.model == ExecutionModel::Microarchitectural {
            if self.btb.lookup(pc) != Some(target) {
                self.cycles += self.cfg.latency.btb_miss_penalty;
            }
            self.btb.update(pc, target);
        }
    }

    /// Executes a conditional branch, opening a speculative window on
    /// misprediction. This is the mechanism of §3.2.1: the window length is
    /// the latency of resolving the (possibly flushed) condition word.
    fn exec_branch(&mut self, pc: u64, cond_addr: u64, rel: i16) -> StepResult {
        let taken_target = brz_target(pc, rel);
        let fallthrough = pc + INST_SIZE;
        let actual_taken = self.mem.read_u64(cond_addr) == 0;

        if self.cfg.model == ExecutionModel::Flat {
            // An emulator resolves the branch instantly and perfectly.
            self.cycles += self.cfg.latency.alu + self.cfg.latency.l1;
            self.bp.update(pc, actual_taken);
            return StepResult::Continue(if actual_taken {
                taken_target
            } else {
                fallthrough
            });
        }

        let resolve_lat = self.data_access(cond_addr, false);
        let mut predicted_taken = self.bp.predict(pc);
        if self.noise.bp_alias() {
            predicted_taken = !predicted_taken;
        }
        self.bp.update(pc, actual_taken);

        if predicted_taken == actual_taken {
            // Correct prediction: the front end never stalled; resolution
            // completes in the background.
            self.cycles += self.cfg.latency.alu;
        } else {
            self.stats.mispredicts += 1;
            let window = self
                .noise
                .bp_window(resolve_lat + self.cfg.latency.spec_window_slack);
            let wrong_path = if predicted_taken {
                taken_target
            } else {
                fallthrough
            };
            self.speculate(wrong_path, window);
            self.cycles += resolve_lat + self.cfg.latency.mispredict_penalty;
        }
        StepResult::Continue(if actual_taken {
            taken_target
        } else {
            fallthrough
        })
    }

    // ------------------------------------------------------------------
    // Speculative (wrong-path / post-fault) execution
    // ------------------------------------------------------------------

    /// Executes the wrong path starting at `pc` for at most `window`
    /// cycles, using a small dataflow (scoreboard) timing model:
    ///
    /// * The front end delivers instructions in order, each paying its
    ///   I-cache latency; execution is out of order — an instruction starts
    ///   at `max(dispatch time, source-ready times)`.
    /// * A memory access **issues** only if its start time is inside the
    ///   window; an issued access's cache fill commits *regardless* of when
    ///   it completes (fire-and-forget, like a real miss whose MSHR
    ///   completes after the squash). This is why reading a weird register
    ///   destroys its value (§3.1 "state decoherence"), and why independent
    ///   chains in one window (the OR gate of Fig. 3) proceed in parallel.
    /// * An instruction whose *data* arrives after the window ends was
    ///   squashed mid-flight: its dependents never issue. This is the race
    ///   that turns cache state into logic (§3.2.1).
    ///
    /// Architectural effects (register/memory writes) are sandboxed in a
    /// speculative register file and store buffer and discarded.
    fn speculate(&mut self, start_pc: u64, window: u64) {
        if window == 0 {
            return;
        }
        // The body borrows disjoint fields of `self` (never `self` as a
        // whole), so the scratch is used in place.
        let scratch = &mut self.spec_scratch;
        let lat = &self.cfg.latency;
        let mut pc = start_pc;
        // Front-end clock (cycles since the window opened).
        let mut fetch_t: u64 = 0;
        // Speculative register file: value + ready time.
        let mut vals = self.regs;
        let mut ready = [0u64; NUM_REGS];
        scratch.store_buf.clear();
        scratch.inflight.clear();

        // Issues a cache access at `start` if it fits the window. Returns
        // the data-ready time, or `None` if the access could not issue.
        macro_rules! line_access {
            ($addr:expr, $start:expr, $is_inst:expr) => {{
                let start: u64 = $start;
                if start > window {
                    None
                } else {
                    let addr: u64 = $addr;
                    let key = ($is_inst, crate::cache::line_of(addr));
                    if let Some(done) = scratch.inflight.get(key) {
                        Some(done.max(start + lat.l1))
                    } else {
                        // `access_*` reports the level that satisfied the
                        // access (pre-fill) and fills on the way — one
                        // hierarchy walk where probe-then-access took two.
                        let level = if $is_inst {
                            self.hier.access_inst(addr)
                        } else {
                            self.hier.access_data(addr)
                        };
                        let l = level_latency(lat, level) + self.noise.mem_jitter();
                        let done = start + l;
                        scratch.inflight.insert(key, done);
                        Some(done)
                    }
                }
            }};
        }

        // Speculative load into `dst`: store-to-load forwarding from the
        // store buffer, otherwise a race of the cache access against the
        // window.
        macro_rules! spec_load {
            ($dst:expr, $addr:expr, $start:expr) => {{
                let (dst, addr, start): (Reg, u64, u64) = ($dst, $addr, $start);
                let forwarded = scratch
                    .store_buf
                    .iter()
                    .rev()
                    .find(|&&(a, _, _)| a == addr)
                    .copied();
                if let Some((_, v, vready)) = forwarded {
                    vals[dst as usize] = v;
                    ready[dst as usize] = start.max(vready) + lat.l1;
                } else {
                    match line_access!(addr, start, false) {
                        Some(done) => {
                            vals[dst as usize] = self.mem.read_u64(addr);
                            ready[dst as usize] = done;
                        }
                        None => ready[dst as usize] = NEVER,
                    }
                }
            }};
        }

        for _ in 0..MAX_SPEC_INSTS {
            // ---- front end: fetch through the I-cache ----
            let f_ready = match line_access!(pc, fetch_t, true) {
                Some(t) => t,
                None => return,
            };
            if f_ready > window {
                // The fill was issued (and will land in the cache), but the
                // bytes arrive after the squash: the instruction never runs.
                return;
            }
            fetch_t = f_ready;
            let inst = self.fetch.inst(pc, &self.mem, self.cfg.predecode);
            self.stats.speculative_insts += 1;
            let next = pc + INST_SIZE;
            let dispatch = fetch_t;

            let src_ready = |r: Reg, ready: &[u64; NUM_REGS]| ready[r as usize];
            let op_ready = |op: Operand, ready: &[u64; NUM_REGS]| match op {
                Operand::Reg(r) => ready[r as usize],
                Operand::Imm(_) => 0,
            };

            match inst {
                Inst::Nop | Inst::Fence => pc = next,
                Inst::Halt | Inst::Xbegin { .. } | Inst::Xend | Inst::Invalid => return,
                Inst::Mov { dst, src } => {
                    let start = dispatch.max(op_ready(src, &ready));
                    if start <= window {
                        vals[dst as usize] = operand_in(&vals, src);
                        ready[dst as usize] = start + lat.alu;
                    } else {
                        ready[dst as usize] = NEVER;
                    }
                    pc = next;
                }
                Inst::Alu { op, dst, a, b } => {
                    let start = dispatch.max(src_ready(a, &ready)).max(op_ready(b, &ready));
                    if start <= window {
                        vals[dst as usize] =
                            Self::alu_eval(op, vals[a as usize], operand_in(&vals, b));
                        ready[dst as usize] = start + lat.alu;
                    } else {
                        ready[dst as usize] = NEVER;
                    }
                    pc = next;
                }
                Inst::Mul { dst, a, b } => {
                    let start = dispatch.max(src_ready(a, &ready)).max(op_ready(b, &ready));
                    if start <= window {
                        let delay = self.contention.mul_delay(self.cycles + start);
                        vals[dst as usize] = vals[a as usize].wrapping_mul(operand_in(&vals, b));
                        ready[dst as usize] = start + lat.mul + delay;
                        self.contention
                            .pressure_mul(crate::contention::MUL_OCCUPANCY, self.cycles + start);
                    } else {
                        ready[dst as usize] = NEVER;
                    }
                    pc = next;
                }
                Inst::Div { dst, a, b } => {
                    let start = dispatch.max(src_ready(a, &ready)).max(op_ready(b, &ready));
                    if start > window {
                        ready[dst as usize] = NEVER;
                        pc = next;
                        continue;
                    }
                    let divisor = operand_in(&vals, b);
                    if divisor == 0 {
                        return; // nested speculative fault squashes the rest
                    }
                    vals[dst as usize] = vals[a as usize] / divisor;
                    ready[dst as usize] = start + lat.div;
                    pc = next;
                }
                Inst::Load { dst, addr } => {
                    spec_load!(dst, addr as u64, dispatch);
                    pc = next;
                }
                Inst::LoadInd { dst, base, offset } => {
                    let start = dispatch.max(src_ready(base, &ready));
                    if start > window {
                        ready[dst as usize] = NEVER;
                        pc = next;
                        continue;
                    }
                    let addr = vals[base as usize].wrapping_add(offset as u64);
                    spec_load!(dst, addr, start);
                    pc = next;
                }
                Inst::Store { addr, src } => {
                    // The RFO needs only the address; fire it if dispatch
                    // fits the window.
                    let _ = line_access!(addr as u64, dispatch, false);
                    if dispatch <= window {
                        scratch.store_buf.push((
                            addr as u64,
                            vals[src as usize],
                            dispatch.max(src_ready(src, &ready)),
                        ));
                    }
                    pc = next;
                }
                Inst::StoreInd { base, offset, src } => {
                    let start = dispatch.max(src_ready(base, &ready));
                    if start <= window {
                        let addr = vals[base as usize].wrapping_add(offset as u64);
                        let _ = line_access!(addr, start, false);
                        scratch.store_buf.push((
                            addr,
                            vals[src as usize],
                            start.max(src_ready(src, &ready)),
                        ));
                    }
                    pc = next;
                }
                Inst::Flush { addr } => {
                    if dispatch + lat.clflush <= window {
                        self.hier.flush(addr as u64);
                    }
                    pc = next;
                }
                Inst::FlushInd { base, offset } => {
                    let start = dispatch.max(src_ready(base, &ready));
                    if start + lat.clflush <= window {
                        let addr = vals[base as usize].wrapping_add(offset as u64);
                        self.hier.flush(addr);
                    }
                    pc = next;
                }
                Inst::TouchCode { addr } => {
                    let _ = line_access!(addr as u64, dispatch, true);
                    pc = next;
                }
                Inst::Jmp { target } => {
                    pc = target as u64;
                }
                Inst::JmpInd { base } => {
                    let start = dispatch.max(src_ready(base, &ready));
                    if start > window {
                        return; // target unknown before squash
                    }
                    fetch_t = start;
                    pc = vals[base as usize];
                }
                Inst::Brz { cond_addr, rel } => {
                    // Nested branches resolve against memory; no nested
                    // windows open, and the front end waits for resolution.
                    match line_access!(cond_addr as u64, dispatch, false) {
                        Some(done) if done <= window => {
                            fetch_t = done;
                            let v = self.mem.read_u64(cond_addr as u64);
                            pc = if v == 0 { brz_target(pc, rel) } else { next };
                        }
                        _ => return,
                    }
                }
                Inst::Rdtscp { dst } => {
                    if dispatch <= window {
                        vals[dst as usize] = self.cycles + dispatch;
                        ready[dst as usize] = dispatch + lat.rdtscp;
                    } else {
                        ready[dst as usize] = NEVER;
                    }
                    pc = next;
                }
                Inst::Vmx => {
                    if dispatch <= window {
                        self.contention.vmx_execute(self.cycles + dispatch);
                    }
                    pc = next;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // TSX abort paths
    // ------------------------------------------------------------------

    /// A fault occurred at `pc` inside a transaction: run the post-fault
    /// speculative window (§4 — "the pipeline continues to execute
    /// instructions even after the fault"), then roll back and transfer to
    /// the abort handler.
    fn tsx_abort_with_window(&mut self, fault_pc: u64) -> u64 {
        let window = self.noise.tsx_window(self.cfg.latency.tsx_spec_window);
        if self.cfg.model == ExecutionModel::Microarchitectural {
            self.speculate(fault_pc + INST_SIZE, window);
        }
        self.tsx_abort_rollback(false)
    }

    /// Rolls back the open transaction; returns the abort-handler pc.
    fn tsx_abort_rollback(&mut self, spurious: bool) -> u64 {
        let tx = self.tx.take().expect("rollback requires open tx");
        self.regs = tx.saved_regs;
        for &(addr, old) in tx.undo_log.iter().rev() {
            self.mem.write_u64(addr, old);
            self.fetch.invalidate(addr);
        }
        self.recycle_undo_log(tx.undo_log);
        self.cycles += self.cfg.latency.xabort;
        self.stats.tx_aborted += 1;
        if spurious {
            self.stats.tx_spurious_aborts += 1;
        }
        self.tracer.abort_tx(tx.handler);
        tx.handler
    }

    /// Returns a transaction's undo log to the pool for the next `Xbegin`.
    fn recycle_undo_log(&mut self, mut log: Vec<(u64, u64)>) {
        log.clear();
        self.undo_pool = log;
    }
}

/// The latency of an access satisfied at `level`.
fn level_latency(lat: &LatencyConfig, level: HitLevel) -> u64 {
    match level {
        HitLevel::L1 => lat.l1,
        HitLevel::L2 => lat.l2,
        HitLevel::L3 => lat.l3,
        HitLevel::Mem => lat.dram,
    }
}

/// Points `dst` at `src`'s value unless it already does.
fn share<T>(dst: &mut Arc<T>, src: &Arc<T>) {
    if !Arc::ptr_eq(dst, src) {
        *dst = Arc::clone(src);
    }
}

/// Reads an operand out of a register file (the committed one or a
/// speculative sandbox) without copying the file.
#[inline]
fn operand_in(regs: &[u64; NUM_REGS], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(i) => i as u64,
    }
}

enum StepResult {
    Continue(u64),
    Halted,
    Fault(FaultCause),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Assembler;

    fn quiet() -> Machine {
        Machine::new(MachineConfig::quiet(), 0)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(6),
        });
        a.push(Inst::Mul {
            dst: 2,
            a: 1,
            b: Operand::Imm(7),
        });
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        assert_eq!(m.run_at(0), RunOutcome::Halted);
        assert_eq!(m.reg(2), 42);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(0xABCD),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.push(Inst::Load {
            dst: 1,
            addr: 0x4000,
        });
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        m.run_at(0);
        assert_eq!(m.reg(1), 0xABCD);
        assert!(m.hierarchy().in_l1d(0x4000), "store write-allocates");
    }

    #[test]
    fn div_by_zero_faults_outside_tx() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Div {
            dst: 0,
            a: 0,
            b: Operand::Imm(0),
        });
        m.load_program(a.finish().unwrap());
        assert_eq!(
            m.run_at(0),
            RunOutcome::Fault {
                pc: 0,
                cause: FaultCause::DivByZero
            }
        );
    }

    #[test]
    fn timed_read_hit_vs_miss() {
        let mut m = quiet();
        let miss = m.timed_read(0x8000);
        let hit = m.timed_read(0x8000);
        assert_eq!(miss, m.latency().dram);
        assert_eq!(hit, m.latency().l1);
    }

    #[test]
    fn rdtscp_monotonic() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Rdtscp { dst: 0 });
        a.push(Inst::Load {
            dst: 2,
            addr: 0x4000,
        });
        a.push(Inst::Rdtscp { dst: 1 });
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        m.run_at(0);
        assert!(m.reg(1) > m.reg(0));
        // The gap includes a DRAM miss.
        assert!(m.reg(1) - m.reg(0) >= m.latency().dram);
    }

    #[test]
    fn branch_follows_memory_condition() {
        let mut m = quiet();
        m.mem_mut().write_u64(0x4000, 0); // zero → taken
        let mut a = Assembler::new(0);
        a.brz(0x4000, "taken");
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(1),
        });
        a.push(Inst::Halt);
        a.label("taken").unwrap();
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(2),
        });
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        m.run_at(0);
        assert_eq!(m.reg(0), 2);
    }

    /// The core §3.2.1 mechanism: a mispredicted branch whose wrong path
    /// contains a store leaves a cache fill behind — but only when the
    /// wrong-path code is in the I-cache.
    #[test]
    fn mispredict_leaks_cache_fill_when_body_cached() {
        let out = 0x5000u32;
        let cond = 0x4000u32;
        let mut m = quiet();
        m.mem_mut().write_u64(cond as u64, 0); // branch will be TAKEN (skip body)

        let mut a = Assembler::new(0);
        a.brz(cond, "skip"); // actual: taken; we mistrain toward fall-through
        a.align_to(64); // the body gets its own I-cache line (paper §3.2.1)
        a.label("body").unwrap();
        a.push(Inst::Store { addr: out, src: 3 });
        a.label("skip").unwrap();
        a.push(Inst::Halt);
        let body_addr = a.resolve("body").unwrap();
        m.load_program(a.finish().unwrap());

        // Mistrain: the predictor slot for pc=0 learns "not taken".
        let alias = m.predictor().alias_stride();
        let mut train = Assembler::new(alias);
        train.push(Inst::Brz {
            cond_addr: 0x4100,
            rel: 0,
        }); // mem[0x4100]=1 → fall through
        train.push(Inst::Halt);
        m.add_program(train.finish().unwrap());
        m.mem_mut().write_u64(0x4100, 1);
        for _ in 0..4 {
            m.run_at(alias);
        }
        assert!(!m.predictor().predict(0), "trained not-taken");

        // Warm the body's code line, flush the output and the condition.
        m.touch_code(body_addr);
        m.flush_addr(out as u64);
        m.flush_addr(cond as u64);

        m.run_at(0);
        assert!(
            m.hierarchy().in_l1d(out as u64),
            "speculative store must write-allocate the output line"
        );
        assert_eq!(m.mem().read_u64(out as u64), 0, "no architectural store");
    }

    /// Same setup, but the wrong-path code was flushed from the I-cache:
    /// the fetch loses the race and nothing fills the output line.
    #[test]
    fn mispredict_with_cold_body_leaves_no_trace() {
        let out = 0x5000u32;
        let cond = 0x4000u32;
        let mut m = quiet();
        m.mem_mut().write_u64(cond as u64, 0);

        let mut a = Assembler::new(0);
        a.brz(cond, "skip");
        a.align_to(64);
        a.label("body").unwrap();
        a.push(Inst::Store { addr: out, src: 3 });
        a.label("skip").unwrap();
        a.push(Inst::Halt);
        let body_addr = a.resolve("body").unwrap();
        m.load_program(a.finish().unwrap());

        let alias = m.predictor().alias_stride();
        let mut train = Assembler::new(alias);
        train.push(Inst::Brz {
            cond_addr: 0x4100,
            rel: 0,
        });
        train.push(Inst::Halt);
        m.add_program(train.finish().unwrap());
        m.mem_mut().write_u64(0x4100, 1);
        for _ in 0..4 {
            m.run_at(alias);
        }

        m.flush_addr(body_addr); // IC-WR = 0
        m.flush_addr(out as u64);
        m.flush_addr(cond as u64);

        m.run_at(0);
        assert!(
            !m.hierarchy().in_l1d(out as u64),
            "cold body must not beat the speculative window"
        );
    }

    #[test]
    fn tsx_commit_is_visible_abort_is_rolled_back() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(7),
        });
        a.push(Inst::Xbegin { handler: 0 }); // patched below
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        }); // abort
        a.push(Inst::Store {
            addr: 0x4008,
            src: 0,
        });
        a.push(Inst::Xend);
        a.push(Inst::Halt);
        a.label("handler").unwrap();
        a.push(Inst::Mov {
            dst: 5,
            src: Operand::Imm(1),
        });
        a.push(Inst::Halt);
        let handler = a.resolve("handler").unwrap();
        let mut p = a.finish().unwrap();
        p.put(
            8,
            Inst::Xbegin {
                handler: handler as u32,
            },
        );
        m.load_program(p);

        assert_eq!(m.run_at(0), RunOutcome::Halted);
        assert_eq!(m.reg(5), 1, "abort handler ran");
        assert_eq!(
            m.mem().read_u64(0x4000),
            0,
            "transactional store rolled back"
        );
        assert_eq!(m.mem().read_u64(0x4008), 0);
    }

    /// §4: post-fault speculation inside a transaction leaves cache fills
    /// behind even though everything architectural is rolled back.
    #[test]
    fn tsx_post_fault_window_leaks_ma_state() {
        let mut m = quiet();
        let d0 = 0x4000u32; // input WR (cached = 1)
        let d3 = 0x4400u32; // output WR
        m.timed_read(d0 as u64); // set d0 := 1
        m.flush_addr(d3 as u64); // d3 := 0

        let mut a = Assembler::new(0);
        a.push(Inst::Xbegin { handler: 0 });
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        // d3 := d0 (assignment gate): deref chain through d0's value.
        a.push(Inst::Load { dst: 2, addr: d0 });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: 2,
            a: 2,
            b: Operand::Imm(d3),
        });
        a.push(Inst::LoadInd {
            dst: 3,
            base: 2,
            offset: 0,
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        let handler = a.resolve("handler").unwrap();
        let mut p = a.finish().unwrap();
        p.put(
            0,
            Inst::Xbegin {
                handler: handler as u32,
            },
        );
        m.load_program(p);

        assert_eq!(m.run_at(0), RunOutcome::Halted);
        assert!(m.hierarchy().in_l1d(d3 as u64), "gate set the output WR");
        assert_eq!(m.reg(3), 0, "architectural register rolled back");
    }

    /// The same assignment gate with an uncached input: the DRAM-latency
    /// load overruns the window; the output WR stays 0.
    #[test]
    fn tsx_window_squashes_slow_chain() {
        let mut m = quiet();
        let d0 = 0x4000u32;
        let d3 = 0x4400u32;
        m.flush_addr(d0 as u64); // d0 := 0
        m.flush_addr(d3 as u64);

        let mut a = Assembler::new(0);
        a.push(Inst::Xbegin { handler: 0 });
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        a.push(Inst::Load { dst: 2, addr: d0 });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: 2,
            a: 2,
            b: Operand::Imm(d3),
        });
        a.push(Inst::LoadInd {
            dst: 3,
            base: 2,
            offset: 0,
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        let handler = a.resolve("handler").unwrap();
        let mut p = a.finish().unwrap();
        p.put(
            0,
            Inst::Xbegin {
                handler: handler as u32,
            },
        );
        m.load_program(p);

        m.run_at(0);
        assert!(
            !m.hierarchy().in_l1d(d3 as u64),
            "slow chain must be squashed"
        );
        assert!(
            m.hierarchy().in_l1d(d0 as u64),
            "the issued miss still fills the input line (state decoherence, §3.1)"
        );
    }

    #[test]
    fn xend_without_tx_faults() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.push(Inst::Xend);
        m.load_program(a.finish().unwrap());
        assert_eq!(
            m.run_at(0),
            RunOutcome::Fault {
                pc: 0,
                cause: FaultCause::TxMisuse
            }
        );
    }

    #[test]
    fn step_limit_stops_runaway() {
        let mut m = quiet();
        let mut a = Assembler::new(0);
        a.label("top").unwrap();
        a.jmp("top");
        m.load_program(a.finish().unwrap());
        m.set_step_limit(100);
        assert_eq!(m.run_at(0), RunOutcome::StepLimit);
    }

    #[test]
    fn dynamic_code_from_memory() {
        let mut m = quiet();
        // Write "Mov r0, 99; Halt" into memory as bytes, then run there.
        let code_at = 0x2_0000u64;
        let insts = [
            Inst::Mov {
                dst: 0,
                src: Operand::Imm(99),
            },
            Inst::Halt,
        ];
        let mut bytes = Vec::new();
        for i in &insts {
            bytes.extend_from_slice(&i.encode());
        }
        m.mem_mut().write_bytes(code_at, &bytes);
        assert_eq!(m.run_at(code_at), RunOutcome::Halted);
        assert_eq!(m.reg(0), 99);
    }

    #[test]
    fn garbage_code_faults() {
        let mut m = quiet();
        let code_at = 0x2_0000u64;
        m.mem_mut().write_bytes(code_at, &[0xAB; 8]);
        assert!(matches!(
            m.run_at(code_at),
            RunOutcome::Fault {
                cause: FaultCause::InvalidInstruction,
                ..
            }
        ));
    }

    #[test]
    fn flat_model_has_uniform_timing_and_no_leaks() {
        let mut m = Machine::new(MachineConfig::flat(), 0);
        let a = m.timed_read(0x4000);
        let b = m.timed_read(0x4000);
        assert_eq!(a, b, "flat model: no hit/miss distinction");
        m.flush_addr(0x4000);
        assert_eq!(m.timed_read(0x4000), b, "no cache state to evict");
        let c0 = m.cycles();
        m.idle(100);
        m.timed_read(0);
        assert!(m.cycles() >= c0 + 100, "the clock only moves forward");

        // The post-fault TSX leak from the MA test does nothing here.
        let d0 = 0x4000u32;
        let d3 = 0x4400u32;
        let mut asm = Assembler::new(0);
        asm.push(Inst::Xbegin { handler: 0 });
        asm.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        asm.push(Inst::Load { dst: 2, addr: d0 });
        asm.push(Inst::Alu {
            op: AluOp::Add,
            dst: 2,
            a: 2,
            b: Operand::Imm(d3),
        });
        asm.push(Inst::LoadInd {
            dst: 3,
            base: 2,
            offset: 0,
        });
        asm.push(Inst::Xend);
        asm.label("handler").unwrap();
        asm.push(Inst::Halt);
        let handler = asm.resolve("handler").unwrap();
        let mut p = asm.finish().unwrap();
        p.put(
            0,
            Inst::Xbegin {
                handler: handler as u32,
            },
        );
        m.load_program(p);
        m.run_at(0);
        assert!(
            !m.hierarchy().in_l1d(d3 as u64),
            "no MA effects in flat mode"
        );
    }

    #[test]
    fn tracer_hides_aborted_tx_contents() {
        let mut m = quiet();
        m.tracer_mut().set_enabled(true);
        *m.tracer_mut() = Tracer::new();
        let mut a = Assembler::new(0);
        a.push(Inst::Xbegin { handler: 0 });
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(0x5EC2E7),
        }); // "secret"
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        let handler = a.resolve("handler").unwrap();
        let mut p = a.finish().unwrap();
        p.put(
            0,
            Inst::Xbegin {
                handler: handler as u32,
            },
        );
        m.load_program(p);
        m.run_at(0);
        let has_secret = m.tracer().events().iter().any(|e| {
            matches!(e, ArchEvent::RegWrite { value, .. } if *value == 0x5EC2E7)
                || matches!(
                    e,
                    ArchEvent::Commit {
                        inst: Inst::Mov { .. },
                        ..
                    }
                )
        });
        assert!(
            !has_secret,
            "aborted-tx contents must not appear in the trace"
        );
    }

    /// A run from `entry` with tracing switched on only for it records
    /// exactly what a machine traced throughout recorded in that run:
    /// commits, register and memory writes, a committed transaction and
    /// a fault.
    #[test]
    fn enabling_the_tracer_between_runs_records_exactly_the_later_events() {
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(5),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 1,
        });
        a.push(Inst::Halt);
        let entry = 0x100;
        a.align_to(entry);
        a.xbegin("handler");
        a.push(Inst::Mov {
            dst: 2,
            src: Operand::Imm(7),
        });
        a.push(Inst::Store {
            addr: 0x4008,
            src: 2,
        });
        a.push(Inst::Xend);
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: 3,
            a: 1,
            b: Operand::Reg(2),
        });
        a.push(Inst::Div {
            dst: 0,
            a: 3,
            b: Operand::Imm(0),
        });
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        let program = a.finish().unwrap();

        let mut always = quiet();
        always.load_program(program.clone());
        always.tracer_mut().set_enabled(true);
        assert_eq!(always.run_at(0), RunOutcome::Halted);
        let earlier = always.tracer().events().len();
        assert!(earlier > 0);
        always.run_at(entry);

        let mut later = quiet();
        later.load_program(program);
        later.run_at(0);
        assert!(later.tracer().events().is_empty());
        later.tracer_mut().set_enabled(true);
        assert!(matches!(later.run_at(entry), RunOutcome::Fault { .. }));

        let events = later.tracer().events();
        assert_eq!(events, &always.tracer().events()[earlier..]);
        for kind in ["Commit", "RegWrite", "MemWrite", "TxCommit", "Fault"] {
            assert!(
                events.iter().any(|e| format!("{e:?}").starts_with(kind)),
                "no {kind} event"
            );
        }
    }

    use crate::cache::set_walks;

    /// The same-line memo: once a line's set has been walked, the
    /// instructions fetched from it walk nothing until something else
    /// touches that cache or a restore rewrites it.
    #[test]
    fn each_code_line_is_walked_once() {
        let mut a = Assembler::new(0);
        a.label("top").unwrap();
        a.jmp("top");
        a.align_to(0x40);
        for r in 0..8 {
            a.push(Inst::Alu {
                op: AluOp::Add,
                dst: r,
                a: r,
                b: Operand::Imm(1),
            });
        }
        let mut m = quiet();
        m.load_program(a.finish().unwrap());
        m.warm_code_range(0, 0x80);
        let elsewhere = 0x1_0000;
        m.touch_code(elsewhere);

        m.set_step_limit(1_000);
        let walks = set_walks(|| assert_eq!(m.run_at(0), RunOutcome::StepLimit));
        assert_eq!(walks, 1, "a self-jump walks the L1I once");

        m.touch_code(elsewhere);
        m.set_step_limit(8);
        let walks = set_walks(|| assert_eq!(m.run_at(0x40), RunOutcome::StepLimit));
        assert_eq!(walks, 1, "eight instructions in one line walk it once");
        assert_eq!(m.reg(7), 1);

        let snap = m.snapshot();
        m.restore_from(&snap);
        assert_eq!(
            set_walks(|| m.touch_code(0x40)),
            1,
            "a restore drops the memo"
        );
        assert_eq!(set_walks(|| m.touch_code(0x40)), 0);
    }

    /// Exact work per gate: a warmed eval of a `bp_and`-shaped gate (the
    /// layout and call sequence of `uwm-core`'s `BpGate` for `And`, both
    /// inputs 1) scans a pinned number of sets. Flushes scan none and a
    /// miss scans only its L1 set, so the count moves only when the cache
    /// layer's work does.
    #[test]
    fn warmed_bp_and_eval_walks_a_pinned_number_of_sets() {
        const COND: u64 = 0x10_0000;
        const OUT: u64 = 0x10_0040;
        const TRAIN_COND: u64 = 0x10_0080;
        let mut m = quiet();
        let mut a = Assembler::new(0x100_0000);
        let branch = a.brz(COND as u32, "skip");
        a.align_to(0x40);
        let body = a.push(Inst::Store {
            addr: OUT as u32,
            src: 3,
        });
        a.align_to(0x40);
        a.label("skip").unwrap();
        a.push(Inst::Halt);
        m.add_program(a.finish().unwrap());
        let train = branch + m.predictor().alias_stride();
        let mut t = Assembler::new(train);
        t.push(Inst::Brz {
            cond_addr: TRAIN_COND as u32,
            rel: 0,
        });
        t.push(Inst::Halt);
        m.add_program(t.finish().unwrap());

        let eval = |m: &mut Machine| {
            m.touch_code(body);
            m.mem_mut().write_u64(TRAIN_COND, 1);
            m.timed_read(TRAIN_COND);
            for _ in 0..4 {
                m.run_at(train);
            }
            m.flush_addr(OUT);
            m.flush_addr(COND);
            m.run_at(branch);
            m.timed_read_tsc(OUT)
        };
        eval(&mut m);
        let mut delay = 0;
        // L1I: the body touch, the training line, the branch line, the
        // speculative body fetch and the skip line; L1D: the training
        // condition, then the condition's and the output's misses, whose
        // L2 and L3 lookups the index skips. The timed read is a memo hit.
        assert_eq!(set_walks(|| delay = eval(&mut m)), 8);
        assert!(delay < m.latency().dram, "the body stored to the output");
    }

    #[test]
    fn same_seed_same_cycles() {
        let run = || {
            let mut m = Machine::new(MachineConfig::default(), 1234);
            let mut a = Assembler::new(0);
            for i in 0..20 {
                a.push(Inst::Load {
                    dst: 0,
                    addr: 0x4000 + i * 64,
                });
            }
            a.push(Inst::Halt);
            m.load_program(a.finish().unwrap());
            m.run_at(0);
            m.cycles()
        };
        assert_eq!(run(), run());
    }
}

/// Restore equivalence: after every restore the machine must equal the
/// snapshot in every cache set, predictor entry, memory page and
/// register, whichever restore scope the snapshot ids select.
#[cfg(test)]
mod restore_tests {
    use super::*;
    use crate::isa::Assembler;
    use uwm_rng::rngs::StdRng;
    use uwm_rng::{Rng, SeedableRng};

    const TSX_PC: u64 = 0x1000;
    const BRANCH_PC: u64 = 0x2000;
    const STORE_PC: u64 = 0x3000;
    const COND: u32 = 0x4000;
    const SPEC_OUT: u32 = 0x5000;

    /// A default-noise machine holding three small programs: a TSX
    /// transaction whose post-fault window loads `[r4]`, a branch on
    /// `[COND]` whose wrong path stores to `SPEC_OUT`, and a store of `r6`
    /// to `[r5]`.
    fn machine(seed: u64) -> Machine {
        let mut a = Assembler::new(TSX_PC);
        a.xbegin("tsx_handler");
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        });
        a.push(Inst::LoadInd {
            dst: 3,
            base: 4,
            offset: 0,
        });
        a.push(Inst::Xend);
        a.label("tsx_handler").unwrap();
        a.push(Inst::Halt);
        let mut p = a.finish().unwrap();

        let mut a = Assembler::new(BRANCH_PC);
        a.brz(COND, "skip");
        a.align_to(64);
        a.push(Inst::Store {
            addr: SPEC_OUT,
            src: 3,
        });
        a.label("skip").unwrap();
        a.push(Inst::Halt);
        p.merge(a.finish().unwrap());

        let mut a = Assembler::new(STORE_PC);
        a.push(Inst::StoreInd {
            base: 5,
            offset: 0,
            src: 6,
        });
        a.push(Inst::Halt);
        p.merge(a.finish().unwrap());

        let mut m = Machine::new(MachineConfig::default(), seed);
        m.load_program(p);
        m
    }

    /// Half the time one of 12 lines in each of 16 L1 sets (fills evict),
    /// else one of 4 lines in each of 16 other sets (once warm, only
    /// hits reorder their replacement state).
    fn data_addr(rng: &mut StdRng) -> u64 {
        let (base, lines) = if rng.gen_bool(0.5) {
            (0x10_0000u64, 12u64)
        } else {
            (0x20_0800, 4)
        };
        base + rng.gen_range(0..lines) * 4096 + rng.gen_range(0..16u64) * 64
    }

    /// One of 12 code lines in each of 8 L1I sets.
    fn code_addr(rng: &mut StdRng) -> u64 {
        0x8000 + rng.gen_range(0..12u64) * 4096 + rng.gen_range(0..64u64) * INST_SIZE
    }

    /// `n` seeded random host-side and program operations.
    fn random_ops(m: &mut Machine, rng: &mut StdRng, n: usize) {
        for _ in 0..n {
            match rng.gen_range(0..7u32) {
                0 | 1 => {
                    m.timed_read(data_addr(rng));
                }
                2 => m.flush_addr(data_addr(rng)),
                3 => m.touch_code(code_addr(rng)),
                4 => {
                    let base = code_addr(rng);
                    m.warm_code_range(base, base + 4 * INST_SIZE);
                }
                5 => {
                    m.set_reg(4, data_addr(rng));
                    m.run_at(TSX_PC);
                }
                _ => {
                    if rng.gen_bool(0.5) {
                        let taken = rng.gen_bool(0.5);
                        m.mem_mut().write_u64(COND as u64, u64::from(!taken));
                        m.flush_addr(COND as u64);
                        m.set_reg(3, rng.next_u64());
                        m.run_at(BRANCH_PC);
                    } else {
                        m.set_reg(5, data_addr(rng));
                        m.set_reg(6, rng.next_u64());
                        m.run_at(STORE_PC);
                    }
                }
            }
        }
    }

    /// Whole-state comparison; `clock` adds the fields only a full
    /// restore rewinds.
    fn assert_same(m: &Machine, snap: &Machine, clock: bool, what: &str) {
        assert!(m.hier.same_state(&snap.hier), "{what}: caches differ");
        assert!(m.bp == snap.bp, "{what}: predictor differs");
        assert!(m.btb == snap.btb, "{what}: BTB differs");
        assert!(m.mem == snap.mem, "{what}: memory differs");
        assert_eq!(m.regs, snap.regs, "{what}: registers differ");
        assert!(
            m.fetch.program.iter().eq(snap.fetch.program.iter()),
            "{what}: program differs"
        );
        assert_eq!(
            format!("{:?}", (&m.contention, &m.tx)),
            format!("{:?}", (&snap.contention, &snap.tx)),
            "{what}: contention or transaction differs"
        );
        if clock {
            assert_eq!(m.cycles, snap.cycles, "{what}: clock differs");
            assert_eq!(m.stats, snap.stats, "{what}: stats differ");
            assert_eq!(
                format!("{:?}", m.noise),
                format!("{:?}", snap.noise),
                "{what}: noise stream differs"
            );
        }
    }

    fn warmed(seed: u64, rng: &mut StdRng) -> Machine {
        let mut m = machine(seed);
        random_ops(&mut m, rng, 300);
        m
    }

    /// `BatchRunner`: one snapshot, restored before every item.
    #[test]
    fn repeated_restores_match_the_snapshot() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = warmed(1, &mut rng);
        let snap = m.snapshot();
        for item in 0..40 {
            m.restore_from(&snap);
            assert_same(&m, &snap, true, &format!("item {item}"));
            random_ops(&mut m, &mut rng, 25);
        }
    }

    /// The redundancy voter on a pooled machine: a per-bit snapshot of a
    /// machine anchored to the batch snapshot, three trials per bit.
    #[test]
    fn voter_trials_match_each_prepared_snapshot() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = warmed(2, &mut rng);
        let batch = m.snapshot();
        m.restore_from(&batch);
        for bit in 0..15 {
            random_ops(&mut m, &mut rng, 8);
            let prepared = m.snapshot();
            for trial in 0..3 {
                m.restore_from_keeping_clock(&prepared);
                assert_same(&m, &prepared, false, &format!("bit {bit} trial {trial}"));
                random_ops(&mut m, &mut rng, 8);
            }
        }
    }

    /// Restores onto a second machine (and a clone of it), alternating
    /// between two snapshots of the first.
    #[test]
    fn restores_onto_other_machines_and_alternating_snapshots() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = warmed(3, &mut rng);
        let base = a.snapshot();
        let mut b = machine(4);
        b.restore_from(&base);
        assert_same(&b, &base, true, "fresh machine");
        a.restore_from(&base);
        random_ops(&mut a, &mut rng, 30);
        let s1 = a.snapshot();
        random_ops(&mut a, &mut rng, 30);
        let s2 = a.snapshot();
        // `b` and `s1` both descend from `base` along different paths.
        random_ops(&mut b, &mut rng, 30);
        b.restore_from(&s1);
        assert_same(&b, &s1, true, "sibling onto another machine");
        let mut c = b.clone();
        for round in 0..20 {
            let snap = if round % 2 == 0 { &s2 } else { &s1 };
            for (name, m) in [("a", &mut a), ("b", &mut b), ("clone", &mut c)] {
                random_ops(m, &mut rng, 10);
                m.restore_from(snap);
                assert_same(m, snap, true, &format!("{name} round {round}"));
            }
        }
    }

    /// Snapshots are ordinary machines: running one after it was taken
    /// must not leave stale sets behind on the next restore from it.
    #[test]
    fn a_snapshot_run_after_it_was_taken_restores_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = warmed(5, &mut rng);
        let mut snap = m.snapshot();
        m.restore_from(&snap);
        for round in 0..10 {
            random_ops(&mut m, &mut rng, 15);
            random_ops(&mut snap, &mut rng, 15);
            m.restore_from(&snap);
            assert_same(&m, &snap, true, &format!("anchored, round {round}"));
        }
        let mut other = machine(6);
        other.restore_from(&snap);
        assert_same(&other, &snap, true, "fresh machine");
        random_ops(&mut other, &mut rng, 15);
        other.restore_from(&snap);
        assert_same(&other, &snap, true, "fresh machine, again");
        // A per-bit snapshot run before the trial restores from it.
        random_ops(&mut m, &mut rng, 15);
        let mut prepared = m.snapshot();
        random_ops(&mut prepared, &mut rng, 15);
        random_ops(&mut m, &mut rng, 15);
        m.restore_from_keeping_clock(&prepared);
        assert_same(&m, &prepared, false, "sibling of a run snapshot");
    }

    /// `snap`, taken in place from `src` by `snapshot_into`, must equal
    /// `fresh`, taken from `src` by `snapshot`: every observable, both
    /// dirty-set lists and the lineage apart from the new id.
    fn assert_recycled(snap: &Machine, fresh: &Machine, src: &Machine, what: &str) {
        assert_same(snap, fresh, true, what);
        assert_eq!(snap.hier.lists(), fresh.hier.lists(), "{what}: set lists");
        let (l, f) = (snap.lineage, fresh.lineage);
        assert!(l.id != 0 && l.id != f.id, "{what}: not relabelled");
        assert_eq!(l.anchor, l.id, "{what}: not anchored to itself");
        assert_eq!(l.base_anchor, f.base_anchor, "{what}: base anchor");
        assert_eq!(l.base_anchor, src.lineage.anchor, "{what}: base anchor");
    }

    /// Three voter trials from `prepared`, each checked, leaving `m` run.
    fn trials(m: &mut Machine, prepared: &Machine, rng: &mut StdRng, what: &str) {
        for trial in 0..3 {
            m.restore_from_keeping_clock(prepared);
            assert_same(m, prepared, false, &format!("{what}, trial {trial}"));
            random_ops(m, rng, 8);
        }
    }

    /// Every cache set of the hierarchy: what a full copy copies.
    fn all_sets() -> usize {
        use crate::cache::CacheConfig;
        2 * CacheConfig::l1().sets + CacheConfig::l2().sets + CacheConfig::l3().sets
    }

    /// Cache sets that restores on this thread copy while `f` runs.
    fn sets_copied(f: impl FnOnce()) -> usize {
        let before = crate::cache::SETS_COPIED.with(|c| c.get());
        f();
        crate::cache::SETS_COPIED.with(|c| c.get()) - before
    }

    /// Per level, the number of distinct sets in the two dirty lists.
    fn dirty_union(a: &Machine, b: &Machine) -> usize {
        a.hier
            .lists()
            .iter()
            .zip(b.hier.lists())
            .map(|((da, _), (db, _))| {
                let union: std::collections::BTreeSet<_> = da.iter().chain(db).collect();
                union.len()
            })
            .sum()
    }

    /// The redundancy voter's chain: each bit's snapshot is taken into
    /// the previous bit's retired one, copying only the sets the machine
    /// wrote since it was last restored from it. A second machine that
    /// follows the chain restores from each recycled snapshot as from a
    /// fresh one.
    #[test]
    fn recycled_voter_snapshots_match_fresh_ones() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = warmed(8, &mut rng);
        let batch = m.snapshot();
        m.restore_from(&batch);
        random_ops(&mut m, &mut rng, 8);
        let mut prepared = m.snapshot();
        let mut twin = machine(9);
        twin.restore_from(&prepared);
        let full = all_sets();
        for bit in 0..50 {
            trials(&mut m, &prepared, &mut rng, &format!("bit {bit}"));
            random_ops(&mut m, &mut rng, 8);
            let fresh = m.snapshot();
            assert_eq!(prepared.hier.dirty_sets(), 0, "a retired snapshot was run");
            let expected = dirty_union(&prepared, &m);
            let copied = sets_copied(|| m.snapshot_into(&mut prepared));
            assert_eq!(copied, expected, "bit {bit}: sets copied");
            assert!(
                copied * 10 < full,
                "bit {bit}: {copied} of {full} sets copied"
            );
            assert_recycled(&prepared, &fresh, &m, &format!("bit {bit}"));
            twin.restore_from(&prepared);
            assert_same(&twin, &prepared, true, &format!("bit {bit}: twin"));
        }
        // The next batch item starts from the batch snapshot again.
        trials(&mut m, &prepared, &mut rng, "last bit");
        m.restore_from(&batch);
        assert_same(&m, &batch, true, "the next item");
    }

    /// A spare retired by another machine shares no anchor with the one
    /// snapshotting into it, so everything is copied.
    #[test]
    fn a_spare_from_another_machine_is_copied_whole() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = warmed(9, &mut rng);
        let mut b = warmed(10, &mut rng);
        let batch = b.snapshot();
        b.restore_from(&batch);
        let mut spare = a.snapshot();
        let full = all_sets();
        for round in 0..6 {
            let (m, other) = if round % 2 == 0 {
                (&mut b, &mut a)
            } else {
                (&mut a, &mut b)
            };
            random_ops(m, &mut rng, 8);
            let fresh = m.snapshot();
            let copied = sets_copied(|| m.snapshot_into(&mut spare));
            assert_eq!(copied, full, "round {round}: sets copied");
            assert_recycled(&spare, &fresh, m, &format!("round {round}"));
            trials(m, &spare, &mut rng, &format!("round {round}"));
            // The other machine's next snapshot recycles this one.
            random_ops(other, &mut rng, 8);
        }
    }

    /// A snapshot that was run after it was taken, and is then the
    /// target: its own dirty sets are copied back as well.
    #[test]
    fn a_run_snapshot_is_a_valid_target() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = warmed(11, &mut rng);
        let mut snap = m.snapshot();
        m.restore_from(&snap);
        for round in 0..10 {
            random_ops(&mut snap, &mut rng, 15);
            random_ops(&mut m, &mut rng, 15);
            let fresh = m.snapshot();
            let expected = dirty_union(&snap, &m);
            let copied = sets_copied(|| m.snapshot_into(&mut snap));
            assert!(copied >= expected, "round {round}: too few sets copied");
            assert_recycled(&snap, &fresh, &m, &format!("round {round}"));
            trials(&mut m, &snap, &mut rng, &format!("round {round}"));
        }
    }

    /// A machine never restored (anchor 0) snapshots into a spare.
    #[test]
    fn a_never_restored_machine_snapshots_into_a_spare() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = warmed(12, &mut rng);
        let mut spare = m.snapshot();
        for round in 0..5 {
            random_ops(&mut m, &mut rng, 15);
            let fresh = m.snapshot();
            m.snapshot_into(&mut spare);
            assert_recycled(&spare, &fresh, &m, &format!("round {round}"));
            assert_eq!(spare.lineage.base_anchor, 0, "round {round}");
            let mut other = m.clone();
            trials(&mut other, &spare, &mut rng, &format!("round {round}"));
        }
    }

    /// `clflush` writes a set only where it cleared a tag.
    #[test]
    fn flushing_an_absent_line_writes_no_set() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = warmed(7, &mut rng);
        let snap = m.snapshot();
        m.restore_from(&snap);
        let absent = 0x70_0000;
        assert_eq!(m.hierarchy().probe_data(absent), HitLevel::Mem);
        m.flush_addr(absent);
        assert_eq!(m.hier.dirty_sets(), 0, "absent line dirtied a set");
        let present = (0..)
            .map(|_| data_addr(&mut rng))
            .find(|&a| m.hierarchy().probe_data(a) != HitLevel::Mem);
        m.flush_addr(present.unwrap());
        assert!(
            m.hier.dirty_sets() > 0,
            "flushing a cached line must list it"
        );
        m.restore_from(&snap);
        assert_same(&m, &snap, true, "after flushes");
    }
}

/// Unit installs predecode only the unit they add; the predecode cache
/// must still come out exactly as a fresh `rebuild` of the merged program.
#[cfg(test)]
mod install_tests {
    use super::*;
    use crate::isa::Assembler;
    use std::collections::BTreeMap;
    use uwm_rng::rngs::StdRng;
    use uwm_rng::{Rng, SeedableRng};

    /// Units land anywhere on these four code pages.
    const BASE: u64 = 0x1_0000;
    const SLOTS: u64 = 4 * 4096 / INST_SIZE;
    /// A stub that stores `r6` to `[r5]`: dynamic code written by the
    /// machine itself.
    const STUB: u64 = 0x100;

    fn stub() -> Program {
        let mut a = Assembler::new(STUB);
        a.push(Inst::StoreInd {
            base: 5,
            offset: 0,
            src: 6,
        });
        a.push(Inst::Halt);
        a.finish().unwrap()
    }

    /// A straight run of 1–16 instructions ending in `Halt`.
    fn unit(rng: &mut StdRng) -> Program {
        let mut a = Assembler::new(BASE + rng.gen_range(0..SLOTS - 17) * INST_SIZE);
        for _ in 0..rng.gen_range(0..16u32) {
            a.push(Inst::Mov {
                dst: 1,
                src: Operand::Imm(rng.gen_range(0..1000u32)),
            });
        }
        a.push(Inst::Halt);
        a.finish().unwrap()
    }

    /// Every aligned pc of every page the stream touches.
    fn pcs() -> impl Iterator<Item = u64> {
        (STUB & !4095..4096)
            .chain(BASE..BASE + SLOTS * INST_SIZE)
            .step_by(INST_SIZE as usize)
    }

    /// The program equals the model, and every static slot of a fresh
    /// rebuild is served as such; `exact` also requires the whole cache,
    /// dynamic slots included, to equal the rebuild.
    fn check(m: &Machine, model: &BTreeMap<u64, Inst>, exact: bool, what: &str) {
        let want: Vec<(u64, Inst)> = model.iter().map(|(&a, &i)| (a, i)).collect();
        assert_eq!(m.fetch.program.iter().collect::<Vec<_>>(), want, "{what}");
        let mut fresh = CodeCache::new();
        fresh.rebuild(&m.fetch.program);
        for pc in pcs() {
            let got = m.fetch.code.lookup(pc);
            if exact || fresh.lookup(pc).is_some() {
                assert_eq!(got, fresh.lookup(pc), "{what}: pc {pc:#x}");
            }
        }
        if exact {
            assert_eq!(m.fetch.code.has_dynamic(), fresh.has_dynamic(), "{what}");
        }
    }

    #[test]
    fn unit_installs_match_a_fresh_rebuild() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Machine::new(MachineConfig::quiet(), seed);
            m.load_program(stub());
            let mut model: BTreeMap<u64, Inst> = stub().iter().collect();
            let mut snap: Option<(Box<Machine>, BTreeMap<u64, Inst>)> = None;
            for op in 0..120 {
                let what = format!("seed {seed} op {op}");
                match rng.gen_range(0..6u32) {
                    0 => {
                        let u = unit(&mut rng);
                        model.extend(u.iter());
                        m.add_program_from(&u);
                        check(&m, &model, true, &what);
                    }
                    1 => {
                        let u = unit(&mut rng);
                        model.extend(u.iter());
                        m.add_program(u);
                        check(&m, &model, true, &what);
                    }
                    2 => {
                        let mut p = stub();
                        p.merge(unit(&mut rng));
                        model = p.iter().collect();
                        m.load_program(p);
                        check(&m, &model, true, &what);
                    }
                    3 | 4 => {
                        // Code written behind the machine's back or by its
                        // own store, then fetched: a dynamic slot.
                        let pc = BASE + rng.gen_range(0..SLOTS) * INST_SIZE;
                        if model.contains_key(&pc) {
                            continue;
                        }
                        let halt = Inst::Halt.encode();
                        if op % 2 == 0 {
                            m.mem_mut().write_bytes(pc, &halt);
                        } else {
                            m.set_reg(5, pc);
                            m.set_reg(6, u64::from_le_bytes(halt));
                            assert_eq!(m.run_at(STUB), RunOutcome::Halted);
                        }
                        assert_eq!(m.run_at(pc), RunOutcome::Halted, "{what}");
                        assert!(m.fetch.code.has_dynamic(), "{what}");
                        check(&m, &model, false, &what);
                    }
                    _ => snap = Some((m.snapshot(), model.clone())),
                }
                // A snapshot shares the cache; installs must not reach it.
                if let Some((s, s_model)) = &snap {
                    check(s, s_model, false, &format!("{what} (snapshot)"));
                }
            }
        }
    }
}
