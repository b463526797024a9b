//! Restores and snapshots reuse the buffers a warmed machine already has.
//!
//! The redundancy voter snapshots the machine once per decoded bit and
//! rewinds it before every trial, and a batch rewinds it once per item, so
//! a restore that reallocates (a derived `clone_from` is
//! `*self = src.clone()`) pays the allocator on every one of them. A
//! counting global allocator checks the steady state makes no allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uwm_sim::isa::{AluOp, Assembler, Inst, Operand};
use uwm_sim::machine::{Machine, MachineConfig, RunOutcome};

/// Counts the allocations made on the current thread, so tests running
/// on other threads of the harness do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const INPUT: u32 = 0x8000;
const OUTPUT: u32 = 0x9000;
const SCRATCH: u32 = 0xA000;

/// A gate-shaped program: a transaction that stores (undo log), then
/// faults so a speculative window loads the output line, and a
/// mispredicted branch whose wrong path stores (store buffer) and loads.
fn gate_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::default(), 7);
    let mut a = Assembler::new(0x1000);
    a.xbegin("handler");
    a.push(Inst::Mov {
        dst: 1,
        src: Operand::Imm(5),
    });
    a.push(Inst::Store {
        addr: SCRATCH,
        src: 1,
    });
    a.push(Inst::Load {
        dst: 2,
        addr: INPUT,
    });
    a.push(Inst::Div {
        dst: 3,
        a: 1,
        b: Operand::Imm(0),
    });
    a.push(Inst::LoadInd {
        dst: 4,
        base: 2,
        offset: OUTPUT,
    });
    a.push(Inst::Xend);
    a.label("handler").unwrap();
    a.brz(INPUT, "done");
    a.push(Inst::Store {
        addr: SCRATCH + 64,
        src: 1,
    });
    a.push(Inst::Alu {
        op: AluOp::Add,
        dst: 5,
        a: 1,
        b: Operand::Imm(1),
    });
    a.push(Inst::Load {
        dst: 6,
        addr: OUTPUT + 128,
    });
    a.label("done").unwrap();
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    m.mem_mut().write_u64(u64::from(INPUT), 0);
    m.mem_mut().write_u64(u64::from(SCRATCH), 0);
    m.mem_mut().write_u64(u64::from(OUTPUT), 0);
    m.mem_mut().write_u64(u64::from(OUTPUT) + 128, 0);
    m
}

/// One activation: reset the output lines, run the gate, time a read.
fn activate(m: &mut Machine) -> u64 {
    m.flush_addr(u64::from(OUTPUT));
    m.flush_addr(u64::from(OUTPUT) + 128);
    m.flush_addr(u64::from(INPUT));
    assert_eq!(m.run_at(0x1000), RunOutcome::Halted);
    m.timed_read(u64::from(OUTPUT))
}

/// The voter's per-bit pattern: snapshot, three trials rewound without
/// rewinding the clock, then a full rewind.
fn voter_round(m: &mut Machine, snap: &mut Machine) -> u64 {
    m.snapshot_into(snap);
    let mut sum = 0;
    for _ in 0..3 {
        sum += activate(m);
        m.restore_from_keeping_clock(snap);
    }
    sum += activate(m);
    m.restore_from(snap);
    sum
}

#[test]
fn warmed_restores_and_snapshots_allocate_nothing() {
    let mut m = gate_machine();
    let mut snap = m.snapshot();
    // Warm-up: activations grow the undo log, the store buffer and the
    // caches' dirty lists to their working size.
    let mut delays = 0;
    for _ in 0..4 {
        delays += voter_round(&mut m, &mut snap);
    }
    let before = allocs();
    for _ in 0..16 {
        delays += voter_round(&mut m, &mut snap);
    }
    let made = allocs() - before;
    assert!(delays > 0);
    assert_eq!(made, 0, "steady-state voter rounds allocated {made} times");

    // The rounds did exercise the transaction and the speculative path.
    let was = m.stats();
    activate(&mut m);
    let now = m.stats();
    assert_eq!(now.tx_aborted - was.tx_aborted, 1);
    assert_eq!(now.mispredicts - was.mispredicts, 1);
    assert!(now.speculative_insts > was.speculative_insts);
}
