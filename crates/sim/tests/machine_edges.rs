//! Edge-case integration tests for the simulated machine: speculation
//! bounds, transaction misuse, BTB timing, contention observability, and
//! decode strictness — the behaviours weird machines lean on hardest.

use uwm_sim::isa::{AluOp, Assembler, Inst, Operand, INST_SIZE};
use uwm_sim::machine::{FaultCause, Machine, MachineConfig, RunOutcome};

fn quiet() -> Machine {
    Machine::new(MachineConfig::quiet(), 0)
}

/// A speculative wrong path that loops forever is bounded by the
/// instruction cap, not the window length.
#[test]
fn speculative_infinite_loop_is_bounded() {
    let mut m = quiet();
    m.mem_mut().write_u64(0x4000, 0); // branch actually taken
    let mut a = Assembler::new(0);
    a.brz(0x4000, "skip");
    a.label("spin").unwrap();
    a.jmp("spin"); // wrong path: tight infinite loop (zero-latency jumps)
    a.label("skip").unwrap();
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());

    // Mistrain toward fall-through so the wrong path executes.
    let alias = m.predictor().alias_stride();
    let mut t = Assembler::new(alias);
    t.push(Inst::Brz {
        cond_addr: 0x4100,
        rel: 0,
    });
    t.push(Inst::Halt);
    m.add_program(&t.finish().unwrap());
    m.mem_mut().write_u64(0x4100, 1);
    for _ in 0..4 {
        m.run_at(alias);
    }
    m.flush_addr(0x4000);
    assert_eq!(
        m.run_at(0),
        RunOutcome::Halted,
        "speculation must terminate"
    );
    let stats = m.stats();
    assert!(stats.speculative_insts <= uwm_sim::machine::MAX_SPEC_INSTS as u64 + 4);
}

/// Nested `xbegin` is transaction misuse and aborts to the outer handler.
#[test]
fn nested_xbegin_aborts() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    a.xbegin("handler");
    a.push(Inst::Xbegin { handler: 0 }); // nested → fault → abort
    a.push(Inst::Xend);
    a.push(Inst::Halt);
    a.label("handler").unwrap();
    a.push(Inst::Mov {
        dst: 7,
        src: Operand::Imm(1),
    });
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    assert_eq!(m.run_at(0), RunOutcome::Halted);
    assert_eq!(m.reg(7), 1, "outer abort handler must run");
    assert_eq!(m.stats().tx_aborted, 1);
}

/// A committed transaction's stores persist; an aborted one's do not —
/// side by side on the same machine.
#[test]
fn committed_vs_aborted_stores() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    // Committed transaction.
    a.xbegin("h1");
    a.push(Inst::Mov {
        dst: 0,
        src: Operand::Imm(11),
    });
    a.push(Inst::Store {
        addr: 0x4000,
        src: 0,
    });
    a.push(Inst::Xend);
    a.label("h1").unwrap();
    // Aborted transaction.
    a.xbegin("h2");
    a.push(Inst::Mov {
        dst: 0,
        src: Operand::Imm(22),
    });
    a.push(Inst::Store {
        addr: 0x4008,
        src: 0,
    });
    a.push(Inst::Div {
        dst: 1,
        a: 1,
        b: Operand::Imm(0),
    });
    a.push(Inst::Xend);
    a.label("h2").unwrap();
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    assert_eq!(m.run_at(0), RunOutcome::Halted);
    assert_eq!(m.mem().read_u64(0x4000), 11);
    assert_eq!(m.mem().read_u64(0x4008), 0);
}

/// BTB timing: a jump to a remembered target is measurably faster than a
/// jump whose BTB entry points elsewhere — the BTB-WR read primitive.
#[test]
fn btb_hit_vs_wrong_target_timing() {
    let mut m = quiet();
    let jmp_pc = 0u64;
    let mut a = Assembler::new(jmp_pc);
    a.push(Inst::JmpInd { base: 10 });
    let mut p = a.finish().unwrap();
    // Two landing pads.
    p.put(0x400, Inst::Halt);
    p.put(0x800, Inst::Halt);
    m.load_program(p);
    m.warm_code_range(0, 8);
    m.warm_code_range(0x400, 0x408);
    m.warm_code_range(0x800, 0x808);

    // Prime the BTB toward 0x400.
    m.set_reg(10, 0x400);
    m.run_at(jmp_pc);
    let t0 = m.cycles();
    m.run_at(jmp_pc); // predicted correctly
    let hit_cost = m.cycles() - t0;

    m.set_reg(10, 0x800);
    let t1 = m.cycles();
    m.run_at(jmp_pc); // BTB holds 0x400 → bubble
    let miss_cost = m.cycles() - t1;
    assert!(
        miss_cost > hit_cost,
        "wrong BTB target must cost extra (hit {hit_cost}, miss {miss_cost})"
    );
}

/// The Fence instruction exposes ROB pressure built by cache-missing
/// loads — the ROB-WR mechanism, at ISA level.
#[test]
fn fence_observes_rob_pressure() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    for i in 0..8u32 {
        a.push(Inst::Load {
            dst: 1,
            addr: 0x8000 + i * 64,
        });
    }
    a.push(Inst::Fence);
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    m.warm_code_range(0, 10 * INST_SIZE);

    // Run once with all targets flushed (they miss), once warm.
    let t0 = m.cycles();
    m.run_at(0);
    let cold = m.cycles() - t0;
    let t1 = m.cycles();
    m.run_at(0);
    let warm = m.cycles() - t1;
    assert!(cold > warm + 500, "cold run {cold} vs warm {warm}");
}

/// Strict decoding: corrupting any single byte of a valid encoding either
/// keeps it valid-and-identical (impossible for single-byte flips) or
/// makes it Invalid or a *different* instruction — never silently the
/// same semantics with garbage accepted.
#[test]
fn single_byte_corruption_changes_decode() {
    let insts = [
        Inst::Jmp { target: 0x1234 },
        Inst::Load {
            dst: 3,
            addr: 0x4000,
        },
        Inst::Xbegin { handler: 0x88 },
        Inst::Rdtscp { dst: 2 },
    ];
    for inst in insts {
        let bytes = inst.encode();
        for i in 0..8 {
            for flip in [0x01u8, 0x10, 0x80] {
                let mut corrupted = bytes;
                corrupted[i] ^= flip;
                let decoded = Inst::decode(&corrupted);
                assert_ne!(
                    decoded, inst,
                    "corrupting byte {i} of {inst:?} must change decode"
                );
            }
        }
    }
}

/// Flat (emulator) mode executes architecturally identically to the MA
/// mode for deterministic programs: a plain loop, a transaction whose
/// store and register write are rolled back by a division fault, and a
/// transaction that `Halt`s (a syscall-class event, so it aborts to the
/// handler instead of halting). The MA model runs a post-fault window
/// after the division; the flat model opens none — the property the
/// emulation detector relies on.
#[test]
fn flat_and_ma_models_agree_architecturally() {
    let counting_loop = {
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(10),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.label("loop").unwrap();
        a.push(Inst::Load {
            dst: 0,
            addr: 0x4000,
        });
        a.push(Inst::Alu {
            op: AluOp::Sub,
            dst: 0,
            a: 0,
            b: Operand::Imm(1),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.push(Inst::Alu {
            op: AluOp::Add,
            dst: 5,
            a: 5,
            b: Operand::Imm(3),
        });
        a.brz(0x4000, "end");
        a.jmp("loop");
        a.label("end").unwrap();
        a.push(Inst::Halt);
        a.finish().unwrap()
    };
    let faulting_tx = {
        let mut a = Assembler::new(0);
        a.xbegin("handler");
        a.push(Inst::Mov {
            dst: 1,
            src: Operand::Imm(1),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 1,
        });
        a.push(Inst::Div {
            dst: 2,
            a: 2,
            b: Operand::Imm(0),
        });
        a.push(Inst::Load {
            dst: 3,
            addr: 0x4400,
        });
        a.push(Inst::Xend);
        a.label("handler").unwrap();
        a.push(Inst::Halt);
        a.finish().unwrap()
    };
    let halting_tx = {
        let mut a = Assembler::new(0);
        a.xbegin("handler");
        a.push(Inst::Halt);
        a.label("handler").unwrap();
        a.push(Inst::Mov {
            dst: 3,
            src: Operand::Imm(9),
        });
        a.push(Inst::Store {
            addr: 0x4008,
            src: 3,
        });
        a.push(Inst::Halt);
        a.finish().unwrap()
    };
    // (name, program, expected register, expected memory word)
    for (name, prog, (reg, value), (addr, word)) in [
        ("counting loop", counting_loop, (5, 30), (0x4000, 0)),
        ("faulting transaction", faulting_tx, (1, 0), (0x4000, 7)),
        ("halting transaction", halting_tx, (3, 9), (0x4008, 9)),
    ] {
        let run = |cfg: MachineConfig| {
            let mut m = Machine::new(cfg, 1);
            m.mem_mut().write_u64(0x4000, 7);
            m.load_program(prog.clone());
            assert_eq!(m.run_at(0), RunOutcome::Halted, "{name}");
            m
        };
        let ma = run(MachineConfig::quiet());
        let flat = run(MachineConfig::flat());
        assert_eq!(flat.reg(reg), value, "{name}: register {reg}");
        assert_eq!(flat.mem().read_u64(addr), word, "{name}: word {addr:#x}");
        for r in 0..16 {
            assert_eq!(ma.reg(r), flat.reg(r), "{name}: register {r}");
        }
        assert_eq!(ma.mem().read_u64(addr), word, "{name}: word {addr:#x}");
        assert_eq!(ma.stats().tx_aborted, flat.stats().tx_aborted, "{name}");
        // No window may run on the flat model, nor even fetch (a window's
        // fetch would fill the I-cache that flat execution never touches).
        assert_eq!(flat.stats().speculative_insts, 0, "{name}: flat speculated");
        assert!(!flat.hierarchy().in_l1i(0), "{name}: flat window fetched");
        if name == "faulting transaction" {
            assert!(ma.stats().speculative_insts > 0, "MA post-fault window");
        }
    }
}

/// Div-by-zero via a register divisor faults like an immediate one, on
/// both execution models, and surfaces at the faulting instruction.
#[test]
fn div_by_zero_register_faults() {
    for cfg in [MachineConfig::quiet(), MachineConfig::flat()] {
        let mut m = Machine::new(cfg, 0);
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 2,
            src: Operand::Imm(0),
        });
        a.push(Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Reg(2),
        });
        m.load_program(a.finish().unwrap());
        assert_eq!(
            m.run_at(0),
            RunOutcome::Fault {
                pc: INST_SIZE,
                cause: FaultCause::DivByZero
            }
        );
    }
}

/// Self-modifying code: a program that overwrites one of its own
/// (dynamically written) instructions with a committed `Store` must see
/// the new decoding on the next fetch — and the predecode cache must not
/// change a single cycle of any of it: the run takes the cycles it took
/// when fetches could bypass the cache.
#[test]
fn self_modifying_store_is_seen_and_predecode_is_cycle_neutral() {
    let scenario = || {
        let mut m = quiet();
        // Dynamic code at 0x2000: "Mov r5, 1; Halt" written as bytes
        // (no static program entry, so fetches decode from memory).
        let code_at = 0x2000u64;
        let mut bytes = Vec::new();
        for i in [
            Inst::Mov {
                dst: 5,
                src: Operand::Imm(1),
            },
            Inst::Halt,
        ] {
            bytes.extend_from_slice(&i.encode());
        }
        m.mem_mut().write_bytes(code_at, &bytes);
        // The replacement encoding ("Mov r5, 2") parked at a data address.
        let patch = Inst::Mov {
            dst: 5,
            src: Operand::Imm(2),
        }
        .encode();
        m.mem_mut().write_u64(0x4000, u64::from_le_bytes(patch));
        // Static program: patcher at 0x100 loads the new encoding and
        // stores it over the first dynamic instruction, then jumps there.
        let mut a = Assembler::new(0x100);
        a.push(Inst::Load {
            dst: 0,
            addr: 0x4000,
        });
        a.push(Inst::Store {
            addr: code_at as u32,
            src: 0,
        });
        a.push(Inst::Jmp {
            target: code_at as u32,
        });
        m.load_program(a.finish().unwrap());

        // First run executes (and caches) the original instruction.
        assert_eq!(m.run_at(code_at), RunOutcome::Halted);
        let first = m.reg(5);
        // Second run patches it in-program; the fetch after the store
        // must see the new decoding.
        assert_eq!(m.run_at(0x100), RunOutcome::Halted);
        let second = m.reg(5);
        (first, second, m.cycles())
    };

    let (first, second, cycles) = scenario();
    assert_eq!(first, 1, "original instruction executes first");
    assert_eq!(second, 2, "patched instruction must be re-decoded");
    assert_eq!(cycles, 647, "predecode must not change cycles");
}

/// Self-modifying code above 4 GiB, where memory and the predecode cache
/// leave the direct-indexed page range: an indirect jump reaches
/// dynamically written code whose two instructions straddle a page
/// boundary, a store overwrites the first, and the next jump must see the
/// new decoding, in the cycles it took when fetches could bypass the
/// predecode cache.
#[test]
fn self_modifying_code_above_4_gib() {
    // The last slot of a page above 4 GiB; its `Halt` opens the next page.
    const CODE_AT: u64 = (1 << 32) + 0x2000 - INST_SIZE;
    let scenario = || {
        let mut m = quiet();
        let mov = |imm| Inst::Mov {
            dst: 5,
            src: Operand::Imm(imm),
        };
        let mut bytes = mov(1).encode().to_vec();
        bytes.extend_from_slice(&Inst::Halt.encode());
        m.mem_mut().write_bytes(CODE_AT, &bytes);
        m.mem_mut()
            .write_u64(0x4000, u64::from_le_bytes(mov(2).encode()));
        // 0x100: jump to the code; 0x200: patch its first instruction with
        // the encoding parked at 0x4000, then jump to it.
        let mut a = Assembler::new(0x100);
        a.push(Inst::JmpInd { base: 1 });
        let mut p = a.finish().unwrap();
        let mut a = Assembler::new(0x200);
        a.push(Inst::Load {
            dst: 0,
            addr: 0x4000,
        });
        a.push(Inst::StoreInd {
            base: 1,
            offset: 0,
            src: 0,
        });
        a.push(Inst::JmpInd { base: 1 });
        p.merge(&a.finish().unwrap());
        m.load_program(p);
        m.set_reg(1, CODE_AT);

        let mut seen = Vec::new();
        for entry in [0x100, 0x100, 0x200, 0x100] {
            assert_eq!(m.run_at(entry), RunOutcome::Halted);
            seen.push(m.reg(5));
        }
        (seen, m.cycles())
    };
    let (seen, cycles) = scenario();
    assert_eq!(seen, [1, 1, 2, 2], "the overwrite is fetched, and kept");
    assert_eq!(cycles, 1084, "predecode must not change cycles");
}

/// A restore re-points the predecode cache at the snapshot's, so the
/// fetch's page memo must be dropped with it. Here the memo from the
/// machine's own cache names page index 0 for `PC`'s page, while in the
/// snapshot's cache index 0 is another page: a surviving memo would fetch
/// that page's instruction in place of the snapshot's.
#[test]
fn a_restore_drops_the_fetch_page_memo() {
    const PC: u64 = 0x5000;
    const OTHER: u64 = 0x9000;
    let stub = |at: u64, imm: u32| {
        let mut a = Assembler::new(at);
        a.push(Inst::Mov {
            dst: 5,
            src: Operand::Imm(imm),
        });
        a.push(Inst::Halt);
        a.finish().unwrap()
    };
    // The snapshot's cache installs `OTHER`'s page first (index 0), then
    // `PC`'s (index 1).
    let mut s = quiet();
    s.load_program(stub(OTHER, 2));
    s.add_program(&stub(PC, 1));
    let snap = s.snapshot();

    let mut m = quiet();
    m.load_program(stub(PC, 3));
    assert_eq!(m.run_at(PC), RunOutcome::Halted);
    assert_eq!(m.reg(5), 3, "the memo now holds PC's page at index 0");
    m.restore_from(&snap);
    assert_eq!(m.run_at(PC), RunOutcome::Halted);
    assert_eq!(m.reg(5), 1, "the snapshot's instruction at PC");
}

/// The VMX warm-up window is visible from program timing (VMX-WR).
#[test]
fn vmx_warm_vs_cold_program_timing() {
    let mut m = quiet();
    let mut a = Assembler::new(0);
    a.push(Inst::Vmx);
    a.push(Inst::Halt);
    m.load_program(a.finish().unwrap());
    m.warm_code_range(0, 16);
    let t0 = m.cycles();
    m.run_at(0);
    let cold = m.cycles() - t0;
    let t1 = m.cycles();
    m.run_at(0);
    let warm = m.cycles() - t1;
    assert!(cold > warm + 200, "cold {cold} vs warm {warm}");
}

/// The one fetch the predecode cache never serves: a pc that is not a
/// multiple of `INST_SIZE`. An indirect jump there executes the
/// instruction encoded by the eight memory bytes at that address, both
/// when it commits and on a mispredicted wrong path, and it sees those
/// bytes as they are now, not as an earlier fetch decoded them.
#[test]
fn indirect_jump_to_an_unaligned_pc_decodes_memory_bytes() {
    const CODE_AT: u64 = 0x2004;
    const COND: u32 = 0x4000;
    const PROBES: [u32; 2] = [0x6000, 0x7000];
    let mut m = quiet();
    let put = |m: &mut Machine, insts: &[Inst]| {
        let bytes: Vec<u8> = insts.iter().flat_map(|i| i.encode()).collect();
        m.mem_mut().write_bytes(CODE_AT, &bytes);
    };
    // 0x100: the committed jump. 0: a branch whose fall-through (the
    // wrong path once it is trained toward it) is the same jump.
    let mut a = Assembler::new(0);
    a.brz(COND, "skip");
    a.push(Inst::JmpInd { base: 1 });
    a.label("skip").unwrap();
    a.push(Inst::Halt);
    let mut p = a.finish().unwrap();
    p.put(0x100, Inst::JmpInd { base: 1 });
    m.load_program(p);
    m.set_reg(1, CODE_AT);

    for imm in [7, 9] {
        let mov = Inst::Mov {
            dst: 5,
            src: Operand::Imm(imm),
        };
        put(&mut m, &[mov, Inst::Halt]);
        assert_eq!(m.run_at(0x100), RunOutcome::Halted);
        assert_eq!(m.reg(5), u64::from(imm), "committed fetch at {CODE_AT:#x}");
    }

    m.mem_mut().write_u64(COND as u64, 1);
    for _ in 0..4 {
        m.run_at(0); // trains the branch toward the fall-through
    }
    m.mem_mut().write_u64(COND as u64, 0);
    m.warm_code_range(0, 3 * INST_SIZE);
    m.warm_code_range(CODE_AT, CODE_AT + INST_SIZE);
    for (i, probe) in PROBES.into_iter().enumerate() {
        let load = Inst::Load {
            dst: 6,
            addr: probe,
        };
        put(&mut m, &[load, Inst::Halt]);
        for p in PROBES {
            m.flush_addr(p as u64);
        }
        m.flush_addr(COND as u64);
        let spec = m.stats().speculative_insts;
        assert_eq!(m.run_at(0), RunOutcome::Halted);
        assert!(m.stats().speculative_insts > spec, "the wrong path ran");
        assert_eq!(m.reg(6), 0, "the wrong path's load never commits");
        for (j, p) in PROBES.into_iter().enumerate() {
            assert_eq!(
                m.hierarchy().in_l1d(p as u64),
                i == j,
                "wrong-path fetch at {CODE_AT:#x} loaded {:#x}",
                PROBES[i]
            );
        }
    }
}
