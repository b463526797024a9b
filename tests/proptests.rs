//! Property-style tests over the whole stack: ISA encoding, cache
//! invariants, memory, weird-gate semantics, and random weird circuits.
//!
//! The properties are checked over seeded random case sweeps (`uwm-rng`)
//! rather than a shrinking framework: the workspace builds offline with no
//! external dependencies, and a failing case prints its seed so it replays
//! exactly.

use uwm_core::circuit::CircuitBuilder;
use uwm_core::layout::Layout;
use uwm_core::skelly::Skelly;
use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};
use uwm_sim::cache::{Cache, CacheConfig};
use uwm_sim::isa::{AluOp, Inst, Operand, INST_SIZE};
use uwm_sim::machine::{Machine, MachineConfig};
use uwm_sim::memory::Memory;
use uwm_sim::replacement::Policy;

/// Cases per property; each failure message carries the case index, which
/// together with the fixed seed reproduces the exact input.
const CASES: usize = 256;

fn rand_reg(rng: &mut StdRng) -> u8 {
    rng.gen_range(0..16u8)
}

fn rand_operand(rng: &mut StdRng) -> Operand {
    if rng.gen::<bool>() {
        Operand::Reg(rand_reg(rng))
    } else {
        Operand::Imm(rng.gen::<u32>())
    }
}

fn rand_alu_op(rng: &mut StdRng) -> AluOp {
    match rng.gen_range(0..7u32) {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        _ => AluOp::Shr,
    }
}

fn rand_inst(rng: &mut StdRng) -> Inst {
    match rng.gen_range(0..21u32) {
        0 => Inst::Nop,
        1 => Inst::Halt,
        2 => Inst::Xend,
        3 => Inst::Vmx,
        4 => Inst::Fence,
        5 => Inst::Invalid,
        6 => Inst::Mov {
            dst: rand_reg(rng),
            src: rand_operand(rng),
        },
        7 => Inst::Alu {
            op: rand_alu_op(rng),
            dst: rand_reg(rng),
            a: rand_reg(rng),
            b: rand_operand(rng),
        },
        8 => Inst::Mul {
            dst: rand_reg(rng),
            a: rand_reg(rng),
            b: rand_operand(rng),
        },
        9 => Inst::Div {
            dst: rand_reg(rng),
            a: rand_reg(rng),
            b: rand_operand(rng),
        },
        10 => Inst::Load {
            dst: rand_reg(rng),
            addr: rng.gen::<u32>(),
        },
        11 => Inst::LoadInd {
            dst: rand_reg(rng),
            base: rand_reg(rng),
            offset: rng.gen::<u32>(),
        },
        12 => Inst::Store {
            addr: rng.gen::<u32>(),
            src: rand_reg(rng),
        },
        13 => Inst::StoreInd {
            base: rand_reg(rng),
            offset: rng.gen::<u32>(),
            src: rand_reg(rng),
        },
        14 => Inst::Flush {
            addr: rng.gen::<u32>(),
        },
        15 => Inst::FlushInd {
            base: rand_reg(rng),
            offset: rng.gen::<u32>(),
        },
        16 => Inst::TouchCode {
            addr: rng.gen::<u32>(),
        },
        17 => Inst::Jmp {
            target: rng.gen::<u32>(),
        },
        18 => Inst::JmpInd {
            base: rand_reg(rng),
        },
        19 => Inst::Brz {
            cond_addr: rng.gen::<u32>(),
            rel: rng.gen::<u32>() as i16,
        },
        _ => {
            if rng.gen::<bool>() {
                Inst::Rdtscp { dst: rand_reg(rng) }
            } else {
                Inst::Xbegin {
                    handler: rng.gen::<u32>(),
                }
            }
        }
    }
}

/// Every instruction round-trips through its binary encoding.
#[test]
fn isa_encode_decode_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x150_0001);
    for case in 0..CASES * 4 {
        let i = rand_inst(&mut rng);
        assert_eq!(Inst::decode(&i.encode()), i, "case {case}: {i:?}");
    }
}

/// Decoding never panics, and valid decodes are canonical: re-encoding a
/// successfully decoded instruction reproduces the original bytes.
#[test]
fn isa_decode_is_canonical() {
    let mut rng = StdRng::seed_from_u64(0x150_0002);
    for case in 0..CASES * 4 {
        let mut bytes = [0u8; 8];
        rng.fill(&mut bytes);
        let decoded = Inst::decode(&bytes);
        if decoded != Inst::Invalid {
            assert_eq!(decoded.encode(), bytes, "case {case}: {decoded:?}");
        }
    }
}

/// Memory is a map: the last write to an address wins, unrelated
/// addresses are untouched.
#[test]
fn memory_semantics() {
    let mut rng = StdRng::seed_from_u64(0x150_0003);
    for case in 0..CASES {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1..40usize) {
            let addr = rng.gen_range(0..0x10_000u64) & !7; // aligned model
            let val = rng.gen::<u64>();
            mem.write_u64(addr, val);
            model.insert(addr, val);
        }
        let probe = rng.gen_range(0..0x10_000u64) & !7;
        assert_eq!(
            mem.read_u64(probe),
            model.get(&probe).copied().unwrap_or(0),
            "case {case}, probe {probe:#x}"
        );
    }
}

/// Page numbers the memory model draws from: both sides of a directory
/// leaf edge, of the 4 GiB direct-indexed range and far above it.
const MODEL_PAGES: [u64; 8] = [
    0,
    1,
    0x3ff,
    0x400,
    0xf_ffff,
    0x10_0000,
    0x10_0001,
    0x1234_5678,
];

/// An address on one of [`MODEL_PAGES`], a third of the time within 8
/// bytes of the page end so multi-byte accesses straddle into the next.
fn model_addr(rng: &mut StdRng) -> u64 {
    let page = MODEL_PAGES[rng.gen_range(0..MODEL_PAGES.len())];
    let offset = if rng.gen_range(0..3u32) == 0 {
        4096 - rng.gen_range(1..=8u64)
    } else {
        rng.gen_range(0..4096u64)
    };
    (page << 12) + offset
}

type PageModel = std::collections::HashMap<u64, [u8; 4096]>;

fn model_write(model: &mut PageModel, addr: u64, bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        let a = addr + i as u64;
        model.entry(a >> 12).or_insert([0; 4096])[(a & 4095) as usize] = b;
    }
}

fn model_read(model: &PageModel, addr: u64, len: usize) -> Vec<u8> {
    (addr..addr + len as u64)
        .map(|a| model.get(&(a >> 12)).map_or(0, |p| p[(a & 4095) as usize]))
        .collect()
}

/// `Memory` against a `HashMap<page, [u8; 4096]>` reference: seeded
/// random byte, word and slice writes and reads (page-straddling ones
/// included, above 4 GiB too) on three memories, and restores of one onto
/// another — onto memories with more pages, fewer pages, or the same
/// pages first written in another order.
#[test]
fn memory_matches_a_page_map_model() {
    let mut rng = StdRng::seed_from_u64(0x150_0009);
    for case in 0..CASES / 4 {
        let mut mems: [(Memory, PageModel); 3] = Default::default();
        for op in 0..200 {
            let what = format!("case {case} op {op}");
            let i = rng.gen_range(0..mems.len());
            let addr = model_addr(&mut rng);
            match rng.gen_range(0..8u32) {
                0 => {
                    let b = rng.gen::<u8>();
                    mems[i].0.write_u8(addr, b);
                    model_write(&mut mems[i].1, addr, &[b]);
                }
                1 | 2 => {
                    let v = rng.gen::<u64>();
                    mems[i].0.write_u64(addr, v);
                    model_write(&mut mems[i].1, addr, &v.to_le_bytes());
                }
                3 => {
                    let mut bytes = vec![0u8; rng.gen_range(0..24usize)];
                    rng.fill(&mut bytes[..]);
                    mems[i].0.write_bytes(addr, &bytes);
                    model_write(&mut mems[i].1, addr, &bytes);
                }
                4 => {
                    let (m, model) = &mems[i];
                    assert_eq!(vec![m.read_u8(addr)], model_read(model, addr, 1), "{what}");
                    let word = m.read_u64(addr).to_le_bytes();
                    assert_eq!(word.to_vec(), model_read(model, addr, 8), "{what}");
                    let arr = m.read_array::<8>(addr);
                    assert_eq!(arr.to_vec(), model_read(model, addr, 8), "{what}");
                    let len = rng.gen_range(0..24usize);
                    assert_eq!(
                        m.read_bytes(addr, len),
                        model_read(model, addr, len),
                        "{what}"
                    );
                }
                _ => {
                    let j = rng.gen_range(0..mems.len());
                    let snap = mems[j].clone();
                    mems[i].0.restore_from(&snap.0);
                    mems[i].1 = snap.1;
                }
            }
            let (m, model) = &mems[i];
            assert_eq!(m.resident_pages(), model.len(), "{what}: resident pages");
        }
        for (i, (m, model)) in mems.iter().enumerate() {
            for &page in model.keys() {
                let addr = page << 12;
                assert_eq!(
                    m.read_bytes(addr, 4096),
                    model_read(model, addr, 4096),
                    "case {case}: memory {i}, page {page:#x}"
                );
            }
            for (j, (other, other_model)) in mems.iter().enumerate() {
                assert_eq!(
                    m == other,
                    model == other_model,
                    "case {case}: memories {i} and {j} compare unlike their models"
                );
            }
        }
    }
}

/// Cache invariant: immediately after an access, the line is present;
/// after a flush, it is absent — under any interleaving.
#[test]
fn cache_access_flush_invariants() {
    let mut rng = StdRng::seed_from_u64(0x150_0004);
    for case in 0..CASES {
        let mut cache = Cache::new(CacheConfig {
            sets: 16,
            ways: 2,
            policy: Policy::Lru,
        });
        for _ in 0..rng.gen_range(1..200usize) {
            let addr = rng.gen_range(0..(1u64 << 14));
            if rng.gen::<bool>() {
                cache.access(addr);
                assert!(
                    cache.contains(addr),
                    "case {case}, addr {addr:#x} after access"
                );
            } else {
                cache.invalidate(addr);
                assert!(
                    !cache.contains(addr),
                    "case {case}, addr {addr:#x} after flush"
                );
            }
        }
    }
}

/// Occupancy never exceeds capacity.
#[test]
fn cache_occupancy_bounded() {
    let mut rng = StdRng::seed_from_u64(0x150_0005);
    let cfg = CacheConfig {
        sets: 8,
        ways: 4,
        policy: Policy::TreePlru,
    };
    for case in 0..CASES {
        let mut cache = Cache::new(cfg);
        for _ in 0..rng.gen_range(1..300usize) {
            cache.access(rng.gen_range(0..(1u64 << 20)));
            assert!(cache.occupancy() <= cfg.sets * cfg.ways, "case {case}");
        }
    }
}

/// The machine executes straight-line ALU programs exactly like a plain
/// interpreter (architectural correctness under MA modelling).
#[test]
fn machine_matches_alu_model() {
    let mut rng = StdRng::seed_from_u64(0x150_0006);
    for case in 0..CASES / 2 {
        let prog: Vec<(AluOp, u8, u8, u32)> = (0..rng.gen_range(1..30usize))
            .map(|_| {
                (
                    rand_alu_op(&mut rng),
                    rand_reg(&mut rng),
                    rand_reg(&mut rng),
                    rng.gen(),
                )
            })
            .collect();
        let mut m = Machine::new(MachineConfig::quiet(), 0);
        let mut model = [0u64; 16];
        let mut a = uwm_sim::isa::Assembler::new(0);
        for &(op, dst, src, imm) in &prog {
            a.push(Inst::Alu {
                op,
                dst,
                a: src,
                b: Operand::Imm(imm),
            });
        }
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        m.run_at(0);
        for &(op, dst, src, imm) in &prog {
            let b = imm as u64;
            let av = model[src as usize];
            model[dst as usize] = match op {
                AluOp::Add => av.wrapping_add(b),
                AluOp::Sub => av.wrapping_sub(b),
                AluOp::And => av & b,
                AluOp::Or => av | b,
                AluOp::Xor => av ^ b,
                AluOp::Shl => av << (b & 63),
                AluOp::Shr => av >> (b & 63),
            };
        }
        for r in 0..16u8 {
            assert_eq!(m.reg(r), model[r as usize], "case {case}, r{r}");
        }
    }
}

/// Random weird circuits agree with their architectural reference on a
/// quiet machine — the key semantic property of the whole framework.
/// (16 random circuits x all-input sweeps; each case builds real gates.)
#[test]
fn random_circuits_match_reference() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Machine::new(MachineConfig::quiet(), seed);
        let mut lay = Layout::new(m.predictor().alias_stride());
        let mut cb = CircuitBuilder::new();
        let n_inputs = rng.gen_range(2..5usize);
        let mut live: Vec<uwm_core::circuit::Wire> =
            (0..n_inputs).map(|_| cb.input(&mut lay).unwrap()).collect();
        let gates = rng.gen_range(1..5usize);
        for _ in 0..gates {
            if live.len() < 2 {
                break;
            }
            let a = live.swap_remove(rng.gen_range(0..live.len()));
            let b = live.swap_remove(rng.gen_range(0..live.len()));
            match rng.gen_range(0..4u32) {
                0 => live.push(cb.and(&mut lay, a, b).unwrap()),
                1 => live.push(cb.or(&mut lay, a, b).unwrap()),
                2 => live.push(cb.xor(&mut lay, a, b).unwrap()),
                _ => {
                    let (qa, qo) = cb.and_or(&mut lay, a, b).unwrap();
                    live.push(qa);
                    live.push(qo);
                }
            }
        }
        let out = live.pop().expect("at least one live wire");
        cb.mark_output(out);
        let circuit = cb.finish().unwrap().instantiate(&mut m);

        for bits in 0..(1u32 << n_inputs) {
            let inputs: Vec<bool> = (0..n_inputs).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                circuit.run(&mut m, &inputs).unwrap(),
                circuit.eval_reference(&inputs).unwrap(),
                "seed {seed}, inputs {inputs:?}"
            );
        }
    }
}

/// Voted skelly word operations equal their ALU counterparts for random
/// operands (quiet machine; a handful of cases — each op is 32–128 gates).
#[test]
fn skelly_word_ops_match_alu_random() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut sk = Skelly::quiet(99).unwrap();
    for _ in 0..6 {
        let (a, b) = (rng.gen::<u32>(), rng.gen::<u32>());
        assert_eq!(sk.xor32(a, b), a ^ b);
        assert_eq!(sk.and32(a, b), a & b);
        assert_eq!(sk.or32(a, b), a | b);
        assert_eq!(sk.add32(a, b), a.wrapping_add(b));
    }
}

// Keep `INST_SIZE` used so the import mirrors the machine contract.
#[test]
fn inst_size_is_eight() {
    assert_eq!(INST_SIZE, 8);
}
