//! `sha1_block`: seeded 64-byte blocks, one compression each from `H0`,
//! through `Sha1Batch::compress_many` on a quiet machine.
//!
//! `Sha1Batch` keeps its machines to itself, so the simulated counts come
//! from a replica of its pooled loop built from public calls
//! (`SkellySpec::instantiate`, `Machine::snapshot`/`restore_from`/
//! `reseed_noise`, `UwmSha1::compress`). Untraced runs replay every timed
//! block on the replica after the timed call and require equal digests;
//! traced runs time the replica itself. Host time inside `compress`
//! (skelly versus interpreter) is not split: that needs spans inside the
//! program.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use uwm_apps::sha1::{Sha1Batch, UwmSha1};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::skelly::SkellySpec;
use uwm_crypto::sha1::{compress_block, H0};
use uwm_sim::machine::{Machine, MachineConfig, MachineStats};

use crate::common::{draw, equal_bits, gate_totals, setup_burst, Layers, Rates, Run, Sample};
use crate::meter::{nanos, stats_delta};

/// Blocks per `compress_many` call.
const ROUND: usize = 8;
/// Rounds every run completes; the simulated metrics cover these.
const PREFIX_ROUNDS: usize = 1;
/// Output bits per item: five 32-bit state words.
const OUT_BITS: u64 = 160;

/// The SHA-1 set-up: `Sha1Batch::new`, which builds the `SkellySpec`.
pub fn setup(seed: u64, shards: usize) -> Sha1Batch {
    Sha1Batch::new(MachineConfig::quiet(), ShardedExecutor::new(shards), seed)
        .expect("the skelly spec fits its layout")
}

fn block(seed: u64, item: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    for (k, chunk) in b.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&draw(seed, 0x5a1_b10c, item * 8 + k as u64).to_le_bytes());
    }
    b
}

/// Busy time per shard: each shard's scratch holds one clock, which
/// reports the shard's lifetime when the executor drops it.
#[derive(Debug, Default)]
pub struct BusySink(Mutex<Vec<u64>>);

impl BusySink {
    pub fn drain(&self) -> Vec<u64> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

pub struct ShardClock<'a> {
    start: Instant,
    sink: &'a BusySink,
}

impl<'a> ShardClock<'a> {
    pub fn start(sink: &'a BusySink) -> Self {
        Self {
            start: Instant::now(),
            sink,
        }
    }
}

impl Drop for ShardClock<'_> {
    fn drop(&mut self) {
        let ns = nanos(self.start.elapsed());
        self.sink
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ns);
    }
}

/// One block's result on the replica.
struct ItemOut {
    digest: [u32; 5],
    stats: MachineStats,
    cycles: u64,
    gates: (u64, u64),
    layers: Layers,
}

struct Pool<'a> {
    sk: uwm_core::skelly::Skelly,
    snap: Box<Machine>,
    /// Pool set-up spans, handed to the shard's first item.
    pending: Layers,
    _clock: ShardClock<'a>,
}

/// `Sha1Batch::compress_many`'s pooled loop through public calls, with
/// every call timed.
fn replica(
    spec: &SkellySpec,
    seed: u64,
    shards: usize,
    blocks: &[[u8; 64]],
) -> (Vec<ItemOut>, Vec<u64>) {
    let busy = BusySink::default();
    let outs = ShardedExecutor::new(shards).run_with(
        blocks.len(),
        || {
            let clock = ShardClock::start(&busy);
            let mut pending = Layers::default();
            let t = Instant::now();
            let sk = spec.instantiate(MachineConfig::quiet(), seed);
            pending.time("core.skelly_instantiate", t, 0);
            let t = Instant::now();
            let snap = sk.machine().snapshot();
            pending.time("sim.snapshot", t, 0);
            Pool {
                sk,
                snap,
                pending,
                _clock: clock,
            }
        },
        |i, pool: &mut Pool| {
            let mut layers = std::mem::take(&mut pool.pending);
            let m = pool.sk.machine_mut();
            let t = Instant::now();
            m.restore_from(&pool.snap);
            layers.time("sim.restore", t, 0);
            let t = Instant::now();
            m.reseed_noise(batch_seed(seed, i));
            layers.time("sim.reseed", t, 0);
            let stats = m.stats();
            let (bp, tsx) = gate_totals(pool.sk.counters());
            let t = Instant::now();
            let digest = UwmSha1::new(&mut pool.sk).compress(H0, &blocks[i]);
            layers.time("apps.sha1_compress", t, 0);
            let (bp1, tsx1) = gate_totals(pool.sk.counters());
            let m = pool.sk.machine();
            ItemOut {
                digest,
                stats: stats_delta(m.stats(), stats),
                cycles: m.cycles(),
                gates: (bp1 - bp, tsx1 - tsx),
                layers,
            }
        },
    );
    (outs, busy.drain())
}

/// Runs the prefix round, then timed rounds until `seconds` have passed.
/// Untraced (`batch` given): times `compress_many` and replays each round
/// on the replica for its counts. Traced: times the replica.
pub fn phase(
    batch: Option<&Sha1Batch>,
    spec: &SkellySpec,
    seed: u64,
    shards: usize,
    seconds: f64,
) -> Run {
    let mut run = Run::default();
    let mut samples = Vec::new();
    for round in 0.. {
        // The prefix rounds run first and untimed: they warm the process
        // (allocator, caches) and give the simulated metrics.
        let timed_round = round >= PREFIX_ROUNDS;
        if timed_round && run.wall_s >= seconds {
            break;
        }
        let blocks: Vec<[u8; 64]> = (0..ROUND)
            .map(|j| block(seed, (round * ROUND + j) as u64))
            .collect();
        let t0 = Instant::now();
        let (digests, outs, wall) = match batch {
            Some(batch) => {
                let digests = batch.compress_many(&blocks);
                let wall = t0.elapsed();
                let (outs, _) = replica(spec, seed, shards, &blocks);
                (digests, outs, wall)
            }
            None => {
                let (outs, busy) = replica(spec, seed, shards, &blocks);
                let wall = t0.elapsed();
                if timed_round {
                    let l = &mut run.layers;
                    l.shard_wall_ns += nanos(wall) * busy.len() as u64;
                    l.shard_busy_ns.extend(busy);
                    for o in &outs {
                        l.merge(&o.layers);
                    }
                }
                (outs.iter().map(|o| o.digest).collect(), outs, wall)
            }
        };
        if timed_round {
            run.wall_s += wall.as_secs_f64();
            run.timed_items += ROUND as u64;
            samples.push(Sample {
                items: ROUND as u64,
                gate_evals: outs.iter().map(|o| o.gates.0 + o.gates.1).sum(),
                insts: outs
                    .iter()
                    .map(|o| o.stats.committed_insts + o.stats.speculative_insts)
                    .sum(),
                wall_ns: nanos(wall),
            });
        }
        if batch.is_some() {
            setup_burst(&mut run.setup, || {
                std::hint::black_box(setup(seed, shards));
            });
        }
        for (j, ((b, d), o)) in blocks.iter().zip(&digests).zip(&outs).enumerate() {
            if o.digest != *d {
                run.errors.push(format!(
                    "sha1_block: replica digest differs from compress_many at round {round} item {j}"
                ));
            }
            let want = compress_block(H0, b);
            let ok: u64 = d
                .iter()
                .zip(&want)
                .map(|(&x, &y)| equal_bits(u64::from(x), u64::from(y), 32))
                .sum();
            run.items += 1;
            run.failed += u64::from(ok != OUT_BITS);
            if timed_round {
                run.sim.add_stats(&o.stats);
                run.sim.gate_evals_bp += o.gates.0;
                run.sim.gate_evals_tsx += o.gates.1;
            } else {
                let p = &mut run.prefix;
                p.items += 1;
                p.bits_checked += OUT_BITS;
                p.bits_ok += ok;
                p.cycles.push(o.cycles);
                for &w in d {
                    p.fingerprint.word(u64::from(w));
                }
                p.fingerprint.word(o.cycles);
                p.fingerprint.word(o.gates.0);
                p.fingerprint.word(o.gates.1);
                p.fingerprint.stats(&o.stats);
            }
        }
    }
    run.rates = Rates::median_of(&samples);
    run
}
