//! `wm_apt_trigger`: Table-3 traffic under default noise. Experiment `e`
//! arms a fresh `WmApt` from `seed + e`, pings seeded wrong triggers (none
//! may fire), then pings the true trigger until it fires or `CAP` pings.
//!
//! Pings are the items: pings-to-fire is geometric (Table 3), so a rate of
//! whole experiments would swing with the seed far more than the host.
//! `items_per_s` and `gate_evals_per_s` are totals over the timed window,
//! so they take in arming and the rare mis-decoded ping that runs garbage
//! code to the step limit. `setup_s` is the median `WmApt::new` time over
//! the window's experiments.
//!
//! Traced runs decode through a public-API replica of `WmApt::ping` whose
//! voter runs on a [`Meter`]; it must reproduce the untraced pings, cycles
//! and statistics exactly.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use uwm_apps::wm_apt::{
    Payload, Trigger, WmApt, CONNECT_MARKER, MAP_ADDR, MARKER_ADDR, TRIGGER_BYTES,
};
use uwm_core::skelly::CounterBank;
use uwm_core::substrate::Substrate;
use uwm_crypto::Aes128;
use uwm_sim::isa::{Inst, INST_SIZE};
use uwm_sim::machine::MachineStats;

use crate::common::{draw, Layers, Rates, Run};
use crate::meter::{nanos, stats_delta, Meter, OP_NAMES};

/// Experiments every run completes; the simulated metrics cover these.
const PREFIX: usize = 16;
/// Wrong triggers pinged per experiment.
const WRONG: usize = 3;
/// True-trigger pings after which an experiment counts as failed.
const CAP: u64 = 500;
/// Timed experiments a shard runs at most.
const MAX_EXPERIMENTS: usize = 4096;

/// Wrong trigger `k` of experiment `e`.
fn wrong_trigger(seed: u64, e: usize, k: usize) -> Trigger {
    let mut t = [0u8; TRIGGER_BYTES];
    for (w, chunk) in t.chunks_exact_mut(8).enumerate() {
        let index = ((e * WRONG + k) * 3 + w) as u64;
        chunk.copy_from_slice(&draw(seed, 0x7716_9e25, index).to_le_bytes());
    }
    t
}

/// What `WmApt::ping` keeps private, read back through public calls right
/// after arming: the masked header and the caller stub's address (the
/// encrypted payload goes to [`Trace::encrypted`]).
struct Armed {
    stored_header: Trigger,
    caller_pc: u64,
}

impl Armed {
    fn read(apt: &WmApt, encrypted: &mut Vec<u8>) -> Self {
        let region = apt.visible_region();
        let mut stored_header = [0u8; TRIGGER_BYTES];
        stored_header.copy_from_slice(&region[..TRIGGER_BYTES]);
        let program = apt.skelly().machine().program();
        let jmp = Inst::Jmp {
            target: MAP_ADDR as u32,
        };
        let caller_pc = program
            .iter()
            .find(|&(pc, i)| {
                matches!(i, Inst::Xbegin { .. }) && program.get(pc + INST_SIZE) == Some(jmp)
            })
            .map(|(pc, _)| pc)
            .expect("wm_apt installs an xbegin; jmp caller stub");
        encrypted.clear();
        encrypted.extend_from_slice(&region[TRIGGER_BYTES + 8..]);
        Self {
            stored_header,
            caller_pc,
        }
    }
}

/// A shard's tracing state, built before its first experiment so that
/// tracing allocates nothing while experiments run.
struct Trace {
    layers: Layers,
    /// The current experiment's encrypted payload.
    encrypted: Vec<u8>,
}

impl Trace {
    fn new() -> Self {
        let mut layers = Layers::default();
        for name in OP_NAMES
            .iter()
            .chain(&["core.vote", "apps.wm_apt_ping", "apps.wm_apt_new"])
        {
            layers.add(name, 0, 0, 0);
        }
        Self {
            layers,
            encrypted: Vec::with_capacity(1024),
        }
    }
}

/// `WmApt::ping` through public calls, with the median-of-3 voter on a
/// timed [`Meter`]. `bank` plays the skelly's counter bank. Returns whether
/// the payload fired and the raw TSX-XOR executions spent.
fn replica_ping(
    apt: &mut WmApt,
    armed: &Armed,
    body: &Trigger,
    trace: &mut Trace,
    bank: &mut CounterBank,
) -> (bool, u64) {
    let t_ping = Instant::now();
    let layers = &mut trace.layers;
    let encrypted = &trace.encrypted;
    let red = apt.skelly().redundancy();
    let gate = apt.skelly().tsx_xor_gate();
    let xor_before = bank.get("TSX_XOR").map_or(0, |c| c.raw_total);
    let mut meter = Meter::borrowed(apt.skelly_mut().machine_mut());
    let mut candidate = [0u8; TRIGGER_BYTES];
    let mut votes_ns = 0;
    let mut votes_child_ns = 0;
    for (byte, c) in candidate.iter_mut().enumerate() {
        for bit in 0..8 {
            let a = armed.stored_header[byte] >> bit & 1 == 1;
            let b = body[byte] >> bit & 1 == 1;
            let before = meter.item_ops().total_ns();
            let t = Instant::now();
            let v = red
                .vote(&gate, &mut meter, &[a, b], bank)
                .expect("the XOR gate takes two inputs");
            let child = meter.item_ops().total_ns() - before;
            votes_ns += layers.time("core.vote", t, child);
            votes_child_ns += child;
            if v {
                *c |= 1 << bit;
            }
        }
    }
    let mut key = [0u8; 16];
    key.copy_from_slice(&candidate[8..]);
    let decrypted = Aes128::new(&key).decrypt_cbc_zero_iv(encrypted);
    let mem = meter.machine().mem_mut();
    mem.write_bytes(MAP_ADDR, &candidate[..8]);
    mem.write_bytes(MAP_ADDR + 4 * INST_SIZE, &decrypted);
    mem.write_u64(MARKER_ADDR, 0);
    meter.run_at(armed.caller_pc);
    let mem = meter.machine().mem_mut();
    let triggered = mem.read_u64(MARKER_ADDR) == CONNECT_MARKER;
    mem.write_bytes(MAP_ADDR + 4 * INST_SIZE, encrypted);
    let ops = meter.item_ops().clone();
    drop(meter);
    layers.add_ops(&ops);
    let stub_ns = ops.total_ns() - votes_child_ns;
    layers.add(
        "apps.wm_apt_ping",
        1,
        nanos(t_ping.elapsed()),
        votes_ns + stub_ns,
    );
    let xor = bank.get("TSX_XOR").map_or(0, |c| c.raw_total) - xor_before;
    (triggered, xor)
}

/// An arming step or a ping: when it ended, its host time and its
/// simulated work.
struct Event {
    /// A ping (an item), or else the arming step.
    ping: bool,
    end: Instant,
    wall_ns: u64,
    insts: u64,
    cycles: u64,
    xor_execs: u64,
}

/// One experiment's outcome.
struct ExpOut {
    /// Its arming step and pings, as a range of the shard's event log.
    events: Range<usize>,
    false_fires: u64,
    /// The true trigger fired (within `CAP`).
    fired: bool,
    /// The experiment ran to a fire or to `CAP` (not cut by the deadline).
    finished: bool,
    pings_to_fire: u64,
    stats: MachineStats,
    end_cycles: u64,
}

impl ExpOut {
    fn pings(&self) -> u64 {
        self.events.len() as u64 - 1
    }
}

fn experiment(
    seed: u64,
    e: usize,
    deadline: Option<Instant>,
    mut trace: Option<&mut Trace>,
    log: &mut Vec<Event>,
) -> ExpOut {
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let first = log.len();
    let mut bank = CounterBank::new();
    let t = Instant::now();
    let (mut apt, trigger) =
        WmApt::new(seed.wrapping_add(e as u64), Payload::ReverseShell).expect("wm_apt arms");
    let end = Instant::now();
    let m = apt.skelly().machine();
    let stats = m.stats();
    // Arming runs no weird gates: the skelly's counter bank starts empty.
    log.push(Event {
        ping: false,
        end,
        wall_ns: nanos(end - t),
        insts: stats.committed_insts + stats.speculative_insts,
        cycles: m.cycles(),
        xor_execs: 0,
    });
    let armed = trace.as_deref_mut().map(|tr| {
        tr.layers.add("apps.wm_apt_new", 1, nanos(end - t), 0);
        Armed::read(&apt, &mut tr.encrypted)
    });
    let mut out = ExpOut {
        events: first..log.len(),
        false_fires: 0,
        fired: false,
        finished: false,
        pings_to_fire: 0,
        stats: MachineStats::default(),
        end_cycles: 0,
    };
    let mut ping = |apt: &mut WmApt, body: &Trigger, out: &mut ExpOut| {
        let m = apt.skelly().machine();
        let (stats, cycles) = (m.stats(), m.cycles());
        let t = Instant::now();
        let (fired, xor) = match (&armed, trace.as_deref_mut()) {
            (Some(armed), Some(trace)) => replica_ping(apt, armed, body, trace, &mut bank),
            _ => {
                let r = apt.ping(body);
                (r.triggered, r.xor_executions)
            }
        };
        let end = Instant::now();
        let m = apt.skelly().machine();
        let d = stats_delta(m.stats(), stats);
        log.push(Event {
            ping: true,
            end,
            wall_ns: nanos(end - t),
            insts: d.committed_insts + d.speculative_insts,
            cycles: m.cycles() - cycles,
            xor_execs: xor,
        });
        out.events.end = log.len();
        fired
    };
    'run: {
        for k in 0..WRONG {
            if expired() {
                break 'run;
            }
            let mut w = wrong_trigger(seed, e, k);
            if w == trigger {
                w[0] ^= 1;
            }
            out.false_fires += u64::from(ping(&mut apt, &w, &mut out));
        }
        for n in 1..=CAP {
            if expired() {
                break 'run;
            }
            if ping(&mut apt, &trigger, &mut out) {
                out.fired = true;
                out.pings_to_fire = n;
                break;
            }
        }
        out.finished = true;
    }
    let m = apt.skelly().machine();
    out.stats = m.stats();
    out.end_cycles = m.cycles();
    out
}

/// Event-log entries each shard reserves before its first experiment.
const LOG_CAPACITY: usize = 1 << 16;

/// One shard's experiments and the event log their ranges point into.
struct ShardOut {
    /// Layer spans of the timed experiments (traced phases).
    layers: Option<Layers>,
    prefix: Vec<(usize, ExpOut)>,
    timed: Vec<ExpOut>,
    log: Vec<Event>,
    timed_start: Instant,
    timed_end: Instant,
}

/// Runs the prefix experiments, then experiments on `shards` threads
/// until `seconds` have passed.
///
/// Each shard is one thread that runs its share of the prefix, waits for
/// the others, then runs timed experiments. Its result buffers are
/// reserved before the first experiment, so inside the loop only the
/// measured code allocates, as in a plain ping loop. (Result vectors that
/// grew between experiments would place long-lived blocks among the
/// voter's per-bit machine clones and change whether glibc trims the heap
/// after each vote, which moves ping time by about a quarter.)
pub fn phase(seed: u64, shards: usize, traced: bool, seconds: f64) -> Run {
    let prefix_next = AtomicUsize::new(0);
    let timed_next = AtomicUsize::new(PREFIX);
    let barrier = Barrier::new(shards);
    let shard_loop = || {
        let mut log = Vec::with_capacity(LOG_CAPACITY);
        let mut prefix = Vec::with_capacity(PREFIX);
        let mut timed = Vec::with_capacity(MAX_EXPERIMENTS);
        let mut trace = traced.then(Trace::new);
        // The prefix runs first and untimed: it warms the process and
        // gives the simulated metrics.
        loop {
            let e = prefix_next.fetch_add(1, Ordering::Relaxed);
            if e >= PREFIX {
                break;
            }
            let out = experiment(seed, e, None, trace.as_mut(), &mut log);
            prefix.push((e, out));
        }
        barrier.wait();
        if let Some(t) = &mut trace {
            t.layers.reset();
        }
        let timed_start = Instant::now();
        let deadline = timed_start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline && timed.len() < MAX_EXPERIMENTS {
            let e = timed_next.fetch_add(1, Ordering::Relaxed);
            timed.push(experiment(
                seed,
                e,
                Some(deadline),
                trace.as_mut(),
                &mut log,
            ));
        }
        ShardOut {
            layers: trace.map(|t| t.layers),
            prefix,
            timed,
            log,
            timed_start,
            timed_end: Instant::now(),
        }
    };
    let shard_outs: Vec<ShardOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards).map(|_| s.spawn(shard_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an experiment panicked"))
            .collect()
    });

    let mut run = Run::default();
    let mut prefix: Vec<(usize, &ExpOut, &[Event])> = shard_outs
        .iter()
        .flat_map(|so| {
            so.prefix
                .iter()
                .map(|(e, o)| (*e, o, &so.log[o.events.clone()]))
        })
        .collect();
    prefix.sort_by_key(|p| p.0);
    for (_, o, events) in prefix {
        check(&mut run, o);
        let p = &mut run.prefix;
        p.items += 1;
        p.bits_checked += 1;
        p.bits_ok += u64::from(o.fired && o.false_fires == 0);
        p.cycles
            .extend(events.iter().filter(|ev| ev.ping).map(|ev| ev.cycles));
        p.pings_to_fire.push(o.pings_to_fire);
        let f = &mut p.fingerprint;
        for w in [
            o.pings(),
            o.pings_to_fire,
            u64::from(o.fired),
            o.false_fires,
            o.end_cycles,
        ] {
            f.word(w);
        }
        for w in events
            .iter()
            .flat_map(|ev| [ev.insts, ev.cycles, ev.xor_execs])
        {
            f.word(w);
        }
        f.stats(&o.stats);
    }
    if seconds <= 0.0 {
        return run;
    }

    let start = shard_outs
        .iter()
        .map(|so| so.timed_start)
        .min()
        .expect("a phase runs at least one shard");
    let end = shard_outs
        .iter()
        .map(|so| so.timed_end)
        .max()
        .unwrap_or(start);
    let wall = end.duration_since(start);
    run.wall_s = wall.as_secs_f64();
    // Each shard's rates count the events that ended before its deadline
    // (the pings running at the deadline are checked, not counted), over
    // the time from its window's start to the last of them.
    let mut items_per_s = 0.0;
    let mut gate_evals_per_s = 0.0;
    // Σ insts × (insts ÷ s) and Σ insts over the counted events.
    let (mut weighted, mut insts) = (0.0, 0.0);
    for so in &shard_outs {
        let deadline = so.timed_start + Duration::from_secs_f64(seconds);
        let (mut pings, mut gate_evals, mut last) = (0, 0, so.timed_start);
        for o in &so.timed {
            check(&mut run, o);
            run.timed_items += o.pings();
            run.sim.add_stats(&o.stats);
            for ev in &so.log[o.events.clone()] {
                run.sim.gate_evals_tsx += ev.xor_execs;
                if !ev.ping {
                    run.setup.push(ev.wall_ns as f64 * 1e-9);
                }
                if ev.end > deadline {
                    continue;
                }
                pings += u64::from(ev.ping);
                gate_evals += ev.xor_execs;
                last = last.max(ev.end);
                let n = ev.insts as f64;
                weighted += n * n * 1e9 / ev.wall_ns.max(1) as f64;
                insts += n;
            }
        }
        let span = last.duration_since(so.timed_start).as_secs_f64().max(1e-9);
        items_per_s += pings as f64 / span;
        gate_evals_per_s += gate_evals as f64 / span;
        if let Some(l) = &so.layers {
            run.layers.merge(l);
        }
        if traced {
            let busy = so.timed_end.duration_since(so.timed_start);
            run.layers.shard_busy_ns.push(nanos(busy));
        }
    }
    run.rates = Rates {
        items_per_s,
        gate_evals_per_s,
        // Over 90% of the simulated instructions come from the few pings
        // (about 2%) whose mis-decoded jump runs garbage code to the step
        // limit, and how many of those a window holds swings by a third
        // with the seed. Weighting each event's speed by its instructions
        // gives the simulation speed of a typical instruction, dominated by
        // that long-run path, without the swing; times the shard count, as
        // the shards simulate side by side.
        sim_insts_per_s: weighted / insts.max(1.0) * shards as f64,
    };
    if traced {
        run.layers.shard_wall_ns = nanos(wall) * shards as u64;
    }
    run
}

/// Counts an experiment's pings as checked items: a wrong trigger that
/// fires, or a true trigger that never fires within `CAP`, fails.
fn check(run: &mut Run, o: &ExpOut) {
    run.items += o.pings();
    run.failed += o.false_fires + u64::from(o.finished && !o.fired);
}
