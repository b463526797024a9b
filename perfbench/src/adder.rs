//! `adder32_batch`: seeded operand pairs stream through the compiled
//! `adder32_spec` plan via `BatchRunner` on a quiet machine, so every sum
//! can be checked exactly.

use std::collections::HashMap;
use std::time::Instant;

use uwm_core::batch::BatchRunner;
use uwm_core::circuit::{adder32_inputs, adder32_outputs, adder32_spec, CircuitPlan};
use uwm_core::exec::{batch_seed, ShardedExecutor};
use uwm_core::layout::Layout;
use uwm_core::substrate::DEFAULT_ALIAS_STRIDE;
use uwm_sim::machine::{Machine, MachineConfig};

use crate::common::{draw, equal_bits, median_secs, setup_burst, Rates, Run, Sample};
use crate::meter::{nanos, Meter, Sink};

/// Items per `BatchRunner::run_observed` call.
const ROUND: usize = 512;
/// Rounds every run completes; the simulated metrics cover these.
const PREFIX_ROUNDS: usize = 2;
/// Output bits per item: 32 sum bits and the carry.
const OUT_BITS: u64 = 33;

/// The adder's set-up: the spec build and `CircuitSpec::compile`.
fn build_plan() -> CircuitPlan {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    adder32_spec(&mut lay)
        .expect("the adder fits the layout")
        .compile()
}

/// Builds the plan; returns it with the median `CircuitSpec::compile`
/// time in seconds.
pub fn setup() -> (CircuitPlan, f64) {
    let mut lay = Layout::new(DEFAULT_ALIAS_STRIDE);
    let spec = adder32_spec(&mut lay).expect("the adder fits the layout");
    let compile_s = median_secs(|| {
        std::hint::black_box(spec.compile());
    });
    (spec.compile(), compile_s)
}

fn operands(seed: u64, item: u64) -> (u32, u32) {
    let x = draw(seed, 0xadd3_2000, item);
    (x as u32, (x >> 32) as u32)
}

/// Runs the prefix rounds, then timed rounds until `seconds` have passed.
///
/// Untraced, the timed call runs on bare `Machine`s; each round is then
/// replayed, untimed, on untimed meters for the per-item statistics, and
/// the two runs' observations must be equal, which proves the meter
/// transparent on every item. Traced, the timed call runs on timed meters.
pub fn phase(plan: &CircuitPlan, seed: u64, shards: usize, traced: bool, seconds: f64) -> Run {
    let runner = BatchRunner::new(plan.clone(), ShardedExecutor::new(shards), seed);
    let sink = &Sink::default();
    let metered = |timed: bool| {
        move || {
            let created = Instant::now();
            let m = Machine::new(MachineConfig::quiet(), seed);
            Meter::pooled(m, timed, created, sink)
        }
    };
    let bare = || Machine::new(MachineConfig::quiet(), seed);
    // `BatchRunner` reseeds item `j` of a call with `batch_seed(seed, j)`;
    // the meters key item statistics by that value.
    let slot: HashMap<u64, usize> = (0..ROUND).map(|j| (batch_seed(seed, j), j)).collect();
    let mut run = Run::default();
    let mut samples = Vec::new();
    for round in 0.. {
        // The prefix rounds run first and untimed: they warm the process
        // (allocator, caches) and give the simulated metrics.
        let timed_round = round >= PREFIX_ROUNDS;
        if timed_round && run.wall_s >= seconds {
            break;
        }
        let pairs: Vec<(u32, u32)> = (0..ROUND)
            .map(|j| operands(seed, (round * ROUND + j) as u64))
            .collect();
        let inputs: Vec<Vec<bool>> = pairs.iter().map(|&(a, b)| adder32_inputs(a, b)).collect();
        let t0 = Instant::now();
        let obs = if traced {
            runner.run_observed(metered(true), &inputs)
        } else {
            runner.run_observed(bare, &inputs)
        }
        .expect("adder inputs match the plan's arity");
        let wall = t0.elapsed();
        if !traced {
            let replay = runner
                .run_observed(metered(false), &inputs)
                .expect("adder inputs match the plan's arity");
            if replay != obs {
                run.errors.push(format!(
                    "adder32_batch: metered observations differ from bare machines' in round {round}"
                ));
            }
            setup_burst(&mut run.setup, || {
                std::hint::black_box(build_plan());
            });
        }
        let logs = sink.drain();
        let before = run.sim;
        let mut stats = vec![None; ROUND];
        for log in &logs {
            for &(key, delta) in &log.item_stats {
                stats[slot[&key]] = Some(delta);
            }
        }
        for ((&(a, b), o), st) in pairs.iter().zip(&obs).zip(&stats) {
            let st = st.expect("every item ran on a metered backend");
            let (sum, carry) = adder32_outputs(&o.bits());
            let (want, want_carry) = a.overflowing_add(b);
            let ok =
                equal_bits(u64::from(sum), u64::from(want), 32) + u64::from(carry == want_carry);
            run.items += 1;
            run.failed += u64::from(ok != OUT_BITS);
            if timed_round {
                run.sim.add_stats(&st);
                run.sim.gate_evals_tsx += plan.gate_count() as u64;
            } else {
                let p = &mut run.prefix;
                p.items += 1;
                p.bits_checked += OUT_BITS;
                p.bits_ok += ok;
                p.cycles.push(o.cycles);
                for r in &o.readings {
                    p.fingerprint.word(u64::from(r.bit));
                    p.fingerprint.word(r.delay);
                }
                p.fingerprint.word(o.cycles);
                p.fingerprint.stats(&st);
            }
        }
        if !timed_round {
            continue;
        }
        run.wall_s += wall.as_secs_f64();
        run.timed_items += ROUND as u64;
        samples.push(Sample {
            items: ROUND as u64,
            gate_evals: run.sim.gate_evals() - before.gate_evals(),
            insts: run.sim.insts() - before.insts(),
            wall_ns: nanos(wall),
        });
        if traced {
            let l = &mut run.layers;
            l.shard_wall_ns += nanos(wall) * logs.len() as u64;
            for log in &logs {
                l.add_ops(&log.setup);
                l.add_ops(&log.items);
                l.add("core.instantiate", 1, log.setup_ns, log.setup.total_ns());
                let items = log.item_stats.len() as u64;
                l.add(
                    "core.circuit_run",
                    items,
                    log.circuit_run_ns,
                    log.circuit_run_child_ns,
                );
                l.shard_busy_ns.push(log.busy_ns);
            }
        }
    }
    run.rates = Rates::median_of(&samples);
    run
}
