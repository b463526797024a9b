//! A performance-counter μWM detector — the defense the paper's §7
//! discusses (PerSpectron-style anomaly detection on microarchitectural
//! event rates) and whose limits it argues.
//!
//! Weird-machine execution has a signature no normal program shares:
//! branches that mispredict *almost every time* (the gates mistrain them on
//! purpose), transactions that abort almost every time, and flush-heavy
//! memory behaviour. This detector samples those rates from the machine's
//! event counters and scores a window of execution.
//!
//! The paper's caveat reproduces too: the detector is *tunable around*, not
//! universal — μWM activity diluted below the thresholds (slow-played
//! gates interleaved with benign work) drops under the radar, which the
//! tests demonstrate.

use uwm_sim::machine::{Machine, MachineStats};

/// Event rates over an observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowProfile {
    /// Mispredicted branches per committed instruction.
    pub mispredict_rate: f64,
    /// Aborted transactions per begun transaction.
    pub tx_abort_rate: f64,
    /// Transactions begun per committed instruction.
    pub tx_density: f64,
    /// Squashed (wrong-path) instructions per committed instruction.
    pub speculative_ratio: f64,
}

impl WindowProfile {
    /// Computes rates from the difference of two stats snapshots.
    pub fn from_delta(before: MachineStats, after: MachineStats) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let committed = d(after.committed_insts, before.committed_insts).max(1.0);
        let begun = d(after.tx_begun, before.tx_begun);
        Self {
            mispredict_rate: d(after.mispredicts, before.mispredicts) / committed,
            tx_abort_rate: if begun == 0.0 {
                0.0
            } else {
                d(after.tx_aborted, before.tx_aborted) / begun
            },
            tx_density: begun / committed,
            speculative_ratio: d(after.speculative_insts, before.speculative_insts) / committed,
        }
    }
}

/// Detection thresholds. Defaults are deliberately conservative: benign
/// workloads rarely abort >30 % of transactions or mispredict >15 % of
/// instructions for a sustained window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Mispredicts-per-instruction considered anomalous.
    pub mispredict_threshold: f64,
    /// Abort fraction considered anomalous (when transactions are used).
    pub tx_abort_threshold: f64,
    /// Wrong-path instructions per committed instruction considered
    /// anomalous.
    pub speculative_threshold: f64,
    /// Minimum score (number of tripped indicators) to flag.
    pub min_indicators: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            mispredict_threshold: 0.15,
            tx_abort_threshold: 0.30,
            speculative_threshold: 0.5,
            min_indicators: 2,
        }
    }
}

/// The detector verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Event rates look like ordinary execution.
    Benign,
    /// Event rates match μWM activity.
    Suspicious,
}

/// Watches a machine's counters across an observation window.
///
/// # Examples
///
/// ```
/// use uwm_apps::detector::{Detector, Verdict};
/// use uwm_core::skelly::Skelly;
///
/// let mut sk = Skelly::quiet(0).unwrap();
/// let mut det = Detector::default();
/// det.begin(sk.machine());
/// for _ in 0..50 { sk.tsx_xor(true, false); }
/// assert_eq!(det.end(sk.machine()), Verdict::Suspicious);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Detector {
    cfg: DetectorConfig,
    start: Option<MachineStats>,
}

impl Detector {
    /// A detector with explicit thresholds.
    pub fn new(cfg: DetectorConfig) -> Self {
        Self { cfg, start: None }
    }

    /// Snapshots the window start.
    pub fn begin(&mut self, m: &Machine) {
        self.start = Some(m.stats());
    }

    /// Ends the window and returns the verdict.
    ///
    /// # Panics
    ///
    /// Panics if [`Detector::begin`] was not called first.
    pub fn end(&mut self, m: &Machine) -> Verdict {
        let profile = self.end_profile(m);
        self.classify(&profile)
    }

    /// Ends the window, returning the raw profile (for reporting).
    ///
    /// # Panics
    ///
    /// Panics if [`Detector::begin`] was not called first.
    pub fn end_profile(&mut self, m: &Machine) -> WindowProfile {
        let start = self.start.take().expect("begin() before end()");
        WindowProfile::from_delta(start, m.stats())
    }

    /// Classifies a profile against the thresholds.
    pub fn classify(&self, p: &WindowProfile) -> Verdict {
        let mut indicators = 0u32;
        if p.mispredict_rate > self.cfg.mispredict_threshold {
            indicators += 1;
        }
        if p.tx_density > 0.0 && p.tx_abort_rate > self.cfg.tx_abort_threshold {
            indicators += 1;
        }
        if p.speculative_ratio > self.cfg.speculative_threshold {
            indicators += 1;
        }
        if indicators >= self.cfg.min_indicators {
            Verdict::Suspicious
        } else {
            Verdict::Benign
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_core::skelly::Skelly;
    use uwm_sim::isa::{Assembler, Inst, Operand};
    use uwm_sim::machine::{Machine, MachineConfig};

    #[test]
    fn tsx_gate_burst_is_flagged() {
        let mut sk = Skelly::quiet(1).unwrap();
        let mut det = Detector::default();
        det.begin(sk.machine());
        for i in 0..60 {
            sk.tsx_and(i % 2 == 0, true);
        }
        let p = det.end_profile(sk.machine());
        assert!(p.tx_abort_rate > 0.9, "every gate transaction aborts");
        assert_eq!(det.classify(&p), Verdict::Suspicious);
    }

    #[test]
    fn bp_gate_burst_is_flagged() {
        let mut sk = Skelly::quiet(2).unwrap();
        let mut det = Detector::default();
        det.begin(sk.machine());
        // Exercise both BP-input levels: every direction flip forces the
        // gate to retrain the predictor against its saturated state.
        for i in 0..60 {
            sk.and(true, i % 2 == 0);
        }
        let p = det.end_profile(sk.machine());
        assert!(p.mispredict_rate > 0.15, "gates mistrain on purpose: {p:?}");
        assert_eq!(det.classify(&p), Verdict::Suspicious);
    }

    #[test]
    fn benign_program_is_not_flagged() {
        let mut m = Machine::new(MachineConfig::quiet(), 3);
        let mut det = Detector::default();
        det.begin(&m);
        // A plain loop: counts down r0 from 100, well-predicted branch.
        let mut a = Assembler::new(0);
        a.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(100),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.label("top").unwrap();
        a.push(Inst::Load {
            dst: 0,
            addr: 0x4000,
        });
        a.push(Inst::Alu {
            op: uwm_sim::isa::AluOp::Sub,
            dst: 0,
            a: 0,
            b: Operand::Imm(1),
        });
        a.push(Inst::Store {
            addr: 0x4000,
            src: 0,
        });
        a.brz(0x4000, "end");
        a.jmp("top");
        a.label("end").unwrap();
        a.push(Inst::Halt);
        m.load_program(a.finish().unwrap());
        m.run_at(0);
        let p = det.end_profile(&m);
        assert_eq!(det.classify(&p), Verdict::Benign, "profile {p:?}");
    }

    /// The paper's point: detection is evadable by dilution — interleave
    /// gates with enough benign work and the rates sink below threshold.
    #[test]
    fn diluted_weird_execution_evades_detection() {
        let mut sk = Skelly::quiet(4).unwrap();
        // Benign filler: a tight arithmetic loop on the same machine.
        let filler_pc = {
            let (m, lay) = sk.machine_and_layout();
            let pc = lay.alloc_app_code(64 * 40).unwrap();
            let mut a = Assembler::new(pc);
            for _ in 0..256 {
                a.push(Inst::Alu {
                    op: uwm_sim::isa::AluOp::Add,
                    dst: 6,
                    a: 6,
                    b: Operand::Imm(1),
                });
            }
            a.push(Inst::Halt);
            m.add_program(&a.finish().unwrap());
            pc
        };
        let mut det = Detector::default();
        det.begin(sk.machine());
        for i in 0..5 {
            sk.tsx_and(i % 2 == 0, true); // a trickle of weird work…
            for _ in 0..40 {
                sk.machine_mut().run_at(filler_pc); // …buried in benign work
            }
        }
        let p = det.end_profile(sk.machine());
        assert_eq!(
            det.classify(&p),
            Verdict::Benign,
            "dilution must evade the rate detector: {p:?}"
        );
    }
}
