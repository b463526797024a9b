//! The weird-obfuscation trigger system of §5.1 (`wm_apt`), with **benign
//! simulated payloads**.
//!
//! The mechanism reproduced end to end:
//!
//! 1. At build time a payload is encrypted under a random AES-128 key; a
//!    jump instruction and that key are XOR-encrypted against a random
//!    one-time pad (the *trigger*); the armed region — garbage header,
//!    divide-by-zero trap, encrypted payload — sits in ordinary memory and
//!    contains **no** readable payload bytes.
//! 2. Every incoming "ping" body is XORed against the stored header **on
//!    TSX weird-XOR circuits** — the decode computation itself is
//!    architecturally invisible, and its per-bit error rate is what makes
//!    several pings necessary (the paper's Table 3 / Figure 6).
//! 3. The candidate header is executed *inside a transaction*. A wrong
//!    trigger yields garbage instructions that fault and roll back —
//!    architecturally silent. The right trigger yields a jump over the
//!    trap into the freshly AES-decrypted payload, which commits the
//!    transaction and runs.
//!
//! The paper's payloads exfiltrate `/etc/shadow` and open a reverse shell;
//! ours copy a simulated secret between simulated memory regions and write
//! a connect-marker — same control flow, no capability.

use uwm_rng::rngs::StdRng;
use uwm_rng::{Rng, SeedableRng};

use uwm_core::error::Result;
use uwm_core::skelly::{Redundancy, Skelly};
use uwm_crypto::Aes128;
use uwm_sim::isa::{Assembler, Inst, Operand, INST_SIZE};
use uwm_sim::machine::MachineConfig;

/// Where the armed region is mapped in simulated memory.
pub const MAP_ADDR: u64 = 0x0400_0000;
/// Where a triggered payload writes its marker.
pub const MARKER_ADDR: u64 = 0x0500_0000;
/// Simulated `/etc/shadow` contents (pre-seeded secret).
pub const SHADOW_ADDR: u64 = 0x0500_1000;
/// Simulated network output buffer (exfiltration target).
pub const EXFIL_ADDR: u64 = 0x0500_2000;

/// Trigger length: 8 bytes of jump encoding + 16 bytes of AES key. (The
/// paper's pad is 160 bits — 32-bit x86 `jmp` + key; our fixed 8-byte
/// instruction encoding makes it 192.)
pub const TRIGGER_BYTES: usize = 24;

/// The secret one-time pad that activates the payload.
pub type Trigger = [u8; TRIGGER_BYTES];

/// Value the reverse-shell payload writes at [`MARKER_ADDR`]:
/// ASCII `CONNECT!`.
pub const CONNECT_MARKER: u64 = u64::from_le_bytes(*b"CONNECT!");
/// Secret planted at [`SHADOW_ADDR`]: ASCII `hunter2!`.
pub const SHADOW_SECRET: u64 = u64::from_le_bytes(*b"hunter2!");

/// Which benign payload the APT carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Writes [`CONNECT_MARKER`] at [`MARKER_ADDR`] — the reverse-shell
    /// stand-in.
    ReverseShell,
    /// Copies [`SHADOW_SECRET`] from [`SHADOW_ADDR`] to [`EXFIL_ADDR`] —
    /// the shadow-file exfiltration stand-in.
    Exfiltrate,
}

impl Payload {
    /// The payload body as instructions. The first instruction must be
    /// `Xend`: a correct trigger commits the transaction before the
    /// payload's architectural effects.
    fn instructions(self) -> Vec<Inst> {
        let mut insts = vec![Inst::Xend];
        match self {
            Payload::ReverseShell => {
                insts.push(Inst::Mov {
                    dst: 0,
                    src: Operand::Imm((CONNECT_MARKER & 0xFFFF_FFFF) as u32),
                });
                insts.push(Inst::Mov {
                    dst: 1,
                    src: Operand::Imm((CONNECT_MARKER >> 32) as u32),
                });
                insts.push(Inst::Alu {
                    op: uwm_sim::isa::AluOp::Shl,
                    dst: 1,
                    a: 1,
                    b: Operand::Imm(32),
                });
                insts.push(Inst::Alu {
                    op: uwm_sim::isa::AluOp::Or,
                    dst: 0,
                    a: 0,
                    b: Operand::Reg(1),
                });
                insts.push(Inst::Store {
                    addr: MARKER_ADDR as u32,
                    src: 0,
                });
            }
            Payload::Exfiltrate => {
                insts.push(Inst::Load {
                    dst: 0,
                    addr: SHADOW_ADDR as u32,
                });
                insts.push(Inst::Store {
                    addr: EXFIL_ADDR as u32,
                    src: 0,
                });
                insts.push(Inst::Mov {
                    dst: 1,
                    src: Operand::Imm(1),
                });
                insts.push(Inst::Store {
                    addr: MARKER_ADDR as u32,
                    src: 1,
                });
            }
        }
        insts.push(Inst::Halt);
        if insts.len() % 2 == 1 {
            insts.push(Inst::Nop); // AES blocks are 16 B = 2 instructions
        }
        insts
    }

    /// Serialized payload bytes (a whole number of AES blocks).
    fn bytes(self) -> Vec<u8> {
        let mut out = Vec::new();
        for i in self.instructions() {
            out.extend_from_slice(&i.encode());
        }
        out
    }
}

/// Outcome of feeding one ping to the APT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingReport {
    /// The payload decrypted, committed its transaction, and ran.
    pub triggered: bool,
    /// Raw TSX-XOR gate executions spent decoding this ping.
    pub xor_executions: u64,
}

/// The armed trigger-protected payload.
///
/// # Examples
///
/// ```
/// use uwm_apps::{Payload, WmApt};
///
/// let (mut apt, trigger) = WmApt::new(7, Payload::ReverseShell).unwrap();
/// assert!(!apt.ping(&[0u8; 24]).triggered, "wrong trigger stays silent");
/// // The right trigger may need several pings: the weird-XOR decode is
/// // probabilistic (Table 3 of the paper).
/// let mut fired = false;
/// for _ in 0..200 {
///     if apt.ping(&trigger).triggered { fired = true; break; }
/// }
/// assert!(fired);
/// ```
#[derive(Debug)]
pub struct WmApt {
    sk: Skelly,
    caller_pc: u64,
    /// XOR-encrypted header: `jmp` encoding ‖ AES key, OTP-masked.
    stored_header: [u8; TRIGGER_BYTES],
    /// AES-encrypted payload blob.
    encrypted_payload: Vec<u8>,
    payload: Payload,
}

impl WmApt {
    /// Arms an APT with a fresh random pad and AES key; returns it along
    /// with the trigger that activates it.
    ///
    /// # Errors
    ///
    /// Fails if weird-machine construction exhausts the layout.
    pub fn new(seed: u64, payload: Payload) -> Result<(Self, Trigger)> {
        Self::with_config(MachineConfig::default(), seed, payload)
    }

    /// Arms an APT on a machine with an explicit configuration (tests use
    /// a quiet machine; the Table 3 experiment uses the default noise).
    ///
    /// # Errors
    ///
    /// Fails if weird-machine construction exhausts the layout.
    pub fn with_config(cfg: MachineConfig, seed: u64, payload: Payload) -> Result<(Self, Trigger)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57ED_57ED);
        let mut sk = Skelly::new(cfg, seed)?;
        // Median-of-3 per decoded bit: the paper evaluates each trigger
        // multiple times because single TSX-XOR executions are too noisy.
        sk.set_redundancy(Redundancy {
            samples: 3,
            votes: 1,
            k: 1,
        })?;

        // --- build the secret header: jmp over the trap + AES key ---
        let target = MAP_ADDR + 4 * INST_SIZE; // skip key (2 insts) + trap
        let jmp = Inst::Jmp {
            target: target as u32,
        };
        let mut aes_key = [0u8; 16];
        rng.fill(&mut aes_key);
        let mut header = [0u8; TRIGGER_BYTES];
        header[..8].copy_from_slice(&jmp.encode());
        header[8..].copy_from_slice(&aes_key);

        // --- one-time pad = the trigger ---
        let mut trigger = [0u8; TRIGGER_BYTES];
        rng.fill(&mut trigger[..]);
        let mut stored_header = [0u8; TRIGGER_BYTES];
        for i in 0..TRIGGER_BYTES {
            stored_header[i] = header[i] ^ trigger[i];
        }

        // --- encrypt the payload under the hidden key ---
        let aes = Aes128::new(&aes_key);
        let encrypted_payload = aes.encrypt_cbc_zero_iv(&payload.bytes());

        // --- the caller stub: enter a transaction, jump into the region ---
        let (m, lay) = sk.machine_and_layout();
        let caller_pc = lay.alloc_app_code(4 * INST_SIZE)?;
        let mut a = Assembler::new(caller_pc);
        a.xbegin("handler");
        a.push(Inst::Jmp {
            target: MAP_ADDR as u32,
        });
        a.label("handler")?;
        a.push(Inst::Halt);
        m.add_program(&a.finish()?);
        m.warm_code_range(caller_pc, caller_pc + 4 * INST_SIZE);

        // --- arm the region: trap + encrypted payload; header slot holds
        //     the XOR-masked bytes (garbage until a good trigger) ---
        let trap = Inst::Div {
            dst: 1,
            a: 1,
            b: Operand::Imm(0),
        };
        m.mem_mut().write_bytes(MAP_ADDR, &stored_header);
        m.mem_mut()
            .write_bytes(MAP_ADDR + 3 * INST_SIZE, &trap.encode());
        m.mem_mut()
            .write_bytes(MAP_ADDR + 4 * INST_SIZE, &encrypted_payload);
        // Plant the simulated secret the exfil payload steals.
        m.mem_mut().write_u64(SHADOW_ADDR, SHADOW_SECRET);

        Ok((
            Self {
                sk,
                caller_pc,
                stored_header,
                encrypted_payload,
                payload,
            },
            trigger,
        ))
    }

    /// Decodes `body` against the stored header on TSX weird-XOR circuits
    /// and attempts execution. Returns what happened.
    pub fn ping(&mut self, body: &Trigger) -> PingReport {
        let xor_before = self.sk.counters().get("TSX_XOR").map_or(0, |c| c.raw_total);

        // --- μWM one-time-pad decode, bit by bit ---
        let mut candidate = [0u8; TRIGGER_BYTES];
        for byte in 0..TRIGGER_BYTES {
            let mut v = 0u8;
            for bit in 0..8 {
                let a = self.stored_header[byte] >> bit & 1 == 1;
                let b = body[byte] >> bit & 1 == 1;
                if self.sk.tsx_xor(a, b) {
                    v |= 1 << bit;
                }
            }
            candidate[byte] = v;
        }

        // --- AES-decrypt the payload under the candidate key ---
        let mut key = [0u8; 16];
        key.copy_from_slice(&candidate[8..]);
        let decrypted = Aes128::new(&key).decrypt_cbc_zero_iv(&self.encrypted_payload);

        // --- overwrite the region and execute it inside the transaction ---
        let m = self.sk.machine_mut();
        m.mem_mut().write_bytes(MAP_ADDR, &candidate[..8]);
        m.mem_mut()
            .write_bytes(MAP_ADDR + 4 * INST_SIZE, &decrypted);
        m.mem_mut().write_u64(MARKER_ADDR, 0);
        m.run_at(self.caller_pc);
        let triggered = self.check_marker();

        // Re-arm: restore the encrypted payload bytes (the paper's APT
        // keeps listening after failed pings).
        let m = self.sk.machine_mut();
        m.mem_mut()
            .write_bytes(MAP_ADDR + 4 * INST_SIZE, &self.encrypted_payload);

        let xor_after = self.sk.counters().get("TSX_XOR").map_or(0, |c| c.raw_total);
        PingReport {
            triggered,
            xor_executions: xor_after - xor_before,
        }
    }

    fn check_marker(&self) -> bool {
        let mem = self.sk.machine().mem();
        match self.payload {
            Payload::ReverseShell => mem.read_u64(MARKER_ADDR) == CONNECT_MARKER,
            Payload::Exfiltrate => {
                mem.read_u64(MARKER_ADDR) == 1 && mem.read_u64(EXFIL_ADDR) == SHADOW_SECRET
            }
        }
    }

    /// The weird machine driving the decode (statistics access).
    pub fn skelly(&self) -> &Skelly {
        &self.sk
    }

    /// Mutable access to the weird machine — lets a harness attach the
    /// architectural tracer ("the analyzer") to the APT's machine.
    pub fn skelly_mut(&mut self) -> &mut Skelly {
        &mut self.sk
    }

    /// The defender's view: the architecturally readable bytes of the
    /// armed region before triggering — useful to demonstrate that no
    /// payload instruction is recoverable from memory.
    pub fn visible_region(&self) -> Vec<u8> {
        self.sk
            .machine()
            .mem()
            .read_bytes(MAP_ADDR, TRIGGER_BYTES + 8 + self.encrypted_payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_apt(payload: Payload) -> (WmApt, Trigger) {
        WmApt::with_config(MachineConfig::quiet(), 3, payload).unwrap()
    }

    #[test]
    fn correct_trigger_fires_first_ping_on_quiet_machine() {
        let (mut apt, trigger) = quiet_apt(Payload::ReverseShell);
        let r = apt.ping(&trigger);
        assert!(r.triggered);
        assert!(r.xor_executions >= (TRIGGER_BYTES as u64) * 8 * 3);
    }

    #[test]
    fn wrong_triggers_stay_silent_and_rearm() {
        let (mut apt, trigger) = quiet_apt(Payload::ReverseShell);
        for i in 0..5u8 {
            let mut wrong = trigger;
            wrong[i as usize] ^= 0x10;
            assert!(!apt.ping(&wrong).triggered, "perturbed trigger {i}");
        }
        assert!(apt.ping(&trigger).triggered, "still armed after misses");
    }

    #[test]
    fn exfil_payload_copies_the_secret() {
        let (mut apt, trigger) = quiet_apt(Payload::Exfiltrate);
        let m = apt.skelly().machine();
        assert_eq!(m.mem().read_u64(EXFIL_ADDR), 0, "nothing leaked yet");
        assert!(apt.ping(&trigger).triggered);
        let m = apt.skelly().machine();
        assert_eq!(m.mem().read_u64(EXFIL_ADDR), SHADOW_SECRET);
    }

    #[test]
    fn payload_is_not_recoverable_from_memory() {
        let (apt, _) = quiet_apt(Payload::ReverseShell);
        let region = apt.visible_region();
        let marker_bytes = CONNECT_MARKER.to_le_bytes();
        let found = region
            .windows(marker_bytes.len())
            .any(|w| w == marker_bytes);
        assert!(
            !found,
            "marker constant must not appear in the armed region"
        );
        // Nor does the region decode to the payload's store instruction.
        let store = Inst::Store {
            addr: MARKER_ADDR as u32,
            src: 0,
        }
        .encode();
        assert!(!region.windows(8).any(|w| w == store));
    }

    #[test]
    fn payload_blocks_are_aes_aligned() {
        for p in [Payload::ReverseShell, Payload::Exfiltrate] {
            assert_eq!(p.bytes().len() % 16, 0, "{p:?}");
        }
    }
}
