//! SHA-1 on weird gates (§5.2 of the paper).
//!
//! "Partially architecturally visible": word values are held in ordinary
//! variables between operations, but **every boolean combination of bits
//! runs on a weird gate** — when the algorithm adds two numbers, no CPU
//! `add` instruction executes; a ripple-carry chain of weird full adders
//! (two XORs + one AND-AND-OR per bit) does the work, exactly as the paper
//! describes.
//!
//! The gate mix mirrors the paper's Table 4: XOR is built from four NANDs,
//! so NAND executions dominate; the round functions and carries use the
//! composed `AND_AND_OR` gate.
//!
//! [`Sha1Batch`] streams many messages through pooled, pre-warmed machines
//! (one per executor shard) on `uwm-core`'s pooling engine
//! ([`run_pooled`]), so the expensive build-and-calibrate sequence is paid
//! once per shard instead of once per message.

use uwm_core::batch::run_pooled;
use uwm_core::exec::ShardedExecutor;
use uwm_core::skelly::{Skelly, SkellySpec};
use uwm_core::Result;
use uwm_crypto::sha1::{Sha1, H0, K};
use uwm_sim::machine::MachineConfig;

/// SHA-1 evaluator running on a [`Skelly`] weird machine.
///
/// # Examples
///
/// ```
/// use uwm_apps::UwmSha1;
/// use uwm_core::skelly::Skelly;
/// use uwm_crypto::sha1;
///
/// let mut sk = Skelly::quiet(0).unwrap();
/// let digest = UwmSha1::new(&mut sk).hash(b"abc");
/// assert_eq!(digest, sha1(b"abc"));
/// ```
#[derive(Debug)]
pub struct UwmSha1<'a> {
    sk: &'a mut Skelly,
}

impl<'a> UwmSha1<'a> {
    /// Wraps a weird machine for hashing.
    pub fn new(sk: &'a mut Skelly) -> Self {
        Self { sk }
    }

    /// Hashes `message`, performing all boolean work on weird gates.
    /// Padding and word packing (pure data movement) are architectural.
    pub fn hash(&mut self, message: &[u8]) -> [u8; 20] {
        let mut state = H0;
        for block in Sha1::pad_blocks(message) {
            state = self.compress(state, &block);
        }
        let mut out = [0u8; 20];
        for (i, w) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One compression round over `block` on weird gates.
    pub fn compress(&mut self, state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
        let sk = &mut *self.sk;
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for t in 16..80 {
            let x = sk.xor32(w[t - 3], w[t - 8]);
            let y = sk.xor32(x, w[t - 14]);
            let z = sk.xor32(y, w[t - 16]);
            w[t] = sk.rotl32(z, 1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = state;
        for (t, &wt) in w.iter().enumerate() {
            let f = self.round_f(t, b, c, d);
            let sk = &mut *self.sk;
            let mut temp = sk.add32(sk.rotl32(a, 5), f);
            temp = sk.add32(temp, e);
            temp = sk.add32(temp, wt);
            temp = sk.add32(temp, K[t / 20]);
            e = d;
            d = c;
            c = self.sk.rotl32(b, 30);
            b = a;
            a = temp;
        }
        let sk = &mut *self.sk;
        [
            sk.add32(state[0], a),
            sk.add32(state[1], b),
            sk.add32(state[2], c),
            sk.add32(state[3], d),
            sk.add32(state[4], e),
        ]
    }

    /// The stage function on weird gates:
    /// Ch = `(b & c) | (!b & d)`, Parity = `b ^ c ^ d`,
    /// Maj = `(b & c) | (d & (b ^ c))` — each a direct `AND_AND_OR`/XOR
    /// formulation, matching the paper's gate inventory.
    fn round_f(&mut self, t: usize, b: u32, c: u32, d: u32) -> u32 {
        let sk = &mut *self.sk;
        match t / 20 {
            0 => {
                let nb = sk.not32(b);
                sk.and_and_or32(b, c, nb, d)
            }
            1 | 3 => {
                let x = sk.xor32(b, c);
                sk.xor32(x, d)
            }
            2 => {
                let bc = sk.xor32(b, c);
                sk.and_and_or32(b, c, d, bc)
            }
            _ => unreachable!("t < 80"),
        }
    }
}

/// Batched SHA-1 over pooled weird machines.
///
/// Building a [`Skelly`] — layout allocation, gate assembly, program
/// installs, code warming, threshold calibration — costs far more than one
/// compression, so hashing many messages on fresh machines wastes almost
/// all of its time on setup. This runner builds **one warmed machine per
/// executor shard** with [`run_pooled`], which snapshots it right after
/// calibration, and streams messages through the pool: each item restores
/// the snapshot and reseeds the noise generator with
/// [`batch_seed`](uwm_core::exec::batch_seed)`(seed, item)`, so every
/// digest is bit-identical to hashing that message on a machine freshly
/// instantiated and reseeded the same way — independent of shard count or
/// the order in which workers steal items.
///
/// # Examples
///
/// ```
/// use uwm_apps::sha1::Sha1Batch;
/// use uwm_core::exec::ShardedExecutor;
/// use uwm_sim::machine::MachineConfig;
///
/// let batch = Sha1Batch::new(MachineConfig::quiet(), ShardedExecutor::new(2), 7).unwrap();
/// let digests = batch.hash_many(&[b"abc".as_slice(), b"def".as_slice()]);
/// assert_eq!(digests[0], uwm_crypto::sha1(b"abc"));
/// ```
#[derive(Debug)]
pub struct Sha1Batch {
    spec: SkellySpec,
    cfg: MachineConfig,
    exec: ShardedExecutor,
    seed: u64,
}

impl Sha1Batch {
    /// Builds the shared gate spec once; machines are instantiated lazily,
    /// one per shard, inside each batched call.
    ///
    /// # Errors
    ///
    /// Fails if gate construction exhausts the layout or assembly fails.
    pub fn new(cfg: MachineConfig, exec: ShardedExecutor, seed: u64) -> Result<Self> {
        Ok(Self {
            spec: SkellySpec::new()?,
            cfg,
            exec,
            seed,
        })
    }

    /// Hashes every message on the pooled machines; digests come back in
    /// message order.
    pub fn hash_many(&self, messages: &[&[u8]]) -> Vec<[u8; 20]> {
        run_pooled(
            &self.exec,
            messages.len(),
            self.seed,
            || self.spec.instantiate(self.cfg.clone(), self.seed),
            Skelly::machine_mut,
            |i, sk| UwmSha1::new(sk).hash(messages[i]),
        )
    }

    /// One compression per block from [`H0`] — the unit of work the
    /// `sha1_block` benchmark measures.
    pub fn compress_many(&self, blocks: &[[u8; 64]]) -> Vec<[u32; 5]> {
        run_pooled(
            &self.exec,
            blocks.len(),
            self.seed,
            || self.spec.instantiate(self.cfg.clone(), self.seed),
            Skelly::machine_mut,
            |i, sk| UwmSha1::new(sk).compress(H0, &blocks[i]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwm_crypto::sha1::compress_block;

    /// One full compression on weird gates matches the reference — this is
    /// the expensive end-to-end check (~200k gate executions), so the full
    /// multi-block run lives in the integration suite / benches.
    #[test]
    fn single_block_compress_matches_reference() {
        let mut sk = Skelly::quiet(0).unwrap();
        let block: [u8; 64] = core::array::from_fn(|i| i as u8);
        let got = UwmSha1::new(&mut sk).compress(H0, &block);
        assert_eq!(got, compress_block(H0, &block));
    }

    #[test]
    fn round_functions_match_reference() {
        let mut sk = Skelly::quiet(1).unwrap();
        let mut u = UwmSha1::new(&mut sk);
        let (b, c, d) = (0xDEAD_BEEFu32, 0x1234_5678, 0x0F0F_0F0F);
        for t in [0, 25, 45, 65] {
            assert_eq!(
                u.round_f(t, b, c, d),
                uwm_crypto::sha1::f(t, b, c, d),
                "t={t}"
            );
        }
    }

    /// Two messages hashed through the pooled batch runner match the
    /// architectural reference — one compression each, spread over two
    /// shards, rewinding the post-calibration snapshot between items.
    #[test]
    fn batched_hashes_match_reference() {
        let batch = Sha1Batch::new(MachineConfig::quiet(), ShardedExecutor::new(2), 9).unwrap();
        let msgs: [&[u8]; 2] = [b"abc", b"weird machines"];
        let got = batch.hash_many(&msgs);
        for (m, d) in msgs.iter().zip(&got) {
            assert_eq!(*d, uwm_crypto::sha1(m), "{:?}", core::str::from_utf8(m));
        }
    }

    #[test]
    fn gate_counters_record_the_table4_mix() {
        let mut sk = Skelly::quiet(2).unwrap();
        let block = [0u8; 64];
        UwmSha1::new(&mut sk).compress(H0, &block);
        let counters = sk.counters();
        let nand = counters.get("NAND").expect("NANDs executed").raw_total;
        let aao = counters.get("AND_AND_OR").expect("AAOs executed").raw_total;
        assert!(
            nand > 10 * aao,
            "NAND must dominate as in Table 4 (nand={nand}, aao={aao})"
        );
        assert!(counters.get("OR").is_none(), "this mix uses no plain OR");
    }
}
