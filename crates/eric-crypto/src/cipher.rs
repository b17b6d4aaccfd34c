//! Keystream ciphers: the paper's XOR cipher and a pluggable alternative.
//!
//! ERIC "is compatible with different encryption methods. New encryption
//! algorithms can be easily implemented in the system" (§III-1). The
//! [`KeystreamCipher`] trait is that extension point: a cipher exposes a
//! position-addressable keystream, and encryption/decryption is the same
//! XOR operation (symmetric, an involution).
//!
//! Position addressing matters for *partial* encryption: when only a
//! subset of 16-bit instruction parcels is encrypted, the Decryption Unit
//! must derive the keystream byte for an arbitrary payload offset without
//! processing the bytes before it.

use crate::sha256::multibuffer::{self, Engine, MAX_LANES};
use crate::sha256::{CompressEngine, Sha256, H0};
use std::fmt;

/// Scratch size used by the default block implementations. One page:
/// large enough to amortize per-block costs, small enough to live on
/// the stack (the hardware analogue is the HDE's keystream FIFO depth).
pub const KEYSTREAM_CHUNK: usize = 4096;

/// A cipher that produces a deterministic keystream addressed by byte
/// position.
///
/// Encrypting and decrypting are both [`KeystreamCipher::apply`]: the
/// keystream byte at absolute position `p` is XORed into the buffer byte
/// that lives at position `p`. Applying twice restores the plaintext.
///
/// The trait is *block-oriented*: implementations materialize whole
/// keystream runs with [`KeystreamCipher::fill_keystream`], and the
/// XOR-in helpers ([`KeystreamCipher::apply`],
/// [`KeystreamCipher::apply_selected`]) are built on top of it. The
/// per-byte [`KeystreamCipher::keystream_byte`] remains as the
/// correctness *oracle*: tests check that block fills match it
/// byte-for-byte, but no hot path calls it.
pub trait KeystreamCipher {
    /// Keystream byte at absolute byte position `pos`.
    ///
    /// This is the reference definition of the stream — the slow,
    /// obviously-correct oracle. Hot paths use
    /// [`KeystreamCipher::fill_keystream`] instead.
    fn keystream_byte(&self, pos: u64) -> u8;

    /// Fill `out` with the keystream bytes for absolute positions
    /// `offset .. offset + out.len()`.
    ///
    /// Must produce exactly the bytes [`KeystreamCipher::keystream_byte`]
    /// would, but is free to generate them a block at a time.
    fn fill_keystream(&self, offset: u64, out: &mut [u8]);

    /// Human-readable cipher name (used in package headers and reports).
    fn name(&self) -> &'static str;

    /// XOR the keystream into `buf`, where `buf[0]` sits at absolute
    /// position `offset` in the payload.
    ///
    /// The default fills a stack scratch block with
    /// [`KeystreamCipher::fill_keystream`] and XORs it in slice-wide,
    /// so implementors only ever write one block routine.
    fn apply(&self, offset: u64, buf: &mut [u8]) {
        let mut ks = [0u8; KEYSTREAM_CHUNK];
        let mut done = 0usize;
        while done < buf.len() {
            let n = (buf.len() - done).min(KEYSTREAM_CHUNK);
            self.fill_keystream(offset + done as u64, &mut ks[..n]);
            for (b, k) in buf[done..done + n].iter_mut().zip(&ks[..n]) {
                *b ^= *k;
            }
            done += n;
        }
    }

    /// XOR the keystream into `buf` only where `select` returns `true`
    /// for the absolute byte position.
    ///
    /// Auxiliary API: the production partial-encryption path does *not*
    /// go through a predicate — it iterates the coverage map's
    /// contiguous runs (`CoverageMap::covered_runs` in `eric-hde`) and
    /// XORs each run with [`KeystreamCipher::apply`]. This method is
    /// the generic arbitrary-selection form for custom consumers and
    /// equivalence tests.
    ///
    /// Takes a `&dyn Fn` so the method stays object-safe and remains
    /// callable through `&dyn KeystreamCipher` (the shape every package
    /// consumer holds after [`crate::cipher::CipherKind::instantiate`]).
    fn apply_selected(&self, offset: u64, buf: &mut [u8], select: &dyn Fn(u64) -> bool) {
        let mut ks = [0u8; KEYSTREAM_CHUNK];
        let mut done = 0usize;
        while done < buf.len() {
            let n = (buf.len() - done).min(KEYSTREAM_CHUNK);
            let base = offset + done as u64;
            self.fill_keystream(base, &mut ks[..n]);
            for (i, (b, k)) in buf[done..done + n].iter_mut().zip(&ks[..n]).enumerate() {
                if select(base + i as u64) {
                    *b ^= *k;
                }
            }
            done += n;
        }
    }
}

/// The paper's XOR cipher (Table I: "Encryption Function: XOR Cipher").
///
/// The keystream is the PUF-based key repeated: byte `p` of the stream is
/// `key[p mod key_len]`. The paper describes it as "an encryption method
/// made by passing instructions through successive XOR gates", chosen
/// "for the simplicity of the design" — the hardware datapath is a row of
/// XOR gates keyed by the Key Management Unit output.
///
/// ```rust
/// use eric_crypto::cipher::{KeystreamCipher, XorCipher};
/// let cipher = XorCipher::new(&[0x01, 0x02, 0x03, 0x04]);
/// let mut data = *b"attack at dawn";
/// cipher.apply(0, &mut data);
/// assert_ne!(&data, b"attack at dawn");
/// cipher.apply(0, &mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct XorCipher {
    key: Vec<u8>,
}

impl XorCipher {
    /// Create an XOR cipher from a key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty: an empty key would make the "cipher" the
    /// identity function, silently shipping plaintext.
    pub fn new(key: &[u8]) -> Self {
        assert!(!key.is_empty(), "XOR cipher key must not be empty");
        XorCipher { key: key.to_vec() }
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key.len()
    }
}

impl fmt::Debug for XorCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "XorCipher {{ key_len: {} }}", self.key.len())
    }
}

impl KeystreamCipher for XorCipher {
    fn keystream_byte(&self, pos: u64) -> u8 {
        self.key[(pos % self.key.len() as u64) as usize]
    }

    /// Rotate the key into the buffer with whole-slice copies: one
    /// partial copy to phase-align, then full-key `copy_from_slice`
    /// repeats (memcpy speed) instead of a modulo per byte.
    fn fill_keystream(&self, offset: u64, out: &mut [u8]) {
        let klen = self.key.len();
        let mut kpos = (offset % klen as u64) as usize;
        let mut i = 0usize;
        while i < out.len() {
            let n = (klen - kpos).min(out.len() - i);
            out[i..i + n].copy_from_slice(&self.key[kpos..kpos + n]);
            i += n;
            kpos = 0;
        }
    }

    fn name(&self) -> &'static str {
        "xor"
    }

    /// XOR the rotated key straight into the buffer — no scratch block,
    /// single pass (the software shape of the paper's row of XOR gates).
    fn apply(&self, offset: u64, buf: &mut [u8]) {
        let klen = self.key.len();
        let mut kpos = (offset % klen as u64) as usize;
        let mut i = 0usize;
        while i < buf.len() {
            let n = (klen - kpos).min(buf.len() - i);
            for (b, k) in buf[i..i + n].iter_mut().zip(&self.key[kpos..kpos + n]) {
                *b ^= *k;
            }
            i += n;
            kpos = 0;
        }
    }
}

/// A SHA-256 counter-mode keystream cipher.
///
/// Demonstrates the paper's claim that "the user has the freedom to upload
/// his own encryption method to the system": the keystream block `i` is
/// `SHA-256(key ‖ LE64(i))`, so the stream has no short period, unlike
/// [`XorCipher`]. Used by the cipher-choice ablation bench.
///
/// Every counter message shares the key prefix and one length, so the
/// cipher hashes the key's whole 64-byte blocks once into a midstate
/// and keeps the padded rest of the message (`key tail ‖ counter slot ‖
/// 0x80 ‖ zeros ‖ bit length`, one or two blocks) as a template. A
/// keystream block then costs one or two compressions of the template
/// with the counter written in, batched through the multi-buffer
/// [`Engine`].
///
/// ```rust
/// use eric_crypto::cipher::{KeystreamCipher, ShaCtrCipher};
/// let cipher = ShaCtrCipher::new(&[7u8; 32]);
/// let mut data = vec![0u8; 100];
/// cipher.apply(0, &mut data);
/// let once = data.clone();
/// cipher.apply(0, &mut data);
/// assert_eq!(data, vec![0u8; 100]);
/// assert_ne!(once, vec![0u8; 100]);
/// ```
#[derive(Clone)]
pub struct ShaCtrCipher {
    key: Vec<u8>,
    /// The initial hash state folded over the key's whole 64-byte
    /// blocks (the initial state itself for keys under 64 bytes).
    midstate: [u32; 8],
    /// The padded message after the midstate, with the counter slot
    /// at `ctr_at` left zero; `tail_blocks` (1 or 2) of its blocks are
    /// used.
    tail: [[u8; 64]; 2],
    tail_blocks: usize,
    ctr_at: usize,
}

impl ShaCtrCipher {
    /// Keystream block size (one SHA-256 digest).
    pub const BLOCK: u64 = 32;

    /// Create a SHA-CTR cipher from a key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty.
    pub fn new(key: &[u8]) -> Self {
        assert!(!key.is_empty(), "SHA-CTR cipher key must not be empty");
        let whole = key.len() / 64 * 64;
        let mut midstate = H0;
        for block in key[..whole].chunks_exact(64) {
            Sha256::compress_block(&mut midstate, block.try_into().expect("64-byte chunk"));
        }
        // key tail ‖ LE64(counter) ‖ 0x80 ‖ zeros ‖ BE64(bit length).
        let ctr_at = key.len() - whole;
        let tail_blocks = if ctr_at + 8 + 9 <= 64 { 1 } else { 2 };
        let mut flat = [0u8; 128];
        flat[..ctr_at].copy_from_slice(&key[whole..]);
        flat[ctr_at + 8] = 0x80;
        let bit_len = (key.len() as u64 + 8) * 8;
        flat[64 * tail_blocks - 8..64 * tail_blocks].copy_from_slice(&bit_len.to_be_bytes());
        let tail = [0, 1].map(|p| flat[64 * p..64 * (p + 1)].try_into().expect("64-byte half"));
        ShaCtrCipher {
            key: key.to_vec(),
            midstate,
            tail,
            tail_blocks,
            ctr_at,
        }
    }

    /// `SHA-256(key ‖ LE64(index))` through the streaming hasher on an
    /// explicit compress engine: the definition the template path is
    /// pinned against.
    fn block_with(&self, engine: &'static CompressEngine, index: u64) -> [u8; 32] {
        let mut h = Sha256::with_engine(engine);
        h.update(&self.key);
        h.update(&index.to_le_bytes());
        h.finalize().0
    }

    /// Generate the keystream for positions `offset .. offset + len`
    /// on `engine`, handing it to `sink` one lockstep group of up to
    /// [`MAX_LANES`] blocks at a time, as (offset into the range,
    /// bytes). Per group only the counter bytes of each lane's
    /// template copy are rewritten before the compress.
    fn keystream_blocks(
        &self,
        engine: &'static Engine,
        offset: u64,
        len: usize,
        mut sink: impl FnMut(usize, &[u8]),
    ) {
        if len == 0 {
            return;
        }
        let end = offset + len as u64;
        let first = offset / Self::BLOCK;
        let last = (end - 1) / Self::BLOCK;
        let lanes = (last - first + 1).min(MAX_LANES as u64) as usize;
        let parts = self.tail_blocks;
        // blocks[p][l]: tail block p of lane l's counter message.
        let mut blocks = [[[0u8; 64]; MAX_LANES]; 2];
        for (group, tail) in blocks[..parts].iter_mut().zip(&self.tail) {
            group[..lanes].fill(*tail);
        }
        let slot = self.ctr_at;
        let mut index = first;
        while index <= last {
            let n = (last - index + 1).min(MAX_LANES as u64) as usize;
            let [first_part, second_part] = &mut blocks;
            let messages = first_part[..n].iter_mut().zip(&mut second_part[..n]);
            for (l, (head, tail)) in messages.enumerate() {
                let ctr = (index + l as u64).to_le_bytes();
                if slot + 8 <= 64 {
                    head[slot..slot + 8].copy_from_slice(&ctr);
                } else {
                    // The counter slot straddles the two tail blocks.
                    let (low, high) = ctr.split_at(64 - slot);
                    head[slot..].copy_from_slice(low);
                    tail[..high.len()].copy_from_slice(high);
                }
            }
            let mut states = [self.midstate; MAX_LANES];
            for group in &blocks[..parts] {
                engine.compress_blocks(&mut states[..n], &group[..n]);
            }
            // The group's digests are the keystream of its blocks, back
            // to back; only the first and last group can be clipped.
            let mut ks = [0u8; 32 * MAX_LANES];
            for (digest, state) in ks.chunks_exact_mut(32).zip(&states[..n]) {
                for (bytes, word) in digest.chunks_exact_mut(4).zip(state) {
                    bytes.copy_from_slice(&word.to_be_bytes());
                }
            }
            let group_start = index * Self::BLOCK;
            let from = offset.max(group_start);
            let to = end.min(group_start + n as u64 * Self::BLOCK);
            sink(
                (from - offset) as usize,
                &ks[(from - group_start) as usize..(to - group_start) as usize],
            );
            index += n as u64;
        }
    }

    /// [`KeystreamCipher::fill_keystream`] pinned to a specific hash
    /// dispatch engine (equivalence tests and dispatch-path
    /// benchmarks; the trait method uses
    /// [`multibuffer::active`]).
    pub fn fill_keystream_with(&self, engine: &'static Engine, offset: u64, out: &mut [u8]) {
        self.keystream_blocks(engine, offset, out.len(), |at, ks| {
            out[at..at + ks.len()].copy_from_slice(ks);
        });
    }

    /// The pre-multibuffer fill: one single-stream [`Sha256`] chain
    /// per 32-byte counter block.
    ///
    /// The single-block *oracle* — the analogue of
    /// `transform_payload_bytewise` for the hash engine: tests pin the
    /// batched fill byte-identical to it, and the `crypto_throughput`
    /// bench measures what the engine stack bought over it. Only built
    /// with the `testing` feature. The per-chain compress rides the
    /// dispatched [`Sha256::compress_block`];
    /// [`ShaCtrCipher::fill_keystream_scalar_with`] pins a specific
    /// single-stream engine (the bench pins `scalar` to measure the
    /// pure-software baseline).
    #[cfg(any(test, feature = "testing"))]
    pub fn fill_keystream_scalar(&self, offset: u64, out: &mut [u8]) {
        self.fill_keystream_scalar_with(crate::sha256::active_compress(), offset, out);
    }

    /// [`ShaCtrCipher::fill_keystream_scalar`] pinned to a specific
    /// single-stream compress engine.
    #[cfg(any(test, feature = "testing"))]
    pub fn fill_keystream_scalar_with(
        &self,
        engine: &'static CompressEngine,
        offset: u64,
        out: &mut [u8],
    ) {
        let mut i = 0usize;
        while i < out.len() {
            let pos = offset + i as u64;
            let block = self.block_with(engine, pos / Self::BLOCK);
            let start_in_block = (pos % Self::BLOCK) as usize;
            let take = (Self::BLOCK as usize - start_in_block).min(out.len() - i);
            out[i..i + take].copy_from_slice(&block[start_in_block..start_in_block + take]);
            i += take;
        }
    }
}

impl fmt::Debug for ShaCtrCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShaCtrCipher {{ key_len: {} }}", self.key.len())
    }
}

impl KeystreamCipher for ShaCtrCipher {
    fn keystream_byte(&self, pos: u64) -> u8 {
        let block = self.block_with(crate::sha256::active_compress(), pos / Self::BLOCK);
        block[(pos % Self::BLOCK) as usize]
    }

    /// Counter blocks are fully independent, so the fill batches them
    /// through the multi-buffer SHA-256 engine: up to [`MAX_LANES`]
    /// counter messages per kernel call instead of one chain per
    /// 32-byte block.
    fn fill_keystream(&self, offset: u64, out: &mut [u8]) {
        self.fill_keystream_with(multibuffer::active(), offset, out);
    }

    fn name(&self) -> &'static str {
        "sha-ctr"
    }

    /// XOR each keystream block straight into `buf` as it is
    /// generated — no scratch block, single pass.
    fn apply(&self, offset: u64, buf: &mut [u8]) {
        self.keystream_blocks(multibuffer::active(), offset, buf.len(), |at, ks| {
            for (b, k) in buf[at..at + ks.len()].iter_mut().zip(ks) {
                *b ^= *k;
            }
        });
    }
}

/// Enumerates the ciphers bundled with ERIC, for configuration surfaces
/// (the paper's GUI lets the operator pick the encryption function).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CipherKind {
    /// The paper's XOR cipher (default, matches Table I).
    #[default]
    Xor,
    /// SHA-256 counter-mode keystream.
    ShaCtr,
}

impl CipherKind {
    /// Instantiate the chosen cipher with `key`.
    pub fn instantiate(self, key: &[u8]) -> Box<dyn KeystreamCipher + Send + Sync> {
        match self {
            CipherKind::Xor => Box::new(XorCipher::new(key)),
            CipherKind::ShaCtr => Box::new(ShaCtrCipher::new(key)),
        }
    }

    /// Stable wire identifier for package headers.
    pub fn wire_id(self) -> u8 {
        match self {
            CipherKind::Xor => 0,
            CipherKind::ShaCtr => 1,
        }
    }

    /// Inverse of [`CipherKind::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(CipherKind::Xor),
            1 => Some(CipherKind::ShaCtr),
            _ => None,
        }
    }
}

impl fmt::Display for CipherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CipherKind::Xor => f.write_str("xor"),
            CipherKind::ShaCtr => f.write_str("sha-ctr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let c = XorCipher::new(&[1, 2, 3]);
        let mut data = b"hello world, this is a test".to_vec();
        let orig = data.clone();
        c.apply(0, &mut data);
        assert_ne!(data, orig);
        c.apply(0, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn xor_keystream_period_is_key_length() {
        let c = XorCipher::new(&[0xAA, 0xBB, 0xCC]);
        for pos in 0..30u64 {
            assert_eq!(c.keystream_byte(pos), c.keystream_byte(pos + 3));
        }
    }

    #[test]
    fn xor_positional_decryption_of_fragment() {
        // Decrypting a fragment at its absolute offset must match the
        // fragment of a whole-buffer decryption: partial encryption
        // depends on this.
        let c = XorCipher::new(&[9, 8, 7, 6, 5]);
        let mut whole: Vec<u8> = (0..64).collect();
        c.apply(0, &mut whole);

        let mut fragment: Vec<u8> = (20..36).collect();
        c.apply(20, &mut fragment);
        assert_eq!(&whole[20..36], &fragment[..]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn xor_empty_key_panics() {
        let _ = XorCipher::new(&[]);
    }

    #[test]
    fn sha_ctr_roundtrip() {
        let c = ShaCtrCipher::new(b"puf-based key material");
        let mut data: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        c.apply(5, &mut data);
        assert_ne!(data, orig);
        c.apply(5, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn sha_ctr_apply_matches_per_byte_definition() {
        let c = ShaCtrCipher::new(b"k");
        let mut fast: Vec<u8> = vec![0; 100];
        c.apply(13, &mut fast);
        let slow: Vec<u8> = (0..100u64).map(|i| c.keystream_byte(13 + i)).collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn sha_ctr_has_no_short_period() {
        let c = ShaCtrCipher::new(b"key");
        let stream: Vec<u8> = (0..256u64).map(|p| c.keystream_byte(p)).collect();
        // No period <= 64 within the first 256 bytes.
        for period in 1..=64usize {
            let repeats = (0..(256 - period)).all(|i| stream[i] == stream[i + period]);
            assert!(!repeats, "unexpected period {period}");
        }
    }

    #[test]
    fn apply_selected_touches_only_selected_positions() {
        let c = XorCipher::new(&[0xFF]);
        let mut data = vec![0u8; 16];
        c.apply_selected(0, &mut data, &|pos| pos % 2 == 0);
        for (i, b) in data.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*b, 0xFF);
            } else {
                assert_eq!(*b, 0x00);
            }
        }
    }

    #[test]
    fn apply_selected_works_through_trait_object() {
        // Regression: apply_selected used to be `Self: Sized`-bound and
        // unusable through `&dyn KeystreamCipher`, the shape every
        // consumer of CipherKind::instantiate holds.
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let boxed = kind.instantiate(&[3, 1, 4, 1, 5]);
            let dyn_cipher: &dyn KeystreamCipher = boxed.as_ref();
            let mut data = vec![0u8; 64];
            dyn_cipher.apply_selected(7, &mut data, &|pos| pos % 3 == 0);
            for (i, b) in data.iter().enumerate() {
                let pos = 7 + i as u64;
                let expect = if pos.is_multiple_of(3) {
                    dyn_cipher.keystream_byte(pos)
                } else {
                    0
                };
                assert_eq!(*b, expect, "position {pos}");
            }
        }
    }

    #[test]
    fn fill_keystream_matches_byte_oracle() {
        // The block path must be bit-identical to the per-byte oracle,
        // at awkward offsets and lengths straddling block boundaries.
        let xor = XorCipher::new(&[9, 8, 7, 6, 5, 4, 3]);
        let sha = ShaCtrCipher::new(b"oracle key");
        for cipher in [&xor as &dyn KeystreamCipher, &sha] {
            for offset in [0u64, 1, 6, 7, 31, 32, 33, 4095, 4096, 10_000] {
                for len in [0usize, 1, 2, 7, 31, 32, 33, 100, 5000] {
                    let mut fast = vec![0u8; len];
                    cipher.fill_keystream(offset, &mut fast);
                    let slow: Vec<u8> = (0..len as u64)
                        .map(|i| cipher.keystream_byte(offset + i))
                        .collect();
                    assert_eq!(fast, slow, "{} offset {offset} len {len}", cipher.name());
                }
            }
        }
    }

    #[test]
    fn sha_ctr_multibuffer_fill_matches_scalar_oracle_on_every_engine() {
        // Key lengths exercise every shape of the tail template: 1- and
        // 2-block tails (the 2-block tail starts 48 bytes past the
        // midstate), a counter slot ending a block (56, 120) or
        // straddling two (57, 63, 121), and an empty key tail after a
        // 1- or 2-block midstate (64, 128). Offsets/lengths exercise
        // head/tail straddling and whole-batch spans; 32·(2^32 − 3)
        // changes the counter's high word inside one lockstep group and
        // 32·(2^58 − 3) its top byte, the last one a straddling slot
        // carries into the second tail block.
        let keys = [
            1usize, 31, 32, 47, 48, 55, 56, 57, 63, 64, 65, 100, 119, 120, 121, 128,
        ];
        for key_len in keys {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 37 + 11) as u8).collect();
            let c = ShaCtrCipher::new(&key);
            for engine in multibuffer::engines() {
                for offset in [
                    0u64,
                    1,
                    31,
                    32,
                    33,
                    255,
                    256,
                    257,
                    8191,
                    32 * ((1 << 32) - 3),
                    32 * ((1 << 58) - 3),
                ] {
                    for len in [0usize, 1, 31, 32, 33, 255, 256, 300, 1000] {
                        let mut want = vec![0u8; len];
                        c.fill_keystream_scalar(offset, &mut want);
                        let mut got = vec![0u8; len];
                        c.fill_keystream_with(engine, offset, &mut got);
                        assert_eq!(
                            got,
                            want,
                            "{} key_len={key_len} offset={offset} len={len}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sha_ctr_apply_matches_fill_then_xor() {
        // ShaCtrCipher overrides apply() to XOR digests straight into
        // the buffer; it must agree with the generic fill-then-XOR path
        // at straddled offsets and lengths.
        let c = ShaCtrCipher::new(b"apply key");
        for (offset, len) in [(0u64, 0usize), (5, 6000), (31, 1), (32, 256), (7, 33)] {
            let mut direct: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut via_fill = direct.clone();
            c.apply(offset, &mut direct);
            let mut ks = vec![0u8; len];
            c.fill_keystream(offset, &mut ks);
            for (b, k) in via_fill.iter_mut().zip(&ks) {
                *b ^= *k;
            }
            assert_eq!(direct, via_fill, "offset {offset} len {len}");
        }
    }

    #[test]
    fn sha_ctr_scalar_fill_matches_byte_oracle() {
        let c = ShaCtrCipher::new(b"scalar oracle key");
        let mut fast = vec![0u8; 300];
        c.fill_keystream_scalar(13, &mut fast);
        let slow: Vec<u8> = (0..300u64).map(|i| c.keystream_byte(13 + i)).collect();
        assert_eq!(fast, slow);
        // The single-stream oracle is engine-independent: every
        // compress backend fills the identical keystream.
        for engine in crate::sha256::compress_engines() {
            let mut pinned = vec![0u8; 300];
            c.fill_keystream_scalar_with(engine, 13, &mut pinned);
            assert_eq!(pinned, slow, "{}", engine.name());
        }
    }

    #[test]
    fn xor_apply_matches_default_block_apply() {
        // XorCipher overrides apply() with a scratch-free XOR; it must
        // agree with the generic fill-then-XOR path.
        let c = XorCipher::new(&[0x11, 0x22, 0x33]);
        let mut direct: Vec<u8> = (0u16..6000).map(|i| (i % 251) as u8).collect();
        let mut via_fill = direct.clone();
        c.apply(5, &mut direct);
        let mut ks = vec![0u8; via_fill.len()];
        c.fill_keystream(5, &mut ks);
        for (b, k) in via_fill.iter_mut().zip(&ks) {
            *b ^= *k;
        }
        assert_eq!(direct, via_fill);
    }

    #[test]
    fn cipher_kind_wire_roundtrip() {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            assert_eq!(CipherKind::from_wire_id(kind.wire_id()), Some(kind));
        }
        assert_eq!(CipherKind::from_wire_id(0xFF), None);
    }

    #[test]
    fn cipher_kind_instantiate_roundtrip() {
        for kind in [CipherKind::Xor, CipherKind::ShaCtr] {
            let c = kind.instantiate(&[1, 2, 3, 4]);
            let mut data = b"sample".to_vec();
            c.apply(0, &mut data);
            c.apply(0, &mut data);
            assert_eq!(data, b"sample");
        }
    }

    #[test]
    fn debug_never_leaks_key() {
        let x = XorCipher::new(&[0xDE, 0xAD]);
        let s = ShaCtrCipher::new(&[0xBE, 0xEF]);
        assert!(!format!("{x:?}").contains("de"));
        assert!(!format!("{s:?}").contains("be"));
    }
}
