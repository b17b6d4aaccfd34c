//! Delta OTA updates: ship only the segments that changed.
//!
//! A segmented (`ERIC2`) build already digests the payload per segment,
//! so two prepared images can be diffed at segment granularity by
//! comparing their plaintext leaf tables. The vendor frames only the
//! changed segments in an **`ERIC2D`** delta frame; the device
//! recomputes the Merkle root from its *cached sibling digests* plus the
//! shipped replacement leaves, checks it against the signed root, and
//! only then decrypts and verifies the shipped segments into a new
//! image that shares every unchanged segment with the old one. For a
//! fleet-wide 1%-of-segments fix this turns a full-image push into a
//! frame a couple of orders of magnitude smaller.
//!
//! # The `ERIC2D` wire frame
//!
//! ```text
//! magic "ERIC2D" ‖ cipher ‖ policy ‖ epoch ‖ nonce ‖
//! text_base ‖ data_base ‖ entry ‖ text_len ‖ payload_len ‖
//! base_payload_len ‖ segment_len ‖ changed_count ‖
//! challenge_len ‖ challenge ‖
//! encrypted base_digest (32) ‖ changed segment indices (u32 LE each)
//! ---------------------------- end of AAD ----------------------------
//! map block ‖ encrypted root (32) ‖ changed leaves (32 each) ‖
//! changed segments (each encrypted at its absolute payload offset)
//! ```
//!
//! Everything through the index table is the frame's additional
//! authenticated data. The signed root is
//! [`signed_root`]`(aad, segment_len, full_new_leaf_table)` — the root
//! binds the **whole** new table, not just the shipped diff, so a frame
//! that omits, duplicates, or reorders a changed segment cannot
//! validate. The *base* fingerprint ships encrypted inside the AAD:
//! cleartext would hand an eavesdropper a confirmation oracle for the
//! installed image, and keeping it inside the AAD lets the root bind it.
//!
//! # Keystream discipline
//!
//! The delta frame consumes the *same* keystream positions the
//! equivalent full frame would: each changed segment is encrypted at
//! its absolute payload offset, the root at `payload_len`, and changed
//! leaf `i` at its natural manifest slot
//! ([`manifest_stream_offset`]` + 32·i`). The base fingerprint takes
//! the first position past the full manifest, which no full-frame
//! component uses. Disjointness is preserved, and a delta never reuses
//! a full frame's keystream anyway — every frame draws a fresh nonce.
//!
//! # Fail-closed, copy-on-write patching
//!
//! [`Device::apply_delta`](crate::Device::apply_delta) checks, in
//! order: geometry against the installed image (segment length, base
//! size, every new segment shipped, every resized segment shipped),
//! epoch, map coverage, the decrypted base fingerprint, and the Merkle
//! root of the reconstructed leaf table (cached leaves of the kept
//! segments plus the shipped leaves) against the signed root. Only then
//! is any payload byte decrypted. The installed image is borrowed
//! immutably, and a new [`InstalledImage`] is returned only on full
//! success, so no error path leaves a partially-patched image behind.
//!
//! The patched image is built copy-on-write, at segment granularity.
//! An [`InstalledImage`] holds each segment as an immutable byte range
//! of a buffer shared through an `Arc`: an install's segments all view
//! the one buffer the HDE decrypted and verified, and a shipped segment
//! has a buffer of its own. Each kept segment is shared with the base
//! by cloning its handle (whole blocks of 16 handles at a time where no
//! segment of the block changed). Each shipped segment gets a fresh
//! buffer, is decrypted there, and is hashed and constant-time compared
//! against its authenticated leaf. The image also caches its whole
//! Merkle tree, so the new root re-folds only the shipped leaves'
//! ancestors. Patching therefore hashes O(changed bytes + changed·log
//! segments), and copies only the O(segments) table of digests and
//! handles, never the image.
//!
//! ## Why the kept segments need no re-hash
//!
//! A kept segment keeps its index, and the tail-geometry check makes it
//! keep its length. So its bytes in the new image are exactly its bytes
//! in the base. Those bytes sit behind an `Arc` that nothing writes
//! through once it is shared, so no `&mut` path to them exists, and
//! their cached leaf was computed from exactly those bytes when they
//! were decrypted, by the HDE at install or by the apply that shipped
//! them (the cached interior nodes likewise from those leaves).
//! Re-hashing them would recompute a pure function of unchanged data:
//! absent a memory fault it cannot disagree with the cached leaf, which
//! the signed root has just vouched for. Without the tail-geometry
//! check a kept ragged tail could change length (image growth or
//! shrinkage) while its cached leaf stayed in the table, so a delta
//! that resizes a segment without shipping it is refused with
//! [`EricError::Package`].
//!
//! A memory fault in a stored segment is the one thing a full re-hash
//! would catch, and it would catch it only when the next delta
//! happened to arrive. [`InstalledImage::scrub`] keeps that check as an
//! explicit O(image) sweep for background scrubbing.

use crate::error::EricError;
use crate::package::{map_wire_len, write_map, Package, WireReader};
use crate::source::{PreparedImage, SignaturePlan, SoftwareSource};
use crate::PackagedFrame;
use eric_crypto::cipher::CipherKind;
use eric_crypto::sha256::tree::{self, MerkleTree};
use eric_crypto::sha256::Digest;
use eric_hde::loader::{LoadedProgram, SecureLoader};
use eric_hde::manifest::{bind_root, signed_root};
use eric_hde::map::{CoverageMap, ParcelBitmap};
use eric_hde::transform::{manifest_stream_offset, transform_region, transform_signature};
use eric_hde::{FieldPolicy, HdeError};
use eric_puf::crp::{Challenge, EnrollmentRecord};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire magic for a delta frame: "ERIC2" + delta marker.
pub(crate) const DELTA_MAGIC: &[u8; 6] = b"ERIC2D";

/// Fixed-width prefix of the delta header: magic + cipher + policy +
/// epoch + nonce + text_base + data_base + entry + text_len +
/// payload_len + base_payload_len + segment_len + changed_count +
/// challenge_len.
pub(crate) const DELTA_HEADER_FIXED_LEN: usize =
    6 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 2;

/// Byte offset of the target-image `payload_len` field inside the
/// fixed delta header (mirrors
/// [`PAYLOAD_LEN_OFFSET`](crate::package::PAYLOAD_LEN_OFFSET) for full
/// frames; the channel's payload-substitution attacker reads it).
pub(crate) const DELTA_PAYLOAD_LEN_OFFSET: usize = 6 + 1 + 1 + 8 * 5 + 4;

/// Keystream position of the encrypted base fingerprint: the first
/// position past where a full frame's manifest would end, so payload,
/// root, leaves, and base digest all draw disjoint ranges.
pub(crate) fn base_digest_stream_offset(payload_len: usize, leaf_count: usize) -> u64 {
    manifest_stream_offset(payload_len) + 32 * leaf_count as u64
}

/// Byte length of segment `i` of a `payload_len`-byte image (the last
/// segment may be ragged).
fn segment_span(i: usize, payload_len: usize, segment_len: usize) -> usize {
    segment_len.min(payload_len - i * segment_len)
}

/// Byte length of the changed-segment region for a given index set.
fn changed_payload_bytes(changed: &[u32], payload_len: usize, segment_len: usize) -> usize {
    changed
        .iter()
        .map(|&i| segment_span(i as usize, payload_len, segment_len))
        .sum()
}

/// A segment-granular diff between two prepared images, ready to be
/// packaged per device.
///
/// Device-independent (like [`PreparedImage`]): built once by
/// [`SoftwareSource::prepare_delta`], then fanned out with
/// [`SoftwareSource::package_delta`] /
/// [`SoftwareSource::package_delta_into`] — each call draws a fresh
/// nonce and encrypts under that device's PUF-derived key.
#[derive(Clone)]
pub struct PreparedDelta {
    pub(crate) cipher: CipherKind,
    pub(crate) policy: Option<FieldPolicy>,
    pub(crate) epoch: u64,
    pub(crate) text_base: u64,
    pub(crate) data_base: u64,
    pub(crate) entry: u64,
    pub(crate) text_len: u32,
    pub(crate) payload_len: u32,
    pub(crate) base_payload_len: u32,
    pub(crate) segment_len: u32,
    /// Strictly ascending indices of segments that differ.
    pub(crate) changed: Vec<u32>,
    /// The target image's coverage map (the patched image is the
    /// target image, so its map travels with the delta).
    pub(crate) map: CoverageMap,
    /// Plaintext bytes of the changed segments, concatenated in index
    /// order.
    pub(crate) segments: Vec<u8>,
    /// The target image's full plaintext leaf table (shared across the
    /// batch; the signed root folds all of it).
    pub(crate) new_leaves: Vec<Digest>,
    /// Merkle root of the *base* image's leaf table: the fingerprint
    /// the device must match before patching.
    pub(crate) base_digest: Digest,
    pub(crate) prepare_time: Duration,
}

impl fmt::Debug for PreparedDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PreparedDelta {{ {}/{} segments changed, {} bytes, epoch: {} }}",
            self.changed.len(),
            self.new_leaves.len(),
            self.segments.len(),
            self.epoch
        )
    }
}

impl PreparedDelta {
    /// Number of segments that differ between base and target.
    pub fn changed_segments(&self) -> usize {
        self.changed.len()
    }

    /// Total segments in the target image.
    pub fn total_segments(&self) -> usize {
        self.new_leaves.len()
    }

    /// Plaintext bytes the delta actually carries.
    pub fn changed_bytes(&self) -> usize {
        self.segments.len()
    }

    /// Target image payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload_len as usize
    }

    /// Key epoch every delta frame from this preparation will target.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` when base and target are segment-identical (the frame
    /// would carry metadata only).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Wall-clock spent diffing the leaf tables.
    pub fn prepare_time(&self) -> Duration {
        self.prepare_time
    }
}

/// A parsed `ERIC2D` delta frame (the delta analogue of [`crate::Package`]).
#[derive(Clone, PartialEq)]
pub struct DeltaPackage {
    /// Cipher the payload/signature material is encrypted with.
    pub cipher: CipherKind,
    /// Field-level policy of the *target* image, when field-level
    /// encryption was used.
    pub policy: Option<FieldPolicy>,
    /// Key epoch the delta targets.
    pub epoch: u64,
    /// Per-frame keystream nonce.
    pub nonce: u64,
    /// PUF challenge identifying the key (public).
    pub challenge: Vec<u8>,
    /// Load address of the target image's text section.
    pub text_base: u64,
    /// Load address of the target image's data section.
    pub data_base: u64,
    /// Entry point of the target image.
    pub entry: u64,
    /// Text length of the target image.
    pub text_len: u32,
    /// Payload length of the *target* image.
    pub payload_len: u32,
    /// Payload length of the *base* image the delta applies to.
    pub base_payload_len: u32,
    /// Segment length shared by base and target manifests.
    pub segment_len: u32,
    /// Strictly ascending indices of the segments this delta replaces.
    pub changed: Vec<u32>,
    /// The base image's Merkle fingerprint, encrypted (part of the
    /// AAD, so the signed root binds it).
    pub encrypted_base_digest: [u8; 32],
    /// The target image's encryption coverage map.
    pub map: CoverageMap,
    /// The signed Merkle root over the full new leaf table, encrypted.
    pub encrypted_root: [u8; 32],
    /// Replacement leaf digests for the changed segments, encrypted,
    /// in index order.
    pub changed_leaves: Vec<[u8; 32]>,
    /// Changed-segment ciphertext, concatenated in index order (each
    /// segment encrypted at its absolute target-payload offset).
    pub segments: Vec<u8>,
}

impl fmt::Debug for DeltaPackage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DeltaPackage {{ {} changed segments, {} bytes, {} -> {} byte image, epoch: {}, nonce: {} }}",
            self.changed.len(),
            self.segments.len(),
            self.base_payload_len,
            self.payload_len,
            self.epoch,
            self.nonce
        )
    }
}

impl DeltaPackage {
    /// The canonical AAD encoding: byte for byte the wire frame's
    /// header prefix, through the changed-segment index table.
    pub fn aad(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            DELTA_HEADER_FIXED_LEN + self.challenge.len() + 32 + 4 * self.changed.len(),
        );
        self.write_header(&mut out);
        out
    }

    fn write_header(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(DELTA_MAGIC);
        out.push(self.cipher.wire_id());
        out.push(self.policy.map_or(0xFF, FieldPolicy::wire_id));
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.text_base.to_le_bytes());
        out.extend_from_slice(&self.data_base.to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&self.text_len.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.base_payload_len.to_le_bytes());
        out.extend_from_slice(&self.segment_len.to_le_bytes());
        out.extend_from_slice(&(self.changed.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.challenge.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.challenge);
        out.extend_from_slice(&self.encrypted_base_digest);
        for &i in &self.changed {
            out.extend_from_slice(&i.to_le_bytes());
        }
    }

    /// Serialized size in bytes, without serializing.
    pub fn wire_len(&self) -> usize {
        DELTA_HEADER_FIXED_LEN
            + self.challenge.len()
            + 32
            + 4 * self.changed.len()
            + map_wire_len(&self.map)
            + 32
            + 32 * self.changed.len()
            + self.segments.len()
    }

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.serialize_into(&mut buf);
        buf
    }

    /// Serialize into a reusable transmit buffer (cleared first; same
    /// contract as [`crate::Package::serialize_into`]).
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_len());
        self.write_header(out);
        write_map(out, &self.map);
        out.extend_from_slice(&self.encrypted_root);
        for leaf in &self.changed_leaves {
            out.extend_from_slice(leaf);
        }
        out.extend_from_slice(&self.segments);
        debug_assert_eq!(out.len(), self.wire_len());
    }

    /// Deserialize an `ERIC2D` frame.
    ///
    /// Structural validation happens here, in wire order, with the
    /// same fail-before-allocate discipline as [`crate::Package::from_wire`]:
    /// geometry claims are checked against bytes actually present
    /// before any claim-sized allocation.
    ///
    /// # Errors
    ///
    /// [`EricError::Package`] naming the offending field for bad
    /// magic, unknown identifiers, bad geometry, a non-ascending or
    /// out-of-range index table, or truncation.
    pub fn from_wire(wire: &[u8]) -> Result<DeltaPackage, EricError> {
        let err = |m: &str| EricError::Package(m.to_string());
        let mut wire = WireReader::new(wire);
        if wire.take(6, "magic")? != DELTA_MAGIC {
            return Err(err("bad magic"));
        }
        let cipher =
            CipherKind::from_wire_id(wire.u8("cipher")?).ok_or_else(|| err("unknown cipher"))?;
        let policy_id = wire.u8("policy")?;
        let policy = if policy_id == 0xFF {
            None
        } else {
            Some(FieldPolicy::from_wire_id(policy_id).ok_or_else(|| err("unknown policy"))?)
        };
        let epoch = wire.u64_le("epoch")?;
        let nonce = wire.u64_le("nonce")?;
        let text_base = wire.u64_le("text base")?;
        let data_base = wire.u64_le("data base")?;
        let entry = wire.u64_le("entry")?;
        let text_len = wire.u32_le("text length")?;
        let payload_len = wire.u32_le("payload length")?;
        let base_payload_len = wire.u32_le("base payload length")?;
        let segment_len = wire.u32_le("segment length")?;
        if segment_len == 0 || segment_len % 4 != 0 {
            return Err(err("bad segment length"));
        }
        let changed_count = wire.u32_le("changed count")? as usize;
        let new_count = (payload_len as usize).div_ceil(segment_len as usize);
        if changed_count > new_count {
            return Err(err("delta changes more segments than the image has"));
        }
        let challenge_len = wire.u16_le("challenge length")? as usize;
        let challenge = wire.take(challenge_len, "challenge")?.to_vec();
        let mut encrypted_base_digest = [0u8; 32];
        encrypted_base_digest.copy_from_slice(wire.take(32, "base digest")?);
        // The index table is sized by an attacker-controlled count;
        // the bytes must be present before the allocation (the count
        // is already bounded by new_count, itself bounded only by the
        // forgeable payload_len).
        if (wire.remaining() as u64) < 4 * changed_count as u64 {
            return Err(err("truncated at segment index table"));
        }
        let mut changed = Vec::with_capacity(changed_count);
        for _ in 0..changed_count {
            let i = wire.u32_le("segment index")?;
            if i as usize >= new_count {
                return Err(err("segment index out of range"));
            }
            if let Some(&last) = changed.last() {
                if i <= last {
                    return Err(err("segment index table not strictly ascending"));
                }
            }
            changed.push(i);
        }
        let map = match wire.u8("map tag")? {
            0 => CoverageMap::Full,
            1 => {
                let granularity = wire.u8("map granularity")? as u32;
                if granularity != 2 && granularity != 4 {
                    return Err(err("bad map granularity"));
                }
                let parcels = wire.u32_le("map parcels")? as usize;
                let bits = wire.take(parcels.div_ceil(8), "map bits")?;
                CoverageMap::Partial(ParcelBitmap::from_bytes_with_granularity(
                    bits,
                    parcels,
                    granularity,
                ))
            }
            _ => return Err(err("unknown map tag")),
        };
        let mut encrypted_root = [0u8; 32];
        encrypted_root.copy_from_slice(wire.take(32, "signed root")?);
        let seg_bytes = changed_payload_bytes(&changed, payload_len as usize, segment_len as usize);
        if (wire.remaining() as u64) < 32 * changed_count as u64 + seg_bytes as u64 {
            return Err(err("truncated at delta manifest"));
        }
        let mut changed_leaves = Vec::with_capacity(changed_count);
        for _ in 0..changed_count {
            let mut leaf = [0u8; 32];
            leaf.copy_from_slice(wire.take(32, "changed leaf")?);
            changed_leaves.push(leaf);
        }
        let segments = wire.take(seg_bytes, "delta payload")?.to_vec();
        if text_len > payload_len {
            return Err(err("text length exceeds payload"));
        }
        Ok(DeltaPackage {
            cipher,
            policy,
            epoch,
            nonce,
            challenge,
            text_base,
            data_base,
            entry,
            text_len,
            payload_len,
            base_payload_len,
            segment_len,
            changed,
            encrypted_base_digest,
            map,
            encrypted_root,
            changed_leaves,
            segments,
        })
    }
}

/// A verified plaintext image resident on a device, with the cached
/// per-segment digests that make delta updates possible.
///
/// Produced by [`Device::install`](crate::Device::install) (full
/// frame) or [`Device::apply_delta`](crate::Device::apply_delta)
/// (patch); run with
/// [`Device::run_installed`](crate::Device::run_installed). The
/// plaintext is stored as immutable, shared segments, so a patched
/// image shares every unchanged segment with its base and cloning an
/// image copies no payload. A buffer lives as long as any segment
/// viewing it, so an image and its patches together hold at most the
/// install buffer plus the segments shipped since. Next to the segments
/// sits their Merkle tree: the leaf digests, the interior nodes and the
/// root (the fingerprint), all computed once when the image is built.
/// The tree is what lets the device verify a delta's Merkle root
/// without re-hashing the unchanged segments.
#[derive(Clone)]
pub struct InstalledImage {
    /// The plaintext, segment by segment (the last may be ragged).
    /// Never mutated once created: a patch replaces segments, it does
    /// not write into them.
    segments: SegmentTable,
    payload_len: usize,
    pub(crate) text_len: usize,
    pub(crate) text_base: u64,
    pub(crate) data_base: u64,
    pub(crate) entry: u64,
    segment_len: u32,
    /// Merkle tree over the segments: leaf `i` is the digest of
    /// segment `i`, computed from those bytes when they were decrypted,
    /// and the root is the fingerprint.
    tree: MerkleTree,
}

impl fmt::Debug for InstalledImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InstalledImage {{ {} bytes ({} text), {} segments of {} }}",
            self.payload_len,
            self.text_len,
            self.segments(),
            self.segment_len
        )
    }
}

impl InstalledImage {
    /// Keep a verified full-frame load: split its plaintext into shared
    /// segments and fold the leaves the HDE verified them against into
    /// the cached tree.
    pub(crate) fn from_load(loaded: LoadedProgram, package: &Package, segment_len: u32) -> Self {
        debug_assert_eq!(
            loaded.leaves.len(),
            loaded.plaintext.len().div_ceil(segment_len as usize)
        );
        InstalledImage {
            payload_len: loaded.plaintext.len(),
            segments: SegmentTable::split(loaded.plaintext, segment_len as usize),
            text_len: loaded.text_len,
            text_base: package.text_base,
            data_base: package.data_base,
            entry: package.entry,
            segment_len,
            tree: MerkleTree::new(&loaded.leaves),
        }
    }

    /// Merkle fingerprint of the installed plaintext: two devices hold
    /// the same image iff their fingerprints match, and a delta frame
    /// names the fingerprint it expects to patch.
    pub fn fingerprint(&self) -> Digest {
        self.tree.root()
    }

    /// Installed plaintext size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Text-section length in bytes (prefix of the payload).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Number of cached segment digests.
    pub fn segments(&self) -> usize {
        self.tree.leaves().len()
    }

    /// Segment length the cached digests were computed at.
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// Entry point of the installed program.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The plaintext segments, in payload order.
    pub(crate) fn segment_bytes(&self) -> impl Iterator<Item = &[u8]> + Clone {
        self.segments.iter().map(Segment::bytes)
    }

    /// Re-hash every stored segment against its cached leaf, then
    /// re-fold the cached Merkle tree from its leaves: an O(image)
    /// integrity sweep for background scrubbing. Patching does not do
    /// this (see the module docs for why it need not); a scrub is what
    /// catches a memory fault in a segment that no delta has touched.
    ///
    /// # Errors
    ///
    /// [`EricError::Rejected`] with [`HdeError::SegmentMismatch`]
    /// naming the first segment whose bytes no longer match its leaf,
    /// or [`HdeError::SignatureMismatch`] when the cached tree no longer
    /// folds from its leaves.
    pub fn scrub(&self) -> Result<(), EricError> {
        let leaves = self.tree.leaves();
        for (i, (segment, leaf)) in self.segment_bytes().zip(leaves).enumerate() {
            if !tree::leaf_digest(i as u64, segment).ct_eq(leaf) {
                return Err(HdeError::SegmentMismatch { segment: i }.into());
            }
        }
        let refolded = MerkleTree::new(leaves);
        if refolded != self.tree {
            return Err(HdeError::SignatureMismatch {
                computed: refolded.root(),
                shipped: self.tree.root(),
            }
            .into());
        }
        Ok(())
    }

    /// The whole plaintext, gathered into one buffer (test oracle: a
    /// patched image must be byte-identical to a clean install).
    #[cfg(any(test, feature = "testing"))]
    pub fn plaintext(&self) -> Vec<u8> {
        self.segment_bytes().flatten().copied().collect()
    }

    /// Replace segment `i` with a copy whose first byte is flipped,
    /// leaving its cached leaf alone: a stored-segment memory fault.
    #[cfg(test)]
    pub(crate) fn corrupt_segment(&mut self, i: usize) {
        let mut bytes = self.segments.get(i).bytes().to_vec();
        bytes[0] ^= 1;
        let block = &mut self.segments.blocks[i / BLOCK];
        let mut handles = block.to_vec();
        handles[i % BLOCK] = Segment::owned(bytes);
        *block = handles.into();
    }
}

/// One plaintext segment: a byte range of an immutable, shared
/// buffer. The segments of an install all view the one buffer the HDE
/// verified, so installing copies nothing; a shipped segment owns a
/// buffer of its own. Nothing writes through an `Arc` once it is
/// shared, so stored bytes have no `&mut` path.
#[derive(Clone)]
struct Segment {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Segment {
    fn owned(bytes: Vec<u8>) -> Self {
        Segment {
            range: 0..bytes.len(),
            buf: Arc::new(bytes),
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

/// Segments per shared block of a [`SegmentTable`].
const BLOCK: usize = 16;

/// An image's segments, held as shared blocks of [`BLOCK`] segment
/// handles. A patch shares each block it does not touch whole, so
/// building the patched table, and later dropping the superseded one,
/// touches one reference count per untouched block rather than one per
/// segment.
#[derive(Clone)]
struct SegmentTable {
    blocks: Vec<Arc<[Segment]>>,
}

impl SegmentTable {
    /// View `plaintext` as `segment_len`-byte segments (the last may
    /// be ragged) without copying it.
    fn split(plaintext: Vec<u8>, segment_len: usize) -> Self {
        let len = plaintext.len();
        let buf = Arc::new(plaintext);
        let segments: Vec<Segment> = (0..len)
            .step_by(segment_len)
            .map(|start| Segment {
                buf: Arc::clone(&buf),
                range: start..(start + segment_len).min(len),
            })
            .collect();
        SegmentTable {
            blocks: segments.chunks(BLOCK).map(Arc::from).collect(),
        }
    }

    fn get(&self, i: usize) -> &Segment {
        &self.blocks[i / BLOCK][i % BLOCK]
    }

    fn iter(&self) -> impl Iterator<Item = &Segment> + Clone {
        self.blocks.iter().flat_map(|block| block.iter())
    }
}

impl SoftwareSource {
    /// Diff two prepared images at segment granularity.
    ///
    /// Both images must be segmented (`ERIC2`) builds with the same
    /// segment length — the diff *is* a leaf-table comparison, so the
    /// tables must be commensurable. A segment counts as changed when
    /// its plaintext leaf differs, which covers content edits, image
    /// growth (new tail segments), shrinkage, and ragged-tail
    /// resizing (a tail segment that changes length changes its leaf).
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] for v1 builds or mismatched segment
    /// lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use eric_core::{EncryptionConfig, SoftwareSource};
    ///
    /// let source = SoftwareSource::new("vendor");
    /// let cfg = EncryptionConfig::full().with_segments(8);
    /// let v1 = source.compile("main:\n li a0, 1\n li a7, 93\n ecall\n", false).unwrap();
    /// let v2 = source.compile("main:\n li a0, 2\n li a7, 93\n ecall\n", false).unwrap();
    /// let base = source.prepare_image(&v1, &cfg).unwrap();
    /// let next = source.prepare_image(&v2, &cfg).unwrap();
    /// let delta = source.prepare_delta(&base, &next).unwrap();
    /// // One instruction changed: only that segment ships.
    /// assert!(delta.changed_segments() < delta.total_segments());
    /// ```
    pub fn prepare_delta(
        &self,
        base: &PreparedImage,
        target: &PreparedImage,
    ) -> Result<PreparedDelta, EricError> {
        let (
            SignaturePlan::Segmented {
                segment_len: base_len,
                leaves: base_leaves,
            },
            SignaturePlan::Segmented {
                segment_len: target_len,
                leaves: target_leaves,
            },
        ) = (&base.signature_plan, &target.signature_plan)
        else {
            return Err(EricError::Config(
                "delta preparation requires segmented (ERIC2) builds on both sides".into(),
            ));
        };
        if base_len != target_len {
            return Err(EricError::Config(format!(
                "base and target segment lengths differ ({base_len} vs {target_len})"
            )));
        }
        let t = Instant::now();
        let segment_len = *target_len as usize;
        let payload_len = target.payload.len();
        let mut changed = Vec::new();
        let mut segments = Vec::new();
        for (i, leaf) in target_leaves.iter().enumerate() {
            if base_leaves.get(i) == Some(leaf) {
                continue;
            }
            changed.push(i as u32);
            let start = i * segment_len;
            let end = (start + segment_len).min(payload_len);
            segments.extend_from_slice(&target.payload[start..end]);
        }
        Ok(PreparedDelta {
            cipher: target.cipher,
            policy: target.policy,
            epoch: target.epoch,
            text_base: target.text_base,
            data_base: target.data_base,
            entry: target.entry,
            text_len: target.text_len,
            payload_len: payload_len as u32,
            base_payload_len: base.payload.len() as u32,
            segment_len: *target_len,
            changed,
            map: target.map.clone(),
            segments,
            new_leaves: target_leaves.clone(),
            base_digest: tree::merkle_root(base_leaves),
            prepare_time: t.elapsed(),
        })
    }

    /// Package a prepared delta for one device: draw a nonce, sign the
    /// full new leaf table into the delta AAD, and encrypt the root,
    /// replacement leaves, changed segments, and base fingerprint
    /// under the device's PUF-derived per-frame key.
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] when `cred` is from a different key epoch
    /// than the delta targets.
    pub fn package_delta(
        &self,
        delta: &PreparedDelta,
        cred: &EnrollmentRecord,
    ) -> Result<DeltaPackage, EricError> {
        let mut frame = Vec::new();
        self.package_delta_into(delta, cred, &mut frame)?;
        DeltaPackage::from_wire(&frame)
    }

    /// Zero-copy variant of [`SoftwareSource::package_delta`]: sign,
    /// encrypt, and serialize the `ERIC2D` frame straight into a
    /// reusable transmit buffer (the delta analogue of
    /// [`SoftwareSource::package_prepared_into`], same buffer and
    /// error contracts).
    ///
    /// # Errors
    ///
    /// [`EricError::Config`] on an epoch mismatch; the buffer is left
    /// cleared and no nonce is drawn.
    pub fn package_delta_into(
        &self,
        delta: &PreparedDelta,
        cred: &EnrollmentRecord,
        out: &mut Vec<u8>,
    ) -> Result<PackagedFrame, EricError> {
        out.clear();
        if cred.epoch != delta.epoch {
            return Err(EricError::Config(format!(
                "credential for {:?} is from epoch {} but the delta targets epoch {}",
                cred.device_id, cred.epoch, delta.epoch
            )));
        }
        let nonce = self.draw_nonce();
        let payload_len = delta.payload_len as usize;
        let segment_len = delta.segment_len as usize;
        let challenge = cred.challenge.as_bytes();
        let wire_len = DELTA_HEADER_FIXED_LEN
            + challenge.len()
            + 32
            + 4 * delta.changed.len()
            + map_wire_len(&delta.map)
            + 32
            + 32 * delta.changed.len()
            + delta.segments.len();
        out.reserve(wire_len);

        // The key is needed *before* the header is written: the base
        // fingerprint ships encrypted inside the AAD.
        let key = self.kmu().package_key(&cred.key, nonce);
        let cipher = delta.cipher.instantiate(key.as_bytes());

        out.extend_from_slice(DELTA_MAGIC);
        out.push(delta.cipher.wire_id());
        out.push(delta.policy.map_or(0xFF, FieldPolicy::wire_id));
        out.extend_from_slice(&delta.epoch.to_le_bytes());
        out.extend_from_slice(&nonce.to_le_bytes());
        out.extend_from_slice(&delta.text_base.to_le_bytes());
        out.extend_from_slice(&delta.data_base.to_le_bytes());
        out.extend_from_slice(&delta.entry.to_le_bytes());
        out.extend_from_slice(&delta.text_len.to_le_bytes());
        out.extend_from_slice(&delta.payload_len.to_le_bytes());
        out.extend_from_slice(&delta.base_payload_len.to_le_bytes());
        out.extend_from_slice(&delta.segment_len.to_le_bytes());
        out.extend_from_slice(&(delta.changed.len() as u32).to_le_bytes());
        out.extend_from_slice(&(challenge.len() as u16).to_le_bytes());
        out.extend_from_slice(challenge);
        let mut base_digest = *delta.base_digest.as_bytes();
        cipher.apply(
            base_digest_stream_offset(payload_len, delta.new_leaves.len()),
            &mut base_digest,
        );
        out.extend_from_slice(&base_digest);
        for &i in &delta.changed {
            out.extend_from_slice(&i.to_le_bytes());
        }
        let aad_len = out.len();

        // The signed root folds the FULL new leaf table over the delta
        // AAD: the device reconstructs the same table from its cache
        // plus the shipped diff, so any omission or substitution in
        // the diff breaks the root.
        let signature = signed_root(out, delta.segment_len, &delta.new_leaves);

        write_map(out, &delta.map);
        let mut sig_bytes = *signature.as_bytes();
        transform_signature(&mut sig_bytes, payload_len, cipher.as_ref());
        out.extend_from_slice(&sig_bytes);
        let manifest_at = manifest_stream_offset(payload_len);
        for &i in &delta.changed {
            let mut leaf = *delta.new_leaves[i as usize].as_bytes();
            cipher.apply(manifest_at + 32 * i as u64, &mut leaf);
            out.extend_from_slice(&leaf);
        }
        let mut cursor = 0usize;
        for &i in &delta.changed {
            let start = i as usize * segment_len;
            let len = segment_len.min(payload_len - start);
            let at = out.len();
            out.extend_from_slice(&delta.segments[cursor..cursor + len]);
            cursor += len;
            transform_region(
                &mut out[at..],
                start,
                &delta.map,
                delta.policy,
                delta.text_len as usize,
                cipher.as_ref(),
            );
        }
        debug_assert_eq!(out.len(), wire_len);
        Ok(PackagedFrame {
            nonce,
            wire_len,
            aad_len,
        })
    }
}

/// Apply an authenticated delta to an installed image (the device-side
/// half; [`Device::apply_delta`](crate::Device::apply_delta) is the
/// public entry point).
///
/// Validation runs strictly before any payload byte is decrypted, in
/// order: geometry against the installed image (including the
/// tail-geometry check: every segment whose length changes must be
/// shipped), epoch, index-table coverage, base fingerprint, then the
/// Merkle root over the *reconstructed* full table (cached siblings +
/// shipped diff). The new [`InstalledImage`] then shares every kept
/// segment with `installed` and holds a fresh buffer for each shipped
/// one, decrypted and checked against its authenticated leaf. Kept
/// segments are not re-hashed; the module docs give the argument, and
/// [`InstalledImage::scrub`] is the explicit O(image) check.
pub(crate) fn apply(
    loader: &SecureLoader,
    installed: &InstalledImage,
    delta: &DeltaPackage,
) -> Result<InstalledImage, EricError> {
    let payload_len = delta.payload_len as usize;
    let segment_len = delta.segment_len as usize;
    let text_len = delta.text_len as usize;
    if delta.segment_len != installed.segment_len {
        return Err(EricError::Package(format!(
            "delta segment length {} does not match installed image ({})",
            delta.segment_len, installed.segment_len
        )));
    }
    if delta.base_payload_len as usize != installed.payload_len {
        return Err(EricError::Package(format!(
            "delta expects a {}-byte base image but {} bytes are installed",
            delta.base_payload_len, installed.payload_len
        )));
    }
    let device_epoch = loader.keys().epoch();
    if delta.epoch != device_epoch {
        return Err(HdeError::WrongEpoch {
            package: delta.epoch,
            device: device_epoch,
        }
        .into());
    }
    if delta.policy.is_some() && !text_len.is_multiple_of(4) {
        return Err(HdeError::Malformed(format!(
            "field-level delta with misaligned text length {text_len}"
        ))
        .into());
    }
    if let CoverageMap::Partial(bm) = &delta.map {
        if bm.parcels() < payload_len.div_ceil(bm.granularity() as usize) {
            return Err(
                HdeError::Malformed("coverage map does not span the payload".into()).into(),
            );
        }
    }
    // Every segment past the installed table is new content and must
    // be shipped — the cache has no digest to stand in for it.
    let new_count = payload_len.div_ceil(segment_len);
    let old_count = installed.segments();
    let shipped = |i: usize| delta.changed.binary_search(&(i as u32)).is_ok();
    if let Some(i) = (old_count..new_count).find(|&i| !shipped(i)) {
        return Err(EricError::Package(format!("delta omits new segment {i}")));
    }
    // A kept segment is reused as stored, so it must keep its length:
    // a ragged tail that grows or shrinks has to be shipped.
    if let Some(i) = (0..old_count.min(new_count)).find(|&i| {
        installed.segments.get(i).range.len() != segment_span(i, payload_len, segment_len)
            && !shipped(i)
    }) {
        return Err(EricError::Package(format!(
            "delta resizes segment {i} without shipping it"
        )));
    }

    let challenge = Challenge::from_bytes(&delta.challenge);
    let key = loader
        .keys()
        .package_key(&challenge, delta.epoch, delta.nonce);
    let cipher = delta.cipher.instantiate(key.as_bytes());

    // Base gate: this delta must name the image actually installed.
    let mut base_digest = delta.encrypted_base_digest;
    cipher.apply(
        base_digest_stream_offset(payload_len, new_count),
        &mut base_digest,
    );
    if !installed
        .fingerprint()
        .ct_eq(&Digest::from_bytes(base_digest))
    {
        return Err(EricError::Package(
            "delta targets a different base image".into(),
        ));
    }

    // Reconstruct the full new tree from cached siblings plus the
    // shipped replacement leaves, and authenticate it as a whole before
    // any payload byte is decrypted.
    let mut root = delta.encrypted_root;
    transform_signature(&mut root, payload_len, cipher.as_ref());
    let shipped_root = Digest::from_bytes(root);
    let manifest_at = manifest_stream_offset(payload_len);
    let shipped_leaves: Vec<(usize, Digest)> = delta
        .changed
        .iter()
        .zip(&delta.changed_leaves)
        .map(|(&i, &leaf)| {
            let mut leaf = leaf;
            cipher.apply(manifest_at + 32 * u64::from(i), &mut leaf);
            (i as usize, Digest::from_bytes(leaf))
        })
        .collect();
    let tree = if new_count == old_count {
        // Same shape: re-fold only the shipped leaves' ancestors.
        let mut tree = installed.tree.clone();
        tree.replace(&shipped_leaves);
        tree
    } else {
        // Growth or shrinkage reshapes the tree: fold it afresh. Every
        // index past the old table is shipped (checked above), so the
        // zero fill below is always overwritten.
        let mut leaves = installed.tree.leaves().to_vec();
        leaves.resize(new_count, Digest::from_bytes([0; 32]));
        for &(i, leaf) in &shipped_leaves {
            leaves[i] = leaf;
        }
        MerkleTree::new(&leaves)
    };
    let computed = bind_root(&delta.aad(), delta.segment_len, new_count, &tree.root());
    if !computed.ct_eq(&shipped_root) {
        return Err(HdeError::SignatureMismatch {
            computed,
            shipped: shipped_root,
        }
        .into());
    }

    // Copy-on-write: kept segments are shared with the installed image
    // (never touched, so no error path leaves a partial patch behind),
    // whole blocks of them where no segment of the block changed; each
    // shipped segment is decrypted into a buffer of its own and checked
    // against its authenticated leaf.
    let mut blocks = Vec::with_capacity(new_count.div_ceil(BLOCK));
    let mut changed = delta.changed.iter().map(|&i| i as usize).peekable();
    let mut cursor = 0usize;
    for b in 0..new_count.div_ceil(BLOCK) {
        let range = b * BLOCK..(b * BLOCK + BLOCK).min(new_count);
        let old = installed.segments.blocks.get(b);
        if let Some(old) = old.filter(|old| old.len() == range.len()) {
            if changed.peek().is_none_or(|&i| i >= range.end) {
                blocks.push(Arc::clone(old));
                continue;
            }
        }
        let mut block = Vec::with_capacity(range.len());
        for i in range {
            if changed.next_if_eq(&i).is_none() {
                block.push(installed.segments.get(i).clone());
                continue;
            }
            let start = i * segment_len;
            let len = segment_span(i, payload_len, segment_len);
            let mut bytes = delta.segments[cursor..cursor + len].to_vec();
            cursor += len;
            transform_region(
                &mut bytes,
                start,
                &delta.map,
                delta.policy,
                text_len,
                cipher.as_ref(),
            );
            if !tree::leaf_digest(i as u64, &bytes).ct_eq(&tree.leaves()[i]) {
                return Err(HdeError::SegmentMismatch { segment: i }.into());
            }
            block.push(Segment::owned(bytes));
        }
        blocks.push(block.into());
    }

    Ok(InstalledImage {
        segments: SegmentTable { blocks },
        payload_len,
        text_len,
        text_base: delta.text_base,
        data_base: delta.data_base,
        entry: delta.entry,
        segment_len: delta.segment_len,
        tree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncryptionConfig;
    use crate::device::Device;

    const BASE: &str = "main:\n li a0, 41\n addi a0, a0, 1\n li a7, 93\n ecall\n";
    const NEXT: &str = "main:\n li a0, 6\n li a1, 7\n mul a0, a0, a1\n li a7, 93\n ecall\n";

    fn prepared(src: &SoftwareSource, program: &str, cfg: &EncryptionConfig) -> PreparedImage {
        let image = src.compile(program, false).unwrap();
        src.prepare_image(&image, cfg).unwrap()
    }

    #[test]
    fn delta_roundtrip_patches_and_runs() {
        let mut device = Device::with_seed(1, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);

        let pkg = src.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&pkg).unwrap();
        assert_eq!(device.run_installed(&installed).unwrap().exit_code, 42);

        let delta = src.prepare_delta(&base, &next).unwrap();
        assert!(delta.changed_segments() > 0);
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);

        // The patched image is fingerprint-identical to a clean full
        // install of the target.
        let full = src.package_prepared(&next, &cred).unwrap().0;
        let clean = device.install(&full).unwrap();
        assert_eq!(patched.fingerprint(), clean.fingerprint());
        assert_eq!(patched.plaintext(), clean.plaintext());
    }

    #[test]
    fn delta_wire_roundtrip_and_truncations() {
        let mut device = Device::with_seed(2, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();

        let wire = frame.to_wire();
        assert_eq!(&wire[..6], b"ERIC2D");
        assert_eq!(wire.len(), frame.wire_len());
        let parsed = DeltaPackage::from_wire(&wire).unwrap();
        assert_eq!(parsed, frame);
        assert_eq!(&wire[..frame.aad().len()], &frame.aad()[..]);
        for len in 0..wire.len() {
            assert!(
                DeltaPackage::from_wire(&wire[..len]).is_err(),
                "truncation to {len} accepted"
            );
        }
    }

    #[test]
    fn zero_copy_delta_matches_parse_reserialize() {
        let mut device = Device::with_seed(3, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::partial(0.5, 7).with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let mut frame = vec![0xA5; 11]; // dirty reuse
        let info = src.package_delta_into(&delta, &cred, &mut frame).unwrap();
        assert_eq!(info.wire_len, frame.len());
        let parsed = DeltaPackage::from_wire(&frame).unwrap();
        assert_eq!(parsed.nonce, info.nonce);
        assert_eq!(parsed.to_wire(), frame);
        assert_eq!(&frame[..info.aad_len], &parsed.aad()[..]);
    }

    #[test]
    fn identical_images_produce_empty_delta_that_applies() {
        let mut device = Device::with_seed(4, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let same = prepared(&src, BASE, &cfg);
        let delta = src.prepare_delta(&base, &same).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.changed_bytes(), 0);

        let pkg = src.package_prepared(&base, &cred).unwrap().0;
        let installed = device.install(&pkg).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.fingerprint(), installed.fingerprint());
    }

    #[test]
    fn image_growth_ships_tail_segments() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let grown = ".data\nbuf: .zero 200\n.text\nmain:\n li a0, 42\n li a7, 93\n ecall\n";
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, grown, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        // All-new tail segments must be in the changed set.
        let base_count = base.segments();
        let new_count = next.segments();
        assert!(new_count > base_count);
        for i in base_count..new_count {
            assert!(
                delta.changed.binary_search(&(i as u32)).is_ok(),
                "tail segment {i} not shipped"
            );
        }
        // And the patch applies end to end.
        let mut device = Device::with_seed(5, "node");
        let cred = device.enroll();
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.payload_len(), next.payload_len());
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);
    }

    #[test]
    fn wrong_base_image_rejected_by_fingerprint_gate() {
        let mut device = Device::with_seed(6, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        // Same geometry as `base` (one changed instruction), different
        // content: the structural checks pass, the fingerprint must
        // not.
        let imposter_program = "main:\n li a0, 40\n addi a0, a0, 2\n li a7, 93\n ecall\n";
        let imposter = prepared(&src, imposter_program, &cfg);
        assert_eq!(imposter.payload_len(), base.payload_len());

        let installed = device
            .install(&src.package_prepared(&imposter, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let err = device.apply_delta(&installed, &frame).unwrap_err();
        assert!(
            matches!(&err, EricError::Package(m) if m.contains("different base image")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_device_and_wrong_epoch_rejected() {
        let mut device = Device::with_seed(7, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &next).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();

        // A different device derives a different key: the base gate
        // fails closed (encrypted fingerprint decrypts to noise).
        let imposter = Device::with_seed(99, "imposter");
        assert!(imposter.apply_delta(&installed, &frame).is_err());

        // Epoch rotation invalidates outstanding deltas.
        device.rotate_epoch();
        let err = device.apply_delta(&installed, &frame).unwrap_err();
        assert!(
            matches!(
                &err,
                EricError::Rejected(HdeError::WrongEpoch {
                    package: 0,
                    device: 1
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn v1_builds_and_mismatched_geometry_rejected_at_prepare() {
        let src = SoftwareSource::new("vendor");
        let v1 = prepared(
            &src,
            BASE,
            &EncryptionConfig::full().with_legacy_signature(),
        );
        let v2 = prepared(&src, NEXT, &EncryptionConfig::full().with_segments(8));
        assert!(matches!(
            src.prepare_delta(&v1, &v2),
            Err(EricError::Config(_))
        ));
        let other = prepared(&src, NEXT, &EncryptionConfig::full().with_segments(16));
        assert!(matches!(
            src.prepare_delta(&v2, &other),
            Err(EricError::Config(_))
        ));
    }

    #[test]
    fn delta_is_much_smaller_than_full_frame_for_sparse_change() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        // Large data region; flip one byte of it.
        let base_prog = ".data\nbuf: .zero 4096\n.text\nmain:\n li a0, 42\n li a7, 93\n ecall\n";
        let base = prepared(&src, base_prog, &cfg);
        let mut target = base.clone();
        let len = target.payload.len();
        target.payload[len - 1] ^= 0xFF;
        let SignaturePlan::Segmented {
            segment_len,
            leaves,
        } = &mut target.signature_plan
        else {
            unreachable!()
        };
        *leaves = tree::leaf_digests_batch(0, &target.payload, *segment_len as usize);
        let delta = src.prepare_delta(&base, &target).unwrap();
        assert_eq!(delta.changed_segments(), 1);

        let mut device = Device::with_seed(8, "node");
        let cred = device.enroll();
        let full_frame = src.package_prepared(&base, &cred).unwrap().0.to_wire();
        let delta_frame = src.package_delta(&delta, &cred).unwrap().to_wire();
        assert!(
            delta_frame.len() * 10 < full_frame.len(),
            "delta {} vs full {}",
            delta_frame.len(),
            full_frame.len()
        );
        // And it still applies.
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        assert_eq!(patched.plaintext(), target.payload);
    }

    /// A program whose payload is 12 bytes of text followed by `data`.
    fn with_data(data: &[u8]) -> String {
        let bytes: Vec<String> = data.iter().map(u8::to_string).collect();
        format!(
            ".data\nbuf: .byte {}\n.text\nmain:\n li a0, 42\n li a7, 93\n ecall\n",
            bytes.join(", ")
        )
    }

    /// Install `base`, patch it to `target`, and check the patch: it
    /// scrubs clean, is byte-identical to a clean install of `target`,
    /// and shares every segment it did not ship with the base.
    fn patch(seed: u64, base: &str, target: &str) -> (InstalledImage, InstalledImage) {
        let mut device = Device::with_seed(seed, "node");
        let cred = device.enroll();
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let (base, target) = (prepared(&src, base, &cfg), prepared(&src, target, &cfg));
        let installed = device
            .install(&src.package_prepared(&base, &cred).unwrap().0)
            .unwrap();
        let delta = src.prepare_delta(&base, &target).unwrap();
        let frame = src.package_delta(&delta, &cred).unwrap();
        let patched = device.apply_delta(&installed, &frame).unwrap();
        patched.scrub().unwrap();
        let clean = device
            .install(&src.package_prepared(&target, &cred).unwrap().0)
            .unwrap();
        assert_eq!(patched.plaintext(), clean.plaintext());
        assert_eq!(patched.plaintext(), target.payload);
        assert_eq!(patched.fingerprint(), clean.fingerprint());
        assert_eq!(patched.tree, clean.tree);
        for (i, segment) in patched.segments.iter().enumerate() {
            let kept = delta.changed.binary_search(&(i as u32)).is_err();
            let shared = i < installed.segments() && {
                let old = installed.segments.get(i);
                Arc::ptr_eq(&old.buf, &segment.buf) && old.range == segment.range
            };
            assert_eq!(kept, shared, "segment {i}: kept {kept}, shared {shared}");
        }
        // A block with no shipped segment, spanning the same segments
        // as before, is shared whole.
        for (b, block) in patched.segments.blocks.iter().enumerate() {
            let untouched = delta.changed.iter().all(|&i| i as usize / BLOCK != b);
            let old = installed.segments.blocks.get(b);
            let reusable = untouched && old.is_some_and(|old| old.len() == block.len());
            let shared = old.is_some_and(|old| Arc::ptr_eq(old, block));
            assert_eq!(reusable, shared, "block {b}");
        }
        assert_eq!(device.run_installed(&patched).unwrap().exit_code, 42);
        (installed, patched)
    }

    #[test]
    fn copy_on_write_patches_match_a_clean_install() {
        let data = |len: usize, mark: u8| {
            let mut d = vec![7u8; len];
            d[len / 2] = mark;
            d
        };
        // 12 text bytes + data, in 8-byte segments.
        let cases = [
            ("identical", data(60, 1), data(60, 1)),
            ("sparse", data(300, 1), data(300, 2)),
            ("growth", data(10, 1), data(30, 1)),
            ("shrink", data(30, 1), data(10, 1)),
            ("growth past a block", data(200, 1), data(300, 1)),
            ("shrink past a block", data(300, 1), data(200, 1)),
            ("ragged tail", data(10, 1), data(11, 1)),
            ("tail to exact", data(10, 1), data(12, 1)),
        ];
        for (seed, (name, base, target)) in cases.iter().enumerate() {
            let (installed, patched) =
                patch(20 + seed as u64, &with_data(base), &with_data(target));
            assert_eq!(patched.payload_len(), 12 + target.len(), "{name}");
            installed.scrub().unwrap();
        }
    }

    #[test]
    fn scrub_names_a_corrupted_segment() {
        let (_, mut patched) = patch(30, &with_data(&[1; 40]), &with_data(&[2; 40]));
        patched.scrub().unwrap();
        patched.corrupt_segment(3);
        let err = patched.scrub().unwrap_err();
        assert!(
            matches!(
                err,
                EricError::Rejected(HdeError::SegmentMismatch { segment: 3 })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_delta_that_resizes_a_kept_segment_is_rejected() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let mut device = Device::with_seed(31, "node");
        let cred = device.enroll();
        // Growth (a 6-byte tail becomes full), shrinkage (a full segment
        // becomes a 6-byte tail) and a same-count ragged resize.
        for (base, target, tail) in [(10, 30, 2), (30, 10, 2), (10, 11, 2)] {
            let base = prepared(&src, &with_data(&vec![1; base]), &cfg);
            let target = prepared(&src, &with_data(&vec![1; target]), &cfg);
            let installed = device
                .install(&src.package_prepared(&base, &cred).unwrap().0)
                .unwrap();
            let mut frame = src
                .package_delta(&src.prepare_delta(&base, &target).unwrap(), &cred)
                .unwrap();
            // Forge the changed set: drop the resized segment, its leaf
            // and its bytes.
            let k = frame.changed.binary_search(&tail).unwrap();
            let at = k * 8;
            let len = segment_span(tail as usize, frame.payload_len as usize, 8);
            frame.changed.remove(k);
            frame.changed_leaves.remove(k);
            frame.segments.drain(at..at + len);
            let err = device.apply_delta(&installed, &frame).unwrap_err();
            assert!(
                matches!(&err, EricError::Package(m) if m.contains("resizes segment 2")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn epoch_mismatch_clears_buffer_and_burns_no_nonce() {
        let src = SoftwareSource::new("vendor");
        let cfg = EncryptionConfig::full().with_segments(8);
        let base = prepared(&src, BASE, &cfg);
        let next = prepared(&src, NEXT, &cfg);
        let delta = src.prepare_delta(&base, &next).unwrap();
        let mut device = Device::with_seed(9, "node");
        let mut stale = device.enroll();
        stale.epoch = 3;
        let mut buf = vec![0xEE; 32];
        assert!(matches!(
            src.package_delta_into(&delta, &stale, &mut buf),
            Err(EricError::Config(_))
        ));
        assert!(buf.is_empty());
        let cred = device.enroll();
        let info = src.package_delta_into(&delta, &cred, &mut buf).unwrap();
        assert_eq!(info.nonce, 1, "rejected call must not draw a nonce");
    }
}
