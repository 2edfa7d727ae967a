//! Sparse wire format and sparse tree collectives.
//!
//! Top-k gradient compression only pays off if the *wire* carries the
//! sparse form. This module gives the comm substrate an index/value
//! encoding and a binomial-tree allreduce over it, so compressed SASGD on
//! the threaded backend moves `O(k)` elements per hop instead of `O(m)` —
//! and the traffic counters record the real (compressed) sizes.
//!
//! The reduction is the walk of [`crate::tree`] with the sparse
//! [`SparseFold`] (accumulated self `+=` incoming child, children in
//! ascending bit order), so a sparse allreduce of vectors produces the same sums, bit
//! for bit, as the dense tree allreduce of their densified forms — with one
//! IEEE corner: a coordinate whose every contribution is `-0.0` densifies
//! to `+0.0` here (`-0.0` entries are structurally absent) while a dense
//! reduction keeps `-0.0`. Gradient payloads never hit it; tests exclude
//! `-0.0` explicitly.
//!
//! Wire encoding inside the existing `Vec<f32>` message type:
//! `[len, nnz, idx..., val...]` with `len`/`nnz`/indices bit-cast from
//! `u32` via [`f32::from_bits`] (exact round-trip; an index would need to
//! exceed 2³¹ before its bit pattern could collide with a NaN).
//!
//! The composed codec [`SparseVec8`] additionally quantizes the value
//! lane to 8 bits (`[len, nnz, scale, idx..., q-packed...]`, four `i8`
//! per `f32` slot, ~`k + k/4` elements instead of `2k`). It only ships
//! values that already sit exactly on the `q·scale` grid — compression
//! quantizes, the wire just transports — so the receiver's `q·scale`
//! reconstruction is bitwise identical to the sender's dense form and
//! the tree reduce stays a plain f32 sum.
//!
//! [`sparse_allreduce_tree`] is the one sparse tree: the walk over a full
//! membership, the encoded total going down. It records a per-level wire
//! profile ([`SparseLevelProfile`], measuring how the index union grows
//! with tree depth) and, with a union bound, re-TopKs each merged partial,
//! folding the trimmed mass back to the caller as a sparse *spill* for its
//! error-feedback residual — nothing is silently lost. With default
//! [`SparseTreeOpts`] the spill is empty and the sums are the dense
//! tree's. Both engine backends run it; there is no in-memory copy of its
//! combine order.
//!
//! The dense tree's fold ([`crate::collectives::Dense`]) with a scale
//! gives dense 8-bit quantization a real wire form: leaf sends travel as
//! packed `[len, scale, q-packed]` frames (`2 + ⌈m/4⌉` elements, encoded
//! and decoded here), merged partials and the total on the way down stay
//! dense f32 — bitwise identical to the dense tree over the same quantized
//! inputs: the 8-bit frame is a transport optimization, not an extra lossy
//! step.
//!
//! Frames arrive from peers, over [`crate::socket::SocketTransport`] from
//! another process: every decoder validates its buffer once (header and
//! payload lengths, strictly increasing in-range indices, a usable scale)
//! and the trees check the dense length against the receiver's own, so a
//! bad frame is a [`CommError::Malformed`] that leaves the receiver's
//! partial untouched, never a panic or an out-of-bounds index.

use crate::transport::Transport;
use crate::tree::{prefixed, walk, Fold, Membership, Wire};
use crate::world::CommError;

/// Elements of a [`SparseVec`] wire frame carrying `nnz` entries.
pub fn sparse_frame_elements(nnz: usize) -> usize {
    2 + 2 * nnz
}

/// Elements of a [`SparseVec8`] wire frame carrying `nnz` entries.
pub fn sparse8_frame_elements(nnz: usize) -> usize {
    3 + nnz + nnz.div_ceil(4)
}

/// Elements of a packed dense 8-bit frame (`[len, scale, q-packed...]`)
/// for an `m`-element vector.
pub fn dense8_frame_elements(m: usize) -> usize {
    2 + m.div_ceil(4)
}

/// Ranking magnitude for union-bound trimming: NaN maps to +∞ so a
/// poisoned coordinate is never silently trimmed away.
fn trim_mag(v: f32) -> f32 {
    if v.is_nan() {
        f32::INFINITY
    } else {
        v.abs()
    }
}

/// Why `idx` cannot be the index lane of a `len`-element sparse vector,
/// if it cannot: [`SparseVec::add_assign`] merges on strictly increasing
/// indices and [`SparseVec::to_dense`] indexes by them unchecked.
fn index_fault(idx: &[u32], len: u32) -> Option<&'static str> {
    if idx.windows(2).any(|w| w[0] >= w[1]) {
        Some("indices not strictly increasing")
    } else if idx.last().is_some_and(|&i| i >= len) {
        Some("index beyond the dense length")
    } else {
        None
    }
}

/// A quantization step a sender can have produced: finite and positive.
fn scale_fault(scale: f32) -> Option<&'static str> {
    (!(scale.is_finite() && scale > 0.0)).then_some("scale not finite and positive")
}

/// A sparse view of an `m`-element `f32` vector: sorted indices plus
/// values. Zero values may appear (sums that cancel stay represented so
/// repeated merges keep the dense addition structure); `-0.0` never enters
/// through [`SparseVec::from_dense`].
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    /// Dense length.
    pub len: u32,
    /// Strictly increasing coordinate indices.
    pub idx: Vec<u32>,
    /// Values, parallel to `idx`.
    pub val: Vec<f32>,
}

impl SparseVec {
    /// Extract the nonzero coordinates of `dense` (`±0.0` excluded). An
    /// adapter for tests and callers that hold a dense vector: the engine's
    /// compressor emits its payload sparse and never builds one.
    pub fn from_dense(dense: &[f32]) -> Self {
        // lint:allow(comm-unwrap): the caller's own vector, not wire input.
        assert!(dense.len() <= u32::MAX as usize, "vector too long for wire");
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                idx.push(i as u32);
                val.push(v);
            }
        }
        SparseVec {
            len: dense.len() as u32,
            idx,
            val,
        }
    }

    /// The all-zero vector of dense length `len`.
    pub fn empty(len: u32) -> Self {
        SparseVec {
            len,
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Stored entries (including exact-zero sums).
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Densify. Like [`from_dense`](SparseVec::from_dense), an adapter: the
    /// engine applies a sparse total by index instead.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len as usize];
        for (&i, &v) in self.idx.iter().zip(&self.val) {
            out[i as usize] = v;
        }
        out
    }

    /// Merge-add `other` into `self` (`self[i] += other[i]` on shared
    /// coordinates, union elsewhere) — the sparse mirror of the dense
    /// reduce's `a += b`.
    pub fn add_assign(&mut self, other: &SparseVec) {
        // lint:allow(comm-unwrap): frames are length-checked before they merge.
        assert_eq!(self.len, other.len, "length mismatch in sparse add");
        let (n_a, n_b) = (self.idx.len(), other.idx.len());
        let mut idx = Vec::with_capacity(n_a + n_b);
        let mut val = Vec::with_capacity(n_a + n_b);
        let (mut a, mut b) = (0usize, 0usize);
        while a < n_a && b < n_b {
            match self.idx[a].cmp(&other.idx[b]) {
                std::cmp::Ordering::Less => {
                    idx.push(self.idx[a]);
                    val.push(self.val[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    idx.push(other.idx[b]);
                    val.push(other.val[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    idx.push(self.idx[a]);
                    val.push(self.val[a] + other.val[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        idx.extend_from_slice(&self.idx[a..]);
        val.extend_from_slice(&self.val[a..]);
        idx.extend_from_slice(&other.idx[b..]);
        val.extend_from_slice(&other.val[b..]);
        self.idx = idx;
        self.val = val;
    }

    /// Encode as a `Vec<f32>` message: `[len, nnz, idx..., val...]`,
    /// integers bit-cast.
    pub fn encode(&self) -> Vec<f32> {
        let nnz = self.idx.len();
        let mut out = Vec::with_capacity(2 + 2 * nnz);
        out.push(f32::from_bits(self.len));
        out.push(f32::from_bits(nnz as u32));
        out.extend(self.idx.iter().map(|&i| f32::from_bits(i)));
        out.extend_from_slice(&self.val);
        out
    }

    /// Decode and validate an [`encode`](SparseVec::encode)d message.
    pub fn decode(buf: &[f32]) -> Result<Self, CommError> {
        let bad = |reason| CommError::Malformed {
            frame: "sparse",
            reason,
        };
        let [len, nnz, body @ ..] = buf else {
            return Err(bad("shorter than its header"));
        };
        let (len, nnz) = (len.to_bits(), nnz.to_bits());
        if body.len() as u64 != 2 * u64::from(nnz) {
            return Err(bad("nnz disagrees with the payload length"));
        }
        let (idx, val) = body.split_at(body.len() / 2);
        let idx: Vec<u32> = idx.iter().map(|v| v.to_bits()).collect();
        match index_fault(&idx, len) {
            Some(reason) => Err(bad(reason)),
            None => Ok(SparseVec {
                len,
                idx,
                val: val.to_vec(),
            }),
        }
    }
}

/// A sparse vector with 8-bit quantized values: the composed
/// sparsify+quantize wire codec. Values are `q·scale` for integer
/// `q ∈ [-127, 127]`; the scale travels in the frame (it is *not*
/// recoverable from the quantized values, so it must be explicit).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec8 {
    /// Dense length.
    pub len: u32,
    /// Quantization step.
    pub scale: f32,
    /// Strictly increasing coordinate indices.
    pub idx: Vec<u32>,
    /// Quantized values, parallel to `idx`.
    pub q: Vec<i8>,
}

impl SparseVec8 {
    /// Wrap a sparse vector whose values already sit exactly on the
    /// `q·scale` grid (the compressor quantized them). Debug builds
    /// assert the grid property: `round(v/scale)·scale` must reproduce
    /// `v` bit-for-bit, which is what makes the codec lossless on the
    /// wire.
    pub fn from_scaled(sv: &SparseVec, scale: f32) -> Self {
        let q = sv
            .val
            .iter()
            .map(|&v| {
                let q = (v / scale).round();
                debug_assert!(q.abs() <= 127.0, "value {v} off the 8-bit grid");
                debug_assert_eq!(
                    (q * scale).to_bits(),
                    v.to_bits(),
                    "value {v} not exactly q·scale"
                );
                // lint:allow(float-cast): |q| ≤ 127 by the grid property.
                q as i8
            })
            .collect();
        SparseVec8 {
            len: sv.len,
            scale,
            idx: sv.idx.clone(),
            q,
        }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Dequantize to the f32 sparse form: `q·scale` per entry, with
    /// `q = 0` reconstructing canonical `+0.0`.
    pub fn to_sparse(&self) -> SparseVec {
        let val = self
            .q
            .iter()
            .map(|&q| {
                if q == 0 {
                    0.0
                } else {
                    f32::from(q) * self.scale
                }
            })
            .collect();
        SparseVec {
            len: self.len,
            idx: self.idx.clone(),
            val,
        }
    }

    /// Encode as a `Vec<f32>` message: `[len, nnz, scale, idx...,
    /// q-packed...]` with four `i8` per `f32` slot (bit-cast via `u32`
    /// little-endian packing).
    pub fn encode(&self) -> Vec<f32> {
        let nnz = self.idx.len();
        let mut out = Vec::with_capacity(sparse8_frame_elements(nnz));
        out.push(f32::from_bits(self.len));
        out.push(f32::from_bits(nnz as u32));
        out.push(self.scale);
        out.extend(self.idx.iter().map(|&i| f32::from_bits(i)));
        for chunk in self.q.chunks(4) {
            let mut bytes = [0u8; 4];
            for (b, &qv) in bytes.iter_mut().zip(chunk) {
                *b = qv as u8;
            }
            out.push(f32::from_bits(u32::from_le_bytes(bytes)));
        }
        out
    }

    /// Decode and validate an [`encode`](SparseVec8::encode)d message.
    pub fn decode(buf: &[f32]) -> Result<Self, CommError> {
        let bad = |reason| CommError::Malformed {
            frame: "sparse8",
            reason,
        };
        let [len, nnz, scale, body @ ..] = buf else {
            return Err(bad("shorter than its header"));
        };
        let (len, nnz, scale) = (len.to_bits(), u64::from(nnz.to_bits()), *scale);
        if body.len() as u64 != nnz + nnz.div_ceil(4) {
            return Err(bad("nnz disagrees with the payload length"));
        }
        // nnz ≤ body.len() by the check above, so it fits a usize.
        let (idx, packed) = body.split_at(nnz as usize);
        let idx: Vec<u32> = idx.iter().map(|v| v.to_bits()).collect();
        if let Some(reason) = scale_fault(scale).or_else(|| index_fault(&idx, len)) {
            return Err(bad(reason));
        }
        let q = packed
            .iter()
            .flat_map(|w| w.to_bits().to_le_bytes())
            .map(|b| b as i8)
            .take(idx.len())
            .collect();
        Ok(SparseVec8 { len, scale, idx, q })
    }
}

/// One tree level's wire traffic, summed over messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Messages sent at this level.
    pub messages: u64,
    /// Sparse entries carried, summed over the level's messages.
    pub nnz: u64,
    /// `f32` elements on the wire, summed over the level's messages.
    pub elements: u64,
}

/// Per-level wire profile of a sparse tree allreduce: levels `0..d-1`
/// are the reduce sends at bits `1, 2, 4, …` (so level = depth of the
/// sender's subtree), and level `d = ⌈log₂ p⌉` is the result broadcast.
/// Index-union growth with depth shows up directly as rising
/// `nnz/messages` across levels; a union-bounded tree stays flat.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseLevelProfile {
    /// Per-level stats, indexed by tree level.
    pub levels: Vec<LevelStats>,
}

impl SparseLevelProfile {
    /// Accumulate `messages` messages carrying `nnz` total entries in
    /// `elements` total wire elements at `level`.
    pub fn record(&mut self, level: usize, messages: u64, nnz: u64, elements: u64) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, LevelStats::default());
        }
        let s = &mut self.levels[level];
        s.messages += messages;
        s.nnz += nnz;
        s.elements += elements;
    }

    /// Fold another profile (e.g. another rank's or another round's)
    /// into this one.
    pub fn merge(&mut self, other: &SparseLevelProfile) {
        for (level, s) in other.levels.iter().enumerate() {
            self.record(level, s.messages, s.nnz, s.elements);
        }
    }

    /// Total wire elements across all levels.
    pub fn total_elements(&self) -> u64 {
        self.levels.iter().map(|s| s.elements).sum()
    }

    /// Total messages across all levels.
    pub fn total_messages(&self) -> u64 {
        self.levels.iter().map(|s| s.messages).sum()
    }
}

/// Options for [`sparse_allreduce_tree`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SparseTreeOpts {
    /// Re-TopK every merged partial down to this many entries, folding
    /// the trimmed mass into the spill. `None` = unbounded: partials
    /// grow toward the index union and nothing spills.
    pub union_bound: Option<usize>,
    /// When set, leaf-level sends (a rank's own un-merged contribution,
    /// which the compressor placed exactly on this `q·scale` grid) ship
    /// as [`SparseVec8`] frames. Merged partials are arbitrary f32 sums
    /// and always ship as plain [`SparseVec`] frames. All ranks must
    /// agree on `Some`/`None` (the scale itself is per-rank and travels
    /// in the frame).
    pub q8_scale: Option<f32>,
}

/// Trim `sv` in place to its `bound` largest-magnitude entries (NaN
/// ranks as +∞; ties break toward the lower index), returning the
/// trimmed-off entries as a sparse remainder for the caller's residual.
fn trim_to_bound(sv: &mut SparseVec, bound: usize) -> SparseVec {
    let nnz = sv.idx.len();
    if nnz <= bound {
        return SparseVec::empty(sv.len);
    }
    let mut order: Vec<usize> = (0..nnz).collect();
    order.sort_by(|&a, &b| {
        trim_mag(sv.val[b])
            .total_cmp(&trim_mag(sv.val[a]))
            .then(sv.idx[a].cmp(&sv.idx[b]))
    });
    let mut keep = vec![false; nnz];
    for &e in &order[..bound] {
        keep[e] = true;
    }
    let mut kept_idx = Vec::with_capacity(bound);
    let mut kept_val = Vec::with_capacity(bound);
    let mut rest_idx = Vec::with_capacity(nnz - bound);
    let mut rest_val = Vec::with_capacity(nnz - bound);
    for (e, &kept) in keep.iter().enumerate() {
        if kept {
            kept_idx.push(sv.idx[e]);
            kept_val.push(sv.val[e]);
        } else {
            rest_idx.push(sv.idx[e]);
            rest_val.push(sv.val[e]);
        }
    }
    let rest = SparseVec {
        len: sv.len,
        idx: rest_idx,
        val: rest_val,
    };
    sv.idx = kept_idx;
    sv.val = kept_val;
    rest
}

/// Decode a frame received for a reduction over `len`-element vectors:
/// a [`SparseVec8`] leaf frame when `q8`, a plain [`SparseVec`] otherwise.
/// A sender that disagrees on the dense length is malformed too —
/// [`SparseVec::add_assign`] would otherwise hit its assert.
fn decode_part(buf: &[f32], q8: bool, len: u32) -> Result<SparseVec, CommError> {
    let part = if q8 {
        SparseVec8::decode(buf)?.to_sparse()
    } else {
        SparseVec::decode(buf)?
    };
    if part.len != len {
        return Err(CommError::Malformed {
            frame: "sparse",
            reason: "dense length differs from the receiver's",
        });
    }
    Ok(part)
}

/// The sparse tree's [`Fold`]: partials travel encoded, `O(nnz)` wire
/// elements per hop, and merge by [`SparseVec::add_assign`]. Leaf sends
/// ship as [`SparseVec8`] frames when [`SparseTreeOpts::q8_scale`] is set;
/// with a union bound, every merged partial is re-TopK'd and the trimmed
/// mass lands in [`SparseFold::spill`]. Sends up are profiled at the
/// sender, the way down once at the root (all its copies), so merging all
/// ranks' profiles counts every message exactly once. The profile counts
/// the codec's frames, not the mask an armed walk prefixes.
pub struct SparseFold<'a> {
    sv: &'a mut SparseVec,
    opts: SparseTreeOpts,
    profile: &'a mut SparseLevelProfile,
    /// The mass this rank's trims removed from partial sums, which the
    /// caller folds into its error-feedback residual.
    pub spill: SparseVec,
    /// The encoded total, once sealed or adopted.
    total: Vec<f32>,
}

impl<'a> SparseFold<'a> {
    /// Fold `sv` under `opts`, recording wire stats into `profile`.
    pub fn new(
        sv: &'a mut SparseVec,
        opts: SparseTreeOpts,
        profile: &'a mut SparseLevelProfile,
    ) -> Self {
        SparseFold {
            spill: SparseVec::empty(sv.len),
            sv,
            opts,
            profile,
            total: Vec::new(),
        }
    }
}

impl Fold for SparseFold<'_> {
    fn up(&mut self, level: u32, head: &[f32]) -> Vec<f32> {
        let frame = match self.opts.q8_scale {
            Some(scale) if level == 0 => SparseVec8::from_scaled(self.sv, scale).encode(),
            _ => self.sv.encode(),
        };
        let (nnz, elements) = (self.sv.nnz() as u64, frame.len() as u64);
        self.profile.record(level as usize, 1, nnz, elements);
        prefixed(head, frame)
    }

    fn merge(&mut self, _from: usize, level: u32, frame: Vec<f32>, at: usize) -> Wire {
        let q8 = level == 0 && self.opts.q8_scale.is_some();
        self.sv
            .add_assign(&decode_part(&frame[at..], q8, self.sv.len)?);
        if let Some(bound) = self.opts.union_bound {
            let trimmed = trim_to_bound(self.sv, bound);
            self.spill.add_assign(&trimmed);
        }
        Ok(())
    }

    fn seal(&mut self, level: usize, copies: usize) {
        self.total = self.sv.encode();
        let msgs = copies as u64;
        let (nnz, elements) = (self.sv.nnz() as u64, self.total.len() as u64);
        self.profile
            .record(level, msgs, msgs * nnz, msgs * elements);
    }

    fn adopt(&mut self, _from: usize, frame: Vec<f32>, at: usize) -> Wire {
        *self.sv = decode_part(&frame[at..], false, self.sv.len)?;
        self.total = frame;
        Ok(())
    }

    fn copy(&mut self) -> Vec<f32> {
        self.total.clone()
    }
}

/// Sparse allreduce (sum) over all of `comm`'s ranks, through
/// [`SparseFold`]: every rank returns with the full sparse sum in `sv` and
/// its *spill*, which the caller must fold into its error-feedback residual
/// so nothing is lost. With default [`SparseTreeOpts`] the spill is empty
/// and the sums are bitwise the dense tree's over the densified inputs.
///
/// A frame that fails validation is a [`CommError::Malformed`]; `sv` then
/// still holds what this rank had accumulated before the bad frame.
pub fn sparse_allreduce_tree<T: Transport>(
    comm: &mut T,
    sv: &mut SparseVec,
    opts: SparseTreeOpts,
    profile: &mut SparseLevelProfile,
) -> Result<SparseVec, CommError> {
    let all = Membership::new(comm.size());
    let mut fold = SparseFold::new(sv, opts, profile);
    walk(comm, &all, &mut fold)?;
    Ok(fold.spill)
}

/// The sparse tree under its former name, kept for its one caller,
/// `benchmark/src/adapter.rs`.
#[doc(hidden)]
pub use self::sparse_allreduce_tree as sparse_allreduce_tree_v2;

/// Encode an `m`-element dense vector whose entries sit exactly on the
/// `q·scale` grid as a packed dense frame `[len, scale, q-packed...]`
/// (four `i8` per `f32` slot). Debug builds assert the grid property.
pub(crate) fn dense8_encode(v: &[f32], scale: f32) -> Vec<f32> {
    // lint:allow(comm-unwrap): the sender's own vector, not wire input.
    assert!(v.len() <= u32::MAX as usize, "vector too long for wire");
    let mut out = Vec::with_capacity(dense8_frame_elements(v.len()));
    out.push(f32::from_bits(v.len() as u32));
    out.push(scale);
    for chunk in v.chunks(4) {
        let mut bytes = [0u8; 4];
        for (b, &x) in bytes.iter_mut().zip(chunk) {
            let q = (x / scale).round();
            debug_assert!(q.abs() <= 127.0, "value {x} off the 8-bit grid");
            let rec = if q == 0.0 { 0.0f32 } else { q * scale };
            debug_assert_eq!(rec.to_bits(), x.to_bits(), "value {x} not exactly q·scale");
            // lint:allow(float-cast): |q| ≤ 127 by the grid property.
            *b = (q as i8) as u8;
        }
        out.push(f32::from_bits(u32::from_le_bytes(bytes)));
    }
    out
}

/// Decode and validate a [`dense8_encode`]d frame for a receiver holding
/// `m` elements, back to the dense `q·scale` vector (`q = 0`
/// reconstructing canonical `+0.0`).
pub(crate) fn dense8_decode(buf: &[f32], m: usize) -> Result<Vec<f32>, CommError> {
    let bad = |reason| CommError::Malformed {
        frame: "dense8",
        reason,
    };
    let [len, scale, body @ ..] = buf else {
        return Err(bad("shorter than its header"));
    };
    if len.to_bits() as usize != m {
        return Err(bad("dense length differs from the receiver's"));
    }
    if body.len() != m.div_ceil(4) {
        return Err(bad("length disagrees with the payload length"));
    }
    if let Some(reason) = scale_fault(*scale) {
        return Err(bad(reason));
    }
    let dequantize = |b: u8| match b as i8 {
        0 => 0.0,
        q => f32::from(q) * scale,
    };
    let bytes = body.iter().flat_map(|w| w.to_bits().to_le_bytes());
    Ok(bytes.map(dequantize).take(m).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce_tree, Dense};
    use crate::tree::{tag, walk};

    /// The dense tree with 8-bit leaf frames on the `scale` grid.
    fn q8_allreduce_tree<T: Transport>(comm: &mut T, v: &mut Vec<f32>, scale: f32) -> Wire {
        let all = Membership::new(comm.size());
        walk(comm, &all, &mut Dense::new(v, Some(scale)))
    }
    use crate::world::{CommWorld, Communicator};
    use std::thread;

    fn run_world<T: Send>(p: usize, f: impl Fn(&mut Communicator) -> T + Sync) -> Vec<T> {
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    let f = &f;
                    s.spawn(move || f(&mut c))
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank thread"));
            }
        });
        out.into_iter().map(|o| o.expect("result")).collect()
    }

    /// The unbounded f32 tree: no profile kept, and the spill must be empty.
    fn plain_allreduce(c: &mut Communicator, sv: &mut SparseVec) {
        let mut profile = SparseLevelProfile::default();
        let spill = sparse_allreduce_tree(c, sv, SparseTreeOpts::default(), &mut profile)
            .expect("sparse allreduce");
        assert_eq!(spill.nnz(), 0, "unbounded tree spills nothing");
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = vec![0.0f32, -1.5, 0.0, 3.25, 0.0, 1e-30];
        let sv = SparseVec::from_dense(&v);
        assert_eq!(sv.nnz(), 3);
        let back = SparseVec::decode(&sv.encode()).expect("own encoding");
        assert_eq!(back, sv);
        assert_eq!(back.to_dense(), v);
    }

    #[test]
    fn merge_matches_dense_addition() {
        let a = vec![1.0f32, 0.0, 2.0, 0.0];
        let b = vec![0.5f32, -1.0, 0.0, 0.0];
        let mut sa = SparseVec::from_dense(&a);
        sa.add_assign(&SparseVec::from_dense(&b));
        let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(sa.to_dense(), want);
    }

    #[test]
    fn cancelling_sum_keeps_entry() {
        let mut a = SparseVec::from_dense(&[2.0f32, 0.0]);
        a.add_assign(&SparseVec::from_dense(&[-2.0f32, 0.0]));
        assert_eq!(a.nnz(), 1, "exact-zero sums stay represented");
        assert_eq!(a.to_dense(), vec![0.0, 0.0]);
    }

    #[test]
    fn sparse_allreduce_equals_dense_allreduce_bitwise() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let m = 17;
            // Rank r contributes a sparse vector touching every third
            // coordinate offset by r.
            let input = |r: usize| -> Vec<f32> {
                (0..m)
                    .map(|j| {
                        if (j + r).is_multiple_of(3) {
                            (r as f32 + 1.0) * 0.1 + j as f32
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let dense = run_world(p, |c| {
                let mut v = input(c.rank());
                allreduce_tree(c, &mut v).expect("allreduce");
                v
            });
            let sparse = run_world(p, |c| {
                let mut sv = SparseVec::from_dense(&input(c.rank()));
                plain_allreduce(c, &mut sv);
                sv.to_dense()
            });
            for (d, s) in dense.iter().zip(&sparse) {
                for (a, b) in d.iter().zip(s) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
                }
            }
        }
    }

    #[test]
    fn sparse_wire_traffic_shrinks() {
        let p = 4;
        let m = 1000usize;
        // 10 nonzeros per rank → sparse messages ≪ dense m.
        let dense_elems = {
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let mut v = vec![0.0f32; m];
                        for j in 0..10 {
                            v[j * 97 % m] = c.rank() as f32 + 1.0;
                        }
                        allreduce_tree(&mut c, &mut v).expect("allreduce");
                    });
                }
            });
            traffic.elements_sent()
        };
        let sparse_elems = {
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let mut v = vec![0.0f32; m];
                        for j in 0..10 {
                            v[j * 97 % m] = c.rank() as f32 + 1.0;
                        }
                        let mut sv = SparseVec::from_dense(&v);
                        plain_allreduce(&mut c, &mut sv);
                    });
                }
            });
            traffic.elements_sent()
        };
        assert!(
            sparse_elems * 10 < dense_elems,
            "sparse {sparse_elems} vs dense {dense_elems}"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let mut a = SparseVec::from_dense(&[1.0f32]);
        a.add_assign(&SparseVec::from_dense(&[1.0f32, 2.0]));
    }

    /// A sparse vector whose values sit exactly on the `q·scale` grid.
    fn grid_vector(m: usize, scale: f32, seed: usize) -> SparseVec {
        let mut v = vec![0.0f32; m];
        for j in 0..(m / 3) {
            let q = ((seed + 3 * j) % 255) as i32 - 127;
            if q != 0 {
                v[(seed + 7 * j) % m] = q as f32 * scale;
            }
        }
        SparseVec::from_dense(&v)
    }

    #[test]
    fn sparse8_round_trip_is_bitwise_for_grid_values() {
        let sv = grid_vector(97, 0.03125, 5);
        let q8 = SparseVec8::from_scaled(&sv, 0.03125);
        let enc = q8.encode();
        assert_eq!(enc.len(), sparse8_frame_elements(sv.nnz()));
        let back = SparseVec8::decode(&enc).expect("own encoding");
        assert_eq!(back, q8);
        let rec = back.to_sparse();
        assert_eq!(rec.idx, sv.idx);
        for (a, b) in rec.val.iter().zip(&sv.val) {
            assert_eq!(a.to_bits(), b.to_bits(), "grid values survive the wire");
        }
    }

    #[test]
    fn trim_keeps_largest_and_returns_the_rest() {
        let mut sv = SparseVec::from_dense(&[1.0f32, -4.0, 0.5, 3.0, -2.0]);
        let rest = trim_to_bound(&mut sv, 2);
        assert_eq!(sv.idx, vec![1, 3], "largest magnitudes survive");
        assert_eq!(rest.idx, vec![0, 2, 4], "trimmed mass is handed back");
        assert_eq!(rest.val, vec![1.0, 0.5, -2.0]);
        // Under the bound: no-op, empty remainder.
        let rest = trim_to_bound(&mut sv, 5);
        assert_eq!(rest.nnz(), 0);
        assert_eq!(sv.idx, vec![1, 3]);
    }

    /// One sparse allreduce of `inputs` under `opts` on a `p`-rank world:
    /// each rank's `(total, spill)`, the ranks' profiles merged, and the
    /// world's `(elements, messages)` counters.
    fn bounded_run(
        inputs: &[SparseVec],
        opts: SparseTreeOpts,
    ) -> (Vec<(SparseVec, SparseVec)>, SparseLevelProfile, (u64, u64)) {
        let p = inputs.len();
        let mut world = CommWorld::new(p);
        let traffic = world.traffic();
        let comms = world.communicators();
        let ranks: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        let mut sv = inputs[c.rank()].clone();
                        let mut profile = SparseLevelProfile::default();
                        let spill = sparse_allreduce_tree(&mut c, &mut sv, opts, &mut profile)
                            .expect("bounded allreduce");
                        (sv, spill, profile)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        });
        let mut merged = SparseLevelProfile::default();
        let ranks = ranks
            .into_iter()
            .map(|(total, spill, profile)| {
                merged.merge(&profile);
                (total, spill)
            })
            .collect();
        let counters = (traffic.elements_sent(), traffic.messages_sent());
        (ranks, merged, counters)
    }

    /// `Σ inputs == total + Σ spills`, per coordinate and to the bit — for
    /// inputs whose every partial sum is exact in f32.
    fn assert_conserved(inputs: &[SparseVec], ranks: &[(SparseVec, SparseVec)], what: &str) {
        let sum = |vs: &mut dyn Iterator<Item = &SparseVec>| -> Vec<f64> {
            let mut out = vec![0.0f64; inputs[0].len as usize];
            for v in vs {
                for (o, x) in out.iter_mut().zip(v.to_dense()) {
                    *o += f64::from(x);
                }
            }
            out
        };
        let input = sum(&mut inputs.iter());
        let delivered = sum(&mut ranks[..1].iter().map(|r| &r.0));
        let spilled = sum(&mut ranks.iter().map(|r| &r.1));
        for (j, (i, (d, s))) in input.iter().zip(delivered.iter().zip(&spilled)).enumerate() {
            assert_eq!(d + s, *i, "{what}: coordinate {j} lost mass");
        }
    }

    #[test]
    fn bounded_q8_tree_agrees_conserves_and_profiles_its_traffic() {
        // q8 leaf frames + union bound, p across tree shapes: every rank
        // ends with one total, total + spills conserve the inputs (grid
        // values sum exactly), merged partials respect the bound, and the
        // merged level profile is exactly what the world's counters saw.
        for p in [2usize, 3, 4, 7, 8] {
            let (m, scale, bound) = (64, 0.03125f32, 6usize);
            let inputs: Vec<SparseVec> = (0..p).map(|r| grid_vector(m, scale, r + 1)).collect();
            let opts = SparseTreeOpts {
                union_bound: Some(bound),
                q8_scale: Some(scale),
            };
            let (ranks, profile, (elements, messages)) = bounded_run(&inputs, opts);
            for (r, (total, _)) in ranks.iter().enumerate() {
                assert_eq!(total, &ranks[0].0, "p={p}: rank {r}'s total");
            }
            assert!(
                ranks[0].0.nnz() <= bound,
                "p={p}: the total is a merged partial"
            );
            assert_conserved(&inputs, &ranks, &format!("p={p}"));
            // At a power-of-two p every send above level 0 carries a merged
            // partial (elsewhere a childless member sends its own input
            // at a higher level).
            let merged = profile.levels.iter().enumerate().skip(1);
            for (level, s) in merged.filter(|_| p.is_power_of_two()) {
                assert!(
                    s.nnz <= s.messages * bound as u64,
                    "p={p} level {level}: {s:?}"
                );
            }
            assert_eq!(
                (profile.total_elements(), profile.total_messages()),
                (elements, messages),
                "p={p}: the profile counts the wire"
            );
        }
    }

    /// f32 frames, merged partials re-TopK'd to `bound` entries.
    fn bounded(bound: usize) -> SparseTreeOpts {
        SparseTreeOpts {
            union_bound: Some(bound),
            q8_scale: None,
        }
    }

    #[test]
    fn bounded_tree_conserves_mass_exactly() {
        // Integer-valued contributions: every sum is exact in f32, so
        // delivered + spilled must equal the input mass to the bit.
        let p = 4;
        let m = 32;
        let inputs: Vec<SparseVec> = (0..p)
            .map(|r| {
                let mut v = vec![0.0f32; m];
                for j in 0..12 {
                    v[(r * 5 + j * 3) % m] = (r + 1) as f32 * (j + 1) as f32;
                }
                SparseVec::from_dense(&v)
            })
            .collect();
        let (ranks, _, _) = bounded_run(&inputs, bounded(5));
        assert!(ranks[0].0.nnz() <= 5, "delivered vector respects the bound");
        assert!(
            ranks.iter().any(|(_, spill)| spill.nnz() > 0),
            "the bound trims"
        );
        assert_conserved(
            &inputs,
            &ranks,
            "no mass is silently lost by union-bound trimming",
        );
    }

    #[test]
    fn union_bound_keeps_per_message_nnz_flat_across_levels() {
        // Disjoint index sets per rank: the worst case for union growth.
        let p = 8;
        let m = 4096;
        let per_rank = 16usize;
        let inputs = |r: usize| {
            let mut v = vec![0.0f32; m];
            for j in 0..per_rank {
                v[r * 512 + j * 7] = (r + 1) as f32;
            }
            SparseVec::from_dense(&v)
        };
        let svs: Vec<SparseVec> = (0..p).map(inputs).collect();
        let (_, unbounded, _) = bounded_run(&svs, SparseTreeOpts::default());
        let leaf = &unbounded.levels[0];
        let deepest = &unbounded.levels[2];
        assert!(
            deepest.nnz * leaf.messages > 2 * leaf.nnz * deepest.messages,
            "unbounded per-message nnz must grow with depth: {unbounded:?}"
        );
        let (ranks, flat, _) = bounded_run(&svs, bounded(per_rank));
        for (level, s) in flat.levels.iter().enumerate() {
            assert!(
                s.nnz <= s.messages * per_rank as u64,
                "level {level} exceeds the union bound: {s:?}"
            );
        }
        assert_eq!(
            ranks[0].0.nnz(),
            per_rank,
            "delivered vector is at the bound"
        );
        assert!(
            ranks.iter().map(|(_, spill)| spill.nnz()).sum::<usize>() > 0,
            "trimmed mass lands in the spills"
        );
    }

    #[test]
    fn malformed_frames_are_typed_errors_and_leave_the_partial_untouched() {
        use crate::mock::mock_world;

        /// The decoder a frame reaches: rank 0 receiving rank 1's reduce
        /// frame (f32 sparse, 8-bit sparse, 8-bit dense), or rank 1
        /// receiving rank 0's result broadcast.
        #[derive(Clone, Copy, Debug)]
        enum Lane {
            Sparse,
            Sparse8,
            Dense8,
            Result,
        }
        use Lane::{Dense8, Result, Sparse, Sparse8};

        // The receiver's own contribution: m = 8, on the 0.25 grid.
        let own_dense = [0.0f32, 0.5, 0.0, 0.0, -0.25, 0.0, 0.0, 1.0];
        let own = SparseVec::from_dense(&own_dense);
        let opts = |q8_scale| SparseTreeOpts {
            union_bound: None,
            q8_scale,
        };
        // Feed `frame` to the lane's decoder through the real collective;
        // a rejected frame must leave the receiver's buffer as it was.
        let run = |lane: Lane, frame: Vec<f32>| {
            let mut world = mock_world(2).into_iter();
            let mut r0 = world.next().expect("rank 0");
            let mut r1 = world.next().expect("rank 1");
            let mut profile = SparseLevelProfile::default();
            let (mut sv, mut v) = (own.clone(), own_dense.to_vec());
            let out = if let Result = lane {
                let (_reduce, bcast) = (r0.next_op(), r0.next_op());
                r0.send(1, tag(bcast, 0), frame).expect("send");
                sparse_allreduce_tree(&mut r1, &mut sv, opts(None), &mut profile).map(drop)
            } else {
                let reduce = r1.next_op();
                r1.send(0, tag(reduce, 1), frame).expect("send");
                match lane {
                    Dense8 => q8_allreduce_tree(&mut r0, &mut v, 0.25),
                    Sparse8 => {
                        sparse_allreduce_tree(&mut r0, &mut sv, opts(Some(0.25)), &mut profile)
                            .map(drop)
                    }
                    _ => {
                        sparse_allreduce_tree(&mut r0, &mut sv, opts(None), &mut profile).map(drop)
                    }
                }
            };
            if out.is_err() {
                assert_eq!(sv, own, "{lane:?}: sparse partial untouched");
                assert_eq!(v, own_dense, "{lane:?}: dense partial untouched");
            }
            out
        };

        let u = f32::from_bits;
        let good = |lane| match lane {
            Sparse | Result => own.encode(),
            Sparse8 => SparseVec8::from_scaled(&own, 0.25).encode(),
            Dense8 => dense8_encode(&own_dense, 0.25),
        };
        let set = |lane, at: usize, word: f32| {
            let mut frame = good(lane);
            frame[at] = word;
            frame
        };
        // `good(lane)` with its index lane (own's is [1, 4, 7]) replaced.
        let with_idx = |lane, idx: [u32; 3]| {
            let mut frame = good(lane);
            let at = if let Sparse8 = lane { 3 } else { 2 };
            for (slot, i) in frame[at..at + 3].iter_mut().zip(idx) {
                *slot = u(i);
            }
            frame
        };
        let mut corpus: Vec<(&str, Lane, Vec<f32>)> = Vec::new();
        for lane in [Sparse, Sparse8, Dense8, Result] {
            assert_eq!(run(lane, good(lane)), Ok(()), "{lane:?}: the control frame");
            let whole = good(lane);
            corpus.push(("empty", lane, Vec::new()));
            corpus.push(("one element", lane, vec![u(8)]));
            corpus.push(("truncated", lane, whole[..whole.len() - 1].to_vec()));
            corpus.push(("one word too long", lane, [whole, vec![0.0]].concat()));
            corpus.push(("len != receiver's", lane, set(lane, 0, u(9))));
        }
        for lane in [Sparse, Sparse8, Result] {
            corpus.push(("nnz > payload", lane, set(lane, 1, u(4))));
            corpus.push(("nnz < payload", lane, set(lane, 1, u(2))));
            corpus.push(("nnz = u32::MAX", lane, set(lane, 1, u(u32::MAX))));
            corpus.push(("index >= len", lane, with_idx(lane, [1, 4, 8])));
            corpus.push(("unsorted indices", lane, with_idx(lane, [4, 1, 7])));
            corpus.push(("duplicate indices", lane, with_idx(lane, [1, 1, 7])));
        }
        for (lane, at) in [(Sparse8, 2), (Dense8, 1)] {
            for scale in [f32::NAN, f32::INFINITY, 0.0, -0.25] {
                corpus.push(("unusable scale", lane, set(lane, at, scale)));
            }
        }
        for (what, lane, frame) in corpus {
            let out = run(lane, frame);
            assert!(
                matches!(out, Err(CommError::Malformed { .. })),
                "{lane:?} / {what}: {out:?}"
            );
        }

        // A merged (dense f32) partial of the wrong length, which only a
        // rank with a grandchild receives: rank 0 of three.
        let mut world = mock_world(3).into_iter();
        let mut r0 = world.next().expect("rank 0");
        for mut peer in world {
            let reduce = peer.next_op();
            let frame = match peer.rank() {
                1 => good(Dense8),
                _ => vec![0.0; 7],
            };
            peer.send(0, tag(reduce, 1), frame).expect("send");
        }
        let mut v = own_dense.to_vec();
        let out = q8_allreduce_tree(&mut r0, &mut v, 0.25);
        let bad_len = CommError::MalformedLength {
            peer: 2,
            expected: 8,
            got: 7,
        };
        assert_eq!(out, Err(bad_len));
        let after_leaf: Vec<f32> = own_dense.iter().map(|x| x + x).collect();
        assert_eq!(v, after_leaf, "keeps what it had accumulated");
    }

    /// A dense vector on rank `r`'s own `q·scale` grid.
    fn grid_dense(m: usize, scale: f32, seed: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; m];
        for (j, slot) in v.iter_mut().enumerate() {
            let q = ((seed + 5 * j) % 255) as i32 - 127;
            if q != 0 {
                *slot = q as f32 * scale;
            }
        }
        v
    }

    #[test]
    fn dense8_frame_round_trip_is_bitwise() {
        for m in [0usize, 1, 3, 4, 17] {
            let v = grid_dense(m, 0.0625, 2);
            let enc = dense8_encode(&v, 0.0625);
            assert_eq!(enc.len(), dense8_frame_elements(m));
            assert_eq!(dense8_decode(&enc, m).expect("own encoding"), v, "m={m}");
        }
    }

    #[test]
    fn q8_allreduce_matches_dense_allreduce_bitwise() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let m = 23;
            let dense = run_world(p, |c| {
                let mut v = grid_dense(m, 0.0625, c.rank() + 1);
                allreduce_tree(c, &mut v).expect("allreduce");
                v
            });
            let q8 = run_world(p, |c| {
                let mut v = grid_dense(m, 0.0625, c.rank() + 1);
                q8_allreduce_tree(c, &mut v, 0.0625).expect("q8 allreduce");
                v
            });
            for (d, s) in dense.iter().zip(&q8) {
                for (a, b) in d.iter().zip(s) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
                }
            }
        }
    }

    #[test]
    fn q8_allreduce_wire_traffic_is_exactly_modeled() {
        // p=4 tree: two leaf senders (ranks 1, 3) ship packed frames, one
        // internal sender (rank 2) ships dense, broadcast ships 3 dense.
        let p = 4;
        let m = 1000usize;
        let mut world = CommWorld::new(p);
        let traffic = world.traffic();
        let comms = world.communicators();
        thread::scope(|s| {
            for mut c in comms {
                s.spawn(move || {
                    let mut v = grid_dense(m, 0.125, c.rank() + 1);
                    q8_allreduce_tree(&mut c, &mut v, 0.125).expect("q8 allreduce");
                });
            }
        });
        let want = (2 * dense8_frame_elements(m) + m + 3 * m) as u64;
        assert_eq!(traffic.elements_sent(), want);
        assert!(want < (2 * (p - 1) * m) as u64, "beats the dense tree");
    }
}
