//! Compressed KV tier: SLERP cluster merging plus integer quantization
//! (DESIGN.md §9).
//!
//! ClusterKV's recallable compression selects *which* KV participates in
//! attention but never shrinks the bytes a cluster occupies. This module adds
//! the third residency state between Resident and Paged:
//!
//! * **Cluster merging** — semantically-near key/value pairs inside one
//!   cluster are merged into a single SLERP interpolant (the MiniCache /
//!   SemantiCache observation that adjacent-layer and intra-cluster KV are
//!   highly similar). A retention mask keeps outlier tokens — pairs whose
//!   cosine similarity falls below the merge threshold — exact.
//! * **Cold-page quantization** — merged-or-retained vectors are stored as
//!   int8 (or int4) with one symmetric per-cluster scale per tensor, as in
//!   "Lossless KV Cache Compression to 2%". The f16 cost model makes int8 a
//!   2x and int4 a 4x data reduction before merging.
//!
//! A [`CompressedPage`] holds exactly that: integer codes (one byte per
//! value for int8, two values per byte for int4), the two scales, a merged
//! pair's interpolant once, and the retention mask — built **once** per
//! page by [`compress_page`] and sealed over those bytes. Attention reads it
//! through [`CompressedPage::dequantize_into`], which writes the grid point
//! `code · scale / qmax` of every requested member straight into the
//! caller's rows. With [`CompressionConfig::is_lossless`] (merge threshold
//! `0`, quantization off) a page is an exact copy and compressed bytes equal
//! exact bytes — the property every parity suite leans on.

use crate::cluster_cache::PageKey;
use crate::types::Bytes;
use clusterkv_faults::Fnv64;
use clusterkv_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Integer width used for cold-page KV storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantMode {
    /// No quantization: cold pages stay f16 (the exact cost model).
    #[default]
    Off,
    /// Symmetric int8 with one per-cluster scale per tensor (2x vs f16).
    Int8,
    /// Symmetric int4 with one per-cluster scale per tensor (4x vs f16).
    Int4,
}

impl QuantMode {
    /// Bits per stored value (16 for the f16 exact representation).
    pub fn bits(self) -> u64 {
        match self {
            QuantMode::Off => 16,
            QuantMode::Int8 => 8,
            QuantMode::Int4 => 4,
        }
    }

    /// Largest representable magnitude of the signed integer grid.
    pub fn qmax(self) -> f32 {
        match self {
            QuantMode::Off => 0.0,
            QuantMode::Int8 => 127.0,
            QuantMode::Int4 => 7.0,
        }
    }

    /// Bytes for a run of `values` stored values at this width (int4 packs
    /// two per byte; the odd trailing nibble still occupies a byte). A page
    /// packs row by row, so this is called with the row width.
    pub fn data_bytes(self, values: usize) -> Bytes {
        Bytes((values as u64 * self.bits()).div_ceil(8))
    }

    /// Stable discriminant for config fingerprints.
    pub fn fingerprint(self) -> u64 {
        match self {
            QuantMode::Off => 0,
            QuantMode::Int8 => 1,
            QuantMode::Int4 => 2,
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantMode::Off => write!(f, "f16"),
            QuantMode::Int8 => write!(f, "int8"),
            QuantMode::Int4 => write!(f, "int4"),
        }
    }
}

/// Bytes of the two per-cluster f32 scales (one for K, one for V) a
/// quantized page carries.
const SCALE_OVERHEAD: u64 = 8;

/// Knobs of the compressed tier. The default is **lossless**: merge
/// threshold `0` and quantization off, under which every code path below is
/// the identity and byte accounting equals the exact f16 model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Cosine-distance ceiling for merging a pair of intra-cluster tokens:
    /// a consecutive pair with `1 - cos(k_i, k_j) <= merge_threshold` is
    /// replaced by one SLERP interpolant. `0.0` disables merging entirely
    /// (no pair has distance `<= 0` — identical keys stay exact too, which
    /// is what makes the guarantee a hard one rather than a numerical one).
    pub merge_threshold: f32,
    /// Integer width of cold-page storage.
    pub quant: QuantMode,
}

impl CompressionConfig {
    /// The lossless configuration (the default).
    pub fn lossless() -> Self {
        Self::default()
    }

    /// Int8 cold pages without merging (2x vs f16).
    pub fn int8() -> Self {
        Self {
            merge_threshold: 0.0,
            quant: QuantMode::Int8,
        }
    }

    /// Int4 cold pages without merging (4x vs f16).
    pub fn int4() -> Self {
        Self {
            merge_threshold: 0.0,
            quant: QuantMode::Int4,
        }
    }

    /// Set the merge threshold.
    pub fn with_merge_threshold(mut self, threshold: f32) -> Self {
        self.merge_threshold = threshold;
        self
    }

    /// Whether this configuration is exactly lossless: no merging and no
    /// quantization. Selectors emit recall-exact plans under this config and
    /// the cache never demotes, so token streams stay byte-identical.
    pub fn is_lossless(&self) -> bool {
        self.merge_threshold == 0.0 && self.quant == QuantMode::Off
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: the merge threshold
    /// must be finite and in `[0, 1]` (cosine distance of unit vectors).
    pub fn validate(&self) -> Result<(), String> {
        if !self.merge_threshold.is_finite() {
            return Err("merge_threshold must be finite".to_string());
        }
        if !(0.0..=1.0).contains(&self.merge_threshold) {
            return Err(format!(
                "merge_threshold must be in [0, 1], got {}",
                self.merge_threshold
            ));
        }
        Ok(())
    }

    /// Words folded into config fingerprints (prefix-store compatibility):
    /// two configs share selector state only if they compress identically.
    pub fn fingerprint_words(&self) -> [u64; 2] {
        [
            self.merge_threshold.to_bits() as u64,
            self.quant.fingerprint(),
        ]
    }

    /// Modeled size of a cold page of `tokens` tokens whose exact (f16) cost
    /// is `exact_bytes_per_token` per token: quantized data at the integer
    /// width plus the two per-cluster scales. Merging is data-dependent and
    /// accounted by [`compress_page`], not by this analytic model.
    pub fn page_bytes(&self, tokens: usize, exact_bytes_per_token: Bytes) -> Bytes {
        let exact = Bytes(exact_bytes_per_token.get() * tokens as u64);
        match self.quant {
            QuantMode::Off => exact,
            q => Bytes((exact.get() * q.bits()).div_ceil(16) + SCALE_OVERHEAD),
        }
    }

    /// Whether demoting a page of `tokens` tokens actually shrinks it (the
    /// per-cluster scale overhead can exceed the savings on tiny pages).
    pub fn shrinks(&self, tokens: usize, exact_bytes_per_token: Bytes) -> bool {
        self.page_bytes(tokens, exact_bytes_per_token).get()
            < Bytes(exact_bytes_per_token.get() * tokens as u64).get()
    }
}

impl std::fmt::Display for CompressionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_lossless() {
            write!(f, "lossless")
        } else if self.merge_threshold == 0.0 {
            write!(f, "{}", self.quant)
        } else {
            write!(f, "{}+merge{:.2}", self.quant, self.merge_threshold)
        }
    }
}

/// Cosine similarity of two vectors; `0.0` if either has zero norm.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Spherical interpolation of `a` and `b` at parameter `t` written into
/// `out`: the direction follows the great circle between the two unit
/// vectors, the magnitude interpolates linearly (the MiniCache merge). Falls
/// back to linear interpolation when either vector is zero or the pair is
/// (anti)parallel enough that the spherical weights are ill-conditioned.
pub fn slerp_into(a: &[f32], b: &[f32], t: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let na = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = (1.0 - t) * x + t * y;
        }
        return;
    }
    let cos = (a.iter().zip(b).map(|(&x, &y)| x * y).sum::<f32>() / (na * nb)).clamp(-1.0, 1.0);
    let omega = cos.acos();
    let sin_omega = omega.sin();
    let magnitude = (1.0 - t) * na + t * nb;
    if sin_omega < 1e-6 {
        // (Anti)parallel: the great circle is degenerate; interpolate the
        // unit vectors linearly and rescale.
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            let unit = (1.0 - t) * (x / na) + t * (y / nb);
            *o = unit * magnitude;
        }
        return;
    }
    let wa = (((1.0 - t) * omega).sin() / sin_omega) / na;
    let wb = ((t * omega).sin() / sin_omega) / nb;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (wa * x + wb * y) * magnitude;
    }
}

/// Quantize-dequantize round trip of one value on the symmetric grid
/// `[-qmax, qmax]` with the given scale (`scale == 0` means the whole block
/// is zero and the value passes through). Reference arithmetic only: pages
/// store the integer and [`CompressedPage::dequantize_into`] reads it back.
fn quant_roundtrip(x: f32, scale: f32, qmax: f32) -> f32 {
    if scale == 0.0 {
        return x;
    }
    let q = (x / scale * qmax).round().clamp(-qmax, qmax);
    q * scale / qmax
}

/// Largest absolute value of `rows`, folded into `scale` (the symmetric
/// per-cluster scale is this over every row of the page). Deterministic: a
/// pure reduction over the page contents, never a function of cache or
/// selection state, and — `max` ignoring NaN — independent of row order.
fn fold_max_abs(scale: f32, rows: &[f32]) -> f32 {
    rows.iter().fold(scale, |s, x| s.max(x.abs()))
}

/// The merge + quantize-round-trip of one page in `f32`, as the compressed
/// tier computed it before pages held integer codes — kept as the reference
/// [`compress_page`] + [`CompressedPage::dequantize_into`] are
/// differentially tested and speed-gated against. No serving path calls it.
///
/// Reconstructs rows `members` of `keys` / `values`, writing member slot
/// `i`'s key and value into row `dest_row(i)` of `k_out` / `v_out`. A slot
/// without a destination is written nowhere but still shapes the page: it
/// merges with its neighbour and counts toward the per-page scales, so the
/// rows that *are* written depend only on `(config, membership, stored KV)`.
/// Consecutive members whose keys are within `merge_threshold` cosine
/// distance are both replaced by their SLERP midpoint (values follow the
/// key's decision); what remains is round-tripped through the integer grid
/// with one symmetric scale per tensor. Returns the number of merged pairs.
pub fn reconstruct_page_rows_reference(
    (keys, values): (&Matrix, &Matrix),
    members: &[usize],
    config: CompressionConfig,
    (k_out, v_out): (&mut Matrix, &mut Matrix),
    dest_row: impl Fn(usize) -> Option<usize>,
) -> usize {
    let quantize = config.quant != QuantMode::Off;
    let (mut scale_k, mut scale_v) = (0.0f32, 0.0f32);
    let mut put = |slot: usize, k_row: &[f32], v_row: &[f32]| {
        if quantize {
            scale_k = fold_max_abs(scale_k, k_row);
            scale_v = fold_max_abs(scale_v, v_row);
        }
        if let Some(row) = dest_row(slot) {
            k_out.row_mut(row).copy_from_slice(k_row);
            v_out.row_mut(row).copy_from_slice(v_row);
        }
    };

    let merging = config.merge_threshold > 0.0;
    // One interpolant each for K and V, reused by every merged pair.
    let rep_dim = if merging { keys.cols() } else { 0 };
    let mut rep = vec![0.0f32; 2 * rep_dim];
    let (rep_k, rep_v) = rep.split_at_mut(rep_dim);
    let mut merged_pairs = 0usize;
    let mut i = 0;
    while i < members.len() {
        let (k_i, v_i) = (keys.row(members[i]), values.row(members[i]));
        if merging && i + 1 < members.len() {
            let (k_j, v_j) = (keys.row(members[i + 1]), values.row(members[i + 1]));
            if 1.0 - cosine_similarity(k_i, k_j) <= config.merge_threshold {
                slerp_into(k_i, k_j, 0.5, rep_k);
                slerp_into(v_i, v_j, 0.5, rep_v);
                put(i, rep_k, rep_v);
                put(i + 1, rep_k, rep_v);
                merged_pairs += 1;
                i += 2;
                continue;
            }
        }
        put(i, k_i, v_i);
        i += 1;
    }

    if quantize {
        let qmax = config.quant.qmax();
        for row in (0..members.len()).filter_map(dest_row) {
            for x in k_out.row_mut(row) {
                *x = quant_roundtrip(*x, scale_k, qmax);
            }
            for x in v_out.row_mut(row) {
                *x = quant_roundtrip(*x, scale_v, qmax);
            }
        }
    }
    merged_pairs
}

/// The stored rows of a page: one per retained member, one per merged pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Payload {
    /// [`QuantMode::Off`]: rows stay `f32` (the byte accounting charges
    /// them as f16, like every exact row of the cost model).
    Exact {
        /// Stored key rows, flat.
        keys: Vec<f32>,
        /// Stored value rows, flat.
        values: Vec<f32>,
    },
    /// Integer codes on the symmetric grid `[-qmax, qmax]`: one byte per
    /// value for int8; for int4 two per byte, low nibble first, every row
    /// padded to whole bytes. The one spare two's-complement code
    /// (`-qmax - 1`) stores a negative zero, so a page dequantizes to the
    /// same bits the `f32` round trip produced, sign of zero included.
    Codes {
        /// Width of the codes ([`QuantMode::Int8`] or [`QuantMode::Int4`]).
        quant: QuantMode,
        /// Largest magnitude of the stored key rows, then of the value rows.
        scales: [f32; 2],
        /// Key codes, [`QuantMode::data_bytes`]`(head_dim)` bytes per row.
        keys: Vec<u8>,
        /// Value codes, aligned with `keys`.
        values: Vec<u8>,
    },
}

/// The integer code of `x` on the grid of `scale`: the round trip's grid
/// point `(x / scale · qmax).round()`, kept as the integer it is. A
/// zero scale means every value of the tensor is a zero, which the round
/// trip passed through unchanged — sign included, hence the spare code.
/// Inputs must be finite (KV rows are: finite weights, bounded norms); the
/// grid has no code for a NaN.
fn code_of(x: f32, scale: f32, qmax: f32) -> u8 {
    debug_assert!(x.is_finite(), "KV rows are finite");
    let q = if scale == 0.0 {
        x
    } else {
        (x / scale * qmax).round().clamp(-qmax, qmax)
    };
    if q == 0.0 && q.is_sign_negative() {
        (-(qmax as i8) - 1) as u8
    } else {
        q as i8 as u8
    }
}

/// Codes of flat `rows` of width `dim` under `scale`, in a buffer of
/// exactly their size (pages live as long as their session).
fn encode_rows(quant: QuantMode, rows: &[f32], dim: usize, scale: f32) -> Vec<u8> {
    let qmax = quant.qmax();
    let code = |x: &f32| code_of(*x, scale, qmax);
    let row_bytes = quant.data_bytes(dim).get() as usize;
    let mut codes = Vec::with_capacity(rows.len() / dim.max(1) * row_bytes);
    if quant == QuantMode::Int4 {
        for row in rows.chunks(dim.max(1)) {
            codes.extend(
                row.chunks(2)
                    .map(|pair| code(&pair[0]) & 0xF | pair.get(1).map_or(0, code) << 4),
            );
        }
    } else {
        codes.extend(rows.iter().map(code));
    }
    codes
}

/// Dequantized value of every code of a tensor: entry `c` is the grid point
/// `q · scale / qmax` of the two's-complement code `c` — the arithmetic of
/// [`quant_roundtrip`] on the stored integer `q`, with `-0.0` for the spare
/// code. Int4 fills the first 16 entries.
fn grid(quant: QuantMode, scale: f32) -> [f32; 256] {
    let (bits, qmax) = (quant.bits() as u32, quant.qmax());
    let mut lut = [0.0f32; 256];
    for (code, point) in lut.iter_mut().enumerate().take(1 << bits) {
        let q = (code as i32) << (32 - bits) >> (32 - bits);
        let q = if q < -(qmax as i32) { -0.0 } else { q as f32 };
        *point = q * scale / qmax;
    }
    lut
}

/// Write the grid points of one stored row of codes into `out`.
fn decode_row(quant: QuantMode, lut: &[f32; 256], codes: &[u8], out: &mut [f32]) {
    if quant == QuantMode::Int4 {
        let mut pairs = out.chunks_exact_mut(2);
        for (pair, &byte) in (&mut pairs).zip(codes) {
            pair[0] = lut[usize::from(byte & 0xF)];
            pair[1] = lut[usize::from(byte >> 4)];
        }
        if let ([last], Some(&byte)) = (pairs.into_remainder(), codes.last()) {
            *last = lut[usize::from(byte & 0xF)];
        }
    } else {
        for (x, &byte) in out.iter_mut().zip(codes) {
            *x = lut[usize::from(byte)];
        }
    }
}

/// One tensor of a page, ready to be read row by row. Lives on the stack of
/// one `dequantize_into` call; boxing the grid would allocate there.
#[allow(clippy::large_enum_variant)]
enum StoredRows<'a> {
    /// Unquantized rows, flat.
    Exact(&'a [f32]),
    /// Codes and the grid point of each.
    Codes {
        quant: QuantMode,
        grid: [f32; 256],
        codes: &'a [u8],
    },
}

impl<'a> StoredRows<'a> {
    fn codes(quant: QuantMode, scale: f32, codes: &'a [u8]) -> Self {
        StoredRows::Codes {
            quant,
            grid: grid(quant, scale),
            codes,
        }
    }

    /// Write stored row `stored` into `out`, whose length is the row width.
    fn write(&self, stored: usize, out: &mut [f32]) {
        match self {
            StoredRows::Exact(rows) => {
                out.copy_from_slice(&rows[stored * out.len()..(stored + 1) * out.len()]);
            }
            StoredRows::Codes { quant, grid, codes } => {
                let width = quant.data_bytes(out.len()).get() as usize;
                decode_row(
                    *quant,
                    grid,
                    &codes[stored * width..(stored + 1) * width],
                    out,
                );
            }
        }
    }
}

/// Flip bit `*bit` of `bytes` if it lies inside, else step `*bit` past them.
fn flip_in_bytes(bytes: &mut [u8], bit: &mut u64) -> bool {
    let bits = 8 * bytes.len() as u64;
    if *bit >= bits {
        *bit -= bits;
        return false;
    }
    bytes[(*bit / 8) as usize] ^= 1 << (*bit % 8);
    true
}

/// [`flip_in_bytes`] over the bit patterns of `values`.
fn flip_in_f32s(values: &mut [f32], bit: &mut u64) -> bool {
    let bits = 32 * values.len() as u64;
    if *bit >= bits {
        *bit -= bits;
        return false;
    }
    let x = &mut values[(*bit / 32) as usize];
    *x = f32::from_bits(x.to_bits() ^ 1 << (*bit % 32));
    true
}

/// One compressed page: the stored rows of a cluster's member tokens in
/// their compressed layout, sealed over those bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedPage {
    /// Absolute token positions of the page's members, in page order.
    tokens: Vec<usize>,
    /// Width of a row.
    head_dim: usize,
    /// The stored rows, in member order.
    payload: Payload,
    /// Retention mask, one bit per member slot (bit `i % 8` of byte
    /// `i / 8`): set for members kept exact, clear for the two members of a
    /// merged pair, which are adjacent and share one stored row — so the
    /// mask is also the slot → stored-row map. Empty when merging is
    /// disabled: every member is retained.
    retained: Vec<u8>,
    /// Number of merged pairs (each pair stores one row instead of two).
    merged_pairs: usize,
    /// Footprint of the compressed layout (codes + scales + mask).
    compressed_bytes: Bytes,
    /// Footprint the same members would occupy exact (f16).
    exact_bytes: Bytes,
    /// FNV-1a 64 checksum over member positions and payload, sealed when
    /// the page is built (DESIGN.md §11).
    checksum: u64,
}

impl CompressedPage {
    /// Absolute token positions of the page's members, in page order.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Whether member `slot` is kept exact (`false`: it shares the SLERP
    /// interpolant of a merged pair with its neighbour).
    pub fn is_retained(&self, slot: usize) -> bool {
        self.retained.is_empty() || self.retained[slot / 8] >> (slot % 8) & 1 == 1
    }

    /// Number of merged pairs (each pair stores one row instead of two).
    pub fn merged_pairs(&self) -> usize {
        self.merged_pairs
    }

    /// Footprint of the compressed layout: codes, scales and retention
    /// mask — the length of what the page holds.
    pub fn compressed_bytes(&self) -> Bytes {
        self.compressed_bytes
    }

    /// Footprint the same members would occupy exact (f16).
    pub fn exact_bytes(&self) -> Bytes {
        self.exact_bytes
    }

    /// Compression ratio `exact / compressed`; `0.0` for an empty page.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes.get() == 0 {
            0.0
        } else {
            self.exact_bytes.get() as f64 / self.compressed_bytes.get() as f64
        }
    }

    /// The checksum sealed when the page was built.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// FNV-1a 64 over the member positions and the payload bytes: codes (or
    /// exact row bits), scales and retention mask. Deterministic — a pure
    /// function of the stored data — and every single-bit change of the
    /// input changes it (each FNV step is a bijection of the state).
    pub fn compute_checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.tokens.len() as u64);
        for &t in &self.tokens {
            h.write_u64(t as u64);
        }
        match &self.payload {
            Payload::Exact { keys, values } => {
                h.write_f32s(keys);
                h.write_f32s(values);
            }
            Payload::Codes {
                scales,
                keys,
                values,
                ..
            } => {
                h.write_f32s(scales);
                h.write_bytes(keys);
                h.write_bytes(values);
            }
        }
        h.write_bytes(&self.retained);
        h.finish()
    }

    /// Whether the sealed checksum still matches the payload.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// Number of payload bits [`flip_bit`](Self::flip_bit) addresses.
    fn payload_bits(&self) -> u64 {
        let rows = match &self.payload {
            Payload::Exact { keys, values } => 32 * (keys.len() + values.len()),
            Payload::Codes { keys, values, .. } => 8 * (keys.len() + values.len()) + 64,
        };
        (rows + 8 * self.retained.len()) as u64
    }

    /// Flip payload bit `bit` (key rows, value rows, scales, mask — in that
    /// order). The seal is left as it was, so the page stops verifying.
    fn flip_bit(&mut self, mut bit: u64) {
        let bit = &mut bit;
        let in_rows = match &mut self.payload {
            Payload::Exact { keys, values } => flip_in_f32s(keys, bit) || flip_in_f32s(values, bit),
            Payload::Codes {
                scales,
                keys,
                values,
                ..
            } => {
                flip_in_bytes(keys, bit) || flip_in_bytes(values, bit) || flip_in_f32s(scales, bit)
            }
        };
        if !in_rows {
            flip_in_bytes(&mut self.retained, bit);
        }
    }

    /// Write the page's key and value of every member slot `dest_row` names
    /// into that row of `k_out` / `v_out`: the stored row's grid points
    /// `code · scale / qmax` — bit for bit what
    /// [`reconstruct_page_rows_reference`] writes there — or a plain copy of
    /// an unquantized row. Both members of a merged pair receive the pair's
    /// one stored row. The stored rows are read front to back, `dest_row` is
    /// asked once per slot in slot order, and a destination row is written
    /// whole — whatever it held before never shows through. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a destination row is out of range or the matrices are not
    /// of the page's row width.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    pub fn dequantize_into(
        &self,
        mut dest_row: impl FnMut(usize) -> Option<usize>,
        k_out: &mut Matrix,
        v_out: &mut Matrix,
    ) {
        assert_eq!(k_out.cols(), self.head_dim, "key row width");
        assert_eq!(v_out.cols(), self.head_dim, "value row width");
        let (keys, values) = match &self.payload {
            Payload::Exact { keys, values } => (StoredRows::Exact(keys), StoredRows::Exact(values)),
            Payload::Codes {
                quant,
                scales,
                keys,
                values,
            } => (
                StoredRows::codes(*quant, scales[0], keys),
                StoredRows::codes(*quant, scales[1], values),
            ),
        };
        let (mut slot, mut stored) = (0, 0);
        while slot < self.tokens.len() {
            let span = if self.is_retained(slot) { 1 } else { 2 };
            for row in (slot..slot + span).filter_map(&mut dest_row) {
                keys.write(stored, k_out.row_mut(row));
                values.write(stored, v_out.row_mut(row));
            }
            slot += span;
            stored += 1;
        }
    }
}

/// Compress one cluster page: take the member rows of `keys`/`values`,
/// merge consecutive similar pairs (SLERP at `t = 0.5`, stored once),
/// quantize what remains to integer codes with one symmetric per-cluster
/// scale per tensor, and seal the result.
///
/// Under a lossless config this is an exact copy: the page's rows are
/// bit-identical to the member rows and `compressed_bytes == exact_bytes`.
pub fn compress_page(
    keys: &Matrix,
    values: &Matrix,
    members: &[usize],
    config: CompressionConfig,
) -> CompressedPage {
    let head_dim = keys.cols();
    let merging = config.merge_threshold > 0.0;
    let mut k_rows = Vec::with_capacity(members.len() * head_dim);
    let mut v_rows = Vec::with_capacity(members.len() * head_dim);
    let mask_bytes = if merging {
        members.len().div_ceil(8)
    } else {
        0
    };
    let mut retained = vec![0u8; mask_bytes];
    // One interpolant each for K and V, reused by every merged pair.
    let rep_dim = if merging { head_dim } else { 0 };
    let mut rep = vec![0.0f32; 2 * rep_dim];
    let (rep_k, rep_v) = rep.split_at_mut(rep_dim);
    let mut merged_pairs = 0usize;
    let mut i = 0;
    while i < members.len() {
        let (k_i, v_i) = (keys.row(members[i]), values.row(members[i]));
        if merging && i + 1 < members.len() {
            let (k_j, v_j) = (keys.row(members[i + 1]), values.row(members[i + 1]));
            if 1.0 - cosine_similarity(k_i, k_j) <= config.merge_threshold {
                slerp_into(k_i, k_j, 0.5, rep_k);
                slerp_into(v_i, v_j, 0.5, rep_v);
                k_rows.extend_from_slice(rep_k);
                v_rows.extend_from_slice(rep_v);
                merged_pairs += 1;
                i += 2;
                continue;
            }
        }
        if merging {
            retained[i / 8] |= 1 << (i % 8);
        }
        k_rows.extend_from_slice(k_i);
        v_rows.extend_from_slice(v_i);
        i += 1;
    }

    let stored_rows = members.len() - merged_pairs;
    let row_bytes = config.quant.data_bytes(head_dim).get();
    let mut compressed = Bytes(2 * stored_rows as u64 * row_bytes + retained.len() as u64);
    let payload = match config.quant {
        QuantMode::Off => Payload::Exact {
            keys: k_rows,
            values: v_rows,
        },
        quant => {
            compressed += Bytes(SCALE_OVERHEAD);
            let scales = [fold_max_abs(0.0, &k_rows), fold_max_abs(0.0, &v_rows)];
            Payload::Codes {
                quant,
                scales,
                keys: encode_rows(quant, &k_rows, head_dim, scales[0]),
                values: encode_rows(quant, &v_rows, head_dim, scales[1]),
            }
        }
    };

    let mut page = CompressedPage {
        tokens: members.to_vec(),
        head_dim,
        payload,
        retained,
        merged_pairs,
        compressed_bytes: compressed,
        exact_bytes: Bytes::of_f16(2 * members.len() * head_dim),
        checksum: 0,
    };
    page.checksum = page.compute_checksum();
    page
}

/// Store of compressed cluster pages with aggregate byte accounting. Keys
/// are [`PageKey`]s, so residency and compression describe the same pages.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressedStore {
    config: CompressionConfig,
    pages: BTreeMap<PageKey, CompressedPage>,
    compressed_bytes: Bytes,
    exact_bytes: Bytes,
}

impl CompressedStore {
    /// Empty store under the given configuration.
    pub fn new(config: CompressionConfig) -> Self {
        Self {
            config,
            pages: BTreeMap::new(),
            compressed_bytes: Bytes(0),
            exact_bytes: Bytes(0),
        }
    }

    /// The store's compression configuration.
    pub fn config(&self) -> CompressionConfig {
        self.config
    }

    /// Number of pages held.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Insert (or replace) a page, keeping the aggregate byte totals exact.
    pub fn insert(&mut self, key: PageKey, page: CompressedPage) {
        self.remove(key);
        self.compressed_bytes += page.compressed_bytes;
        self.exact_bytes += page.exact_bytes;
        self.pages.insert(key, page);
    }

    /// Compress `members` of `keys`/`values` and insert under `key`.
    pub fn compress_and_insert(
        &mut self,
        key: PageKey,
        keys: &Matrix,
        values: &Matrix,
        members: &[usize],
    ) {
        let page = compress_page(keys, values, members, self.config);
        self.insert(key, page);
    }

    /// Look up a page.
    pub fn get(&self, key: PageKey) -> Option<&CompressedPage> {
        self.pages.get(&key)
    }

    /// Flip one bit of a page's payload — bit `bit` modulo the payload's
    /// size, counted through key rows, value rows, scales and retention
    /// mask (deterministic fault injection for the integrity suite). The
    /// stored bytes really change; the seal does not, so
    /// [`verify`](Self::verify) fails until [`repair`](Self::repair).
    /// Returns whether a bit was flipped (`false`: no such page, or nothing
    /// in it to damage).
    pub fn corrupt(&mut self, key: PageKey, bit: u64) -> bool {
        match self.pages.get_mut(&key) {
            Some(page) if page.payload_bits() > 0 => {
                page.flip_bit(bit % page.payload_bits());
                true
            }
            _ => false,
        }
    }

    /// Verify a page's checksum: `None` if absent, otherwise whether the
    /// sealed checksum matches the payload.
    pub fn verify(&self, key: PageKey) -> Option<bool> {
        self.pages.get(&key).map(CompressedPage::verify)
    }

    // analyzer: recovery-path
    /// Rebuild a page whose payload failed verification from the exact
    /// backing rows it was compressed from: the same members of
    /// `keys`/`values` quantize to the same bytes, so the page comes back
    /// byte-identical to the one first stored. Returns the exact bytes such
    /// a re-fetch moves, or `None` if the page does not exist.
    pub fn repair(&mut self, key: PageKey, keys: &Matrix, values: &Matrix) -> Option<Bytes> {
        let page = self.pages.get_mut(&key)?;
        *page = compress_page(keys, values, &page.tokens, self.config);
        Some(page.exact_bytes)
    }

    /// Remove a page, updating the totals.
    pub fn remove(&mut self, key: PageKey) -> Option<CompressedPage> {
        let page = self.pages.remove(&key)?;
        self.compressed_bytes = Bytes(self.compressed_bytes.get() - page.compressed_bytes.get());
        self.exact_bytes = Bytes(self.exact_bytes.get() - page.exact_bytes.get());
        Some(page)
    }

    /// Total compressed footprint across pages.
    pub fn compressed_bytes(&self) -> Bytes {
        self.compressed_bytes
    }

    /// Total exact (f16) footprint the same pages would occupy.
    pub fn exact_bytes(&self) -> Bytes {
        self.exact_bytes
    }

    /// Aggregate compression ratio `exact / compressed`; `0.0` when the
    /// store is empty.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes.get() == 0 {
            0.0
        } else {
            self.exact_bytes.get() as f64 / self.compressed_bytes.get() as f64
        }
    }

    /// Total merged pairs across pages.
    pub fn merged_pairs(&self) -> usize {
        self.pages.values().map(|p| p.merged_pairs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HeadId, LayerId};
    use clusterkv_tensor::rng::{gaussian_vec, seeded};

    fn key(page: usize) -> PageKey {
        PageKey {
            layer: LayerId(0),
            head: HeadId(0),
            page,
        }
    }

    fn random_kv(n: usize, dim: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = seeded(seed);
        let k = Matrix::from_flat(n, dim, gaussian_vec(&mut rng, n * dim, 0.0, 1.0)).unwrap();
        let v = Matrix::from_flat(n, dim, gaussian_vec(&mut rng, n * dim, 0.0, 1.0)).unwrap();
        (k, v)
    }

    /// Every member row of a page, dequantized: `(keys, values)`, one row per
    /// member slot.
    fn rows(page: &CompressedPage) -> (Matrix, Matrix) {
        let mut k = Matrix::zeros(page.tokens.len(), page.head_dim);
        let mut v = k.clone();
        page.dequantize_into(Some, &mut k, &mut v);
        (k, v)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lossless_page_is_bit_identical_and_byte_equal() {
        let (k, v) = random_kv(16, 8, 1);
        let members: Vec<usize> = vec![2, 3, 5, 7, 11];
        let page = compress_page(&k, &v, &members, CompressionConfig::lossless());
        let (pk, pv) = rows(&page);
        for (slot, &m) in members.iter().enumerate() {
            assert_eq!(pk.row(slot), k.row(m), "keys must be exact");
            assert_eq!(pv.row(slot), v.row(m), "values must be exact");
            assert!(page.is_retained(slot));
        }
        assert_eq!(page.tokens(), members);
        assert_eq!(page.merged_pairs(), 0);
        assert_eq!(page.compressed_bytes(), page.exact_bytes());
        assert_eq!(page.exact_bytes(), Bytes::of_f16(2 * 5 * 8));
        assert_eq!(page.ratio(), 1.0);
    }

    #[test]
    fn int8_page_is_near_exact_at_2x() {
        let (k, v) = random_kv(32, 16, 2);
        let members: Vec<usize> = (0..32).collect();
        let page = compress_page(&k, &v, &members, CompressionConfig::int8());
        let ratio = page.ratio();
        assert!(ratio > 1.9 && ratio <= 2.0, "int8 ratio {ratio}");
        let scale = fold_max_abs(0.0, k.as_slice());
        let (pk, _) = rows(&page);
        for (slot, &m) in members.iter().enumerate() {
            for (a, b) in pk.row(slot).iter().zip(k.row(m)) {
                assert!((a - b).abs() <= scale / 127.0 + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn int4_page_reaches_4x() {
        let (k, v) = random_kv(64, 32, 3);
        let members: Vec<usize> = (0..64).collect();
        let page = compress_page(&k, &v, &members, CompressionConfig::int4());
        let ratio = page.ratio();
        assert!(ratio > 3.9 && ratio <= 4.0, "int4 ratio {ratio}");
    }

    #[test]
    fn merging_collapses_similar_pairs_and_retains_outliers() {
        // Rows 0 and 1 are nearly identical; row 2 is orthogonal to both.
        let k = Matrix::from_rows(vec![
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.999, 0.01, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let v = k.clone();
        let cfg = CompressionConfig::default().with_merge_threshold(0.05);
        let page = compress_page(&k, &v, &[0, 1, 2, 3], cfg);
        assert_eq!(page.merged_pairs(), 1);
        let retained: Vec<bool> = (0..4).map(|slot| page.is_retained(slot)).collect();
        assert_eq!(retained, vec![false, false, true, true]);
        let (pk, _) = rows(&page);
        assert_eq!(pk.row(0), pk.row(1), "merged pair shares a row");
        assert_eq!(pk.row(2), k.row(2), "outlier stays exact");
        assert!(page.ratio() > 1.0, "merging must shrink the page");
    }

    #[test]
    fn merge_threshold_zero_never_merges_identical_rows() {
        let k = Matrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        let page = compress_page(&k, &k, &[0, 1], CompressionConfig::lossless());
        assert_eq!(page.merged_pairs(), 0, "threshold 0 is a hard gate");
        assert!((0..2).all(|slot| page.is_retained(slot)));
    }

    #[test]
    fn slerp_midpoint_of_unit_vectors_bisects_the_angle() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let mut out = [0.0f32; 2];
        slerp_into(&a, &b, 0.5, &mut out);
        assert!((out[0] - out[1]).abs() < 1e-6, "midpoint is symmetric");
        let norm = (out[0] * out[0] + out[1] * out[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-6, "unit inputs give a unit output");
        assert!(
            (cosine_similarity(&a, &out) - (std::f32::consts::FRAC_PI_4).cos()).abs() < 1e-6,
            "bisects the 90° angle"
        );
    }

    #[test]
    fn slerp_endpoints_and_degenerate_inputs() {
        let a = [3.0, 0.0, 0.0];
        let b = [0.0, 0.0, 5.0];
        let mut out = [0.0f32; 3];
        slerp_into(&a, &b, 0.0, &mut out);
        for (x, y) in out.iter().zip(&a) {
            assert!((x - y).abs() < 1e-5);
        }
        slerp_into(&a, &b, 1.0, &mut out);
        for (x, y) in out.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
        // Zero vector falls back to lerp.
        let z = [0.0, 0.0, 0.0];
        slerp_into(&z, &b, 0.5, &mut out);
        assert_eq!(out, [0.0, 0.0, 2.5]);
        // Parallel vectors keep the direction, interpolate the magnitude.
        let c = [6.0, 0.0, 0.0];
        slerp_into(&a, &c, 0.5, &mut out);
        assert!((out[0] - 4.5).abs() < 1e-5, "{out:?}");
    }

    #[test]
    fn quant_roundtrip_is_bounded_and_zero_scale_passes_through() {
        for &x in &[-1.0f32, -0.33, 0.0, 0.5, 1.0] {
            let y = quant_roundtrip(x, 1.0, 127.0);
            assert!((x - y).abs() <= 0.5 / 127.0 + 1e-7);
        }
        assert_eq!(quant_roundtrip(0.7, 0.0, 127.0), 0.7);
        // Values beyond the scale clamp to the grid edge.
        assert_eq!(quant_roundtrip(5.0, 1.0, 7.0), 1.0);
    }

    #[test]
    fn every_code_dequantizes_to_the_round_trip_of_its_values() {
        // The whole grid of both widths, signed zeros and the grid edges
        // (`|x| == scale`) included: a value's code reads back as exactly
        // what the f32 round trip made of the value.
        for quant in [QuantMode::Int8, QuantMode::Int4] {
            let qmax = quant.qmax();
            for scale in [0.0f32, 1.0, 0.37, 1e-20, 3.0e18] {
                let lut = grid(quant, scale);
                let steps = 4 * qmax as i32;
                for x in (-steps..=steps)
                    .map(|i| i as f32 / steps as f32 * scale)
                    .chain([0.0, -0.0, scale, -scale, -1e-30 * scale])
                {
                    let code = code_of(x, scale, qmax);
                    let code = usize::from(if quant == QuantMode::Int4 {
                        code & 0xF
                    } else {
                        code
                    });
                    assert_eq!(
                        lut[code].to_bits(),
                        quant_roundtrip(x, scale, qmax).to_bits(),
                        "{quant}: {x} at scale {scale}"
                    );
                }
            }
        }
    }

    /// Scenario of the differential tests: `n` rows of width `dim`, some of
    /// them zeroed, negated-zeroed, pinned to the largest magnitude or made
    /// near-parallel to their predecessor (so the merging rungs find pairs).
    fn adversarial_kv(n: usize, dim: usize, seed: u64) -> (Matrix, Matrix) {
        let (mut k, mut v) = random_kv(n, dim, seed);
        for row in 0..n {
            match (row + seed as usize) % 7 {
                1 => v.row_mut(row).fill(0.0),
                2 => v.row_mut(row).iter_mut().step_by(2).for_each(|x| *x = -0.0),
                3 if row > 0 => {
                    let near: Vec<f32> = k.row(row - 1).iter().map(|x| 1.02 * x + 1e-3).collect();
                    k.row_mut(row).copy_from_slice(&near);
                }
                4 => k.row_mut(row)[0] = -9.0,
                5 => k.row_mut(row)[dim - 1] = 9.0,
                _ => {}
            }
        }
        (k, v)
    }

    const LADDER: [CompressionConfig; 6] = [
        CompressionConfig {
            merge_threshold: 0.0,
            quant: QuantMode::Off,
        },
        CompressionConfig {
            merge_threshold: 0.2,
            quant: QuantMode::Off,
        },
        CompressionConfig {
            merge_threshold: 0.0,
            quant: QuantMode::Int8,
        },
        CompressionConfig {
            merge_threshold: 0.2,
            quant: QuantMode::Int8,
        },
        CompressionConfig {
            merge_threshold: 0.0,
            quant: QuantMode::Int4,
        },
        CompressionConfig {
            merge_threshold: 0.2,
            quant: QuantMode::Int4,
        },
    ];

    #[test]
    fn all_zero_pages_keep_the_sign_of_every_zero() {
        // `scale == 0`: the round trip passes the zeros through, negative
        // ones included; the spare code carries the sign.
        let mut k = Matrix::zeros(3, 5);
        k.row_mut(1).fill(-0.0);
        k.row_mut(2)[3] = -0.0;
        for config in LADDER {
            let page = compress_page(&k, &k, &[0, 1, 2], config);
            let (pk, pv) = rows(&page);
            assert_eq!(bits(&pk), bits(&k), "{config}");
            assert_eq!(bits(&pv), bits(&k), "{config}");
        }
    }

    #[test]
    fn reported_compressed_bytes_are_the_length_of_what_a_page_holds() {
        for dim in [16usize, 7] {
            let (k, v) = adversarial_kv(40, dim, 5);
            let members: Vec<usize> = (0..40).rev().step_by(3).collect();
            for config in LADDER {
                let page = compress_page(&k, &v, &members, config);
                let Payload::Codes {
                    scales,
                    keys,
                    values,
                    ..
                } = &page.payload
                else {
                    continue;
                };
                let held = keys.len() + values.len() + size_of_val(scales) + page.retained.len();
                assert_eq!(page.compressed_bytes(), Bytes(held as u64), "{config}");
                let stored = members.len() - page.merged_pairs();
                assert_eq!(
                    keys.len() as u64,
                    stored as u64 * config.quant.data_bytes(dim).get(),
                    "{config}: one stored row per retained member and per pair"
                );
                assert_eq!(
                    page.retained.is_empty(),
                    config.merge_threshold == 0.0,
                    "{config}: a mask only where something can merge"
                );
            }
        }
    }

    #[test]
    fn store_totals_track_insert_replace_remove() {
        let (k, v) = random_kv(24, 8, 4);
        let mut store = CompressedStore::new(CompressionConfig::int8());
        store.compress_and_insert(key(0), &k, &v, &[0, 1, 2, 3]);
        store.compress_and_insert(key(1), &k, &v, &[4, 5, 6, 7, 8, 9]);
        let total = store.compressed_bytes();
        assert_eq!(store.len(), 2);
        assert!(store.ratio() > 1.0);
        // Replacing a page with a larger one adjusts, not double-counts.
        store.compress_and_insert(key(0), &k, &v, &[0, 1, 2, 3, 10, 11]);
        assert!(store.compressed_bytes().get() > total.get());
        let expected: u64 = [key(0), key(1)]
            .iter()
            .map(|&kk| store.get(kk).unwrap().compressed_bytes().get())
            .sum();
        assert_eq!(store.compressed_bytes().get(), expected);
        store.remove(key(0)).unwrap();
        store.remove(key(1)).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.compressed_bytes(), Bytes(0));
        assert_eq!(store.exact_bytes(), Bytes(0));
        assert_eq!(store.ratio(), 0.0, "empty store must not divide by zero");
    }

    #[test]
    fn config_validation_and_fingerprints() {
        assert!(CompressionConfig::lossless().validate().is_ok());
        assert!(CompressionConfig::default()
            .with_merge_threshold(1.5)
            .validate()
            .is_err());
        assert!(CompressionConfig::default()
            .with_merge_threshold(f32::NAN)
            .validate()
            .is_err());
        let a = CompressionConfig::int8().fingerprint_words();
        let b = CompressionConfig::int4().fingerprint_words();
        let c = CompressionConfig::int8()
            .with_merge_threshold(0.1)
            .fingerprint_words();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, CompressionConfig::int8().fingerprint_words());
    }

    #[test]
    fn analytic_page_bytes_match_quant_widths() {
        let cfg = CompressionConfig::lossless();
        let per_token = Bytes::of_f16(2 * 16); // head_dim 16 → 64 B/token
        assert_eq!(cfg.page_bytes(10, per_token), Bytes(640));
        assert!(!cfg.shrinks(10, per_token));
        let int8 = CompressionConfig::int8();
        assert_eq!(int8.page_bytes(10, per_token), Bytes(320 + SCALE_OVERHEAD));
        assert!(int8.shrinks(10, per_token));
        let int4 = CompressionConfig::int4();
        assert_eq!(int4.page_bytes(10, per_token), Bytes(160 + SCALE_OVERHEAD));
        // A one-token page of a tiny head does not shrink under int8: the
        // scale overhead eats the savings.
        let tiny = Bytes::of_f16(2 * 2);
        assert!(!int8.shrinks(1, tiny));
    }

    #[test]
    fn display_names_cover_the_ladder() {
        assert_eq!(CompressionConfig::lossless().to_string(), "lossless");
        assert_eq!(CompressionConfig::int8().to_string(), "int8");
        assert_eq!(
            CompressionConfig::int4()
                .with_merge_threshold(0.15)
                .to_string(),
            "int4+merge0.15"
        );
        assert_eq!(QuantMode::Off.to_string(), "f16");
    }

    #[test]
    fn compressed_pages_are_sealed_and_verify() {
        let (k, v) = random_kv(8, 4, 21);
        let page = compress_page(&k, &v, &[0, 2, 5], CompressionConfig::int8());
        assert!(page.verify());
        assert_eq!(page.checksum(), page.compute_checksum());
    }

    #[test]
    fn store_corrupt_verify_repair_round_trip() {
        let (k, v) = random_kv(8, 4, 22);
        let mut store = CompressedStore::new(CompressionConfig::lossless());
        store.compress_and_insert(key(3), &k, &v, &[1, 2, 3]);
        assert_eq!(store.verify(key(3)), Some(true));
        assert!(store.corrupt(key(3), 77));
        assert_eq!(store.verify(key(3)), Some(false));
        let moved = store.repair(key(3), &k, &v);
        // Repair re-fetches the exact layout: 2 tensors · 3 tokens · 4 dims.
        assert_eq!(moved, Some(Bytes::of_f16(2 * 3 * 4)));
        assert_eq!(store.verify(key(3)), Some(true));
        // Absent pages report absence, not failure.
        assert!(!store.corrupt(key(9), 0));
        assert_eq!(store.verify(key(9)), None);
        assert_eq!(store.repair(key(9), &k, &v), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected_and_repaired_to_the_same_bytes() {
        let (k, v) = adversarial_kv(12, 6, 23);
        let members = [0, 3, 4, 7, 8, 9, 11];
        for config in LADDER {
            let mut store = CompressedStore::new(config);
            store.compress_and_insert(key(0), &k, &v, &members);
            let pristine = store.get(key(0)).unwrap().clone();
            let payload_bits = pristine.payload_bits();
            assert!(payload_bits > 0);
            if let Payload::Codes { keys, values, .. } = &pristine.payload {
                // Codes, both scales and the mask are all in reach.
                let mask = 8 * pristine.retained.len() as u64;
                assert_eq!(
                    payload_bits,
                    8 * (keys.len() + values.len()) as u64 + 64 + mask
                );
            }
            for bit in 0..payload_bits {
                assert!(store.corrupt(key(0), bit));
                let damaged = store.get(key(0)).unwrap();
                assert_eq!(
                    damaged.checksum(),
                    pristine.checksum(),
                    "the seal is not touched"
                );
                assert_eq!(store.verify(key(0)), Some(false), "{config}: bit {bit}");
                assert_eq!(
                    store.repair(key(0), &k, &v),
                    Some(pristine.exact_bytes()),
                    "{config}: bit {bit}"
                );
                // `==` on f32 rows cannot tell the zeros apart; the checksum
                // reads bit patterns.
                let repaired = store.get(key(0)).unwrap();
                assert_eq!(repaired, &pristine, "{config}: bit {bit}");
                assert!(repaired.verify(), "{config}: bit {bit}");
            }
            // The bit index wraps around the payload.
            assert!(store.corrupt(key(0), payload_bits));
            assert_eq!(store.verify(key(0)), Some(false));
            store.repair(key(0), &k, &v).unwrap();
            assert_eq!(store.compressed_bytes(), pristine.compressed_bytes());
        }
        // An empty exact page holds nothing a flip could damage.
        let mut store = CompressedStore::new(CompressionConfig::lossless());
        store.compress_and_insert(key(1), &k, &v, &[]);
        assert!(!store.corrupt(key(1), 5));
        assert_eq!(store.verify(key(1)), Some(true));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The codes path against the kept f32 reference, row by row and
            // bit by bit, over random shapes, memberships (unsorted, any
            // subset) and destinations (any subset of the slots, so merged
            // pairs straddle what is asked for). Values include both zeros,
            // all-zero rows and `|x| == scale`; a negative zero comes back
            // negative because the spare code stores it. Non-finite inputs
            // are outside the contract (`code_of` debug-asserts): the f32
            // round trip turned a NaN into a NaN row and an infinity into a
            // NaN page, the integer grid has no code for either, and the
            // engine's KV rows — finite weights, bounded norms — never
            // hold one.
            #[test]
            fn codes_dequantize_bit_identically_to_the_reference_round_trip(
                n in 1usize..40,
                dim in 1usize..20,
                seed in 0u64..1_000_000,
                take in 1usize..40,
                wanted in 0u64..u64::MAX,
            ) {
                let (k, v) = adversarial_kv(n, dim, seed);
                let mut members: Vec<usize> = (0..n).collect();
                members.rotate_left(seed as usize % n);
                members.truncate(take.min(n));
                let dest_row = |slot: usize| (wanted >> (slot % 64) & 1 == 1).then_some(slot);
                for config in LADDER {
                    let mut expect_k = Matrix::from_flat(
                        members.len(), dim, vec![f32::NAN; members.len() * dim]).unwrap();
                    let mut expect_v = expect_k.clone();
                    let (mut got_k, mut got_v) = (expect_k.clone(), expect_v.clone());
                    let merged = reconstruct_page_rows_reference(
                        (&k, &v), &members, config, (&mut expect_k, &mut expect_v), dest_row);
                    let page = compress_page(&k, &v, &members, config);
                    page.dequantize_into(dest_row, &mut got_k, &mut got_v);
                    prop_assert!(page.merged_pairs() == merged, "{config}: merged pairs");
                    prop_assert!(bits(&got_k) == bits(&expect_k), "{config}: keys");
                    prop_assert!(bits(&got_v) == bits(&expect_v), "{config}: values");
                    prop_assert!(page.verify());
                }
            }
        }
    }
}
