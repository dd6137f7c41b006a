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
//! Everything here is *modeled* compression: the reconstructed (merged +
//! quantize-round-tripped) rows are materialized as `f32` for compute, while
//! byte accounting reflects the compressed layout. With
//! [`CompressionConfig::is_lossless`] (merge threshold `0`, quantization
//! off), reconstruction is the identity and compressed bytes equal exact
//! bytes — the property every parity suite leans on.

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

    /// Bytes for `values` stored values at this width (int4 packs two per
    /// byte; the odd trailing nibble still occupies a byte).
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

    /// Set the quantization mode.
    pub fn with_quant(mut self, quant: QuantMode) -> Self {
        self.quant = quant;
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
/// is zero and the value passes through).
fn quant_roundtrip(x: f32, scale: f32, qmax: f32) -> f32 {
    if scale == 0.0 {
        return x;
    }
    let q = (x / scale * qmax).round().clamp(-qmax, qmax);
    q * scale / qmax
}

/// Largest absolute value of a row, folded into `scale` (the symmetric
/// per-cluster scale is this over every row of the page). Deterministic: a
/// pure reduction over the page contents, never a function of cache or
/// selection state, and — `max` ignoring NaN — independent of row order.
fn fold_max_abs(scale: f32, row: &[f32]) -> f32 {
    row.iter().fold(scale, |s, x| s.max(x.abs()))
}

/// The merge + quantize-round-trip core of the compressed tier: reconstruct
/// one page — rows `members` of `keys` / `values` — writing member slot
/// `i`'s reconstructed key and value into row `dest_row(i)` of `k_out` /
/// `v_out`. A slot without a destination is written nowhere but still
/// shapes the page: it merges with its neighbour and counts toward the
/// per-page scales, so the rows that *are* written depend only on
/// `(config, membership, stored KV)`, never on which slots were asked for.
///
/// [`compress_page`] maps every slot to its own row of the page it stores
/// and seals. Recall-compressed attention maps the slots of the tokens it
/// attends to their gathered rows, so the page of a transient recall is
/// never materialized, stored or sealed.
///
/// Consecutive members whose keys are within `merge_threshold` cosine
/// distance are both replaced by their SLERP midpoint (values follow the
/// key's decision); `on_merged_pair(i)` is called for each such pair
/// `(i, i + 1)`. What remains is quantized with one symmetric scale per
/// tensor. Returns the number of merged pairs.
pub fn reconstruct_page_rows(
    (keys, values): (&Matrix, &Matrix),
    members: &[usize],
    config: CompressionConfig,
    (k_out, v_out): (&mut Matrix, &mut Matrix),
    dest_row: impl Fn(usize) -> Option<usize>,
    mut on_merged_pair: impl FnMut(usize),
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
                on_merged_pair(i);
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

/// One compressed page: the reconstructed K/V of a cluster's member tokens
/// plus the byte accounting of its compressed layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedPage {
    /// Absolute token positions of the page's members, ascending.
    pub tokens: Vec<usize>,
    /// Reconstructed keys, one row per member (merged pairs share identical
    /// rows; quantized values are the dequantized grid points).
    pub keys: Matrix,
    /// Reconstructed values, aligned with `keys`.
    pub values: Matrix,
    /// Retention mask: `true` for members kept exact (outliers below the
    /// merge similarity bar), `false` for members replaced by a SLERP
    /// interpolant. All-`true` when merging is disabled.
    pub retained: Vec<bool>,
    /// Number of merged pairs (each pair stores one vector instead of two).
    pub merged_pairs: usize,
    /// Footprint of the compressed layout (quantized data + scales + mask).
    pub compressed_bytes: Bytes,
    /// Footprint the same members would occupy exact (f16).
    pub exact_bytes: Bytes,
    /// FNV-1a 64 checksum over the page payload (member positions, K/V row
    /// bits, retention mask), sealed at compression time and verified before
    /// the page serves an access (DESIGN.md §11).
    pub checksum: u64,
}

impl CompressedPage {
    /// Compression ratio `exact / compressed`; `0.0` for an empty page.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes.get() == 0 {
            0.0
        } else {
            self.exact_bytes.get() as f64 / self.compressed_bytes.get() as f64
        }
    }

    /// FNV-1a 64 over the page payload: member positions, key and value row
    /// bits, and the retention mask. Deterministic — a pure function of the
    /// stored data, so two bit-identical pages always agree.
    pub fn compute_checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.tokens.len() as u64);
        for &t in &self.tokens {
            h.write_u64(t as u64);
        }
        h.write_f32s(self.keys.as_slice());
        h.write_f32s(self.values.as_slice());
        for &kept in &self.retained {
            h.write_u8(u8::from(kept));
        }
        h.finish()
    }

    /// Whether the sealed checksum still matches the payload.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// Compress one cluster page: gather the member rows of `keys`/`values`,
/// merge consecutive similar pairs (SLERP at `t = 0.5`), quantize what
/// remains with one symmetric per-cluster scale per tensor, and return the
/// reconstructed rows plus the compressed byte accounting.
///
/// Under a lossless config this is an exact gather: the returned rows are
/// bit-identical to the member rows and `compressed_bytes == exact_bytes`.
pub fn compress_page(
    keys: &Matrix,
    values: &Matrix,
    members: &[usize],
    config: CompressionConfig,
) -> CompressedPage {
    let head_dim = keys.cols();
    let mut k = Matrix::zeros(members.len(), head_dim);
    let mut v = Matrix::zeros(members.len(), head_dim);
    let mut retained = vec![true; members.len()];
    let merged_pairs = reconstruct_page_rows(
        (keys, values),
        members,
        config,
        (&mut k, &mut v),
        Some,
        |i| {
            retained[i] = false;
            retained[i + 1] = false;
        },
    );

    let stored_vectors = members.len() - merged_pairs;
    let mut compressed = Bytes(
        config.quant.data_bytes(stored_vectors * head_dim).get() * 2
            + if config.quant == QuantMode::Off {
                0
            } else {
                SCALE_OVERHEAD
            },
    );
    if config.merge_threshold > 0.0 {
        // One retention bit per member token.
        compressed += Bytes((members.len() as u64).div_ceil(8));
    }
    let exact = Bytes::of_f16(2 * members.len() * head_dim);

    let mut page = CompressedPage {
        tokens: members.to_vec(),
        keys: k,
        values: v,
        retained,
        merged_pairs,
        compressed_bytes: compressed,
        exact_bytes: exact,
        checksum: 0,
    };
    page.checksum = page.compute_checksum();
    page
}

/// Per-head store of compressed cluster pages with aggregate byte
/// accounting. Keys are the same [`PageKey`]s the
/// [`ClusterCache`](crate::cluster_cache::ClusterCache) tracks, so residency
/// and compression describe the same pages.
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
        if let Some(old) = self.pages.remove(&key) {
            self.compressed_bytes = Bytes(self.compressed_bytes.get() - old.compressed_bytes.get());
            self.exact_bytes = Bytes(self.exact_bytes.get() - old.exact_bytes.get());
        }
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

    /// Flip the sealed checksum of a page (deterministic fault injection for
    /// the integrity suite). Only the checksum is damaged — the payload stays
    /// pristine, modeling a detected-before-attended corruption whose repair
    /// re-reads the same bytes. Returns whether the page exists.
    pub fn corrupt(&mut self, key: PageKey) -> bool {
        match self.pages.get_mut(&key) {
            Some(page) => {
                page.checksum ^= clusterkv_faults::CORRUPTION_MASK;
                true
            }
            None => false,
        }
    }

    /// Verify a page's checksum: `None` if absent, otherwise whether the
    /// sealed checksum matches the payload.
    pub fn verify(&self, key: PageKey) -> Option<bool> {
        self.pages.get(&key).map(CompressedPage::verify)
    }

    // analyzer: recovery-path
    /// Re-seal a page whose checksum failed verification by recomputing it
    /// from the payload — modeling a re-fetch of the page from the exact
    /// backing store. Returns the exact bytes such a re-fetch moves, or
    /// `None` if the page does not exist.
    pub fn repair(&mut self, key: PageKey) -> Option<Bytes> {
        let page = self.pages.get_mut(&key)?;
        page.checksum = page.compute_checksum();
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
        let k = Matrix::from_rows(
            (0..n)
                .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
                .collect(),
        )
        .unwrap();
        let v = Matrix::from_rows(
            (0..n)
                .map(|_| gaussian_vec(&mut rng, dim, 0.0, 1.0))
                .collect(),
        )
        .unwrap();
        (k, v)
    }

    #[test]
    fn lossless_page_is_bit_identical_and_byte_equal() {
        let (k, v) = random_kv(16, 8, 1);
        let members: Vec<usize> = vec![2, 3, 5, 7, 11];
        let page = compress_page(&k, &v, &members, CompressionConfig::lossless());
        for (slot, &m) in members.iter().enumerate() {
            assert_eq!(page.keys.row(slot), k.row(m), "keys must be exact");
            assert_eq!(page.values.row(slot), v.row(m), "values must be exact");
        }
        assert!(page.retained.iter().all(|&r| r));
        assert_eq!(page.merged_pairs, 0);
        assert_eq!(page.compressed_bytes, page.exact_bytes);
        assert_eq!(page.exact_bytes, Bytes::of_f16(2 * 5 * 8));
        assert_eq!(page.ratio(), 1.0);
    }

    #[test]
    fn int8_page_is_near_exact_at_2x() {
        let (k, v) = random_kv(32, 16, 2);
        let members: Vec<usize> = (0..32).collect();
        let page = compress_page(&k, &v, &members, CompressionConfig::int8());
        let ratio = page.ratio();
        assert!(ratio > 1.9 && ratio <= 2.0, "int8 ratio {ratio}");
        let scale = k.iter_rows().fold(0.0, fold_max_abs);
        for (slot, &m) in members.iter().enumerate() {
            for (a, b) in page.keys.row(slot).iter().zip(k.row(m)) {
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
        assert_eq!(page.merged_pairs, 1);
        assert_eq!(page.retained, vec![false, false, true, true]);
        assert_eq!(
            page.keys.row(0),
            page.keys.row(1),
            "merged pair shares a row"
        );
        assert_eq!(page.keys.row(2), k.row(2), "outlier stays exact");
        assert!(page.ratio() > 1.0, "merging must shrink the page");
    }

    #[test]
    fn merge_threshold_zero_never_merges_identical_rows() {
        let k = Matrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        let page = compress_page(&k, &k, &[0, 1], CompressionConfig::lossless());
        assert_eq!(page.merged_pairs, 0, "threshold 0 is a hard gate");
        assert!(page.retained.iter().all(|&r| r));
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
            .map(|&kk| store.get(kk).unwrap().compressed_bytes.get())
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
        assert_eq!(page.checksum, page.compute_checksum());
    }

    #[test]
    fn store_corrupt_verify_repair_round_trip() {
        let (k, v) = random_kv(8, 4, 22);
        let mut store = CompressedStore::new(CompressionConfig::lossless());
        store.compress_and_insert(key(3), &k, &v, &[1, 2, 3]);
        assert_eq!(store.verify(key(3)), Some(true));
        assert!(store.corrupt(key(3)));
        assert_eq!(store.verify(key(3)), Some(false));
        let moved = store.repair(key(3));
        // Repair re-fetches the exact layout: 2 tensors · 3 tokens · 4 dims.
        assert_eq!(moved, Some(Bytes::of_f16(2 * 3 * 4)));
        assert_eq!(store.verify(key(3)), Some(true));
        // Absent pages report absence, not failure.
        assert!(!store.corrupt(key(9)));
        assert_eq!(store.verify(key(9)), None);
        assert_eq!(store.repair(key(9)), None);
    }
}
