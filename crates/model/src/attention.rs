//! Attention computation over a (possibly compressed) KV cache.
//!
//! All paths route through the blocked kernels of
//! [`clusterkv_tensor::kernels`] (DESIGN.md §6): logits are one blocked
//! (gather-)matvec over the key matrix, the output one blocked weighted sum
//! over the value matrix — no gathered row copies, no index vectors for the
//! full-attention case, and with the `*_ws` variants no allocation at all
//! once the caller's [`Workspace`] is warm. The per-row arithmetic is
//! canonical, so [`attend_full`] is bit-identical to [`attend_selected`]
//! over all indices. The pre-kernel scalar pipeline survives as
//! [`attend_selected_reference`] for property tests and benches.

use clusterkv_kvcache::compressed::CompressedPage;
use clusterkv_kvcache::KvStore;
use clusterkv_tensor::kernels::{attend_into, Workspace};
use clusterkv_tensor::ops::{attention_weights, weighted_sum};

/// Output of a single-head attention step.
///
/// The token indices the weights refer to are the `indices` the caller
/// passed to [`attend_selected`] (or `0..store.len()` for [`attend_full`]);
/// they are no longer cloned into the output — the caller already owns them.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The attention output vector (`softmax(qK_Sᵀ/√d) · V_S`).
    pub output: Vec<f32>,
    /// Attention weights over the *selected* tokens, aligned with the
    /// caller's index order.
    pub weights: Vec<f32>,
}

/// Compute single-head attention of `query` over the tokens at `indices`
/// within `store`, reusing the caller's workspace: weights land in
/// `ws.weights`, the output in `ws.out`. This is the serving engine's
/// per-head decode path — allocation-free once the workspace is warm.
///
/// # Panics
///
/// Panics if `query.len() != store.head_dim()` or an index is out of bounds.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn attend_selected_ws(store: &KvStore, query: &[f32], indices: &[usize], ws: &mut Workspace) {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    ws.out.clear();
    ws.out.resize(store.head_dim(), 0.0);
    attend_into(
        store.keys(),
        store.values(),
        Some(indices),
        query,
        &mut ws.weights,
        &mut ws.out,
    );
}

/// Attend the query in `ws.q` over the tokens at `selected`, reading every
/// selected member of `pages` from the page's compressed representation
/// (SLERP-merged, dequantized from its integer codes — DESIGN.md §9) and
/// every other token — sinks, pending decode tokens, the position being
/// generated — from its exact KV in `store`. Weights land in `ws.weights`,
/// the output in `out`.
///
/// Each selected token is read once, from where it will be attended: a row
/// one of the pages covers is dequantized out of the page's contiguous codes
/// straight into its row of the operand, and only the rows no page covers are
/// copied from the exact store — no exact row is fetched to be overwritten.
/// The operand is shaped without being filled; every row of it has a writer
/// (a page that names its position, else the exact copy), so what an earlier,
/// longer selection left in the workspace cannot be attended. Of a position
/// selected twice only the later row is a page's — the earlier one stays
/// exact, as inserting `(position, row)` pairs into a map would have it — and
/// a position two pages (or two slots of one) name is written by each in
/// turn, the last one standing, the only case in which a row is written more
/// than once. The fused kernel then runs over the rows in `selected`'s order.
///
/// The work is linear in the selection and in the pages' members, never in
/// the context: `ws.row_of` (position → row) is kept across calls and reset
/// through the positions this call set, so it is all-`usize::MAX` again on
/// return; it grows with the store, one entry a decode step. Nothing is
/// allocated once the workspace is warm, and the result depends only on the
/// pages and the stored KV — never on the order heads or threads run in.
///
/// # Panics
///
/// Panics if `ws.q.len() != store.head_dim()`, a selected position is out of
/// bounds, or a page's rows are of another width.
// analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
pub fn attend_compressed_ws<'p>(
    store: &KvStore,
    selected: &[usize],
    pages: impl Iterator<Item = &'p CompressedPage>,
    ws: &mut Workspace,
    out: &mut [f32],
) {
    let Workspace {
        q,
        weights,
        seen: paged,
        row_of,
        k_rows,
        v_rows,
        ..
    } = ws;
    k_rows.reshape(selected.len(), store.head_dim());
    v_rows.reshape(selected.len(), store.head_dim());
    // One entry per stored position: a decode step adds one, nothing is
    // ever cleared.
    if row_of.len() < store.len() {
        row_of.resize(store.len(), usize::MAX);
    }
    paged.clear();
    paged.resize(selected.len().div_ceil(64), 0);
    for (row, &pos) in selected.iter().enumerate() {
        assert!(pos < store.len(), "selected position {pos} out of bounds");
        row_of[pos] = row;
    }
    for page in pages {
        let members = page.tokens();
        page.dequantize_into(
            |slot| {
                let row = row_of[members[slot]];
                (row != usize::MAX).then(|| {
                    paged[row / 64] |= 1 << (row % 64);
                    row
                })
            },
            k_rows,
            v_rows,
        );
    }
    for (row, &pos) in selected.iter().enumerate() {
        row_of[pos] = usize::MAX;
        if paged[row / 64] >> (row % 64) & 1 == 0 {
            k_rows.row_mut(row).copy_from_slice(store.key(pos));
            v_rows.row_mut(row).copy_from_slice(store.value(pos));
        }
    }
    attend_into(k_rows, v_rows, None, q, weights, out);
}

/// Compute single-head attention of `query` over the tokens at `indices`
/// within `store`.
///
/// This is the approximated attention `softmax(q·K_Sᵀ/√d)·V_S` of the paper
/// (§II-B). Passing all indices yields exact full attention.
///
/// # Panics
///
/// Panics if `query.len() != store.head_dim()` or an index is out of bounds.
pub fn attend_selected(store: &KvStore, query: &[f32], indices: &[usize]) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let mut weights = Vec::with_capacity(indices.len());
    let mut output = vec![0.0f32; store.head_dim()];
    attend_into(
        store.keys(),
        store.values(),
        Some(indices),
        query,
        &mut weights,
        &mut output,
    );
    AttentionOutput { output, weights }
}

/// Compute exact full attention over every token in the store, without
/// materializing a `0..len` index vector: the kernels walk the key/value
/// matrices contiguously. Bit-identical to [`attend_selected`] over
/// `[0, 1, …, len-1]`.
pub fn attend_full(store: &KvStore, query: &[f32]) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let mut weights = Vec::with_capacity(store.len());
    let mut output = vec![0.0f32; store.head_dim()];
    attend_into(
        store.keys(),
        store.values(),
        None,
        query,
        &mut weights,
        &mut output,
    );
    AttentionOutput { output, weights }
}

/// The pre-kernel-layer scalar attention pipeline (iterator logits via
/// scalar `dot`, row-sequential `axpy` reduction), kept as the reference the
/// blocked path is property-tested and speedup-gated against.
pub fn attend_selected_reference(
    store: &KvStore,
    query: &[f32],
    indices: &[usize],
) -> AttentionOutput {
    assert_eq!(query.len(), store.head_dim(), "query dim mismatch");
    let keys = indices.iter().map(|&i| store.key(i));
    let weights = attention_weights(query, keys);
    let values = indices.iter().map(|&i| store.value(i));
    let output = weighted_sum(&weights, values, store.head_dim());
    AttentionOutput { output, weights }
}

/// L2 error between the full-attention output `full` and an approximation
/// of it (attention over a selected subset, over reconstructed KV),
/// normalised by the full output's norm. This is the quantity the accuracy
/// proxies in `clusterkv-workloads` are built on.
pub fn attention_output_error(full: &[f32], approx: &[f32]) -> f32 {
    let diff: f32 = full
        .iter()
        .zip(approx)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    let denom: f32 = full.iter().map(|x| x * x).sum::<f32>().sqrt();
    if denom == 0.0 {
        diff
    } else {
        diff / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(keys: Vec<Vec<f32>>, values: Vec<Vec<f32>>) -> KvStore {
        let dim = keys[0].len();
        let mut s = KvStore::new(dim);
        for (k, v) in keys.iter().zip(&values) {
            s.append(k, v);
        }
        s
    }

    #[test]
    fn full_attention_matches_selected_with_all_indices() {
        let store = store_with(
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        );
        let q = [0.5, 0.25];
        let full = attend_full(&store, &q);
        let sel = attend_selected(&store, &q, &[0, 1, 2]);
        assert_eq!(full.output, sel.output);
        assert_eq!(full.weights, sel.weights);
    }

    #[test]
    fn weights_sum_to_one_and_align_with_index_order() {
        let store = store_with(
            vec![vec![2.0, 0.0], vec![0.0, 2.0], vec![-2.0, 0.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
        );
        let out = attend_selected(&store, &[1.0, 0.0], &[2, 0]);
        assert_eq!(out.weights.len(), 2);
        assert!((out.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Key 0 is aligned with the query, key 2 is anti-aligned; weights
        // stay aligned with the order of the caller's indices [2, 0].
        assert!(out.weights[1] > out.weights[0]);
    }

    #[test]
    fn workspace_variant_matches_allocating_variant() {
        let store = store_with(
            vec![
                vec![1.0, 0.2],
                vec![0.3, -0.9],
                vec![0.7, 0.7],
                vec![-1.0, 0.1],
            ],
            vec![
                vec![0.5, 0.1],
                vec![1.5, -0.5],
                vec![0.0, 2.0],
                vec![0.25, 0.25],
            ],
        );
        let q = [0.4, -0.6];
        let mut ws = Workspace::new();
        attend_selected_ws(&store, &q, &[3, 1, 0], &mut ws);
        let alloc = attend_selected(&store, &q, &[3, 1, 0]);
        assert_eq!(ws.out, alloc.output);
        assert_eq!(ws.weights, alloc.weights);
        let warm = ws.allocated_bytes();
        for _ in 0..10 {
            attend_selected_ws(&store, &q, &[3, 1, 0], &mut ws);
        }
        assert_eq!(ws.allocated_bytes(), warm, "workspace must not grow");
    }

    #[test]
    fn blocked_attention_matches_scalar_reference() {
        let store = store_with(
            vec![
                vec![1.0, 0.5, -0.25, 2.0],
                vec![0.3, -0.2, 0.8, -1.0],
                vec![0.0, 1.0, 0.0, 0.5],
                vec![2.0, -0.5, 1.5, 0.25],
                vec![-0.75, 0.1, 0.9, -0.3],
            ],
            vec![
                vec![0.1, 0.2, 0.3, 0.4],
                vec![-0.4, 0.3, -0.2, 0.1],
                vec![1.0, -1.0, 0.5, -0.5],
                vec![0.0, 0.25, 0.5, 0.75],
                vec![0.6, -0.6, 0.2, -0.2],
            ],
        );
        let q = [0.7, -0.1, 0.4, 0.9];
        for indices in [vec![0usize, 1, 2, 3, 4], vec![4, 2, 0], vec![1]] {
            let blocked = attend_selected(&store, &q, &indices);
            let reference = attend_selected_reference(&store, &q, &indices);
            for (b, r) in blocked.weights.iter().zip(&reference.weights) {
                assert!((b - r).abs() <= 1e-5, "weights {b} vs {r}");
            }
            for (b, r) in blocked.output.iter().zip(&reference.output) {
                assert!((b - r).abs() <= 1e-4, "output {b} vs {r}");
            }
        }
    }

    #[test]
    fn selecting_the_important_token_gives_small_error() {
        // One key dominates the softmax; selecting just that token should
        // approximate full attention much better than selecting another.
        let store = store_with(
            vec![vec![8.0, 0.0], vec![0.0, 0.1], vec![0.1, 0.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]],
        );
        let q = [4.0, 0.0];
        let full = attend_full(&store, &q).output;
        let error = |indices: &[usize]| {
            attention_output_error(&full, &attend_selected(&store, &q, indices).output)
        };
        let (err_good, err_bad) = (error(&[0]), error(&[1]));
        assert!(err_good < err_bad);
        assert!(err_good < 0.1);
    }

    mod compressed_recall {
        use super::*;
        use clusterkv_kvcache::compressed::{
            compress_page, reconstruct_page_rows_reference, CompressedPage, CompressionConfig,
            QuantMode,
        };
        use clusterkv_tensor::rng::{gaussian_vec, seeded};
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Compressed-recall attention through the kept f32 round trip:
        /// fresh gathered copies, an ordered position → row map, every page
        /// reconstructed from the backing rows on the spot, row by row over
        /// whatever the gather or an earlier page put there.
        fn reference(
            store: &KvStore,
            selected: &[usize],
            pages: &[Vec<usize>],
            compression: CompressionConfig,
            query: &[f32],
        ) -> (Vec<f32>, Vec<f32>) {
            let mut k_sel = store.keys().select_rows(selected);
            let mut v_sel = store.values().select_rows(selected);
            let row_of: BTreeMap<usize, usize> = selected
                .iter()
                .enumerate()
                .map(|(row, &pos)| (pos, row))
                .collect();
            for members in pages {
                reconstruct_page_rows_reference(
                    (store.keys(), store.values()),
                    members,
                    compression,
                    (&mut k_sel, &mut v_sel),
                    |slot| row_of.get(&members[slot]).copied(),
                );
            }
            let mut weights = Vec::new();
            let mut out = vec![0.0; store.head_dim()];
            attend_into(&k_sel, &v_sel, None, query, &mut weights, &mut out);
            (weights, out)
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// Attend `selected` through pages sealed over `pages` in a
        /// workspace a longer selection left dirty — operand matrices three
        /// rows taller than this call's, a NaN in every cell, so one row
        /// without a writer poisons the output — and compare with the
        /// reference bit for bit. Every call must hand the position table
        /// back clear.
        fn check(
            store: &KvStore,
            selected: &[usize],
            pages: &[Vec<usize>],
            compression: CompressionConfig,
            query: &[f32],
            ws: &mut Workspace,
        ) {
            let dim = store.head_dim();
            let sealed: Vec<CompressedPage> = pages
                .iter()
                .map(|p| compress_page(store.keys(), store.values(), p, compression))
                .collect();
            for operand in [&mut ws.k_rows, &mut ws.v_rows] {
                operand.reshape(selected.len() + 3, dim);
                for row in 0..operand.rows() {
                    operand.row_mut(row).fill(f32::NAN);
                }
            }
            ws.q.clear();
            ws.q.extend_from_slice(query);
            let mut out = vec![f32::NAN; dim];
            attend_compressed_ws(store, selected, sealed.iter(), ws, &mut out);
            let (weights, expected) = reference(store, selected, pages, compression, query);
            assert_eq!(bits(&out), bits(&expected), "{compression}: output");
            assert_eq!(bits(&ws.weights), bits(&weights), "{compression}: weights");
            assert_eq!(ws.k_rows.shape(), (selected.len(), dim));
            assert!(
                ws.row_of.iter().all(|&row| row == usize::MAX),
                "{compression}: the position table is handed back clear"
            );
        }

        #[test]
        fn trimmed_pages_merged_pairs_and_repeated_positions_match_the_round_trip() {
            let (n, dim) = (64, 16);
            let mut rng = seeded(0xC0);
            let mut store = KvStore::new(dim);
            for t in 0..n {
                let mut key = gaussian_vec(&mut rng, dim, 0.0, 1.0);
                // Near-parallel neighbours, so the merging rungs have pairs
                // to merge: (5, 6) inside a fully selected page, (13, 14)
                // across the trim boundary of the last one.
                if t == 6 || t == 14 {
                    key = store.key(t - 1).iter().map(|x| 1.02 * x + 1e-3).collect();
                }
                store.append(&key, &gaussian_vec(&mut rng, dim, 0.0, 2.0));
            }
            let pages = vec![
                vec![4, 9, 10, 17, 30],
                vec![5, 6, 7, 8, 40, 41],
                vec![11, 12, 13, 14, 15, 16],
                // Positions two earlier pages already wrote, out of order,
                // beside one nobody selected: the later page's rows stand.
                vec![10, 50, 5, 9],
                // A page none of whose members is selected.
                vec![44, 45, 46],
            ];
            // Sinks and pending tokens outside every page, two whole pages,
            // the third trimmed to three of its six members, a position
            // selected twice (only its later row is a page's), and the
            // position being generated.
            let mut selected = vec![0, 1, 60, 61];
            selected.extend(&pages[0]);
            selected.extend(&pages[1]);
            selected.extend(&pages[2][..3]);
            selected.extend([9, n - 1]);
            let int4_merging = CompressionConfig::int4().with_merge_threshold(0.2);
            let int8_merging = CompressionConfig::int8().with_merge_threshold(0.2);
            for merging in [int4_merging, int8_merging] {
                let sealed =
                    |p: &Vec<usize>| compress_page(store.keys(), store.values(), p, merging);
                assert_eq!(sealed(&pages[1]).merged_pairs(), 1, "(5, 6) merges");
                assert_eq!(sealed(&pages[2]).merged_pairs(), 1, "(13, 14) merges");
            }

            // One workspace throughout: whatever a call leaves in it is the
            // next call's problem.
            let mut ws = Workspace::new();
            for compression in [
                CompressionConfig::lossless(),
                CompressionConfig::int8(),
                CompressionConfig::int4(),
                int4_merging,
                int8_merging,
            ] {
                for query_seed in 0..3 {
                    let query = gaussian_vec(&mut seeded(query_seed), dim, 0.0, 1.0);
                    check(&store, &selected, &pages, compression, &query, &mut ws);
                    // No page at all: the exact gather, row for row.
                    check(&store, &selected, &[], compression, &query, &mut ws);
                    let exact = attend_selected(&store, &query, &selected);
                    assert_eq!(bits(&ws.weights), bits(&exact.weights));
                }
            }
            // And the lossy rungs do change what is attended.
            let query = gaussian_vec(&mut seeded(0), dim, 0.0, 1.0);
            let lossless = CompressionConfig::lossless();
            let (_, exact) = reference(&store, &selected, &pages, lossless, &query);
            let (_, lossy) = reference(&store, &selected, &pages, int4_merging, &query);
            assert_ne!(exact, lossy);
        }

        #[test]
        fn a_second_call_at_the_same_context_grows_nothing() {
            let (n, dim) = (2048, 16);
            let mut rng = seeded(0xC1);
            let mut store = KvStore::new(dim);
            for _ in 0..n {
                let key = gaussian_vec(&mut rng, dim, 0.0, 1.0);
                store.append(&key, &gaussian_vec(&mut rng, dim, 0.0, 1.0));
            }
            let members: Vec<Vec<usize>> = (4..n - 8)
                .collect::<Vec<_>>()
                .chunks(80)
                .map(<[usize]>::to_vec)
                .collect();
            let int4 = CompressionConfig::int4();
            let sealed: Vec<CompressedPage> = members
                .iter()
                .map(|p| compress_page(store.keys(), store.values(), p, int4))
                .collect();
            let mut ws = Workspace::new();
            ws.q = gaussian_vec(&mut rng, dim, 0.0, 1.0);
            let mut out = vec![0.0f32; dim];
            let mut warm = None;
            // Different pages every call, the same context: the table is as
            // long as the store and stays that long, clear between calls,
            // and no buffer of the workspace grows after the first call.
            for first in [0, 7, 13, 2] {
                let picked = first..first + 6;
                let mut selected = vec![0, 1, 2, 3, n - 1];
                selected.extend(members[picked.clone()].iter().flatten());
                attend_compressed_ws(&store, &selected, sealed[picked].iter(), &mut ws, &mut out);
                assert!(ws.row_of.iter().all(|&row| row == usize::MAX));
                let now = (ws.row_of.len(), ws.allocated_bytes());
                assert_eq!(now.0, n, "one entry per stored position");
                assert_eq!(*warm.get_or_insert(now), now);
            }
        }

        proptest! {
            // Attending from sealed pages' codes against re-running the f32
            // round trip per call: lossless / int8 / int4, merging off and
            // at 0.2, random shapes and memberships, in a workspace every
            // call finds dirty (see `check`). Rows include both zeros,
            // all-zero values, a page of nothing but zeros (`scale == 0`)
            // and grid-edge magnitudes (`|x| == scale`); near-parallel
            // neighbours give the merging rungs pairs, the trimmed last page
            // cuts through them; one position is selected twice and some
            // selected tokens lie outside every page; one page names
            // positions other pages name too — before them or after them,
            // so it is overwritten or overwrites — and one page has no
            // selected member; the same selection is then attended with no
            // page at all. A negative zero survives because a page stores it
            // under the spare integer code, so even the sign of a zero logit
            // or output agrees. Non-finite KV is outside the contract — the
            // round trip spread one NaN over its row and one infinity over
            // its page, the grid has no code for them, and no finite weight
            // produces either (see `compressed.rs`).
            #[test]
            fn attending_from_codes_is_bit_identical_to_the_round_trip(
                n in 12usize..96,
                dim in 1usize..24,
                page_len in 1usize..14,
                seed in 0u64..1_000_000,
            ) {
                let mut rng = seeded(seed);
                let mut store = KvStore::new(dim);
                let zero_page = seed as usize % 5;
                for t in 0..n {
                    let mut key = gaussian_vec(&mut rng, dim, 0.0, 1.0);
                    let mut value = gaussian_vec(&mut rng, dim, 0.0, 2.0);
                    match (t + seed as usize) % 6 {
                        0 if t > 0 => {
                            key = store.key(t - 1).iter().map(|x| 1.02 * x + 1e-3).collect();
                        }
                        1 => value.fill(0.0),
                        2 => value.iter_mut().step_by(2).for_each(|x| *x = -0.0),
                        3 => key[0] = -7.5,
                        4 => key[dim - 1] = 7.5,
                        _ => {}
                    }
                    if t / page_len == zero_page {
                        key.fill(if t % 2 == 0 { 0.0 } else { -0.0 });
                        value.fill(-0.0);
                    }
                    store.append(&key, &value);
                }
                // Pages tile positions 2..n-2; the rest are sinks, pending
                // tokens and the position being generated.
                let tiles: Vec<Vec<usize>> = (2..n - 2)
                    .collect::<Vec<_>>()
                    .chunks(page_len)
                    .map(<[usize]>::to_vec)
                    .collect();
                let (mut pages, unpicked): (Vec<Vec<usize>>, Vec<Vec<usize>>) =
                    tiles.into_iter().partition(|p| (p[0] + seed as usize) % 3 < 2);
                let mut selected = vec![0, n - 1];
                for (i, page) in pages.iter().enumerate() {
                    let keep = if i + 1 == pages.len() { page.len().div_ceil(2) } else { page.len() };
                    selected.extend(&page[..keep]);
                }
                selected.push(selected[selected.len() / 2]);
                selected.push(1);
                // A page over every third selected position, last first.
                let twice: Vec<usize> = selected.iter().rev().step_by(3).copied().collect();
                let at = if seed % 2 == 0 { 0 } else { pages.len() };
                pages.insert(at, twice);
                pages.extend(unpicked.into_iter().take(1));
                let query = gaussian_vec(&mut rng, dim, 0.0, 1.0);
                let mut ws = Workspace::new();
                for quant in [QuantMode::Off, QuantMode::Int8, QuantMode::Int4] {
                    for merge_threshold in [0.0, 0.2] {
                        let compression = CompressionConfig { merge_threshold, quant };
                        check(&store, &selected, &pages, compression, &query, &mut ws);
                        check(&store, &selected, &[], compression, &query, &mut ws);
                    }
                }
            }
        }
    }

    #[test]
    fn error_of_full_selection_is_zero() {
        let store = store_with(
            vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            vec![vec![0.5, 0.5], vec![1.5, -0.5]],
        );
        let q = [1.0, 1.0];
        let err = attention_output_error(
            &attend_full(&store, &q).output,
            &attend_selected(&store, &q, &[0, 1]).output,
        );
        assert!(err < 1e-6);
    }
}
