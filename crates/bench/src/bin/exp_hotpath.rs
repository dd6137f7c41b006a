//! Experiment E13 — the blocked kernel layer vs the scalar reference
//! kernels on the decode hot path (DESIGN.md §6).
//!
//! Five measurements, all at long context (`n = 8192` tokens, `d = 64`):
//!
//! 1. **Centroid scoring** — one blocked matvec over an `n × d` matrix
//!    (`matvec_t_into` into a warm workspace) vs the scalar per-row
//!    `dot`-and-collect reference (`matvec_t_reference`).
//! 2. **K-means assignment** — the Gram-trick sweep with cached row /
//!    centroid norms (`assign_labels`) vs the per-pair `metric.distance`
//!    reference (`assign_labels_reference`, three scalar dots per pair under
//!    cosine).
//! 3. **Long-context decode step** — the fused ClusterKV single-head hot
//!    loop (centroid selection + gather-attend through one reusable
//!    workspace) vs the allocating scalar pipeline, reported as decode
//!    tokens/sec.
//!
//! 4. **Compressed recall** — attention over a budget-1024 selection whose
//!    clusters live in the int4 tier: dequantizing the selected members out
//!    of pages quantized once (`attend_compressed_ws`) vs re-running the f32
//!    merge + quantize round trip over every selected page's backing rows
//!    on each call (`reconstruct_page_rows_reference`, DESIGN.md §9).
//!
//! 5. **Compressed recall, cold** — the same attention when the rows are not
//!    in cache, which is how a serving step finds them: every call goes to
//!    the next of [`COLD_STORES`] stores of `n × d` (and that store's pages)
//!    under another plan, so a store is revisited only after the calls
//!    between have pushed its rows out of L2. Here `reference` is the
//!    lossless path — the exact scattered gather (`attend_into` with
//!    indices) — and `blocked` the compressed one, page codes read
//!    contiguously: the row says what the int4 tier costs or saves a head
//!    step against exact KV, where row 4 says what sealing pages once saves
//!    against redoing the round trip. Ungated.
//!
//! The first two are **gated** at ≥ 2×, the fourth at ≥ 3×: the kernel must
//! beat its reference by that much at `n = 8192` or the binary exits
//! non-zero — this is the repo's
//! perf floor for the kernel layer. Pass `--json` to emit a machine-readable
//! summary (CI archives it as `BENCH_hotpath.json` to seed the perf
//! trajectory). `EXP_HOTPATH_SMOKE=1` shrinks the trial counts (same `n`, so
//! the gate stays meaningful) for CI.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_hotpath`

use clusterkv::{
    assign_labels, assign_labels_reference, select_clusters, select_clusters_ws, ClusterKvConfig,
    DistanceMetric, SemanticClustering,
};
use clusterkv_bench::{smoke, Json, Report};
use clusterkv_kvcache::compressed::{
    compress_page, reconstruct_page_rows_reference, CompressedPage, CompressionConfig,
};
use clusterkv_kvcache::types::Budget;
use clusterkv_kvcache::KvStore;
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::attention::{
    attend_compressed_ws, attend_selected_reference, attend_selected_ws,
};
use clusterkv_tensor::kernels::{
    attend_into, matvec_t_into, matvec_t_reference, row_norms_sq_into, Workspace,
};
use clusterkv_tensor::rng::{gaussian_vec, seeded};
use clusterkv_tensor::Matrix;
use std::time::Instant;

const N: usize = 8192;
const DIM: usize = 64;
const SPEEDUP_FLOOR: f64 = 2.0;
/// Floor of the compressed-recall row: reading codes must beat redoing the
/// round trip by more than a kernel beats its scalar twin.
const RECALL_SPEEDUP_FLOOR: f64 = 3.0;

/// Stores the cold row cycles through: a call's exact rows are 0.5 MB and
/// its pages' codes 66 KB, so with 16 plans a store (see
/// [`bench_compressed_recall_cold`]) a trial walks 64 MB and 8 MB of them
/// between two visits of the same rows — past any L2.
const COLD_STORES: usize = 8;

const SMOKE_VAR: &str = "EXP_HOTPATH_SMOKE";

/// Best-of-`trials` wall-clock of `reps` calls to `f`, in seconds per call.
/// Best-of (not mean) rejects scheduler noise on shared CI hosts.
fn best_of<F: FnMut()>(trials: usize, reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

struct Section {
    name: &'static str,
    blocked_us: f64,
    reference_us: f64,
    /// Speedup the row must reach, if it is gated.
    floor: Option<f64>,
}

impl Section {
    fn speedup(&self) -> f64 {
        self.reference_us / self.blocked_us
    }
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded(seed);
    Matrix::from_flat(rows, cols, gaussian_vec(&mut rng, rows * cols, 0.0, 1.0)).unwrap()
}

fn bench_centroid_scoring(trials: usize, reps: usize) -> Section {
    let keys = random_matrix(N, DIM, 0xC0);
    let query = gaussian_vec(&mut seeded(0xC1), DIM, 0.0, 1.0);
    let mut ws = Workspace::new();
    matvec_t_into(&keys, &query, &mut ws.scores); // warm
    let mut sink = 0.0f32;
    let blocked = best_of(trials, reps, || {
        matvec_t_into(&keys, &query, &mut ws.scores);
        sink += ws.scores[0];
    });
    let reference = best_of(trials, reps, || {
        let scores = matvec_t_reference(&keys, &query);
        sink += scores[0];
    });
    assert!(sink.is_finite());
    Section {
        name: "centroid_scoring",
        blocked_us: blocked * 1e6,
        reference_us: reference * 1e6,
        floor: Some(SPEEDUP_FLOOR),
    }
}

fn bench_kmeans_assignment(trials: usize, reps: usize) -> Section {
    let keys = random_matrix(N, DIM, 0xA0);
    let k = (N / 80).max(4);
    let picks: Vec<usize> = (0..k).map(|c| c * N / k).collect();
    let centroids = keys.select_rows(&picks);
    let mut norms = Vec::new();
    row_norms_sq_into(&keys, &mut norms);
    let mut ws = Workspace::new();
    let metric = DistanceMetric::Cosine;
    let mut sink = 0usize;
    let blocked = best_of(trials, reps, || {
        sink += assign_labels(metric, &keys, &norms, &centroids, &mut ws)[0];
    });
    let reference = best_of(trials, reps, || {
        sink += assign_labels_reference(metric, &keys, &centroids)[0];
    });
    assert!(sink < usize::MAX);
    Section {
        name: "kmeans_assignment",
        blocked_us: blocked * 1e6,
        reference_us: reference * 1e6,
        floor: Some(SPEEDUP_FLOOR),
    }
}

/// The single-head decode hot loop at context `N`: plan a cluster selection
/// for the step's query, then attend over the selected tokens. The fused
/// path runs scoring, ranking and gather-attend through one reusable
/// workspace; the reference path is the allocating scalar pipeline.
fn bench_decode_step(trials: usize, steps: usize) -> (Section, f64) {
    let keys = random_matrix(N, DIM, 0xD0);
    let values = random_matrix(N, DIM, 0xD1);
    let mut store = KvStore::new(DIM);
    store.append_batch(&keys, &values);
    let mut clustering =
        SemanticClustering::new(ClusterKvConfig::default().with_tokens_per_cluster(80), DIM);
    clustering.prefill(&keys);
    let queries: Vec<Vec<f32>> = {
        let mut rng = seeded(0xD2);
        (0..steps)
            .map(|_| gaussian_vec(&mut rng, DIM, 0.0, 1.0))
            .collect()
    };
    let budget = Budget::new(1024);
    let mut ws = Workspace::new();
    let mut sink = 0.0f32;
    let blocked = best_of(trials, 1, || {
        for q in &queries {
            let plan = select_clusters_ws(q, &clustering, budget, &mut ws);
            attend_selected_ws(&store, q, &plan.token_indices, &mut ws);
            sink += ws.out[0];
        }
    }) / steps as f64;
    let reference = best_of(trials, 1, || {
        for q in &queries {
            let plan = select_clusters(q, &clustering, budget);
            let out = attend_selected_reference(&store, q, &plan.token_indices);
            sink += out.output[0];
        }
    }) / steps as f64;
    assert!(sink.is_finite());
    let section = Section {
        name: "decode_step",
        blocked_us: blocked * 1e6,
        reference_us: reference * 1e6,
        floor: None,
    };
    let tokens_per_sec = 1.0 / blocked;
    (section, tokens_per_sec)
}

/// Attention over the tokens a budget-1024 ClusterKV plan selects when its
/// clusters are recalled through the int4 tier: the selected members of
/// every selected cluster are attended through their quantized
/// representation. `blocked` reads them out of pages built once;
/// `reference` rebuilds each page's rows from the backing store through
/// the f32 round trip on every call, which is what a decode step did
/// before pages held codes. Selection itself is outside both timings.
fn bench_compressed_recall(trials: usize, steps: usize) -> Section {
    let keys = random_matrix(N, DIM, 0xE0);
    let values = random_matrix(N, DIM, 0xE1);
    let mut store = KvStore::new(DIM);
    store.append_batch(&keys, &values);
    let int4 = CompressionConfig::int4();
    let mut clustering =
        SemanticClustering::new(ClusterKvConfig::default().with_tokens_per_cluster(80), DIM);
    clustering.prefill(&keys);
    let metadata = clustering.metadata();
    let pages: Vec<CompressedPage> = (0..clustering.num_clusters())
        .map(|c| compress_page(&keys, &values, metadata.cluster_tokens(c), int4))
        .collect();
    let mut ws = Workspace::new();
    let mut rng = seeded(0xE2);
    let plans: Vec<_> = (0..steps)
        .map(|_| {
            let q = gaussian_vec(&mut rng, DIM, 0.0, 1.0);
            let plan = select_clusters_ws(&q, &clustering, Budget::new(1024), &mut ws);
            (q, plan)
        })
        .collect();
    let mut out = vec![0.0f32; DIM];
    let mut sink = 0.0f32;
    let blocked = best_of(trials, 1, || {
        for (q, plan) in &plans {
            ws.q.clone_from(q);
            let selected = plan.selected_clusters.iter().map(|&c| &pages[c]);
            attend_compressed_ws(&store, &plan.token_indices, selected, &mut ws, &mut out);
            sink += out[0];
        }
    }) / steps as f64;
    let mut row_of = Vec::new();
    let reference = best_of(trials, 1, || {
        for (q, plan) in &plans {
            keys.select_rows_into(&plan.token_indices, &mut ws.k_rows);
            values.select_rows_into(&plan.token_indices, &mut ws.v_rows);
            row_of.clear();
            row_of.resize(N, usize::MAX);
            for (row, &pos) in plan.token_indices.iter().enumerate() {
                row_of[pos] = row;
            }
            for &c in &plan.selected_clusters {
                let members = metadata.cluster_tokens(c);
                reconstruct_page_rows_reference(
                    (&keys, &values),
                    members,
                    int4,
                    (&mut ws.k_rows, &mut ws.v_rows),
                    |slot| Some(row_of[members[slot]]).filter(|&row| row != usize::MAX),
                );
            }
            attend_into(&ws.k_rows, &ws.v_rows, None, q, &mut ws.weights, &mut out);
            sink += out[0];
        }
    }) / steps as f64;
    assert!(sink.is_finite());
    Section {
        name: "compressed_recall",
        blocked_us: blocked * 1e6,
        reference_us: reference * 1e6,
        floor: Some(RECALL_SPEEDUP_FLOOR),
    }
}

/// [`bench_compressed_recall`]'s attention with nothing in cache: call `i`
/// attends plan `i` over store `i % COLD_STORES`, once exactly (the fused
/// gather-attend of a lossless session) and once through that store's int4
/// pages. The stores hold different values under one clustering — the
/// memberships, and with them every access pattern, are those of a real
/// prefill; only what is read differs from store to store.
fn bench_compressed_recall_cold(trials: usize) -> Section {
    let int4 = CompressionConfig::int4();
    let mut clustering =
        SemanticClustering::new(ClusterKvConfig::default().with_tokens_per_cluster(80), DIM);
    let stores: Vec<KvStore> = (0..COLD_STORES as u64)
        .map(|s| {
            let mut store = KvStore::new(DIM);
            store.append_batch(
                &random_matrix(N, DIM, 0xF0 + 2 * s),
                &random_matrix(N, DIM, 0xF1 + 2 * s),
            );
            store
        })
        .collect();
    clustering.prefill(stores[0].keys());
    let metadata = clustering.metadata();
    let pages: Vec<Vec<CompressedPage>> = stores
        .iter()
        .map(|store| {
            (0..clustering.num_clusters())
                .map(|c| {
                    let members = metadata.cluster_tokens(c);
                    compress_page(store.keys(), store.values(), members, int4)
                })
                .collect()
        })
        .collect();
    let mut ws = Workspace::new();
    let mut rng = seeded(0xF2);
    let calls = 16 * COLD_STORES;
    let plans: Vec<_> = (0..calls)
        .map(|_| {
            let q = gaussian_vec(&mut rng, DIM, 0.0, 1.0);
            let plan = select_clusters_ws(&q, &clustering, Budget::new(1024), &mut ws);
            (q, plan)
        })
        .collect();
    let mut out = vec![0.0f32; DIM];
    let mut sink = 0.0f32;
    let compressed = best_of(trials, 1, || {
        for (i, (q, plan)) in plans.iter().enumerate() {
            let (store, pages) = (&stores[i % COLD_STORES], &pages[i % COLD_STORES]);
            ws.q.clone_from(q);
            let selected = plan.selected_clusters.iter().map(|&c| &pages[c]);
            attend_compressed_ws(store, &plan.token_indices, selected, &mut ws, &mut out);
            sink += out[0];
        }
    }) / calls as f64;
    let exact = best_of(trials, 1, || {
        for (i, (q, plan)) in plans.iter().enumerate() {
            attend_selected_ws(&stores[i % COLD_STORES], q, &plan.token_indices, &mut ws);
            sink += ws.out[0];
        }
    }) / calls as f64;
    assert!(sink.is_finite());
    Section {
        name: "compressed_recall_cold",
        blocked_us: compressed * 1e6,
        reference_us: exact * 1e6,
        floor: None,
    }
}

fn main() {
    let out = Report::from_args();
    let (trials, reps, steps) = if smoke(SMOKE_VAR) {
        (2, 3, 8)
    } else {
        (5, 10, 24)
    };

    let scoring = bench_centroid_scoring(trials, reps);
    let assignment = bench_kmeans_assignment(trials, reps.clamp(3, 5));
    let (decode, tokens_per_sec) = bench_decode_step(trials, steps);
    let recall = bench_compressed_recall(trials, steps);
    let recall_cold = bench_compressed_recall_cold(trials);
    let sections = [scoring, assignment, decode, recall, recall_cold];

    out.emit(
        Json::obj([
            ("bench", "exp_hotpath".into()),
            ("n", N.into()),
            ("dim", DIM.into()),
            ("smoke", smoke(SMOKE_VAR).into()),
            ("threads", rayon::current_num_threads().into()),
            (
                "scale",
                Json::obj([
                    ("trials", trials.into()),
                    ("reps", reps.into()),
                    ("decode_steps", steps.into()),
                ]),
            ),
            ("decode_tokens_per_sec", Json::Fixed(tokens_per_sec, 1)),
            (
                "sections",
                Json::Obj(
                    sections
                        .iter()
                        .map(|s| {
                            let section = Json::obj([
                                ("blocked_us", Json::Fixed(s.blocked_us, 2)),
                                ("reference_us", Json::Fixed(s.reference_us, 2)),
                                ("speedup", Json::Fixed(s.speedup(), 3)),
                                ("gated", s.floor.is_some().into()),
                                ("floor", s.floor.map_or(Json::Null, |f| Json::Fixed(f, 1))),
                            ]);
                            (s.name.to_string(), section)
                        })
                        .collect(),
                ),
            ),
        ])
        .compact(),
    );
    out.say(format_args!(
        "# Hot-path kernels — blocked vs reference at n = {N}, d = {DIM}\n"
    ));
    let mut table = Table::new(vec![
        "Kernel",
        "Blocked (us)",
        "Reference (us)",
        "Speedup",
        "Gate",
    ]);
    for s in &sections {
        table.row(vec![
            s.name.to_string(),
            fmt(s.blocked_us, 1),
            fmt(s.reference_us, 1),
            format!("{}x", fmt(s.speedup(), 2)),
            s.floor
                .map_or("-".to_string(), |floor| format!(">= {floor}x")),
        ]);
    }
    out.say(table.render());
    out.say(format_args!(
        "Long-context decode step (selection + attend, budget 1024): \
         {} tokens/sec fused vs {} tokens/sec reference.",
        fmt(tokens_per_sec, 0),
        fmt(1e6 / sections[2].reference_us, 0),
    ));

    // The perf floor: blocked kernels must beat the scalar references by
    // >= 2x, and reading sealed codes must beat redoing the round trip by
    // >= 3x. A regression here fails CI.
    for s in &sections {
        if let Some(floor) = s.floor {
            assert!(
                s.speedup() >= floor,
                "{} speedup {:.2}x is below the {floor}x floor \
                 (blocked {:.1}us vs reference {:.1}us)",
                s.name,
                s.speedup(),
                s.blocked_us,
                s.reference_us
            );
        }
    }
    out.say("\nGate passed: every gated row is at or above its floor.");
}
