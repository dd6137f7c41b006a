//! Experiment E15 — quality vs memory of the compressed KV tier
//! (DESIGN.md §9).
//!
//! Runs ClusterKV, Quest and H2O through the quality lane
//! ([`clusterkv_workloads::quality`]) across the compression ladder
//! (lossless → int8 → int8+merge → int4 → int4+merge) and gates the three
//! properties the tier promises, rather than assuming them:
//!
//! * **Lossless parity** — under the lossless config every method's
//!   per-step recall/error/selection vectors are *bit-identical* to the
//!   plain harness: the compressed tier is a pure pass-through when turned
//!   off.
//! * **Memory at bounded quality** — ClusterKV's int4+merge lane reaches at
//!   least [`RATIO_FLOOR`]x cold-KV memory reduction while its
//!   compression-aware perplexity stays within [`PPL_DELTA_CEILING`] of the
//!   lossless run.
//! * **Monotone frontier** — for every method, each compression step along
//!   the ladder's partial order (quantize coarser, or merge at fixed width)
//!   strictly shrinks bytes and never improves perplexity: points trade
//!   memory for quality, they do not get both.
//!
//! Run with: `cargo run --release -p clusterkv-bench --bin exp_quality`
//! (set `EXP_QUALITY_SMOKE=1` for the CI-sized episode, `--json` for the
//! machine-readable summary).

use clusterkv::{ClusterKvConfig, ClusterKvFactory};
use clusterkv_bench::{smoke, Json, Method, Report};
use clusterkv_kvcache::compressed::CompressionConfig;
use clusterkv_kvcache::types::Budget;
use clusterkv_metrics::{fmt, Table};
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_workloads::quality::{run_episode_quality, QualityLane, QualityResult};
use clusterkv_workloads::{
    run_episode, Episode, EpisodeConfig, LongBenchDataset, LongBenchProfile,
};

const SEED: u64 = 0xE15;
/// Gate: ClusterKV's int4+merge lane must shrink cold KV by at least this
/// factor.
const RATIO_FLOOR: f64 = 4.0;
/// Gate: the same lane's compression-aware perplexity may exceed the
/// lossless run by at most this much. The proxy's base is 10.2 (PG19 /
/// Llama-3-8B full attention), so this bounds the compression-induced
/// degradation to well under the gap selective attention itself causes.
const PPL_DELTA_CEILING: f64 = 1.5;
/// SLERP merge threshold of the `+merge` lanes (cosine distance).
const MERGE: f32 = 0.3;
/// Merging may not *improve* perplexity by more than this. Strict
/// monotonicity holds for quantization (same vectors, coarser grid) but not
/// for merging: replacing a pair by its SLERP mean changes the page's
/// max-abs quantization scales, which can coincidentally shrink the
/// quantization error of the surviving vectors by a hair.
const MERGE_PPL_SLACK: f64 = 0.05;

const SMOKE_VAR: &str = "EXP_QUALITY_SMOKE";

fn episode() -> Episode {
    let (context_len, decode_steps, num_topics) = if smoke(SMOKE_VAR) {
        (384, 12, 8)
    } else {
        (2048, 48, 24)
    };
    Episode::generate(
        EpisodeConfig::default()
            .with_context_len(context_len)
            .with_decode_steps(decode_steps)
            .with_num_topics(num_topics)
            .with_seed(SEED),
    )
}

fn budget() -> usize {
    if smoke(SMOKE_VAR) {
        96
    } else {
        512
    }
}

/// The compression ladder, lossless first. `(label, config)`.
fn ladder() -> Vec<(String, CompressionConfig)> {
    [
        CompressionConfig::lossless(),
        CompressionConfig::int8(),
        CompressionConfig::int8().with_merge_threshold(MERGE),
        CompressionConfig::int4(),
        CompressionConfig::int4().with_merge_threshold(MERGE),
    ]
    .into_iter()
    .map(|c| (c.to_string(), c))
    .collect()
}

/// Selector factory for `method` under `compression`. ClusterKV carries the
/// config in its own policy config (so its plans page by cluster and are
/// marked recall-compressed); the baselines are compression-oblivious — the
/// quality lane compresses their selections in positional blocks.
fn factory(method: Method, compression: CompressionConfig) -> Box<dyn SelectorFactory> {
    match method {
        Method::ClusterKv => Box::new(ClusterKvFactory::new(
            ClusterKvConfig::default()
                .with_tokens_per_cluster(16)
                .with_compression(compression),
        )),
        baseline => baseline.factory(),
    }
}

fn ctx(episode: &Episode) -> HeadContext {
    HeadContext::mha(2, 0, episode.config.head_dim)
}

fn run_lane(method: Method, episode: &Episode, compression: CompressionConfig) -> QualityResult {
    let factory = factory(method, compression);
    let mut selector = factory.create(ctx(episode));
    run_episode_quality(
        episode,
        selector.as_mut(),
        Budget::new(budget()),
        QualityLane::new(compression),
    )
}

struct MethodFrontier {
    method: Method,
    /// One point per ladder rung, in ladder order.
    points: Vec<(String, QualityResult)>,
}

fn main() {
    let out = Report::from_args();
    let episode = episode();
    let methods = [Method::ClusterKv, Method::Quest, Method::H2o];
    let rungs = ladder();

    out.say("# Quality vs memory of the compressed KV tier (DESIGN.md §9)\n");
    out.say(format_args!(
        "episode: {} context tokens, {} decode steps, budget {}{}\n",
        episode.config.context_len,
        episode.config.decode_steps,
        budget(),
        if smoke(SMOKE_VAR) {
            " (smoke scale)"
        } else {
            ""
        }
    ));

    // ---- Gate (a): lossless parity — the quality lane under the lossless
    // config reproduces the plain harness bit for bit, for every method.
    let mut parity_methods = 0usize;
    for method in methods {
        let f = factory(method, CompressionConfig::lossless());
        let mut plain = f.create(ctx(&episode));
        let baseline = run_episode(&episode, plain.as_mut(), Budget::new(budget()));
        let q = run_lane(method, &episode, CompressionConfig::lossless());
        assert_eq!(
            q.result.per_step_recall, baseline.per_step_recall,
            "{method}: lossless recall diverged from the plain harness"
        );
        assert_eq!(
            q.result.per_step_error, baseline.per_step_error,
            "{method}: lossless error diverged from the plain harness"
        );
        assert_eq!(
            q.result.per_step_selected, baseline.per_step_selected,
            "{method}: lossless selection diverged from the plain harness"
        );
        assert_eq!(
            q.compressed_bytes, q.exact_bytes,
            "{method}: lossless pages must be byte-equal"
        );
        assert!(
            q.per_step_reconstruction_error.iter().all(|&e| e == 0.0),
            "{method}: lossless reconstruction must be exact"
        );
        parity_methods += 1;
    }
    out.say(format_args!(
        "Lossless parity: {parity_methods} methods bit-identical to the \
         plain harness (recall, error, selection), compressed bytes \
         equal exact bytes, zero reconstruction error.\n"
    ));

    // ---- Frontier: every method across the ladder.
    let frontiers: Vec<MethodFrontier> = methods
        .iter()
        .map(|&method| MethodFrontier {
            method,
            points: rungs
                .iter()
                .map(|(label, c)| (label.clone(), run_lane(method, &episode, *c)))
                .collect(),
        })
        .collect();

    // ---- Gate (b): monotone frontier along the ladder's partial order.
    // Coarser quantization at a fixed merge setting, and merging at a fixed
    // width, must both shrink bytes and not improve perplexity. Quantization
    // edges are strictly monotone (same vectors, coarser grid); merge edges
    // get `MERGE_PPL_SLACK` (see its doc comment).
    // Ladder indices: 0 lossless, 1 int8, 2 int8+merge, 3 int4, 4 int4+merge.
    let quant_edges: [(usize, usize); 4] = [(0, 1), (1, 3), (0, 3), (2, 4)];
    let merge_edges: [(usize, usize); 2] = [(1, 2), (3, 4)];
    for f in &frontiers {
        for (edges, slack) in [(&quant_edges[..], 0.0), (&merge_edges[..], MERGE_PPL_SLACK)] {
            for &(a, b) in edges {
                let (la, qa) = &f.points[a];
                let (lb, qb) = &f.points[b];
                assert!(
                    qb.compressed_bytes < qa.compressed_bytes,
                    "{}: {lb} must store fewer bytes than {la} ({} vs {})",
                    f.method,
                    qb.compressed_bytes,
                    qa.compressed_bytes
                );
                assert!(
                    qb.perplexity() >= qa.perplexity() - slack,
                    "{}: {lb} must not beat {la} on perplexity ({} vs {})",
                    f.method,
                    qb.perplexity(),
                    qa.perplexity()
                );
            }
        }
    }

    // ---- Gate (c): ClusterKV's int4+merge lane reaches the memory floor at
    // bounded perplexity cost.
    let clusterkv = &frontiers[0];
    let (_, lossless) = &clusterkv.points[0];
    let (_, best) = &clusterkv.points[4];
    assert!(
        best.compression_ratio() >= RATIO_FLOOR,
        "ClusterKV int4+merge must reach {RATIO_FLOOR}x cold-KV reduction: {:.3}x",
        best.compression_ratio()
    );
    let ppl_delta = best.perplexity() - lossless.perplexity();
    assert!(
        ppl_delta <= PPL_DELTA_CEILING,
        "ClusterKV int4+merge perplexity delta {ppl_delta:.4} exceeds \
         {PPL_DELTA_CEILING} (lossless {:.4}, compressed {:.4})",
        lossless.perplexity(),
        best.perplexity()
    );
    assert!(
        best.merged_pairs > 0,
        "semantic clusters must yield SLERP merges"
    );

    let profile = LongBenchDataset::TwoWikiMqa.profile();
    for f in &frontiers {
        let mut table = Table::new(vec![
            "Config",
            "Ratio",
            "Recall",
            "Recon err",
            "Perplexity",
            "2WikiMQA",
        ]);
        for (label, q) in &f.points {
            table.row(vec![
                label.clone(),
                fmt(q.compression_ratio(), 2),
                fmt(q.result.mean_recall(), 3),
                fmt(q.mean_reconstruction_error(), 4),
                fmt(q.perplexity(), 3),
                fmt(q.score(&profile), 2),
            ]);
        }
        out.say(format_args!("## {}\n{}", f.method, table.render()));
    }
    out.say(format_args!(
        "Frontier gates: monotone along the ladder for all {} methods; \
         ClusterKV int4+merge reaches {:.2}x at perplexity delta \
         {:.3} (ceiling {PPL_DELTA_CEILING}).",
        frontiers.len(),
        best.compression_ratio(),
        ppl_delta
    ));

    out.emit(Json::obj([
        ("bench", "exp_quality".into()),
        ("smoke", smoke(SMOKE_VAR).into()),
        ("budget", budget().into()),
        ("lossless_parity_methods", parity_methods.into()),
        (
            "frontier",
            Json::Obj(
                frontiers
                    .iter()
                    .map(|f| (f.method.to_string(), frontier_json(f, &profile)))
                    .collect(),
            ),
        ),
    ]));
}

/// One method's ladder as `BENCH_quality.json` rows, in ladder order.
fn frontier_json(f: &MethodFrontier, profile: &LongBenchProfile) -> Json {
    Json::Arr(
        f.points
            .iter()
            .map(|(label, q)| {
                Json::row([
                    ("config", label.as_str().into()),
                    ("compression_ratio", Json::Fixed(q.compression_ratio(), 4)),
                    ("compressed_bytes", q.compressed_bytes.into()),
                    ("exact_bytes", q.exact_bytes.into()),
                    ("merged_pairs", q.merged_pairs.into()),
                    ("mean_recall", Json::Fixed(q.result.mean_recall(), 6)),
                    (
                        "reconstruction_error",
                        Json::Fixed(q.mean_reconstruction_error(), 6),
                    ),
                    ("perplexity", Json::Fixed(q.perplexity(), 6)),
                    ("longbench_score", Json::Fixed(q.score(profile), 4)),
                ])
            })
            .collect(),
    )
}
