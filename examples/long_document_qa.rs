//! Long-document QA: compare recall and score of ClusterKV against Quest and
//! InfiniGen on a LongBench-style synthetic retrieval task.
//!
//! ```bash
//! cargo run --release -p clusterkv-repro --example long_document_qa
//! ```
//!
//! This is the workload the paper's introduction motivates: a long document
//! whose relevant facts move around as the answer is generated. The example
//! prints, per method, the recall of the truly important tokens and the
//! dataset-style score at a 512-token budget.

use clusterkv::ClusterKvFactory;
use clusterkv_baselines::{InfiniGenFactory, QuestFactory};
use clusterkv_kvcache::types::Budget;
use clusterkv_model::policy::{HeadContext, SelectorFactory};
use clusterkv_workloads::{run_episode, Episode, LongBenchDataset};

fn main() {
    let dataset = LongBenchDataset::HotpotQa;
    let profile = dataset.profile();
    let episode = Episode::generate(profile.episode);
    let budget = Budget::new(512);

    println!(
        "dataset: {dataset} ({} metric, {} context tokens, {} decode steps)\n",
        profile.metric, profile.episode.context_len, profile.episode.decode_steps
    );
    println!(
        "{:<12} {:>8} {:>12} {:>10}",
        "method", "recall", "attn error", "score"
    );

    let factories: Vec<Box<dyn SelectorFactory>> = vec![
        Box::new(QuestFactory::default()),
        Box::new(InfiniGenFactory::default()),
        Box::new(ClusterKvFactory::default()),
    ];
    for factory in &factories {
        let mut selector = factory.create(HeadContext::mha(2, 0, profile.episode.head_dim));
        let result = run_episode(&episode, selector.as_mut(), budget);
        println!(
            "{:<12} {:>8.3} {:>12.3} {:>10.2}",
            factory.name(),
            result.mean_recall(),
            result.mean_error(),
            profile.score(&result)
        );
    }
    println!(
        "\nFull-KV reference score for this dataset: {:.2}",
        profile.full_kv_score
    );
}
