//! Fixture-corpus proof of every analyzer rule: each rule has at least one
//! must-flag and one must-pass snippet, plus an `analyzer:allow` escape
//! test. Fixtures live in `fixtures/` (skipped by the workspace walker, so
//! the corpus can contain violations without failing the workspace run —
//! `workspace_clean.rs` proves that separately).

use std::fs;
use std::path::PathBuf;

use clusterkv_analyzer::config::Policy;
use clusterkv_analyzer::rules::{
    analyze_source, Diagnostic, FLOAT_TOTAL_ORDER, NO_ALLOC_IN_KERNELS, NO_HASHMAP_ITERATION_ORDER,
    NO_PANIC_IN_RECOVERY, NO_WALL_CLOCK, UNSAFE_GATE,
};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Analyze a fixture as if it lived at a production path in some crate.
fn run(name: &str) -> Vec<Diagnostic> {
    let rel = format!("crates/example/src/{name}");
    analyze_source(&Policy::repo(), &rel, &fixture(name))
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn float_total_order_flags_and_passes() {
    let flagged = run("float_total_order_flag.rs");
    assert_eq!(rules_of(&flagged), vec![FLOAT_TOTAL_ORDER]);
    assert_eq!(flagged[0].line, 5, "finding points at the sort line");
    assert!(run("float_total_order_pass.rs").is_empty());
}

#[test]
fn float_total_order_allow_escape_suppresses_one_site_only() {
    let diags = run("float_total_order_allow.rs");
    assert_eq!(rules_of(&diags), vec![FLOAT_TOTAL_ORDER]);
    assert_eq!(diags[0].line, 8, "only the unescaped second sort flags");
}

#[test]
fn hashmap_order_flags_and_passes() {
    let flagged = run("hashmap_order_flag.rs");
    assert_eq!(
        flagged.len(),
        3,
        "import, field type, constructor: {flagged:?}"
    );
    assert!(flagged.iter().all(|d| d.rule == NO_HASHMAP_ITERATION_ORDER));
    assert!(run("hashmap_order_pass.rs").is_empty());
}

#[test]
fn hashmap_order_is_exempt_in_test_paths() {
    // The same must-flag source is fine when it lives under tests/.
    let src = fixture("hashmap_order_flag.rs");
    let diags = analyze_source(&Policy::repo(), "crates/example/tests/report.rs", &src);
    assert!(diags.is_empty(), "tests may use hash containers: {diags:?}");
}

#[test]
fn wall_clock_flags_and_passes() {
    let flagged = run("wall_clock_flag.rs");
    assert_eq!(flagged.len(), 4, "import pair + body pair: {flagged:?}");
    assert!(flagged.iter().all(|d| d.rule == NO_WALL_CLOCK));
    assert!(run("wall_clock_pass.rs").is_empty());
}

#[test]
fn wall_clock_is_allowed_under_bench_paths() {
    let src = fixture("wall_clock_flag.rs");
    let rel = "crates/bench/src/bin/exp.rs";
    let diags = analyze_source(&Policy::repo(), rel, &src);
    assert!(diags.is_empty(), "{rel} may read wall clocks: {diags:?}");
}

#[test]
fn alloc_in_kernels_flags_and_passes() {
    let flagged = run("alloc_in_kernels_flag.rs");
    assert_eq!(flagged.len(), 3, "vec!, collect, clone: {flagged:?}");
    assert!(flagged.iter().all(|d| d.rule == NO_ALLOC_IN_KERNELS));
    assert!(run("alloc_in_kernels_pass.rs").is_empty());
}

#[test]
fn lookahead_hotpath_kernel_flags_and_passes() {
    // The prefetch lookahead kernel's no-alloc contract (DESIGN.md §10),
    // proven on fixtures shaped like the real `lookahead_clusters_ws`: the
    // per-step-allocating variant flags, the workspace-reusing variant —
    // cold constructor included — is clean.
    let flagged = run("lookahead_hotpath_flag.rs");
    assert_eq!(
        flagged.len(),
        3,
        "with_capacity, collect, to_vec: {flagged:?}"
    );
    assert!(flagged.iter().all(|d| d.rule == NO_ALLOC_IN_KERNELS));
    assert!(run("lookahead_hotpath_pass.rs").is_empty());
}

#[test]
fn no_panic_in_recovery_flags_and_passes() {
    let flagged = run("no_panic_in_recovery_flag.rs");
    assert_eq!(flagged.len(), 3, "unwrap, panic!, expect: {flagged:?}");
    assert!(flagged.iter().all(|d| d.rule == NO_PANIC_IN_RECOVERY));
    assert!(run("no_panic_in_recovery_pass.rs").is_empty());
}

#[test]
fn unsafe_gate_flags_without_allowlist_entry() {
    let flagged = run("unsafe_gate_flag.rs");
    assert_eq!(rules_of(&flagged), vec![UNSAFE_GATE]);
}

#[test]
fn unsafe_gate_passes_with_allowlist_and_safety_comment() {
    // A policy that allowlists the fixture path stands in for the repo
    // policy's tests/zero_alloc.rs entry.
    let mut policy = Policy::repo();
    policy
        .unsafe_allowlist
        .push("crates/example/src/unsafe_gate_pass.rs".to_string());
    let src = fixture("unsafe_gate_pass.rs");
    let diags = analyze_source(&policy, "crates/example/src/unsafe_gate_pass.rs", &src);
    assert!(diags.is_empty(), "allowlisted + SAFETY comment: {diags:?}");
    // Without the allowlist entry the very same file must flag.
    assert_eq!(rules_of(&run("unsafe_gate_pass.rs")), vec![UNSAFE_GATE]);
}

#[test]
fn unsafe_gate_flags_missing_safety_comment_even_when_allowlisted() {
    let mut policy = Policy::repo();
    policy
        .unsafe_allowlist
        .push("crates/example/src/unsafe_gate_missing_safety.rs".to_string());
    let src = fixture("unsafe_gate_missing_safety.rs");
    let diags = analyze_source(
        &policy,
        "crates/example/src/unsafe_gate_missing_safety.rs",
        &src,
    );
    assert_eq!(rules_of(&diags), vec![UNSAFE_GATE]);
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn every_shipped_rule_has_a_flagging_fixture() {
    // The acceptance criterion, executable: each rule in the catalog is
    // proven by at least one fixture the analyzer flags.
    let mut proven: Vec<&'static str> = Vec::new();
    for name in [
        "float_total_order_flag.rs",
        "hashmap_order_flag.rs",
        "wall_clock_flag.rs",
        "alloc_in_kernels_flag.rs",
        "unsafe_gate_flag.rs",
        "no_panic_in_recovery_flag.rs",
    ] {
        proven.extend(rules_of(&run(name)));
    }
    for rule in clusterkv_analyzer::rules::RULES {
        assert!(
            proven.contains(&rule.name),
            "rule {} has no flagging fixture",
            rule.name
        );
    }
}
