//! Analyzer policy: the `analyzer.toml` that isn't.
//!
//! The workspace is offline (no TOML parser to pull in) and the policy is
//! small, so configuration lives here as Rust constants compiled into the
//! binary — same philosophy as `crates/shims`: make the dependency's *shape*
//! explicit instead of importing it. Changing policy is a reviewed code
//! change, which is exactly what you want for lint escapes.
//!
//! All paths below are workspace-relative with `/` separators, as produced
//! by [`crate::workspace_files`].

/// Directory *names* never descended into anywhere in the tree.
///
/// `fixtures` is skipped so the analyzer's own must-flag corpus
/// (`crates/analyzer/fixtures/`) doesn't fail the workspace run it exists
/// to test.
pub const SKIP_DIR_NAMES: &[&str] = &["target", ".git", "fixtures"];

/// Path prefixes whose files count as test code: every rule that exempts
/// `#[cfg(test)]` regions also exempts these files wholesale.
pub const TEST_PATH_MARKERS: &[&str] = &["tests/", "benches/"];

/// Files blessed to rank floats with `partial_cmp`: the total-order helpers
/// themselves. Everything else must go through
/// `clusterkv_tensor::vector::{argsort_descending, top_k_indices}` or
/// `f32::total_cmp`.
pub const FLOAT_ORDER_BLESSED: &[&str] = &["crates/tensor/src/vector.rs"];

/// Path prefixes allowed to read wall clocks (`Instant`, `SystemTime`).
/// Everything else models time as `clusterkv_sched::Seconds`.
pub const WALL_CLOCK_ALLOWED: &[&str] = &["crates/bench/"];

/// Files allowed to contain `unsafe` at all. Each block still needs a
/// `// SAFETY:` comment immediately above it; files not listed here get a
/// diagnostic for every `unsafe` token.
pub const UNSAFE_ALLOWLIST: &[&str] = &["tests/zero_alloc.rs"];

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit
/// (attributes or the `impl`/`fn` header line may intervene).
pub const SAFETY_COMMENT_WINDOW: usize = 3;

/// The policy a single analysis run executes under. [`Policy::repo`] is the
/// workspace's committed configuration; tests build custom policies to prove
/// rule mechanics (e.g. the unsafe allowlist) against fixture files.
#[derive(Debug, Clone)]
pub struct Policy {
    pub float_order_blessed: Vec<String>,
    pub wall_clock_allowed: Vec<String>,
    pub unsafe_allowlist: Vec<String>,
    pub test_path_markers: Vec<String>,
}

impl Policy {
    /// The committed workspace policy.
    pub fn repo() -> Self {
        Policy {
            float_order_blessed: to_owned(FLOAT_ORDER_BLESSED),
            wall_clock_allowed: to_owned(WALL_CLOCK_ALLOWED),
            unsafe_allowlist: to_owned(UNSAFE_ALLOWLIST),
            test_path_markers: to_owned(TEST_PATH_MARKERS),
        }
    }

    /// Is `rel_path` test code by location (as opposed to `#[cfg(test)]`
    /// region, which is decided per-token by the rule engine)?
    pub fn is_test_path(&self, rel_path: &str) -> bool {
        self.test_path_markers
            .iter()
            .any(|m| rel_path.starts_with(m.as_str()) || rel_path.contains(&format!("/{m}")))
    }

    pub fn is_float_order_blessed(&self, rel_path: &str) -> bool {
        self.float_order_blessed.iter().any(|p| p == rel_path)
    }

    pub fn is_wall_clock_allowed(&self, rel_path: &str) -> bool {
        self.wall_clock_allowed
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    pub fn is_unsafe_allowlisted(&self, rel_path: &str) -> bool {
        self.unsafe_allowlist.iter().any(|p| p == rel_path)
    }
}

fn to_owned(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_policy_matches_the_constants() {
        let p = Policy::repo();
        assert!(p.is_float_order_blessed("crates/tensor/src/vector.rs"));
        assert!(!p.is_float_order_blessed("crates/tensor/src/svd.rs"));
        assert!(p.is_wall_clock_allowed("crates/bench/src/bin/exp_hotpath.rs"));
        assert!(!p.is_wall_clock_allowed("crates/shims/rayon/src/lib.rs"));
        assert!(!p.is_wall_clock_allowed("crates/sched/src/lib.rs"));
        assert!(p.is_unsafe_allowlisted("tests/zero_alloc.rs"));
        assert!(!p.is_unsafe_allowlisted("crates/tensor/src/kernels.rs"));
    }

    #[test]
    fn test_paths_cover_root_and_nested_test_dirs() {
        let p = Policy::repo();
        assert!(p.is_test_path("tests/serving.rs"));
        assert!(p.is_test_path("crates/kvcache/tests/properties.rs"));
        assert!(p.is_test_path("crates/tensor/benches/kernels.rs"));
        assert!(!p.is_test_path("crates/tensor/src/kernels.rs"));
        assert!(!p.is_test_path("crates/model/src/serve.rs"));
    }
}
