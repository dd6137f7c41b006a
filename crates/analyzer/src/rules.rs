//! The rule engine: repo invariants as deny-by-default lints.
//!
//! Each rule is a small pattern match over the lexed token stream of one
//! file (comments and string literals are never matched — see
//! [`crate::lexer`]), scoped by three kinds of region information the engine
//! reconstructs lexically:
//!
//! - **`#[cfg(test)]` regions** — brace-balanced bodies following a
//!   `cfg(test)` attribute (`not(test)` is recognised and excluded). Rules
//!   that only guard *production* determinism skip these.
//! - **hot-path regions** — the brace-balanced body of the first `fn`
//!   following a `// analyzer: hot-path` comment. The no-alloc rule applies
//!   only here.
//! - **allow escapes** — `// analyzer:allow(rule, reason)` on the same line
//!   as the finding or on the line(s) immediately above it suppresses that
//!   one rule at that one site. Escapes are greppable and reviewed.
//!
//! The catalog (see DESIGN.md §7 for the rationale of each):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-total-order` | scores are ranked with a total order, NaN-safe |
//! | `no-hashmap-iteration-order` | reports/traces/token streams never
//! |   | depend on hash iteration order |
//! | `no-wall-clock` | simulation time is modeled, never sampled |
//! | `no-alloc-in-kernels` | warm kernel hot loops do not allocate |
//! | `unsafe-gate` | `unsafe` needs an allowlist entry and a SAFETY note |
//! | `no-panic-in-recovery` | recovery paths degrade, they never panic |
//!
//! Like hot-path regions, **recovery regions** are the brace-balanced body
//! of the first `fn` following a `// analyzer: recovery-path` comment; the
//! no-panic rule applies only there.

use crate::config::{Policy, SAFETY_COMMENT_WINDOW};
use crate::lexer::{lex, Token, TokenKind};

/// Rule: float ranking must use a total order.
pub const FLOAT_TOTAL_ORDER: &str = "float-total-order";
/// Rule: no HashMap/HashSet in deterministic production code.
pub const NO_HASHMAP_ITERATION_ORDER: &str = "no-hashmap-iteration-order";
/// Rule: wall clocks only in the bench crate.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule: no allocation in `analyzer: hot-path` regions.
pub const NO_ALLOC_IN_KERNELS: &str = "no-alloc-in-kernels";
/// Rule: `unsafe` requires allowlist + SAFETY comment.
pub const UNSAFE_GATE: &str = "unsafe-gate";
/// Rule: no `unwrap`/`expect`/`panic!` in `analyzer: recovery-path` regions.
pub const NO_PANIC_IN_RECOVERY: &str = "no-panic-in-recovery";

/// Static description of one rule, for `--json` output and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Every shipped rule, in stable order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: FLOAT_TOTAL_ORDER,
        summary: "float scores must be ranked with a total order (total_cmp / argsort helpers), \
                  never partial_cmp",
    },
    RuleInfo {
        name: NO_HASHMAP_ITERATION_ORDER,
        summary: "no HashMap/HashSet in non-test code: iteration order is nondeterministic; \
                  use BTreeMap/BTreeSet or sort explicitly",
    },
    RuleInfo {
        name: NO_WALL_CLOCK,
        summary: "Instant/SystemTime only under crates/bench; modeled time goes through Seconds",
    },
    RuleInfo {
        name: NO_ALLOC_IN_KERNELS,
        summary: "no allocating calls inside `analyzer: hot-path` fn bodies (the static \
                  complement of tests/zero_alloc.rs)",
    },
    RuleInfo {
        name: UNSAFE_GATE,
        summary: "unsafe blocks need a // SAFETY: comment and an analyzer allowlist entry",
    },
    RuleInfo {
        name: NO_PANIC_IN_RECOVERY,
        summary: "no unwrap/expect/panic! inside `analyzer: recovery-path` fn bodies: fault \
                  handling must degrade (Result / default), never abort the simulation",
    },
];

/// One finding, pointing at a token in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

/// Line regions (inclusive) reconstructed from the token stream.
#[derive(Debug, Default)]
struct Regions {
    /// Bodies of `#[cfg(test)]` items.
    test: Vec<(usize, usize)>,
    /// Bodies of `// analyzer: hot-path` fns.
    hot: Vec<(usize, usize)>,
    /// Bodies of `// analyzer: recovery-path` fns.
    recovery: Vec<(usize, usize)>,
    /// Lines at which a given rule is suppressed: `(rule, line)`.
    allows: Vec<(String, usize)>,
    /// Lines carrying a `SAFETY:` comment.
    safety: Vec<usize>,
}

impl Regions {
    fn in_test(&self, line: usize) -> bool {
        self.test.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn in_hot(&self, line: usize) -> bool {
        self.hot.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn in_recovery(&self, line: usize) -> bool {
        self.recovery.iter().any(|&(a, b)| line >= a && line <= b)
    }

    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|(r, l)| r == rule && *l == line)
    }

    fn has_safety_above(&self, line: usize) -> bool {
        self.safety
            .iter()
            .any(|&l| l <= line && line - l <= SAFETY_COMMENT_WINDOW)
    }
}

/// Analyze one file's source under `policy`. `rel_path` is the
/// workspace-relative path with `/` separators (it drives the per-path
/// policy: blessed files, allowed dirs, test dirs).
pub fn analyze_source(policy: &Policy, rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| {
            !matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let regions = build_regions(&tokens, &code);

    let mut diags = Vec::new();
    rule_float_total_order(policy, rel_path, &tokens, &code, &mut diags);
    rule_no_hashmap(policy, rel_path, &tokens, &code, &regions, &mut diags);
    rule_no_wall_clock(policy, rel_path, &tokens, &code, &mut diags);
    rule_no_alloc_in_kernels(rel_path, &tokens, &code, &regions, &mut diags);
    rule_unsafe_gate(policy, rel_path, &tokens, &code, &regions, &mut diags);
    rule_no_panic_in_recovery(rel_path, &tokens, &code, &regions, &mut diags);

    diags.retain(|d| !regions.allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

// ---------------------------------------------------------------- regions

fn build_regions(tokens: &[Token], code: &[usize]) -> Regions {
    let mut regions = Regions::default();

    // Comment-driven regions: hot-path markers, allow escapes, SAFETY notes.
    for (i, t) in tokens.iter().enumerate() {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = &t.text;
        if text.contains("analyzer:hot-path") || text.contains("analyzer: hot-path") {
            if let Some(range) = next_fn_body_lines(tokens, i + 1) {
                regions.hot.push(range);
            }
        }
        if text.contains("analyzer:recovery-path") || text.contains("analyzer: recovery-path") {
            if let Some(range) = next_fn_body_lines(tokens, i + 1) {
                regions.recovery.push(range);
            }
        }
        if let Some(rule) = parse_allow(text) {
            regions.allows.push((rule.clone(), t.line));
            // An allow on its own line also covers the next code line.
            if let Some(&ci) = code.iter().find(|&&ci| tokens[ci].line > t.line) {
                regions.allows.push((rule, tokens[ci].line));
            }
        }
        if text.contains("SAFETY:") {
            regions.safety.push(t.line);
        }
    }

    // `#[cfg(test)]` regions over code tokens.
    let mut k = 0;
    while k + 1 < code.len() {
        if is_punct(tokens, code, k, "#") && is_punct(tokens, code, k + 1, "[") {
            let attr_start_line = tokens[code[k]].line;
            if let Some((end_k, is_test_attr)) = scan_attribute(tokens, code, k + 1) {
                if is_test_attr {
                    if let Some(close_line) = item_end_line(tokens, code, end_k + 1) {
                        regions.test.push((attr_start_line, close_line));
                    }
                }
                k = end_k + 1;
                continue;
            }
        }
        k += 1;
    }

    regions
}

/// Parse `analyzer:allow(rule[, reason])` out of a comment, returning the
/// rule name.
fn parse_allow(comment: &str) -> Option<String> {
    let idx = comment.find("analyzer:allow(")?;
    let rest = &comment[idx + "analyzer:allow(".len()..];
    let end = rest.find([',', ')'])?;
    let rule = rest[..end].trim();
    if rule.is_empty() {
        None
    } else {
        Some(rule.to_string())
    }
}

fn is_punct(tokens: &[Token], code: &[usize], k: usize, s: &str) -> bool {
    code.get(k)
        .map(|&i| tokens[i].kind == TokenKind::Punct && tokens[i].text == s)
        .unwrap_or(false)
}

fn ident_at<'t>(tokens: &'t [Token], code: &[usize], k: usize) -> Option<&'t str> {
    code.get(k).and_then(|&i| {
        if tokens[i].kind == TokenKind::Ident {
            Some(tokens[i].text.as_str())
        } else {
            None
        }
    })
}

/// Scan an attribute starting at the `[` code index. Returns the code index
/// of the matching `]` and whether the attribute is a `cfg` that *enables*
/// `test` (i.e. `test` appears outside any `not(…)`).
fn scan_attribute(tokens: &[Token], code: &[usize], open_k: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut is_cfg = false;
    let mut test_enabled = false;
    // Stack of predicate names for paren groups: `not`, `all`, `any`, `cfg`.
    let mut preds: Vec<String> = Vec::new();
    let mut last_ident: Option<String> = None;
    let mut k = open_k;
    loop {
        let &i = code.get(k)?;
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return Some((k, is_cfg && test_enabled));
                }
            }
            (TokenKind::Punct, "(") => {
                preds.push(last_ident.take().unwrap_or_default());
            }
            (TokenKind::Punct, ")") => {
                preds.pop();
            }
            (TokenKind::Ident, name) => {
                if name == "cfg" {
                    is_cfg = true;
                }
                if name == "test" && !preds.iter().any(|p| p == "not") {
                    test_enabled = true;
                }
                last_ident = Some(name.to_string());
            }
            _ => {}
        }
        k += 1;
    }
}

/// From code index `start` (just past an attribute's `]`), find where the
/// annotated item ends: skip any further attributes, then the first `;`
/// ends a braceless item, or the first `{` opens a body that is
/// brace-matched to its close. Returns the end line.
fn item_end_line(tokens: &[Token], code: &[usize], start: usize) -> Option<usize> {
    let mut k = start;
    // Skip stacked attributes.
    while is_punct(tokens, code, k, "#") && is_punct(tokens, code, k + 1, "[") {
        let (end_k, _) = scan_attribute(tokens, code, k + 1)?;
        k = end_k + 1;
    }
    // Find `;` (braceless item) or `{` (body).
    loop {
        let &i = code.get(k)?;
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            if t.text == ";" {
                return Some(t.line);
            }
            if t.text == "{" {
                return brace_close_line(tokens, code, k);
            }
        }
        k += 1;
    }
}

/// Given the code index of a `{`, return the line of its matching `}`.
fn brace_close_line(tokens: &[Token], code: &[usize], open_k: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = open_k;
    loop {
        let &i = code.get(k)?;
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return Some(t.line);
                }
            }
        }
        k += 1;
    }
}

/// From *token* index `from`, find the next `fn` keyword and the line span
/// of its brace-balanced body.
fn next_fn_body_lines(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text == "fn" {
            // First `{` after the fn keyword opens the body.
            let mut j = i + 1;
            while j < tokens.len() {
                let u = &tokens[j];
                if u.kind == TokenKind::Punct && u.text == "{" {
                    let mut depth = 0usize;
                    let open_line = u.line;
                    let mut k = j;
                    while k < tokens.len() {
                        let v = &tokens[k];
                        if v.kind == TokenKind::Punct {
                            if v.text == "{" {
                                depth += 1;
                            } else if v.text == "}" {
                                depth -= 1;
                                if depth == 0 {
                                    return Some((open_line, v.line));
                                }
                            }
                        }
                        k += 1;
                    }
                    return None;
                }
                if u.kind == TokenKind::Punct && u.text == ";" {
                    // `fn` signature without body (trait decl) — no region.
                    return None;
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

// ------------------------------------------------------------------ rules

fn rule_float_total_order(
    policy: &Policy,
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    diags: &mut Vec<Diagnostic>,
) {
    if policy.is_float_order_blessed(rel_path) {
        return;
    }
    for &i in code {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text == "partial_cmp" {
            diags.push(diag(
                FLOAT_TOTAL_ORDER,
                rel_path,
                t,
                "`partial_cmp` is not a total order (NaN breaks ranking); use \
                 `f32::total_cmp` or the `clusterkv_tensor::vector` argsort helpers",
            ));
        }
    }
}

fn rule_no_hashmap(
    policy: &Policy,
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    regions: &Regions,
    diags: &mut Vec<Diagnostic>,
) {
    if policy.is_test_path(rel_path) {
        return;
    }
    for &i in code {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !regions.in_test(t.line)
        {
            diags.push(diag(
                NO_HASHMAP_ITERATION_ORDER,
                rel_path,
                t,
                "hash-table iteration order is nondeterministic and leaks into token \
                 streams, reports, and traces; use BTreeMap/BTreeSet or sort explicitly",
            ));
        }
    }
}

fn rule_no_wall_clock(
    policy: &Policy,
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    diags: &mut Vec<Diagnostic>,
) {
    if policy.is_wall_clock_allowed(rel_path) {
        return;
    }
    for &i in code {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            diags.push(diag(
                NO_WALL_CLOCK,
                rel_path,
                t,
                "wall clocks are allowed only under crates/bench; \
                 modeled time goes through `Seconds`",
            ));
        }
    }
}

/// Identifiers that allocate when they appear in a hot region. These are
/// method/function *names*; the lexer cannot type receivers, so the rule is
/// deliberately name-based — a hot region must simply not use these names.
const ALLOC_METHOD_NAMES: &[&str] = &[
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "with_capacity",
];
/// Macro names that allocate (`name!`).
const ALLOC_MACRO_NAMES: &[&str] = &["vec", "format"];
/// Types whose `::new` / `::from` constructors allocate.
const ALLOC_TYPE_NAMES: &[&str] = &["Vec", "Box", "String", "BTreeMap", "BTreeSet"];

fn rule_no_alloc_in_kernels(
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    regions: &Regions,
    diags: &mut Vec<Diagnostic>,
) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !regions.in_hot(t.line) {
            continue;
        }
        let name = t.text.as_str();
        if ALLOC_METHOD_NAMES.contains(&name) {
            diags.push(diag(
                NO_ALLOC_IN_KERNELS,
                rel_path,
                t,
                "allocating call inside an `analyzer: hot-path` region; reuse the \
                 caller's Workspace buffers (clear/reserve/extend) instead",
            ));
            continue;
        }
        if ALLOC_MACRO_NAMES.contains(&name) && is_punct(tokens, code, k + 1, "!") {
            diags.push(diag(
                NO_ALLOC_IN_KERNELS,
                rel_path,
                t,
                "allocating macro inside an `analyzer: hot-path` region",
            ));
            continue;
        }
        if ALLOC_TYPE_NAMES.contains(&name)
            && is_punct(tokens, code, k + 1, ":")
            && is_punct(tokens, code, k + 2, ":")
            && matches!(ident_at(tokens, code, k + 3), Some("new") | Some("from"))
        {
            diags.push(diag(
                NO_ALLOC_IN_KERNELS,
                rel_path,
                t,
                "container construction inside an `analyzer: hot-path` region; \
                 take the buffer as a parameter instead",
            ));
        }
    }
}

fn rule_unsafe_gate(
    policy: &Policy,
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    regions: &Regions,
    diags: &mut Vec<Diagnostic>,
) {
    for &i in code {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !policy.is_unsafe_allowlisted(rel_path) {
            diags.push(diag(
                UNSAFE_GATE,
                rel_path,
                t,
                "`unsafe` is denied workspace-wide; if genuinely required, add the \
                 file to UNSAFE_ALLOWLIST and a // SAFETY: comment above the block",
            ));
        } else if !regions.has_safety_above(t.line) {
            diags.push(diag(
                UNSAFE_GATE,
                rel_path,
                t,
                "allowlisted `unsafe` is missing a // SAFETY: comment on the lines \
                 immediately above",
            ));
        }
    }
}

/// Names that abort instead of degrading when they appear in a recovery
/// region. Like the no-alloc rule this is name-based: the lexer cannot type
/// receivers, so a recovery body simply must not use these names.
const PANIC_METHOD_NAMES: &[&str] = &["unwrap", "expect"];
/// Macro names that abort (`name!`).
const PANIC_MACRO_NAMES: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn rule_no_panic_in_recovery(
    rel_path: &str,
    tokens: &[Token],
    code: &[usize],
    regions: &Regions,
    diags: &mut Vec<Diagnostic>,
) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !regions.in_recovery(t.line) {
            continue;
        }
        let name = t.text.as_str();
        if PANIC_METHOD_NAMES.contains(&name) {
            diags.push(diag(
                NO_PANIC_IN_RECOVERY,
                rel_path,
                t,
                "panicking call inside an `analyzer: recovery-path` region; fault \
                 handling must degrade (propagate a Result or substitute a default), \
                 never abort the simulation",
            ));
            continue;
        }
        if PANIC_MACRO_NAMES.contains(&name) && is_punct(tokens, code, k + 1, "!") {
            diags.push(diag(
                NO_PANIC_IN_RECOVERY,
                rel_path,
                t,
                "panicking macro inside an `analyzer: recovery-path` region",
            ));
        }
    }
}

fn diag(rule: &'static str, path: &str, t: &Token, message: &str) -> Diagnostic {
    Diagnostic {
        rule,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze_source(&Policy::repo(), path, src)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn partial_cmp_in_code_is_flagged_with_position() {
        let src = "fn rank(v: &mut [f32]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![FLOAT_TOTAL_ORDER]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn partial_cmp_in_comment_or_string_is_ignored() {
        let src = "// partial_cmp is banned\nfn f() { let s = \"partial_cmp\"; let _ = s; }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn blessed_file_may_use_partial_cmp() {
        let src = "fn cmp(a: f32, b: f32) { let _ = a.partial_cmp(&b); }\n";
        assert!(run("crates/tensor/src/vector.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_production_code_is_flagged() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }\n";
        let diags = run("crates/model/src/serve.rs", src);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.rule == NO_HASHMAP_ITERATION_ORDER));
    }

    #[test]
    fn hashmap_under_cfg_test_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() { let _ = HashSet::<u8>::new(); }\n}\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod prod {\n    use std::collections::HashMap;\n}\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![NO_HASHMAP_ITERATION_ORDER]);
    }

    #[test]
    fn hashset_in_tests_dir_is_exempt() {
        let src = "use std::collections::HashSet;\n";
        assert!(run("crates/x/tests/props.rs", src).is_empty());
        assert!(run("tests/serving.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_outside_bench_is_flagged_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let diags = run("crates/sched/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![NO_WALL_CLOCK]);
    }

    #[test]
    fn wall_clock_in_bench_is_allowed() {
        let src = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert!(run("crates/bench/src/bin/exp.rs", src).is_empty());
    }

    #[test]
    fn alloc_names_outside_hot_regions_are_fine() {
        let src = "fn build() -> Vec<u32> { (0..4).collect() }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn alloc_in_hot_path_fn_is_flagged() {
        let src = "// analyzer: hot-path\nfn kernel(out: &mut Vec<f32>) {\n    let v = vec![0.0f32; 4];\n    let w: Vec<f32> = v.iter().map(|x| x + 1.0).collect();\n    out.extend(w.iter().map(|x| x.clone()));\n}\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_of(&diags),
            vec![
                NO_ALLOC_IN_KERNELS,
                NO_ALLOC_IN_KERNELS,
                NO_ALLOC_IN_KERNELS
            ]
        );
    }

    #[test]
    fn hot_region_covers_only_the_annotated_fn() {
        let src = "// analyzer: hot-path\nfn hot(out: &mut Vec<f32>) { out.clear(); out.reserve(4); }\nfn cold() -> Vec<u32> { (0..4).collect() }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_region_skips_attributes_before_fn() {
        let src = "// analyzer: hot-path\n#[inline(always)]\npub fn hot(x: &[f32]) -> f32 { x.to_vec(); 0.0 }\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![NO_ALLOC_IN_KERNELS]);
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![UNSAFE_GATE]);
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { dangerous() } }\n";
        let good = "fn f() {\n    // SAFETY: the layout is valid by construction.\n    unsafe { dangerous() }\n}\n";
        assert_eq!(
            rules_of(&run("tests/zero_alloc.rs", bad)),
            vec![UNSAFE_GATE]
        );
        assert!(run("tests/zero_alloc.rs", good).is_empty());
    }

    #[test]
    fn allow_escape_suppresses_only_that_rule_on_that_line() {
        let src = "fn f(v: &mut [f32]) {\n    // analyzer:allow(float-total-order, legacy comparator kept for a test)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![FLOAT_TOTAL_ORDER]);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn trailing_allow_on_the_same_line_works() {
        let src = "fn f() { let _ = std::time::Instant::now(); } // analyzer:allow(no-wall-clock, demo)\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "// analyzer:allow(no-wall-clock, wrong rule)\nfn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec![FLOAT_TOTAL_ORDER]);
    }

    #[test]
    fn panic_in_recovery_fn_is_flagged() {
        let src = "// analyzer: recovery-path\nfn restore(x: Option<u32>) -> u32 {\n    let v = x.unwrap();\n    if v > 9 { panic!(\"bad\") }\n    v\n}\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_of(&diags),
            vec![NO_PANIC_IN_RECOVERY, NO_PANIC_IN_RECOVERY]
        );
    }

    #[test]
    fn recovery_region_covers_only_the_annotated_fn() {
        let src = "// analyzer: recovery-path\nfn restore(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn elsewhere(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_flag_in_recovery() {
        let src = "// analyzer: recovery-path\nfn restore(x: Option<u32>) -> u32 {\n    x.unwrap_or_else(|| 0).max(x.unwrap_or_default())\n}\n";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let src = "use std::collections::HashMap;\nfn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let diags = run("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_of(&diags),
            vec![NO_HASHMAP_ITERATION_ORDER, FLOAT_TOTAL_ORDER]
        );
    }
}
