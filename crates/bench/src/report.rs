//! The experiment binaries' one output layer: a markdown report for a
//! reader, or — under `--json` — one JSON document and nothing else, so that
//! stdout redirects straight into a `BENCH_*.json` file.
//!
//! The workspace's `serde` is a derive-only shim, so the JSON writer is
//! here, once. Its layout is part of the committed files' format (CI `cmp`s
//! them), which is why number precision and line breaks are chosen by the
//! document, not by the writer: [`Json::Fixed`] pins the decimals a field
//! has always had, and a [`Json::Row`] stays on one line where an
//! [`Json::Obj`] puts each field on its own.

use std::fmt::{self, Display, Write as _};

/// Where an experiment binary's output goes, decided once from its
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    json: bool,
}

impl Report {
    /// JSON mode when the binary was run with `--json`, markdown otherwise.
    pub fn from_args() -> Self {
        Self {
            json: std::env::args().any(|a| a == "--json"),
        }
    }

    /// Print one block of the markdown report; silent under `--json`.
    pub fn say(&self, text: impl Display) {
        if !self.json {
            println!("{text}");
        }
    }

    /// Print the JSON document; silent in markdown mode. A [`Json`] prints
    /// in its indented layout, [`Json::compact`] on one line.
    pub fn emit(&self, doc: impl Display) {
        if self.json {
            println!("{doc}");
        }
    }
}

/// A JSON value whose rendering is fixed by its construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer.
    Int(u64),
    /// A float in Rust's shortest round-trip form (`0.05`, `1024`).
    Num(f64),
    /// A float with this many decimals (`0.605771` at 6).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array: one element per line in the indented layout when any
    /// element is an array or object, on one line otherwise.
    Arr(Vec<Json>),
    /// An object with one field per line in the indented layout. Key order
    /// is kept, so output is diffable and deterministic.
    Obj(Vec<(String, Json)>),
    /// An object kept on one line in every layout: a table row.
    Row(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, one field per line.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Obj(owned_keys(fields))
    }

    /// An object from `(key, value)` pairs kept on one line.
    pub fn row<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Self {
        Json::Row(owned_keys(fields))
    }

    /// The whole document on one line with no spaces, as `serde_json`'s
    /// compact writer prints it.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out, ",", ":");
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_) | Json::Row(_))
    }

    /// The indented layout: two spaces a level, `"key": value` fields.
    fn write_indented(&self, out: &mut String, indent: usize) {
        match self {
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 2);
                    write_str(key, out);
                    out.push_str(": ");
                    value.write_indented(out, indent + 2);
                    push_separator(out, i + 1 < fields.len());
                }
                push_indent(out, indent);
                out.push('}');
            }
            Json::Arr(items) if items.iter().any(Json::is_container) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 2);
                    item.write_indented(out, indent + 2);
                    push_separator(out, i + 1 < items.len());
                }
                push_indent(out, indent);
                out.push(']');
            }
            line => line.write_line(out, ", ", ": "),
        }
    }

    /// One line, with the given separators after commas and colons.
    fn write_line(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity.
            Json::Num(v) | Json::Fixed(v, _) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.write_line(out, comma, colon);
                }
                out.push(']');
            }
            Json::Obj(fields) | Json::Row(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(key, out);
                    out.push_str(colon);
                    value.write_line(out, comma, colon);
                }
                out.push('}');
            }
        }
    }
}

/// The indented layout (no trailing newline).
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

fn owned_keys<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Vec<(String, Json)> {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn push_indent(out: &mut String, indent: usize) {
    out.extend(std::iter::repeat_n(' ', indent));
}

fn push_separator(out: &mut String, more: bool) {
    if more {
        out.push(',');
    }
    out.push('\n');
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("bench", "exp_demo".into()),
            ("smoke", false.into()),
            ("workload", Json::obj([("budget", 48usize.into())])),
            (
                "sweep",
                Json::Arr(vec![
                    Json::row([("rate", Json::Num(0.05)), ("hit", Json::Fixed(0.5, 6))]),
                    Json::row([("rate", Json::Num(0.0)), ("hit", Json::Fixed(1.0, 6))]),
                ]),
            ),
            ("buckets", Json::Arr(vec![0u64.into(), 169u64.into()])),
            (
                "peaks",
                Json::row([("8", 2usize.into()), ("144", 8usize.into())]),
            ),
            ("floor", Json::Null),
        ])
    }

    #[test]
    fn indented_layout_expands_objects_and_keeps_rows_on_one_line() {
        let expected = r#"{
  "bench": "exp_demo",
  "smoke": false,
  "workload": {
    "budget": 48
  },
  "sweep": [
    {"rate": 0.05, "hit": 0.500000},
    {"rate": 0, "hit": 1.000000}
  ],
  "buckets": [0, 169],
  "peaks": {"8": 2, "144": 8},
  "floor": null
}"#;
        assert_eq!(sample().to_string(), expected);
    }

    #[test]
    fn compact_layout_has_no_spaces_or_newlines() {
        assert_eq!(
            sample().compact(),
            "{\"bench\":\"exp_demo\",\"smoke\":false,\"workload\":{\"budget\":48},\
             \"sweep\":[{\"rate\":0.05,\"hit\":0.500000},{\"rate\":0,\"hit\":1.000000}],\
             \"buckets\":[0,169],\"peaks\":{\"8\":2,\"144\":8},\"floor\":null}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null_and_empty_containers_stay_closed() {
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Fixed(f64::INFINITY, 3).to_string(), "null");
        assert_eq!(Json::Fixed(2.0, 1).to_string(), "2.0");
        assert_eq!(Json::obj([]).to_string(), "{}");
        assert_eq!(Json::Arr(vec![]).to_string(), "[]");
        assert_eq!(Json::Int(u64::MAX).compact(), u64::MAX.to_string());
    }
}
