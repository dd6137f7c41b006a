//! Spans recorded from outside the program: every call the benchmark makes
//! into a layer is wrapped in `{name, start_ns, end_ns, parent, request}`,
//! kept in memory and written out when the run ends. Spans inside the
//! crates are a later issue; these cost two `Instant` reads per call.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (the phase), `None` for a root.
    pub parent: Option<usize>,
    /// Request the call served, where it served exactly one.
    pub request: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost-first");
        self.spans[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in call order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("parent", opt_num(s.parent.map(|p| p as u64))),
                        ("request", opt_num(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

fn opt_num(v: Option<u64>) -> Value {
    v.map_or(Value::Null, |n| Value::Num(n as f64))
}

/// Run `f` inside a span when tracing, bare otherwise — the one call shape
/// shared by the untraced and the traced pass, so both execute the same
/// code around the layer call.
pub fn spanned<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    request: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let index = t.begin(name, request);
            let out = f();
            t.end(index);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_phase_and_keep_call_order() {
        let mut tracer = Some(Tracer::new());
        let phase = tracer.as_mut().unwrap().begin("phase", None);
        let a = spanned(&mut tracer, "sched.tick", None, || 1);
        let b = spanned(&mut tracer, "sched.submit", Some(7), || 2);
        tracer.as_mut().unwrap().end(phase);
        assert_eq!((a, b), (1, 2));
        let t = tracer.unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request, Some(7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.seconds_of("sched.tick").len(), 1);
        assert!(t.seconds_of("absent").is_empty());
        let json = t.to_json().render();
        assert!(json.contains("\"name\": \"sched.submit\""));
        assert!(json.contains("\"request\": 7"));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let mut off: Option<Tracer> = None;
        assert_eq!(spanned(&mut off, "x", None, || 5), 5);
        assert!(off.is_none());
    }
}
