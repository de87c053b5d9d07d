//! The benchmark's own span recorder: a flat in-memory list, written
//! out as Chrome `trace_event` JSON when the run ends.
//!
//! Deliberately not `ciao_telemetry`: the benchmark measures every
//! layer from outside, with instruments no layer can change.

use ciao_json::JsonValue;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `client.prefilter`.
    pub name: &'static str,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one chunk or statement.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times one call as a child span.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, call: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let span = self.begin(name, Some(parent), request);
        let out = call();
        self.end(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Chrome `trace_event` JSON (open in `chrome://tracing` or
    /// Perfetto): one complete event per span, in microseconds.
    pub fn chrome_trace(&self) -> String {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            JsonValue::object([
                ("name", JsonValue::from(s.name)),
                ("ph", JsonValue::from("X")),
                ("pid", JsonValue::from(1i64)),
                ("tid", JsonValue::from(1i64)),
                ("ts", JsonValue::from(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::from(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    JsonValue::object([
                        ("span", JsonValue::from(id as i64)),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::from(p as i64)),
                        ),
                        ("request", JsonValue::from(s.request as i64)),
                    ]),
                ),
            ])
        });
        ciao_json::to_string(&JsonValue::object([(
            "traceEvents",
            JsonValue::array(events),
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_reparses() {
        let mut rec = Recorder::new();
        let root = rec.begin("chunk", None, 7);
        rec.child("client.prefilter", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let own = rec.self_times_ns();
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
        let parsed = ciao_json::parse(&rec.chrome_trace()).expect("trace is JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
