//! In-memory spans of the traced replay, written to `spans.json` at the end.
//!
//! Every span times one public call from the benchmark's side of the API.
//! Where the program makes a call internally (say, `SacEngine::execute`
//! inside `SacService::handle`), the benchmark cannot time it in place: it
//! re-issues the call right after the parent returns and records it as the
//! parent's child.  `calls` says how many times the parent makes that call
//! (the candidate view is built once per sweep), so a span's self time is
//! its duration minus `calls ×` each child's duration, floored at zero —
//! for children that nest inside the parent's interval this is exactly the
//! part of the interval they cover.

use sac_proto::json::{obj, Json};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `execute`.
    pub name: &'static str,
    /// Replayed request the span belongs to.
    pub request: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// How many times the parent makes this call.
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("request", Json::Num(self.request as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("calls", Json::Num(self.calls as f64)),
        ])
    }
}

/// Records spans when enabled; a disabled tracer runs the same calls and
/// records nothing (the untraced half of the overhead measurement).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval measured elsewhere; returns its index (`None`
    /// when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        duration: Duration,
        calls: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(start + duration),
            calls,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        (value, self.record(name, parent, start, elapsed, 1))
    }

    /// Opens a span that is closed later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.record(name, parent, Instant::now(), Duration::ZERO, 1)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Sets how many times the parent makes the call `span` timed.
    pub fn set_calls(&mut self, span: Option<usize>, calls: u64) {
        if let Some(i) = span {
            self.spans[i].calls = calls;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds (see the module docs).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut charged = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            charged[p] += span.duration_ns() * span.calls;
        }
    }
    spans
        .iter()
        .zip(charged)
        .map(|(span, charged)| span.duration_ns().saturating_sub(charged))
        .collect()
}

/// `spans.json`: one span list per workload.
pub fn spans_json(workloads: &[(&str, &[Span])]) -> Json {
    obj(vec![(
        "workloads",
        Json::Arr(
            workloads
                .iter()
                .map(|(name, spans)| {
                    obj(vec![
                        ("name", Json::Str(name.to_string())),
                        (
                            "spans",
                            Json::Arr(spans.iter().map(Span::to_json).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64, calls: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns: start,
            end_ns: end,
            calls,
        }
    }

    #[test]
    fn self_time_subtracts_children_times_their_call_count() {
        let spans = [
            span("execute", None, 0, 100, 1),
            span("plan", Some(0), 0, 10, 1),
            span("search", Some(0), 10, 90, 1),
            // Re-issued after `search` returned: outside its interval, made
            // 3 times inside it.
            span("candidate_view", Some(2), 100, 120, 3),
            span("mcc", Some(2), 120, 125, 1),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 15, 20, 5]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = [
            span("plan", None, 0, 10, 1),
            span("core_lookup", Some(0), 10, 25, 1),
        ];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        let (value, span) = tracer.time("decode", None, || 7);
        assert_eq!((value, span), (7, None));
        let root = tracer.open("request", None);
        tracer.close(root);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_by_index() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.set_request(4);
        let root = tracer.open("request", None);
        let (_, child) = tracer.time("decode", root, || ());
        tracer.set_calls(child, 2);
        tracer.close(root);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].request, spans[1].calls), (4, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = spans_json(&[("w", &spans)]).to_string();
        assert!(
            json.contains(r#""name":"decode","request":4,"parent":0"#),
            "{json}"
        );
    }
}
