//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (ns since the run's epoch), an
//! optional parent span, and the id of the request (or probe) it belongs
//! to. Spans are kept in memory and written out as NDJSON when the run
//! ends. A layer's self time is the time its spans cover minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the log.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request (or probe) id shared by every span of one request.
    pub request: u64,
    /// `layer.what`, e.g. `serve.submit`; the layer is the prefix.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is charged to: the name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span log; disabled logs record nothing.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timed from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns since the epoch of an instant.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span over `[start_ns, end_ns]` and returns its id (0
    /// when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Times `f` as a root span named `name` for probe `request`, and
    /// returns its result with its duration in ms.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        self.record(name, request, None, s, e);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Moves every span of `other` into this log, renumbering ids.
    pub fn absorb(&mut self, other: SpanLog) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u64;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as NDJSON, one span per line.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, ns: each span's duration minus the part of it
/// its children cover, summed by layer.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut log = SpanLog::new(Instant::now(), true);
        let root = log.record("bench.request", 1, None, 0, 100);
        log.record("serve.queue", 1, Some(root), 10, 40);
        // overlapping children count once
        log.record("farm.exec", 1, Some(root), 30, 60);
        // a child sticking out of its parent is clipped
        let sub = log.record("serve.respond", 1, Some(root), 90, 120);
        log.record("farm.inner", 1, Some(sub), 95, 100);
        let by_layer = self_time_by_layer(log.spans());
        // root: 100 - (10..60 ∪ 90..100) = 100 - 60 = 40
        assert_eq!(by_layer["bench"], 40);
        // serve.queue 30 + serve.respond (30 - 5) = 55
        assert_eq!(by_layer["serve"], 55);
        // farm.exec 30 + farm.inner 5
        assert_eq!(by_layer["farm"], 35);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        assert_eq!(log.record("serve.submit", 0, None, 0, 5), 0);
        assert!(log.spans().is_empty());
    }
}
