//! Tail-sampled always-on tracing: the flight recorder.
//!
//! A [`FlightRecorder`] wraps any [`Collector`] (every event is passed
//! through untouched, so attaching it is strictly additive) and keeps a
//! **bounded** set of complete per-request traces chosen by a
//! deterministic decision rule evaluated when a request's root
//! `request` span closes:
//!
//! 1. **Tail retention** — the trace breached the latency objective
//!    (`dur_ns > objective_ns`), or carried an error-class event
//!    ([`ERROR_EVENT_NAMES`]): always kept.
//! 2. **Head sampling** — `trace_id % head_modulus == 0`: kept. Because
//!    the trace id is a pure function of the global admission id, the
//!    head-sampled set is identical at any worker or shard count.
//!
//! Everything else is discarded, and the kept ring evicts whole oldest
//! traces past [`SampleConfig::max_events`] buffered events — so
//! always-on tracing has fixed memory, and (on a scripted virtual
//! clock) the kept-trace set is bit-reproducible.
//!
//! Events are attributed to traces by their explicit `trace` field;
//! `request` span ends (which carry only `dur_ns`) are matched to the
//! innermost open `request` span, the same LIFO-per-name rule
//! [`crate::analyze`] uses, so online and offline attribution agree.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use canti_obs::clock::VirtualClock;
//! use canti_obs::sample::{FlightRecorder, SampleConfig};
//! use canti_obs::trace::{Collector, Tracer};
//!
//! let flight = Arc::new(FlightRecorder::new(SampleConfig {
//!     head_modulus: u64::MAX, // no head sampling in this example
//!     objective_ns: 100,
//!     max_events: 1024,
//! }, None));
//! let clock = Arc::new(VirtualClock::new());
//! let tracer = Tracer::new(Arc::clone(&flight) as Arc<dyn Collector>, clock.clone());
//! let span = tracer.span("request", &[("request", 7u64.into()), ("trace", 99u64.into())]);
//! clock.advance_ns(500); // breaches the 100 ns objective
//! drop(span);
//! assert_eq!(flight.kept_trace_ids(), vec![99]);
//! assert_eq!(flight.kept()[0].reason, "slo_breach");
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

use crate::ndjson::{self, JsonValue};
use crate::trace::{Collector, EventKind, TraceEvent};

/// Event names that mark a trace as error-tainted (tail-kept regardless
/// of latency). These are the failure events the serve/farm/fault
/// layers emit with request-scoped `trace` fields.
pub const ERROR_EVENT_NAMES: &[&str] = &[
    "request_expired",
    "request_rejected",
    "job_failed",
    "fault_injected",
    "measurement_failed",
    "watchdog_trip",
];

/// Sampling policy for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Head-sampling modulus: traces with `trace_id % head_modulus == 0`
    /// are kept unconditionally. Clamped to ≥ 1 (1 keeps everything).
    pub head_modulus: u64,
    /// The latency objective; a root `request` span slower than this is
    /// tail-kept as an SLO breach.
    pub objective_ns: u64,
    /// Bound on buffered events across all kept traces; whole oldest
    /// traces are evicted past it. Clamped to ≥ 1.
    pub max_events: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self {
            head_modulus: 16,
            objective_ns: 50_000_000, // the default SloConfig objective
            max_events: 4_096,
        }
    }
}

impl SampleConfig {
    /// The effective head modulus (at least 1).
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.head_modulus.max(1)
    }
}

/// One retained trace: the decision, its inputs, and every buffered
/// event that carried the trace id (plus the closing `request` span
/// end), in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct KeptTrace {
    /// The request-scoped trace id.
    pub trace: u64,
    /// The owning request's global admission id.
    pub request: u64,
    /// Why the trace was kept: `"slo_breach"`, `"error"` or `"head"`
    /// (highest-priority reason wins, in that order).
    pub reason: &'static str,
    /// The root `request` span duration the decision saw.
    pub dur_ns: u64,
    /// The buffered events.
    pub events: Vec<TraceEvent>,
}

#[derive(Debug, Default)]
struct PendingTrace {
    request: u64,
    error: bool,
    events: Vec<TraceEvent>,
}

#[derive(Debug, Default)]
struct State {
    /// Buffered events per undecided trace.
    pending: BTreeMap<u64, PendingTrace>,
    /// Open `request` spans as `(span id, trace id)` — a span end
    /// carries no trace field, only the `span` id of its start.
    open_requests: Vec<(u64, u64)>,
    kept: VecDeque<KeptTrace>,
    kept_events: usize,
    decided: u64,
    kept_count: u64,
    discarded: u64,
    evicted: u64,
}

/// A bounded, deterministically sampled trace retainer — see the module
/// docs for the decision rule.
pub struct FlightRecorder {
    config: SampleConfig,
    inner: Option<std::sync::Arc<dyn Collector>>,
    state: Mutex<State>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("config", &self.config)
            .field("pass_through", &self.inner.is_some())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder over `config`, forwarding every event to `inner`
    /// first (pass `None` to retain only).
    #[must_use]
    pub fn new(config: SampleConfig, inner: Option<std::sync::Arc<dyn Collector>>) -> Self {
        Self {
            config,
            inner,
            state: Mutex::new(State::default()),
        }
    }

    /// The configured sampling policy.
    #[must_use]
    pub fn config(&self) -> SampleConfig {
        self.config
    }

    /// The kept traces, oldest decision first.
    #[must_use]
    pub fn kept(&self) -> Vec<KeptTrace> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .kept
            .iter()
            .cloned()
            .collect()
    }

    /// The kept trace ids as a sorted, deduplicated set — the
    /// worker/shard-invariant view the determinism suite pins.
    #[must_use]
    pub fn kept_trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .kept
            .iter()
            .map(|t| t.trace)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// `(decided, kept, discarded, evicted)` trace counts since
    /// construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (s.decided, s.kept_count, s.discarded, s.evicted)
    }

    /// One fixed-field NDJSON summary line per kept trace, oldest first:
    /// `record`, `trace`, `request`, `reason`, `dur_ns`, `events`.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for t in self.kept() {
            out.push_str(&ndjson::object(&[
                ("record", JsonValue::from("flight")),
                ("trace", JsonValue::U64(t.trace)),
                ("request", JsonValue::U64(t.request)),
                ("reason", JsonValue::from(t.reason)),
                ("dur_ns", JsonValue::U64(t.dur_ns)),
                ("events", JsonValue::U64(t.events.len() as u64)),
            ]));
            out.push('\n');
        }
        out
    }

    fn decide(&self, state: &mut State, trace: u64, dur_ns: u64) {
        let pending = state.pending.remove(&trace).unwrap_or_default();
        state.decided += 1;
        let reason = if dur_ns > self.config.objective_ns {
            Some("slo_breach")
        } else if pending.error {
            Some("error")
        } else if trace.is_multiple_of(self.config.modulus()) {
            Some("head")
        } else {
            None
        };
        let Some(reason) = reason else {
            state.discarded += 1;
            return;
        };
        state.kept_count += 1;
        state.kept_events += pending.events.len();
        state.kept.push_back(KeptTrace {
            trace,
            request: pending.request,
            reason,
            dur_ns,
            events: pending.events,
        });
        while state.kept_events > self.config.max_events.max(1) && state.kept.len() > 1 {
            let oldest = state.kept.pop_front().expect("len > 1");
            state.kept_events -= oldest.events.len();
            state.evicted += 1;
        }
    }
}

impl Collector for FlightRecorder {
    fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.record(event.clone());
        }
        let trace_field = event.field("trace").and_then(|v| match v {
            JsonValue::U64(t) => Some(*t),
            _ => None,
        });
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(trace) = trace_field {
            let pending = state.pending.entry(trace).or_default();
            if let Some(JsonValue::U64(request)) = event.field("request") {
                pending.request = *request;
            }
            if event.kind == EventKind::Event && ERROR_EVENT_NAMES.contains(&event.name.as_str()) {
                pending.error = true;
            }
            let is_request_start = event.kind == EventKind::SpanStart && event.name == "request";
            let seq = event.seq;
            pending.events.push(event);
            if is_request_start {
                state.open_requests.push((seq, trace));
            }
        } else if event.kind == EventKind::SpanEnd && event.name == "request" {
            // the end record names its start by span id, as the analyzer
            // pairs them
            let span = event.field("span");
            let Some(pos) = state
                .open_requests
                .iter()
                .position(|(id, _)| span == Some(&JsonValue::U64(*id)))
            else {
                return;
            };
            let (_, trace) = state.open_requests.remove(pos);
            let dur_ns = match event.field("dur_ns") {
                Some(JsonValue::U64(d)) => *d,
                _ => 0,
            };
            state.pending.entry(trace).or_default().events.push(event);
            self.decide(&mut state, trace, dur_ns);
        }
        // events without a trace field (farm batch spans, registry
        // dumps) are not request-scoped: forwarded, never buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::{RingCollector, Tracer};
    use std::sync::Arc;

    fn recorder(config: SampleConfig) -> (Arc<FlightRecorder>, Arc<VirtualClock>, Tracer) {
        let flight = Arc::new(FlightRecorder::new(config, None));
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&flight) as Arc<dyn Collector>, clock.clone());
        (flight, clock, tracer)
    }

    fn request_span(tracer: &Tracer, request: u64, trace: u64) -> crate::trace::SpanGuard {
        tracer.span(
            "request",
            &[("request", request.into()), ("trace", trace.into())],
        )
    }

    #[test]
    fn head_sampling_is_pure_in_the_trace_id() {
        let (flight, _clock, tracer) = recorder(SampleConfig {
            head_modulus: 4,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        for trace in 0..8u64 {
            drop(request_span(&tracer, trace + 100, trace));
        }
        assert_eq!(flight.kept_trace_ids(), vec![0, 4]);
        assert!(flight.kept().iter().all(|t| t.reason == "head"));
        assert_eq!(flight.stats(), (8, 2, 6, 0));
    }

    #[test]
    fn slo_breaches_are_tail_kept_with_priority() {
        let (flight, clock, tracer) = recorder(SampleConfig {
            head_modulus: 1, // head would keep everything…
            objective_ns: 100,
            max_events: 1024,
        });
        let span = request_span(&tracer, 1, 8);
        clock.advance_ns(500);
        drop(span);
        // …but the breach reason outranks it
        assert_eq!(flight.kept()[0].reason, "slo_breach");
        assert_eq!(flight.kept()[0].dur_ns, 500);
        assert_eq!(flight.kept()[0].request, 1);
    }

    #[test]
    fn error_events_taint_their_trace() {
        let (flight, _clock, tracer) = recorder(SampleConfig {
            head_modulus: u64::MAX,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        let kept = request_span(&tracer, 7, 3);
        tracer.event(
            "request_expired",
            &[("request", 7u64.into()), ("trace", 3u64.into())],
        );
        drop(kept);
        let discarded = request_span(&tracer, 8, 5);
        tracer.event("benign", &[("trace", 5u64.into())]);
        drop(discarded);
        assert_eq!(flight.kept_trace_ids(), vec![3]);
        assert_eq!(flight.kept()[0].reason, "error");
        assert_eq!(flight.stats(), (2, 1, 1, 0));
    }

    #[test]
    fn kept_traces_carry_their_buffered_events() {
        let (flight, clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        let span = request_span(&tracer, 2, 6);
        tracer.event("job_ok", &[("trace", 6u64.into())]);
        clock.advance_ns(10);
        drop(span);
        let kept = flight.kept();
        assert_eq!(kept.len(), 1);
        let names: Vec<&str> = kept[0].events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["request", "job_ok", "request"]);
        assert_eq!(kept[0].events[2].kind, EventKind::SpanEnd);
    }

    #[test]
    fn nested_request_spans_close_their_own_trace() {
        let (flight, clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        let a = request_span(&tracer, 0, 10);
        clock.advance_ns(5);
        let b = request_span(&tracer, 1, 11);
        clock.advance_ns(3);
        b.end(); // innermost closes first: dur 3 → trace 11
        a.end(); // dur 8 → trace 10
        let kept = flight.kept();
        assert_eq!(
            kept.iter().map(|t| (t.trace, t.dur_ns)).collect::<Vec<_>>(),
            vec![(11, 3), (10, 8)]
        );
    }

    #[test]
    fn crossed_request_spans_close_their_own_trace() {
        // the older request answers first, as a size-filled batch does
        let (flight, clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        let a = request_span(&tracer, 0, 10);
        clock.advance_ns(5);
        let b = request_span(&tracer, 1, 11);
        clock.advance_ns(3);
        a.end(); // dur 8 → trace 10
        clock.advance_ns(4);
        b.end(); // dur 7 → trace 11
        let kept = flight.kept();
        assert_eq!(
            kept.iter().map(|t| (t.trace, t.dur_ns)).collect::<Vec<_>>(),
            vec![(10, 8), (11, 7)]
        );
    }

    #[test]
    fn kept_ring_evicts_whole_oldest_traces() {
        let (flight, _clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: u64::MAX,
            max_events: 5, // each trace buffers 2 events (start + end)
        });
        for trace in 0..4u64 {
            drop(request_span(&tracer, trace, trace));
        }
        let kept = flight.kept_trace_ids();
        assert_eq!(kept, vec![2, 3], "oldest whole traces evicted");
        let (decided, kept_n, _discarded, evicted) = flight.stats();
        assert_eq!((decided, kept_n, evicted), (4, 4, 2));
    }

    #[test]
    fn pass_through_forwards_every_event_untouched() {
        let ring = Arc::new(RingCollector::new(64));
        let flight = Arc::new(FlightRecorder::new(
            SampleConfig::default(),
            Some(Arc::clone(&ring) as Arc<dyn Collector>),
        ));
        let clock = Arc::new(VirtualClock::new());
        let plain_ring = Arc::new(RingCollector::new(64));
        let wrapped = Tracer::new(Arc::clone(&flight) as Arc<dyn Collector>, clock.clone());
        let plain = Tracer::new(Arc::clone(&plain_ring) as Arc<dyn Collector>, clock.clone());
        for tracer in [&wrapped, &plain] {
            let span = tracer.span("batch", &[("jobs", 1u64.into())]);
            tracer.event("sample", &[]);
            drop(span);
        }
        assert_eq!(
            ring.to_ndjson(),
            plain_ring.to_ndjson(),
            "wrapping must not change the inner stream's bytes"
        );
    }

    #[test]
    fn non_request_events_are_not_buffered() {
        let (flight, _clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: u64::MAX,
            max_events: 1024,
        });
        let batch = tracer.span("serve_batch", &[("batch", 0u64.into())]);
        drop(batch);
        assert!(flight.kept().is_empty());
        assert_eq!(flight.stats(), (0, 0, 0, 0));
    }

    #[test]
    fn ndjson_summary_has_fixed_fields() {
        let (flight, clock, tracer) = recorder(SampleConfig {
            head_modulus: 1,
            objective_ns: 100,
            max_events: 1024,
        });
        let span = request_span(&tracer, 5, 9);
        clock.advance_ns(200);
        drop(span);
        assert_eq!(
            flight.to_ndjson().trim(),
            "{\"record\":\"flight\",\"trace\":9,\"request\":5,\
             \"reason\":\"slo_breach\",\"dur_ns\":200,\"events\":2}"
        );
    }
}
