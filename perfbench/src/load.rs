//! Open-loop load: one generator thread submits on a Poisson schedule,
//! one collector thread polls every outstanding ticket.
//!
//! The generator never waits for an answer: it sleeps until each
//! request is due and submits it, late if it must, so a stalled service
//! cannot slow the offered load. Latency is timed from the request's due
//! instant to the moment its ticket is seen resolved, so it includes any
//! wait a stall imposed on later requests. A request answered inside
//! `submit` is seen resolved by the generator itself; every other one by
//! the collector, which polls all outstanding tickets in turn rather
//! than waiting on them in submission order, so one slow request does
//! not delay the timestamps of the requests behind it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use canti_farm::JobSpec;
use canti_serve::{ServeResponse, ShardTicket, ShardedService};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::trace::SpanLog;

/// How long the collector waits for news before polling again.
const POLL: Duration = Duration::from_micros(20);

/// Lead time between building a rung and its first due instant.
const LEAD: Duration = Duration::from_millis(2);

/// Longest single sleep of the generator. A virtual CPU left idle for
/// longer is often descheduled by the host and wakes milliseconds late;
/// waking every 100 µs keeps the generator's lag p99 near 0.1 ms for the
/// cost of a few thousand wake-ups a second.
const SLEEP_CHUNK: Duration = Duration::from_micros(100);

/// Sleeps until `target` in chunks of at most [`SLEEP_CHUNK`].
fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        std::thread::sleep((target - now).min(SLEEP_CHUNK));
    }
}

/// Exponential inter-arrival gaps at `rate` per second: `n` due
/// instants, ns after the rung's start.
pub fn poisson_schedule(rng: &mut ChaCha8Rng, rate: f64, n: usize) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// How one request ended.
#[derive(Debug)]
pub enum Fate {
    /// Answered with a successful job output.
    Ok(ServeResponse),
    /// Answered, but not with a successful output.
    Failed(ServeResponse),
    /// Refused at submission.
    Refused,
}

/// One request's timeline, ns since the rung's epoch.
#[derive(Debug)]
pub struct Record {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When `submit` was entered.
    pub submit_start_ns: u64,
    /// When `submit` returned.
    pub submit_end_ns: u64,
    /// When the collector saw the ticket resolved (`submit_end_ns` for
    /// refusals).
    pub resolved_ns: u64,
    /// How it ended.
    pub fate: Fate,
}

impl Record {
    /// Due instant to observed answer, ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        (self.resolved_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it, ms.
    #[must_use]
    pub fn lag_ms(&self) -> f64 {
        (self.submit_start_ns - self.due_ns) as f64 / 1e6
    }
}

/// Everything one rung produced.
#[derive(Debug)]
pub struct RungRun {
    /// One record per request sent, in schedule order: the measured
    /// requests first, then the tail.
    pub records: Vec<Record>,
    /// First due instant to the last measured answer, s.
    pub elapsed_s: f64,
    /// Measured tickets still unanswered when the last measured request
    /// was sent.
    pub backlog_at_end: usize,
    /// Spans of the measured requests (empty unless the log was enabled).
    pub spans: SpanLog,
}

struct Sent {
    index: usize,
    submit_start: Instant,
    submit_end: Instant,
    outcome: Outcome,
}

/// What the generator knows right after `submit` returns.
enum Outcome {
    /// Admitted, not answered yet: the collector polls the ticket.
    Pending(ShardTicket),
    /// Answered inside `submit` (a cache hit), seen at this instant by
    /// the generator's own poll, so no hand-off delay is charged.
    Answered(Instant, ServeResponse),
    /// Refused at submission.
    Refused,
}

fn fate(response: ServeResponse) -> Fate {
    if response.disposition.is_ok() {
        Fate::Ok(response)
    } else {
        Fate::Failed(response)
    }
}

struct Waiting {
    index: usize,
    submit_start_ns: u64,
    submit_end_ns: u64,
    ticket: ShardTicket,
}

/// Runs one rung: submits `specs[i]` at `due_ns[i]` and collects every
/// answer. The first `measured` requests are measured; the schedule
/// after them is a tail that keeps arriving at the same rate only until
/// every measured request is answered, so the last measured requests
/// see the same traffic as the rest rather than a sudden quiet.
/// `request_base` offsets the request ids spans carry.
///
/// # Panics
///
/// Panics if a load thread panics, the slices differ in length, or
/// `measured` exceeds them.
pub fn run_rung(
    service: &ShardedService,
    specs: &[JobSpec],
    due_ns: &[u64],
    measured: usize,
    request_base: u64,
    traced: bool,
) -> RungRun {
    assert_eq!(specs.len(), due_ns.len(), "one due instant per spec");
    assert!(measured <= specs.len(), "measured requests are scheduled");
    let epoch = Instant::now() + LEAD;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let stop = &stop;
        scope.spawn(move || {
            for (index, (spec, &due)) in specs.iter().zip(due_ns).enumerate() {
                sleep_until(epoch + Duration::from_nanos(due));
                if index >= measured && stop.load(Ordering::Acquire) {
                    return;
                }
                let submit_start = Instant::now();
                let result = service.submit(spec.clone());
                let submit_end = Instant::now();
                let outcome = match result {
                    Ok(ticket) => match ticket.poll() {
                        Some(response) => Outcome::Answered(Instant::now(), response),
                        None => Outcome::Pending(ticket),
                    },
                    Err(_) => Outcome::Refused,
                };
                let sent = Sent {
                    index,
                    submit_start,
                    submit_end,
                    outcome,
                };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut c = Collector::new(due_ns, measured, epoch, request_base, traced);
            c.run(&rx, stop);
            c.finish()
        });
        collector.join().expect("collector thread")
    })
}

struct Collector<'a> {
    due_ns: &'a [u64],
    measured: usize,
    epoch: Instant,
    request_base: u64,
    spans: SpanLog,
    records: Vec<Option<Record>>,
    waiting: Vec<Waiting>,
    sent: usize,
    measured_left: usize,
    backlog_at_end: Option<usize>,
    last_measured_ns: u64,
}

impl<'a> Collector<'a> {
    fn new(
        due_ns: &'a [u64],
        measured: usize,
        epoch: Instant,
        request_base: u64,
        traced: bool,
    ) -> Self {
        Self {
            due_ns,
            measured,
            epoch,
            request_base,
            spans: SpanLog::new(epoch, traced),
            records: (0..due_ns.len()).map(|_| None).collect(),
            waiting: Vec::new(),
            sent: 0,
            measured_left: measured,
            backlog_at_end: None,
            last_measured_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn run(&mut self, rx: &mpsc::Receiver<Sent>, stop: &AtomicBool) {
        let mut generator_done = false;
        loop {
            let first = if generator_done {
                std::thread::sleep(POLL);
                None
            } else {
                match rx.recv_timeout(POLL) {
                    Ok(s) => Some(s),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        generator_done = true;
                        None
                    }
                }
            };
            for s in first
                .into_iter()
                .chain(std::iter::from_fn(|| rx.try_recv().ok()))
            {
                self.accept(s);
            }
            self.poll();
            if self.sent >= self.measured && self.backlog_at_end.is_none() {
                self.backlog_at_end = Some(self.waiting.len());
            }
            if self.measured_left == 0 {
                stop.store(true, Ordering::Release);
            }
            if generator_done && self.waiting.is_empty() {
                return;
            }
        }
    }

    fn accept(&mut self, s: Sent) {
        self.sent += 1;
        let (start_ns, end_ns) = (self.ns(s.submit_start), self.ns(s.submit_end));
        let (resolved_ns, fate) = match s.outcome {
            Outcome::Pending(ticket) => {
                self.waiting.push(Waiting {
                    index: s.index,
                    submit_start_ns: start_ns,
                    submit_end_ns: end_ns,
                    ticket,
                });
                return;
            }
            Outcome::Answered(at, response) => (self.ns(at), fate(response)),
            Outcome::Refused => (end_ns, Fate::Refused),
        };
        let record = Record {
            due_ns: self.due_ns[s.index],
            submit_start_ns: start_ns,
            submit_end_ns: end_ns,
            resolved_ns,
            fate,
        };
        self.settle(s.index, record);
    }

    fn poll(&mut self) {
        let mut i = 0;
        while i < self.waiting.len() {
            if let Some(response) = self.waiting[i].ticket.poll() {
                let w = self.waiting.swap_remove(i);
                let record = Record {
                    due_ns: self.due_ns[w.index],
                    submit_start_ns: w.submit_start_ns,
                    submit_end_ns: w.submit_end_ns,
                    resolved_ns: self.ns(Instant::now()),
                    fate: fate(response),
                };
                self.settle(w.index, record);
            } else {
                i += 1;
            }
        }
    }

    fn settle(&mut self, index: usize, record: Record) {
        if index < self.measured {
            self.measured_left -= 1;
            self.last_measured_ns = self.last_measured_ns.max(record.resolved_ns);
            if self.spans.enabled() {
                record_request_spans(&mut self.spans, self.request_base + index as u64, &record);
            }
        }
        self.records[index] = Some(record);
    }

    fn finish(self) -> RungRun {
        let first_due = self.due_ns.first().copied().unwrap_or(0);
        let records: Vec<Record> = self.records.into_iter().map_while(|r| r).collect();
        assert_eq!(records.len(), self.sent, "every sent request has a record");
        RungRun {
            records,
            elapsed_s: self.last_measured_ns.saturating_sub(first_due) as f64 / 1e9,
            backlog_at_end: self.backlog_at_end.unwrap_or(0),
            spans: self.spans,
        }
    }
}

/// The span tree of one answered request: a `bench.request` root from
/// due to answer, the generator's lag, the `submit` call, and the
/// service's own latency phases laid end to end from admission.
fn record_request_spans(spans: &mut SpanLog, request: u64, r: &Record) {
    let root = spans.record("bench.request", request, None, r.due_ns, r.resolved_ns);
    spans.record("gen.lag", request, Some(root), r.due_ns, r.submit_start_ns);
    spans.record(
        "serve.submit",
        request,
        Some(root),
        r.submit_start_ns,
        r.submit_end_ns,
    );
    let response = match &r.fate {
        Fate::Ok(resp) | Fate::Failed(resp) => resp,
        Fate::Refused => return,
    };
    if let Some(b) = crate::serve::breakdown(response) {
        let mut t = r.submit_start_ns;
        for (name, d) in [
            ("serve.cache", b.cache_ns),
            ("serve.queue", b.queue_ns),
            ("serve.form", b.form_ns),
            ("farm.exec", b.exec_ns),
            ("serve.respond", b.respond_ns),
        ] {
            if d > 0 {
                spans.record(name, request, Some(root), t, t + d);
            }
            t += d;
        }
    }
}
