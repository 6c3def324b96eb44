//! The serve core and the pumped engine.
//!
//! `ShardCore` (crate-internal) is one shard: the bounded queue, the
//! request spans, the serve tallies, the batch log and its
//! `BatchExecutor`. `pass` is the one admit → batch → execute loop
//! over it, and `Router` the one placement, failover and supervision
//! front over N of them. Two front ends run that core: [`ServeEngine`],
//! pumped by the caller on a given clock (what the scripted determinism
//! tests drive), and [`crate::ShardedService`], one batcher thread per
//! shard.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, PoisonError};

use canti_farm::{FarmObserver, JobSpec};
use canti_obs::trace::SpanGuard;
use canti_obs::ObsClock;

use crate::exec::BatchExecutor;
use crate::queue::{AdmissionQueue, BatchTrigger, FormedBatch, Pending, RejectReason};
use crate::response::{Disposition, ServeResponse};
use crate::shard::{
    route_failover, route_request, sum_cache_stats, sum_stats, ShardHealth, ShardedConfig,
};
use crate::supervisor::{ShardSupervisor, SupervisorConfig};
use crate::ServeConfig;

/// Running tallies of everything the serving layer decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected at the door (queue full or draining).
    pub rejected: u64,
    /// Admitted requests that expired before entering a batch.
    pub expired: u64,
    /// Requests answered by a completed batch.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Admitted requests answered [`RejectReason::ShardFailed`] because
    /// their shard died before their batch completed.
    pub failed: u64,
    /// Always 0; kept so callers that build a `ServeStats` by field
    /// name keep compiling.
    pub shed: u64,
    /// Requests answered straight from the content-addressed result
    /// cache (also counted in `admitted` and `completed`).
    pub cache_hits: u64,
    /// Requests that coalesced onto an identical in-flight leader (also
    /// counted in `admitted`; counted in `completed` when the leader's
    /// batch lands).
    pub coalesced: u64,
}

impl ServeStats {
    /// One-line human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "serve: {} admitted, {} rejected, {} expired, {} completed, {} failed in {} batches ({} cache hits, {} coalesced)",
            self.admitted,
            self.rejected,
            self.expired,
            self.completed,
            self.failed,
            self.batches,
            self.cache_hits,
            self.coalesced
        )
    }
}

/// One formed batch as the engine logged it: membership, trigger, seed.
///
/// The log is part of the determinism contract — two runs of the same
/// arrival script produce `==` batch logs at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Zero-based batch index.
    pub index: u64,
    /// What fired the batch.
    pub trigger: BatchTrigger,
    /// The farm seed the batch ran with.
    pub seed: u64,
    /// Member request (global) ids in admission order.
    pub request_ids: Vec<u64>,
}

/// How a request that was never served ended.
#[derive(Debug, Clone, Copy)]
enum Unserved {
    /// Its deadline (absolute, ns) passed while it waited.
    Expired { deadline_ns: u64 },
    /// Its shard died ([`RejectReason::ShardFailed`]).
    Failed,
}

/// One shard of the serving layer: admission, expiry, batch formation,
/// request spans and tallies, the [`BatchExecutor`] that runs formed
/// batches, and — in the threaded service — the tickets of the requests
/// it still owes an answer. Both front ends run their shards through this
/// one core; a single-shard engine is just the plain case. Formed
/// batches execute with the core released (see [`pass`]), so the
/// threaded service keeps admitting while a batch computes.
#[derive(Debug)]
pub(crate) struct ShardCore {
    index: usize,
    queue: AdmissionQueue,
    clock: Arc<dyn ObsClock>,
    observer: Option<FarmObserver>,
    instruments: Option<crate::exec::ServeInstruments>,
    spans: BTreeMap<u64, SpanGuard>,
    stats: ServeStats,
    /// Every formed batch, kept only for its reader, the pumped
    /// engine's [`ServeEngine::batch_log`]; `None` in the threaded
    /// service, which would otherwise grow it by a record per batch for
    /// as long as it runs.
    batch_log: Option<Vec<BatchRecord>>,
    /// The shard's content-addressed result cache, shared with the
    /// executor (lookups here, inserts there). `None` with caching off.
    cache: Option<Arc<std::sync::Mutex<crate::cache::ReportCache>>>,
    /// Responses for requests answered from the cache at admission,
    /// buffered until the core delivers them (immediately after admit
    /// in the threaded service; at the next pump in the engine). Every
    /// one is terminal and already fully accounted.
    hits: Vec<ServeResponse>,
    executor: BatchExecutor,
    /// Outstanding tickets by request id. Only the threaded service
    /// opens tickets; the pumped engine gets every response handed back.
    tickets: BTreeMap<u64, crate::service::Waiter>,
}

impl ShardCore {
    /// Shard `index` under `config`, timing everything on `clock`.
    pub(crate) fn new(index: usize, config: ServeConfig, clock: Arc<dyn ObsClock>) -> Self {
        let cache = config
            .cache
            .map(|c| Arc::new(std::sync::Mutex::new(crate::cache::ReportCache::new(c))));
        let mut executor = BatchExecutor::new(config.threads, Arc::clone(&clock));
        if let Some(c) = &cache {
            executor = executor.with_report_cache(Arc::clone(c));
        }
        Self {
            index,
            queue: AdmissionQueue::new(config),
            clock,
            observer: None,
            instruments: None,
            spans: BTreeMap::new(),
            stats: ServeStats::default(),
            batch_log: None,
            cache,
            hits: Vec::new(),
            executor,
            tickets: BTreeMap::new(),
        }
    }

    /// Admits `job` under request key `key` (the global id the router
    /// assigned) with an optional deadline relative to now, or rejects
    /// it — keeping tallies, the queue-depth gauge, the request span and
    /// the admission/rejection events.
    fn enqueue(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        key: u64,
    ) -> Result<(), RejectReason> {
        let now_ns = self.clock.now_ns();
        let kind = job.kind();
        // Content-addressed fast path: a cached answer satisfies any
        // deadline, so the lookup precedes the capacity gate (a hit
        // occupies no queue slot). A failed or draining shard skips the
        // lookup and refuses below.
        let open = !self.queue.is_failed() && !self.queue.is_draining();
        if let Some(cache) = self.cache.as_ref().filter(|_| open) {
            let hit = cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .lookup(crate::cache::job_key(&job));
            match hit {
                Some(output) => {
                    self.complete_hit(key, kind, output, now_ns);
                    return Ok(());
                }
                None => {
                    // no request field: the id is not allocated yet at
                    // miss time (the normal admission below assigns it)
                    if let Some(o) = &self.observer {
                        o.tracer().event("cache_miss", &[("kind", kind.into())]);
                    }
                    if let Some(ins) = &self.instruments {
                        ins.cache_miss.inc();
                        ins.timeline.record_delta("serve.cache_miss", 1, now_ns);
                    }
                }
            }
        }
        match self.queue.submit(now_ns, job, deadline_ns, key) {
            Ok(admitted) => {
                self.stats.admitted += 1;
                if let Some(o) = &self.observer {
                    // span fields carry the global key and trace id, so
                    // the chain stays joinable at any shard count
                    let ctx = canti_obs::TraceContext::from_admission(key);
                    let span = o.tracer().span(
                        "request",
                        &[
                            ("request", ctx.request.into()),
                            ("trace", ctx.trace.into()),
                            ("kind", kind.into()),
                        ],
                    );
                    self.spans.insert(key, span);
                }
                if let Some(ins) = &self.instruments {
                    ins.admitted.inc();
                    ins.timeline.record_delta("serve.admitted", 1, now_ns);
                }
                match admitted {
                    crate::queue::Admitted::Queued(_) => self.observe_depth(),
                    crate::queue::Admitted::Coalesced { leader, .. } => {
                        // no depth change: the follower rides the
                        // leader's slot
                        self.stats.coalesced += 1;
                        if let Some(o) = &self.observer {
                            let ctx = canti_obs::TraceContext::from_admission(key);
                            o.tracer().event(
                                "coalesced",
                                &[
                                    ("request", ctx.request.into()),
                                    ("trace", ctx.trace.into()),
                                    ("leader", leader.into()),
                                ],
                            );
                        }
                        if let Some(ins) = &self.instruments {
                            ins.coalesced.inc();
                            ins.timeline.record_delta("serve.coalesced", 1, now_ns);
                        }
                    }
                }
                Ok(())
            }
            Err(reason) => {
                self.stats.rejected += 1;
                if let Some(o) = &self.observer {
                    o.tracer().event(
                        "request_rejected",
                        &[("kind", kind.into()), ("reason", reason.label().into())],
                    );
                }
                if let Some(ins) = &self.instruments {
                    ins.rejected.inc();
                    ins.timeline.record_delta("serve.rejected", 1, now_ns);
                }
                Err(reason)
            }
        }
    }

    /// One request answered from the result cache at admission: fully
    /// accounted (tallies, counters, SLO, request log, trace event) and
    /// buffered for delivery. No span opens — the request
    /// never enters the queue. On a virtual clock the lookup is
    /// instantaneous (`cache_ns` 0), so scripted traces stay pinned; on
    /// the wall clock `cache_ns` is the real lookup cost and the
    /// breakdown still tiles exactly.
    fn complete_hit(
        &mut self,
        seed_key: u64,
        kind: &'static str,
        output: canti_farm::JobOutput,
        admitted_ns: u64,
    ) {
        self.stats.admitted += 1;
        self.stats.cache_hits += 1;
        self.stats.completed += 1;
        let trace = canti_obs::trace_id(seed_key);
        let done_ns = self.clock.now_ns();
        let cache_ns = done_ns.saturating_sub(admitted_ns);
        if let Some(o) = &self.observer {
            o.tracer().event(
                "cache_hit",
                &[
                    ("request", seed_key.into()),
                    ("trace", trace.into()),
                    ("kind", kind.into()),
                ],
            );
        }
        if let Some(ins) = &self.instruments {
            ins.admitted.inc();
            ins.cache_hit.inc();
            ins.completed.inc();
            ins.request_latency_ns.record(cache_ns);
            ins.slo.record(cache_ns, done_ns);
            ins.timeline.record_delta("serve.admitted", 1, admitted_ns);
            ins.timeline.record_delta("serve.cache_hit", 1, done_ns);
            ins.timeline.record_delta("serve.completed", 1, done_ns);
            ins.timeline
                .record_delta("serve.request_latency_ns", cache_ns, done_ns);
            ins.timeline
                .record_delta("serve.cache_ns", cache_ns, done_ns);
            ins.requests.push(canti_obs::RequestRecord {
                request: seed_key,
                trace,
                outcome: "cache_hit",
                batch: None,
                latency_ns: cache_ns,
                queue_ns: 0,
                form_ns: 0,
                exec_ns: 0,
                respond_ns: 0,
                finished_ns: done_ns,
            });
        }
        self.hits.push(ServeResponse {
            request_id: seed_key,
            trace,
            disposition: Disposition::CacheHit {
                latency_ns: cache_ns,
                breakdown: crate::response::LatencyBreakdown {
                    cache_ns,
                    ..Default::default()
                },
                result: Ok(output),
            },
        });
    }

    /// Marks the shard failed (later submissions get
    /// [`RejectReason::ShardFailed`]) and answers everything still
    /// queued terminally.
    pub(crate) fn fail_queued(&mut self) -> Vec<ServeResponse> {
        self.queue.fail();
        let victims = self.queue.take_all();
        let now_ns = self.clock.now_ns();
        let responses = victims
            .iter()
            .flat_map(|p| self.abandon_all(p, now_ns))
            .collect();
        self.observe_depth();
        responses
    }

    /// [`Self::abandon`] for a leader and every follower riding on it,
    /// all answered [`RejectReason::ShardFailed`].
    fn abandon_all(&mut self, p: &Pending, now_ns: u64) -> Vec<ServeResponse> {
        std::iter::once((p.key, p.trace, p.enqueued_ns))
            .chain(p.followers.iter().map(|f| (f.key, f.trace, f.enqueued_ns)))
            .map(|(key, trace, enqueued)| {
                self.abandon(key, trace, enqueued, Unserved::Failed, now_ns)
            })
            .collect()
    }

    /// One request that ends unserved: tally bumped, trace event, span
    /// closed, SLO breached (however briefly it waited), debug record
    /// written, terminal [`Disposition::Expired`] or
    /// [`Disposition::Failed`] response built.
    fn abandon(
        &mut self,
        key: u64,
        trace: u64,
        enqueued_ns: u64,
        how: Unserved,
        now_ns: u64,
    ) -> ServeResponse {
        let waited_ns = now_ns.saturating_sub(enqueued_ns);
        let (outcome, disposition) = match how {
            Unserved::Expired { deadline_ns } => {
                self.stats.expired += 1;
                let d = Disposition::Expired {
                    waited_ns,
                    deadline_ns,
                };
                ("expired", d)
            }
            Unserved::Failed => {
                self.stats.failed += 1;
                let reason = RejectReason::ShardFailed;
                (reason.label(), Disposition::Failed { reason })
            }
        };
        let expired = matches!(how, Unserved::Expired { .. });
        if let Some(o) = &self.observer {
            let fields = [
                ("request", key.into()),
                ("trace", trace.into()),
                ("reason", outcome.into()),
            ];
            if expired {
                o.tracer().event("request_expired", &fields[..2]);
            } else {
                o.tracer().event("request_abandoned", &fields);
            }
        }
        if let Some(ins) = &self.instruments {
            let (counter, series) = if expired {
                (&ins.expired, "serve.expired")
            } else {
                (&ins.failed, "serve.failed")
            };
            counter.inc();
            ins.timeline.record_delta(series, 1, now_ns);
            ins.slo.record_outcome(false, now_ns);
            ins.requests.push(canti_obs::RequestRecord {
                request: key,
                trace,
                outcome,
                batch: None,
                latency_ns: waited_ns,
                queue_ns: waited_ns,
                form_ns: 0,
                exec_ns: 0,
                respond_ns: 0,
                finished_ns: now_ns,
            });
        }
        if let Some(span) = self.spans.remove(&key) {
            span.end();
        }
        ServeResponse {
            request_id: key,
            trace,
            disposition,
        }
    }

    /// Expires overdue queued requests, answering each with
    /// [`Disposition::Expired`].
    pub(crate) fn take_expired(&mut self) -> Vec<ServeResponse> {
        let now_ns = self.clock.now_ns();
        let expired = self.queue.take_expired(now_ns);
        let responses: Vec<ServeResponse> = expired
            .iter()
            .map(|p| {
                let how = Unserved::Expired {
                    deadline_ns: p.deadline_ns.unwrap_or(now_ns),
                };
                self.abandon(p.key, p.trace, p.enqueued_ns, how, now_ns)
            })
            .collect();
        if !responses.is_empty() {
            self.observe_depth();
        }
        responses
    }

    /// Releases every currently ready batch (size threshold first, then
    /// linger), logging each.
    pub(crate) fn form_ready(&mut self) -> Vec<FormedBatch> {
        let now_ns = self.clock.now_ns();
        let mut batches = Vec::new();
        while let Some(batch) = self.queue.pop_ready(now_ns) {
            self.log_batch(&batch);
            batches.push(batch);
        }
        if !batches.is_empty() {
            self.observe_depth();
        }
        batches
    }

    /// Stops admission and releases the remaining queue as drain
    /// batches.
    pub(crate) fn begin_drain(&mut self) -> Vec<FormedBatch> {
        let now_ns = self.clock.now_ns();
        self.queue.begin_drain();
        let mut batches = Vec::new();
        while let Some(batch) = self.queue.pop_drain(now_ns) {
            self.log_batch(&batch);
            batches.push(batch);
        }
        self.observe_depth();
        batches
    }

    /// Closes the request spans of completed responses and bumps the
    /// completion tallies (batch metrics themselves are recorded by the
    /// executor).
    pub(crate) fn finish(&mut self, responses: &[ServeResponse]) {
        for r in responses {
            if let Some(span) = self.spans.remove(&r.request_id) {
                span.end();
            }
            if matches!(r.disposition, Disposition::Completed { .. }) {
                self.stats.completed += 1;
            }
        }
        self.stats.batches = self.queue.batches_formed();
    }

    /// Starts keeping the batch log (the pumped engine's shards).
    fn keep_batch_log(mut self) -> Self {
        self.batch_log = Some(Vec::new());
        self
    }

    /// The batches logged so far: empty unless the log is kept.
    pub(crate) fn batch_log(&self) -> &[BatchRecord] {
        self.batch_log.as_deref().unwrap_or_default()
    }

    fn log_batch(&mut self, batch: &FormedBatch) {
        if let Some(log) = &mut self.batch_log {
            log.push(BatchRecord {
                index: batch.index,
                trigger: batch.trigger,
                seed: batch.seed,
                request_ids: batch.request_ids(),
            });
        }
    }

    fn observe_depth(&self) {
        if let Some(ins) = &self.instruments {
            let depth = self.queue.depth();
            ins.queue_depth.set(depth as i64);
            // sampled whenever the depth changes; the cadence depends on
            // batch formation, so this series is not shard-invariant
            ins.timeline
                .sample("serve.queue_depth", depth as u64, self.clock.now_ns());
        }
    }
}

/// What the supervisor hears about one executed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// At least one member completed.
    Clean,
    /// The executor panicked under the batch: the shard is dead.
    Died,
}

/// One formed batch after the executor ran it (or died trying).
struct Executed {
    index: u64,
    /// The members, kept so a dead batch can still answer them.
    members: Vec<Pending>,
    result: std::thread::Result<Vec<ServeResponse>>,
}

impl Executed {
    fn run(executor: &BatchExecutor, batch: FormedBatch) -> Self {
        let index = batch.index;
        let members = batch.items.clone();
        let result = catch_unwind(AssertUnwindSafe(|| executor.execute(batch)));
        Self {
            index,
            members,
            result,
        }
    }

    fn verdict(&self) -> Option<Verdict> {
        match &self.result {
            Err(_) => Some(Verdict::Died),
            Ok(responses) => responses
                .iter()
                .any(|r| matches!(r.disposition, Disposition::Completed { .. }))
                .then_some(Verdict::Clean),
        }
    }
}

impl ShardCore {
    /// Attaches a farm observer: serve counters/histograms, request and
    /// batch spans, SLO windows, the request log and the farm's own
    /// telemetry all record into it. Admission and executor share ONE
    /// instrument set, so SLO windows and the request log see both
    /// halves of every request.
    pub(crate) fn observe(&mut self, observer: FarmObserver) {
        let config = self.queue.config();
        let instruments =
            crate::exec::ServeInstruments::new(&observer, config.slo, config.timeline);
        self.observer = Some(observer.clone());
        self.instruments = Some(instruments.clone());
        self.executor = self
            .executor
            .clone()
            .with_instruments(observer, instruments);
    }

    /// Arms this shard's slice of a serve fault plan. An empty slice
    /// installs nothing at all, so a default plan is provably identical
    /// to no plan.
    pub(crate) fn arm(&mut self, plan: &canti_fault::ServeFaultPlan) {
        let chaos = canti_fault::ServeChaos::new(plan, self.index);
        if !chaos.is_empty() {
            self.executor = self
                .executor
                .clone()
                .with_chaos(Arc::new(std::sync::Mutex::new(chaos)));
        }
    }

    /// Admits one request under its global id. `from` names the primary
    /// shard when the router failed this request over to us: the
    /// `failover{request, from, to}` event and counter land here.
    pub(crate) fn admit(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        request: u64,
        from: Option<usize>,
    ) -> Result<(), RejectReason> {
        self.enqueue(job, deadline_ns, request)?;
        if let Some(from) = from {
            if let Some(ins) = &self.instruments {
                ins.failovers.inc();
            }
            if let Some(o) = self.executor.observer() {
                o.tracer().event(
                    "failover",
                    &[
                        ("request", request.into()),
                        ("from", from.into()),
                        ("to", self.index.into()),
                    ],
                );
            }
        }
        Ok(())
    }

    /// Opens a ticket for admitted request `request` and answers it at
    /// once when the admission was a cache hit.
    pub(crate) fn open_ticket(&mut self, request: u64) -> Receiver<ServeResponse> {
        let (cell, rx) = crate::service::Waiter::open(self.clock.now_ns());
        self.tickets.insert(request, cell);
        let hits = std::mem::take(&mut self.hits);
        let unclaimed = self.deliver(hits);
        debug_assert!(
            unclaimed.is_empty(),
            "every threaded request holds a ticket"
        );
        rx
    }

    /// Fulfils the ticket of every response that has one and hands back
    /// the rest (all of them, in the pumped engine).
    fn deliver(&mut self, responses: Vec<ServeResponse>) -> Vec<ServeResponse> {
        if self.tickets.is_empty() {
            return responses;
        }
        responses
            .into_iter()
            .filter_map(|r| match self.tickets.remove(&r.request_id) {
                Some(cell) => {
                    cell.fulfil(r);
                    None
                }
                None => Some(r),
            })
            .collect()
    }

    /// The lock-scoped opening of a pass: buffered cache hits and
    /// expiries, then every ready batch — or, when draining, admission
    /// stopped and the whole queue released. A dead shard answered
    /// everything when it died, so it opens nothing.
    fn open(&mut self, drain: bool) -> (Vec<ServeResponse>, Vec<FormedBatch>) {
        if self.queue.is_failed() {
            if drain {
                self.queue.begin_drain();
            }
            return (Vec::new(), Vec::new());
        }
        let mut ready = std::mem::take(&mut self.hits);
        ready.extend(self.take_expired());
        let batches = if drain {
            self.begin_drain()
        } else {
            self.form_ready()
        };
        (ready, batches)
    }

    /// Lands one executed batch — the one executor-panic path. A clean
    /// batch closes its spans and tallies. A panic (a chaos kill or a
    /// real bug) marks the shard failed and answers the dead batch, the
    /// batches formed behind it and everything still queued with
    /// [`RejectReason::ShardFailed`]: no admitted request is ever left
    /// hanging.
    fn land(
        &mut self,
        executed: Executed,
        stranded: &mut dyn Iterator<Item = FormedBatch>,
    ) -> Vec<ServeResponse> {
        match executed.result {
            Ok(responses) => {
                self.finish(&responses);
                responses
            }
            Err(_) => {
                if let Some(o) = self.executor.observer() {
                    o.tracer()
                        .event("shard_down", &[("batch", executed.index.into())]);
                }
                let now_ns = self.clock.now_ns();
                let mut out = Vec::new();
                for p in executed
                    .members
                    .into_iter()
                    .chain(stranded.flat_map(|b| b.items))
                {
                    out.extend(self.abandon_all(&p, now_ns));
                }
                out.extend(self.fail_queued());
                self.stats.batches = self.queue.batches_formed();
                out
            }
        }
    }

    /// Answers every outstanding request [`RejectReason::ShardFailed`]
    /// and marks the shard failed: the threaded batcher's safety net for
    /// a panic outside batch execution.
    pub(crate) fn fail_outstanding(&mut self) {
        let queued = self.fail_queued();
        let _ = self.deliver(queued);
        // the requests a dying pass consumed survive only as tickets
        let now_ns = self.clock.now_ns();
        let known: Vec<(u64, u64)> = self
            .tickets
            .iter()
            .map(|(&request, cell)| (request, cell.enqueued_ns))
            .collect();
        let inflight = known
            .into_iter()
            .map(|(key, enqueued_ns)| {
                let trace = canti_obs::trace_id(key);
                self.abandon(key, trace, enqueued_ns, Unserved::Failed, now_ns)
            })
            .collect();
        let _ = self.deliver(inflight);
    }

    /// The one revive: a fresh executor over a **fresh** worker pool
    /// (same clock, caches, observer, instruments and chaos state) and
    /// admission reopened. `restarts` is the supervisor's count,
    /// restart included.
    fn revive(&mut self, restarts: u64) {
        self.executor = self.executor.resurrected();
        self.queue.restore();
        if let Some(ins) = self.executor.instruments() {
            ins.shard_restarts.inc();
        }
        if let Some(o) = self.executor.observer() {
            o.tracer()
                .event("shard_recovered", &[("restarts", restarts.into())]);
        }
    }

    /// Time until this shard's queue can change on its own — the
    /// oldest request's linger or the earliest deadline coming due.
    /// `None` while the queue is empty.
    pub(crate) fn next_wakeup_in(&self) -> Option<std::time::Duration> {
        let due = self.queue.next_wakeup_ns()?;
        let now = self.clock.now_ns();
        Some(std::time::Duration::from_nanos(due.saturating_sub(now)))
    }

    pub(crate) fn stats(&self) -> ServeStats {
        self.stats
    }

    pub(crate) fn depth(&self) -> usize {
        self.queue.depth()
    }

    pub(crate) fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        let cache = self.cache.as_ref()?;
        Some(cache.lock().unwrap_or_else(PoisonError::into_inner).stats())
    }

    pub(crate) fn observer(&self) -> Option<FarmObserver> {
        self.executor.observer().cloned()
    }

    pub(crate) fn slo(&self) -> Option<Arc<canti_obs::SloTracker>> {
        Some(Arc::clone(&self.instruments.as_ref()?.slo))
    }

    pub(crate) fn request_log(&self) -> Option<Arc<canti_obs::RequestLog>> {
        Some(Arc::clone(&self.instruments.as_ref()?.requests))
    }

    pub(crate) fn timeline(&self) -> Option<Arc<canti_obs::TimelineRecorder>> {
        Some(Arc::clone(&self.instruments.as_ref()?.timeline))
    }

    pub(crate) fn pool_threads(&self) -> usize {
        self.executor.pool_threads()
    }
}

/// How a front end reaches one shard while [`pass`] runs.
pub(crate) trait Host {
    /// Runs `f` on the shard's core (under the shard's lock, in the
    /// threaded service).
    fn core<R>(&mut self, f: impl FnOnce(&mut ShardCore) -> R) -> R;
    /// Tells the supervisor about a batch. Never called while the core
    /// is held.
    fn report(&mut self, verdict: Verdict);
}

/// One pass over a shard — the loop both front ends run. The core opens it
/// (hits, expiries, formation — or the drain flush); each
/// formed batch then executes with the core released, its verdict goes
/// to the supervisor — at most one `Clean` per pass, and `Died` — and
/// only then does it land, so health changes before any of its tickets
/// is answered. Returns the responses no ticket claimed, in order, and
/// whether the pass did anything.
pub(crate) fn pass(host: &mut impl Host, drain: bool) -> (Vec<ServeResponse>, bool) {
    let (mut out, batches, executor, worked) = host.core(|c| {
        let (ready, batches) = c.open(drain);
        let worked = !ready.is_empty() || !batches.is_empty();
        let executor = (!batches.is_empty()).then(|| c.executor.clone());
        (c.deliver(ready), batches, executor, worked)
    });
    let Some(executor) = executor else {
        return (out, worked);
    };
    let mut reported_clean = false;
    let mut batches = batches.into_iter();
    while let Some(batch) = batches.next() {
        let executed = Executed::run(&executor, batch);
        let verdict = executed.verdict();
        match verdict {
            Some(Verdict::Clean) if !reported_clean => {
                reported_clean = true;
                host.report(Verdict::Clean);
            }
            Some(Verdict::Died) => host.report(Verdict::Died),
            _ => {}
        }
        out.extend(host.core(|c| {
            let landed = c.land(executed, &mut batches);
            c.deliver(landed)
        }));
        if verdict == Some(Verdict::Died) {
            break;
        }
    }
    (out, worked)
}

/// Global request ids, placement with failover, and supervision: the
/// one router both front ends put before their shards.
#[derive(Debug)]
pub(crate) struct Router {
    next_id: u64,
    /// Requests rerouted off a `Down` primary so far.
    pub(crate) failovers: u64,
    pub(crate) supervisor: ShardSupervisor,
}

impl Router {
    pub(crate) fn new(shards: usize, config: SupervisorConfig) -> Self {
        Self {
            next_id: 0,
            failovers: 0,
            supervisor: ShardSupervisor::new(config, shards),
        }
    }

    /// Places the next request: its primary shard ([`route_request`])
    /// while live, else the [`route_failover`] target. `admit(shard, id,
    /// from)` tries one shard — `from` is the primary when this is a
    /// failover — and a [`RejectReason::ShardFailed`] answer rules that
    /// shard out and retries. Returns `(id, shard, admit's value)`. A
    /// rejected request burns no id, so the id stream — and every later
    /// request's routing and seed — is independent of rejections.
    pub(crate) fn place<T>(
        &mut self,
        mut admit: impl FnMut(usize, u64, Option<usize>) -> Result<T, RejectReason>,
    ) -> Result<(u64, usize, T), RejectReason> {
        let id = self.next_id;
        let mut live = self.supervisor.live_mask();
        let primary = route_request(id, live.len());
        loop {
            let shard = route_failover(id, &live).ok_or(RejectReason::ShardFailed)?;
            let from = (shard != primary).then_some(primary);
            match admit(shard, id, from) {
                Ok(value) => {
                    if from.is_some() {
                        self.failovers += 1;
                    }
                    self.next_id += 1;
                    return Ok((id, shard, value));
                }
                Err(RejectReason::ShardFailed) => live[shard] = false,
                Err(e) => return Err(e),
            }
        }
    }

    /// Feeds one batch verdict on `shard` to the supervisor.
    pub(crate) fn report(&mut self, shard: usize, verdict: Verdict, now_ns: u64) {
        match verdict {
            Verdict::Clean => self.supervisor.record_clean_batch(shard),
            Verdict::Died => {
                let _ = self.supervisor.record_failure(shard, now_ns);
            }
        }
    }

    /// Revives `core` when its shard is `Down` and its backoff has
    /// elapsed at `now_ns`. Returns whether it did.
    pub(crate) fn revive_due(&mut self, core: &mut ShardCore, now_ns: u64) -> bool {
        let shard = core.index;
        if !self.supervisor.restart_due(shard, now_ns) {
            return false;
        }
        self.supervisor.record_restart(shard);
        core.revive(self.supervisor.restarts(shard));
        true
    }

    /// The earliest scheduled restart over all `Down` shards.
    pub(crate) fn next_restart_ns(&self) -> Option<u64> {
        let shards = self.supervisor.healths().len();
        (0..shards)
            .filter_map(|s| self.supervisor.next_restart_ns(s))
            .min()
    }
}

/// The per-shard views both front ends expose, written once. The caller
/// provides `each(f)` — `f` over every shard's core, in shard order —
/// and `router()`.
macro_rules! shard_views {
    () => {
        /// Requests currently queued, across shards.
        #[must_use]
        pub fn queue_depth(&self) -> usize {
            self.each(ShardCore::depth).into_iter().sum()
        }

        /// Per-shard tallies, in shard order.
        #[must_use]
        pub fn shard_stats(&self) -> Vec<ServeStats> {
            self.each(ShardCore::stats)
        }

        /// The tallies, summed across shards.
        #[must_use]
        pub fn stats(&self) -> ServeStats {
            sum_stats(self.shard_stats().into_iter())
        }

        /// The result caches' counters, summed across shards (`None`
        /// when the config has caching off).
        #[must_use]
        pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
            sum_cache_stats(self.each(ShardCore::cache_stats).into_iter())
        }

        /// Per-shard health, in shard order, as the supervisor sees it.
        #[must_use]
        pub fn healths(&self) -> Vec<ShardHealth> {
            self.router().supervisor.healths()
        }

        /// Requests rerouted off a `Down` primary so far.
        #[must_use]
        pub fn failovers(&self) -> u64 {
            self.router().failovers
        }

        /// Shard restarts performed so far, across all shards.
        #[must_use]
        pub fn restarts(&self) -> u64 {
            self.router().supervisor.total_restarts()
        }

        /// Per-shard observers, in shard order (empty entries for
        /// unobserved shards).
        #[must_use]
        pub fn observers(&self) -> Vec<Option<FarmObserver>> {
            self.each(ShardCore::observer)
        }

        /// Per-shard SLO trackers, in shard order (empty entries for
        /// unobserved shards).
        #[must_use]
        pub fn slos(&self) -> Vec<Option<Arc<canti_obs::SloTracker>>> {
            self.each(ShardCore::slo)
        }

        /// Per-shard request logs behind `/debug/requests`, in shard
        /// order (empty entries for unobserved shards).
        #[must_use]
        pub fn request_logs(&self) -> Vec<Option<Arc<canti_obs::RequestLog>>> {
            self.each(ShardCore::request_log)
        }

        /// Per-shard timeline recorders behind `/debug/timeline`, in
        /// shard order (empty entries for unobserved shards).
        #[must_use]
        pub fn timelines(&self) -> Vec<Option<Arc<canti_obs::TimelineRecorder>>> {
            self.each(ShardCore::timeline)
        }

        /// Per-shard pool widths (the worker threads each shard's
        /// executor actually runs), in shard order.
        #[must_use]
        pub fn pool_threads(&self) -> Vec<usize> {
            self.each(ShardCore::pool_threads)
        }
    };
}
pub(crate) use shard_views;

/// The pumped serving engine: submit requests, then [`pump`] whenever
/// the clock has moved (or a threshold may have been crossed) to expire,
/// batch and execute them. [`Self::new`] builds one shard;
/// [`Self::sharded`] builds N behind [`route_request`], supervised under
/// a [`SupervisorConfig`] and failing over by [`route_failover`].
///
/// This is the deterministic form of the serving layer: given the same
/// config and the same scripted sequence of submissions and clock
/// advances, the batch logs, every response payload and the final
/// [`ServeStats`] are bit-identical at any worker count.
///
/// [`pump`]: Self::pump
#[derive(Debug)]
pub struct ServeEngine {
    shards: Vec<ShardCore>,
    router: Router,
    clock: Arc<dyn ObsClock>,
}

/// The pumped engine's [`Host`]: direct access, supervision at the
/// pump's clock reading.
struct Pumped<'a> {
    core: &'a mut ShardCore,
    router: &'a mut Router,
    now_ns: u64,
}

impl Host for Pumped<'_> {
    fn core<R>(&mut self, f: impl FnOnce(&mut ShardCore) -> R) -> R {
        f(self.core)
    }

    fn report(&mut self, verdict: Verdict) {
        self.router.report(self.core.index, verdict, self.now_ns);
    }
}

impl ServeEngine {
    /// A single-shard engine under `config`, timing everything on
    /// `clock`.
    #[must_use]
    pub fn new(config: ServeConfig, clock: Arc<dyn ObsClock>) -> Self {
        Self::sharded(
            ShardedConfig {
                shards: 1,
                base: config,
            },
            clock,
        )
    }

    /// An engine of `config.shards` shards, timing every shard on
    /// `clock`, supervised under [`SupervisorConfig::default`].
    #[must_use]
    pub fn sharded(config: ShardedConfig, clock: Arc<dyn ObsClock>) -> Self {
        let n = config.shard_count();
        Self {
            shards: (0..n)
                .map(|i| ShardCore::new(i, config.base, Arc::clone(&clock)).keep_batch_log())
                .collect(),
            router: Router::new(n, SupervisorConfig::default()),
            clock,
        }
    }

    /// Attaches a farm observer to a single-shard engine — see
    /// [`Self::with_observers`]. For coherent timestamps construct the
    /// observer over the same clock the engine was given.
    ///
    /// # Panics
    ///
    /// Panics unless the engine has exactly one shard.
    #[must_use]
    pub fn with_observer(self, observer: FarmObserver) -> Self {
        self.with_observers(vec![observer])
    }

    /// Attaches one observer per shard (so each shard records into its
    /// own registry, which the merged `/metrics` view labels by shard).
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn with_observers(mut self, observers: Vec<FarmObserver>) -> Self {
        assert_eq!(observers.len(), self.shards.len(), "one observer per shard");
        for (core, observer) in self.shards.iter_mut().zip(observers) {
            core.observe(observer);
        }
        self
    }

    /// Replaces the supervision policy (backoff, probation).
    #[must_use]
    pub fn with_supervisor(mut self, config: SupervisorConfig) -> Self {
        self.router = Router::new(self.shards.len(), config);
        self
    }

    /// Arms a [`canti_fault::ServeFaultPlan`]: each shard consumes its
    /// slice of the plan. Shards with no scheduled events install
    /// nothing, so an empty plan is provably identical to no plan.
    #[must_use]
    pub fn with_chaos_plan(mut self, plan: &canti_fault::ServeFaultPlan) -> Self {
        for core in &mut self.shards {
            core.arm(plan);
        }
        self
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits a request without a deadline, returning its global id.
    ///
    /// # Errors
    ///
    /// Rejected with the target shard's [`RejectReason`] (queue full,
    /// draining), or [`RejectReason::ShardFailed`] when no live shard
    /// remains. A rejection burns no id.
    pub fn submit(&mut self, job: JobSpec) -> Result<u64, RejectReason> {
        self.submit_inner(job, None)
    }

    /// Submits a request that expires `deadline_ns` after admission if
    /// still queued.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_with_deadline(
        &mut self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<u64, RejectReason> {
        self.submit_inner(job, Some(deadline_ns))
    }

    fn submit_inner(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
    ) -> Result<u64, RejectReason> {
        let shards = &mut self.shards;
        self.router
            .place(|shard, id, from| shards[shard].admit(job.clone(), deadline_ns, id, from))
            .map(|(id, _, ())| id)
    }

    /// Advances every shard, in shard order, at the current clock
    /// reading: a `Down` shard whose backoff has elapsed is revived
    /// first, then each shard expires overdue requests and forms and
    /// executes every ready batch. Returns all responses — per shard:
    /// cache hits, expirations, then batch completions in admission
    /// order. A dead
    /// shard pumps to nothing until revived (its queue was already
    /// answered terminally).
    pub fn pump(&mut self) -> Vec<ServeResponse> {
        self.pass(false)
    }

    /// Stops admission on every shard and flushes everything still
    /// queued as final batches (expiring overdue requests first). After
    /// draining, every submission is rejected with
    /// [`RejectReason::Draining`].
    pub fn drain(&mut self) -> Vec<ServeResponse> {
        self.pass(true)
    }

    fn pass(&mut self, drain: bool) -> Vec<ServeResponse> {
        let now_ns = self.clock.now_ns();
        let mut out = Vec::new();
        for core in &mut self.shards {
            if !drain {
                self.router.revive_due(core, now_ns);
            }
            let mut host = Pumped {
                core,
                router: &mut self.router,
                now_ns,
            };
            out.extend(pass(&mut host, drain).0);
        }
        out
    }

    /// Whether the engine has drained and admits nothing new.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shards.iter().all(|c| c.queue.is_draining())
    }

    /// The earliest future instant at which queued state can change on
    /// its own (linger or deadline) on any shard; `None` while every
    /// queue is empty.
    #[must_use]
    pub fn next_wakeup_ns(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|c| c.queue.next_wakeup_ns())
            .min()
    }

    /// Every batch shard `shard` formed so far, in formation order, with
    /// member global ids.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn batch_log(&self, shard: usize) -> Vec<BatchRecord> {
        self.shards[shard].batch_log().to_vec()
    }

    fn each<R>(&self, f: impl Fn(&ShardCore) -> R) -> Vec<R> {
        self.shards.iter().map(f).collect()
    }

    fn router(&self) -> &Router {
        &self.router
    }

    shard_views!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_farm::ProbeMode;
    use canti_obs::VirtualClock;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    fn engine(clock: &Arc<VirtualClock>, config: ServeConfig) -> ServeEngine {
        ServeEngine::new(config, Arc::clone(clock) as Arc<dyn ObsClock>)
    }

    #[test]
    fn size_threshold_executes_a_batch() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 2,
                linger_ns: u64::MAX, // only size can fire
                threads: 1,
                ..ServeConfig::default()
            },
        );
        assert_eq!(e.submit(probe(1.0)), Ok(0));
        assert_eq!(e.submit(probe(2.0)), Ok(1));
        assert_eq!(e.submit(probe(3.0)), Ok(2));
        let responses = e.pump();
        assert_eq!(responses.len(), 2, "one full batch fires, one queued");
        assert_eq!(e.queue_depth(), 1);
        assert_eq!(e.batch_log(0).len(), 1);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Size);
        assert_eq!(e.batch_log(0)[0].request_ids, vec![0, 1]);
        assert_eq!(e.stats().completed, 2);
    }

    #[test]
    fn default_formation_is_work_conserving() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                threads: 1,
                ..ServeConfig::default()
            },
        );
        clock.advance_ns(100);
        // a lone request: the first pump answers it, the clock unmoved
        e.submit(probe(1.0)).unwrap();
        assert_eq!(e.next_wakeup_ns(), Some(100), "ready the moment it queues");
        let lone = e.pump();
        assert_eq!(lone.len(), 1);
        assert!(matches!(
            lone[0].disposition,
            Disposition::Completed { latency_ns: 0, .. }
        ));
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Linger);
        assert_eq!(e.next_wakeup_ns(), None);
        // what queued before the pump rides one batch, in admission order
        for v in [2.0, 3.0, 4.0] {
            e.submit(probe(v)).unwrap();
            assert_eq!(e.next_wakeup_ns(), Some(100));
        }
        let ids: Vec<u64> = e.pump().iter().map(|r| r.request_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let log = e.batch_log(0);
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].trigger, BatchTrigger::Linger);
        assert_eq!(log[1].request_ids, vec![1, 2, 3]);
    }

    #[test]
    fn linger_fires_only_after_the_clock_advances() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 1_000,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit(probe(1.0)).unwrap();
        assert!(e.pump().is_empty(), "no time passed, nothing fires");
        clock.advance_ns(999);
        assert!(e.pump().is_empty(), "1 ns short of the linger");
        clock.advance_ns(1);
        let responses = e.pump();
        assert_eq!(responses.len(), 1);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Linger);
        match &responses[0].disposition {
            Disposition::Completed { latency_ns, .. } => assert_eq!(*latency_ns, 1_000),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadlines_expire_before_batching() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 500,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit_with_deadline(probe(1.0), 400).unwrap();
        e.submit(probe(2.0)).unwrap();
        clock.advance_ns(500); // linger AND deadline both due
        let responses = e.pump();
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].disposition,
            Disposition::Expired {
                waited_ns: 500,
                deadline_ns: 400
            },
            "expiry wins over batching"
        );
        assert!(responses[1].disposition.is_ok());
        assert_eq!(e.batch_log(0)[0].request_ids, vec![1]);
        assert_eq!(e.stats().expired, 1);
    }

    #[test]
    fn drain_flushes_and_then_rejects() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 4,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        for i in 0..3 {
            e.submit(probe(f64::from(i))).unwrap();
        }
        assert!(e.pump().is_empty(), "below threshold, linger unreachable");
        let responses = e.drain();
        assert_eq!(responses.len(), 3);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Drain);
        assert!(e.is_draining());
        assert_eq!(e.submit(probe(9.0)), Err(RejectReason::Draining));
        let stats = e.stats();
        assert_eq!(
            (
                stats.admitted,
                stats.rejected,
                stats.completed,
                stats.batches
            ),
            (3, 1, 3, 1)
        );
        assert!(stats.render().contains("3 admitted"));
    }

    #[test]
    fn queue_full_rejections_carry_the_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                queue_capacity: 2,
                max_batch: 8,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit(probe(1.0)).unwrap();
        e.submit(probe(2.0)).unwrap();
        assert_eq!(
            e.submit(probe(3.0)),
            Err(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(e.stats().rejected, 1);
    }

    #[test]
    fn observed_engine_tracks_metrics_and_spans() {
        let (observer, ring) = FarmObserver::deterministic(8192);
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 2,
                threads: 2,
                ..ServeConfig::default()
            },
        )
        .with_observer(observer);
        e.submit(probe(1.0)).unwrap();
        e.submit(probe(2.0)).unwrap();
        let responses = e.pump();
        assert_eq!(responses.len(), 2);
        let observer = e.observers()[0].clone().expect("observer");
        let m = observer.metrics();
        assert_eq!(m.counter("serve.admitted").get(), 2);
        assert_eq!(m.counter("serve.completed").get(), 2);
        assert_eq!(m.gauge("serve.queue_depth").get(), 0);
        // request spans open at admission and close after the batch
        let request_starts = ring
            .events()
            .iter()
            .filter(|e| e.name == "request" && e.kind == canti_obs::EventKind::SpanStart)
            .count();
        let request_ends = ring
            .events()
            .iter()
            .filter(|e| e.name == "request" && e.kind == canti_obs::EventKind::SpanEnd)
            .count();
        assert_eq!((request_starts, request_ends), (2, 2));
    }

    #[test]
    fn next_wakeup_reflects_linger_and_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 1_000,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        assert_eq!(e.next_wakeup_ns(), None);
        clock.advance_ns(10);
        e.submit_with_deadline(probe(1.0), 400).unwrap();
        assert_eq!(e.next_wakeup_ns(), Some(410), "deadline before linger");
    }
}
