//! The threaded serving front end: concurrent submitters, one batcher
//! thread per shard, one supervisor thread.
//!
//! [`ShardedService`] runs the same per-shard core and router as
//! [`crate::ServeEngine`]. Submitters get an immediate admit/reject
//! answer plus a [`ShardTicket`] they can block on (or poll); each
//! shard's batcher forms batches *under* the shard's lock but executes
//! them *outside* it, so admission stays reject-fast while the farm
//! computes.
//!
//! # Failure and revival
//!
//! Every admitted request gets a **terminal** answer — that promise
//! holds even when execution dies underneath it. A batch whose executor
//! panics (a poisoned pool, an armed chaos kill) is caught by the core:
//! the supervisor marks the shard [`ShardHealth::Down`], then the core
//! answers the doomed batch, every later formed batch and the whole
//! queue with [`crate::Disposition::Failed`] /
//! [`RejectReason::ShardFailed`]. Traffic fails over meanwhile, and
//! [`ShardTicket::wait`] never hangs on a dead shard. The supervisor
//! thread sleeps until a failure or the earliest scheduled restart,
//! then revives the shard — fresh worker pool, same caches, clock and
//! instruments — as [`ShardHealth::Recovering`].
//!
//! # Lock order
//!
//! The router lock (ids, placement, the shard supervisor) comes before
//! any shard's core lock. Submitters and the supervisor thread take
//! router then core; a batcher reports to the supervisor only while it
//! holds no core lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use canti_farm::{FarmObserver, JobSpec};
use canti_fault::ServeFaultPlan;
use canti_obs::{ObsClock, WallClock};

use crate::engine::{pass, shard_views, Host, Router, ServeStats, ShardCore, Verdict};
use crate::queue::RejectReason;
use crate::response::ServeResponse;
use crate::shard::{sum_cache_stats, sum_stats, ShardHealth, ShardedConfig};
use crate::supervisor::SupervisorConfig;

/// The longest a batcher sleeps: with an empty queue nothing can change
/// without a new submission, which wakes it immediately; with requests
/// queued it sleeps only until the next linger or deadline comes due.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// What a shard's ticket table keeps per outstanding request: the
/// sending half of its ticket's one-shot channel, and when it was
/// admitted.
#[derive(Debug)]
pub(crate) struct Waiter {
    tx: SyncSender<ServeResponse>,
    pub(crate) enqueued_ns: u64,
}

impl Waiter {
    /// A fresh cell for a request admitted at `enqueued_ns`, and the
    /// receiving half its ticket waits on.
    pub(crate) fn open(enqueued_ns: u64) -> (Self, Receiver<ServeResponse>) {
        let (tx, rx) = sync_channel(1);
        (Self { tx, enqueued_ns }, rx)
    }

    /// Hands `response` to the ticket (dropped along with it if the
    /// ticket is gone).
    pub(crate) fn fulfil(self, response: ServeResponse) {
        let _ = self.tx.send(response);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A claim on one admitted request's response.
///
/// Fulfilled exactly once — by batch completion, deadline expiry, shard
/// failure, or the drain flush at shutdown. Dropping the ticket
/// discards the response.
#[derive(Debug)]
pub struct ShardTicket {
    id: u64,
    shard: usize,
    rx: Receiver<ServeResponse>,
}

impl ShardTicket {
    /// The global request id this ticket redeems.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shard serving this request (after failover, when it applied).
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Blocks until the response arrives and returns it. Always
    /// terminal: if the serving shard dies, the response is
    /// [`crate::Disposition::Failed`] — never a hang.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the request unanswered, which its
    /// contract rules out.
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        self.rx
            .recv()
            .expect("the serve layer answers every admitted request")
    }

    /// Takes the response if it has already arrived, without blocking.
    #[must_use]
    pub fn poll(&self) -> Option<ServeResponse> {
        self.rx.try_recv().ok()
    }
}

/// One shard of the threaded service: its core, and the condvar its
/// batcher sleeps on.
struct Shard {
    core: Mutex<ShardCore>,
    wake: Condvar,
}

struct Shared {
    shards: Vec<Shard>,
    router: Mutex<Router>,
    /// Wakes the supervisor thread: a shard died, or shutdown.
    supervise: Condvar,
    /// Supervision time (backoff), whatever clocks the observers run on.
    clock: WallClock,
    stop: AtomicBool,
}

impl Shared {
    fn router(&self) -> MutexGuard<'_, Router> {
        lock(&self.router)
    }

    fn core(&self, shard: usize) -> MutexGuard<'_, ShardCore> {
        lock(&self.shards[shard].core)
    }

    /// Stops every thread. Each lock is taken once after the flag is
    /// set, so no thread can sit between its stop check and its wait.
    fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.router());
        self.supervise.notify_all();
        for (i, shard) in self.shards.iter().enumerate() {
            drop(self.core(i));
            shard.wake.notify_all();
        }
    }
}

/// The threaded service's [`Host`]: the core under its shard's lock,
/// verdicts to the supervisor under the router's.
struct Batcher<'a> {
    shared: &'a Shared,
    shard: usize,
}

impl Host for Batcher<'_> {
    fn core<R>(&mut self, f: impl FnOnce(&mut ShardCore) -> R) -> R {
        f(&mut self.shared.core(self.shard))
    }

    fn report(&mut self, verdict: Verdict) {
        let now_ns = self.shared.clock.now_ns();
        self.shared.router().report(self.shard, verdict, now_ns);
        if verdict == Verdict::Died {
            self.shared.supervise.notify_all();
        }
    }
}

/// The threaded serving layer: one batcher thread and persistent pool
/// per shard, submissions routed under one router lock (failing over
/// when a shard is down), and a supervisor thread reviving dead shards
/// after their backoff. One shard is just the plain case.
///
/// ```
/// use canti_farm::{JobSpec, ProbeMode};
/// use canti_serve::{ServeConfig, ShardedConfig, ShardedService};
///
/// let service = ShardedService::start(ShardedConfig {
///     shards: 1,
///     base: ServeConfig {
///         max_batch: 2,
///         linger_ns: 1_000, // 1 µs: fire quickly even for a lone request
///         threads: 1,
///         ..ServeConfig::default()
///     },
/// });
/// let ticket = service.submit(JobSpec::Probe(ProbeMode::Value(1.0))).unwrap();
/// assert!(ticket.wait().disposition.is_ok());
/// let stats = service.shutdown();
/// assert_eq!(stats[0].completed, 1);
/// ```
pub struct ShardedService {
    shared: Arc<Shared>,
    /// The supervisor thread, then one batcher per shard.
    threads: Vec<JoinHandle<()>>,
}

impl ShardedService {
    /// Starts `config.shard_count()` shards on the wall clock.
    #[must_use]
    pub fn start(config: ShardedConfig) -> Self {
        Self::start_with(
            config,
            None,
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        )
    }

    /// Starts one observed shard per observer, each timed on its own
    /// observer's clock (construct the observers over one shared clock
    /// for coherent timestamps).
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn start_observed(config: ShardedConfig, observers: Vec<FarmObserver>) -> Self {
        Self::start_with(
            config,
            Some(observers),
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        )
    }

    /// [`Self::start_observed`] with a serve fault plan armed and an
    /// explicit supervision policy — the chaos entry point.
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn start_chaos(
        config: ShardedConfig,
        observers: Vec<FarmObserver>,
        plan: &ServeFaultPlan,
        supervision: SupervisorConfig,
    ) -> Self {
        Self::start_with(config, Some(observers), plan, supervision)
    }

    fn start_with(
        config: ShardedConfig,
        observers: Option<Vec<FarmObserver>>,
        plan: &ServeFaultPlan,
        supervision: SupervisorConfig,
    ) -> Self {
        let n = config.shard_count();
        let observers = match observers {
            Some(observers) => {
                assert_eq!(observers.len(), n, "one observer per shard");
                observers.into_iter().map(Some).collect()
            }
            None => vec![None; n],
        };
        let shards = observers
            .into_iter()
            .enumerate()
            .map(|(i, observer)| {
                let clock: Arc<dyn ObsClock> = match &observer {
                    Some(o) => Arc::clone(o.clock()),
                    None => Arc::new(WallClock::new()),
                };
                let mut core = ShardCore::new(i, config.base, clock);
                if let Some(o) = observer {
                    core.observe(o);
                }
                core.arm(plan);
                Shard {
                    core: Mutex::new(core),
                    wake: Condvar::new(),
                }
            })
            .collect();
        let shared = Arc::new(Shared {
            shards,
            router: Mutex::new(Router::new(n, supervision)),
            supervise: Condvar::new(),
            clock: WallClock::new(),
            stop: AtomicBool::new(false),
        });
        let mut threads = vec![spawn("canti-serve-supervisor", &shared, supervise)];
        for shard in 0..n {
            threads.push(spawn("canti-serve-batcher", &shared, move |s| {
                run_batcher(s, shard);
            }));
        }
        Self { shared, threads }
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Submits a request without a deadline, routed by the global id
    /// rule with failover when the primary shard is down.
    ///
    /// # Errors
    ///
    /// Rejected immediately with the target shard's [`RejectReason`];
    /// [`RejectReason::ShardFailed`] when no live shard remains.
    pub fn submit(&self, job: JobSpec) -> Result<ShardTicket, RejectReason> {
        self.submit_inner(job, None)
    }

    /// Submits a request that expires `deadline_ns` after admission if
    /// still queued.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_with_deadline(
        &self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<ShardTicket, RejectReason> {
        self.submit_inner(job, Some(deadline_ns))
    }

    fn submit_inner(
        &self,
        job: JobSpec,
        deadline_ns: Option<u64>,
    ) -> Result<ShardTicket, RejectReason> {
        // the router lock spans the shard admission, so id assignment
        // and admission commit atomically — a rejected submit burns no id
        let (id, shard, rx) = self.shared.router().place(|shard, id, from| {
            let mut core = self.shared.core(shard);
            core.admit(job.clone(), deadline_ns, id, from)?;
            Ok(core.open_ticket(id))
        })?;
        self.shared.shards[shard].wake.notify_all();
        Ok(ShardTicket { id, shard, rx })
    }

    fn each<R>(&self, f: impl Fn(&ShardCore) -> R) -> Vec<R> {
        (0..self.shard_count())
            .map(|i| f(&self.shared.core(i)))
            .collect()
    }

    fn router(&self) -> MutexGuard<'_, Router> {
        self.shared.router()
    }

    shard_views!();

    /// Graceful shutdown: stop admitting (later submissions get
    /// [`RejectReason::Draining`]), stop the supervisor so nothing
    /// revives mid-drain, flush everything still queued as final
    /// batches, fulfil every outstanding ticket, join every thread and
    /// return the final per-shard tallies.
    #[must_use = "the drain summaries report what each shard did"]
    pub fn shutdown(mut self) -> Vec<ServeStats> {
        self.join();
        self.shard_stats()
    }

    fn join(&mut self) {
        self.shared.halt();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        self.join();
    }
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shard_count())
            .field("healths", &self.healths())
            .field("stats", &self.stats())
            .finish()
    }
}

fn spawn(
    name: &str,
    shared: &Arc<Shared>,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || body(&shared))
        .expect("spawn serve thread")
}

/// One shard's batcher: pass after pass, sleeping when a pass did
/// nothing, then the drain flush at shutdown.
fn run_batcher(shared: &Shared, shard: usize) {
    let mut host = Batcher { shared, shard };
    while !shared.stop.load(Ordering::SeqCst) {
        if guarded_pass(&mut host, false) {
            continue; // more may already be ready
        }
        let core = shared.core(shard);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let wait = core
            .next_wakeup_in()
            .map_or(IDLE_WAIT, |d| d.min(IDLE_WAIT));
        let _unused = shared.shards[shard].wake.wait_timeout(core, wait);
    }
    let _ = guarded_pass(&mut host, true);
}

/// [`pass`] with the batcher's safety net for a panic outside batch
/// execution (those are caught per batch by the core): the shard goes
/// Down and every outstanding ticket gets a terminal answer, so the
/// thread survives and no waiter hangs. Returns whether the pass did
/// anything.
fn guarded_pass(host: &mut Batcher<'_>, drain: bool) -> bool {
    catch_unwind(AssertUnwindSafe(|| pass(host, drain).1)).unwrap_or_else(|_| {
        host.report(Verdict::Died);
        host.core(ShardCore::fail_outstanding);
        true
    })
}

/// The supervisor thread: revives every `Down` shard whose backoff has
/// elapsed, then sleeps until a failure or the earliest scheduled
/// restart.
fn supervise(shared: &Shared) {
    let mut router = shared.router();
    while !shared.stop.load(Ordering::SeqCst) {
        let now_ns = shared.clock.now_ns();
        for shard in 0..shared.shards.len() {
            if router.revive_due(&mut shared.core(shard), now_ns) {
                shared.shards[shard].wake.notify_all();
            }
        }
        router = match router.next_restart_ns() {
            Some(due) => {
                let wait = Duration::from_nanos(due.saturating_sub(now_ns));
                shared
                    .supervise
                    .wait_timeout(router, wait)
                    .map_or_else(|e| e.into_inner().0, |(guard, _)| guard)
            }
            None => shared
                .supervise
                .wait(router)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route_request, Disposition, ServeConfig};
    use canti_farm::ProbeMode;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    fn one(base: ServeConfig) -> ShardedConfig {
        ShardedConfig { shards: 1, base }
    }

    /// A restart backoff no test outlives: a dead shard stays `Down`.
    fn no_restart() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base_ns: 60_000_000_000,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn tickets_resolve_for_size_triggered_batches() {
        let service = ShardedService::start(one(ServeConfig {
            max_batch: 4,
            linger_ns: 1_000_000_000, // 1 s: only size can fire
            threads: 2,
            ..ServeConfig::default()
        }));
        let tickets: Vec<ShardTicket> = (0..4)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            assert_eq!(r.request_id, i as u64);
            assert!(r.disposition.is_ok(), "request {i}: {r}");
        }
        assert_eq!(service.healths()[0], ShardHealth::Healthy);
        let stats = service.shutdown()[0];
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn a_lone_request_waits_out_its_linger_not_the_idle_wait() {
        let service = ShardedService::start(one(ServeConfig {
            max_batch: 16,
            linger_ns: 200_000, // 0.2 ms
            threads: 1,
            ..ServeConfig::default()
        }));
        let fastest = (0..5)
            .map(|i| {
                let t0 = std::time::Instant::now();
                let ticket = service.submit(probe(f64::from(i))).expect("admitted");
                assert!(ticket.wait().disposition.is_ok());
                t0.elapsed()
            })
            .min()
            .expect("five requests");
        assert!(
            fastest < IDLE_WAIT / 5,
            "the fastest lone request took {fastest:?}: the batcher slept past its linger"
        );
        let _ = service.shutdown();
    }

    #[test]
    fn full_queue_rejects_fast() {
        // Huge linger + threshold so nothing drains the queue.
        let service = ShardedService::start(one(ServeConfig {
            queue_capacity: 2,
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        }));
        let a = service.submit(probe(1.0)).expect("first admitted");
        let b = service.submit(probe(2.0)).expect("second admitted");
        assert_eq!(
            service.submit(probe(3.0)).map(|t| t.id()),
            Err(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(service.queue_depth(), 2);
        // Shutdown drains the two queued requests and answers them.
        let stats = service.shutdown()[0];
        assert!(a.wait().disposition.is_ok());
        assert!(b.wait().disposition.is_ok());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn expired_requests_get_expiry_responses() {
        let service = ShardedService::start(one(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX, // batches can never fire...
            threads: 1,
            ..ServeConfig::default()
        }));
        // ...so a 1 ns deadline must expire the request instead.
        let ticket = service
            .submit_with_deadline(probe(1.0), 1)
            .expect("admitted");
        let response = ticket.wait();
        match response.disposition {
            Disposition::Expired { .. } => {}
            other => panic!("expected expiry, got {other:?}"),
        }
        let stats = service.shutdown()[0];
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn shutdown_drains_outstanding_requests() {
        let service = ShardedService::start(one(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 2,
            ..ServeConfig::default()
        }));
        let tickets: Vec<ShardTicket> = (0..5)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        let stats = service.shutdown()[0];
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.completed, 5, "drain answered everything");
        for t in tickets {
            let r = t.poll().expect("fulfilled before shutdown returned");
            assert!(r.disposition.is_ok());
        }
    }

    #[test]
    fn observed_service_counts_through_the_shared_registry() {
        let (observer, _ring) = FarmObserver::profiling(4096);
        let service = ShardedService::start_observed(
            one(ServeConfig {
                max_batch: 3,
                linger_ns: 1_000_000_000,
                threads: 1,
                ..ServeConfig::default()
            }),
            vec![observer],
        );
        let tickets: Vec<ShardTicket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for t in tickets {
            assert!(t.wait().disposition.is_ok());
        }
        let observer = service.observers()[0].clone().expect("observer");
        let m = observer.metrics();
        assert_eq!(m.counter("serve.admitted").get(), 3);
        assert_eq!(m.counter("serve.completed").get(), 3);
        let _ = service.shutdown();
    }

    #[test]
    fn drop_performs_shutdown() {
        let service = ShardedService::start(one(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        }));
        let ticket = service.submit(probe(1.0)).expect("admitted");
        drop(service); // must drain, not leak the batcher or the ticket
        assert!(ticket.wait().disposition.is_ok());
    }

    #[test]
    fn executor_panic_answers_every_ticket_terminally() {
        // A chaos plan that kills this shard on its first batch: the
        // executor panics under the batch, and *every* waiter — batch
        // members and still-queued requests alike — must get a terminal
        // Failed answer, never a hang.
        let (observer, _ring) = FarmObserver::profiling(4096);
        let plan = ServeFaultPlan::kill_shard(0, 0);
        let service = ShardedService::start_chaos(
            one(ServeConfig {
                max_batch: 2,
                linger_ns: u64::MAX, // only size fires: 2 ride, 1 queues
                threads: 1,
                ..ServeConfig::default()
            }),
            vec![observer],
            &plan,
            no_restart(),
        );
        let tickets: Vec<ShardTicket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            match r.disposition {
                Disposition::Failed {
                    reason: RejectReason::ShardFailed,
                } => {}
                other => panic!("request {i}: expected ShardFailed, got {other:?}"),
            }
        }
        assert_eq!(service.healths()[0], ShardHealth::Down);
        assert!(!service.healths()[0].is_live());
        // a down shard refuses new work with the same terminal reason
        assert_eq!(
            service.submit(probe(9.0)).map(|t| t.id()),
            Err(RejectReason::ShardFailed)
        );
        let stats = service.shutdown()[0];
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 0);
    }

    /// Kills a 1-shard service's first batch, then waits for the
    /// supervisor to revive it.
    fn killed_and_revived(supervision: SupervisorConfig) -> ShardedService {
        let (observer, _ring) = FarmObserver::profiling(4096);
        let service = ShardedService::start_chaos(
            one(ServeConfig {
                max_batch: 1,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            }),
            vec![observer],
            &ServeFaultPlan::kill_shard(0, 0),
            supervision,
        );
        let doomed = service.submit(probe(1.0)).expect("admitted");
        assert!(matches!(
            doomed.wait().disposition,
            Disposition::Failed { .. }
        ));
        // Down before the doomed ticket was answered — unless the
        // backoff has already run out and the supervisor revived it
        assert!(service.healths()[0] == ShardHealth::Down || service.restarts() == 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !service.healths()[0].is_live() {
            assert!(std::time::Instant::now() < deadline, "never revived");
            std::thread::sleep(Duration::from_millis(1));
        }
        service
    }

    #[test]
    fn the_supervisor_revives_a_down_shard() {
        let service = killed_and_revived(SupervisorConfig {
            backoff_base_ns: 20_000_000, // 20 ms
            ..SupervisorConfig::default()
        });
        assert_eq!(service.healths()[0], ShardHealth::Recovering);
        assert_eq!(service.restarts(), 1);

        // the revived shard serves again (the kill event already fired)
        let ticket = service.submit(probe(2.0)).expect("readmitted");
        assert!(ticket.wait().disposition.is_ok());
        assert!(
            matches!(
                service.healths()[0],
                ShardHealth::Degraded | ShardHealth::Healthy
            ),
            "clean batches walk the ladder up, got {:?}",
            service.healths()[0]
        );
        let observer = service.observers()[0].clone().expect("observer");
        assert_eq!(observer.metrics().counter("serve.shard_restarts").get(), 1);
        let stats = service.shutdown()[0];
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn a_revived_shard_serves_its_probation_before_it_is_healthy() {
        let service = killed_and_revived(SupervisorConfig {
            backoff_base_ns: 20_000_000, // 20 ms
            backoff_max_shift: 6,
            probation_batches: 3,
        });
        // max_batch 1 and sequential waits: one clean batch per request.
        // The first moves Recovering → Degraded; probation is the next 3.
        let ladder: Vec<ShardHealth> = (0..4)
            .map(|i| {
                let ticket = service.submit(probe(f64::from(i))).expect("admitted");
                assert!(ticket.wait().disposition.is_ok());
                service.healths()[0]
            })
            .collect();
        use ShardHealth::{Degraded, Healthy};
        assert_eq!(ladder, [Degraded, Degraded, Degraded, Healthy]);
        let _ = service.shutdown();
    }

    #[test]
    fn sharded_service_round_trips_with_global_ids() {
        let service = ShardedService::start(ShardedConfig {
            shards: 3,
            base: ServeConfig {
                max_batch: 2,
                linger_ns: 1_000, // 1 µs: lone requests fire quickly
                threads: 1,
                ..ServeConfig::default()
            },
        });
        let tickets: Vec<ShardTicket> = (0..9)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.id(), i as u64);
            assert_eq!(t.shard(), route_request(i as u64, 3));
            let r = t.wait();
            assert_eq!(r.request_id, i as u64, "responses carry the global id");
            assert!(r.disposition.is_ok(), "request {i}: {r}");
        }
        assert_eq!(service.healths(), vec![ShardHealth::Healthy; 3]);
        let per_shard = service.shutdown();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(per_shard.iter().map(|s| s.completed).sum::<u64>(), 9);
    }
}
