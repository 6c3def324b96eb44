//! The serve workloads: open-loop traffic against a 2-shard
//! `ShardedService` with the result cache on.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use canti_farm::{FarmObserver, JobOutput, JobSpec, Receptor};
use canti_obs::{ObsClock, VirtualClock};
use canti_serve::{
    job_key, CacheConfig, Disposition, JobKey, LatencyBreakdown, ServeConfig, ServeEngine,
    ServeResponse, ServeStats, ShardedConfig, ShardedService,
};
use canti_units::{Molar, Seconds};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::load::{poisson_schedule, run_rung, Fate, Record, RungRun};
use crate::stats::Samples;
use crate::trace::SpanLog;

/// Shards in the service under test.
pub const SHARDS: usize = 2;
/// The light rung: arrival gaps far above the 1 ms linger.
pub const RATE_LO: f64 = 500.0;
/// The heavy rung: batches fill.
pub const RATE_HI: f64 = 4_000.0;
/// The p99 latency limit a ladder rung must meet, ms.
pub const LIMIT_MS: f64 = 10.0;
/// Requests every rung sends at least, so p99 has ten samples beyond it.
pub const MIN_RUNG: usize = 1_000;
/// Ratio between successive rungs of the rate ladder: a 25 % capacity
/// gain moves the knee by four rungs.
pub const LADDER_STEP: f64 = 1.05;
/// The ladder's top rung index (`RATE_HI * 1.05^40` ≈ 28.2k req/s), far
/// above the distinct-spec knee; the hot-set traffic meets the limit
/// all the way up, so on `serve_hot` the ladder reads its top rung.
pub const LADDER_TOP: usize = 40;
/// The coarse pass visits every `LADDER_COARSE`-th rung; the fine pass
/// then climbs one rung at a time from the last coarse rung that passed.
pub const LADDER_COARSE: usize = 4;
/// Windows of [`MIN_RUNG`] requests a ladder rung sends at least (see
/// [`Rung::passes`]).
pub const LADDER_WINDOWS: usize = 9;
/// Generator lag p99 above which a rung is invalid, ms: half the
/// latency limit, past which the generator rather than the service would
/// decide whether a rung meets it.
pub const MAX_LAG_P99_MS: f64 = 5.0;
/// Length of a rung's tail, s of arrivals (at least [`MIN_TAIL`]
/// requests are scheduled; the tail stops early once the measured
/// requests are answered).
const TAIL_S: f64 = 0.25;
/// Reference answers kept between rungs (the hot set fits easily).
const REFERENCE_KEEP: usize = 4_096;
/// Fewest tail requests scheduled.
const MIN_TAIL: usize = 64;
/// Most bursts [`Load::warm_hot_set`] sends.
const WARM_BURSTS: usize = 16;
/// Distinct specs in the hot set (below the cache's 256 entries).
pub const HOT_SPECS: usize = 32;

/// The service config both serve workloads share: 2 shards of 1 farm
/// worker each, the default cache, every other field at its default.
#[must_use]
pub fn config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        base: ServeConfig {
            threads: 1,
            cache: Some(CacheConfig::default()),
            ..ServeConfig::default()
        },
    }
}

/// What the traffic draws its specs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every spec distinct: the cache never hits.
    Distinct,
    /// Zipf-skewed draws from a small hot set: the cache answers.
    Hot,
}

/// The serve spec family: a static dose-response assay at dt 0.25 s,
/// averaging 64.
#[must_use]
pub fn dose_spec(concentration_nm: f64) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(concentration_nm),
        baseline: Seconds::new(30.0),
        association: Seconds::new(120.0),
        wash: Seconds::new(60.0),
        dt: Seconds::new(0.25),
        averaging: 64,
    }
}

/// Log-uniform concentration in 0.1 nM .. 1 µM.
fn log_uniform_nm(rng: &mut ChaCha8Rng) -> f64 {
    10f64.powf(rng.gen::<f64>() * 4.0 - 1.0)
}

/// Seeded spec stream for one workload.
pub struct SpecSource {
    rng: ChaCha8Rng,
    traffic: Traffic,
    seen: HashSet<u64>,
    hot: Vec<f64>,
    hot_cdf: Vec<f64>,
}

impl SpecSource {
    /// A stream drawing from `rng`.
    pub fn new(mut rng: ChaCha8Rng, traffic: Traffic) -> Self {
        let hot: Vec<f64> = (0..HOT_SPECS).map(|_| log_uniform_nm(&mut rng)).collect();
        let weights: Vec<f64> = (1..=HOT_SPECS).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let hot_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Self {
            rng,
            traffic,
            seen: HashSet::new(),
            hot,
            hot_cdf,
        }
    }

    /// The next `n` specs.
    pub fn take(&mut self, n: usize) -> Vec<JobSpec> {
        (0..n).map(|_| self.next_spec()).collect()
    }

    fn next_spec(&mut self) -> JobSpec {
        match self.traffic {
            Traffic::Distinct => loop {
                let c = log_uniform_nm(&mut self.rng);
                if self.seen.insert(c.to_bits()) {
                    return dose_spec(c);
                }
            },
            Traffic::Hot => {
                let u: f64 = self.rng.gen();
                let k = self
                    .hot_cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(HOT_SPECS - 1);
                dose_spec(self.hot[k])
            }
        }
    }

    /// The hot set (empty for distinct traffic).
    #[must_use]
    pub fn hot_specs(&self) -> Vec<JobSpec> {
        match self.traffic {
            Traffic::Distinct => Vec::new(),
            Traffic::Hot => self.hot.iter().map(|&c| dose_spec(c)).collect(),
        }
    }

    /// The schedule rng, shared so one seed fixes specs and arrivals.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }
}

/// The latency breakdown of an answered request.
#[must_use]
pub fn breakdown(r: &ServeResponse) -> Option<LatencyBreakdown> {
    match &r.disposition {
        Disposition::Completed { breakdown, .. } | Disposition::CacheHit { breakdown, .. } => {
            Some(*breakdown)
        }
        _ => None,
    }
}

/// Warm-up specs: concentrations above the traffic's 1 µM ceiling, so
/// they never collide with a measured spec.
fn warmup_spec(i: usize) -> JobSpec {
    dose_spec(2_000.0 + i as f64)
}

/// Starts the service and returns it once every shard has answered a
/// warm-up request, with the seconds that took.
///
/// Each shard is sent exactly enough warm-up requests to fill one batch
/// (`max_batch`), so its first batch fires by size at once rather than
/// waiting on the batcher's idle timer; the cold chain characterization
/// every shard pays happens inside that first batch. Surplus requests
/// on the shard that filled first are batched when its first batch
/// ends, by which time their linger has passed.
///
/// # Panics
///
/// Panics if a warm-up request is refused or fails.
pub fn start_ready(observed: bool) -> (ShardedService, f64) {
    let cfg = config();
    let t0 = Instant::now();
    let service = if observed {
        let observers = (0..SHARDS)
            .map(|_| FarmObserver::profiling(1 << 14).0)
            .collect();
        ShardedService::start_observed(cfg, observers)
    } else {
        ShardedService::start(cfg)
    };
    let mut per_shard = [0usize; SHARDS];
    let mut tickets = Vec::new();
    let batch = cfg.base.batch_threshold();
    while per_shard.iter().any(|&c| c < batch) {
        let t = service
            .submit(warmup_spec(tickets.len()))
            .expect("warm-up request admitted");
        per_shard[t.shard()] += 1;
        tickets.push(t);
    }
    for t in tickets {
        assert!(t.wait().disposition.is_ok(), "warm-up request failed");
    }
    (service, t0.elapsed().as_secs_f64())
}

/// Reference answers computed on a virtual-clock `ServeEngine` with the
/// same serve config. With the cache on, every request's seed derives
/// from its spec's content hash, so an answer depends on the spec alone,
/// not on the shard, batch or order that served it. The engine runs two
/// farm workers to halve its time; payloads do not depend on the worker
/// count.
pub struct Reference {
    engine: ServeEngine,
    clock: Arc<VirtualClock>,
    answers: HashMap<JobKey, JobOutput>,
}

impl Reference {
    /// An empty reference.
    #[must_use]
    pub fn new() -> Self {
        let clock = Arc::new(VirtualClock::new());
        let base = ServeConfig {
            threads: 2,
            ..config().base
        };
        Self {
            engine: ServeEngine::new(base, Arc::clone(&clock) as Arc<dyn ObsClock>),
            clock,
            answers: HashMap::new(),
        }
    }

    /// Computes the answers of every spec not yet known.
    ///
    /// # Panics
    ///
    /// Panics if the reference engine refuses or fails a spec.
    pub fn learn<'a>(&mut self, specs: impl IntoIterator<Item = &'a JobSpec>) {
        let mut todo: Vec<(JobKey, JobSpec)> = Vec::new();
        let mut queued = HashSet::new();
        for s in specs {
            let k = job_key(s);
            if !self.answers.contains_key(&k) && queued.insert(k) {
                todo.push((k, s.clone()));
            }
        }
        for chunk in todo.chunks(config().base.batch_threshold()) {
            let mut ids = HashMap::new();
            for (k, s) in chunk {
                let id = self.engine.submit(s.clone()).expect("reference admits");
                ids.insert(id, *k);
            }
            // past the linger every queued request is ready, and one pump
            // forms and runs every ready batch
            self.clock.advance_ns(config().base.linger_ns);
            for r in self.engine.pump() {
                let k = ids.remove(&r.request_id).expect("one answer per request");
                let out = r.disposition.output().expect("reference answers").clone();
                self.answers.insert(k, out);
            }
            assert!(ids.is_empty(), "the reference answered every request");
        }
    }

    /// Drops the known answers once they outgrow [`REFERENCE_KEEP`], so
    /// the benchmark's own memory stays small next to the service's
    /// (`peak_rss_mb` is the whole process). A dropped answer is
    /// recomputed if its spec comes again.
    pub fn trim(&mut self) {
        if self.answers.len() > REFERENCE_KEEP {
            self.answers = HashMap::new();
        }
    }

    /// Whether `response` carries exactly the reference payload of `spec`,
    /// bit for bit.
    #[must_use]
    pub fn matches(&self, spec: &JobSpec, response: &ServeResponse) -> bool {
        let (Some(got), Some(want)) = (
            response.disposition.output(),
            self.answers.get(&job_key(spec)),
        ) else {
            return false;
        };
        got.kind == want.kind
            && got.metrics.len() == want.metrics.len()
            && got
                .metrics
                .iter()
                .zip(&want.metrics)
                .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits())
    }
}

/// One rung's scored result.
#[derive(Debug)]
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Measured requests sent.
    pub sent: usize,
    /// Answered ok.
    pub ok: usize,
    /// Answered, not ok.
    pub failed: usize,
    /// Refused at submission.
    pub refused: usize,
    /// Requests sent, tail included.
    pub sent_total: usize,
    /// Requests answered (ok or not), tail included.
    pub answered_total: usize,
    /// Requests refused, tail included.
    pub refused_total: usize,
    /// Due-to-answer latency of ok answers, ms.
    pub latency: Samples,
    /// Generator lag, ms.
    pub lag: Samples,
    /// Tickets unanswered when the last request was sent.
    pub backlog_at_end: usize,
    /// First due instant to last answer, s.
    pub elapsed_s: f64,
    /// Payloads that differed from the reference, tail included.
    pub mismatches: usize,
    /// The raw records, measured first, then the tail.
    pub records: Vec<Record>,
    /// The specs sent, in schedule order, tail included.
    pub specs: Vec<JobSpec>,
}

impl Rung {
    /// Whether generator lag stayed small enough to trust the rung.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.lag.percentile(99.0) <= MAX_LAG_P99_MS
    }

    /// Whether the backlog stayed bounded: no more tickets outstanding
    /// at the end than the limit's worth of arrivals plus one full batch
    /// per shard.
    #[must_use]
    pub fn backlog_bounded(&self) -> bool {
        let allowance =
            self.rate * LIMIT_MS / 1e3 + (SHARDS * config().base.batch_threshold()) as f64;
        (self.backlog_at_end as f64) <= allowance
    }

    /// Per window of about [`MIN_RUNG`] consecutive measured requests
    /// (never fewer): its p99 latency (ms) and whether every request in
    /// it was answered ok.
    fn windows(&self) -> Vec<(f64, bool)> {
        let measured = &self.records[..self.sent];
        let size = measured.len().div_ceil((measured.len() / MIN_RUNG).max(1));
        measured
            .chunks(size.max(1))
            .map(|w| {
                let all_ok = w.iter().all(|r| matches!(r.fate, Fate::Ok(_)));
                let p99 = Samples::new(w.iter().map(Record::latency_ms).collect()).percentile(99.0);
                (p99, all_ok)
            })
            .collect()
    }

    /// The rung's p99 latency, ms: the median over its windows of each
    /// window's p99, so one host scheduling stall moves at most a few
    /// windows.
    #[must_use]
    pub fn window_p99_ms(&self) -> f64 {
        let p99s: Vec<f64> = self.windows().iter().map(|w| w.0).collect();
        crate::stats::median_of(&p99s)
    }

    /// Whether the rung meets the limit: the generator kept up, the
    /// backlog stayed bounded, and a majority of its windows had every
    /// request answered ok with p99 within the limit. Scoring by windows
    /// keeps one host scheduling stall from deciding a rung.
    #[must_use]
    pub fn passes(&self) -> bool {
        let windows = self.windows();
        let good = windows
            .iter()
            .filter(|&&(p99, all_ok)| all_ok && p99 <= LIMIT_MS)
            .count();
        self.valid() && self.backlog_bounded() && 2 * good > windows.len()
    }

    /// Ok answers per second over the rung.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// One line for the human report.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{:>8.0} req/s: sent {} ok {} failed {} refused {} | latency {} | window p99 {:.3}ms | lag p99 {:.3}ms | backlog {} | {}{}",
            self.rate,
            self.sent,
            self.ok,
            self.failed,
            self.refused,
            self.latency.describe("ms"),
            self.window_p99_ms(),
            self.lag.percentile(99.0),
            self.backlog_at_end,
            if self.passes() { "meets limit" } else { "misses limit" },
            if self.valid() { "" } else { " (INVALID: generator lag)" }
        )
    }
}

/// A workload's traffic: its seeded spec stream and the reference its
/// answers are checked against.
pub struct Load {
    /// The spec stream (and arrival schedule rng).
    pub source: SpecSource,
    /// Reference answers.
    pub reference: Reference,
}

impl Load {
    /// The traffic of `traffic` drawn from `rng`.
    #[must_use]
    pub fn new(rng: ChaCha8Rng, traffic: Traffic) -> Self {
        Self {
            source: SpecSource::new(rng, traffic),
            reference: Reference::new(),
        }
    }

    /// Fills every shard's cache with the hot set before timing: sends the
    /// whole set as one burst, again and again, until each spec has been
    /// answered from the cache by every shard (at most [`WARM_BURSTS`]
    /// bursts). A burst fills batches by size, so warming does not wait on
    /// the batcher's idle timer more than once per burst. Returns the
    /// number of answers whose payload differed from the reference.
    ///
    /// # Panics
    ///
    /// Panics if a warm-up request is refused or fails.
    pub fn warm_hot_set(&mut self, service: &ShardedService) -> usize {
        let hot = self.source.hot_specs();
        self.reference.learn(&hot);
        let mut hit_on = vec![[false; SHARDS]; hot.len()];
        let mut mismatches = 0;
        for _ in 0..WARM_BURSTS {
            if hit_on.iter().all(|h| h.iter().all(|&x| x)) {
                break;
            }
            let tickets: Vec<_> = hot
                .iter()
                .map(|s| service.submit(s.clone()).expect("hot-set warm-up admitted"))
                .collect();
            for (i, t) in tickets.into_iter().enumerate() {
                let shard = t.shard();
                let response = t.wait();
                assert!(response.disposition.is_ok(), "hot-set warm-up failed");
                mismatches += usize::from(!self.reference.matches(&hot[i], &response));
                if matches!(response.disposition, Disposition::CacheHit { .. }) {
                    hit_on[i][shard] = true;
                }
            }
        }
        mismatches
    }

    /// Sends `n` measured requests at `rate`, followed by a same-rate
    /// tail that lasts until the measured ones are answered, and scores
    /// them. Every answered payload, tail included, is checked against
    /// the reference. With `trace`, the measured requests' spans go to
    /// the log, their request ids starting at the given base.
    pub fn rung(
        &mut self,
        service: &ShardedService,
        rate: f64,
        n: usize,
        trace: Option<(&mut SpanLog, u64)>,
    ) -> Rung {
        let tail = ((rate * TAIL_S) as usize).max(MIN_TAIL);
        let specs = self.source.take(n + tail);
        let due = poisson_schedule(self.source.rng(), rate, n + tail);
        let RungRun {
            records,
            elapsed_s,
            backlog_at_end,
            spans: rung_spans,
        } = run_rung(
            service,
            &specs,
            &due,
            n,
            trace.as_ref().map_or(0, |t| t.1),
            trace.is_some(),
        );
        if let Some((log, _)) = trace {
            log.absorb(rung_spans);
        }
        let mut specs = specs;
        specs.truncate(records.len());
        self.reference.learn(&specs);
        let (mut ok, mut failed, mut refused, mut mismatches) = (0, 0, 0, 0);
        let (mut answered_total, mut refused_total) = (0, 0);
        let mut latency = Vec::with_capacity(n);
        for (i, (r, spec)) in records.iter().zip(&specs).enumerate() {
            let measured = i < n;
            match &r.fate {
                Fate::Ok(resp) => {
                    answered_total += 1;
                    if measured {
                        ok += 1;
                        latency.push(r.latency_ms());
                    }
                    if !self.reference.matches(spec, resp) {
                        mismatches += 1;
                    }
                }
                Fate::Failed(_) => {
                    answered_total += 1;
                    failed += usize::from(measured);
                }
                Fate::Refused => {
                    refused_total += 1;
                    refused += usize::from(measured);
                }
            }
        }
        self.reference.trim();
        Rung {
            rate,
            sent: n,
            ok,
            failed,
            refused,
            sent_total: records.len(),
            answered_total,
            refused_total,
            latency: Samples::new(latency),
            lag: Samples::new(records[..n].iter().map(Record::lag_ms).collect()),
            backlog_at_end,
            elapsed_s,
            mismatches,
            records,
            specs,
        }
    }
}

/// Offered rate of ladder rung `k`, req/s.
#[must_use]
pub fn ladder_rate(k: usize) -> f64 {
    RATE_HI * LADDER_STEP.powi(k as i32)
}

/// Requests a rung of `seconds` at `rate` sends (at least [`MIN_RUNG`]).
#[must_use]
pub fn rung_size(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(MIN_RUNG)
}

/// Share of requests whose spec appeared earlier in the same stream.
#[must_use]
pub fn repeat_share<'a>(specs: impl IntoIterator<Item = &'a JobSpec>) -> (usize, usize) {
    let mut seen = HashSet::new();
    let mut total = 0;
    let mut repeats = 0;
    for s in specs {
        total += 1;
        if !seen.insert(job_key(s)) {
            repeats += 1;
        }
    }
    (repeats, total)
}

/// Difference of two cumulative stats snapshots.
#[must_use]
pub fn stats_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        expired: after.expired - before.expired,
        completed: after.completed - before.completed,
        batches: after.batches - before.batches,
        failed: after.failed - before.failed,
        shed: after.shed - before.shed,
        cache_hits: after.cache_hits - before.cache_hits,
        coalesced: after.coalesced - before.coalesced,
    }
}
