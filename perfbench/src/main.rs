//! The canti benchmark: open-loop serve traffic and a traced per-layer
//! run that also times the farm, core, bio and analog layers directly.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_distinct --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `serve_distinct`, `serve_hot`. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the traced per-layer
//! run instead and writes its spans under `perfbench/out/`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod farm;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use canti_serve::{Disposition, ServeStats, ShardedService};

use crate::serve::{
    ladder_rate, rung_size, start_ready, stats_delta, Load, Rung, Traffic, LADDER_COARSE,
    LADDER_TOP, LADDER_WINDOWS, MIN_RUNG, RATE_HI, RATE_LO,
};
use crate::stats::{median_of, Samples};
use crate::trace::{self_time_by_layer, SpanLog};

/// Attempts a ladder rung gets before it counts as missing the limit.
const LADDER_ATTEMPTS: usize = 3;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Layers the traced run reports self time for.
const LAYERS: [&str; 7] = ["bench", "gen", "serve", "farm", "core", "bio", "analog"];

fn parse_workload(s: &str) -> Option<Traffic> {
    match s {
        "serve_distinct" => Some(Traffic::Distinct),
        "serve_hot" => Some(Traffic::Hot),
        _ => None,
    }
}

fn workload_name(traffic: Traffic) -> &'static str {
    match traffic {
        Traffic::Distinct => "serve_distinct",
        Traffic::Hot => "serve_hot",
    }
}

struct Args {
    traffic: Traffic,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(parse_workload(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        traffic: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics, checks and counts of one run.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.failures.push(format!("metric {name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("# CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn rng_for(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(canti_serve::shard::splitmix64(
        seed ^ stream.rotate_left(32),
    ))
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Checks a rung's payloads and its accounting against the service's
/// own tallies over the same interval.
fn check_rung(report: &mut Report, label: &str, r: &Rung, delta: &ServeStats) {
    report.check(r.mismatches == 0, || {
        format!(
            "{label}: {} payloads differ from the reference",
            r.mismatches
        )
    });
    report.check(
        r.ok + r.failed + r.refused == r.sent && r.answered_total + r.refused_total == r.sent_total,
        || format!("{label}: ok+failed+refused != sent"),
    );
    report.check(
        delta.admitted + delta.rejected == r.sent_total as u64
            && delta.rejected == r.refused_total as u64
            && delta.completed + delta.failed + delta.expired + delta.shed
                == r.answered_total as u64,
        || format!("{label}: service tallies {delta:?} disagree with the collector"),
    );
}

/// Runs, prints and checks one rung; returns it with the service's
/// tallies over it.
fn serve_run(
    service: &ShardedService,
    load: &mut Load,
    report: &mut Report,
    label: &str,
    rate: f64,
    n: usize,
    trace: Option<(&mut SpanLog, u64)>,
) -> (Rung, ServeStats) {
    let before = service.stats();
    let r = load.rung(service, rate, n, trace);
    let delta = stats_delta(&service.stats(), &before);
    println!("# {label}: {}", r.describe());
    check_rung(report, label, &r, &delta);
    (r, delta)
}

fn check_repeat_share(report: &mut Report, traffic: Traffic, rungs: &[&Rung]) -> f64 {
    let (repeats, total) = serve::repeat_share(rungs.iter().flat_map(|r| r.specs.iter()));
    let share = repeats as f64 / total.max(1) as f64;
    println!("# repeated specs: {repeats} of {total} ({share:.4})");
    match traffic {
        Traffic::Distinct => report.check(repeats == 0, || {
            format!("serve_distinct repeated {repeats} specs")
        }),
        Traffic::Hot => report.check(share >= 0.9, || {
            format!("serve_hot repeat share {share:.3} < 0.9")
        }),
    }
    share
}

fn serve_untraced(args: &Args, report: &mut Report) {
    let mut load = Load::new(rng_for(args.seed, 1), args.traffic);
    let mut setups = Vec::new();
    let mut service = None;
    for i in 0..SETUP_REPS {
        let (svc, s) = start_ready(false);
        setups.push(s);
        if i + 1 == SETUP_REPS {
            service = Some(svc);
        } else {
            let _ = svc.shutdown();
        }
    }
    let service = service.expect("at least one set-up");
    println!("# setup_s over {SETUP_REPS} set-ups: {setups:?}");
    // let the caches fill before timing: a steady hot set is what
    // serve_hot measures, not its first few misses (distinct traffic has
    // no hot set to warm)
    let mismatches = load.warm_hot_set(&service);
    report.check(mismatches == 0, || {
        format!("hot-set warm-up: {mismatches} payloads differ from the reference")
    });
    let s = args.seconds;
    let lo_n = rung_size(RATE_LO, 0.5 * s);
    let hi_n = rung_size(RATE_HI, 0.25 * s);
    let (lo, _) = serve_run(&service, &mut load, report, "rate.lo", RATE_LO, lo_n, None);
    let (hi, _) = serve_run(&service, &mut load, report, "rate.hi", RATE_HI, hi_n, None);
    check_repeat_share(report, args.traffic, &[&lo, &hi]);
    let stats = service.shutdown();
    println!("# shard stats: {stats:?}");

    let sent = (lo.sent + hi.sent) as f64;
    let ok = (lo.ok + hi.ok) as f64;
    report.attempted = sent as u64;
    report.failed = (sent - ok) as u64;
    report.metric("setup_s", median_of(&setups), "s");
    report.metric("latency_p50_ms.lo", lo.latency.median(), "ms");
    report.metric("latency_p99_ms.lo", lo.window_p99_ms(), "ms");
    report.metric("latency_p50_ms.hi", hi.latency.median(), "ms");
    report.metric("latency_p99_ms.hi", hi.window_p99_ms(), "ms");
    report.metric("ok_ratio", ok / sent, "ratio");
    println!("# error_rate (not ok over sent): {:.6}", 1.0 - ok / sent);
}

/// Climbs the rate ladder and returns the knee: ok answers per second at
/// the highest rung that meets the limit, and that rung's index (0 is
/// `rate.hi` itself, given as `hi`).
///
/// Rungs are `RATE_HI * 1.05^k`. The climb visits every 4th rung until
/// one misses the limit, then climbs one rung at a time from the last
/// rung that met it. Each rung sends at least `LADDER_WINDOWS *
/// MIN_RUNG` requests, so every window's p99 has ten samples beyond it.
/// A rung that misses is run up to twice more and counts as missing only
/// if every attempt misses, so a burst of host stalls cannot end the
/// climb early.
fn ladder(
    service: &ShardedService,
    load: &mut Load,
    report: &mut Report,
    hi: &Rung,
    seconds: f64,
) -> (f64, usize) {
    let mut best = hi.passes().then_some((0, hi.throughput()));
    let mut meets = |k: usize, best: &mut Option<(usize, f64)>| -> bool {
        let rate = ladder_rate(k);
        let n = rung_size(rate, 0.03 * seconds).max(LADDER_WINDOWS * MIN_RUNG);
        for attempt in 0..LADDER_ATTEMPTS {
            let label = format!("ladder k={k} attempt {attempt}");
            let (r, _) = serve_run(service, load, report, &label, rate, n, None);
            if r.passes() {
                *best = Some((k, r.throughput()));
                return true;
            }
        }
        false
    };
    let missed = (LADDER_COARSE..=LADDER_TOP)
        .step_by(LADDER_COARSE)
        .find(|&k| !meets(k, &mut best));
    if let Some(missed) = missed {
        let from = best.map_or(missed - LADDER_COARSE, |(k, _)| k);
        for k in from + 1..missed {
            if !meets(k, &mut best) {
                break;
            }
        }
    }
    match best {
        Some((k, rps)) => {
            println!("# knee: rung k={k} ({:.0} req/s offered)", ladder_rate(k));
            (rps, k)
        }
        None => {
            println!("# no ladder rung met the limit; reporting rate.hi throughput");
            (hi.throughput(), 0)
        }
    }
}

/// Chaos-scan batches the traced run's farm segment times.
const FARM_BATCHES: usize = 3;

/// Requests the cache probe sends for one spec once it is answered.
const CACHE_PROBE: usize = 200;

/// Sends one spec outside the traffic's range, waits for its answer,
/// then sends it [`CACHE_PROBE`] more times one at a time, and returns
/// the cache phase (µs) of every answer the cache gave. Every workload
/// then measures the cache-hit path, even one whose traffic never hits.
fn cache_probe(service: &ShardedService, load: &mut Load, report: &mut Report) -> Vec<f64> {
    let spec = serve::dose_spec(5_000.0);
    load.reference.learn([&spec]);
    let mut hits = Vec::new();
    for _ in 0..=CACHE_PROBE {
        let ticket = service.submit(spec.clone()).expect("cache probe admitted");
        let response = ticket.wait();
        report.check(load.reference.matches(&spec, &response), || {
            "cache probe payload differs from the reference".to_owned()
        });
        if let Disposition::CacheHit { breakdown, .. } = response.disposition {
            hits.push(breakdown.cache_ns as f64 / 1e3);
        }
    }
    hits
}

/// The `p`-th percentile, or 0 when the layer saw no samples.
fn percentile_or_zero(s: &Samples, p: f64) -> f64 {
    if s.is_empty() {
        0.0
    } else {
        s.percentile(p)
    }
}

/// Per-request timings of the traced rungs, split by serve phase.
#[derive(Default)]
struct Phases {
    submit_us: Vec<f64>,
    cache_us: Vec<f64>,
    queue_ms: Vec<f64>,
    form_us: Vec<f64>,
    exec_ms: Vec<f64>,
    respond_us: Vec<f64>,
    unattributed_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

impl Phases {
    fn add(&mut self, r: &load::Record) {
        self.submit_us
            .push((r.submit_end_ns - r.submit_start_ns) as f64 / 1e3);
        self.lag_ms.push(r.lag_ms());
        let (load::Fate::Ok(resp) | load::Fate::Failed(resp)) = &r.fate else {
            return;
        };
        let Some(b) = serve::breakdown(resp) else {
            return;
        };
        match resp.disposition {
            Disposition::CacheHit { .. } => self.cache_us.push(b.cache_ns as f64 / 1e3),
            Disposition::Completed { .. } => {
                self.queue_ms.push(b.queue_ns as f64 / 1e6);
                self.form_us.push(b.form_ns as f64 / 1e3);
                self.exec_ms.push(b.exec_ns as f64 / 1e6);
                self.respond_us.push(b.respond_ns as f64 / 1e3);
            }
            _ => {}
        }
        self.unattributed_ms
            .push(r.latency_ms() - b.total_ns() as f64 / 1e6 - r.lag_ms());
    }

    fn report(self, report: &mut Report) {
        let s = |v: Vec<f64>| Samples::new(v);
        let (submit, cache, queue) = (s(self.submit_us), s(self.cache_us), s(self.queue_ms));
        let (form, exec, respond) = (s(self.form_us), s(self.exec_ms), s(self.respond_us));
        let (unattributed, lag) = (s(self.unattributed_ms), s(self.lag_ms));
        println!("# serve.queue_ms: {}", queue.describe("ms"));
        println!("# serve.exec_ms: {}", exec.describe("ms"));
        println!("# serve.unattributed_ms: {}", unattributed.describe("ms"));
        report.metric("serve.submit_us.p50", submit.median(), "us");
        report.metric("serve.submit_us.p99", submit.percentile(99.0), "us");
        report.metric("serve.queue_ms.p50", percentile_or_zero(&queue, 50.0), "ms");
        report.metric("serve.queue_ms.p99", percentile_or_zero(&queue, 99.0), "ms");
        report.metric("serve.form_us.p50", percentile_or_zero(&form, 50.0), "us");
        report.metric("serve.exec_ms.p50", percentile_or_zero(&exec, 50.0), "ms");
        report.metric(
            "serve.respond_us.p50",
            percentile_or_zero(&respond, 50.0),
            "us",
        );
        report.metric("serve.cache_us.p50", cache.median(), "us");
        report.metric("serve.cache_us.samples", cache.len() as f64, "count");
        report.metric("serve.unattributed_ms.p50", unattributed.median(), "ms");
        report.metric(
            "serve.unattributed_ms.p99",
            unattributed.percentile(99.0),
            "ms",
        );
        report.metric("gen.lag_p99_ms", lag.percentile(99.0), "ms");
    }
}

/// The traced per-layer run: the serve segment with the workload's
/// traffic (caches start cold, so the hot set's first misses are in it),
/// the rate ladder, the farm segment and the layer probes, with spans
/// around every call.
fn traced(args: &Args, report: &mut Report) {
    let mut spans = SpanLog::new(Instant::now(), true);
    let mut load = Load::new(rng_for(args.seed, 1), args.traffic);

    // serve segment
    let (service, _) = start_ready(false);
    let hi_n = 4 * MIN_RUNG;
    let (lo, d_lo) = serve_run(
        &service,
        &mut load,
        report,
        "traced rate.lo",
        RATE_LO,
        MIN_RUNG,
        Some((&mut spans, 0)),
    );
    let (hi, d_hi) = serve_run(
        &service,
        &mut load,
        report,
        "traced rate.hi",
        RATE_HI,
        hi_n,
        Some((&mut spans, 1_000_000)),
    );
    let (plain, _) = serve_run(
        &service,
        &mut load,
        report,
        "untraced rate.hi",
        RATE_HI,
        hi_n,
        None,
    );
    let probe_hits_us = cache_probe(&service, &mut load, report);
    let (max_rate, knee) = ladder(&service, &mut load, report, &hi, args.seconds);
    let _ = service.shutdown();
    let (observed_svc, _) = start_ready(true);
    let (observed, _) = serve_run(
        &observed_svc,
        &mut load,
        report,
        "observed rate.hi",
        RATE_HI,
        hi_n,
        None,
    );
    let _ = observed_svc.shutdown();
    let share = check_repeat_share(report, args.traffic, &[&lo, &hi]);

    let mut phases = Phases::default();
    for r in lo.records[..lo.sent].iter().chain(&hi.records[..hi.sent]) {
        phases.add(r);
    }
    phases.cache_us.extend(probe_hits_us);
    phases.report(report);
    let answered = (d_lo.completed + d_hi.completed + d_lo.failed + d_hi.failed) as f64;
    let hits = (d_lo.cache_hits + d_hi.cache_hits) as f64;
    let coalesced = (d_lo.coalesced + d_hi.coalesced) as f64;
    let batches = (d_lo.batches + d_hi.batches) as f64;
    let batched = (d_lo.completed + d_hi.completed) as f64 - hits - coalesced;
    report.metric("serve.batch_size_mean", batched / batches.max(1.0), "jobs");
    report.metric("serve.batches", batches, "count");
    report.metric("serve.answered", answered, "count");
    report.metric("serve.cache_hits", hits, "count");
    report.metric("serve.cache_hit_ratio", hits / answered.max(1.0), "ratio");
    report.metric("serve.coalesced", coalesced, "count");
    report.metric(
        "serve.coalesced_ratio",
        coalesced / answered.max(1.0),
        "ratio",
    );
    report.metric("serve.refused", (lo.refused + hi.refused) as f64, "count");
    report.metric("serve.max_rate_rps", max_rate, "1/s");
    report.metric("serve.knee_rung", knee as f64, "count");
    report.metric("traffic.repeat_share", share, "ratio");
    let plain_p50 = plain.latency.median();
    report.metric(
        "obs.observer_overhead_ratio",
        observed.latency.median() / plain_p50,
        "ratio",
    );
    report.metric(
        "bench.tracing_overhead_ratio",
        hi.latency.median() / plain_p50,
        "ratio",
    );

    // farm segment
    let (scan_farm, _) = farm::start_ready();
    let mut rng = rng_for(args.seed, 2);
    let wide = 2 * farm::nproc();
    let batches = farm::run_batches(
        &scan_farm,
        &mut rng,
        wide,
        FARM_BATCHES,
        &mut spans,
        3_000_000,
    );
    drop(scan_farm);
    let batch_ms = farm::batch_latency(&batches).median();
    let (same, one_worker_ms) = farm::one_worker_check(&batches[0]);
    report.check(same, || {
        "a wide chaos-scan batch differs from the 1-worker farm".to_owned()
    });
    report.check(
        batches.iter().all(|b| b.report.ok_count() == b.jobs.len()),
        || "a traced scan failed".to_owned(),
    );
    report.metric("farm.batch_ms", batch_ms, "ms");
    report.metric("farm.batch_scans", wide as f64, "count");
    report.metric(
        "farm.scaling_efficiency",
        one_worker_ms / (farm::nproc() as f64 * batch_ms),
        "ratio",
    );

    // layer probes
    for (name, value, unit) in layers::probe(&mut spans, 4_000_000) {
        report.metric(name, value, unit);
    }

    let self_ns = self_time_by_layer(spans.spans());
    for layer in LAYERS {
        let ms = self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        report.metric(format!("self_ms.{layer}"), ms, "ms");
    }
    report.attempted = (lo.sent + hi.sent + plain.sent + observed.sent) as u64;
    report.failed = [&lo, &hi, &plain, &observed]
        .iter()
        .map(|r| (r.failed + r.refused) as u64)
        .sum();

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/spans-{}-seed{}.ndjson",
        workload_name(args.traffic),
        args.seed
    );
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_ndjson()));
    match written {
        Ok(()) => println!("# {} spans written to {path}", spans.spans().len()),
        Err(e) => report.check(false, || format!("writing {path}: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_distinct|serve_hot \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench {} seed {} seconds {} trace {} ({} CPUs)",
        workload_name(args.traffic),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        farm::nproc()
    );
    let mut report = Report::default();
    let t0 = Instant::now();
    if args.trace {
        traced(&args, &mut report);
    } else {
        serve_untraced(&args, &mut report);
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    println!("# wall time {:.2}s", t0.elapsed().as_secs_f64());
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", report.to_json());
}
