//! The determinism contract of the telemetry time-dimension: per-window
//! timelines and the tail-sampled flight recorder, driven by the same
//! scripted virtual-clock style `shard_determinism.rs` uses.
//!
//! The script is **solo-paced** — at most one request is ever queued, so
//! every batch holds exactly one request at any shard count and the
//! merged delta series are fully shard-count invariant (a burst would
//! legitimately change queue waits when re-partitioned). The contract:
//!
//! 1. **Across worker counts, at a fixed shard count** — the composed
//!    `/debug/timeline` NDJSON body and every shard's flight-recorder
//!    summary are bit-identical at 1/2/8 farm workers.
//! 2. **Across shard counts** — the merged [`SeriesKind::Delta`] series
//!    and the union of kept trace ids are invariant at 1/2/4 shards
//!    (sample-kind series like queue depth legitimately differ).
//! 3. The merged `serve.*` delta lines match a hand-computed golden.
//! 4. `obsctl timeline --spans` recomputes the request-latency windows
//!    offline from each shard's span artifact and they match the live
//!    windows exactly.
//! 5. The kept-trace set is exactly what the documented decision rule
//!    (slo breach / error taint / head sample) selects.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use canti::farm::{dose_response_sweep, FarmObserver, JobSpec, ProbeMode};
use canti::obs::timeline::{config_line, point_line};
use canti::obs::{
    merge_timelines, Collector, FlightRecorder, Metrics, ObsClock, RingCollector, SampleConfig,
    SeriesKind, SeriesPoint, SeriesWindows, TimelineConfig, Tracer, VirtualClock,
};
use canti::serve::{
    route_request, Disposition, RejectReason, ServeConfig, ServeEngine, ServeResponse,
    ShardedConfig,
};
use canti_obsctl::{timeline_report, TimelineOptions};

const WORKER_GRID: [usize; 3] = [1, 2, 8];
const SHARD_GRID: [usize; 3] = [1, 2, 4];

/// The flight policy under test: head-keep every trace id divisible by
/// 4, tail-keep anything slower than 2 µs or error-tainted.
const FLIGHT: SampleConfig = SampleConfig {
    head_modulus: 4,
    objective_ns: 2_000,
    max_events: 4_096,
};

enum Step {
    Submit(JobSpec),
    SubmitDeadline(JobSpec, u64),
    Pump,
    AdvanceNs(u64),
    Drain,
}

/// The solo-paced arrival script. Fast solos complete 1 100 ns after
/// admission (linger-triggered, under the 2 µs objective), slow solos
/// wait 2 600 ns (SLO breach), one scripted deadline probe expires
/// (error taint), one straggler is flushed by the drain at zero latency,
/// and a post-drain submission is refused.
fn script() -> Vec<Step> {
    let concentrations: Vec<f64> = (0..6)
        .map(|i| 0.5 * 10f64.powf(0.4 * f64::from(i)))
        .collect();
    let jobs = dose_response_sweep(&concentrations);
    assert_eq!(jobs.len(), 6);

    let mut steps = Vec::new();
    // Four fast solos: r0..r3 admitted at t = 0, 1100, 2200, 3300.
    for job in &jobs[0..4] {
        steps.push(Step::Submit(job.clone()));
        steps.push(Step::AdvanceNs(1_100));
        steps.push(Step::Pump);
    }
    // Two slow solos: r4 at t=4400, r5 at t=7000, each waiting 2600 ns.
    for job in &jobs[4..6] {
        steps.push(Step::Submit(job.clone()));
        steps.push(Step::AdvanceNs(2_600));
        steps.push(Step::Pump);
    }
    // r6 at t=9600: deadline 200 ns, pumped 250 ns later — expires alone
    // in its (empty) shard at any shard count.
    steps.push(Step::SubmitDeadline(
        JobSpec::Probe(ProbeMode::Draws(3)),
        200,
    ));
    steps.push(Step::AdvanceNs(250));
    steps.push(Step::Pump);
    // r7 at t=9850: flushed by the shutdown drain at zero latency, then
    // a post-drain refusal.
    steps.push(Step::Submit(jobs[0].clone()));
    steps.push(Step::Drain);
    steps.push(Step::Submit(JobSpec::Probe(ProbeMode::Value(1.0))));
    steps
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 3,
        linger_ns: 1_000,
        batch_seed: 0x5AAD_D15C,
        threads: workers,
        slo: Default::default(),
        // 500 ns windows spread the script over ~20 windows so eviction
        // order, window naming and merging all get exercised
        timeline: TimelineConfig {
            window_ns: 500,
            max_windows: 64,
        },
        cache: None,
    }
}

/// Everything the timeline contract observes about one scripted run.
struct ObservedRun {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    /// The composed `/debug/timeline` NDJSON body (config line, per-shard
    /// point lines, merged point lines) — byte-compatible with what
    /// `canti_obs::serve` renders for the same recorders.
    body: String,
    merged: Vec<SeriesWindows>,
    /// Sorted, deduplicated union of kept trace ids across shards.
    kept_union: Vec<u64>,
    /// Per-shard flight-recorder NDJSON summaries.
    flight_ndjson: Vec<String>,
    /// Per-shard raw span/event NDJSON from the ring collectors.
    span_ndjson: Vec<String>,
}

fn observed_run(workers: usize, shards: usize) -> ObservedRun {
    let clock = Arc::new(VirtualClock::new());
    let mut observers = Vec::new();
    let mut flights = Vec::new();
    let mut rings = Vec::new();
    for _ in 0..shards {
        let ring = Arc::new(RingCollector::new(1 << 12));
        let flight = Arc::new(FlightRecorder::new(
            FLIGHT,
            Some(Arc::clone(&ring) as Arc<dyn Collector>),
        ));
        let tracer = Tracer::new(
            Arc::clone(&flight) as Arc<dyn Collector>,
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        );
        observers.push(FarmObserver::from_parts(
            Arc::new(Metrics::new()),
            tracer,
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        ));
        flights.push(flight);
        rings.push(ring);
    }
    let mut engine = ServeEngine::sharded(
        ShardedConfig {
            shards,
            base: config(workers),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    )
    .with_observers(observers);

    let mut admissions = Vec::new();
    let mut responses = Vec::new();
    for step in script() {
        match step {
            Step::Submit(job) => admissions.push(engine.submit(job)),
            Step::SubmitDeadline(job, d) => {
                admissions.push(engine.submit_with_deadline(job, d));
            }
            Step::Pump => responses.extend(engine.pump()),
            Step::AdvanceNs(ns) => clock.advance_ns(ns),
            Step::Drain => responses.extend(engine.drain()),
        }
    }

    let timelines: Vec<_> = engine
        .timelines()
        .into_iter()
        .map(|tl| tl.expect("every shard is observed"))
        .collect();
    let width = timelines[0].config().width();
    let mut body = config_line(timelines[0].config());
    body.push('\n');
    let mut per_shard = Vec::with_capacity(timelines.len());
    for (s, tl) in timelines.iter().enumerate() {
        let label = s.to_string();
        let snapshot = tl.snapshot();
        for series in &snapshot {
            for p in &series.points {
                body.push_str(&point_line(
                    Some(&label),
                    &series.name,
                    series.kind,
                    width,
                    p,
                ));
                body.push('\n');
            }
        }
        per_shard.push(snapshot);
    }
    let merged = merge_timelines(&per_shard);
    for series in &merged {
        for p in &series.points {
            body.push_str(&point_line(
                Some("merged"),
                &series.name,
                series.kind,
                width,
                p,
            ));
            body.push('\n');
        }
    }

    let mut kept_union: Vec<u64> = flights.iter().flat_map(|f| f.kept_trace_ids()).collect();
    kept_union.sort_unstable();
    kept_union.dedup();
    ObservedRun {
        admissions,
        responses,
        body,
        merged,
        kept_union,
        flight_ndjson: flights.iter().map(|f| f.to_ndjson()).collect(),
        span_ndjson: rings.iter().map(|r| r.to_ndjson()).collect(),
    }
}

/// Contract scope 1: at every shard count, the timeline body and each
/// shard's flight summary are bit-identical across farm worker counts.
#[test]
fn timeline_and_flight_artifacts_are_bit_identical_across_worker_counts() {
    for shards in SHARD_GRID {
        let oracle = observed_run(WORKER_GRID[0], shards);
        for workers in [WORKER_GRID[1], WORKER_GRID[2]] {
            let run = observed_run(workers, shards);
            assert_eq!(
                run.body, oracle.body,
                "/debug/timeline diverged at {workers} workers x {shards} shards"
            );
            assert_eq!(
                run.flight_ndjson, oracle.flight_ndjson,
                "flight summaries diverged at {workers} workers x {shards} shards"
            );
            assert_eq!(
                run.kept_union, oracle.kept_union,
                "kept-trace set diverged at {workers} workers x {shards} shards"
            );
        }
    }
}

/// The merged delta series as `name -> points` (sample-kind series are
/// the documented shard-dependent remainder and are excluded).
fn delta_view(merged: &[SeriesWindows]) -> BTreeMap<&str, &[SeriesPoint]> {
    merged
        .iter()
        .filter(|s| s.kind == SeriesKind::Delta)
        .map(|s| (s.name.as_str(), s.points.as_slice()))
        .collect()
}

/// Contract scope 2: across shard counts, the admission stream, every
/// merged delta series and the kept-trace union are invariant.
#[test]
fn merged_delta_series_and_kept_set_are_shard_count_invariant() {
    let oracle = observed_run(1, 1);
    assert_eq!(oracle.admissions.len(), 9);
    assert_eq!(
        oracle.admissions.iter().filter(|a| a.is_err()).count(),
        1,
        "exactly the post-drain refusal"
    );
    assert!(
        delta_view(&oracle.merged).len() >= 10,
        "serve + farm delta series present: {:?}",
        delta_view(&oracle.merged).keys().collect::<Vec<_>>()
    );
    for shards in [SHARD_GRID[1], SHARD_GRID[2]] {
        let run = observed_run(1, shards);
        assert_eq!(
            run.admissions, oracle.admissions,
            "admission stream diverged at {shards} shards"
        );
        assert_eq!(
            delta_view(&run.merged),
            delta_view(&oracle.merged),
            "merged delta series diverged at {shards} shards"
        );
        assert_eq!(
            run.kept_union, oracle.kept_union,
            "kept-trace set diverged at {shards} shards"
        );
    }
}

/// Contract scope 3: the merged `serve.*` delta lines match the script's
/// hand-computed expectation, byte for byte and in body order.
#[test]
fn merged_serve_delta_lines_match_the_scripted_golden() {
    // admissions at t = 0, 1100, 2200, 3300, 4400, 7000, 9600, 9850;
    // completions at 1100, 2200, 3300, 4400, 7000, 9600, 9850; the
    // expiry and refusal both land at t=9850 (window 19).
    let golden = [
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":0,"t_ns":0,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.expired","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2600,"min":0,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.rejected","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2600,"min":0,"max":2600}"#,
    ];
    for shards in SHARD_GRID {
        let run = observed_run(2, shards);
        assert!(
            run.body
                .starts_with(r#"{"record":"timeline_config","window_ns":500,"max_windows":64}"#),
            "config header at {shards} shards:\n{}",
            run.body.lines().next().unwrap_or_default()
        );
        let mut cursor = 0;
        for line in golden {
            let Some(at) = run.body[cursor..].find(line) else {
                let series = line
                    .split("\"series\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next());
                let actual: Vec<&str> = run
                    .body
                    .lines()
                    .filter(|l| {
                        l.contains("\"shard\":\"merged\"")
                            && series.is_some_and(|name| l.contains(name))
                    })
                    .collect();
                panic!(
                    "missing merged golden line at {shards} shards:\n{line}\nactual {} lines:\n{}",
                    series.unwrap_or("?"),
                    actual.join("\n")
                );
            };
            cursor += at + line.len();
        }
    }
}

/// Contract scope 4: `obsctl timeline --spans` recomputes each shard's
/// request-latency windows offline from the raw span artifact and they
/// match the live `/debug/timeline` windows exactly.
#[test]
fn offline_recompute_from_spans_matches_the_live_windows() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for shards in SHARD_GRID {
        let run = observed_run(1, shards);
        let tl_path = dir.join(format!("canti_timeline_det_{pid}_{shards}.ndjson"));
        std::fs::write(&tl_path, &run.body).expect("write timeline artifact");
        let completed_on: BTreeSet<usize> = run
            .responses
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .map(|r| route_request(r.request_id, shards))
            .collect();
        assert!(
            !completed_on.is_empty(),
            "some shard serves a completed request at {shards} shards"
        );
        for &s in &completed_on {
            let sp_path = dir.join(format!(
                "canti_timeline_det_spans_{pid}_{shards}_{s}.ndjson"
            ));
            std::fs::write(&sp_path, &run.span_ndjson[s]).expect("write span artifact");
            let out = timeline_report(
                &tl_path,
                Some(&sp_path),
                &TimelineOptions {
                    shard: s.to_string(),
                    series: vec!["serve.request_latency_ns".to_owned()],
                    json: false,
                },
            )
            .unwrap_or_else(|e| panic!("crosscheck failed at {shards} shards, shard {s}: {e}"));
            assert!(
                out.contains("matches live serve.request_latency_ns"),
                "no match verdict at {shards} shards, shard {s}:\n{out}"
            );
            let _ = std::fs::remove_file(&sp_path);
        }
        let _ = std::fs::remove_file(&tl_path);
    }
}

/// Contract scope 5: the kept-trace set is exactly what the decision
/// rule selects — every SLO breach, every error-tainted trace, every
/// head-sampled trace id, nothing else.
#[test]
fn flight_recorder_keeps_exactly_the_policy_set() {
    let run = observed_run(2, 2);
    let mut expect: BTreeSet<u64> = BTreeSet::new();
    let mut fast_head = false;
    for r in &run.responses {
        match &r.disposition {
            Disposition::Completed { latency_ns, .. }
            | Disposition::CacheHit { latency_ns, .. } => {
                if *latency_ns > FLIGHT.objective_ns {
                    expect.insert(r.trace);
                } else if r.trace % FLIGHT.head_modulus == 0 {
                    expect.insert(r.trace);
                    fast_head = true;
                }
            }
            Disposition::Expired { .. } | Disposition::Failed { .. } => {
                expect.insert(r.trace);
            }
        }
    }
    assert_eq!(
        run.kept_union,
        expect.into_iter().collect::<Vec<u64>>(),
        "kept set must be exactly the policy selection"
    );
    let summaries = run.flight_ndjson.concat();
    assert_eq!(
        summaries.matches("\"reason\":\"slo_breach\"").count(),
        2,
        "both slow solos are tail-kept: {summaries}"
    );
    assert_eq!(
        summaries.matches("\"reason\":\"error\"").count(),
        1,
        "the scripted expiry is error-kept: {summaries}"
    );
    assert_eq!(
        fast_head,
        summaries.contains("\"reason\":\"head\""),
        "head retention appears iff a fast trace id hits the modulus"
    );
}
