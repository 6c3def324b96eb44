//! End-to-end tests for the `obsctl` binary: the perf-regression gate
//! (`diff`) and the artifact-health gate (`summary`) with real process
//! exit codes, driven through `CARGO_BIN_EXE_obsctl`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use canti_obs::clock::VirtualClock;
use canti_obs::trace::{RingCollector, Tracer};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn obsctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
        .args(args)
        .output()
        .expect("spawn obsctl")
}

fn temp(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("obsctl-cli-{name}-{}", std::process::id()));
    std::fs::write(&path, content).expect("write temp fixture");
    path
}

/// A small healthy trace stream: batch → 3 jobs, gap-free.
fn healthy_trace() -> String {
    let ring = Arc::new(RingCollector::new(64));
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);
    let batch = tracer.span("batch", &[("jobs", 3u64.into())]);
    for i in 0..3u64 {
        let job = tracer.span("job", &[("job", i.into())]);
        clock.advance_ns(1_000 * (i + 1));
        drop(job);
    }
    drop(batch);
    ring.to_ndjson()
}

/// A serve-shaped trace stream: an admission-side `request` span closed
/// before the `serve_batch`/`job` pair that executed it, the way the
/// sharded front and executor interleave on one tracer.
fn serve_trace() -> String {
    let ring = Arc::new(RingCollector::new(64));
    let clock = Arc::new(VirtualClock::new());
    let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);
    let request = tracer.span(
        "request",
        &[
            ("request", 5u64.into()),
            ("trace", 0xABu64.into()),
            ("kind", "probe".into()),
        ],
    );
    clock.advance_ns(2_000);
    drop(request);
    let batch = tracer.span("serve_batch", &[("batch", 0u64.into())]);
    let job = tracer.span(
        "job",
        &[
            ("job", 0u64.into()),
            ("request", 5u64.into()),
            ("trace", 0xABu64.into()),
        ],
    );
    clock.advance_ns(1_500);
    drop(job);
    drop(batch);
    ring.to_ndjson()
}

#[test]
fn trace_reconstructs_a_request_chain() {
    let path = temp("trace-ok", &serve_trace());
    let out = obsctl(&["trace", path.to_str().unwrap(), "5"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("request 5: trace 0x00000000000000ab"),
        "{stdout}"
    );
    assert!(stdout.contains("serve_batch -> job [1500 ns]"), "{stdout}");
    assert!(stdout.contains("critical path:"), "{stdout}");
}

#[test]
fn trace_gates_on_unknown_requests_and_rejects_bad_ids() {
    let path = temp("trace-miss", &serve_trace());
    let out = obsctl(&["trace", path.to_str().unwrap(), "999"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "absent request is a gate failure"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("no span carries request 999"));

    let out = obsctl(&["trace", path.to_str().unwrap(), "not-a-number"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn slo_recomputes_windows_offline() {
    let path = temp("slo-offline", &serve_trace());
    // the request ran 2000 ns: good under a loose objective…
    let out = obsctl(&["slo", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("good=1 breached=0"));
    // …and a breach under a 1 µs one
    let out = obsctl(&[
        "slo",
        path.to_str().unwrap(),
        "--objective-ns",
        "1000",
        "--window-ns",
        "1000000",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("good=0 breached=1"), "{stdout}");
    assert!(stdout.contains("window 0 "), "{stdout}");
}

#[test]
fn diff_passes_on_identical_inputs() {
    let old = fixture("bench_old.json");
    let out = obsctl(&["diff", old.to_str().unwrap(), old.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "identical inputs must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("farm.solve_ns"));
    assert!(!stdout.contains("REGRESSED"));
}

#[test]
fn diff_detects_injected_p95_regression() {
    let old = fixture("bench_old.json");
    let new = fixture("bench_regressed.json");
    let out = obsctl(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Injected: solve p95 1.3ms → 2.2ms (+69%). p50 +5% stays inside the
    // default 25% threshold; only the p95 row may trip.
    assert!(stdout.contains("REGRESSED"), "stdout: {stdout}");
    let regressed: Vec<&str> = stdout.lines().filter(|l| l.contains("REGRESSED")).collect();
    assert_eq!(regressed.len(), 1);
    assert!(regressed[0].contains("farm.solve_ns"));
    assert!(regressed[0].contains("p95"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("gate failed"));
}

#[test]
fn diff_threshold_flags_are_honoured() {
    let old = fixture("bench_old.json");
    let new = fixture("bench_regressed.json");
    // With a huge threshold the same pair passes…
    let out = obsctl(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold-pct",
        "200",
    ]);
    assert!(out.status.success());
    // …and with a zero threshold + zero floor even the +5% p50 trips.
    let out = obsctl(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold-pct",
        "0",
        "--min-ns",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout
        .lines()
        .any(|l| l.contains("p50") && l.contains("REGRESSED")));
}

#[test]
fn summary_renders_a_healthy_artifact() {
    let path = temp("healthy", &healthy_trace());
    let out = obsctl(&["summary", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("batch"), "stdout: {stdout}");
    assert!(stdout.contains("job"));
    assert!(stdout.contains("critical path"));
}

#[test]
fn summary_gates_on_empty_span_tree() {
    let path = temp(
        "spanless",
        "{\"metric\":\"x\",\"type\":\"counter\",\"value\":1}\n",
    );
    let out = obsctl(&["summary", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("span tree is empty"));
}

#[test]
fn summary_gates_on_sequence_gaps() {
    // Drop a middle line to fabricate a gap in the seq numbering.
    let full = healthy_trace();
    let gappy: Vec<&str> = full
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, l)| l)
        .collect();
    let path = temp("gappy", &(gappy.join("\n") + "\n"));
    let out = obsctl(&["summary", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("gap"));
}

#[test]
fn flame_emits_folded_stacks() {
    let path = temp("flame", &healthy_trace());
    let out = obsctl(&["flame", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("batch;job ")),
        "stdout: {stdout}"
    );
    // Folded-stack grammar: every line is `stack<space>weight`.
    for line in stdout.lines() {
        let (_, weight) = line.rsplit_once(' ').expect("weight column");
        weight.parse::<u64>().expect("numeric weight");
    }
}

#[test]
fn usage_errors_exit_2_and_help_exits_0() {
    let out = obsctl(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["diff", "only-one-file.json"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "summary",
        "flame",
        "diff",
        "trace",
        "slo",
        "--threshold-pct",
        "--min-ns",
        "--objective-ns",
        "--window-ns",
        "EXIT CODES",
    ] {
        assert!(help.contains(needle), "help missing {needle}");
    }
}

#[test]
fn missing_file_is_an_input_error() {
    let out = obsctl(&["summary", "/nonexistent/telemetry.ndjson"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn summary_and_trace_emit_ndjson_with_json_flag() {
    let path = temp("json-summary", &healthy_trace());
    let out = obsctl(&["summary", path.to_str().unwrap(), "--json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs = canti_obs::parse_ndjson(&stdout).expect("summary --json parses back");
    let records: Vec<&str> = docs
        .iter()
        .filter_map(|d| d.get("record").and_then(canti_obs::Json::as_str))
        .collect();
    assert!(records.contains(&"trace_health"), "{stdout}");
    assert!(records.contains(&"stage"), "{stdout}");
    assert!(records.contains(&"critical"), "{stdout}");

    let path = temp("json-trace", &serve_trace());
    let out = obsctl(&["trace", path.to_str().unwrap(), "5", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs = canti_obs::parse_ndjson(&stdout).expect("trace --json parses back");
    let request = docs
        .iter()
        .find(|d| d.get("record").and_then(canti_obs::Json::as_str) == Some("request"))
        .expect("request record");
    assert_eq!(
        request.get("request").and_then(canti_obs::Json::as_u64),
        Some(5)
    );
    assert_eq!(
        request.get("trace").and_then(canti_obs::Json::as_u64),
        Some(0xAB)
    );
    assert!(docs
        .iter()
        .any(|d| d.get("record").and_then(canti_obs::Json::as_str) == Some("owning_span")));

    // the gates apply identically in --json mode
    let out = obsctl(&["trace", path.to_str().unwrap(), "999", "--json"]);
    assert_eq!(out.status.code(), Some(1));
}

/// A timeline artifact plus a span artifact whose offline recompute
/// reproduces its `serve.request_latency_ns` windows exactly: requests
/// 1 (end 150, latency 50) and 2 (end 1300, latency 400) land in
/// windows 0 and 1 of a 1000 ns grid; request 3 expired and must be
/// excluded from the recompute.
fn matching_timeline_and_spans() -> (String, String) {
    let timeline = "\
{\"record\":\"timeline_config\",\"window_ns\":1000,\"max_windows\":64}\n\
{\"record\":\"timeline\",\"shard\":\"0\",\"series\":\"serve.request_latency_ns\",\"kind\":\"delta\",\"window\":0,\"t_ns\":0,\"count\":1,\"sum\":50,\"min\":50,\"max\":50}\n\
{\"record\":\"timeline\",\"shard\":\"0\",\"series\":\"serve.request_latency_ns\",\"kind\":\"delta\",\"window\":1,\"t_ns\":1000,\"count\":1,\"sum\":400,\"min\":400,\"max\":400}\n";
    let spans = "\
{\"seq\":0,\"t_ns\":100,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":1,\"trace\":11}}\n\
{\"seq\":1,\"t_ns\":150,\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{\"dur_ns\":50,\"span\":0}}\n\
{\"seq\":2,\"t_ns\":900,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":2,\"trace\":12}}\n\
{\"seq\":3,\"t_ns\":1300,\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{\"dur_ns\":400,\"span\":2}}\n\
{\"seq\":4,\"t_ns\":1400,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":3,\"trace\":13}}\n\
{\"seq\":5,\"t_ns\":1410,\"kind\":\"event\",\"name\":\"request_expired\",\"fields\":{\"request\":3,\"trace\":13}}\n\
{\"seq\":6,\"t_ns\":1410,\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{\"dur_ns\":10,\"span\":4}}\n";
    (timeline.to_owned(), spans.to_owned())
}

#[test]
fn timeline_renders_tables_and_sparklines() {
    let old = fixture("timeline_old.ndjson");
    let out = obsctl(&["timeline", old.to_str().unwrap(), "--shard", "merged"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("window=1000 ns"), "{stdout}");
    assert!(stdout.contains("serve.admitted (delta)"), "{stdout}");
    assert!(
        stdout.contains("window 0 [t=0 ns): count=10 sum=10 mean=1 min=1 max=1"),
        "{stdout}"
    );
    assert!(stdout.contains('█'), "sparkline glyphs: {stdout}");

    // a shard nothing recorded under is a gate failure, not silence
    let out = obsctl(&["timeline", old.to_str().unwrap(), "--shard", "7"]);
    assert_eq!(out.status.code(), Some(1));

    // --series filters, --json re-emits the artifact records
    let out = obsctl(&[
        "timeline",
        old.to_str().unwrap(),
        "--shard",
        "merged",
        "--series",
        "serve.expired",
        "--json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "config + one point: {stdout}");
    assert!(
        stdout.contains("\"series\":\"serve.expired\",\"kind\":\"delta\",\"window\":1"),
        "{stdout}"
    );
}

#[test]
fn timeline_offline_recompute_matches_and_gates_on_divergence() {
    let (timeline, spans) = matching_timeline_and_spans();
    let timeline_path = temp("tl-match", &timeline);
    let spans_path = temp("tl-spans", &spans);
    let out = obsctl(&[
        "timeline",
        timeline_path.to_str().unwrap(),
        "--spans",
        spans_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 request span(s), 2 window(s) — matches live serve.request_latency_ns"),
        "{stdout}"
    );

    // tamper with one live window: the cross-check must trip
    let tampered = temp(
        "tl-tampered",
        &timeline.replace("\"sum\":400", "\"sum\":401"),
    );
    let out = obsctl(&[
        "timeline",
        tampered.to_str().unwrap(),
        "--spans",
        spans_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "divergence must gate");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("disagrees with live"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn anomaly_passes_a_self_diff_and_catches_a_seeded_regression() {
    let old = fixture("timeline_old.ndjson");
    let out = obsctl(&["anomaly", old.to_str().unwrap(), old.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "self-diff must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serve.completed"), "{stdout}");
    assert!(!stdout.contains("ANOMALOUS"), "{stdout}");

    // the regressed fixture drops merged serve.completed 10 -> 6 (-40%)
    let regressed = fixture("timeline_regressed.ndjson");
    let out = obsctl(&[
        "anomaly",
        regressed.to_str().unwrap(),
        old.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "seeded regression must gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let anomalous: Vec<&str> = stdout.lines().filter(|l| l.contains("ANOMALOUS")).collect();
    assert_eq!(anomalous.len(), 1, "{stdout}");
    assert!(anomalous[0].contains("serve.completed"), "{stdout}");
    assert!(anomalous[0].contains("40.0%"), "{stdout}");

    // inside a loose threshold the same pair passes
    let out = obsctl(&[
        "anomaly",
        regressed.to_str().unwrap(),
        old.to_str().unwrap(),
        "--threshold-pct",
        "50",
    ]);
    assert!(out.status.success());

    // a named series missing from one side is itself an anomaly
    let out = obsctl(&[
        "anomaly",
        regressed.to_str().unwrap(),
        old.to_str().unwrap(),
        "--series",
        "serve.vanished",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("missing in"));
}

#[test]
fn timeline_and_anomaly_usage_errors_exit_2() {
    let out = obsctl(&["timeline"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["anomaly", "only-one.ndjson"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["timeline", "x.ndjson", "--shard"]);
    assert_eq!(out.status.code(), Some(2));
    let out = obsctl(&["anomaly", "a.ndjson", "b.ndjson", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    // a non-artifact file is an input error, not a crash
    let not_timeline = temp("not-timeline", "{\"metric\":\"x\",\"value\":1}\n");
    let out = obsctl(&["timeline", not_timeline.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("timeline_config"));
}
