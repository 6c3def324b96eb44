//! The traced run's farm segment: batches of seeded chaos scans on a
//! fresh `Farm` over a persistent worker pool, with no serve layer.

use std::sync::Arc;
use std::time::Instant;

use canti_farm::{
    chaos_scan_batch, BatchReport, Farm, FarmConfig, JobSpec, PrecomputeCache, Receptor, WorkerPool,
};
use canti_units::Molar;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::stats::Samples;
use crate::trace::SpanLog;

/// Fault events in each scan's seeded fault plan.
pub const FAULTS: usize = 4;

const BATCH_SEED: u64 = 0xFA12_2026;

/// Worker threads: the machine's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds a farm on a fresh persistent pool of `nproc` workers and a
/// fresh precompute cache, and warms the cache with one dose-response
/// job, as the repository's farm bench does. Returns the farm and the
/// seconds that took.
///
/// # Panics
///
/// Panics if the warm-up job fails.
#[must_use]
pub fn start_ready() -> (Farm, f64) {
    let t0 = Instant::now();
    let farm = Farm::with_cache(
        FarmConfig {
            batch_seed: BATCH_SEED,
            threads: nproc(),
        },
        Arc::new(PrecomputeCache::new()),
    )
    .with_pool(Arc::new(WorkerPool::new(nproc())));
    let warm = farm.run(&[JobSpec::dose_point(
        Receptor::AntiIgg,
        Molar::from_nanomolar(1.0),
    )]);
    assert_eq!(warm.ok_count(), 1, "warm-up job succeeds");
    (farm, t0.elapsed().as_secs_f64())
}

/// One timed batch.
#[derive(Debug)]
pub struct Batch {
    /// The scans run.
    pub jobs: Vec<JobSpec>,
    /// The farm's report.
    pub report: BatchReport,
    /// Wall time of `Farm::run`, ms.
    pub ms: f64,
}

/// The next batch of `scans` chaos scans, fault seeds drawn from `rng`.
pub fn next_jobs(rng: &mut ChaCha8Rng, scans: usize) -> Vec<JobSpec> {
    chaos_scan_batch(scans, rng.gen(), FAULTS)
}

/// Runs one batch, recording a `farm.batch` span.
pub fn run_batch(farm: &Farm, jobs: Vec<JobSpec>, probe: u64, spans: &mut SpanLog) -> Batch {
    let (report, ms) = spans.time("farm.batch", probe, || farm.run(&jobs));
    Batch { jobs, report, ms }
}

/// Runs `count` batches of `scans` scans each.
pub fn run_batches(
    farm: &Farm,
    rng: &mut ChaCha8Rng,
    scans: usize,
    count: usize,
    spans: &mut SpanLog,
    probe_base: u64,
) -> Vec<Batch> {
    (0..count)
        .map(|i| run_batch(farm, next_jobs(rng, scans), probe_base + i as u64, spans))
        .collect()
}

/// Batch wall times, ms.
#[must_use]
pub fn batch_latency(batches: &[Batch]) -> Samples {
    Samples::new(batches.iter().map(|b| b.ms).collect())
}

/// Re-runs `batch` on a spawn-per-batch farm with one worker and returns
/// whether its report is identical, plus the 1-worker wall time, ms.
#[must_use]
pub fn one_worker_check(batch: &Batch) -> (bool, f64) {
    let farm = Farm::new(FarmConfig {
        batch_seed: BATCH_SEED,
        threads: 1,
    });
    let t0 = Instant::now();
    let report = farm.run(&batch.jobs);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (report == batch.report, ms)
}
