//! Direct probes of the layers under the farm: `canti-core`'s chain
//! characterization and autonomous scan, `canti-bio`'s protocol solve
//! and `canti-analog`'s sampled-data chain, each timed around one public
//! call from the benchmark.

use canti_bio::assay::AssayProtocol;
use canti_bio::kinetics::LangmuirKinetics;
use canti_bio::receptor::ReceptorLayer;
use canti_core::assay::{run_static_assay_precomputed, StaticChainResponse};
use canti_core::autonomous::AutonomousInstrument;
use canti_core::chip::BiosensorChip;
use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig, CHANNELS};
use canti_farm::PrecomputeCache;
use canti_units::{Molar, Seconds, SurfaceStress};

use crate::stats::median_of;
use crate::trace::SpanLog;

/// Settle-plus-measure samples per bisection step of `calibrate_offsets`.
const CAL_SAMPLES_PER_STEP: usize = 4_000 + 2_000;
/// Noise burst `StaticChainResponse::measure` runs (settle + measure).
const CHAIN_NOISE_BURST: usize = 16_000;
/// Samples per channel of a farm chaos scan.
const SCAN_SAMPLES: usize = 2_000;
/// The burst the `analog.ns_per_sample` probe times.
const PROBE_BURST: usize = 16_000;

/// Cold characterizations timed per probe run.
const COLD_REPS: usize = 3;
/// Cheap calls timed per probe run.
const WARM_REPS: usize = 200;
/// Noise bursts timed per probe run.
const NOISE_REPS: usize = 5;

/// One probe result: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn static_system() -> StaticCantileverSystem {
    let chip = BiosensorChip::paper_static_chip().expect("paper chip");
    StaticCantileverSystem::new(chip, StaticReadoutConfig::default()).expect("static system")
}

/// Analog samples one `calibrate_offsets` runs, from its loop bounds.
fn calibrate_samples() -> usize {
    let bits = StaticReadoutConfig::default().offset_dac_bits as usize;
    CHANNELS * (bits + 2) * CAL_SAMPLES_PER_STEP
}

/// Runs every probe, recording one root span per call under probe ids
/// starting at `probe_base`, and returns the medians.
///
/// # Panics
///
/// Panics if a layer call fails; every input is a fixed valid one.
#[must_use]
pub fn probe(spans: &mut SpanLog, probe_base: u64) -> Vec<Metric> {
    let mut id = probe_base;
    let mut next = || {
        id += 1;
        id
    };
    let cfg = StaticReadoutConfig::default();

    let mut miss_ms = Vec::new();
    let mut calibrate_ms = Vec::new();
    let mut measure_ms = Vec::new();
    let mut power_on_ms = Vec::new();
    let mut scan_ms = Vec::new();
    let mut cache = PrecomputeCache::new();
    for _ in 0..COLD_REPS {
        // farm: a cold PrecomputeCache::static_chain
        cache = PrecomputeCache::new();
        let (_, ms) = spans.time("farm.precompute_miss", next(), || {
            cache.static_chain(&cfg).expect("cold chain")
        });
        miss_ms.push(ms);

        // core: the two halves of that characterization
        let mut system = static_system();
        let (_, ms) = spans.time("core.calibrate_offsets", next(), || {
            system.calibrate_offsets().expect("calibrate");
        });
        calibrate_ms.push(ms);
        let (_, ms) = spans.time("core.chain_measure", next(), || {
            StaticChainResponse::measure(&mut system).expect("chain measure")
        });
        measure_ms.push(ms);

        // core: the autonomous instrument a chaos scan drives
        let mut instrument = AutonomousInstrument::new(static_system()).expect("instrument");
        let (_, ms) = spans.time("core.power_on", next(), || {
            instrument.power_on().expect("power on");
        });
        power_on_ms.push(ms);
        let mut sigmas = [SurfaceStress::zero(); CHANNELS];
        sigmas[1] = SurfaceStress::from_millinewtons_per_meter(2.0);
        let (_, ms) = spans.time("core.run_scan", next(), || {
            instrument.run_scan(sigmas, SCAN_SAMPLES).expect("scan")
        });
        scan_ms.push(ms);
    }
    // farm: the warm lookup
    let hit_us: Vec<f64> = (0..WARM_REPS)
        .map(|_| {
            let (_, ms) = spans.time("farm.precompute_hit", next(), || {
                cache.static_chain(&cfg).expect("warm chain")
            });
            ms * 1e3
        })
        .collect();

    // bio and core: one serve-spec assay
    let chain = cache.static_chain(&cfg).expect("warm chain");
    let layer = ReceptorLayer::anti_igg();
    let protocol = AssayProtocol::standard(
        Seconds::new(30.0),
        Molar::from_nanomolar(10.0),
        Seconds::new(120.0),
        Seconds::new(60.0),
    );
    let kinetics = LangmuirKinetics::from_receptor(&layer);
    let mut sensorgram_us = Vec::new();
    let mut assay_us = Vec::new();
    for rep in 0..WARM_REPS {
        let (sensorgram, ms) = spans.time("bio.sensorgram", next(), || {
            protocol
                .run(&kinetics, Seconds::new(0.25), 0.0)
                .expect("sensorgram")
        });
        sensorgram_us.push(ms * 1e3);
        let (trace, ms) = spans.time("core.static_assay", next(), || {
            run_static_assay_precomputed(&chain, &layer, &sensorgram, 64, rep as u64)
                .expect("assay")
        });
        assay_us.push(ms * 1e3);
        std::hint::black_box(trace);
    }

    // analog: the sampled-data chain over a fixed burst (settle + measure)
    let mut system = static_system();
    let ns_per_sample: Vec<f64> = (0..NOISE_REPS)
        .map(|_| {
            let (v, ms) = spans.time("analog.noise_burst", next(), || {
                system
                    .output_noise_rms(0, SurfaceStress::zero(), PROBE_BURST)
                    .expect("noise burst")
            });
            std::hint::black_box(v);
            ms * 1e6 / (2 * PROBE_BURST) as f64
        })
        .collect();

    let samples_per_chain = calibrate_samples() + 2 * CHAIN_NOISE_BURST;
    let samples_per_scan = calibrate_samples() + CHANNELS * 2 * SCAN_SAMPLES;
    vec![
        ("farm.precompute_miss_ms", median_of(&miss_ms), "ms"),
        ("farm.precompute_hit_us", median_of(&hit_us), "us"),
        ("core.calibrate_offsets_ms", median_of(&calibrate_ms), "ms"),
        ("core.chain_measure_ms", median_of(&measure_ms), "ms"),
        ("core.power_on_ms", median_of(&power_on_ms), "ms"),
        ("core.run_scan_ms", median_of(&scan_ms), "ms"),
        ("core.static_assay_us", median_of(&assay_us), "us"),
        ("bio.sensorgram_us", median_of(&sensorgram_us), "us"),
        ("analog.ns_per_sample", median_of(&ns_per_sample), "ns"),
        (
            "analog.samples_per_chain",
            samples_per_chain as f64,
            "count",
        ),
        ("analog.samples_per_scan", samples_per_scan as f64, "count"),
    ]
}
