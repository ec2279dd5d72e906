//! Shared harness code for the experiment binaries (`table1`–`table5`,
//! `fig15`, `scan`, `eval`) that regenerate the paper's evaluation tables
//! and figure, plus the streaming-scan and batched-inference throughput
//! benchmarks.
//!
//! Scale selection: set `HOTSPOT_SCALE=tiny|small|medium|paper|huge`
//! (default `small`; `huge` quadruples the Table-I areas for the scan
//! benchmark). `EXPERIMENTS.md` documents how the scaled suite maps to
//! Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hotspot_benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_core::{
    DetectorConfig, Evaluation, HotspotDetector, PipelineTelemetry, ScanConfig, ScanReport,
    TrainingSet,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One table row: a method evaluated on a benchmark.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (e.g. `ours`, `ours_med`, `1st-proxy`, `basic`).
    pub method: String,
    /// The scored evaluation.
    pub eval: Evaluation,
    /// Training wall-clock time.
    pub train_time: Duration,
    /// Candidate clip count evaluated.
    pub clips: usize,
    /// Merged training + evaluation telemetry (framework methods only).
    pub telemetry: Option<PipelineTelemetry>,
}

impl MethodResult {
    /// Formats the row like Table II: `#hit #extra accuracy hit/extra
    /// runtime`.
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>5} {:>7} {:>8.2}% {:>10.3e} {:>8.1}s (train {:>6.1}s, {} clips)",
            self.method,
            self.eval.hits,
            self.eval.extras,
            self.eval.accuracy() * 100.0,
            self.eval.hit_extra_ratio(),
            self.eval.runtime.as_secs_f64(),
            self.train_time.as_secs_f64(),
            self.clips,
        )
    }
}

/// Parses a suite-scale name (`tiny`/`small`/`medium`/`paper`/`huge`).
pub fn parse_scale(name: &str) -> Option<SuiteScale> {
    match name.trim() {
        "tiny" => Some(SuiteScale::Tiny),
        "small" => Some(SuiteScale::Small),
        "medium" => Some(SuiteScale::Medium),
        "paper" => Some(SuiteScale::Paper),
        "huge" => Some(SuiteScale::Huge),
        _ => None,
    }
}

/// Reads the suite scale from `HOTSPOT_SCALE` (default: `small`).
pub fn scale_from_env() -> SuiteScale {
    std::env::var("HOTSPOT_SCALE")
        .ok()
        .and_then(|v| parse_scale(&v))
        .unwrap_or(SuiteScale::Small)
}

/// Generates the whole suite at the chosen scale. The blind benchmark
/// (`mx_blind_partial`) reuses benchmark 1's training set, as in the paper.
pub fn generate_suite(scale: SuiteScale) -> Vec<Benchmark> {
    let mut benchmarks: Vec<Benchmark> = iccad_suite(scale)
        .into_iter()
        .map(Benchmark::generate)
        .collect();
    // Paper: MX_blind_partial is evaluated with MX_benchmark1_clip training.
    if benchmarks.len() == 6 {
        let bm1_training = benchmarks[0].training.clone();
        benchmarks[5].training = bm1_training;
    }
    benchmarks
}

/// Trains and evaluates the full framework at a decision threshold.
pub fn run_ours(
    benchmark: &Benchmark,
    config: DetectorConfig,
    method: &str,
    threshold: f64,
) -> MethodResult {
    let t0 = Instant::now();
    let detector = HotspotDetector::train(&benchmark.training, config).expect("framework training");
    let train_time = t0.elapsed();
    let report = detector
        .detect_with_threshold(&benchmark.layout, benchmark.layer, threshold)
        .expect("framework evaluation");
    let eval = report.score_against(
        &benchmark.actual,
        detector.config().min_hit_clip_overlap,
        benchmark.area_um2(),
    );
    let telemetry = detector.summary().telemetry.merge(&report.telemetry);
    MethodResult {
        method: method.to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: Some(telemetry),
    }
}

/// Runs the fuzzy pattern-matching baseline (contest-winner proxy).
pub fn run_matcher(benchmark: &Benchmark, config: DetectorConfig) -> MethodResult {
    let t0 = Instant::now();
    let matcher = hotspot_baselines::PatternMatcher::train(&benchmark.training, config.clone());
    let train_time = t0.elapsed();
    let report = matcher.detect(&benchmark.layout, benchmark.layer);
    let eval = hotspot_core::score(
        &report.reported,
        &benchmark.actual,
        config.min_hit_clip_overlap,
        benchmark.area_um2(),
        report.runtime,
    );
    MethodResult {
        method: "1st-proxy".to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: None,
    }
}

/// Runs the single-kernel "Basic" baseline.
pub fn run_basic(benchmark: &Benchmark, config: DetectorConfig) -> MethodResult {
    let t0 = Instant::now();
    let basic = hotspot_baselines::SingleKernelSvm::train(&benchmark.training, config.clone())
        .expect("basic training");
    let train_time = t0.elapsed();
    let report = basic.detect(&benchmark.layout, benchmark.layer);
    let eval = hotspot_core::score(
        &report.reported,
        &benchmark.actual,
        config.min_hit_clip_overlap,
        benchmark.area_um2(),
        report.runtime,
    );
    MethodResult {
        method: "basic".to_string(),
        eval,
        train_time,
        clips: report.clips_extracted,
        telemetry: None,
    }
}

/// Version of the `BENCH_scan.json` schema (bump on breaking changes; the
/// field-by-field layout is documented in `DESIGN.md`).
///
/// History: v1 measured a single cold streaming scan; v2 adds the
/// incremental re-scan columns (`warm_*`, `edited_*`) timing a second
/// scan through the content-addressed tile result cache — unchanged
/// layout (all hits) and after a one-tile edit (only touched tiles
/// recompute); v3 adds the rasterisation micro-phase columns
/// (`raster_naive_wall_ms`, `raster_sat_wall_ms`, `raster_speedup`)
/// timing per-clip density-grid construction through the reference
/// per-rect sweep versus one shared summed-area table per tile. Older
/// records deserialise with the new fields zeroed.
pub const SCAN_BENCH_SCHEMA_VERSION: u32 = 3;

/// The `BENCH_scan.json` record written by the `scan` benchmark binary:
/// streaming-scan throughput, prefilter effectiveness, the memory bound
/// actually observed, and the per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanBenchReport {
    /// Schema version ([`SCAN_BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name the scan ran on.
    pub benchmark: String,
    /// Suite scale (`tiny`/`small`/`paper`/`huge`).
    pub scale: String,
    /// Worker threads used.
    pub threads: usize,
    /// Tile stride in core sides ([`ScanConfig::tile_cores`]).
    pub tile_cores: usize,
    /// Configured in-flight tile window after resolving `0`.
    pub max_in_flight: usize,
    /// Tiles in the scan grid, including empty ones.
    pub tiles_total: usize,
    /// Non-empty tiles examined.
    pub tiles_scanned: usize,
    /// Tiles discarded by the density prefilter.
    pub tiles_prefiltered: usize,
    /// Candidate clips extracted from surviving tiles.
    pub clips_extracted: usize,
    /// Clips flagged hotspot.
    pub clips_flagged: usize,
    /// Hotspot clips reported after removal.
    pub reported: usize,
    /// Clips classified per second of scan wall time.
    pub clips_per_second: f64,
    /// Most tiles simultaneously in flight.
    pub peak_in_flight: usize,
    /// Peak resident set size of the process in bytes (`VmHWM`), `None`
    /// when procfs is unavailable.
    pub peak_rss_bytes: Option<u64>,
    /// Total scan wall time in milliseconds.
    pub scan_wall_ms: f64,
    /// Wall time of the warm re-scan (unchanged layout, all tiles served
    /// from the cache), in milliseconds; `0.0` in v1 records.
    #[serde(default)]
    pub warm_wall_ms: f64,
    /// Cold-over-warm speedup: `scan_wall_ms / warm_wall_ms`; `0.0` in
    /// v1 records.
    #[serde(default)]
    pub warm_speedup: f64,
    /// Tiles served from the cache on the warm re-scan.
    #[serde(default)]
    pub warm_cache_hits: usize,
    /// Tiles recomputed on the warm re-scan (expected `0`).
    #[serde(default)]
    pub warm_cache_misses: usize,
    /// Wall time of the re-scan after a one-rect edit, in milliseconds;
    /// `0.0` in v1 records.
    #[serde(default)]
    pub edited_wall_ms: f64,
    /// Tiles recomputed after the edit (misses = tiles whose core+ambit
    /// window intersects the edited rect).
    #[serde(default)]
    pub edited_cache_misses: usize,
    /// Tiles still served from the cache after the edit.
    #[serde(default)]
    pub edited_cache_hits: usize,
    /// Wall time of rasterising every extracted clip through the
    /// reference per-rect sweep, in milliseconds; `0.0` in pre-v3
    /// records.
    #[serde(default)]
    pub raster_naive_wall_ms: f64,
    /// Wall time of rasterising the same clips through one shared
    /// summed-area table per tile (build included), in milliseconds;
    /// `0.0` in pre-v3 records.
    #[serde(default)]
    pub raster_sat_wall_ms: f64,
    /// Rasterisation speedup: `raster_naive_wall_ms /
    /// raster_sat_wall_ms`; `0.0` in pre-v3 records.
    #[serde(default)]
    pub raster_speedup: f64,
    /// Per-stage telemetry of the cold scan phase.
    pub telemetry: PipelineTelemetry,
}

impl ScanBenchReport {
    /// Builds the record from a finished [`ScanReport`] plus run metadata.
    pub fn from_scan(
        report: &ScanReport,
        benchmark: &str,
        scale: SuiteScale,
        threads: usize,
        scan: &ScanConfig,
    ) -> ScanBenchReport {
        ScanBenchReport {
            schema_version: SCAN_BENCH_SCHEMA_VERSION,
            benchmark: benchmark.to_string(),
            scale: format!("{scale:?}").to_lowercase(),
            threads,
            tile_cores: scan.tile_cores,
            max_in_flight: scan.effective_in_flight(threads),
            tiles_total: report.tiles_total,
            tiles_scanned: report.tiles_scanned,
            tiles_prefiltered: report.tiles_prefiltered,
            clips_extracted: report.clips_extracted,
            clips_flagged: report.clips_flagged,
            reported: report.reported.len(),
            clips_per_second: report.clips_per_second(),
            peak_in_flight: report.peak_in_flight,
            peak_rss_bytes: peak_rss_bytes(),
            scan_wall_ms: report.scan_time.as_secs_f64() * 1e3,
            warm_wall_ms: 0.0,
            warm_speedup: 0.0,
            warm_cache_hits: 0,
            warm_cache_misses: 0,
            edited_wall_ms: 0.0,
            edited_cache_misses: 0,
            edited_cache_hits: 0,
            raster_naive_wall_ms: 0.0,
            raster_sat_wall_ms: 0.0,
            raster_speedup: 0.0,
            telemetry: report.telemetry.clone(),
        }
    }

    /// Records the rasterisation micro-phase (reference per-rect sweep
    /// versus shared summed-area tables over the identical clip set) and
    /// derives `raster_speedup`.
    pub fn record_raster(&mut self, naive: Duration, sat: Duration) {
        self.raster_naive_wall_ms = naive.as_secs_f64() * 1e3;
        self.raster_sat_wall_ms = sat.as_secs_f64() * 1e3;
        self.raster_speedup = if self.raster_sat_wall_ms > 0.0 {
            self.raster_naive_wall_ms / self.raster_sat_wall_ms
        } else {
            0.0
        };
    }

    /// Records the warm re-scan pass (unchanged layout through the tile
    /// cache) and derives `warm_speedup` from the cold wall time.
    pub fn record_warm(&mut self, report: &ScanReport) {
        self.warm_wall_ms = report.scan_time.as_secs_f64() * 1e3;
        self.warm_speedup = if self.warm_wall_ms > 0.0 {
            self.scan_wall_ms / self.warm_wall_ms
        } else {
            0.0
        };
        self.warm_cache_hits = report.cache_hits;
        self.warm_cache_misses = report.cache_misses;
    }

    /// Records the edited re-scan pass (one-rect edit, touched tiles
    /// recomputed through the cache).
    pub fn record_edited(&mut self, report: &ScanReport) {
        self.edited_wall_ms = report.scan_time.as_secs_f64() * 1e3;
        self.edited_cache_misses = report.cache_misses;
        self.edited_cache_hits = report.cache_hits;
    }
}

/// Version of the `BENCH_eval.json` schema (bump on breaking changes; the
/// field-by-field layout is documented in `DESIGN.md`).
///
/// History: v1 measured the post-admission hot loop only; v2 adds the
/// admission-included columns (`admit_*`, `full_*`) timing the batched
/// 8-orientation centroid router against the naive per-centroid search.
pub const EVAL_BENCH_SCHEMA_VERSION: u32 = 2;

/// One suite's row in `BENCH_eval.json`: naive-vs-compiled throughput of
/// the clip-evaluation hot loop on benchmark 1 of the suite at one scale.
///
/// The timed hot loop is everything *after* kernel admission (which is
/// identical on both engines and therefore precomputed): per-clip feature
/// extraction plus decision values against the admitted kernels. The
/// naive path replays the pre-engine loop — one feature extraction *per
/// admitted kernel* and the reference per-support-vector `Vec<Vec<f64>>`
/// walk; the compiled path extracts once per clip and scores through the
/// flattened [`CompiledModel`](hotspot_svm::CompiledModel) engine. The
/// `decision_*` fields isolate the decision-value arithmetic alone
/// (features fully pre-extracted on both sides).
///
/// Schema v2 adds the admission columns: the `admit_*` fields time the
/// kernel-admission search itself over precomputed density grids and
/// topological signatures (naive per-centroid 8-orientation scan vs the
/// batched [`CentroidRouter`](hotspot_topo::route::CentroidRouter)), and
/// the `full_*` fields time the admission-included flagging engine end
/// to end in both [`EvalMode`](hotspot_core::EvalMode)s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSuiteBench {
    /// Benchmark name the measurement ran on.
    pub benchmark: String,
    /// Suite scale (`tiny`/`small`/`medium`/`paper`/`huge`).
    pub scale: String,
    /// Trained cluster kernels.
    pub kernels: usize,
    /// Total support vectors across the kernels.
    pub support_vectors: usize,
    /// Largest kernel feature dimension.
    pub max_feature_len: usize,
    /// Candidate clips extracted from the testing layout.
    pub clips: usize,
    /// Clips admitted to at least one kernel.
    pub clips_admitted: usize,
    /// Total (clip, admitted kernel) evaluations per repetition.
    pub admitted_evals: usize,
    /// Timed repetitions of the hot loop (identical for all paths).
    pub reps: usize,
    /// Hot-loop wall of the naive path (per-kernel re-extraction +
    /// per-support-vector walk), in milliseconds.
    pub naive_wall_ms: f64,
    /// Hot-loop wall with extraction memoized per clip but decisions
    /// still on the reference path, in milliseconds.
    pub memoized_wall_ms: f64,
    /// Hot-loop wall of the compiled batched path, in milliseconds.
    pub compiled_wall_ms: f64,
    /// Candidate clips processed per second, naive path.
    pub naive_clips_per_second: f64,
    /// Candidate clips processed per second, compiled path.
    pub compiled_clips_per_second: f64,
    /// Hot-loop speedup: `naive_wall_ms / compiled_wall_ms`.
    pub speedup: f64,
    /// Pure decision-value wall over the admitted features, reference
    /// path, in milliseconds.
    pub decision_naive_wall_ms: f64,
    /// Pure decision-value wall over the admitted features, compiled
    /// engine, in milliseconds.
    pub decision_compiled_wall_ms: f64,
    /// `decision_naive_wall_ms / decision_compiled_wall_ms`.
    pub decision_speedup: f64,
    /// Support-vector dot-product GFLOP/s proxy of the compiled
    /// decision pass (`2 · dim · n_sv` flops per kernel evaluation;
    /// scaling, norms, and `exp` excluded).
    pub sv_dot_gflops: f64,
    /// Kernel-evaluation stage wall of a full `detect` run on the
    /// reference engine, in milliseconds.
    pub detect_eval_stage_naive_ms: f64,
    /// Kernel-evaluation stage wall of a full `detect` run on the
    /// compiled engine, in milliseconds.
    pub detect_eval_stage_compiled_ms: f64,
    /// Clip batches the compiled `detect` run scheduled.
    pub eval_batches: usize,
    /// Whether the two `detect` runs reported the identical hotspot set
    /// (always `true`; the binary aborts otherwise).
    pub hotspots_identical: bool,
    /// Timed repetitions of the admission passes (schema v2).
    #[serde(default)]
    pub admit_reps: usize,
    /// Admission wall of the naive per-centroid 8-orientation search over
    /// precomputed grids and signatures, in milliseconds.
    #[serde(default)]
    pub admit_naive_wall_ms: f64,
    /// Admission wall of the compiled
    /// [`CentroidRouter`](hotspot_topo::route::CentroidRouter), in
    /// milliseconds.
    #[serde(default)]
    pub admit_compiled_wall_ms: f64,
    /// Admission speedup: `admit_naive_wall_ms / admit_compiled_wall_ms`.
    #[serde(default)]
    pub admit_speedup: f64,
    /// Clip-kernel pairs admitted per admission pass (identical on both
    /// paths; the binary aborts otherwise).
    #[serde(default)]
    pub admit_admissions: u64,
    /// Centroid-orientation rows the router considered in one pass.
    #[serde(default)]
    pub admit_rows_considered: u64,
    /// Rows the router pruned in one pass (kernel mass gate + L2 norm
    /// screen + in-row early exit).
    #[serde(default)]
    pub admit_rows_pruned: u64,
    /// Timed repetitions of the admission-included full flagging passes.
    #[serde(default)]
    pub full_reps: usize,
    /// Full flagging pass (admission + feature extraction + decisions)
    /// on the reference engine, in milliseconds.
    #[serde(default)]
    pub full_reference_wall_ms: f64,
    /// Full flagging pass (admission + feature extraction + decisions)
    /// on the compiled engine, in milliseconds.
    #[serde(default)]
    pub full_compiled_wall_ms: f64,
    /// End-to-end engine speedup:
    /// `full_reference_wall_ms / full_compiled_wall_ms`.
    #[serde(default)]
    pub full_speedup: f64,
}

/// The `BENCH_eval.json` record written by the `eval` benchmark binary:
/// batched-inference throughput of the clip-evaluation hot loop, one row
/// per measured suite scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalBenchReport {
    /// Schema version ([`EVAL_BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Worker threads the `detect` comparison ran with.
    pub threads: usize,
    /// One row per measured suite.
    pub suites: Vec<EvalSuiteBench>,
}

/// Best-effort peak resident set size of this process in bytes, parsed
/// from `/proc/self/status` (`VmHWM`). Returns `None` where procfs is
/// unavailable (non-Linux hosts) — the scan benchmark then omits the
/// memory column rather than failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Deterministically subsamples a training set to `fraction` (Table IV).
pub fn subsample_training(training: &TrainingSet, fraction: f64) -> TrainingSet {
    training.subsample(fraction)
}

/// Prints the per-stage telemetry breakdown of a framework run, when one was
/// recorded (indented under its table row).
pub fn print_breakdown(result: &MethodResult) {
    if let Some(t) = &result.telemetry {
        for line in t.breakdown().lines() {
            println!("    {line}");
        }
    }
}

/// Prints a table header naming the experiment.
pub fn print_header(title: &str, scale: SuiteScale) {
    println!("==============================================================");
    println!("{title}   (scale: {scale:?}; see EXPERIMENTS.md for mapping)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_benchgen::{Benchmark, BenchmarkSpec, LithoOracle};
    use hotspot_layout::ClipShape;

    fn tiny_benchmark() -> Benchmark {
        Benchmark::generate(BenchmarkSpec {
            name: "harness".into(),
            process_nm: 32,
            width: 48_000,
            height: 48_000,
            train_hotspots: 10,
            train_nonhotspots: 30,
            test_hotspots: 4,
            seed: 5,
            clip_shape: ClipShape::ICCAD2012,
            oracle: LithoOracle::default(),
            background_fill: 0.5,
            ambit_filler: true,
        })
    }

    #[test]
    fn method_result_row_formats_all_columns() {
        let bm = tiny_benchmark();
        let r = run_ours(&bm, DetectorConfig::default(), "ours", 0.0);
        let row = r.row();
        assert!(row.contains("ours"), "{row}");
        assert!(row.contains("clips"), "{row}");
        assert!(row.contains('%'), "{row}");
    }

    #[test]
    fn all_three_method_runners_score() {
        let bm = tiny_benchmark();
        for r in [
            run_ours(&bm, DetectorConfig::default(), "ours", 0.0),
            run_matcher(&bm, DetectorConfig::default()),
            run_basic(&bm, DetectorConfig::default()),
        ] {
            assert_eq!(r.eval.actual, bm.actual.len(), "{}", r.method);
            assert!(r.clips > 0, "{}", r.method);
            assert!(r.eval.accuracy() >= 0.0 && r.eval.accuracy() <= 1.0);
        }
    }

    #[test]
    fn suite_generation_wires_blind_training() {
        let suite = generate_suite(SuiteScale::Tiny);
        assert_eq!(suite.len(), 6);
        // The blind benchmark reuses benchmark 1's training set.
        assert_eq!(suite[5].training, suite[0].training);
        assert_ne!(suite[5].layout, suite[0].layout);
    }

    #[test]
    fn subsample_helper_delegates() {
        let bm = tiny_benchmark();
        let half = subsample_training(&bm.training, 0.5);
        assert_eq!(half.hotspots.len(), 5);
    }

    #[test]
    fn peak_rss_reads_procfs_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // A live process has touched at least a page.
            assert!(bytes > 4096, "peak RSS {bytes} bytes");
        }
    }

    #[test]
    fn scan_bench_report_round_trips_through_json() {
        let bm = tiny_benchmark();
        let detector =
            HotspotDetector::train(&bm.training, DetectorConfig::default()).expect("training");
        let scan = ScanConfig::default();
        let report = detector
            .scan_layout(&bm.layout, bm.layer, &scan)
            .expect("scan");
        let threads = detector.config().effective_threads().max(1);
        let mut bench =
            ScanBenchReport::from_scan(&report, &bm.spec.name, SuiteScale::Tiny, threads, &scan);
        assert_eq!(bench.schema_version, SCAN_BENCH_SCHEMA_VERSION);
        assert_eq!(bench.schema_version, 3);
        assert_eq!(bench.scale, "tiny");
        assert_eq!(bench.tiles_scanned, report.tiles_scanned);
        assert!(bench.max_in_flight >= 1);
        // Cold-only record leaves the warm-rescan and raster columns
        // defaulted.
        assert_eq!(bench.warm_speedup, 0.0);
        assert_eq!(bench.warm_cache_hits, 0);
        assert_eq!(bench.raster_speedup, 0.0);
        bench.record_warm(&report);
        bench.record_edited(&report);
        bench.record_raster(Duration::from_millis(80), Duration::from_millis(20));
        assert!(bench.warm_wall_ms > 0.0);
        assert!(bench.warm_speedup > 0.0);
        assert!((bench.raster_speedup - 4.0).abs() < 1e-9);
        let json = serde_json::to_string_pretty(&bench).expect("serialise");
        let back: ScanBenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, bench);
        for field in [
            "\"schema_version\"",
            "\"tiles_scanned\"",
            "\"tiles_prefiltered\"",
            "\"clips_per_second\"",
            "\"peak_in_flight\"",
            "\"peak_rss_bytes\"",
            "\"warm_wall_ms\"",
            "\"warm_speedup\"",
            "\"warm_cache_hits\"",
            "\"edited_cache_misses\"",
            "\"raster_naive_wall_ms\"",
            "\"raster_sat_wall_ms\"",
            "\"raster_speedup\"",
            "\"telemetry\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn v1_scan_records_deserialise_without_warm_columns() {
        // A v1 record (no warm/edited columns) must still parse, with the
        // v2 fields defaulted to zero.
        let v1 = r#"{
            "schema_version": 1,
            "benchmark": "bm1",
            "scale": "tiny",
            "threads": 2,
            "tile_cores": 3,
            "max_in_flight": 8,
            "tiles_total": 9,
            "tiles_scanned": 7,
            "tiles_prefiltered": 2,
            "clips_extracted": 40,
            "clips_flagged": 5,
            "reported": 4,
            "clips_per_second": 1000.0,
            "peak_in_flight": 4,
            "peak_rss_bytes": null,
            "scan_wall_ms": 12.5,
            "telemetry": {
                "schema_version": 6,
                "phase": "scan",
                "threads": 2,
                "stages": [],
                "total_wall_ms": 12.5,
                "obs_sinks": []
            }
        }"#;
        let back: ScanBenchReport = serde_json::from_str(v1).expect("parse v1");
        assert_eq!(back.schema_version, 1);
        assert_eq!(back.warm_wall_ms, 0.0);
        assert_eq!(back.warm_speedup, 0.0);
        assert_eq!(back.warm_cache_hits, 0);
        assert_eq!(back.warm_cache_misses, 0);
        assert_eq!(back.edited_wall_ms, 0.0);
        assert_eq!(back.edited_cache_hits, 0);
        assert_eq!(back.edited_cache_misses, 0);
        assert_eq!(back.raster_naive_wall_ms, 0.0);
        assert_eq!(back.raster_sat_wall_ms, 0.0);
        assert_eq!(back.raster_speedup, 0.0);
    }
}
