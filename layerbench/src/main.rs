//! Whole-process, layer-by-layer benchmark of the hotspot detector.
//!
//! ```sh
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload scan-dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every input is generated from `--seed` with `hotspot_benchgen`; each
//! workload then times whole ops, from input bytes to output bytes, for
//! `--seconds` seconds, checks every op's output, and prints its metrics
//! by name with their units. The end-to-end times are host-normalised
//! (see `host`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` one
//! extra traced op follows the timed ops and the metrics are the per-layer
//! ones (see `README.md` for the list and for which end-to-end metric each
//! layer should move).
//!
//! Options besides the four above: `--scale tiny|small|medium` overrides
//! the workload's suite scale, and `--spans <path>` writes the traced run's
//! spans as TSV. At least one timed op runs however small `--seconds` is.

mod host;
mod replay;
mod sys;
mod trace;

use host::HostClock;
use hotspot_benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_core::{score, DetectorConfig, HotspotDetector, ScanConfig, ScanReport, TrainingSet};
use hotspot_geom::Rect;
use hotspot_layout::gdsii;
use hotspot_layout::scan::{TileScanner, TileSpec};
use hotspot_layout::{LayerId, Layout};
use replay::{cache_header, file_len, replay_scan, replay_train, Compiled, ScanReplay};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Fold, Tracer};

#[global_allocator]
static ALLOC: sys::Counting = sys::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Clip-overlap share for a reported clip to hit an actual hotspot.
const MIN_CLIP_OVERLAP: f64 = 0.2;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ms_p50", "ms"),
    ("clips_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers an op does not
/// pass through report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("json.model_decode_ms", "ms"),
    ("json.model_decode_mb_per_s", "MB/s"),
    ("json.training_decode_ms", "ms"),
    ("json.training_decode_mb_per_s", "MB/s"),
    ("json.model_encode_ms", "ms"),
    ("json.report_encode_ms", "ms"),
    ("json.decode_peak_mb", "MB"),
    ("gdsii.decode_ms", "ms"),
    ("gdsii.decode_mb_per_s", "MB/s"),
    ("gdsii.decode_peak_mb", "MB"),
    ("detector.compile_ms", "ms"),
    ("extraction.ms", "ms"),
    ("extraction.clips", "count"),
    ("raster.ms", "ms"),
    ("raster.fallbacks", "count"),
    ("signature.ms", "ms"),
    ("route.ms", "ms"),
    ("route.rows", "count"),
    ("route.rows_pruned", "count"),
    ("route.admissions", "count"),
    ("route.admit_ratio", "ratio"),
    ("features.ms", "ms"),
    ("features.extractions", "count"),
    ("svm.decide_ms", "ms"),
    ("svm.decisions", "count"),
    ("svm.flag_ratio", "ratio"),
    ("feedback.ms", "ms"),
    ("feedback.calls", "count"),
    ("feedback.reclaimed", "count"),
    ("removal.ms", "ms"),
    ("removal.in", "count"),
    ("removal.out", "count"),
    ("tile_cache.load_ms", "ms"),
    ("tile_cache.lookup_ms", "ms"),
    ("tile_cache.store_ms", "ms"),
    ("tile_cache.hits", "count"),
    ("tile_cache.misses", "count"),
    ("tile_cache.bytes", "bytes"),
    ("journal.append_ms", "ms"),
    ("journal.sync_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("scan.ms", "ms"),
    ("scan.unattributed_ms", "ms"),
    ("scan.peak_heap_mb", "MB"),
    ("engine.efficiency", "ratio"),
    ("engine.tasks_stolen", "count"),
    ("engine.peak_in_flight", "count"),
    ("balance.ms", "ms"),
    ("cluster.ms", "ms"),
    ("cluster.clusters", "count"),
    ("smo.ms", "ms"),
    ("smo.rounds", "count"),
    ("smo.kernels", "count"),
    ("feedback_train.ms", "ms"),
    ("train.ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("train.peak_heap_mb", "MB"),
    ("op.ms", "ms"),
    ("op.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("score.hit_rate", "ratio"),
    ("score.extras", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ScanDense,
    ScanSparse,
    RescanEdit,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "scan-dense" => Some(Workload::ScanDense),
            "scan-sparse" => Some(Workload::ScanSparse),
            "rescan-edit" => Some(Workload::RescanEdit),
            "train" => Some(Workload::Train),
            _ => None,
        }
    }

    /// The Table-I benchmark the workload generates.
    fn benchmark(self) -> &'static str {
        match self {
            Workload::ScanDense | Workload::RescanEdit => "array_benchmark3",
            Workload::ScanSparse => "mx_blind_partial",
            Workload::Train => "array_benchmark2",
        }
    }

    fn scale(self) -> SuiteScale {
        match self {
            Workload::ScanSparse => SuiteScale::Medium,
            _ => SuiteScale::Small,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::ScanSparse => 2,
            _ => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    scale: Option<SuiteScale>,
    spans: Option<PathBuf>,
}

const USAGE: &str =
    "usage: hotspot-layerbench --workload scan-dense|scan-sparse|rescan-edit|train \
[--seed N] [--seconds S] [--trace 0|1] [--scale tiny|small|medium] [--spans PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ScanDense,
        seed: None,
        seconds: 10.0,
        trace: false,
        scale: None,
        spans: None,
    };
    let mut workload = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("invalid value `{v}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(v))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--scale" => {
                let v = value()?;
                args.scale = Some(match v.as_str() {
                    "tiny" => SuiteScale::Tiny,
                    "small" => SuiteScale::Small,
                    "medium" => SuiteScale::Medium,
                    _ => return Err(bad(v)),
                });
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(args)
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".bench_work").join(format!("{}-{:?}", std::process::id(), workload));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything one run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the metrics.
    info: Vec<String>,
}

/// One timed op: its wall time, its host-normalised time (see `host`), the
/// items it processed (clips or training patterns), and why its output
/// check failed, if it did.
struct OpResult {
    wall: Duration,
    norm_ms: f64,
    items: usize,
    failure: Option<String>,
}

/// One op that passed its check.
struct Sample {
    wall_ms: f64,
    norm_ms: f64,
    items: usize,
    /// Most heap live at once during the op, above what was live when it
    /// started, in MB.
    peak_heap_mb: f64,
}

/// The timed-op statistics of a run.
struct Timed {
    samples: Vec<Sample>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Timed {
    fn walls_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ms).collect()
    }

    fn norms_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.norm_ms).collect()
    }

    /// Median host-normalised op wall time: the `wall_ms_p50` metric.
    fn wall_ms_p50(&self) -> f64 {
        median(&self.norms_ms())
    }

    /// Median over passing ops of items per second of host-normalised op
    /// wall time.
    fn items_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .map(|s| ratio(s.items as f64, s.norm_ms / 1e3))
            .collect();
        median(&rates)
    }

    /// Median over passing ops of the op's own peak heap, in MB.
    fn peak_heap_mb(&self) -> f64 {
        let peaks: Vec<f64> = self.samples.iter().map(|s| s.peak_heap_mb).collect();
        median(&peaks)
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Starts ops until `seconds` have passed (the last op may run past it);
/// at least one op runs.
fn timed_ops(seconds: f64, mut op: impl FnMut() -> OpResult) -> Timed {
    let mut timed = Timed {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while timed.attempted == 0 || started.elapsed() < budget {
        let (r, peak_heap_mb) = sys::heap_peak_mb(&mut op);
        timed.attempted += 1;
        match r.failure {
            None => timed.samples.push(Sample {
                wall_ms: r.wall.as_secs_f64() * 1e3,
                norm_ms: r.norm_ms,
                items: r.items,
                peak_heap_mb,
            }),
            Some(why) => {
                timed.failed += 1;
                timed.failures.push(why);
            }
        }
    }
    timed
}

/// Runs the set-up `SETUP_REPS` times; returns the median
/// host-normalised time in seconds and the last set-up's result.
fn setups<T>(
    clock: &mut HostClock,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let mut sw = clock.start();
        let value = sw.lap(&mut setup)?;
        times.push(sw.finish().1 / 1e3);
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((median(&times), value))
}

fn detector_config(threads: usize) -> Result<DetectorConfig, String> {
    HotspotDetector::builder()
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

fn train(training: &TrainingSet, threads: usize) -> Result<HotspotDetector, String> {
    HotspotDetector::train(training, detector_config(threads)?).map_err(|e| format!("train: {e}"))
}

fn encode<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, String> {
    serde_json::to_vec(value).map_err(|e| format!("encode: {e}"))
}

/// Why a scan op's report is not the reference, if it is not.
fn check_scan(report: &ScanReport, reference: &str) -> Option<String> {
    if let Some(reason) = report.aborted {
        return Some(format!("scan aborted: {reason}"));
    }
    if !report.failed_tiles.is_empty() {
        return Some(format!("{} tile(s) quarantined", report.failed_tiles.len()));
    }
    if report.digest() != reference {
        return Some("report digest differs from the reference scan".into());
    }
    None
}

/// Hit rate and extras of `reported` against the generator's ground truth.
fn quality(info: &mut Vec<String>, bench: &Benchmark, report: &ScanReport) -> (f64, f64) {
    let eval = score(
        &report.reported,
        &bench.actual,
        MIN_CLIP_OVERLAP,
        bench.area_um2(),
        report.scan_time,
    );
    let hit_rate = ratio(eval.hits as f64, eval.actual as f64);
    info.push(format!(
        "quality: {} of {} actual hotspots hit (hit_rate {hit_rate:.4}), {} extras, {} reported",
        eval.hits, eval.actual, eval.extras, eval.reported
    ));
    (hit_rate, eval.extras as f64)
}

/// The end-to-end metrics of a run.
fn end_to_end(setup_s: f64, timed: &Timed) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", setup_s),
        ("wall_ms_p50", timed.wall_ms_p50()),
        ("clips_per_s", timed.items_per_s()),
        ("peak_heap_mb", timed.peak_heap_mb()),
    ])
}

fn per_op_info(info: &mut Vec<String>, timed: &Timed, item: &str, clock: &HostClock) {
    info.push(format!(
        "ops: {} attempted, {} failed (failed_ratio {}), {} {item} in timed ops",
        timed.attempted,
        timed.failed,
        timed.failed as f64 / timed.attempted.max(1) as f64,
        timed.samples.iter().map(|s| s.items).sum::<usize>()
    ));
    for (what, mut walls) in [
        ("op wall ms", timed.walls_ms()),
        ("op host-normalised ms", timed.norms_ms()),
        ("host probe ms", clock.probes_ms().to_vec()),
    ] {
        walls.sort_by(f64::total_cmp);
        if let (Some(min), Some(max)) = (walls.first(), walls.last()) {
            let q = |p: f64| walls[((walls.len() - 1) as f64 * p).round() as usize];
            info.push(format!(
                "{what}: min {min:.3}, p25 {:.3}, median {:.3}, p75 {:.3}, max {max:.3} over {}",
                q(0.25),
                median(&walls),
                q(0.75),
                walls.len()
            ));
        }
    }
    for why in &timed.failures {
        info.push(format!("failed op: {why}"));
    }
}

/// Megabytes per second of `bytes` decoded in `ms`.
fn mb_per_s(bytes: usize, ms: f64) -> f64 {
    ratio(bytes as f64 / 1e6, ms / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span name, and the per-layer row that reports the span's summed self
/// time. Every span the traced run records must have a row here.
const SELF_TIME_ROWS: &[(&str, &str)] = &[
    ("json.model_decode", "json.model_decode_ms"),
    ("json.training_decode", "json.training_decode_ms"),
    ("json.model_encode", "json.model_encode_ms"),
    ("json.report_encode", "json.report_encode_ms"),
    ("gdsii.decode", "gdsii.decode_ms"),
    ("detector.compile", "detector.compile_ms"),
    ("extraction", "extraction.ms"),
    ("raster", "raster.ms"),
    ("signature", "signature.ms"),
    ("route", "route.ms"),
    ("features", "features.ms"),
    ("svm.decide", "svm.decide_ms"),
    ("feedback", "feedback.ms"),
    ("removal", "removal.ms"),
    ("tile_cache.load", "tile_cache.load_ms"),
    ("tile_cache.lookup", "tile_cache.lookup_ms"),
    ("tile_cache.store", "tile_cache.store_ms"),
    ("journal.append", "journal.append_ms"),
    ("journal.sync", "journal.sync_ms"),
    ("scan", "scan.unattributed_ms"),
    ("balance", "balance.ms"),
    ("cluster", "cluster.ms"),
    ("smo", "smo.ms"),
    ("feedback_train", "feedback_train.ms"),
    ("train", "train.unattributed_ms"),
    ("op", "op.unattributed_ms"),
];

/// Per-layer metrics of a traced op: layer self times from the span fold,
/// counts from the tracer. Every name in `PER_LAYER` is present. Fails if
/// a recorded span has no self-time row, since its time would be lost.
fn per_layer(tr: &Tracer, fold: &Fold) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (&span, &ns) in &fold.self_ns {
        let &(_, row) = SELF_TIME_ROWS
            .iter()
            .find(|&&(s, _)| s == span)
            .ok_or_else(|| format!("span `{span}` has no per-layer self-time row"))?;
        m.insert(row, ns as f64 / 1e6);
    }
    let mut set = |name: &'static str, v: f64| {
        debug_assert!(m.contains_key(name), "unknown metric {name}");
        m.insert(name, v);
    };
    for counter in [
        "extraction.clips",
        "raster.fallbacks",
        "route.rows",
        "route.rows_pruned",
        "route.admissions",
        "features.extractions",
        "svm.decisions",
        "feedback.calls",
        "feedback.reclaimed",
        "removal.in",
        "removal.out",
        "tile_cache.hits",
        "tile_cache.misses",
        "cluster.clusters",
        "smo.rounds",
        "smo.kernels",
    ] {
        set(counter, tr.counter(counter));
    }
    set(
        "svm.flag_ratio",
        ratio(tr.counter("svm.flags"), tr.counter("svm.decisions")),
    );
    set("op.ms", fold.total_ns as f64 / 1e6);
    Ok(m)
}

/// The printed self-time rows must add up to the printed traced total,
/// `op.ms`.
fn check_rows(m: &BTreeMap<&'static str, f64>) -> Result<(), String> {
    let sum: f64 = SELF_TIME_ROWS.iter().map(|&(_, row)| m[row]).sum();
    let total = m["op.ms"];
    if (sum - total).abs() > 1e-6 {
        return Err(format!(
            "the self-time rows sum to {sum} ms but op.ms is {total} ms"
        ));
    }
    Ok(())
}

fn scan_engine_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    tr: &Tracer,
    scans: &[(usize, &ScanReport)],
    threads: usize,
    kernels: usize,
) {
    let scan_ms: f64 = scans
        .iter()
        .map(|&(span, _)| tr.duration_ns(span) as f64 / 1e6)
        .sum();
    let layer_ms = scan_ms - m["scan.unattributed_ms"];
    m.insert("scan.ms", scan_ms);
    m.insert(
        "engine.efficiency",
        ratio(layer_ms, threads as f64 * scan_ms),
    );
    m.insert(
        "engine.tasks_stolen",
        scans
            .iter()
            .flat_map(|(_, r)| &r.telemetry.stages)
            .map(|s| s.tasks_stolen as f64)
            .sum(),
    );
    m.insert(
        "engine.peak_in_flight",
        scans
            .iter()
            .map(|(_, r)| r.peak_in_flight as f64)
            .fold(0.0, f64::max),
    );
    m.insert(
        "route.admit_ratio",
        ratio(
            tr.counter("route.admissions"),
            tr.counter("route.clips") * kernels as f64,
        ),
    );
}

/// The replay must reproduce the real scan exactly: every tile's outcome
/// (checked against the tile cache the real scan wrote), the reported
/// windows, and every count.
fn check_replay(
    replay: &ScanReplay,
    report: &ScanReport,
    detector: &HotspotDetector,
    layer: LayerId,
    cache_path: &Path,
) -> Result<(), String> {
    let fail = |what: &str| Err(format!("scan replay does not match scan_layout: {what}"));
    if replay.reported != report.reported {
        return fail("reported windows differ");
    }
    let counts = [
        (
            replay.tiles_prefiltered,
            report.tiles_prefiltered,
            "tiles_prefiltered",
        ),
        (
            replay.clips_extracted,
            report.clips_extracted,
            "clips_extracted",
        ),
        (replay.clips_flagged, report.clips_flagged, "clips_flagged"),
        (
            replay.feedback_reclaimed,
            report.feedback_reclaimed,
            "feedback_reclaimed",
        ),
        (replay.eval_batches, report.eval_batches, "eval_batches"),
        (replay.tiles.len(), report.tiles_scanned, "tiles_scanned"),
        (replay.cache_hits, report.cache_hits, "cache_hits"),
        (replay.cache_misses, report.cache_misses, "cache_misses"),
    ];
    for (got, want, name) in counts {
        if got != want {
            return fail(&format!("{name} {got} vs {want}"));
        }
    }
    let scan = ScanConfig {
        cache: Some(cache_path.to_path_buf()),
        ..Default::default()
    };
    let cache = hotspot_core::TileCache::open(cache_path, cache_header(detector, &scan, layer)?);
    if cache.load_stats().discarded {
        return fail("the real scan's tile cache does not match the replay's header");
    }
    for (id, fp, record) in &replay.tiles {
        if cache.lookup(*id, *fp) != Some(record) {
            return fail(&format!("tile {id} outcome differs (flagged clip set)"));
        }
    }
    Ok(())
}

/// Dumps spans when asked, then folds them into self times.
fn finish_trace(tr: &Tracer, roots: &[usize], spans: &Option<PathBuf>) -> Result<Fold, String> {
    if let Some(path) = spans {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        tr.dump(&mut file)
            .and_then(|_| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(tr.fold(roots))
}

fn run_scan(args: &Args, bench: &Benchmark, work: &WorkDir) -> Result<Outcome, String> {
    let threads = args.workload.threads();
    let layer = bench.layer;
    let mut info = Vec::new();

    let mut clock = HostClock::new();
    let (setup_s, (trained, model_bytes, gds_bytes)) = setups(&mut clock, || {
        let detector = train(&bench.training, threads)?;
        let model = encode(&detector)?;
        let gds = gdsii::write_bytes(&bench.layout).map_err(|e| format!("gdsii: {e}"))?;
        Ok((detector, model, gds))
    })?;
    info.push(format!(
        "inputs: {} kernels, model {} bytes, layout {} bytes",
        trained.kernels().len(),
        model_bytes.len(),
        gds_bytes.len()
    ));

    // Untimed reference: the same inputs, a fresh detector, 1 thread, no
    // cache.
    let reference = trained
        .clone()
        .with_threads(1)
        .scan_layout(&bench.layout, layer, &ScanConfig::default())
        .map_err(|e| format!("reference scan: {e}"))?;
    let ref_digest = reference.digest();
    info.push(format!(
        "reference scan: {} tiles, {} clips, {} flagged, {} reclaimed, {} reported",
        reference.tiles_total,
        reference.clips_extracted,
        reference.clips_flagged,
        reference.feedback_reclaimed,
        reference.reported.len()
    ));
    let (hit_rate, extras) = quality(&mut info, bench, &reference);

    // Each phase of the op is one lap, so the host is probed between them.
    let op = || {
        let mut sw = clock.start();
        let result = (|| -> Result<ScanReport, String> {
            let detector = sw
                .lap(|| {
                    serde_json::from_slice::<HotspotDetector>(&model_bytes)
                        .map(|d| d.with_threads(threads))
                })
                .map_err(|e| format!("model decode: {e}"))?;
            let layout = sw
                .lap(|| gdsii::read_bytes(&gds_bytes))
                .map_err(|e| format!("gdsii: {e}"))?;
            let report = sw
                .lap(|| detector.scan_layout(&layout, layer, &ScanConfig::default()))
                .map_err(|e| format!("scan: {e}"))?;
            black_box(sw.lap(|| encode(&report.reported))?);
            Ok(report)
        })();
        let (wall, norm_ms) = sw.finish();
        match result {
            Ok(report) => OpResult {
                wall,
                norm_ms,
                items: report.clips_extracted,
                failure: check_scan(&report, &ref_digest),
            },
            Err(e) => OpResult {
                wall,
                norm_ms,
                items: 0,
                failure: Some(e),
            },
        }
    };
    let timed = timed_ops(args.seconds, op);
    per_op_info(&mut info, &timed, "clips", &clock);

    let mut attempted = timed.attempted;
    let mut failed = timed.failed;
    let metrics = if !args.trace {
        end_to_end(setup_s, &timed)
    } else {
        let mut tr = Tracer::new();
        tr.set_op(attempted as u32);
        let probe_before = clock.probe();
        let op_span = tr.enter("op");
        let (detector, decode_peak_mb) = sys::heap_peak_mb(|| {
            tr.span("json.model_decode", || {
                serde_json::from_slice::<HotspotDetector>(&model_bytes)
            })
        });
        let detector = detector.map_err(|e| format!("model decode: {e}"))?;
        let detector = detector.with_threads(threads);
        tr.span("detector.compile", || {
            black_box(detector.eval_engine());
        });
        let (layout, gdsii_peak_mb) =
            sys::heap_peak_mb(|| tr.span("gdsii.decode", || gdsii::read_bytes(&gds_bytes)));
        let layout = layout.map_err(|e| format!("gdsii: {e}"))?;
        let scan_span = tr.enter("scan");
        let (report, scan_peak_mb) =
            sys::heap_peak_mb(|| detector.scan_layout(&layout, layer, &ScanConfig::default()));
        tr.exit(scan_span);
        let report = report.map_err(|e| format!("scan: {e}"))?;
        let report_bytes = tr
            .span("json.report_encode", || encode(&report.reported))
            .map_err(|e| format!("report encode: {e}"))?;
        tr.exit(op_span);
        let probe_after = clock.probe();
        black_box(report_bytes);
        attempted += 1;
        if let Some(why) = check_scan(&report, &ref_digest) {
            failed += 1;
            info.push(format!("failed traced op: {why}"));
        }

        // Untimed: a real scan that records every tile's outcome in a tile
        // cache, for the replay to be checked against tile by tile.
        let fidelity_cache = work.path("fidelity.cache");
        let fidelity_scan = ScanConfig {
            cache: Some(fidelity_cache.clone()),
            ..Default::default()
        };
        let fidelity = detector
            .scan_layout(&layout, layer, &fidelity_scan)
            .map_err(|e| format!("fidelity scan: {e}"))?;
        if fidelity.digest() != report.digest() {
            return Err("a cached scan differs from the uncached scan".into());
        }
        let compiled = Compiled::of(&detector);
        tr.reopen(scan_span);
        let replay = replay_scan(
            &mut tr,
            &detector,
            &compiled,
            &layout,
            layer,
            &ScanConfig::default(),
        );
        tr.close_reopened(scan_span);
        check_replay(&replay?, &report, &detector, layer, &fidelity_cache)?;

        let fold = finish_trace(&tr, &[op_span], &args.spans)?;
        let mut m = per_layer(&tr, &fold)?;
        scan_engine_metrics(
            &mut m,
            &tr,
            &[(scan_span, &report)],
            threads,
            detector.kernels().len(),
        );
        m.insert(
            "json.model_decode_mb_per_s",
            mb_per_s(model_bytes.len(), m["json.model_decode_ms"]),
        );
        m.insert(
            "gdsii.decode_mb_per_s",
            mb_per_s(gds_bytes.len(), m["gdsii.decode_ms"]),
        );
        m.insert("json.decode_peak_mb", decode_peak_mb);
        m.insert("gdsii.decode_peak_mb", gdsii_peak_mb);
        m.insert("scan.peak_heap_mb", scan_peak_mb);
        m.insert(
            "trace.overhead_ms",
            host::normalise(m["op.ms"], probe_before, probe_after) - timed.wall_ms_p50(),
        );
        m.insert("score.hit_rate", hit_rate);
        m.insert("score.extras", extras);
        info.push("replay: reproduces scan_layout exactly".into());
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info,
    })
}

/// Edits `rescan-edit` cycles through, one rect at the centre of a tile each.
const EDITS: usize = 8;

/// `EDITS` edit rects at the centres of different tiles spread over the
/// scan grid.
fn edit_rects(
    layout: &Layout,
    layer: LayerId,
    detector: &HotspotDetector,
) -> Result<Vec<Rect>, String> {
    let shape = detector.config().clip_shape;
    let spec = TileSpec::new(
        shape.core_side() * ScanConfig::default().tile_cores as i64,
        shape.ambit() + shape.core_side(),
    )
    .map_err(|e| e.to_string())?;
    let scanner = TileScanner::new(layout, layer, spec);
    let grid = scanner.grid();
    let n = grid.tile_count() as i64;
    if n < EDITS as i64 {
        return Err(format!("rescan-edit needs at least {EDITS} tiles"));
    }
    let cols = grid.cols();
    let rect_in = |id: i64| {
        let region = grid.region(id % cols, id / cols);
        let cx = (region.min().x + region.max().x) / 2;
        let cy = (region.min().y + region.max().y) / 2;
        Rect::from_extents(cx, cy, cx + 300, cy + 300)
    };
    Ok((1..=EDITS as i64)
        .map(|j| rect_in(j * n / (EDITS as i64 + 1)))
        .collect())
}

fn run_rescan(args: &Args, bench: &Benchmark, work: &WorkDir) -> Result<Outcome, String> {
    let threads = args.workload.threads();
    let layer = bench.layer;
    let mut info = Vec::new();
    let scan = ScanConfig {
        cache: Some(work.path("tiles.cache")),
        journal: Some(work.path("scan.journal")),
        ..Default::default()
    };

    let mut clock = HostClock::new();
    let (setup_s, (detector, cold)) = setups(&mut clock, || {
        if let Some(cache) = &scan.cache {
            let _ = std::fs::remove_file(cache);
        }
        let detector = train(&bench.training, threads)?;
        black_box(encode(&detector)?);
        black_box(gdsii::write_bytes(&bench.layout).map_err(|e| format!("gdsii: {e}"))?);
        let cold = detector
            .scan_layout(&bench.layout, layer, &scan)
            .map_err(|e| format!("cold scan: {e}"))?;
        Ok((detector, cold))
    })?;
    info.push(format!(
        "inputs: {} kernels; cold scan {} tiles, {} clips, {} reported",
        detector.kernels().len(),
        cold.tiles_total,
        cold.clips_extracted,
        cold.reported.len()
    ));
    let (hit_rate, extras) = quality(&mut info, bench, &cold);

    // The edited layouts are built once, outside the timed ops.
    let edited: Vec<Layout> = edit_rects(&bench.layout, layer, &detector)?
        .into_iter()
        .map(|rect| {
            let mut layout = bench.layout.clone();
            layout.add_rect(layer, rect);
            layout
        })
        .collect();
    let mut ref_digests = Vec::new();
    for layout in &edited {
        let reference = detector
            .clone()
            .with_threads(1)
            .scan_layout(layout, layer, &ScanConfig::default())
            .map_err(|e| format!("reference scan: {e}"))?;
        ref_digests.push(reference.digest());
    }

    // One op is one editing cycle: each of the edits in turn, rescanned
    // through the cache and journal, its report encoded. A cycle's cost
    // does not depend on where in the cycle the timed window starts. Each
    // edit is one lap, so the host is probed between them.
    let op = || {
        let mut sw = clock.start();
        let mut reports = Vec::with_capacity(EDITS);
        let mut failure = None;
        for layout in &edited {
            let result = sw.lap(|| {
                detector
                    .scan_layout(layout, layer, &scan)
                    .map_err(|err| format!("scan: {err}"))
                    .and_then(|report| {
                        black_box(encode(&report.reported)?);
                        Ok(report)
                    })
            });
            match result {
                Ok(report) => reports.push(report),
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        let (wall, norm_ms) = sw.finish();
        for (report, reference) in reports.iter().zip(&ref_digests) {
            if failure.is_none() {
                failure = check_scan(report, reference);
            }
        }
        OpResult {
            wall,
            norm_ms,
            items: reports.iter().map(|r| r.clips_extracted).sum(),
            failure,
        }
    };
    let timed = timed_ops(args.seconds, op);
    per_op_info(&mut info, &timed, "clips", &clock);

    let mut attempted = timed.attempted;
    let mut failed = timed.failed;
    let metrics = if !args.trace {
        end_to_end(setup_s, &timed)
    } else {
        let cache_path = scan.cache.clone().ok_or("rescan-edit scans with a cache")?;
        let copy = |to: &Path| {
            std::fs::copy(&cache_path, to)
                .map(|_| ())
                .map_err(|e| format!("{}: {e}", cache_path.display()))
        };
        // The traced cycle: one root span per edit. Between them, untimed,
        // the cache is copied as it stood before and after each scan, so
        // each scan's replay starts from the same cache and is checked
        // against what the real scan wrote.
        let mut tr = Tracer::new();
        tr.set_op(attempted as u32);
        let probe_before = clock.probe();
        let mut roots = Vec::new();
        let mut steps = Vec::new();
        let mut scan_peak_mb: f64 = 0.0;
        for (e, (layout, reference)) in edited.iter().zip(&ref_digests).enumerate() {
            let before = work.path(&format!("before-{e}.cache"));
            let after = work.path(&format!("after-{e}.cache"));
            copy(&before)?;
            let root = tr.enter("op");
            let scan_span = tr.enter("scan");
            let (report, peak_mb) =
                sys::heap_peak_mb(|| detector.scan_layout(layout, layer, &scan));
            tr.exit(scan_span);
            scan_peak_mb = scan_peak_mb.max(peak_mb);
            let report = report.map_err(|err| format!("scan: {err}"))?;
            let report_bytes = tr
                .span("json.report_encode", || encode(&report.reported))
                .map_err(|err| format!("report encode: {err}"))?;
            tr.exit(root);
            black_box(report_bytes);
            copy(&after)?;
            if let Some(why) = check_scan(&report, reference) {
                failed += 1;
                info.push(format!("failed traced op: {why}"));
            }
            roots.push(root);
            steps.push((scan_span, layout, report, before, after));
        }
        let probe_after = clock.probe();
        attempted += 1;

        let replay_journal = work.path("replay.journal");
        let compiled = Compiled::of(&detector);
        for (scan_span, layout, report, before, after) in &steps {
            let replay_config = ScanConfig {
                cache: Some(before.clone()),
                journal: Some(replay_journal.clone()),
                ..Default::default()
            };
            tr.reopen(*scan_span);
            let replay = replay_scan(&mut tr, &detector, &compiled, layout, layer, &replay_config);
            tr.close_reopened(*scan_span);
            check_replay(&replay?, report, &detector, layer, after)?;
        }

        let fold = finish_trace(&tr, &roots, &args.spans)?;
        let mut m = per_layer(&tr, &fold)?;
        let scans: Vec<(usize, &ScanReport)> = steps.iter().map(|s| (s.0, &s.2)).collect();
        scan_engine_metrics(&mut m, &tr, &scans, threads, detector.kernels().len());
        let last = steps.last().ok_or("no edits")?;
        m.insert("tile_cache.bytes", file_len(&last.3) as f64);
        m.insert("journal.bytes", file_len(&replay_journal) as f64);
        m.insert("scan.peak_heap_mb", scan_peak_mb);
        m.insert(
            "trace.overhead_ms",
            host::normalise(m["op.ms"], probe_before, probe_after) - timed.wall_ms_p50(),
        );
        m.insert("score.hit_rate", hit_rate);
        m.insert("score.extras", extras);
        info.push("replay: reproduces scan_layout exactly".into());
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info,
    })
}

/// The deterministic content of a trained model: kernels, feedback kernel
/// and config (the training summary holds wall times and is left out).
fn model_digest(detector: &HotspotDetector) -> Result<String, String> {
    Ok(format!(
        "{}\n{}\n{}",
        serde_json::to_string(&detector.kernels().to_vec()).map_err(|e| e.to_string())?,
        serde_json::to_string(&detector.feedback().cloned()).map_err(|e| e.to_string())?,
        serde_json::to_string(detector.config()).map_err(|e| e.to_string())?,
    ))
}

fn run_train(args: &Args, bench: &Benchmark) -> Result<Outcome, String> {
    let threads = args.workload.threads();
    let mut info = Vec::new();
    let patterns = bench.training.hotspots.len() + bench.training.nonhotspots.len();

    let mut clock = HostClock::new();
    let (setup_s, (reference, training_bytes)) = setups(&mut clock, || {
        let bytes = encode(&bench.training)?;
        let detector = train(&bench.training, threads)?;
        black_box(encode(&detector)?);
        Ok((detector, bytes))
    })?;
    let ref_digest = model_digest(&reference)?;
    info.push(format!(
        "inputs: {} hotspot and {} nonhotspot training patterns (ratio {:.1}), training JSON {} bytes; reference model {} kernels",
        bench.training.hotspots.len(),
        bench.training.nonhotspots.len(),
        ratio(
            bench.training.nonhotspots.len() as f64,
            bench.training.hotspots.len() as f64
        ),
        training_bytes.len(),
        reference.kernels().len()
    ));
    let scored = reference
        .scan_layout(&bench.layout, bench.layer, &ScanConfig::default())
        .map_err(|e| format!("scoring scan: {e}"))?;
    let (hit_rate, extras) = quality(&mut info, bench, &scored);

    let mut first_model: Option<Vec<u8>> = None;
    // Each phase of the op is one lap, so the host is probed between them.
    let op = || {
        let mut sw = clock.start();
        let result = (|| -> Result<(HotspotDetector, Vec<u8>), String> {
            let training: TrainingSet = sw
                .lap(|| serde_json::from_slice(&training_bytes))
                .map_err(|e| format!("training decode: {e}"))?;
            let detector = sw.lap(|| train(&training, threads))?;
            let bytes = sw.lap(|| encode(&detector))?;
            Ok((detector, bytes))
        })();
        let (wall, norm_ms) = sw.finish();
        match result {
            Ok((detector, bytes)) => {
                let failure = match model_digest(&detector) {
                    Ok(d) if d == ref_digest => None,
                    Ok(_) => Some("trained model differs from the reference model".into()),
                    Err(e) => Some(e),
                };
                if first_model.is_none() {
                    first_model = Some(bytes);
                }
                OpResult {
                    wall,
                    norm_ms,
                    items: patterns,
                    failure,
                }
            }
            Err(e) => OpResult {
                wall,
                norm_ms,
                items: 0,
                failure: Some(e),
            },
        }
    };
    let mut timed = timed_ops(args.seconds, op);
    // Untimed: the encoded model decodes back and re-encodes to identical
    // bytes (checked once per run; every op's model content equals the
    // reference's).
    if let Some(bytes) = &first_model {
        let round_trip = serde_json::from_slice::<HotspotDetector>(bytes)
            .map_err(|e| e.to_string())
            .and_then(|d| encode(&d));
        if round_trip.as_deref() != Ok(bytes.as_slice()) {
            timed.failed += 1;
            timed
                .failures
                .push("model does not re-encode to identical bytes".into());
        }
    }
    per_op_info(&mut info, &timed, "training patterns", &clock);
    info.push(format!(
        "patterns_per_s = {} 1/s (median over ops of training patterns per second of host-normalised op wall time)",
        timed.items_per_s()
    ));

    let mut attempted = timed.attempted;
    let mut failed = timed.failed;
    let metrics = if !args.trace {
        end_to_end(setup_s, &timed)
    } else {
        let mut tr = Tracer::new();
        tr.set_op(attempted as u32);
        let probe_before = clock.probe();
        let op_span = tr.enter("op");
        let (training, decode_peak_mb) = sys::heap_peak_mb(|| {
            tr.span("json.training_decode", || {
                serde_json::from_slice::<TrainingSet>(&training_bytes)
            })
        });
        let training = training.map_err(|e| format!("training decode: {e}"))?;
        let config = detector_config(threads)?;
        let train_span = tr.enter("train");
        let (detector, train_peak_mb) =
            sys::heap_peak_mb(|| HotspotDetector::train(&training, config.clone()));
        tr.exit(train_span);
        let detector = detector.map_err(|e| format!("train: {e}"))?;
        let model_bytes = tr.span("json.model_encode", || encode(&detector))?;
        tr.exit(op_span);
        let probe_after = clock.probe();
        black_box(model_bytes);
        attempted += 1;
        if model_digest(&detector)? != ref_digest {
            failed += 1;
            info.push("failed traced op: trained model differs from the reference model".into());
        }

        tr.reopen(train_span);
        let replayed = replay_train(&mut tr, &training, &config);
        tr.close_reopened(train_span);
        let (kernels, feedback) = replayed?;
        let same = encode(&kernels)? == encode(&detector.kernels().to_vec())?
            && encode(&feedback)? == encode(&detector.feedback().cloned())?;
        if !same {
            return Err("training replay does not match HotspotDetector::train".into());
        }

        let fold = finish_trace(&tr, &[op_span], &args.spans)?;
        let mut m = per_layer(&tr, &fold)?;
        m.insert("train.ms", tr.duration_ns(train_span) as f64 / 1e6);
        m.insert("json.decode_peak_mb", decode_peak_mb);
        m.insert("train.peak_heap_mb", train_peak_mb);
        m.insert(
            "json.training_decode_mb_per_s",
            mb_per_s(training_bytes.len(), m["json.training_decode_ms"]),
        );
        m.insert(
            "trace.overhead_ms",
            host::normalise(m["op.ms"], probe_before, probe_after) - timed.wall_ms_p50(),
        );
        m.insert("score.hit_rate", hit_rate);
        m.insert("score.extras", extras);
        info.push("replay: reproduces HotspotDetector::train exactly".into());
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info,
    })
}

/// Generates the run's inputs. The `train` workload's training set comes
/// from `seed`. The scan workloads scan a layout generated from `seed` with
/// a model trained on the benchmark's Table-I training set, so the model
/// (and with it the kernel count, the model bytes and the false-alarm
/// rate) is the same on every seed and only the scanned layout varies.
fn generate(workload: Workload, scale: SuiteScale, seed: Option<u64>) -> Result<Benchmark, String> {
    let spec = iccad_suite(scale)
        .into_iter()
        .find(|s| s.name == workload.benchmark())
        .ok_or("benchmark missing from the suite")?;
    let mut seeded = spec.clone();
    if let Some(seed) = seed {
        seeded.seed = seed;
    }
    if workload == Workload::Train {
        return Ok(Benchmark::generate(seeded));
    }
    // Training set only: the smallest layout the generator accepts.
    let mut training_spec = spec;
    let cell = training_spec.clip_shape.clip_side();
    training_spec.width = 3 * cell;
    training_spec.height = 3 * cell;
    training_spec.test_hotspots = 1;
    // Layout only: no training patterns.
    seeded.train_hotspots = 0;
    seeded.train_nonhotspots = 0;
    let training = Benchmark::generate(training_spec).training;
    let mut bench = Benchmark::generate(seeded);
    bench.training = training;
    Ok(bench)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let scale = args.scale.unwrap_or(workload.scale());
    let t = Instant::now();
    let bench = generate(workload, scale, args.seed)?;
    let generate_s = t.elapsed().as_secs_f64();
    let work = WorkDir::create(workload)?;
    let mut outcome = match workload {
        Workload::ScanDense | Workload::ScanSparse => run_scan(args, &bench, &work)?,
        Workload::RescanEdit => run_rescan(args, &bench, &work)?,
        Workload::Train => run_train(args, &bench)?,
    };
    if args.trace {
        check_rows(&outcome.metrics)?;
    }
    outcome.info.insert(
        0,
        format!(
            "workload {:?}: {} at {:?} scale, {} thread(s), seed {}; inputs generated in {generate_s:.3} s",
            workload,
            workload.benchmark(),
            scale,
            workload.threads(),
            bench.spec.seed,
        ),
    );
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(1);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for line in &outcome.info {
        println!("{line}");
    }
    let mut json = String::new();
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("layerbench: metric {name} has no finite value");
            return ExitCode::from(1);
        }
        println!("{name} = {value} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}
