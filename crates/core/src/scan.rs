//! Streaming full-layout scan with density prefiltering (§IV-E) and
//! fault tolerance.
//!
//! [`HotspotDetector::detect`] materialises every candidate clip of the
//! layout before classifying — fine for benchmark clips, prohibitive for a
//! production-scale layout. [`HotspotDetector::scan_layout`] instead walks
//! the layout as overlapping tiles (a
//! [`TileScanner`]), discards tiles
//! whose pattern density cannot pass the extraction filter (the *density
//! prefilter*, a new [`StageId::DensityPrefilter`] pipeline stage), and
//! fans the surviving tiles over the work-stealing executor while holding
//! at most [`ScanConfig::max_in_flight`] tiles in memory at once.
//!
//! The default prefilter is **conservative**: a tile is skipped only when
//! the summed pattern area overlapping its window is below
//! `min_core_density × core_area`, an upper bound on the core density of
//! every clip the tile owns — so the scan reports *exactly* the hotspot
//! set of [`HotspotDetector::detect`] (see `tests/scan.rs`). Setting
//! [`ScanConfig::tile_density`] adds an aggressive mean-coverage cut that
//! trades recall for speed, as the paper's density filter does.
//!
//! # Fault tolerance
//!
//! A production scan runs for hours, so the scan is the pipeline's
//! fault-tolerance boundary:
//!
//! - tile tasks run under the executor's panic isolation — a panicking
//!   tile is retried once on the caller thread, then handled per
//!   [`ScanConfig::failure_policy`]: [`FailurePolicy::Abort`] surfaces a
//!   typed [`DetectError::TaskPanicked`], while
//!   [`FailurePolicy::SkipAndRecord`] quarantines the tile into
//!   [`ScanReport::failed_tiles`] and scans on;
//! - [`ScanConfig::journal`] appends every completed tile to a durable
//!   checkpoint journal ([`crate::journal`]), and
//!   [`ScanConfig::resume_from`] replays it so a killed scan restarts
//!   where it left off, with a report whose deterministic content
//!   ([`ScanReport::digest`]) is bit-identical to an uninterrupted run;
//! - [`ScanConfig::fault_plan`] arms the deterministic fault-injection
//!   harness that proves all of the above under test.
//!
//! # Deadlines and cooperative cancellation
//!
//! Long scans can also be *stopped* without losing their progress:
//!
//! - [`ScanConfig::deadline`] bounds the scan's wall-clock budget — when
//!   it expires, the scan stops admitting tiles at the next batch
//!   boundary, drains the in-flight window, syncs the journal and cache,
//!   and returns a partial report marked
//!   [`ScanReport::aborted`](ScanReport::aborted) with
//!   [`AbortReason::DeadlineExceeded`];
//! - [`ScanConfig::cancel`] is an external [`CancelToken`] (the CLI's
//!   SIGINT handler trips it) that aborts the same way with
//!   [`AbortReason::Interrupted`];
//! - [`ScanConfig::tile_timeout`] arms a soft per-tile budget, polled
//!   cooperatively at stage boundaries and per evaluated clip — a tile
//!   that blows it is retried once and then quarantined as
//!   [`FailureKind::TimedOut`], with a deterministic reason so the
//!   quarantine list stays digest-stable across machines.
//!
//! Because the abort points sit at batch boundaries and the journal is
//! fsync'd per batch, an aborted scan's journal contains only whole-tile
//! records; resuming it via [`ScanConfig::resume_from`] completes the scan
//! with a digest bit-identical to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use hotspot_core::{HotspotDetector, Label, Pattern, ScanConfig, TrainingSet};
//! use hotspot_geom::{Point, Rect};
//! use hotspot_layout::{ClipShape, LayerId, Layout};
//!
//! // A toy training set: narrow-gap bar pairs are hotspots.
//! let clip = |gap: i64| {
//!     let window = ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0));
//!     let rects = [
//!         Rect::from_extents(0, 0, 300, 300),
//!         Rect::from_extents(300 + gap, 0, 600 + gap, 300),
//!     ];
//!     Pattern::new(window, &rects)
//! };
//! let mut training = TrainingSet::new();
//! for i in 0..4 {
//!     training.push(clip(60 + 10 * i), Label::Hotspot);
//! }
//! for i in 0..8 {
//!     training.push(clip(480 + 10 * i), Label::NonHotspot);
//! }
//! let config = HotspotDetector::builder()
//!     .threads(2)
//!     .max_learning_rounds(2)
//!     .distribution(hotspot_core::DistributionFilter {
//!         min_core_density: 0.001,
//!         min_polygon_count: 1,
//!         max_boundary_bbox_distance: 4800,
//!     })
//!     .build()?;
//! let detector = HotspotDetector::train(&training, config)?;
//!
//! // Plant the hotspot motif in a layout and stream-scan it.
//! let mut layout = Layout::new("chip");
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(20_000, 20_000, 20_300, 20_300));
//! layout.add_rect(LayerId::METAL1, Rect::from_extents(20_370, 20_000, 20_670, 20_300));
//! let scan = ScanConfig { tile_cores: 4, max_in_flight: 2, ..Default::default() };
//! let report = detector.scan_layout(&layout, LayerId::METAL1, &scan)?;
//!
//! // Identical hotspot set to whole-layout detection, bounded memory.
//! let whole = detector.detect(&layout, LayerId::METAL1)?;
//! assert_eq!(report.reported, whole.reported);
//! assert!(report.peak_in_flight <= 2);
//! # Ok::<(), hotspot_core::DetectError>(())
//! ```

use crate::cancel::{AbortReason, CancelPanic, CancelToken, TimeoutPanic};
use crate::config::DetectorConfig;
use crate::detector::{DetectError, HotspotDetector};
use crate::engine::executor::panic_payload_to_string;
use crate::engine::{
    Executor, ExecutorStats, FaultPlan, FaultSite, PipelineTelemetry, StageId, StageRecorder,
    TaskFailure, TaskResult,
};
use crate::extraction::{passes_filter, split_oversized_into, RectIndex};
use crate::feedback::EvalScratch;
use crate::journal::{read_journal, JournalHeader, JournalWriter, TileOutcomeRecord, TileRecord};
use crate::obs::{Counter, ObsEvent, ObsHub};
use crate::pattern::Pattern;
use crate::removal::remove_redundant_clips;
use crate::tile_cache::{self, CacheHeader, TileCache};
use hotspot_geom::{AreaTable, RasterMode};
use hotspot_geom::{Point, Rect};
use hotspot_layout::scan::{Tile, TileScanner, TileSpec};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Subtile pitch of the Sat rasteriser's per-tile [`hotspot_geom::AreaTableGrid`], in
/// core sides. Table build cost is quadratic in the rects per subtile, so
/// a pitch of a few cores keeps boundary crossings local while the padded
/// windows (one core side of +x/+y padding) stay small relative to the
/// pitch. Public so the benchmark's rasterisation micro-phase measures
/// exactly the production decomposition.
pub const RASTER_SUBTILE_CORES: i64 = 4;

/// What a scan does when a tile task fails (panics on both attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailurePolicy {
    /// Fail the scan with [`DetectError::TaskPanicked`] on the first tile
    /// whose retry also fails (the default — no silent data loss).
    #[default]
    Abort,
    /// Quarantine the failed tile into [`ScanReport::failed_tiles`] and
    /// keep scanning — degraded mode for long production runs.
    SkipAndRecord {
        /// Fail the scan with [`DetectError::TooManyFailures`] once more
        /// than this many tiles are quarantined.
        max_failed_tiles: usize,
    },
}

/// How a quarantined tile failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailureKind {
    /// Both attempts panicked — the only kind before soft budgets existed,
    /// and the serde default so older reports deserialise unchanged.
    #[default]
    Panicked,
    /// Both attempts exceeded the soft per-tile budget
    /// ([`ScanConfig::tile_timeout`]).
    TimedOut,
}

/// A tile that failed both attempts and was skipped under
/// [`FailurePolicy::SkipAndRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedTile {
    /// Stable tile id (`iy × grid_cols + ix`), thread-count-invariant.
    pub tile: usize,
    /// Whether the tile panicked or blew its soft time budget. Content,
    /// not provenance — included in the digest. Absent in pre-timeout
    /// reports, which deserialise as [`FailureKind::Panicked`].
    #[serde(default)]
    pub kind: FailureKind,
    /// The panic payload of the failing attempt (for
    /// [`FailureKind::TimedOut`], a deterministic budget message that
    /// never includes measured wall time).
    pub reason: String,
}

/// Configuration of a streaming layout scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Tile region side length in core sides (the tile stride is
    /// `tile_cores × core_side`). Must be at least 1.
    pub tile_cores: usize,
    /// Maximum tiles held in flight at once — the scan's memory bound.
    /// `0` resolves to twice the worker-thread count.
    pub max_in_flight: usize,
    /// Optional aggressive prefilter: skip tiles whose mean pattern
    /// coverage (overlapping pattern area / tile window area) is below this
    /// fraction. Unlike the default conservative prefilter this may drop
    /// true hotspots; `None` keeps the scan exactly equivalent to
    /// [`HotspotDetector::detect`].
    pub tile_density: Option<f64>,
    /// What to do when a tile fails both its attempt and its retry.
    #[serde(default)]
    pub failure_policy: FailurePolicy,
    /// Checkpoint journal to append completed tiles to (fsync'd once per
    /// in-flight batch). `None` disables journaling.
    #[serde(default)]
    pub journal: Option<PathBuf>,
    /// Journal of an earlier (killed) scan to resume from: its completed
    /// tiles are replayed instead of recomputed. Usually the same path as
    /// [`journal`](Self::journal), so the resumed scan keeps appending to
    /// the same file.
    #[serde(default)]
    pub resume_from: Option<PathBuf>,
    /// Deterministic fault-injection plan, for the fault-tolerance tests
    /// and the CI smoke. The default (empty) plan injects nothing and
    /// costs nothing.
    #[serde(default)]
    pub fault_plan: FaultPlan,
    /// Content-addressed tile result cache ([`crate::tile_cache`]): tiles
    /// whose content fingerprint matches a stored entry replay their cached
    /// outcome instead of recomputing, and the store is rewritten with this
    /// scan's results on completion. `None` disables caching.
    #[serde(default)]
    pub cache: Option<PathBuf>,
    /// Paranoid cache mode: hits are *also* recomputed and the stored
    /// outcome is asserted byte-equal to the fresh one — any disagreement
    /// fails the scan with [`DetectError::Cache`]. Costs a full recompute;
    /// for debugging and CI only.
    #[serde(default)]
    pub cache_verify: bool,
    /// Global wall-clock budget. When it expires the scan stops admitting
    /// tiles at the next batch boundary, drains the in-flight window,
    /// syncs the journal and cache, and returns a partial report marked
    /// [`ScanReport::aborted`] with [`AbortReason::DeadlineExceeded`] —
    /// resumable via [`resume_from`](Self::resume_from). `None` (the
    /// default) scans to completion. A zero deadline is valid and aborts
    /// before the first batch.
    #[serde(default)]
    pub deadline: Option<Duration>,
    /// Soft per-tile wall-clock budget, polled cooperatively at every
    /// stage boundary and per evaluated clip. A tile that blows it panics
    /// with a deterministic timeout marker, is retried once like any other
    /// failure, and is then handled per
    /// [`failure_policy`](Self::failure_policy) as
    /// [`FailureKind::TimedOut`]. `None` disables the budget; zero is
    /// rejected by [`validate`](Self::validate).
    #[serde(default)]
    pub tile_timeout: Option<Duration>,
    /// External cooperative stop: when this token is cancelled (the CLI's
    /// SIGINT handler trips it) the scan aborts at the next batch boundary
    /// with [`AbortReason::Interrupted`]. Never serialised — deserialised
    /// configs carry no token.
    #[serde(skip)]
    pub cancel: Option<CancelToken>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            tile_cores: 16,
            max_in_flight: 0,
            tile_density: None,
            failure_policy: FailurePolicy::Abort,
            journal: None,
            resume_from: None,
            fault_plan: FaultPlan::default(),
            cache: None,
            cache_verify: false,
            deadline: None,
            tile_timeout: None,
            cancel: None,
        }
    }
}

impl ScanConfig {
    /// Validates the scan settings.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_cores == 0 {
            return Err("tile_cores must be at least 1".into());
        }
        if let Some(d) = self.tile_density {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!("tile_density must be positive and finite, got {d}"));
            }
        }
        if self.cache_verify && self.cache.is_none() {
            return Err("cache_verify requires a cache path".into());
        }
        if self.tile_timeout.is_some_and(|t| t.is_zero()) {
            return Err("tile_timeout must be positive when set".into());
        }
        self.fault_plan.validate()
    }

    /// The in-flight window after resolving `0` against `threads`.
    pub fn effective_in_flight(&self, threads: usize) -> usize {
        if self.max_in_flight == 0 {
            (threads * 2).max(1)
        } else {
            self.max_in_flight
        }
    }
}

/// Outcome of a streaming layout scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanReport {
    /// The reported hotspot clips (after removal, when enabled) — the same
    /// set [`HotspotDetector::detect`] reports when the aggressive
    /// [`ScanConfig::tile_density`] cut is off.
    pub reported: Vec<ClipWindow>,
    /// Tiles in the scan grid, including empty ones.
    pub tiles_total: usize,
    /// Non-empty tiles examined.
    pub tiles_scanned: usize,
    /// Tiles discarded by the density prefilter.
    pub tiles_prefiltered: usize,
    /// Candidate clips extracted from surviving tiles.
    pub clips_extracted: usize,
    /// Clips flagged hotspot by the multiple kernels.
    pub clips_flagged: usize,
    /// Flags reclaimed to nonhotspot by the feedback kernel.
    pub feedback_reclaimed: usize,
    /// Clip batches scheduled through the batched SVM inference engine —
    /// one per tile that evaluated at least one clip. Absent in
    /// pre-batching reports, which deserialise with 0.
    #[serde(default)]
    pub eval_batches: usize,
    /// Tiles quarantined under [`FailurePolicy::SkipAndRecord`] — both
    /// attempts panicked. Empty on a healthy scan (and in pre-v4 reports,
    /// which deserialise empty).
    #[serde(default)]
    pub failed_tiles: Vec<QuarantinedTile>,
    /// Failed tile tasks that were re-attempted once before quarantine.
    /// Absent in pre-v4 reports, which deserialise with 0.
    #[serde(default)]
    pub retries: usize,
    /// Tiles replayed from [`ScanConfig::resume_from`] instead of
    /// recomputed. Absent in pre-v4 reports, which deserialise with 0.
    #[serde(default)]
    pub resumed_tiles: usize,
    /// Tiles replayed from the [`ScanConfig::cache`] by content
    /// fingerprint. Provenance, not content — excluded from the digest.
    /// Absent in pre-cache reports, which deserialise with 0.
    #[serde(default)]
    pub cache_hits: usize,
    /// Tiles the cache could not serve (new, edited, or lost to
    /// corruption) — always 0 when caching is off. Provenance, not
    /// content. Absent in pre-cache reports, which deserialise with 0.
    #[serde(default)]
    pub cache_misses: usize,
    /// Why the scan stopped early — [`ScanConfig::deadline`] expiry or an
    /// external [`ScanConfig::cancel`] trip — or `None` when it ran to
    /// completion. Provenance, not content: excluded from the digest, so
    /// an aborted scan resumed to completion digests identically to an
    /// uninterrupted run. Absent in pre-deadline reports, which
    /// deserialise as `None`.
    #[serde(default)]
    pub aborted: Option<AbortReason>,
    /// Most tiles simultaneously in flight — never exceeds the configured
    /// window ([`ScanConfig::effective_in_flight`]).
    pub peak_in_flight: usize,
    /// Per-stage telemetry of the scan (phase `"scan"`). Stage wall times
    /// are summed across workers, so they can exceed the phase wall time.
    pub telemetry: PipelineTelemetry,
    /// Total wall-clock time of the scan.
    #[serde(skip)]
    pub scan_time: Duration,
}

impl ScanReport {
    /// Clips classified per second of scan wall time.
    pub fn clips_per_second(&self) -> f64 {
        let secs = self.scan_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.clips_extracted as f64 / secs
    }

    /// Canonical JSON digest of the report's *deterministic* content: the
    /// reported clips, every tile/clip/flag count, and the quarantine
    /// list. Wall-clock and scheduling artefacts (telemetry, scan time,
    /// `peak_in_flight`), the resume/retry/cache provenance counters, and
    /// the [`aborted`](Self::aborted) marker are excluded — so a
    /// killed-and-resumed scan and a warm cached re-scan both digest
    /// byte-identically to an uninterrupted cold run, which
    /// `tests/fault_tolerance.rs`, `tests/deadlines.rs`, and
    /// `tests/tile_cache.rs` pin.
    pub fn digest(&self) -> String {
        #[derive(Serialize)]
        struct Digest {
            reported: Vec<ClipWindow>,
            tiles_total: usize,
            tiles_scanned: usize,
            tiles_prefiltered: usize,
            clips_extracted: usize,
            clips_flagged: usize,
            feedback_reclaimed: usize,
            eval_batches: usize,
            failed_tiles: Vec<QuarantinedTile>,
        }
        serde_json::to_string(&Digest {
            reported: self.reported.clone(),
            tiles_total: self.tiles_total,
            tiles_scanned: self.tiles_scanned,
            tiles_prefiltered: self.tiles_prefiltered,
            clips_extracted: self.clips_extracted,
            clips_flagged: self.clips_flagged,
            feedback_reclaimed: self.feedback_reclaimed,
            eval_batches: self.eval_batches,
            failed_tiles: self.failed_tiles.clone(),
        })
        .expect("scan digest serialises")
    }
}

/// Everything one tile contributes, gathered on a worker thread.
struct TileOutcome {
    prefiltered: bool,
    clips: usize,
    flagged: usize,
    reclaimed: usize,
    flagged_cores: Vec<Rect>,
    /// Clip-kernel pairs admitted to SVM evaluation on this tile.
    admissions: u64,
    /// Centroid-orientation rows the admission router pruned on this tile.
    admission_skips: u64,
    prefilter_time: Duration,
    extract_time: Duration,
    eval_time: Duration,
}

impl TileOutcome {
    /// The canonical journal record of this outcome (wall times are
    /// provenance, not content, and are not journaled).
    fn to_record(&self) -> TileOutcomeRecord {
        if self.prefiltered {
            TileOutcomeRecord::Prefiltered
        } else {
            TileOutcomeRecord::Evaluated {
                clips: self.clips,
                flagged: self.flagged,
                reclaimed: self.reclaimed,
                flagged_cores: self.flagged_cores.clone(),
            }
        }
    }

    /// Rebuilds the outcome a journaled tile contributed, with zero wall
    /// time and zero admission counters (the work already happened in the
    /// journaled run; the counters are provenance, not content).
    fn from_record(record: &TileOutcomeRecord) -> TileOutcome {
        let mut outcome = TileOutcome {
            prefiltered: false,
            clips: 0,
            flagged: 0,
            reclaimed: 0,
            flagged_cores: Vec::new(),
            admissions: 0,
            admission_skips: 0,
            prefilter_time: Duration::ZERO,
            extract_time: Duration::ZERO,
            eval_time: Duration::ZERO,
        };
        match record {
            TileOutcomeRecord::Prefiltered => outcome.prefiltered = true,
            TileOutcomeRecord::Evaluated {
                clips,
                flagged,
                reclaimed,
                flagged_cores,
            } => {
                outcome.clips = *clips;
                outcome.flagged = *flagged;
                outcome.reclaimed = *reclaimed;
                outcome.flagged_cores = flagged_cores.clone();
            }
        }
        outcome
    }
}

/// Decrements the in-flight counter on drop, so the count stays balanced
/// even when a tile task unwinds out of an injected panic.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The scan watchdog: a low-duty background thread armed whenever a
/// deadline, a soft tile budget, or an external cancel token is
/// configured. Each tick it forwards the external token and an expired
/// deadline into the scan's internal trip token (one flag stops the
/// executor, the tile bodies, and the admission loop together), refreshes
/// the `hotspot_deadline_remaining_seconds` gauge, and periodically emits
/// an [`ObsEvent::WatchdogTick`] heartbeat. Joined on drop, so it can
/// never outlive the scan that armed it.
struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Tick period: coarse enough to cost nothing, fine enough that an
    /// expired deadline stops tile admission within one batch boundary.
    const TICK: Duration = Duration::from_millis(20);
    /// A heartbeat event is emitted every `HEARTBEAT`-th tick.
    const HEARTBEAT: u32 = 10;

    fn spawn(
        trip: CancelToken,
        external: Option<CancelToken>,
        deadline_at: Option<Instant>,
        in_flight: Arc<AtomicUsize>,
        obs: Option<Arc<ObsHub>>,
    ) -> std::io::Result<Watchdog> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("scan-watchdog".into())
            .spawn(move || {
                let mut ticks = 0u32;
                while !stop_flag.load(Ordering::SeqCst) {
                    if external.as_ref().is_some_and(CancelToken::is_cancelled) {
                        trip.cancel();
                    }
                    let mut remaining_ms = None;
                    if let Some(at) = deadline_at {
                        let now = Instant::now();
                        if now >= at {
                            trip.cancel();
                        }
                        let remaining = at.saturating_duration_since(now).as_millis() as u64;
                        remaining_ms = Some(remaining);
                        if let Some(hub) = &obs {
                            hub.set_deadline_remaining_ms(remaining);
                        }
                    }
                    ticks += 1;
                    if ticks.is_multiple_of(Self::HEARTBEAT) {
                        if let Some(hub) = &obs {
                            hub.emit(|| ObsEvent::WatchdogTick {
                                in_flight: in_flight.load(Ordering::SeqCst) as u64,
                                deadline_remaining_ms: remaining_ms,
                            });
                        }
                    }
                    std::thread::park_timeout(Self::TICK);
                }
            })?;
        Ok(Watchdog {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Per-worker scratch reused across tiles, like [`EvalScratch`] but for
/// the whole of `process_tile`: the split-piece buffer, the anchor-dedup
/// set, the extracted patterns, and the evaluation scratch itself. Buffers
/// grow to their high-water marks once and are cleared — not freed — at
/// the start of every tile, so outcomes never depend on what ran before.
#[derive(Default)]
struct TileScratch {
    eval: EvalScratch,
    pieces: Vec<Rect>,
    seen: HashSet<Point>,
    patterns: Vec<Pattern>,
    /// Clip core windows of the current tile, collected for the
    /// anchor-aware subtile table build.
    windows: Vec<Rect>,
}

thread_local! {
    /// One [`TileScratch`] per worker thread. Thread-local rather than
    /// task-local because the executor closure is shared by every worker;
    /// a panicking tile releases the borrow on unwind, so the sequential
    /// retry reuses the same (cleared) scratch safely.
    static TILE_SCRATCH: RefCell<TileScratch> = RefCell::new(TileScratch::default());
}

impl HotspotDetector {
    /// Streams a full layout through the evaluation pipeline tile by tile
    /// (§IV-E): density prefilter → clip extraction → multiple-kernel
    /// evaluation, with redundant clip removal over the accumulated flags.
    ///
    /// Memory is bounded by the in-flight tile window; results are
    /// deterministic and — with the aggressive cut off — identical to
    /// [`HotspotDetector::detect`] on the same layout. Tile panics are
    /// isolated, retried once, and then handled per
    /// [`ScanConfig::failure_policy`]; see the [module docs](crate::scan)
    /// for the journal/resume machinery.
    ///
    /// # Examples
    ///
    /// Scan a layout with live observability attached — counters stream to
    /// any registered sink, while the report stays bit-identical to an
    /// unobserved run:
    ///
    /// ```
    /// use hotspot_core::{HotspotDetector, Label, ObsHub, Pattern, ScanConfig, TrainingSet};
    /// use hotspot_geom::{Point, Rect};
    /// use hotspot_layout::{ClipShape, LayerId, Layout};
    ///
    /// let clip = |gap: i64| {
    ///     let window = ClipShape::ICCAD2012.window_from_core_corner(Point::new(0, 0));
    ///     let rects = [
    ///         Rect::from_extents(0, 0, 300, 300),
    ///         Rect::from_extents(300 + gap, 0, 600 + gap, 300),
    ///     ];
    ///     Pattern::new(window, &rects)
    /// };
    /// let mut training = TrainingSet::new();
    /// for i in 0..4 {
    ///     training.push(clip(60 + 10 * i), Label::Hotspot);
    /// }
    /// for i in 0..8 {
    ///     training.push(clip(480 + 10 * i), Label::NonHotspot);
    /// }
    /// let config = HotspotDetector::builder().max_learning_rounds(2).build()?;
    /// let hub = ObsHub::new();
    /// let detector = HotspotDetector::train(&training, config)?.with_obs(hub.clone());
    ///
    /// let mut layout = Layout::new("chip");
    /// layout.add_rect(LayerId::METAL1, Rect::from_extents(0, 0, 300, 300));
    /// layout.add_rect(LayerId::METAL1, Rect::from_extents(370, 0, 670, 300));
    /// let report = detector.scan_layout(&layout, LayerId::METAL1, &ScanConfig::default())?;
    ///
    /// let snapshot = hub.snapshot();
    /// assert_eq!(snapshot.clips_extracted, report.clips_extracted as u64);
    /// # Ok::<(), hotspot_core::DetectError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Config`] for invalid scan settings,
    /// [`DetectError::EmptyLayer`] when the layout has no polygons on
    /// `layer`, [`DetectError::Journal`] for journal I/O or fingerprint
    /// mismatches, [`DetectError::TaskPanicked`] under
    /// [`FailurePolicy::Abort`], and [`DetectError::TooManyFailures`] when
    /// the quarantine bound is exceeded.
    pub fn scan_layout(
        &self,
        layout: &Layout,
        layer: LayerId,
        scan: &ScanConfig,
    ) -> Result<ScanReport, DetectError> {
        self.scan_layout_with_threshold(layout, layer, scan, self.config().decision_threshold)
    }

    /// [`scan_layout`](Self::scan_layout) with an explicit decision
    /// threshold (for the Fig. 15 trade-off sweep).
    ///
    /// # Errors
    ///
    /// Same as [`scan_layout`](Self::scan_layout).
    pub fn scan_layout_with_threshold(
        &self,
        layout: &Layout,
        layer: LayerId,
        scan: &ScanConfig,
        threshold: f64,
    ) -> Result<ScanReport, DetectError> {
        scan.validate().map_err(DetectError::Config)?;
        if layout.polygons(layer).is_empty() {
            return Err(DetectError::EmptyLayer(layer));
        }
        let config = self.config();
        let shape = config.clip_shape;
        let threads = config.effective_threads().max(1);
        let window_cap = scan.effective_in_flight(threads);
        let started = Instant::now();
        let mut recorder = StageRecorder::new("scan", threads);

        // The global rectangle index: patterns are built from the same
        // index queries `detect` issues, so clip features are bit-identical
        // between the two paths.
        let index = RectIndex::from_layout(layout, layer, shape.clip_side());
        let spec = TileSpec::new(
            shape.core_side() * scan.tile_cores as i64,
            shape.ambit() + shape.core_side(),
        )
        .map_err(|e| DetectError::Config(e.to_string()))?;
        let mut scanner = TileScanner::from_rects(index.rects().to_vec(), spec);
        let tiles_total = scanner.grid().tile_count();
        let grid_cols = scanner.grid().cols();
        let obs = self.obs();
        if let Some(hub) = obs {
            hub.emit(|| ObsEvent::ScanStarted {
                tiles_total,
                threads,
                window: window_cap,
            });
        }

        // Resume: replay the valid prefix of an earlier journal, and open
        // the journal writer (appending in place when resuming the same
        // file, creating afresh otherwise).
        let header = JournalHeader::new(tiles_total, scan.tile_cores, layer, threshold);
        let mut replayed: HashMap<usize, TileOutcomeRecord> = HashMap::new();
        let mut journal_writer: Option<JournalWriter> = None;
        if let Some(resume_path) = &scan.resume_from {
            let contents = read_journal(resume_path)
                .map_err(|e| DetectError::Journal(format!("{}: {e}", resume_path.display())))?;
            if contents.header != header {
                return Err(DetectError::Journal(format!(
                    "{}: journal belongs to a different scan (grid, layer, or threshold differ)",
                    resume_path.display()
                )));
            }
            if scan.journal.as_deref() == Some(resume_path.as_path()) {
                let writer = JournalWriter::resume(resume_path, contents.valid_len)
                    .map_err(|e| DetectError::Journal(format!("{}: {e}", resume_path.display())))?;
                journal_writer = Some(writer);
            }
            replayed = contents.records;
        }
        if journal_writer.is_none() {
            if let Some(journal_path) = &scan.journal {
                let mut writer = JournalWriter::create(journal_path, &header).map_err(|e| {
                    DetectError::Journal(format!("{}: {e}", journal_path.display()))
                })?;
                // Carry replayed tiles into the fresh journal so it stays a
                // complete record of the scan. Replays bypass injection.
                let mut ids: Vec<usize> = replayed.keys().copied().collect();
                ids.sort_unstable();
                let no_faults = FaultPlan::default();
                for id in ids {
                    let record = TileRecord {
                        tile: id,
                        outcome: replayed[&id].clone(),
                    };
                    writer.append(&record, &no_faults).map_err(|e| {
                        DetectError::Journal(format!("{}: {e}", journal_path.display()))
                    })?;
                }
                writer.sync().map_err(|e| {
                    DetectError::Journal(format!("{}: {e}", journal_path.display()))
                })?;
                journal_writer = Some(writer);
            }
        }

        if let (Some(writer), Some(hub)) = (journal_writer.as_mut(), obs) {
            writer.set_obs(Arc::clone(hub));
        }

        // Content-addressed tile result cache: open (never fails — a
        // corrupt or mismatched store is discarded, not trusted) and look
        // tiles up by content fingerprint as they stream past.
        let mut cache: Option<TileCache> = None;
        if let Some(cache_path) = &scan.cache {
            let cache_header = CacheHeader::new(
                self.model_fingerprint(),
                scan.tile_cores,
                layer,
                threshold,
                scan.tile_density,
            );
            let opened = TileCache::open(cache_path, cache_header);
            if let Some(hub) = obs {
                let stats = opened.load_stats();
                if stats.discarded || stats.rejected > 0 {
                    hub.counters().add(
                        Counter::CacheInvalidated,
                        if stats.discarded {
                            1
                        } else {
                            stats.rejected as u64
                        },
                    );
                    hub.emit(|| ObsEvent::CacheInvalidated {
                        entries: if stats.discarded { 0 } else { stats.loaded },
                        rejected: stats.rejected,
                        discarded: stats.discarded,
                    });
                }
            }
            cache = Some(opened);
        }
        let mut cache_hits_total = 0usize;
        let mut cache_misses_total = 0usize;

        let mut executor = Executor::new(threads);
        if let Some(hub) = obs {
            executor = executor.with_obs(Arc::clone(hub));
        }
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = AtomicUsize::new(0);

        // Cooperative stop machinery. `trip` is the scan's internal token:
        // the executor polls it per task and `process_tile` polls it at
        // stage boundaries. The watchdog forwards the external token and
        // an expired deadline into it, so one flag stops everything; the
        // admission loop below re-derives the *reason* from the sources
        // directly (external cancel wins over the deadline).
        let deadline_at = scan.deadline.and_then(|d| started.checked_add(d));
        let trip = CancelToken::new();
        let mut aborted: Option<AbortReason> = None;
        let watchdog = if deadline_at.is_some()
            || scan.cancel.is_some()
            || scan.tile_timeout.is_some()
        {
            let guard = Watchdog::spawn(
                trip.clone(),
                scan.cancel.clone(),
                deadline_at,
                Arc::clone(&in_flight),
                obs.map(Arc::clone),
            )
            .map_err(|e| DetectError::Internal(format!("failed to spawn scan watchdog: {e}")))?;
            Some(guard)
        } else {
            None
        };

        let mut tiles_scanned = 0usize;
        let mut tiles_prefiltered = 0usize;
        let mut clips_extracted = 0usize;
        let mut clips_flagged = 0usize;
        let mut feedback_reclaimed = 0usize;
        let mut eval_batches = 0usize;
        let mut retries_total = 0usize;
        let mut resumed_total = 0usize;
        let mut failed_tiles: Vec<QuarantinedTile> = Vec::new();
        let mut flagged_cores: Vec<Rect> = Vec::new();

        loop {
            // Abort point: stop admitting tiles at the batch boundary when
            // the external token tripped or the deadline expired. The
            // journal already holds every completed batch (fsync'd below),
            // so everything up to here is resumable.
            if scan.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                aborted = Some(AbortReason::Interrupted);
            } else if deadline_at.is_some_and(|at| Instant::now() >= at) {
                aborted = Some(AbortReason::DeadlineExceeded);
            }
            if aborted.is_some() {
                break;
            }
            // Backpressure: pull at most one window's worth of tiles, fan
            // them out, then drain before pulling more.
            let batch: Vec<Tile> = scanner.by_ref().take(window_cap).collect();
            if batch.is_empty() {
                break;
            }

            // Partition the batch in order: journaled tiles replay, cached
            // tiles replay by content fingerprint, the rest run fresh.
            // Slots keep batch positions, so the final aggregation order —
            // and with it the report content — is the same as an
            // uninterrupted, uncached run's.
            let mut slots: Vec<Option<TileOutcome>> = Vec::with_capacity(batch.len());
            let mut fresh_tasks: Vec<(usize, usize)> = Vec::new(); // (batch pos, tile id)
                                                                   // Content fingerprints, parallel to `batch` (0 when uncached).
            let mut fingerprints: Vec<u64> = vec![0; batch.len()];
            // Verified hits: tile id → the stored outcome a fresh
            // recompute must reproduce under `cache_verify`.
            let mut verify_expected: HashMap<usize, TileOutcomeRecord> = HashMap::new();
            let mut batch_resumed = 0usize;
            let mut batch_hits = 0usize;
            let mut batch_misses = 0usize;
            let mut batch_stale = 0usize;
            for (pos, tile) in batch.iter().enumerate() {
                let id = (tile.iy * grid_cols + tile.ix) as usize;
                if let Some(record) = replayed.get(&id) {
                    // Journal replay wins over the cache: it is this very
                    // scan's own prior progress. Feed it back into the
                    // cache so resume and caching compose.
                    slots.push(Some(TileOutcome::from_record(record)));
                    batch_resumed += 1;
                    if let Some(c) = cache.as_mut() {
                        let fp = tile.content_fingerprint();
                        fingerprints[pos] = fp;
                        c.record(
                            id,
                            fp,
                            tile_cache::translate_record(record, -tile.window.min()),
                        );
                    }
                    continue;
                }
                if let Some(c) = cache.as_mut() {
                    let fp = tile.content_fingerprint();
                    fingerprints[pos] = fp;
                    if let Some(local) = c.lookup(id, fp).cloned() {
                        batch_hits += 1;
                        if let Some(hub) = obs {
                            hub.emit(|| ObsEvent::CacheHit { tile: id as u64 });
                        }
                        if scan.cache_verify {
                            // Paranoid mode: recompute the hit and compare.
                            verify_expected.insert(
                                id,
                                tile_cache::translate_record(&local, tile.window.min()),
                            );
                        } else {
                            let global = tile_cache::translate_record(&local, tile.window.min());
                            slots.push(Some(TileOutcome::from_record(&global)));
                            c.record(id, fp, local);
                            continue;
                        }
                    } else {
                        batch_misses += 1;
                        let stale = c.is_stale(id, fp);
                        batch_stale += stale as usize;
                        if let Some(hub) = obs {
                            hub.emit(|| ObsEvent::CacheMiss {
                                tile: id as u64,
                                invalidated: stale,
                            });
                        }
                    }
                }
                slots.push(None);
                fresh_tasks.push((pos, id));
            }
            resumed_total += batch_resumed;
            cache_hits_total += batch_hits;
            cache_misses_total += batch_misses;

            let (results, stats) = if fresh_tasks.is_empty() {
                (
                    Vec::new(),
                    ExecutorStats {
                        threads_used: 0,
                        tasks_executed: 0,
                        tasks_stolen: 0,
                        tasks_failed: 0,
                        tasks_skipped: 0,
                    },
                )
            } else {
                executor.try_map_with_cancel(
                    "scan_tile",
                    &fresh_tasks,
                    |_, &(pos, id)| {
                        let current = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        let _guard = InFlightGuard(&in_flight);
                        peak.fetch_max(current, Ordering::SeqCst);
                        // Worker-side progress: one relaxed add per transition,
                        // recorded into the worker's own counter shard.
                        if let Some(hub) = obs {
                            hub.counters().add(Counter::TilesStarted, 1);
                        }
                        let outcome = self.process_tile(
                            &batch[pos],
                            &index,
                            config,
                            scan,
                            threshold,
                            id,
                            0,
                            &trip,
                        );
                        if let Some(hub) = obs {
                            hub.counters().add(Counter::TilesDone, 1);
                        }
                        outcome
                    },
                    Some(&trip),
                )
            };

            // Retry failed tiles once, sequentially, then apply the
            // failure policy to any that fail again.
            let mut batch_quarantined = 0usize;
            for (result, &(pos, id)) in results.into_iter().zip(&fresh_tasks) {
                match result {
                    TaskResult::Done(outcome) => slots[pos] = Some(outcome),
                    // Skipped by the cooperative stop: the tile was never
                    // computed. Its slot stays empty — an aborted scan's
                    // journal simply lacks the record, and the resumed
                    // scan recomputes it.
                    TaskResult::Skipped => {}
                    TaskResult::Failed(failure) => {
                        if trip.is_cancelled() {
                            // The scan is stopping: don't burn wall time on
                            // a mid-abort retry. The tile is recomputed on
                            // resume instead.
                            continue;
                        }
                        retries_total += 1;
                        if let Some(hub) = obs {
                            hub.counters().add(Counter::TaskRetries, 1);
                        }
                        let retry = catch_unwind(AssertUnwindSafe(|| {
                            self.process_tile(
                                &batch[pos],
                                &index,
                                config,
                                scan,
                                threshold,
                                id,
                                1,
                                &trip,
                            )
                        }));
                        match retry {
                            Ok(outcome) => {
                                if let Some(hub) = obs {
                                    hub.counters().add(Counter::TilesDone, 1);
                                }
                                slots[pos] = Some(outcome);
                            }
                            // The retry observed the cooperative stop
                            // mid-tile: an abort, not a failure. The slot
                            // stays empty for resume.
                            Err(payload) if payload.downcast_ref::<CancelPanic>().is_some() => {}
                            Err(payload) => {
                                let timed_out = payload.downcast_ref::<TimeoutPanic>().is_some();
                                let kind = if timed_out {
                                    FailureKind::TimedOut
                                } else {
                                    FailureKind::Panicked
                                };
                                let reason = panic_payload_to_string(payload.as_ref());
                                if let Some(hub) = obs {
                                    hub.counters().add(Counter::TilesQuarantined, 1);
                                    if timed_out {
                                        hub.counters().add(Counter::TilesTimedOut, 1);
                                        hub.emit(|| ObsEvent::TileTimedOut {
                                            tile: id as u64,
                                            budget_ms: scan
                                                .tile_timeout
                                                .map_or(0, |t| t.as_millis() as u64),
                                        });
                                    } else {
                                        hub.emit(|| ObsEvent::TileQuarantined {
                                            tile: id as u64,
                                            stage: failure.stage.clone(),
                                        });
                                    }
                                }
                                match scan.failure_policy {
                                    FailurePolicy::Abort => {
                                        return Err(DetectError::TaskPanicked(TaskFailure {
                                            stage: failure.stage,
                                            index: id,
                                            payload: reason,
                                        }));
                                    }
                                    FailurePolicy::SkipAndRecord { max_failed_tiles } => {
                                        batch_quarantined += 1;
                                        failed_tiles.push(QuarantinedTile {
                                            tile: id,
                                            kind,
                                            reason,
                                        });
                                        if failed_tiles.len() > max_failed_tiles {
                                            return Err(DetectError::TooManyFailures {
                                                failed: failed_tiles.len(),
                                                max: max_failed_tiles,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Tiles actually processed this batch: replayed, cache-served,
            // freshly computed, or quarantined — but *not* those skipped by
            // a mid-batch abort, which the resumed scan will process. On an
            // uninterrupted scan this equals the batch length.
            tiles_scanned += slots.iter().filter(|s| s.is_some()).count() + batch_quarantined;

            // Paranoid cache verification: every hit was recomputed above;
            // the fresh outcome must reproduce the stored record exactly.
            if !verify_expected.is_empty() {
                for &(pos, id) in &fresh_tasks {
                    let (Some(outcome), Some(expected)) = (&slots[pos], verify_expected.get(&id))
                    else {
                        continue;
                    };
                    if &outcome.to_record() != expected {
                        return Err(DetectError::Cache(format!(
                            "cache_verify: tile {id} recompute disagrees with stored entry"
                        )));
                    }
                }
            }

            // Record this batch's fresh completions into the cache, keyed
            // by content fingerprint in tile-local coordinates. Quarantined
            // tiles left their slot empty and are never cached as
            // successes.
            if let Some(c) = cache.as_mut() {
                for &(pos, id) in &fresh_tasks {
                    if let Some(outcome) = &slots[pos] {
                        c.record(
                            id,
                            fingerprints[pos],
                            tile_cache::translate_record(
                                &outcome.to_record(),
                                -batch[pos].window.min(),
                            ),
                        );
                    }
                }
            }

            // Append this batch's fresh completions to the journal, then
            // make them durable in one fsync.
            if let Some(writer) = journal_writer.as_mut() {
                for &(pos, id) in &fresh_tasks {
                    if let Some(outcome) = &slots[pos] {
                        let record = TileRecord {
                            tile: id,
                            outcome: outcome.to_record(),
                        };
                        writer.append(&record, &scan.fault_plan).map_err(|e| {
                            DetectError::Journal(format!("append of tile {id} failed: {e}"))
                        })?;
                    }
                }
                writer
                    .sync()
                    .map_err(|e| DetectError::Journal(format!("journal sync failed: {e}")))?;
            }

            let outcomes: Vec<&TileOutcome> = slots.iter().flatten().collect();
            let survivors = outcomes.iter().filter(|o| !o.prefiltered).count();
            let prefiltered = outcomes.iter().filter(|o| o.prefiltered).count();
            let batch_clips: usize = outcomes.iter().map(|o| o.clips).sum();
            let batch_flagged: usize = outcomes.iter().map(|o| o.flagged).sum();
            // Each tile with clips to evaluate was one batch on its own
            // `BatchEvaluator` scratch.
            let batch_evals = outcomes.iter().filter(|o| o.clips > 0).count();
            recorder.record(
                StageId::DensityPrefilter,
                batch.len(),
                survivors,
                outcomes.iter().map(|o| o.prefilter_time).sum(),
                None,
            );
            recorder.record(
                StageId::ClipExtraction,
                survivors,
                batch_clips,
                outcomes.iter().map(|o| o.extract_time).sum(),
                None,
            );
            recorder.record(
                StageId::KernelEvaluation,
                batch_clips,
                batch_flagged,
                outcomes.iter().map(|o| o.eval_time).sum(),
                Some(&stats),
            );
            let batch_admissions: u64 = outcomes.iter().map(|o| o.admissions).sum();
            let batch_admission_skips: u64 = outcomes.iter().map(|o| o.admission_skips).sum();
            recorder.record_admissions(
                StageId::KernelEvaluation,
                batch_admissions,
                batch_admission_skips,
            );
            tiles_prefiltered += prefiltered;
            clips_extracted += batch_clips;
            clips_flagged += batch_flagged;
            eval_batches += batch_evals;
            let mut batch_reclaimed = 0usize;
            for mut o in slots.into_iter().flatten() {
                batch_reclaimed += o.reclaimed;
                flagged_cores.append(&mut o.flagged_cores);
            }
            feedback_reclaimed += batch_reclaimed;
            if let Some(hub) = obs {
                let counters = hub.counters();
                // Replayed and cache-served tiles count as started+done so
                // live progress reaches 100% without recompute (verify-mode
                // hits ran fresh and were counted by their workers).
                let served = if scan.cache_verify { 0 } else { batch_hits };
                counters.add(Counter::TilesStarted, (batch_resumed + served) as u64);
                counters.add(Counter::TilesDone, (batch_resumed + served) as u64);
                counters.add(Counter::CacheHits, batch_hits as u64);
                counters.add(Counter::CacheMisses, batch_misses as u64);
                counters.add(Counter::CacheInvalidated, batch_stale as u64);
                counters.add(Counter::TilesPrefiltered, prefiltered as u64);
                counters.add(Counter::ClipsExtracted, batch_clips as u64);
                counters.add(Counter::ClipsFlagged, batch_flagged as u64);
                counters.add(Counter::ClipsReclaimed, batch_reclaimed as u64);
                counters.add(Counter::EvalBatches, batch_evals as u64);
                hub.emit(|| ObsEvent::BatchCompleted {
                    tiles: batch.len(),
                    clips: batch_clips,
                    flagged: batch_flagged,
                    admissions: batch_admissions,
                    admission_skips: batch_admission_skips,
                });
            }
        }

        let flagged_count = flagged_cores.len();
        let t_removal = Instant::now();
        let reported = if config.ablation.removal {
            remove_redundant_clips(flagged_cores, shape, &index, config)
        } else {
            flagged_cores
                .into_iter()
                .map(|core| ClipWindow {
                    core,
                    clip: core.inflate(shape.ambit()),
                })
                .collect()
        };
        recorder.record(
            StageId::ClipRemoval,
            flagged_count,
            reported.len(),
            t_removal.elapsed(),
            None,
        );

        // Rewrite the cache with this scan's results: only tiles recorded
        // this run survive, so entries for deleted tiles don't accumulate.
        // An aborted scan writes back too — partial progress is exactly
        // what the cache is for.
        if let Some(c) = &cache {
            let path = scan.cache.as_deref().ok_or_else(|| {
                DetectError::Internal("tile cache open without a configured cache path".into())
            })?;
            c.store().map_err(|e| {
                DetectError::Cache(format!("{}: write-back failed: {e}", path.display()))
            })?;
        }

        // Stop the watchdog before the terminal event, so no heartbeat can
        // trail a ScanAborted/ScanCompleted in the event stream.
        drop(watchdog);
        if let Some(hub) = obs {
            hub.clear_deadline_remaining();
            match aborted {
                Some(reason) => hub.emit(|| ObsEvent::ScanAborted {
                    reason: reason.name().to_string(),
                    tiles_scanned,
                }),
                None => hub.emit(|| ObsEvent::ScanCompleted {
                    tiles_scanned,
                    reported: reported.len(),
                    quarantined: failed_tiles.len(),
                }),
            }
            recorder.set_obs_sinks(hub.sink_names());
        }
        Ok(ScanReport {
            reported,
            tiles_total,
            tiles_scanned,
            tiles_prefiltered,
            clips_extracted,
            clips_flagged,
            feedback_reclaimed,
            eval_batches,
            failed_tiles,
            retries: retries_total,
            resumed_tiles: resumed_total,
            cache_hits: cache_hits_total,
            cache_misses: cache_misses_total,
            aborted,
            peak_in_flight: peak.load(Ordering::SeqCst),
            telemetry: recorder.finish(),
            scan_time: started.elapsed(),
        })
    }

    /// Prefilters, extracts, and classifies the clips one tile owns.
    ///
    /// `tile_id` is the stable grid id and `attempt` the attempt number
    /// (0 = first, 1 = retry); both exist only to key the deterministic
    /// fault-injection hooks, which compile down to an `is_empty` check on
    /// production scans. `trip` is the scan's internal stop token, polled
    /// at stage boundaries together with the soft tile budget.
    #[allow(clippy::too_many_arguments)]
    fn process_tile(
        &self,
        tile: &Tile,
        index: &RectIndex,
        config: &DetectorConfig,
        scan: &ScanConfig,
        threshold: f64,
        tile_id: usize,
        attempt: u32,
        trip: &CancelToken,
    ) -> TileOutcome {
        TILE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.process_tile_with(
                tile,
                index,
                config,
                scan,
                threshold,
                tile_id,
                attempt,
                trip,
                &mut scratch,
            )
        })
    }

    /// [`process_tile`](Self::process_tile) on explicit scratch.
    #[allow(clippy::too_many_arguments)]
    fn process_tile_with(
        &self,
        tile: &Tile,
        index: &RectIndex,
        config: &DetectorConfig,
        scan: &ScanConfig,
        threshold: f64,
        tile_id: usize,
        attempt: u32,
        trip: &CancelToken,
        scratch: &mut TileScratch,
    ) -> TileOutcome {
        let shape = config.clip_shape;
        let fault = &scan.fault_plan;
        let budget = scan.tile_timeout;
        let tile_started = Instant::now();
        // The cooperative stop/budget poll, called at every stage boundary
        // and per evaluated clip. Cancellation wins over the budget so an
        // aborting scan never mislabels in-flight tiles as timed out. Both
        // outcomes unwind with typed markers the executor and the retry
        // loop downcast; the timeout marker carries only the configured
        // budget — never the measured elapsed time — so quarantine reasons
        // (digest content) stay deterministic across machines, runs, and
        // thread counts. The panic releases the scratch borrow on unwind,
        // like any other tile panic.
        let checkpoint = || {
            if trip.is_cancelled() {
                panic_any(CancelPanic);
            }
            if let Some(b) = budget {
                if tile_started.elapsed() > b {
                    panic_any(TimeoutPanic {
                        budget_ms: b.as_millis() as u64,
                    });
                }
            }
        };
        let mut outcome = TileOutcome {
            prefiltered: false,
            clips: 0,
            flagged: 0,
            reclaimed: 0,
            flagged_cores: Vec::new(),
            admissions: 0,
            admission_skips: 0,
            prefilter_time: Duration::ZERO,
            extract_time: Duration::ZERO,
            eval_time: Duration::ZERO,
        };

        // Density prefilter. `covered` double-counts overlapping pattern
        // rectangles, so it upper-bounds the pattern area over any core the
        // tile owns: skipping only below `min_core_density × core_area`
        // can never drop a clip that extraction would keep.
        if !fault.is_empty() {
            fault.inject(FaultSite::Prefilter, tile_id, attempt);
        }
        checkpoint();
        let t0 = Instant::now();
        // Cleared up front (set again below for surviving Sat tiles) so
        // tables never leak from one tile into the next on this worker's
        // scratch.
        scratch.eval.clear_raster_tables();
        let covered: i64 = tile
            .rects
            .iter()
            .map(|r| r.overlap_area(&tile.window))
            .sum();
        let core_area = (shape.core_side() * shape.core_side()) as f64;
        let conservative_cut = (covered as f64) < config.distribution.min_core_density * core_area;
        let aggressive_cut = scan
            .tile_density
            .is_some_and(|min_cov| (covered as f64) < min_cov * tile.window.area() as f64);
        outcome.prefilter_time = t0.elapsed();
        if conservative_cut || aggressive_cut {
            outcome.prefiltered = true;
            return outcome;
        }

        // Clip extraction, restricted to the anchors this tile owns. Tile
        // regions partition the plane, so per-tile dedup over owned anchors
        // equals the global anchor dedup of `extract_clips_indexed`.
        if !fault.is_empty() {
            fault.inject(FaultSite::Extraction, tile_id, attempt);
        }
        checkpoint();
        let t1 = Instant::now();
        let TileScratch {
            eval,
            pieces,
            seen,
            patterns,
            windows,
        } = scratch;
        split_oversized_into(&tile.rects, shape.core_side(), pieces);
        seen.clear();
        patterns.clear();
        for piece in pieces.iter() {
            let anchor = piece.min();
            if !tile.region.contains_point(anchor) || !seen.insert(anchor) {
                continue;
            }
            let window = shape.window_from_core_corner(anchor);
            let pattern = Pattern::new(window, &index.query(&window.clip));
            if passes_filter(&pattern, &config.distribution) {
                patterns.push(pattern);
            }
        }
        outcome.clips = patterns.len();
        outcome.extract_time = t1.elapsed();

        // Multiple-kernel (and feedback) evaluation: the tile's clips form
        // one batch sharing the worker's `EvalScratch` buffers; only its
        // telemetry counters are reset per tile.
        if !fault.is_empty() {
            fault.inject(FaultSite::Evaluation, tile_id, attempt);
        }
        checkpoint();
        let t2 = Instant::now();
        // Under `RasterMode::Sat`, padded subtile summed-area tables over
        // the tile's dissected rects serve the whole eval loop: every owned
        // clip's core grid is rasterised from its subtile's table. Built
        // only for tiles the prefilter kept, after extraction, and only
        // for the subtiles the extracted clip windows anchor in. Subtiles
        // over the cell cap (or outside the anchored set) have no table and
        // their clips silently run the reference path — bit-identical
        // either way.
        if config.raster_mode == RasterMode::Sat && !patterns.is_empty() {
            windows.clear();
            windows.extend(patterns.iter().map(|p| p.window.core));
            eval.rebuild_raster_tables(
                &tile.region,
                shape.core_side() * RASTER_SUBTILE_CORES,
                shape.core_side(),
                &tile.rects,
                AreaTable::DEFAULT_MAX_CELLS,
                windows,
            );
        }
        let engine = self.eval_engine_with_threshold(threshold);
        eval.reset_counters();
        for pattern in patterns.iter() {
            checkpoint();
            let (flagged, reclaimed) = Self::flag_with_engine(&engine, pattern, eval);
            if flagged {
                outcome.flagged += 1;
                if reclaimed {
                    outcome.reclaimed += 1;
                } else {
                    outcome.flagged_cores.push(pattern.window.core);
                }
            }
        }
        outcome.admissions = eval.admissions();
        outcome.admission_skips = eval.admission_skips();
        outcome.eval_time = t2.elapsed();
        outcome
    }

    /// FNV-1a fingerprint of this trained model's evaluation identity —
    /// the kernels, the feedback kernel, and the full config minus the
    /// thread count (scans are thread-count-invariant). Any retrain or
    /// config change yields a new fingerprint and invalidates every tile
    /// cache built under the old one.
    fn model_fingerprint(&self) -> u64 {
        let kernels = serde_json::to_string(&self.kernels().to_vec()).expect("kernels serialise");
        let feedback = match self.feedback() {
            Some(f) => serde_json::to_string(f).expect("feedback kernel serialises"),
            None => "null".to_string(),
        };
        let mut config = self.config().clone();
        config.threads = 0;
        let config = serde_json::to_string(&config).expect("config serialises");
        tile_cache::model_fingerprint(&kernels, &feedback, &config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ScanConfig::default().validate().is_ok());
        let bad = ScanConfig {
            tile_cores: 0,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("tile_cores"));
        for d in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let bad = ScanConfig {
                tile_density: Some(d),
                ..Default::default()
            };
            assert!(bad.validate().is_err(), "tile_density {d}");
        }
        let bad_plan = ScanConfig {
            fault_plan: FaultPlan {
                panic_per_mille: 2000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad_plan.validate().unwrap_err().contains("per_mille"));
        let bad_verify = ScanConfig {
            cache_verify: true,
            ..Default::default()
        };
        assert!(bad_verify.validate().unwrap_err().contains("cache_verify"));
        let ok_verify = ScanConfig {
            cache: Some(PathBuf::from("/tmp/cache")),
            cache_verify: true,
            ..Default::default()
        };
        assert!(ok_verify.validate().is_ok());
        let bad_timeout = ScanConfig {
            tile_timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        assert!(bad_timeout.validate().unwrap_err().contains("tile_timeout"));
        // A zero deadline is a valid "abort before the first batch"; a
        // positive tile budget is a valid budget.
        let ok_deadline = ScanConfig {
            deadline: Some(Duration::ZERO),
            tile_timeout: Some(Duration::from_millis(100)),
            cancel: Some(CancelToken::new()),
            ..Default::default()
        };
        assert!(ok_deadline.validate().is_ok());
    }

    #[test]
    fn in_flight_window_resolution() {
        let auto = ScanConfig {
            max_in_flight: 0,
            ..Default::default()
        };
        assert_eq!(auto.effective_in_flight(4), 8);
        let fixed = ScanConfig {
            max_in_flight: 3,
            ..Default::default()
        };
        assert_eq!(fixed.effective_in_flight(4), 3);
    }

    #[test]
    fn legacy_scan_config_json_deserialises() {
        // A pre-fault-tolerance config: no policy, journal, or fault plan.
        let json = r#"{"tile_cores":8,"max_in_flight":4,"tile_density":null}"#;
        let config: ScanConfig = serde_json::from_str(json).unwrap();
        assert_eq!(config.failure_policy, FailurePolicy::Abort);
        assert!(config.journal.is_none() && config.resume_from.is_none());
        assert!(config.fault_plan.is_empty());
        assert!(config.deadline.is_none() && config.tile_timeout.is_none());
        assert!(config.cancel.is_none(), "tokens are never deserialised");
    }

    fn empty_report() -> ScanReport {
        ScanReport {
            reported: Vec::new(),
            tiles_total: 0,
            tiles_scanned: 0,
            tiles_prefiltered: 0,
            clips_extracted: 10,
            clips_flagged: 0,
            feedback_reclaimed: 0,
            eval_batches: 0,
            failed_tiles: Vec::new(),
            retries: 0,
            resumed_tiles: 0,
            cache_hits: 0,
            cache_misses: 0,
            aborted: None,
            peak_in_flight: 0,
            telemetry: PipelineTelemetry::default(),
            scan_time: Duration::ZERO,
        }
    }

    #[test]
    fn clips_per_second_handles_zero_time() {
        let report = empty_report();
        assert_eq!(report.clips_per_second(), 0.0);
        let timed = ScanReport {
            scan_time: Duration::from_secs(2),
            ..report
        };
        assert!((timed.clips_per_second() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn digest_ignores_provenance_but_not_content() {
        let base = empty_report();
        let provenance = ScanReport {
            retries: 3,
            resumed_tiles: 7,
            cache_hits: 11,
            cache_misses: 2,
            aborted: Some(AbortReason::DeadlineExceeded),
            peak_in_flight: 5,
            scan_time: Duration::from_secs(1),
            ..base.clone()
        };
        assert_eq!(base.digest(), provenance.digest());
        let content = ScanReport {
            clips_flagged: 1,
            ..base.clone()
        };
        assert_ne!(base.digest(), content.digest());
        let quarantined = ScanReport {
            failed_tiles: vec![QuarantinedTile {
                tile: 4,
                kind: FailureKind::Panicked,
                reason: "injected".into(),
            }],
            ..base.clone()
        };
        assert_ne!(base.digest(), quarantined.digest());
        // The failure *kind* is content too: a timed-out tile digests
        // differently from a panicked one.
        let timed_out = ScanReport {
            failed_tiles: vec![QuarantinedTile {
                tile: 4,
                kind: FailureKind::TimedOut,
                reason: "injected".into(),
            }],
            ..base.clone()
        };
        assert_ne!(quarantined.digest(), timed_out.digest());
    }

    #[test]
    fn legacy_quarantine_records_deserialise_as_panicked() {
        let json = r#"{"tile":9,"reason":"boom"}"#;
        let q: QuarantinedTile = serde_json::from_str(json).unwrap();
        assert_eq!(q.kind, FailureKind::Panicked);
        let json = serde_json::to_string(&QuarantinedTile {
            tile: 1,
            kind: FailureKind::TimedOut,
            reason: "slow".into(),
        })
        .unwrap();
        let back: QuarantinedTile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.kind, FailureKind::TimedOut);
    }
}
