//! Layer-by-layer replays of a scan and of training, through the same
//! public calls the library makes internally, with a span around each.
//!
//! The replays exist only for the traced run: the real
//! `HotspotDetector::scan_layout` / `HotspotDetector::train` call is timed
//! as one span, and the replay's layer spans are attached under it, so the
//! real call's wall time minus the replay's summed layer self times is the
//! `*.unattributed_ms` row. A replay that does not reproduce the real
//! call's output exactly is refused by the caller.

use crate::trace::Tracer;
use hotspot_core::balance::upsample_hotspots;
use hotspot_core::engine::Executor;
use hotspot_core::extraction::{passes_filter, split_oversized_into};
use hotspot_core::feedback::{train_feedback, FeedbackKernel};
use hotspot_core::journal::{JournalHeader, JournalWriter, TileOutcomeRecord, TileRecord};
use hotspot_core::removal::remove_redundant_clips;
use hotspot_core::scan::RASTER_SUBTILE_CORES;
use hotspot_core::training::{
    classify_patterns_mode, density_grid, train_cluster_kernels_with, ClusterKernel, FeatureMemo,
    Region,
};
use hotspot_core::{
    CacheHeader, DetectorConfig, EvalMode, FaultPlan, HotspotDetector, Pattern, RasterMode,
    RectIndex, ScanConfig, TileCache, TrainingSet,
};
use hotspot_geom::{AreaTable, AreaTableGrid, DensityGrid, Point, Rect};
use hotspot_layout::scan::{Tile, TileScanner, TileSpec};
use hotspot_layout::{ClipWindow, LayerId, Layout};
use hotspot_svm::{BatchEvaluator, CompiledModel};
use hotspot_topo::{Admission, CentroidRouter, RouteStats, TopoSignature};
use std::collections::HashSet;
use std::path::Path;

/// The compiled evaluation engines of a detector, built the way the
/// detector builds them on its first `eval_engine()` call.
pub struct Compiled {
    kernels: Vec<CompiledModel>,
    feedback: Option<CompiledModel>,
    router: CentroidRouter,
}

impl Compiled {
    pub fn of(detector: &HotspotDetector) -> Compiled {
        let config = detector.config();
        let g = config.cluster.grid;
        Compiled {
            kernels: detector
                .kernels()
                .iter()
                .map(|k| k.model.compile())
                .collect(),
            feedback: detector.feedback().map(|f| f.model.compile()),
            router: CentroidRouter::compile(
                detector
                    .kernels()
                    .iter()
                    .map(|k| (&k.centroid, config.admission.threshold(k.radius))),
                g,
                g,
            ),
        }
    }
}

/// What a scan replay produced, for comparison with the real scan.
#[derive(Debug, Default)]
pub struct ScanReplay {
    pub reported: Vec<ClipWindow>,
    pub tiles_prefiltered: usize,
    pub clips_extracted: usize,
    pub clips_flagged: usize,
    pub feedback_reclaimed: usize,
    pub eval_batches: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Every tile's outcome in tile-local coordinates, with its tile id and
    /// content fingerprint — the form the tile cache stores.
    pub tiles: Vec<(usize, u64, TileOutcomeRecord)>,
}

/// Per-replay scratch, reused across tiles and clips like the scan
/// worker's own scratch.
#[derive(Default)]
struct Scratch {
    pieces: Vec<Rect>,
    seen: HashSet<Point>,
    patterns: Vec<Pattern>,
    windows: Vec<Rect>,
    tables: AreaTableGrid,
    grid: DensityGrid,
    admissions: Vec<Admission>,
    route: RouteStats,
    eval: BatchEvaluator,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The model fingerprint the scan keys its tile cache by: FNV-1a over the
/// kernels, the feedback kernel and the config with threads zeroed.
fn model_fingerprint(detector: &HotspotDetector) -> Result<u64, String> {
    let kernels = serde_json::to_string(&detector.kernels().to_vec()).map_err(|e| e.to_string())?;
    let feedback = match detector.feedback() {
        Some(f) => serde_json::to_string(f).map_err(|e| e.to_string())?,
        None => "null".to_string(),
    };
    let mut config = detector.config().clone();
    config.threads = 0;
    let config = serde_json::to_string(&config).map_err(|e| e.to_string())?;
    let mut h = fnv1a(kernels.as_bytes());
    h ^= fnv1a(feedback.as_bytes());
    h = h.wrapping_mul(FNV_PRIME);
    h ^= fnv1a(config.as_bytes());
    Ok(h.wrapping_mul(FNV_PRIME))
}

/// The cache header `scan_layout` writes for `detector` under `scan`.
pub fn cache_header(
    detector: &HotspotDetector,
    scan: &ScanConfig,
    layer: LayerId,
) -> Result<CacheHeader, String> {
    Ok(CacheHeader::new(
        model_fingerprint(detector)?,
        scan.tile_cores,
        layer,
        detector.config().decision_threshold,
        scan.tile_density,
    ))
}

fn translate(record: &TileOutcomeRecord, delta: Point) -> TileOutcomeRecord {
    match record {
        TileOutcomeRecord::Prefiltered => TileOutcomeRecord::Prefiltered,
        TileOutcomeRecord::Evaluated {
            clips,
            flagged,
            reclaimed,
            flagged_cores,
        } => TileOutcomeRecord::Evaluated {
            clips: *clips,
            flagged: *flagged,
            reclaimed: *reclaimed,
            flagged_cores: flagged_cores.iter().map(|r| r.translate(delta)).collect(),
        },
    }
}

/// Replays `detector.scan_layout(layout, layer, scan)` tile by tile at one
/// thread, batching tiles, journaling and caching the way the scan does.
pub fn replay_scan(
    tr: &mut Tracer,
    detector: &HotspotDetector,
    compiled: &Compiled,
    layout: &Layout,
    layer: LayerId,
    scan: &ScanConfig,
) -> Result<ScanReplay, String> {
    let config = detector.config();
    if config.eval_mode != EvalMode::Compiled || scan.tile_density.is_some() {
        return Err("the replay mirrors only the default compiled, exact scan".into());
    }
    let shape = config.clip_shape;
    let threads = config.effective_threads().max(1);
    let window_cap = scan.effective_in_flight(threads);
    let threshold = config.decision_threshold;
    let mut out = ScanReplay::default();

    let index = tr.span("extraction", || {
        RectIndex::from_layout(layout, layer, shape.clip_side())
    });
    let spec = TileSpec::new(
        shape.core_side() * scan.tile_cores as i64,
        shape.ambit() + shape.core_side(),
    )
    .map_err(|e| e.to_string())?;
    let mut scanner = tr.span("extraction", || {
        TileScanner::from_rects(index.rects().to_vec(), spec)
    });
    let tiles_total = scanner.grid().tile_count();
    let grid_cols = scanner.grid().cols();

    let mut journal = match &scan.journal {
        Some(path) => {
            let header = JournalHeader::new(tiles_total, scan.tile_cores, layer, threshold);
            let mut writer = tr
                .span("journal.append", || JournalWriter::create(path, &header))
                .map_err(|e| format!("journal: {e}"))?;
            tr.span("journal.sync", || writer.sync())
                .map_err(|e| format!("journal: {e}"))?;
            Some(writer)
        }
        None => None,
    };
    let mut cache = match &scan.cache {
        Some(path) => {
            let id = tr.enter("tile_cache.load");
            let opened = cache_header(detector, scan, layer).map(|h| TileCache::open(path, h));
            tr.exit(id);
            Some(opened?)
        }
        None => None,
    };

    let mut scratch = Scratch::default();
    let mut flagged_cores: Vec<Rect> = Vec::new();
    loop {
        let batch: Vec<Tile> =
            tr.span("extraction", || scanner.by_ref().take(window_cap).collect());
        if batch.is_empty() {
            break;
        }
        // (batch position, tile id, fingerprint, outcome in global coords)
        let mut slots: Vec<(usize, u64, TileOutcomeRecord)> = Vec::with_capacity(batch.len());
        let mut fresh: Vec<usize> = Vec::new();
        for (pos, tile) in batch.iter().enumerate() {
            let id = (tile.iy * grid_cols + tile.ix) as usize;
            let fp = tile.content_fingerprint();
            if let Some(c) = cache.as_mut() {
                let span = tr.enter("tile_cache.lookup");
                let hit = c.lookup(id, fp).cloned();
                if let Some(local) = &hit {
                    c.record(id, fp, local.clone());
                }
                tr.exit(span);
                if let Some(local) = hit {
                    out.cache_hits += 1;
                    slots.push((id, fp, translate(&local, tile.window.min())));
                    continue;
                }
                out.cache_misses += 1;
            }
            let record = replay_tile(tr, detector, compiled, tile, &index, &mut scratch)?;
            slots.push((id, fp, record));
            fresh.push(pos);
        }
        if let Some(c) = cache.as_mut() {
            let span = tr.enter("tile_cache.lookup");
            for &pos in &fresh {
                let (id, fp, record) = &slots[pos];
                c.record(*id, *fp, translate(record, -batch[pos].window.min()));
            }
            tr.exit(span);
        }
        if let Some(writer) = journal.as_mut() {
            let span = tr.enter("journal.append");
            let mut appended = Ok(());
            for &pos in &fresh {
                let (id, _, record) = &slots[pos];
                let line = TileRecord {
                    tile: *id,
                    outcome: record.clone(),
                };
                appended = appended.and_then(|_| writer.append(&line, &FaultPlan::default()));
            }
            tr.exit(span);
            appended.map_err(|e| format!("journal append: {e}"))?;
            tr.span("journal.sync", || writer.sync())
                .map_err(|e| format!("journal sync: {e}"))?;
        }
        for (pos, (id, fp, record)) in slots.into_iter().enumerate() {
            match &record {
                TileOutcomeRecord::Prefiltered => out.tiles_prefiltered += 1,
                TileOutcomeRecord::Evaluated {
                    clips,
                    flagged,
                    reclaimed,
                    flagged_cores: cores,
                } => {
                    out.clips_extracted += clips;
                    out.clips_flagged += flagged;
                    out.feedback_reclaimed += reclaimed;
                    out.eval_batches += (*clips > 0) as usize;
                    flagged_cores.extend_from_slice(cores);
                }
            }
            out.tiles
                .push((id, fp, translate(&record, -batch[pos].window.min())));
        }
    }

    tr.add("removal.in", flagged_cores.len() as f64);
    out.reported = tr.span("removal", || {
        if config.ablation.removal {
            remove_redundant_clips(flagged_cores, shape, &index, config)
        } else {
            flagged_cores
                .into_iter()
                .map(|core| ClipWindow {
                    core,
                    clip: core.inflate(shape.ambit()),
                })
                .collect()
        }
    });
    tr.add("removal.out", out.reported.len() as f64);

    if let Some(c) = &cache {
        tr.span("tile_cache.store", || c.store())
            .map_err(|e| format!("tile cache store: {e}"))?;
    }
    tr.add("tile_cache.hits", out.cache_hits as f64);
    tr.add("tile_cache.misses", out.cache_misses as f64);
    tr.add("route.rows", scratch.route.rows_considered as f64);
    tr.add("route.rows_pruned", scratch.route.rows_pruned() as f64);
    Ok(out)
}

/// One fresh tile: prefilter, clip extraction, table build, then every
/// clip through signature, raster, route, features, SVM and feedback.
fn replay_tile(
    tr: &mut Tracer,
    detector: &HotspotDetector,
    compiled: &Compiled,
    tile: &Tile,
    index: &RectIndex,
    s: &mut Scratch,
) -> Result<TileOutcomeRecord, String> {
    let config = detector.config();
    let shape = config.clip_shape;

    let span = tr.enter("extraction");
    let covered: i64 = tile
        .rects
        .iter()
        .map(|r| r.overlap_area(&tile.window))
        .sum();
    let core_area = (shape.core_side() * shape.core_side()) as f64;
    if (covered as f64) < config.distribution.min_core_density * core_area {
        tr.exit(span);
        return Ok(TileOutcomeRecord::Prefiltered);
    }
    split_oversized_into(&tile.rects, shape.core_side(), &mut s.pieces);
    s.seen.clear();
    s.patterns.clear();
    for piece in s.pieces.iter() {
        let anchor = piece.min();
        if !tile.region.contains_point(anchor) || !s.seen.insert(anchor) {
            continue;
        }
        let window = shape.window_from_core_corner(anchor);
        let pattern = Pattern::new(window, &index.query(&window.clip));
        if passes_filter(&pattern, &config.distribution) {
            s.patterns.push(pattern);
        }
    }
    tr.exit(span);
    tr.add("extraction.clips", s.patterns.len() as f64);

    let tables_live = config.raster_mode == RasterMode::Sat && !s.patterns.is_empty();
    if tables_live {
        let Scratch {
            windows,
            tables,
            patterns,
            ..
        } = &mut *s;
        tr.span("raster", || {
            windows.clear();
            windows.extend(patterns.iter().map(|p| p.window.core));
            tables.rebuild_for(
                &tile.region,
                shape.core_side() * RASTER_SUBTILE_CORES,
                shape.core_side(),
                &tile.rects,
                AreaTable::DEFAULT_MAX_CELLS,
                windows,
            );
        });
    }

    let patterns = std::mem::take(&mut s.patterns);
    let mut flagged = 0usize;
    let mut reclaimed = 0usize;
    let mut flagged_cores = Vec::new();
    for pattern in &patterns {
        let (f, r) = replay_clip(tr, detector, compiled, pattern, tables_live, s)?;
        if f {
            flagged += 1;
            if r {
                reclaimed += 1;
            } else {
                flagged_cores.push(pattern.window.core);
            }
        }
    }
    let clips = patterns.len();
    s.patterns = patterns;
    Ok(TileOutcomeRecord::Evaluated {
        clips,
        flagged,
        reclaimed,
        flagged_cores,
    })
}

/// One clip: returns (flagged by a kernel, reclaimed by feedback).
fn replay_clip(
    tr: &mut Tracer,
    detector: &HotspotDetector,
    compiled: &Compiled,
    pattern: &Pattern,
    tables_live: bool,
    s: &mut Scratch,
) -> Result<(bool, bool), String> {
    let config = detector.config();
    let threshold = config.decision_threshold;
    let window = pattern.window.core;

    let signature = tr.span("signature", || {
        let rects: Vec<Rect> = pattern
            .rects
            .iter()
            .filter_map(|r| r.intersection(&window))
            .map(|r| r.translate(-window.min()))
            .collect();
        let local = Rect::from_extents(0, 0, window.width(), window.height());
        TopoSignature::of(&local, &rects)
    });

    let g = config.cluster.grid;
    let Scratch {
        tables,
        grid,
        admissions,
        route,
        eval,
        ..
    } = s;
    let filled = tr.span("raster", || {
        let filled = tables_live && tables.rasterize_into(&window, g, g, grid);
        if !filled {
            *grid = density_grid(pattern, Region::Core, config);
        }
        filled
    });
    if tables_live && !filled {
        tr.add("raster.fallbacks", 1.0);
    }
    let router = &compiled.router;
    if (grid.nx(), grid.ny()) != (router.nx(), router.ny()) {
        return Err("clip grid does not match the compiled router".into());
    }
    tr.span("route", || router.route_into(grid, admissions, route));
    tr.add("route.clips", 1.0);

    let mut memo = FeatureMemo::new(pattern, Region::Core, config);
    let mut flagged = false;
    let mut admitted = 0usize;
    let mut next = 0usize;
    for (idx, k) in detector.kernels().iter().enumerate() {
        let density_match = admissions.get(next).is_some_and(|a| a.kernel == idx);
        if density_match {
            next += 1;
        }
        if !density_match && signature != k.signature {
            continue;
        }
        admitted += 1;
        let span = tr.enter("features");
        let features = memo.padded(k.feature_len);
        tr.exit(span);
        let span = tr.enter("svm.decide");
        let decision = eval.decision_value(&compiled.kernels[idx], features);
        tr.exit(span);
        if decision > threshold {
            flagged = true;
            tr.add("svm.flags", 1.0);
        }
    }
    tr.add("route.admissions", admitted as f64);
    tr.add("svm.decisions", admitted as f64);
    if admitted > 0 {
        tr.add("features.extractions", 1.0);
    }
    if !flagged {
        return Ok((false, false));
    }

    let feedback: Option<(&FeedbackKernel, &CompiledModel)> = if config.ablation.feedback {
        detector.feedback().zip(compiled.feedback.as_ref())
    } else {
        None
    };
    let Some((fb, model)) = feedback else {
        return Ok((true, false));
    };
    let confirmed = tr.span("feedback", || {
        let features = hotspot_core::training::feature_vector_padded(
            pattern,
            Region::Clip,
            config,
            fb.feature_len,
        );
        eval.decision_value(model, &features) > 0.0
    });
    tr.add("feedback.calls", 1.0);
    if !confirmed {
        tr.add("feedback.reclaimed", 1.0);
    }
    Ok((true, !confirmed))
}

/// Replays `HotspotDetector::train(training, config)` stage by stage.
pub fn replay_train(
    tr: &mut Tracer,
    training: &TrainingSet,
    config: &DetectorConfig,
) -> Result<(Vec<ClusterKernel>, Option<FeedbackKernel>), String> {
    if !config.ablation.topology {
        return Err("the replay mirrors only topological training".into());
    }
    let hotspots = tr.span("balance", || {
        upsample_hotspots(&training.hotspots, config.data_shift)
    });
    let (h_clusters, n_clusters) = tr.span("cluster", || {
        let h =
            classify_patterns_mode(&hotspots, Region::Core, &config.cluster, config.raster_mode);
        let n = classify_patterns_mode(
            &training.nonhotspots,
            Region::Core,
            &config.cluster,
            config.raster_mode,
        );
        (h, n)
    });
    tr.add(
        "cluster.clusters",
        (h_clusters.len() + n_clusters.len()) as f64,
    );
    let medoids: Vec<Pattern> = tr.span("balance", || {
        n_clusters
            .iter()
            .map(|c| training.nonhotspots[c.medoid].clone())
            .collect()
    });
    let executor = Executor::new(config.effective_threads().max(1));
    let (kernels, _) = tr
        .span("smo", || {
            train_cluster_kernels_with(&hotspots, &h_clusters, &medoids, config, &executor)
        })
        .map_err(|e| format!("kernel training: {e}"))?;
    tr.add("smo.kernels", kernels.len() as f64);
    tr.add(
        "smo.rounds",
        kernels.iter().map(|k| k.rounds as f64).sum::<f64>(),
    );
    let feedback = if config.ablation.feedback {
        tr.span("feedback_train", || {
            train_feedback(
                &hotspots,
                &h_clusters,
                &kernels,
                &training.nonhotspots,
                &n_clusters,
                config,
            )
        })
        .map_err(|e| format!("feedback training: {e}"))?
    } else {
        None
    };
    Ok((kernels, feedback))
}

/// Size of a file in bytes, 0 when it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
