//! Serializable per-stage pipeline telemetry.
//!
//! Every run of the training or evaluation pipeline produces a
//! [`PipelineTelemetry`] describing, for each of the eight canonical
//! stages, its wall-clock time, item flow, and thread utilisation. The
//! structure is serde-serialisable so the CLI can persist it
//! (`hotspot detect --telemetry out.json`) and the bench binaries can
//! print per-stage breakdowns.

use super::stage::StageId;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Version of the telemetry JSON schema (bump on breaking field changes).
///
/// v9 keeps only what no other record holds: stage time, item flow,
/// executor and admission counters. Scan counts (batches, retries,
/// failures, timeouts, resumed and cache-served tiles, the abort reason)
/// live in [`crate::ScanReport`] and the observability counters. Readers
/// ignore unknown keys, so a v8 record still decodes.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 9;

/// Telemetry of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTelemetry {
    /// Canonical stage name (see [`StageId::name`]).
    pub stage: String,
    /// Wall-clock time spent in the stage, in milliseconds.
    pub wall_ms: f64,
    /// Items entering the stage (patterns, clusters, clips, …).
    pub items_in: usize,
    /// Items leaving the stage.
    pub items_out: usize,
    /// Worker threads that participated.
    pub threads_used: usize,
    /// Tasks executed across all workers (0 for untasked stages).
    pub tasks_executed: usize,
    /// Tasks a worker stole from another worker's queue.
    pub tasks_stolen: usize,
    /// Clip-kernel pairs admitted to SVM evaluation (by exact topology
    /// match or density routing).
    pub admissions: u64,
    /// Centroid-orientation rows the compiled admission router pruned
    /// without computing their full exact distance (mass gate + norm
    /// screen + early exit); 0 under the reference engine.
    pub admission_skips: u64,
}

impl StageTelemetry {
    /// An all-zero entry for a stage that did not run.
    pub fn empty(stage: StageId) -> Self {
        StageTelemetry {
            stage: stage.name().to_string(),
            wall_ms: 0.0,
            items_in: 0,
            items_out: 0,
            threads_used: 0,
            tasks_executed: 0,
            tasks_stolen: 0,
            admissions: 0,
            admission_skips: 0,
        }
    }

    /// Accumulates another record of the same stage into this one.
    pub(super) fn absorb(&mut self, other: &StageTelemetry) {
        self.wall_ms += other.wall_ms;
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.admissions += other.admissions;
        self.admission_skips += other.admission_skips;
    }
}

/// Telemetry of one pipeline run (a training phase, an evaluation phase,
/// or both merged).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTelemetry {
    /// Telemetry schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which phase this telemetry covers (`"training"`, `"detection"`, or
    /// `"training+detection"` after merging).
    pub phase: String,
    /// Worker threads configured for the run.
    pub threads: usize,
    /// Per-stage records in canonical pipeline order.
    pub stages: Vec<StageTelemetry>,
    /// Total wall-clock time of the phase, in milliseconds.
    pub total_wall_ms: f64,
    /// Observability sinks and endpoints active during the run: sink names
    /// in registration order, e.g. `["ndjson", "progress", "prometheus"]`.
    /// Empty for unobserved runs.
    pub obs_sinks: Vec<String>,
}

impl Default for PipelineTelemetry {
    fn default() -> Self {
        PipelineTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            phase: String::new(),
            threads: 0,
            stages: Vec::new(),
            total_wall_ms: 0.0,
            obs_sinks: Vec::new(),
        }
    }
}

impl PipelineTelemetry {
    /// The record for `stage`, when that stage ran.
    pub fn stage(&self, stage: StageId) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// Merges two phases (typically training + detection) into one record
    /// that carries **all eight** canonical stages, zero-filled where a
    /// stage ran in neither phase.
    pub fn merge(&self, other: &PipelineTelemetry) -> PipelineTelemetry {
        let stages = StageId::ALL
            .iter()
            .map(|&id| {
                let mut entry = StageTelemetry::empty(id);
                for source in [self, other] {
                    if let Some(s) = source.stage(id) {
                        entry.absorb(s);
                    }
                }
                entry
            })
            .collect();
        let mut obs_sinks = self.obs_sinks.clone();
        for name in &other.obs_sinks {
            if !obs_sinks.contains(name) {
                obs_sinks.push(name.clone());
            }
        }
        PipelineTelemetry {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            phase: format!("{}+{}", self.phase, other.phase),
            threads: self.threads.max(other.threads),
            stages,
            total_wall_ms: self.total_wall_ms + other.total_wall_ms,
            obs_sinks,
        }
    }

    /// A human-readable per-stage breakdown table, for the bench binaries
    /// and the CLI.
    ///
    /// Header and rows are rendered from one shared column spec
    /// (`BREAKDOWN_COLUMNS`), so stage names and every numeric column stay
    /// aligned by construction.
    pub fn breakdown(&self) -> String {
        let mut out = format!(
            "pipeline telemetry (schema v{}, phase {}, {} thread(s), total {:.2} ms)\n",
            self.schema_version, self.phase, self.threads, self.total_wall_ms
        );
        let header: Vec<String> = BREAKDOWN_COLUMNS
            .iter()
            .map(|(title, _)| (*title).to_string())
            .collect();
        out.push_str(&breakdown_row("stage", &header));
        for s in &self.stages {
            let cells = vec![
                format!("{:.3}", s.wall_ms),
                s.items_in.to_string(),
                s.items_out.to_string(),
                s.threads_used.to_string(),
                s.tasks_executed.to_string(),
                s.tasks_stolen.to_string(),
                s.admissions.to_string(),
                s.admission_skips.to_string(),
            ];
            out.push_str(&breakdown_row(&s.stage, &cells));
        }
        if !self.obs_sinks.is_empty() {
            let _ = writeln!(out, "  obs sinks: {}", self.obs_sinks.join(", "));
        }
        out
    }
}

/// Width of the left-aligned stage-name column in [`breakdown`]
/// (PipelineTelemetry::breakdown) output: the widest canonical stage name
/// (`topological_classification`, 26 chars) plus two spaces of air.
const STAGE_NAME_WIDTH: usize = 28;

/// The numeric columns of the breakdown table — `(header, width)` pairs
/// used for both the header and every data row, so the two can never
/// drift apart.
const BREAKDOWN_COLUMNS: [(&str, usize); 8] = [
    ("wall (ms)", 12),
    ("in", 9),
    ("out", 9),
    ("threads", 8),
    ("tasks", 7),
    ("stolen", 7),
    ("admitted", 9),
    ("adm-skips", 10),
];

/// Renders one breakdown line: the stage cell left-padded to
/// [`STAGE_NAME_WIDTH`], then each cell right-aligned to its column width.
fn breakdown_row(stage: &str, cells: &[String]) -> String {
    debug_assert_eq!(cells.len(), BREAKDOWN_COLUMNS.len());
    let mut line = format!("  {stage:<STAGE_NAME_WIDTH$}");
    for (cell, (_, width)) in cells.iter().zip(BREAKDOWN_COLUMNS) {
        let _ = write!(line, " {cell:>width$}");
    }
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageRecorder;
    use std::time::Duration;

    fn sample(phase: &str, stage: StageId) -> PipelineTelemetry {
        let mut rec = StageRecorder::new(phase, 2);
        rec.record(stage, 10, 4, Duration::from_millis(3), None);
        rec.finish()
    }

    #[test]
    fn merge_carries_all_canonical_stages() {
        let train = sample("training", StageId::KernelTraining);
        let detect = sample("detection", StageId::KernelEvaluation);
        let merged = train.merge(&detect);
        assert_eq!(merged.stages.len(), StageId::ALL.len());
        assert_eq!(merged.phase, "training+detection");
        for (entry, id) in merged.stages.iter().zip(StageId::ALL) {
            assert_eq!(entry.stage, id.name());
        }
        assert!(merged.stage(StageId::KernelTraining).unwrap().wall_ms > 0.0);
        assert_eq!(merged.stage(StageId::ClipRemoval).unwrap().items_in, 0);
        assert!((merged.total_wall_ms - train.total_wall_ms - detect.total_wall_ms).abs() < 1e-12);
    }

    #[test]
    fn serde_json_round_trip() {
        let t = sample("training", StageId::PopulationBalancing);
        let json = serde_json::to_string(&t).unwrap();
        let back: PipelineTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert!(json.contains("\"schema_version\":9"), "{json}");
        assert!(json.contains("\"obs_sinks\":[]"), "{json}");
        assert!(json.contains("\"admissions\""), "{json}");
        assert!(json.contains("\"admission_skips\""), "{json}");
        assert!(json.contains("population_balancing"), "{json}");
        for gone in ["batches", "timeouts", "resumed_tiles", "aborted_reason"] {
            assert!(!json.contains(gone), "{gone} in {json}");
        }
    }

    #[test]
    fn merge_unions_obs_sinks_preserving_order() {
        let mut a = PipelineTelemetry {
            phase: "training".to_string(),
            ..PipelineTelemetry::default()
        };
        a.obs_sinks = vec!["ndjson".to_string(), "prometheus".to_string()];
        let mut b = PipelineTelemetry {
            phase: "detection".to_string(),
            ..PipelineTelemetry::default()
        };
        b.obs_sinks = vec!["prometheus".to_string(), "progress".to_string()];
        let merged = a.merge(&b);
        assert_eq!(merged.obs_sinks, vec!["ndjson", "prometheus", "progress"]);
    }

    #[test]
    fn breakdown_rendering_is_pinned() {
        let mut t = PipelineTelemetry {
            phase: "detection".to_string(),
            threads: 2,
            total_wall_ms: 12.5,
            ..PipelineTelemetry::default()
        };
        let mut eval = StageTelemetry::empty(StageId::KernelEvaluation);
        eval.wall_ms = 3.25;
        eval.items_in = 128;
        eval.items_out = 5;
        eval.threads_used = 2;
        eval.tasks_executed = 2;
        eval.admissions = 96;
        eval.admission_skips = 1024;
        let mut removal = StageTelemetry::empty(StageId::ClipRemoval);
        removal.wall_ms = 0.5;
        removal.items_in = 5;
        removal.items_out = 3;
        removal.threads_used = 1;
        removal.tasks_executed = 1;
        t.stages = vec![eval, removal];
        let expected = "\
pipeline telemetry (schema v9, phase detection, 2 thread(s), total 12.50 ms)
  stage                           wall (ms)        in       out  threads   tasks  stolen  admitted  adm-skips
  kernel_evaluation                   3.250       128         5        2       2       0        96       1024
  clip_removal                        0.500         5         3        1       1       0         0          0
";
        assert_eq!(t.breakdown(), expected);
        // Header and every row share the column spec, so all lines after
        // the summary have equal length.
        let rendered = t.breakdown();
        let lines: Vec<&str> = rendered.lines().skip(1).map(str::trim_end).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        // An observed run appends the sink list.
        t.obs_sinks = vec!["ndjson".to_string(), "prometheus".to_string()];
        assert!(t.breakdown().ends_with("  obs sinks: ndjson, prometheus\n"));
    }
}
