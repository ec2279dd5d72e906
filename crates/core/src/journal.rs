//! Durable append-only checkpoint journal for [`scan_layout`].
//!
//! A journaled scan ([`crate::ScanConfig::journal`]) appends one record per
//! *successfully* processed tile — its stable tile id plus the canonical
//! [`TileOutcomeRecord`] — and fsyncs once per in-flight batch. When a scan
//! is killed mid-run, resuming with [`crate::ScanConfig::resume_from`]
//! replays the journal's valid prefix, skips every completed tile, and
//! recomputes only the rest, producing a [`crate::ScanReport`] whose
//! deterministic content is bit-identical to an uninterrupted run.
//!
//! # Record format
//!
//! The journal is line-oriented. Every line — the header included — is
//!
//! ```text
//! <fnv1a64 of payload, 16 lowercase hex digits> <payload JSON>\n
//! ```
//!
//! The first line's payload is a [`JournalHeader`] fingerprinting the scan
//! (grid geometry, layer, decision-threshold bits); resuming against a
//! journal whose header disagrees with the current scan is refused rather
//! than silently mixing results. Subsequent payloads are [`TileRecord`]s.
//!
//! Readers stop at the first line that is truncated (no trailing newline),
//! malformed, or checksum-mismatched, and report the byte length of the
//! valid prefix; the resume writer truncates the file to that prefix before
//! appending, so a torn final write from a kill is discarded cleanly.
//! Failed (quarantined) tiles are never journaled — a resumed scan retries
//! them from scratch.
//!
//! [`scan_layout`]: crate::HotspotDetector::scan_layout

use crate::engine::FaultPlan;
use crate::obs::{Counter, ObsEvent, ObsHub};
use hotspot_geom::Rect;
use hotspot_layout::LayerId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

/// Magic string identifying a scan journal.
pub const JOURNAL_MAGIC: &str = "hotspot-scan-journal";

/// Version of the journal record format.
pub const JOURNAL_VERSION: u32 = 1;

/// The header payload fingerprinting the scan a journal belongs to.
///
/// Two scans produce interchangeable journals iff their headers are equal:
/// the grid (`tiles_total`, `tile_cores`), the scanned `layer`, and the
/// exact decision threshold (`threshold_bits`, the `f64` bit pattern, so
/// equality is exact rather than approximate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`JOURNAL_MAGIC`].
    pub magic: String,
    /// Always [`JOURNAL_VERSION`].
    pub version: u32,
    /// Tiles in the scan grid, including empty ones.
    pub tiles_total: usize,
    /// The scan's [`crate::ScanConfig::tile_cores`].
    pub tile_cores: usize,
    /// The scanned layer.
    pub layer: LayerId,
    /// Bit pattern of the decision threshold the scan evaluates at.
    pub threshold_bits: u64,
}

impl JournalHeader {
    /// Builds the header for a scan over `tiles_total` tiles.
    pub fn new(tiles_total: usize, tile_cores: usize, layer: LayerId, threshold: f64) -> Self {
        JournalHeader {
            magic: JOURNAL_MAGIC.to_string(),
            version: JOURNAL_VERSION,
            tiles_total,
            tile_cores,
            layer,
            threshold_bits: threshold.to_bits(),
        }
    }
}

/// The canonical result of one successfully processed tile.
///
/// This is exactly the tile state `scan_layout` folds into its report —
/// replaying it is equivalent to re-running the tile, which is why resumed
/// reports are bit-identical to uninterrupted ones.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TileOutcomeRecord {
    /// The tile was discarded by the density prefilter.
    Prefiltered,
    /// The tile's clips were extracted and evaluated.
    Evaluated {
        /// Candidate clips extracted from the tile.
        clips: usize,
        /// Clips flagged hotspot by the multiple kernels.
        flagged: usize,
        /// Flags reclaimed to nonhotspot by the feedback kernel.
        reclaimed: usize,
        /// Core rectangles of the surviving flags, in extraction order.
        flagged_cores: Vec<Rect>,
    },
}

/// One journal line: a tile id plus its canonical outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileRecord {
    /// Stable tile id (`iy * grid_cols + ix`), thread-count-invariant.
    pub tile: usize,
    /// What the tile produced.
    pub outcome: TileOutcomeRecord,
}

/// FNV-1a 64-bit hash of `bytes` — the per-line checksum. Shared with the
/// tile result cache ([`crate::tile_cache`]), which frames its entries the
/// same way.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Frames `payload` as one checksummed journal line.
pub(crate) fn frame(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

/// Parses one framed line (without its trailing newline) back into its
/// payload, verifying the checksum. `None` when malformed or corrupt.
pub(crate) fn unframe(line: &str) -> Option<&str> {
    let (hex, payload) = line.split_at_checked(17)?;
    let (hex, sep) = hex.split_at_checked(16)?;
    if sep != " " {
        return None;
    }
    let expected = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a(payload.as_bytes()) == expected).then_some(payload)
}

/// The valid prefix of a journal file, as read back for resume.
#[derive(Debug)]
pub struct JournalContents {
    /// The fingerprint header the journal was created with.
    pub header: JournalHeader,
    /// Completed tiles: stable tile id → canonical outcome. Later records
    /// for the same tile win (there are none in practice — tiles are
    /// journaled exactly once).
    pub records: HashMap<usize, TileOutcomeRecord>,
    /// Byte length of the valid prefix; everything past it is a torn or
    /// corrupt tail to be truncated away before appending.
    pub valid_len: u64,
}

/// Reads the valid prefix of the journal at `path`.
///
/// Stops — without erroring — at the first truncated, malformed, or
/// checksum-mismatched line; those and everything after are excluded from
/// [`JournalContents::valid_len`].
///
/// # Errors
///
/// Returns an I/O error when the file cannot be read, and
/// `InvalidData` when the first line is not a valid journal header.
pub fn read_journal(path: &Path) -> io::Result<JournalContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let text = String::from_utf8_lossy(&bytes);

    let mut header: Option<JournalHeader> = None;
    let mut records = HashMap::new();
    let mut valid_len = 0u64;
    let mut rest: &str = &text;
    while let Some(nl) = rest.find('\n') {
        let line = &rest[..nl];
        let Some(payload) = unframe(line) else { break };
        if header.is_none() {
            let h: JournalHeader = serde_json::from_str(payload).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad journal header: {e}"),
                )
            })?;
            if h.magic != JOURNAL_MAGIC || h.version != JOURNAL_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "not a v{JOURNAL_VERSION} scan journal (magic {:?}, version {})",
                        h.magic, h.version
                    ),
                ));
            }
            header = Some(h);
        } else {
            let Ok(record) = serde_json::from_str::<TileRecord>(payload) else {
                break;
            };
            records.insert(record.tile, record.outcome);
        }
        valid_len += (nl + 1) as u64;
        rest = &rest[nl + 1..];
    }
    let header = header.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "journal has no valid header line",
        )
    })?;
    Ok(JournalContents {
        header,
        records,
        valid_len,
    })
}

/// Append-only journal writer with per-batch durability.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    appended: usize,
    dirty: bool,
    obs: Option<Arc<ObsHub>>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<Self> {
        let mut file = File::create(path)?;
        let payload = serde_json::to_string(header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        file.write_all(frame(&payload).as_bytes())?;
        file.sync_data()?;
        Ok(JournalWriter {
            file,
            appended: 0,
            dirty: false,
            obs: None,
        })
    }

    /// Reopens the journal at `path` for appending after a resume:
    /// truncates the file to `valid_len` (discarding any torn tail) and
    /// seeks to its end.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn resume(path: &Path, valid_len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(JournalWriter {
            file,
            appended: 0,
            dirty: false,
            obs: None,
        })
    }

    /// Attaches an observability hub: appends and syncs are counted into
    /// the hub's lock-free counters and each durable sync emits an
    /// [`ObsEvent::JournalSynced`] event. Without a hub each journal
    /// operation performs exactly one extra branch.
    pub fn set_obs(&mut self, hub: Arc<ObsHub>) {
        self.obs = Some(hub);
    }

    /// Appends one tile record. Durability is deferred to
    /// [`sync`](Self::sync), called once per batch.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error — or a simulated one when `fault`
    /// marks this append ([`FaultPlan::fails_journal_at`], counted from 0
    /// over this writer's lifetime).
    pub fn append(&mut self, record: &TileRecord, fault: &FaultPlan) -> io::Result<()> {
        if fault.fails_journal_at(self.appended) {
            self.appended += 1;
            return Err(io::Error::other(format!(
                "injected journal fault at record {}",
                self.appended - 1
            )));
        }
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.file.write_all(frame(&payload).as_bytes())?;
        self.appended += 1;
        self.dirty = true;
        if let Some(hub) = &self.obs {
            hub.counters().add(Counter::JournalAppends, 1);
        }
        Ok(())
    }

    /// Flushes appended records to durable storage (`fsync`), a no-op when
    /// nothing was appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.flush()?;
            self.file.sync_data()?;
            self.dirty = false;
            if let Some(hub) = &self.obs {
                hub.counters().add(Counter::JournalSyncs, 1);
                let appended = self.appended;
                hub.emit(|| ObsEvent::JournalSynced { appended });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hotspot-journal-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    fn sample_header() -> JournalHeader {
        JournalHeader::new(12, 4, LayerId::METAL1, 0.5)
    }

    fn sample_record(tile: usize) -> TileRecord {
        TileRecord {
            tile,
            outcome: TileOutcomeRecord::Evaluated {
                clips: 3,
                flagged: 1,
                reclaimed: 0,
                flagged_cores: vec![Rect::from_extents(0, 0, 100, 100)],
            },
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = temp_path("round-trip");
        let header = sample_header();
        let mut w = JournalWriter::create(&path, &header).unwrap();
        w.append(&sample_record(0), &FaultPlan::default()).unwrap();
        let prefiltered = TileRecord {
            tile: 5,
            outcome: TileOutcomeRecord::Prefiltered,
        };
        w.append(&prefiltered, &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.header, header);
        assert_eq!(contents.records.len(), 2);
        assert_eq!(
            contents.records[&5],
            TileOutcomeRecord::Prefiltered,
            "prefiltered tile replays as prefiltered"
        );
        assert!(matches!(
            contents.records[&0],
            TileOutcomeRecord::Evaluated { clips: 3, .. }
        ));
        assert_eq!(contents.valid_len, fs::metadata(&path).unwrap().len());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_ignored_and_resume_discards_it() {
        let path = temp_path("truncated");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append(&sample_record(0), &FaultPlan::default()).unwrap();
        w.append(&sample_record(1), &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);

        // Tear the final record mid-line, as a kill mid-write would.
        let bytes = fs::read(&path).unwrap();
        let full = read_journal(&path).unwrap();
        assert_eq!(full.records.len(), 2);
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let torn = read_journal(&path).unwrap();
        assert_eq!(torn.records.len(), 1, "torn record excluded");
        assert!(torn.records.contains_key(&0));
        assert!((torn.valid_len as usize) < bytes.len() - 7);

        // Resuming truncates to the valid prefix, then appends cleanly.
        let mut w = JournalWriter::resume(&path, torn.valid_len).unwrap();
        w.append(&sample_record(1), &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);
        let healed = read_journal(&path).unwrap();
        assert_eq!(healed.records.len(), 2);
        assert_eq!(
            fs::read(&path).unwrap(),
            bytes,
            "healed journal is byte-identical"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_the_reader() {
        let path = temp_path("corrupt");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append(&sample_record(0), &FaultPlan::default()).unwrap();
        w.append(&sample_record(1), &FaultPlan::default()).unwrap();
        w.sync().unwrap();
        drop(w);

        // Flip a byte inside the second record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 10] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1, "corrupt record and tail dropped");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_bad_header_is_an_error() {
        let path = temp_path("bad-header");
        fs::write(&path, "not a journal at all\n").unwrap();
        assert!(read_journal(&path).is_err());
        fs::write(&path, frame("{\"magic\":\"something-else\",\"version\":1,\"tiles_total\":0,\"tile_cores\":1,\"layer\":1,\"threshold_bits\":0}")).unwrap();
        assert!(read_journal(&path).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_journal_fault_fails_the_chosen_append() {
        let path = temp_path("fault");
        let plan = FaultPlan {
            fail_journal_at: Some(1),
            ..Default::default()
        };
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        assert!(w.append(&sample_record(0), &plan).is_ok());
        assert!(w.append(&sample_record(1), &plan).is_err());
        assert!(
            w.append(&sample_record(2), &plan).is_ok(),
            "only the chosen record fails"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_framing_rejects_tampering() {
        let line = frame("{\"x\":1}");
        assert_eq!(unframe(line.trim_end()), Some("{\"x\":1}"));
        let tampered = line.replace("\"x\":1", "\"x\":2");
        assert_eq!(unframe(tampered.trim_end()), None);
        assert_eq!(unframe("short"), None);
        assert_eq!(unframe("zzzzzzzzzzzzzzzz {\"x\":1}"), None);
    }
}
