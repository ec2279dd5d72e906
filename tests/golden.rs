//! Golden digests: absolute pins on the streaming scan's output.
//!
//! Every other equivalence test compares two paths of the same build, so a
//! refactor that changed both sides at once would pass them all. These
//! values were recorded once and must never change: for each benchmark the
//! FNV-1a 64 hash of `ScanReport::digest()` and the reported hotspot count,
//! trained and scanned at 1 and at 2 threads (tiny scale, Table-I seed).

use hotspot_suite::benchgen::{iccad_suite, Benchmark, SuiteScale};
use hotspot_suite::core::journal::fnv1a;
use hotspot_suite::core::{HotspotDetector, ScanConfig};

fn assert_golden(name: &str, hash: u64, reported: usize) {
    let spec = iccad_suite(SuiteScale::Tiny)
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark");
    let bm = Benchmark::generate(spec);
    for threads in [1, 2] {
        let report = HotspotDetector::builder()
            .threads(threads)
            .train(&bm.training)
            .expect("training")
            .scan_layout(&bm.layout, bm.layer, &ScanConfig::default())
            .expect("scan");
        let got = (fnv1a(report.digest().as_bytes()), report.reported.len());
        assert_eq!(
            got,
            (hash, reported),
            "{name} at {threads} thread(s): got ({:#018x}, {}), golden ({hash:#018x}, {reported})",
            got.0,
            got.1
        );
    }
}

#[test]
fn array_benchmark2_matches_its_golden_digest() {
    assert_golden("array_benchmark2", 0xf71c_329e_8388_c785, 254);
}

#[test]
fn array_benchmark3_matches_its_golden_digest() {
    assert_golden("array_benchmark3", 0xca12_b77a_c1fa_5237, 88);
}

#[test]
fn mx_blind_partial_matches_its_golden_digest() {
    assert_golden("mx_blind_partial", 0x145b_2c68_7ab1_2766, 26);
}
