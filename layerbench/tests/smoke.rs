//! The benchmark's own smoke test: every workload at tiny scale, one op
//! each, traced and untraced; every metric named in `BENCHMARK.json` must
//! be printed with its unit, and every run must be correct.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct BenchSpec {
    workloads: Vec<Named>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let spec: BenchSpec = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    assert_eq!(spec.workloads.len(), 4);
    for workload in &spec.workloads {
        let spans =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}.spans.tsv", workload.name));
        for (trace, metrics) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_hotspot-layerbench"));
            cmd.current_dir(&root)
                .args(["--workload", &workload.name, "--seed", "3"])
                // So short a budget that exactly one timed op runs.
                .args(["--seconds", "0.000001", "--trace", trace, "--scale", "tiny"]);
            if trace == "1" {
                cmd.arg("--spans").arg(&spans);
            }
            let out = cmd.output().expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed: {}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Result = serde_json::from_str(last).expect("parse the result line");
            assert!(
                result.correct,
                "{} --trace {trace}: {stdout}",
                workload.name
            );
            assert_eq!(result.failed, 0);
            assert_eq!(result.attempted, if trace == "1" { 2 } else { 1 });
            assert_eq!(result.metrics.len(), metrics.len());
            for m in metrics.iter() {
                let got = result
                    .metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{}: metric {} missing", workload.name, m.name));
                assert_eq!(got.unit, m.unit, "{}: unit of {}", workload.name, m.name);
                assert!(got.value.is_finite());
                let line = format!("{} = {} {}", m.name, got.value, m.unit);
                assert!(
                    stdout.lines().any(|l| l == line),
                    "{}: `{line}` not printed",
                    workload.name
                );
            }
        }
        // The traced run wrote its spans: a header, then the op span first.
        let tsv = std::fs::read_to_string(&spans).expect("read the span dump");
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("id\tparent\top\tname\tstart_ns\tend_ns"));
        let first: Vec<&str> = lines.next().expect("an op span").split('\t').collect();
        assert_eq!(&first[..4], &["0", "-1", "1", "op"]);
        assert!(
            lines.count() > 1,
            "{}: the op has child spans",
            workload.name
        );
    }
}
