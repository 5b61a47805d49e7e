//! The benchmark at tiny sizes: every metric `BENCHMARK.json` names is
//! printed with its unit on every workload, and the correctness gate
//! trips on a deliberately wrong expected answer.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["serve_read", "ingest", "bulk_load"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let len = rest[open..].find('"').expect("value closes");
        rest[open..open + len].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_psql-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--objects", "2000"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark")
}

fn last_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_owned()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for workload in WORKLOADS {
            let out = run(workload, trace, &[]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}"
            );
            let result = last_line(&out);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            for (name, unit) in &metrics {
                let at = result
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {result}"));
                let entry = &result[at..at + result[at..].find('}').expect("entry closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} printed as {entry}, expected unit {unit}"
                );
                assert!(
                    stdout.lines().any(|l| l.starts_with("metric ")
                        && l.split_whitespace().nth(1) == Some(name.as_str())
                        && l.contains(" n=")),
                    "{workload}: no readable line with the sample count of {name}"
                );
            }
        }
    }
}

#[test]
fn gate_trips_on_a_wrong_expected_answer() {
    for workload in WORKLOADS {
        let out = run(workload, 0, &["--wrong-expectation"]);
        let result = last_line(&out);
        assert!(!out.status.success(), "{workload}: wrong answer accepted");
        assert!(
            result.starts_with("{\"correct\": false, "),
            "{workload}: {result}"
        );
    }
}
