//! `BENCHMARK.json` at the repository root agrees with the metric and
//! workload catalogue, and the binary prints every metric it names.

use std::path::Path;
use std::process::Command;

use disco_benchmark::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use disco_benchmark::report::verdict_json;
use disco_benchmark::run::SampleMap;
use disco_benchmark::Workload;
use disco_pareto::json::parse_flat_object;

/// One entry of a `BENCHMARK.json` list, by section.
struct Entry {
    section: String,
    fields: std::collections::BTreeMap<String, String>,
}

/// The list entries of `BENCHMARK.json`, which keeps one entry per line.
fn entries() -> Vec<Entry> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix('"') {
            if let Some((key, _)) = rest.split_once('"') {
                section = key.to_string();
            }
        } else if let Some(fields) = parse_flat_object(line) {
            out.push(Entry {
                section: section.clone(),
                fields,
            });
        }
    }
    out
}

fn section(name: &str) -> Vec<Entry> {
    entries()
        .into_iter()
        .filter(|e| e.section == name)
        .collect()
}

fn assert_matches(section_name: &str, defs: &[MetricDef], max: usize) {
    let listed = section(section_name);
    assert!(
        !listed.is_empty() && listed.len() <= max,
        "{section_name}: {} metrics",
        listed.len()
    );
    assert_eq!(
        listed.len(),
        defs.len(),
        "{section_name} lists every metric"
    );
    for (entry, def) in listed.iter().zip(defs) {
        let f = &entry.fields;
        assert_eq!(f["name"], def.name, "{section_name} order");
        assert!(valid_name(def.name), "{} is a legal name", def.name);
        assert_eq!(f["unit"], def.unit, "{} unit", def.name);
        assert_eq!(f["better"], def.better.name(), "{} direction", def.name);
    }
}

#[test]
fn metrics_match_the_catalogue() {
    assert_matches("end_to_end", END_TO_END, 16);
    assert_matches("per_layer", PER_LAYER, 128);
    let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "every name is used once");
    for e in section("end_to_end") {
        let bound: f64 = e.fields["bound"].parse().expect("numeric bound");
        assert!((0.0..=0.25).contains(&bound), "{} bound", e.fields["name"]);
    }
    let setup = section("end_to_end")
        .into_iter()
        .find(|e| e.fields["name"] == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.fields["unit"], "s");
    assert_eq!(setup.fields["better"], "lower");
}

#[test]
fn workloads_match_the_catalogue() {
    let listed: Vec<String> = section("workloads")
        .into_iter()
        .map(|e| e.fields["name"].clone())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
}

#[test]
fn verdict_names_every_metric() {
    for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
        let line = verdict_json(true, 1, 0, &SampleMap::new(), traced);
        for d in defs {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{}",
                d.name
            );
        }
    }
}

/// Runs the binary on the cheapest workload, one trial, from a
/// throwaway directory.
fn run_binary(trace: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "disco-benchmark-bin-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_disco-benchmark"))
        .current_dir(&dir)
        .args(["--workload", "noc-16x16", "--seed", "2016"])
        .args(["--seconds", "0", "--trace", trace])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn binary_prints_every_metric_in_its_last_line() {
    for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let stdout = run_binary(trace);
        let last = stdout.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        for d in defs {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            assert!(last.contains(&key), "--trace {trace} omits {}", d.name);
        }
        assert!(stdout.contains("host: nproc="), "provenance is printed");
    }
}

#[test]
fn bad_arguments_fail_without_a_verdict() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "noc-16x16", "--trace", "2"],
        &["--workload", "noc-16x16", "--bogus", "1"],
        &["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_disco-benchmark"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
