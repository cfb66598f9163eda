//! Rendering results: the human-readable summary, the one-line JSON
//! verdict, and the JSONL record files.

use std::fmt::Write as _;

use disco_pareto::json::json_escape;

use crate::host::Host;
use crate::metrics::{MetricDef, END_TO_END, EXTRA, PER_LAYER};
use crate::run::{SampleMap, Samples};
use crate::spans::Span;
use crate::stats::{median, quartiles, tail_percentile};
use crate::workloads::DSE_WORKERS;

/// A number as JSON: every digit, and `0` for anything non-finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The host line every output carries. `threads` is the most any trial
/// runs: `dse-4x4`'s exploration workers, the other workloads being
/// single-threaded.
pub fn provenance(host: &Host) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" features=none revision={} threads={DSE_WORKERS}",
        host.nproc, host.cpu, host.rustc, host.revision
    )
}

/// Catalogue order first (end-to-end, extras, per-layer), then the rest
/// alphabetically.
fn ordered(samples: &SampleMap) -> Vec<(&str, &Samples)> {
    let catalogue: Vec<&MetricDef> = END_TO_END.iter().chain(EXTRA).chain(PER_LAYER).collect();
    let mut out: Vec<(&str, &Samples)> = catalogue
        .iter()
        .filter_map(|d| samples.get_key_value(d.name))
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    out.extend(
        samples
            .iter()
            .filter(|(k, _)| !catalogue.iter().any(|d| d.name == k.as_str()))
            .map(|(k, v)| (k.as_str(), v)),
    );
    out
}

/// One line per metric: median, quartiles, sample count, and the p90
/// when at least ten samples lie beyond it.
pub fn summary_lines(samples: &SampleMap) -> Vec<String> {
    ordered(samples)
        .into_iter()
        .filter_map(|(name, s)| {
            let med = median(&s.values)?;
            let (q1, q3) = quartiles(&s.values)?;
            let mut line = format!(
                "  {name:<40} {med:>14.6} {:<6} q1 {q1:.6} q3 {q3:.6} n={}",
                s.unit,
                s.values.len()
            );
            if let Some(p90) = tail_percentile(&s.values, 0.9) {
                let _ = write!(line, " p90 {p90:.6}");
            }
            Some(line)
        })
        .collect()
}

/// The last line of a run's output: the verdict and, as medians, every
/// end-to-end metric (untraced) or every per-layer metric (traced).
/// A metric with no samples (a layer the workload never calls) is 0.
pub fn verdict_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    samples: &SampleMap,
    traced: bool,
) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = samples
                .get(d.name)
                .and_then(|s| median(&s.values))
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// JSONL record of the host.
pub fn host_record(host: &Host) -> String {
    format!(
        "{{\"type\":\"host\",\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"features\":\"none\",\
         \"revision\":\"{}\",\"threads\":{DSE_WORKERS}}}",
        host.nproc,
        json_escape(&host.cpu),
        json_escape(&host.rustc),
        json_escape(&host.revision)
    )
}

/// A run's verdict and fingerprint as it goes into a JSONL record.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed.
    pub seed: u64,
    /// No run failed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// Result fingerprint.
    pub fingerprint: Option<u64>,
    /// Whether the fingerprint was checked against a pinned value.
    pub pinned: bool,
    /// Trial kinds in execution order.
    pub order: String,
}

/// Renders a fingerprint as printed everywhere.
pub fn hex(fp: Option<u64>) -> String {
    fp.map_or_else(|| "none".to_string(), |f| format!("{f:#018x}"))
}

/// JSONL record of a run's verdict.
pub fn run_record(v: &Verdict<'_>) -> String {
    format!(
        "{{\"type\":\"run\",\"workload\":\"{}\",\"seed\":{},\"correct\":{},\"attempted\":{},\
         \"failed\":{},\"fingerprint\":\"{}\",\"check\":\"{}\",\"order\":\"{}\"}}",
        json_escape(v.workload),
        v.seed,
        v.correct,
        v.attempted,
        v.failed,
        hex(v.fingerprint),
        if v.pinned { "pinned" } else { "unchecked" },
        json_escape(&v.order)
    )
}

/// JSONL records of every metric: summary statistics plus the raw
/// samples, space-separated.
pub fn metric_records(workload: &str, samples: &SampleMap) -> Vec<String> {
    ordered(samples)
        .into_iter()
        .map(|(name, s)| {
            let stat = |v: Option<f64>| v.map_or_else(|| "null".to_string(), num);
            let (q1, q3) = quartiles(&s.values).unzip();
            let values: Vec<String> = s.values.iter().map(|&v| num(v)).collect();
            format!(
                "{{\"type\":\"metric\",\"workload\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\
                 \"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p90\":{},\"samples\":\"{}\"}}",
                json_escape(workload),
                json_escape(name),
                json_escape(&s.unit),
                s.values.len(),
                stat(median(&s.values)),
                stat(q1),
                stat(q3),
                stat(tail_percentile(&s.values, 0.9)),
                values.join(" ")
            )
        })
        .collect()
}

/// JSONL records of spans.
pub fn span_records(workload: &str, spans: &[Span]) -> Vec<String> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"type\":\"span\",\"workload\":\"{}\",\"run\":{},\"id\":{id},\"parent\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                json_escape(workload),
                s.run,
                s.parent.map_or(-1, |p| p as i64),
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect()
}
