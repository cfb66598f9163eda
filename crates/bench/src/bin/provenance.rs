//! Latency provenance: where does each packet's latency go, and how much
//! codec latency does DISCO hide inside queuing? Regenerates the
//! EXPERIMENTS.md "Latency provenance" tables for CC vs CNC vs DISCO on
//! the fig5 workloads, and exports one Perfetto-loadable sample trace.
//!
//! `cargo run --release -p disco-bench --bin provenance \
//!     [-- --out-dir results]`

use disco_bench::{mean, trace_len, DEFAULT_SEED};
use disco_compress::SchemeKind;
use disco_core::{CompressionPlacement, SimBuilder, SimReport};
use disco_trace::ProvenanceTotals;
use disco_workloads::Benchmark;
use std::process::ExitCode;

/// The three compressing placements the paper contrasts (Fig. 5).
const PLACEMENTS: [CompressionPlacement; 3] = [
    CompressionPlacement::CacheOnly,
    CompressionPlacement::CacheAndNi,
    CompressionPlacement::Disco,
];

fn run_traced(benchmark: Benchmark, placement: CompressionPlacement, retain: bool) -> SimReport {
    SimBuilder::new()
        .mesh(4, 4)
        .placement(placement)
        .scheme(SchemeKind::Delta)
        .benchmark(benchmark)
        .trace_len(trace_len())
        .seed(DEFAULT_SEED)
        .capture_trace(true)
        .retain_trace_records(retain)
        .run()
        .unwrap_or_else(|e| panic!("{benchmark}/{placement}: {e}"))
}

/// Accumulates totals across benchmarks (component sums stay exact under
/// addition, so the aggregate decomposition still sums to the aggregate
/// latency).
fn accumulate(into: &mut ProvenanceTotals, t: &ProvenanceTotals) {
    into.packets += t.packets;
    into.incomplete += t.incomplete;
    into.latency_cycles += t.latency_cycles;
    into.protocol_cycles += t.protocol_cycles;
    into.serialization_cycles += t.serialization_cycles;
    into.link_cycles += t.link_cycles;
    into.queuing_cycles += t.queuing_cycles;
    into.codec_cycles += t.codec_cycles;
    into.codec_hidden_cycles += t.codec_hidden_cycles;
    into.codec_exposed_cycles += t.codec_exposed_cycles;
    into.endpoint_codec_cycles += t.endpoint_codec_cycles;
}

fn pct(part: i64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

fn coverage(t: &ProvenanceTotals) -> f64 {
    let denom = t.codec_hidden_cycles + t.codec_exposed_cycles + t.endpoint_codec_cycles;
    if denom == 0 {
        return 0.0;
    }
    t.codec_hidden_cycles as f64 / denom as f64
}

fn main() -> ExitCode {
    let mut out_dir = "results".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--out-dir", Some(v)) => out_dir = v,
            (other, _) => {
                eprintln!("provenance: unknown or valueless flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let len = trace_len();
    println!("provenance: 4x4 mesh, delta codec, {len} accesses/core, seed {DEFAULT_SEED}");
    println!();

    // Per-placement aggregate decomposition + per-benchmark coverage.
    let mut agg = [ProvenanceTotals::default(); PLACEMENTS.len()];
    let mut cov: Vec<[f64; PLACEMENTS.len()]> = Vec::new();
    for &benchmark in &Benchmark::ALL {
        let mut row = [0.0; PLACEMENTS.len()];
        for (pi, &placement) in PLACEMENTS.iter().enumerate() {
            let report = run_traced(benchmark, placement, false);
            let t = report.trace.as_ref().expect("capture requested");
            let p = &t.provenance;
            assert!(
                p.exact,
                "{benchmark}/{placement}: decomposition must sum exactly"
            );
            assert_eq!(
                p.totals.incomplete, 0,
                "{benchmark}/{placement}: lossless capture tracks every packet"
            );
            assert_eq!(
                p.totals.latency_cycles, report.network.total_packet_latency,
                "{benchmark}/{placement}: provenance must cover the NoC latency total"
            );
            accumulate(&mut agg[pi], &p.totals);
            row[pi] = p.hidden_coverage();
        }
        cov.push(row);
    }

    println!("=== where the latency goes (% of total packet latency) ===");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "placement", "protocol", "serialize", "link", "queuing", "codec", "cycles/pkt"
    );
    for (pi, &placement) in PLACEMENTS.iter().enumerate() {
        let t = &agg[pi];
        println!(
            "{:<10} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>12.2}",
            placement.name(),
            pct(t.protocol_cycles, t.latency_cycles),
            pct(t.serialization_cycles, t.latency_cycles),
            pct(t.link_cycles, t.latency_cycles),
            pct(t.queuing_cycles, t.latency_cycles),
            pct(t.codec_cycles, t.latency_cycles),
            t.latency_cycles as f64 / t.packets.max(1) as f64,
        );
    }
    println!();

    println!("=== hidden-latency coverage (hidden / all codec cycles) ===");
    println!(
        "{:<14} {:>9} {:>9} {:>9}",
        "benchmark", "CC", "CNC", "DISCO"
    );
    for (bi, &benchmark) in Benchmark::ALL.iter().enumerate() {
        let row = cov[bi];
        println!(
            "{:<14} {:>9.3} {:>9.3} {:>9.3}",
            benchmark.name(),
            row[0],
            row[1],
            row[2]
        );
        assert!(
            row[2] > row[1],
            "{benchmark}: DISCO must hide more codec latency than CNC"
        );
    }
    let means: Vec<f64> = (0..PLACEMENTS.len())
        .map(|pi| mean(&cov.iter().map(|r| r[pi]).collect::<Vec<_>>()))
        .collect();
    println!(
        "{:<14} {:>9.3} {:>9.3} {:>9.3}",
        "mean", means[0], means[1], means[2]
    );
    println!();
    for (pi, &placement) in PLACEMENTS.iter().enumerate() {
        println!(
            "{}: aggregate coverage {:.3} (hidden {} / exposed {} / endpoint {})",
            placement.name(),
            coverage(&agg[pi]),
            agg[pi].codec_hidden_cycles,
            agg[pi].codec_exposed_cycles,
            agg[pi].endpoint_codec_cycles,
        );
    }

    // Sample export: one DISCO run with raw records retained.
    let sample = run_traced(Benchmark::Blackscholes, CompressionPlacement::Disco, true);
    let t = sample.trace.as_ref().expect("capture requested");
    assert!(!t.records.is_empty(), "sample run must record events");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("provenance: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    let json_path = format!("{out_dir}/trace_disco_4x4.json");
    let jsonl_path = format!("{out_dir}/trace_disco_4x4.jsonl");
    let chrome = disco_trace::export::chrome_trace_string(&t.records);
    let jsonl = disco_trace::export::jsonl_string(&t.records);
    if let Err(e) =
        std::fs::write(&json_path, chrome).and_then(|()| std::fs::write(&jsonl_path, jsonl))
    {
        eprintln!("provenance: export failed: {e}");
        return ExitCode::FAILURE;
    }
    println!();
    println!(
        "provenance: exported {} events -> {json_path} (Perfetto/chrome://tracing), {jsonl_path}",
        t.records.len()
    );
    ExitCode::SUCCESS
}
