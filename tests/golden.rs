//! Golden-file regression tests: fixed-seed simulations must reproduce
//! their recorded stats byte-for-byte. Any intentional change to the
//! simulator's behaviour shows up here as a readable stats diff.
//!
//! Two files are pinned: `tests/golden_stats.txt` (the default DISCO
//! run) and `tests/golden_disco_variants.txt` (the same run once per
//! engine parameter the default leaves off, plus one traced run whose
//! JSONL export is pinned by checksum). `UPDATE_GOLDEN=1 cargo test
//! --test golden` (`just update-golden`) rewrites both.

use disco::core::{CompressionPlacement, DiscoParams, SimBuilder};
use disco::workloads::Benchmark;
use std::path::Path;

const GOLDEN_FILES: &str = "tests/golden_stats.txt and tests/golden_disco_variants.txt";

/// The golden run's setup: 2×2 DISCO mesh, dedup, 400 accesses per core.
fn golden_builder() -> SimBuilder {
    SimBuilder::new()
        .mesh(2, 2)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Dedup)
        .trace_len(400)
        .seed(2016)
}

fn stats_text(builder: SimBuilder) -> (String, disco::core::SimReport) {
    let report = builder.run().expect("golden run drains");
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    (String::from_utf8(buf).expect("stats are utf8"), report)
}

/// Compares `current` against the file at `rel`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(rel: &str, current: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing {golden_path:?}; `UPDATE_GOLDEN=1 cargo test --test golden` \
             (`just update-golden`) regenerates {GOLDEN_FILES}"
        )
    });
    if golden != current {
        // Produce a line diff so the regression is readable.
        let mut diff = String::new();
        for (g, c) in golden.lines().zip(current.lines()) {
            if g != c {
                diff.push_str(&format!("  - {g}\n  + {c}\n"));
            }
        }
        if golden.lines().count() != current.lines().count() {
            diff.push_str("  (line counts differ)\n");
        }
        panic!(
            "fixed-seed output diverged from {rel} (intentional? \
             `UPDATE_GOLDEN=1 cargo test --test golden` regenerates {GOLDEN_FILES}):\n{diff}"
        );
    }
}

#[test]
fn fixed_seed_run_matches_golden_stats() {
    let (current, _) = stats_text(golden_builder());
    // The golden run never arms a fault plan, so no `faults.*` keys may
    // appear (fault keys are written only for runs that armed one).
    assert!(
        !current.contains("faults."),
        "fault keys leaked into a fault-free run"
    );
    check_golden("tests/golden_stats.txt", &current);
}

/// The golden run once per engine parameter the default run leaves
/// off: blocking decompression (VC locked for the whole operation), two
/// engines per router, and adaptive thresholds.
fn engine_variants() -> [(&'static str, DiscoParams); 3] {
    let base = DiscoParams::default();
    [
        (
            "blocking",
            DiscoParams {
                non_blocking: false,
                ..base
            },
        ),
        (
            "engines_per_router_2",
            DiscoParams {
                engines_per_router: 2,
                ..base
            },
        ),
        (
            "adaptive",
            DiscoParams {
                adaptive: true,
                ..base
            },
        ),
    ]
}

#[test]
fn engine_variants_match_golden_stats() {
    let mut current = String::new();
    for (name, params) in engine_variants() {
        let (stats, _) = stats_text(golden_builder().disco_params(params));
        current.push_str(&format!("[{name}]\n{stats}\n"));
    }
    // The default run with every trace record kept: the engine's
    // CodecStart/CodecEnd events are pinned through the JSONL checksum.
    let (stats, report) = stats_text(golden_builder().retain_trace_records(true));
    let records = &report.trace.as_ref().expect("capture requested").records;
    let jsonl = disco::trace::export::jsonl_string(records);
    current.push_str(&format!(
        "[trace]\ntrace.records = {}\ntrace.jsonl_fnv = {:#018x}\n{stats}",
        records.len(),
        disco::faults::checksum(jsonl.as_bytes())
    ));
    check_golden("tests/golden_disco_variants.txt", &current);
}
