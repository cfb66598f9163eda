//! Golden-file regression test: a fixed-seed simulation must reproduce
//! its recorded stats byte-for-byte. Any intentional change to the
//! simulator's behaviour shows up here as a readable stats diff;
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test golden`.

use disco::core::{CompressionPlacement, SimBuilder};
use disco::workloads::Benchmark;
use std::path::Path;

fn current_stats() -> String {
    let report = SimBuilder::new()
        .mesh(2, 2)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Dedup)
        .trace_len(400)
        .seed(2016)
        .run()
        .expect("golden run drains");
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("stats are utf8")
}

#[test]
fn fixed_seed_run_matches_golden_stats() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_stats.txt");
    let current = current_stats();
    // The golden run never arms a fault plan, so no `faults.*` keys may
    // appear (fault keys are written only for runs that armed one).
    assert!(
        !current.contains("faults."),
        "fault keys leaked into a fault-free run"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing {golden_path:?}; run `UPDATE_GOLDEN=1 cargo test --test golden` to create it"
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
        panic!(
            "fixed-seed stats diverged from the golden file \
             (intentional? UPDATE_GOLDEN=1 cargo test --test golden):\n{diff}"
        );
    }
}
