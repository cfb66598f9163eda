//! End-to-end determinism contract of the exploration driver: the
//! rendered frontier JSON is byte-identical for any worker count and
//! across any kill-and-resume sequence, every dominated point's proof
//! re-checks against the measured objectives, and the smoke grid still
//! renders the committed `PARETO_pr10.json` byte for byte.

use disco_pareto::frontier::dominates;
use disco_pareto::journal::Journal;
use disco_pareto::space::DesignSpace;
use disco_pareto::{explore, ExploreConfig};
use std::path::PathBuf;

/// A four-point space small enough to explore repeatedly in-test: both
/// mesh flavors, the Baseline/DISCO endpoints of the placement axis.
/// Shrunk to 2x2 (unlike the 4x4 CI smoke grid) so the repeated
/// explorations in these tests stay fast.
fn tiny_space() -> DesignSpace {
    let mut space = DesignSpace::smoke();
    space.cols = 2;
    space.rows = 2;
    space.trace_len = 150;
    space.placements = vec![
        disco_core::CompressionPlacement::Baseline,
        disco_core::CompressionPlacement::Disco,
    ];
    space.schemes = vec![disco_compress::SchemeKind::Bdi];
    space
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("disco-pareto-explore-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The committed smoke-grid frontier (`pareto --grid smoke`) is a
/// checked artifact: exploring the same grid must reproduce it exactly.
#[test]
fn smoke_grid_reproduces_the_committed_frontier() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../PARETO_pr10.json"
    ))
    .expect("PARETO_pr10.json is committed at the repository root");
    let outcome = explore(&ExploreConfig {
        workers: 2,
        ..ExploreConfig::new(DesignSpace::smoke())
    });
    assert_eq!(outcome.remaining, 0);
    let json = outcome.json.expect("complete");
    assert!(
        json == committed,
        "the smoke-grid frontier differs from PARETO_pr10.json \
         (rerun `pareto --grid smoke --workers 2 --out <file>` and diff)"
    );
}

#[test]
fn frontier_json_is_byte_identical_across_worker_counts_and_resume() {
    let space = tiny_space();
    let reference = explore(&ExploreConfig::new(space.clone()));
    assert_eq!(reference.remaining, 0);
    let reference_json = reference.json.expect("complete");

    // Worker counts 1, 4, 16 over a journal: identical bytes.
    for workers in [1usize, 4, 16] {
        let journal = tmp(&format!("workers{workers}.jsonl"));
        let outcome = explore(&ExploreConfig {
            workers,
            journal: Some(journal),
            ..ExploreConfig::new(space.clone())
        });
        assert_eq!(outcome.completed, outcome.total);
        assert_eq!(
            outcome.json.as_deref(),
            Some(reference_json.as_str()),
            "worker count {workers} changed the output"
        );
    }

    // Kill-and-resume: budgeted invocations with varying worker counts
    // finish the same journal; the final render is byte-identical.
    let journal = tmp("resume.jsonl");
    let first = explore(&ExploreConfig {
        workers: 4,
        journal: Some(journal.clone()),
        max_points: 1,
        ..ExploreConfig::new(space.clone())
    });
    assert_eq!(first.completed, 1);
    assert!(first.remaining > 0, "budget must leave work");
    assert!(
        first.json.is_none(),
        "incomplete exploration renders nothing"
    );

    // Simulate the kill landing mid-append: tear the journal's tail
    // line. The torn entry is re-run, not trusted.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    std::fs::write(&journal, &text[..text.len() - 5]).expect("tear");
    assert!(
        Journal::new(&journal).load().is_empty(),
        "the torn single-entry journal must load as empty"
    );

    let mut completed = 0;
    for workers in [16usize, 1, 2] {
        let outcome = explore(&ExploreConfig {
            workers,
            journal: Some(journal.clone()),
            max_points: 2,
            ..ExploreConfig::new(space.clone())
        });
        completed += outcome.completed;
        if outcome.remaining == 0 {
            assert_eq!(
                outcome.json.as_deref(),
                Some(reference_json.as_str()),
                "resumed exploration diverged from the uninterrupted run"
            );
        }
    }
    assert_eq!(completed, reference.total, "every point ran exactly once");
}

#[test]
fn dominance_proofs_recheck_against_measured_objectives() {
    let outcome = explore(&ExploreConfig::new(tiny_space()));
    let frontier = outcome.frontier.expect("complete");
    assert_eq!(
        frontier.frontier.len() + frontier.dominated.len(),
        outcome.total,
        "census covers every point"
    );
    // Re-derive objectives from the rendered JSON's journal-equivalent:
    // re-explore into a journal and read the entries back.
    let journal = tmp("proofs.jsonl");
    let again = explore(&ExploreConfig {
        journal: Some(journal.clone()),
        ..ExploreConfig::new(tiny_space())
    });
    assert_eq!(again.frontier.as_ref(), Some(&frontier));
    let entries = Journal::new(&journal).load();
    for d in &frontier.dominated {
        let loser = entries[&d.id].objectives();
        let winner = entries[&d.dominator].objectives();
        assert!(
            dominates(&winner, &loser),
            "proof failed: {} does not dominate {}",
            d.dominator,
            d.id
        );
    }
    for id in &frontier.frontier {
        let obj = entries[id].objectives();
        for other in entries.values() {
            assert!(
                other.id == *id || !dominates(&other.objectives(), &obj),
                "frontier point {id} is actually dominated by {}",
                other.id
            );
        }
    }
}

#[test]
fn stale_journal_for_a_different_space_is_refused() {
    let journal = tmp("stale.jsonl");
    let big = explore(&ExploreConfig {
        journal: Some(journal.clone()),
        ..ExploreConfig::new(tiny_space())
    });
    assert_eq!(big.remaining, 0);
    let mut shrunk = tiny_space();
    shrunk.topologies.truncate(1);
    let result = std::panic::catch_unwind(|| {
        explore(&ExploreConfig {
            journal: Some(journal.clone()),
            ..ExploreConfig::new(shrunk)
        })
    });
    assert!(
        result.is_err(),
        "a stale journal must be refused, not blended"
    );
}
