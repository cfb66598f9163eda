//! Mutation suite for the `disco-verify` analysis stack: inject a known
//! defect, assert the corresponding analysis fails on it. Each test is
//! the negative control for one acceptance claim of `cargo xtask
//! verify` — an analysis that cannot see its target defect proves
//! nothing by passing.

use std::collections::BTreeSet;

use disco_verify::ast;
use disco_verify::credits::{check_conservation, CreditLedger, LedgerOp};
use disco_verify::explorer::{explore, ExploreOptions};
use disco_verify::lints;
use disco_verify::model::{DirEngine, LiveDir, MAct, MDir, ProtocolModel};

// ---------------------------------------------------------------------------
// Credit conservation
// ---------------------------------------------------------------------------

/// A buffer drain that forgets to queue the credit return: credits leak
/// one per delivered flit until the link wedges. The symbolic proof must
/// refuse the operation set.
#[test]
fn dropped_credit_increment_is_caught() {
    let mut ledger = CreditLedger::live(4);
    let drain = ledger
        .ops
        .iter_mut()
        .find(|op| op.name == "drain")
        .expect("live ledger has a drain op");
    // Buffer slot freed, but the credit-return queue never hears of it.
    drain.delta = [0, -1, 0, 0];
    let report = check_conservation(&ledger);
    assert!(!report.clean(), "a leaking drain must fail conservation");
    let messages: String = report.violations[0].messages.join("\n");
    assert!(
        messages.contains("leak"),
        "violation should name the leak: {messages}"
    );
    assert!(
        !report.violations[0].schedule.is_empty(),
        "counterexample must carry a replayable op schedule"
    );
}

/// An unguarded credit return fires with nothing in the return queue:
/// the upstream counter counts a buffer slot twice (double-free). The
/// proof must catch the missing guard.
#[test]
fn unguarded_credit_return_is_caught() {
    let mut ledger = CreditLedger::live(4);
    ledger.ops.push(LedgerOp {
        name: "spurious-return".to_string(),
        guard: [0, 0, 0, 0],
        delta: [1, 0, -1, 0],
    });
    let report = check_conservation(&ledger);
    assert!(
        !report.clean(),
        "an unguarded return must fail conservation"
    );
    let messages: String = report
        .violations
        .iter()
        .flat_map(|v| v.messages.iter())
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        messages.contains("double-free") || messages.contains("negative"),
        "violation should name the double-free or the negative component: {messages}"
    );
}

// ---------------------------------------------------------------------------
// Protocol model checking
// ---------------------------------------------------------------------------

/// A directory that grants write ownership without invalidating the
/// previous sharers — the classic illegal MOESI edge (S → M with stale
/// copies left behind). The model checker must produce a replayable
/// schedule ending in a copy-accounting or staleness violation.
struct NoInvalOnWrite(LiveDir);

impl DirEngine for NoInvalOnWrite {
    fn read(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
        self.0.read(dir, core)
    }
    fn write(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
        let (next, acts) = self.0.write(dir, core);
        // Drop every invalidation the live directory would have sent.
        let acts = acts
            .into_iter()
            .filter(|a| !matches!(a, MAct::Inval { .. }))
            .collect();
        (next, acts)
    }
    fn writeback(&self, dir: &MDir, core: u8) -> MDir {
        self.0.writeback(dir, core)
    }
    fn recall(&self, dir: &MDir) -> (MDir, Vec<MAct>) {
        self.0.recall(dir)
    }
}

#[test]
fn illegal_moesi_edge_is_caught_with_schedule() {
    let model = ProtocolModel::default_config(NoInvalOnWrite(LiveDir::default()));
    let report = explore(
        &model,
        &ExploreOptions {
            max_depth: 16,
            max_states: 500_000,
            workers: 2,
            max_violations: 1,
        },
    );
    assert!(
        !report.clean(),
        "suppressed invalidations must violate an invariant"
    );
    let v = &report.violations[0];
    assert!(
        !v.schedule.is_empty(),
        "counterexample must be a replayable message schedule"
    );
    let rendered = report.render("model");
    assert!(
        rendered.contains("step   1:"),
        "render() lists the schedule steps: {rendered}"
    );
}

// ---------------------------------------------------------------------------
// Commit-confinement lint: the helper-method blind spot
// ---------------------------------------------------------------------------

/// The `&mut self` methods of a miniature `Router`, extracted the same
/// way the real lint extracts them from `crates/noc/src/router.rs`.
fn fixture_mut_methods() -> BTreeSet<String> {
    let router_src = "
        impl Router {
            pub fn accept(&mut self, port: usize, vc: usize, flit: Flit) {}
            pub fn return_credit(&mut self, dir: Direction, vc: usize) {}
            pub fn peek(&self, port: usize) -> Option<&Flit> { None }
        }
    ";
    ast::router_mut_methods(router_src).expect("fixture parses")
}

const ROUTER_FIELDS: &[&str] = &["inputs", "out_alloc", "credits", "rr_sa", "sa_losers"];

/// A compute-phase helper that smuggles a router mutation through a
/// method call instead of a spelled-out field assignment. The AST lint
/// resolves the callee against the extracted `&mut self` method set and
/// flags it.
#[test]
fn helper_method_mutation_caught_by_ast_missed_by_string_scan() {
    let defect = "
        fn sneak(routers: &mut [Router], d: Hop, port: usize, vc: usize, flit: Flit) {
            routers[d.next].accept(port, vc, flit);
        }
    ";
    let findings = ast::scan_confinement(
        defect,
        ROUTER_FIELDS,
        &fixture_mut_methods(),
        ast::ConfinementRules {
            direct_writes: true,
            method_calls: true,
        },
    )
    .expect("fixture parses");
    assert_eq!(findings.len(), 1, "exactly the accept() call: {findings:?}");
    assert!(
        findings[0].1.contains("accept"),
        "finding names the mutating method: {}",
        findings[0].1
    );
}

/// A router-field write placed *after* a `#[cfg(test)]` module. The AST
/// walker skips only the test item itself and still reads the rest of the
/// file.
#[test]
fn mutation_after_test_module_caught_by_ast_missed_by_string_scan() {
    let defect = "
        fn fine(router: &Router) -> usize { router.credits[0][1] }

        #[cfg(test)]
        mod tests {
            fn t() {}
        }

        fn late(router: &mut Router) {
            router.credits[0][1] += 1;
        }
    ";
    let findings = ast::scan_confinement(
        defect,
        ROUTER_FIELDS,
        &fixture_mut_methods(),
        ast::ConfinementRules {
            direct_writes: true,
            method_calls: false,
        },
    )
    .expect("fixture parses");
    assert_eq!(
        findings.len(),
        1,
        "exactly the post-test-module write: {findings:?}"
    );
}

/// A wall-clock read hidden behind `#[cfg(feature = ...)]` after a test
/// module: the AST walk sees through the cfg-gated item.
#[test]
fn cfg_hidden_wallclock_caught_by_ast_missed_by_string_scan() {
    let defect = "
        fn ok() {}

        #[cfg(test)]
        mod tests {}

        #[cfg(feature = \"profiling\")]
        fn stamp() -> std::time::Instant {
            std::time::Instant::now()
        }
    ";
    let findings = ast::scan_wallclock(defect).expect("fixture parses");
    assert!(
        !findings.is_empty(),
        "the AST scan sees through cfg-gated items"
    );
}

// ---------------------------------------------------------------------------
// Compute-phase purity
// ---------------------------------------------------------------------------

/// A compute phase whose kernel takes `&mut Router` — the exact
/// signature change that would let per-cycle code mutate shared state
/// and break shard determinism. The purity check pins the shared
/// reference.
#[test]
fn compute_phase_mutable_signature_is_caught() {
    let defect = "
        pub fn compute_router(router: &mut Router, cycle: u64) -> RouterOutcome {
            RouterOutcome::default()
        }
    ";
    let findings = ast::scan_compute_purity(defect, true).expect("fixture parses");
    assert!(
        !findings.is_empty(),
        "&mut Router in the compute kernel must be flagged"
    );
}

/// Interior mutability smuggled into the compute phase: a `RefCell`
/// write compiles against `&Router` but still mutates during the
/// parallel phase.
#[test]
fn compute_phase_interior_mutability_is_caught() {
    let defect = "
        pub fn compute_router(router: &Router, cycle: u64) -> RouterOutcome {
            let staged: RefCell<Vec<Flit>> = RefCell::new(Vec::new());
            staged.borrow_mut().push(make_flit());
            RouterOutcome::default()
        }
    ";
    let findings = ast::scan_compute_purity(defect, true).expect("fixture parses");
    assert!(
        findings.iter().any(|f| f.1.contains("RefCell")),
        "RefCell in the compute phase must be flagged: {findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Snapshot manifest exhaustiveness (rule 6)
// ---------------------------------------------------------------------------

/// A field added to a snapshotted struct without updating the manifest
/// — the exact mutation that ships checkpoints silently missing state.
/// The manifest diff must flag the undeclared field by name.
#[test]
fn unserialized_snapshot_field_is_caught() {
    let manifest = "\
        struct crates/core/src/system.rs System\n\
        net state\n\
        tiles state\n";
    let entries = lints::parse_snapshot_manifest(manifest).expect("manifest parses");
    assert_eq!(entries.len(), 1);

    // The struct as committed: the manifest covers it exactly.
    let clean = "
        pub struct System {
            net: Network,
            tiles: Vec<Tile>,
        }
    ";
    assert_eq!(lints::scan_snapshot_struct(&entries[0], clean), Vec::new());

    // The mutation: a later PR adds a retry counter, private and
    // cfg-gated — exactly the kind of field a snapshot audit misses —
    // and forgets both the manifest and the serializer.
    let mutated = "
        pub struct System {
            net: Network,
            tiles: Vec<Tile>,
            #[cfg(feature = \"faults\")]
            retry_backoff: u64,
        }
    ";
    let findings = lints::scan_snapshot_struct(&entries[0], mutated);
    assert!(
        findings.iter().any(|(_, m)| m.contains("retry_backoff")),
        "the undeclared field must be flagged by name: {findings:?}"
    );
}

/// The reverse mutation: a field is deleted from the struct but its
/// manifest entry lingers. Stale entries must be flagged, or the
/// manifest rots into documentation nobody can trust.
#[test]
fn stale_snapshot_manifest_entry_is_caught() {
    let manifest = "\
        struct crates/core/src/system.rs System\n\
        net state\n\
        mcs derived\n";
    let entries = lints::parse_snapshot_manifest(manifest).expect("manifest parses");
    let shrunk = "
        pub struct System {
            net: Network,
        }
    ";
    let findings = lints::scan_snapshot_struct(&entries[0], shrunk);
    assert!(
        findings
            .iter()
            .any(|(_, m)| m.contains("mcs") && m.contains("stale")),
        "the stale entry must be flagged: {findings:?}"
    );
}

/// Manifest syntax errors (an unknown disposition, a field before any
/// struct header) must fail parsing loudly, not silently skip lines —
/// a skipped line is an unchecked field.
#[test]
fn malformed_snapshot_manifest_is_rejected() {
    let bad_disposition = "struct a/b.rs S\nnet sometimes\n";
    assert!(lints::parse_snapshot_manifest(bad_disposition)
        .unwrap_err()
        .contains("state|derived"));
    let orphan_field = "net state\n";
    assert!(lints::parse_snapshot_manifest(orphan_field)
        .unwrap_err()
        .contains("struct"));
}

/// The live repository must stay clean under rule 6 end-to-end: every
/// struct named in the committed manifest exists and matches
/// field-for-field.
#[test]
fn live_snapshot_manifest_is_exhaustive() {
    let root = lints::repo_root();
    let violations = lints::check_snapshot_manifest(&root).expect("manifest readable");
    assert_eq!(violations, Vec::new());
}
