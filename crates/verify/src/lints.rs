//! Source-convention lints: a file walk over the repository, with the
//! code rules checked on parsed token trees ([`crate::ast`]). No
//! dependencies beyond `std`.
//!
//! Six rules, one `cargo xtask verify` lint family each:
//!
//! 1. **Panic-free hot paths** — the files executed every simulated cycle
//!    must not call `.unwrap()` or `.expect(...)`. Recoverable conditions
//!    must use `Option`/`Result` flow; genuine simulator invariants must
//!    use `assert!`/`panic!` with a message naming the violated
//!    invariant. Comments and `#[cfg(test)]` items, where panicking is
//!    idiomatic, are skipped.
//! 2. **Commit confinement** — the cycle kernel visits the routers once
//!    per cycle in node order, deciding each router's RC/VA/SA with the
//!    pure `compute_router` and committing the decisions at once; the
//!    flit deliveries and credit returns that reach a neighbour are
//!    deferred to the end of the pass, so every router decides from
//!    cycle-start state. That holds only if every `Router` field write
//!    happens in the commit code. No file in `crates/noc/src` other
//!    than `commit.rs` (and `router.rs` itself) may mutate a router's
//!    `inputs`, `outputs`, `flits`, `occupied`, `credits`, `rr_sa`, or
//!    `sa_losers` directly.
//! 3. **No wall-clock in the trace path** — trace records are stamped
//!    with the simulated cycle, never host time, or the export stops
//!    being byte-identical across reruns and hosts. Nothing under
//!    `crates/trace/src` and no emission-site file may mention
//!    `std::time`, `Instant`, or `SystemTime`.
//! 4. **Compute-phase purity** — `compute_router` keeps its
//!    `&Router` signature and uses no interior mutability.
//! 5. **Fault-kind coverage** — every `FaultKind` variant declared in
//!    `crates/faults/src/lib.rs` must have at least one injection site
//!    (a `FaultKind::<Variant>` reference in non-test simulator code
//!    outside the faults crate) and at least one test exercising it
//!    (the variant or its `<snake_case>_rate` knob referenced inside a
//!    `#[cfg(test)]` region or a `tests/` integration file). A variant
//!    that can never fire, or fires without a test pinning its
//!    behaviour, is dead weight in the fault model.
//! 6. **Exhaustive snapshot manifest** — every field of every struct
//!    that participates in `System::snapshot` must be accounted for in
//!    `crates/snapshot/manifest.txt` as either `state` (serialized) or
//!    `derived` (rebuilt from config on restore). Adding a field
//!    without deciding its checkpoint treatment silently produces
//!    snapshots that resume into a different simulation; this lint
//!    turns that into a build failure.
//!
//! Two former rules are now compile errors instead of string scans:
//! `SimReport::write_stats` destructures every counter struct it
//! renders, and the pareto frontier renderer destructures `DesignSpace`
//! and `RunSpec`, each without `..`.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::ast;

/// Files whose per-cycle code must stay panic-API free.
pub const HOT_PATHS: &[&str] = &[
    "crates/noc/src/topology.rs",
    "crates/noc/src/router.rs",
    "crates/noc/src/network.rs",
    "crates/noc/src/phase.rs",
    "crates/noc/src/commit.rs",
    "crates/noc/src/routing.rs",
    "crates/noc/src/packet.rs",
    "crates/noc/src/faults.rs",
    "crates/faults/src/lib.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/arbitrator.rs",
    "crates/cache/src/nuca.rs",
    "crates/cache/src/l1.rs",
    "crates/cache/src/mshr.rs",
    "crates/cache/src/dram.rs",
    "crates/trace/src/event.rs",
    "crates/trace/src/ring.rs",
    "crates/trace/src/provenance.rs",
];

/// `Router` fields only the commit code may write (`credits` is the
/// per-output-VC field inside `outputs`). The compute phase only reads
/// them; everything else goes through `Router` methods.
const ROUTER_FIELDS: &[&str] = &[
    "inputs",
    "outputs",
    "flits",
    "occupied",
    "credits",
    "rr_sa",
    "sa_losers",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in, relative to the repository root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file.display(), self.line, self.message)
    }
}

/// Emission-site files that must never read wall-clock time (rule 3).
/// Every `.rs` file under `crates/trace/src` is additionally walked.
/// (`crates/bench`'s harnesses legitimately use `Instant` for wall-clock
/// throughput measurement and are deliberately out of scope.)
pub const WALLCLOCK_FREE: &[&str] = &[
    "crates/noc/src/phase.rs",
    "crates/noc/src/commit.rs",
    "crates/noc/src/network.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/system.rs",
    "crates/cache/src/nuca.rs",
    "crates/cache/src/dram.rs",
];

/// Where `FaultKind` is declared.
const FAULT_KIND_PATH: &str = "crates/faults/src/lib.rs";

/// Checks that every `FaultKind` variant has an injection site in
/// non-test simulator code and a test exercising it (rule 5).
///
/// # Errors
///
/// Propagates I/O errors reading the sources under `root`.
pub fn check_fault_kind_coverage(root: &Path) -> io::Result<Vec<Violation>> {
    let decl = fs::read_to_string(root.join(FAULT_KIND_PATH))?;
    let variants = enum_variants(&decl, "FaultKind");
    if variants.is_empty() {
        return Ok(vec![Violation {
            file: PathBuf::from(FAULT_KIND_PATH),
            line: 1,
            message: "enum FaultKind not found".to_string(),
        }]);
    }
    // Split every simulator source into its non-test and test regions.
    let mut non_test = String::new();
    let mut test = String::new();
    for rel in rust_sources(root)? {
        // The declaring crate defines the variants; its non-test code is
        // not an injection site. Its tests still count.
        let is_decl = rel == Path::new(FAULT_KIND_PATH);
        let is_integration = rel.starts_with("tests");
        let text = fs::read_to_string(root.join(&rel))?;
        let mut in_tests = is_integration;
        for raw in text.lines() {
            let trimmed = raw.trim_start();
            if trimmed.starts_with("#[cfg(test)]") {
                in_tests = true;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            let code = raw.split("//").next().unwrap_or(raw);
            if in_tests {
                test.push_str(code);
                test.push('\n');
            } else if !is_decl {
                non_test.push_str(code);
                non_test.push('\n');
            }
        }
    }
    let mut violations = Vec::new();
    for (line, variant) in variants {
        let reference = format!("FaultKind::{variant}");
        if !non_test.contains(&reference) {
            violations.push(Violation {
                file: PathBuf::from(FAULT_KIND_PATH),
                line,
                message: format!(
                    "FaultKind::{variant} has no injection site (no reference in \
                     non-test simulator code)"
                ),
            });
        }
        let knob = format!("{}_rate", camel_to_snake(&variant));
        if !test.contains(&reference) && !test.contains(&knob) {
            violations.push(Violation {
                file: PathBuf::from(FAULT_KIND_PATH),
                line,
                message: format!(
                    "FaultKind::{variant} has no test (neither the variant nor \
                     `{knob}` appears in test code)"
                ),
            });
        }
    }
    Ok(violations)
}

/// Variant names of `pub enum name` in `src`, with their 1-based lines.
fn enum_variants(src: &str, name: &str) -> Vec<(usize, String)> {
    let header = format!("pub enum {name} {{");
    let mut variants = Vec::new();
    let mut inside = false;
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        if !inside {
            inside = trimmed.starts_with(&header);
            continue;
        }
        if trimmed.starts_with('}') {
            break;
        }
        let first = trimmed.split([' ', '=', ',', '(']).next().unwrap_or("");
        if !first.is_empty() && first.chars().next().is_some_and(char::is_uppercase) {
            variants.push((idx + 1, first.to_string()));
        }
    }
    variants
}

/// `CamelCase` → `snake_case` (for rate-knob needle derivation).
fn camel_to_snake(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for (i, c) in s.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Every `.rs` file under `crates/*/src` and `tests/`, sorted for
/// deterministic scan order.
fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut rels = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        let src = entry.path().join("src");
        if !src.is_dir() {
            continue;
        }
        collect_rs(&src, root, &mut rels)?;
    }
    let tests = root.join("tests");
    if tests.is_dir() {
        collect_rs(&tests, root, &mut rels)?;
    }
    rels.sort();
    Ok(rels)
}

/// Recursively collects `.rs` files under `dir` as root-relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/verify` → two levels up).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// AST-grade rules. These operate on parsed token trees (crate::ast) and
// therefore see through helper methods, `#[cfg]`-hidden branches, and
// code placed after a `#[cfg(test)]` module.
// ---------------------------------------------------------------------------

/// Files whose code may mutate routers: the commit code itself, the
/// network driver that runs the router pass, and the fault injector the
/// commit calls. These may call `&mut self` `Router` methods;
/// everything else in `crates/noc/src` — above all the compute phase —
/// must not even borrow a router mutably.
pub const SERIAL_CONTEXT: &[&str] = &[
    "crates/noc/src/router.rs",
    "crates/noc/src/commit.rs",
    "crates/noc/src/network.rs",
    "crates/noc/src/faults.rs",
];

/// Where the compute phase (and its purity contract) lives.
const COMPUTE_PHASE_PATH: &str = "crates/noc/src/phase.rs";

/// Where `Router` and its `&mut self` mutator methods are declared.
const ROUTER_PATH: &str = "crates/noc/src/router.rs";

/// Wraps a parse failure as a reportable violation so a syntax-level
/// regression in a scanned file fails the lint pass instead of crashing
/// it.
fn parse_failure(rel: &Path, err: String) -> Violation {
    Violation {
        file: rel.to_path_buf(),
        line: 1,
        message: format!("AST lint could not parse file: {err}"),
    }
}

/// Panic-free hot-path scan (rule 1) over every [`HOT_PATHS`] file, on
/// parsed token trees. It keeps going after a `#[cfg(test)]` module
/// (skipping only the test items themselves), so per-cycle code hidden
/// behind `#[cfg(feature = …)]` or placed below a test module is still
/// checked.
///
/// # Errors
///
/// Propagates I/O errors reading the sources under `root`.
pub fn scan_hot_paths_ast(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for rel in HOT_PATHS {
        let rel = Path::new(rel);
        let text = fs::read_to_string(root.join(rel))?;
        match ast::scan_panics(&text) {
            Ok(findings) => {
                violations.extend(findings.into_iter().map(|(line, message)| Violation {
                    file: rel.to_path_buf(),
                    line,
                    message,
                }))
            }
            Err(e) => violations.push(parse_failure(rel, e)),
        }
    }
    Ok(violations)
}

/// AST-grade commit-confinement check. Extracts the `&mut self` method
/// set from the live `Router` impl, then scans every file in
/// `crates/noc/src` except `router.rs`/`commit.rs`:
///
/// - direct `Router` field writes are flagged everywhere, including
///   `#[cfg]`-hidden branches and code after test modules;
/// - calls to `&mut self` `Router` methods and `&mut` borrows of router
///   bindings are additionally flagged outside [`SERIAL_CONTEXT`], so a
///   helper method cannot mutate a router without spelling out a field
///   assignment.
///
/// # Errors
///
/// Propagates I/O errors reading the sources under `root`.
pub fn check_commit_confinement_ast(root: &Path) -> io::Result<Vec<Violation>> {
    let router_src = fs::read_to_string(root.join(ROUTER_PATH))?;
    let mut_methods = match ast::router_mut_methods(&router_src) {
        Ok(m) => m,
        Err(e) => return Ok(vec![parse_failure(Path::new(ROUTER_PATH), e)]),
    };
    let dir = Path::new("crates/noc/src");
    let mut names: Vec<String> = fs::read_dir(root.join(dir))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rs") && n != "router.rs" && n != "commit.rs")
        .collect();
    names.sort();
    let mut violations = Vec::new();
    for name in names {
        let rel = dir.join(&name);
        let serial = SERIAL_CONTEXT.iter().any(|s| Path::new(s) == rel);
        let rules = ast::ConfinementRules {
            direct_writes: true,
            method_calls: !serial,
        };
        let text = fs::read_to_string(root.join(&rel))?;
        match ast::scan_confinement(&text, ROUTER_FIELDS, &mut_methods, rules) {
            Ok(findings) => {
                violations.extend(findings.into_iter().map(|(line, message)| Violation {
                    file: rel.clone(),
                    line,
                    message,
                }))
            }
            Err(e) => violations.push(parse_failure(&rel, e)),
        }
    }
    Ok(violations)
}

/// Wall-clock check (rule 3) over [`WALLCLOCK_FREE`] and every file
/// under `crates/trace/src`, using identifier tokens instead of
/// substring matches (so a struct field named `instant_rate` does not
/// trip it, while `std::time::Instant` behind `#[cfg(feature = …)]`
/// does).
///
/// # Errors
///
/// Propagates I/O errors reading the sources under `root`.
pub fn check_no_wallclock_ast(root: &Path) -> io::Result<Vec<Violation>> {
    let mut rels: Vec<PathBuf> = WALLCLOCK_FREE.iter().map(PathBuf::from).collect();
    let trace_dir = Path::new("crates/trace/src");
    let mut names: Vec<String> = fs::read_dir(root.join(trace_dir))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    rels.extend(names.into_iter().map(|n| trace_dir.join(n)));
    let mut violations = Vec::new();
    for rel in rels {
        let text = fs::read_to_string(root.join(&rel))?;
        match ast::scan_wallclock(&text) {
            Ok(findings) => {
                violations.extend(findings.into_iter().map(|(line, message)| Violation {
                    file: rel.clone(),
                    line,
                    message,
                }))
            }
            Err(e) => violations.push(parse_failure(&rel, e)),
        }
    }
    Ok(violations)
}

/// Compute-phase purity check: `crates/noc/src/phase.rs` must keep the
/// `compute_router(router: &Router, …)` shared-reference signature the
/// determinism argument rests on, and must not smuggle writes through
/// interior mutability (`RefCell`, `Cell`, `Mutex`, atomics, …).
///
/// # Errors
///
/// Propagates I/O errors reading the sources under `root`.
pub fn check_compute_purity(root: &Path) -> io::Result<Vec<Violation>> {
    let rel = Path::new(COMPUTE_PHASE_PATH);
    let text = fs::read_to_string(root.join(rel))?;
    let findings = match ast::scan_compute_purity(&text, true) {
        Ok(f) => f,
        Err(e) => return Ok(vec![parse_failure(rel, e)]),
    };
    Ok(findings
        .into_iter()
        .map(|(line, message)| Violation {
            file: rel.to_path_buf(),
            line,
            message,
        })
        .collect())
}

/// The `&mut self` method names of the live `Router`, for callers that
/// want to reuse the extracted set (xtask reporting, tests).
///
/// # Errors
///
/// Propagates I/O errors reading `router.rs` under `root`; a parse
/// failure is reported as `io::ErrorKind::InvalidData`.
pub fn live_router_mut_methods(root: &Path) -> io::Result<BTreeSet<String>> {
    let src = fs::read_to_string(root.join(ROUTER_PATH))?;
    ast::router_mut_methods(&src).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------------
// Rule 6: exhaustive snapshot field manifest
// ---------------------------------------------------------------------------

/// Where the snapshot field manifest lives.
pub const SNAPSHOT_MANIFEST_PATH: &str = "crates/snapshot/manifest.txt";

/// One `struct <file> <Name>` block of the snapshot manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Source file, relative to the repository root.
    pub file: String,
    /// Struct name.
    pub name: String,
    /// Declared fields, in manifest order, with their disposition
    /// (`"state"` or `"derived"`).
    pub fields: Vec<(String, String)>,
    /// 1-based manifest line of the `struct` header.
    pub line: usize,
}

/// Parses the manifest format: `struct <relative-path> <StructName>`
/// headers, one `<field> state|derived` line per field, `#` comments.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_snapshot_manifest(text: &str) -> Result<Vec<ManifestEntry>, String> {
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().unwrap_or_default();
        if first == "struct" {
            let (file, name) = (parts.next(), parts.next());
            match (file, name, parts.next()) {
                (Some(file), Some(name), None) => entries.push(ManifestEntry {
                    file: file.to_string(),
                    name: name.to_string(),
                    fields: Vec::new(),
                    line: idx + 1,
                }),
                _ => {
                    return Err(format!(
                        "manifest line {}: expected `struct <file> <Name>`",
                        idx + 1
                    ))
                }
            }
            continue;
        }
        let disposition = parts.next();
        match (entries.last_mut(), disposition, parts.next()) {
            (Some(entry), Some(d @ ("state" | "derived")), None) => {
                entry.fields.push((first.to_string(), d.to_string()));
            }
            (None, _, _) => {
                return Err(format!(
                    "manifest line {}: field before any `struct` header",
                    idx + 1
                ))
            }
            _ => {
                return Err(format!(
                    "manifest line {}: expected `<field> state|derived`",
                    idx + 1
                ))
            }
        }
    }
    Ok(entries)
}

/// Every field of struct `name` in `src`, private ones included, with
/// 1-based lines. Attribute lines (`#[cfg(...)]` etc.) and
/// comments are skipped; a field line is `[pub[(crate)]] name: Type,`.
pub fn all_struct_fields(src: &str, name: &str) -> Vec<(usize, String)> {
    let headers = [
        format!("pub struct {name} {{"),
        format!("pub(crate) struct {name} {{"),
        format!("struct {name} {{"),
    ];
    let mut fields = Vec::new();
    let mut inside = false;
    for (idx, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        if !inside {
            inside = headers.iter().any(|h| trimmed.starts_with(h.as_str()));
            continue;
        }
        if trimmed.starts_with('}') {
            break;
        }
        if trimmed.starts_with("//") || trimmed.starts_with("#[") {
            continue;
        }
        let rest = trimmed
            .strip_prefix("pub(crate) ")
            .or_else(|| trimmed.strip_prefix("pub "))
            .unwrap_or(trimmed);
        if let Some((field, after)) = rest.split_once(':') {
            let field = field.trim();
            // `::` is a path inside a wrapped type, not a field; a real
            // field name is a lone identifier.
            if !after.starts_with(':')
                && !field.is_empty()
                && field.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                fields.push((idx + 1, field.to_string()));
            }
        }
    }
    fields
}

/// Pure core of rule 6: diffs one manifest entry against the struct
/// body found in `src`. Returns (line, message) findings — fields the
/// struct has but the manifest does not (the dangerous direction: an
/// undeclared field is an unserialized field), and stale manifest
/// entries for fields the struct no longer has.
pub fn scan_snapshot_struct(entry: &ManifestEntry, src: &str) -> Vec<(usize, String)> {
    let actual = all_struct_fields(src, &entry.name);
    if actual.is_empty() {
        return vec![(
            entry.line,
            format!("struct {} not found in {}", entry.name, entry.file),
        )];
    }
    let mut findings = Vec::new();
    for (line, field) in &actual {
        if !entry.fields.iter().any(|(f, _)| f == field) {
            findings.push((
                *line,
                format!(
                    "{}.{field} is not in {SNAPSHOT_MANIFEST_PATH} — serialize it and \
                     declare it `state`, or justify it as `derived`",
                    entry.name
                ),
            ));
        }
    }
    for (field, _) in &entry.fields {
        if !actual.iter().any(|(_, f)| f == field) {
            findings.push((
                entry.line,
                format!(
                    "manifest declares {}.{field} but the struct has no such field \
                     (stale entry)",
                    entry.name
                ),
            ));
        }
    }
    findings
}

/// Checks the snapshot manifest against the live struct bodies (rule 6).
///
/// # Errors
///
/// Propagates I/O errors reading the manifest or the listed sources; a
/// malformed manifest is reported as `io::ErrorKind::InvalidData`.
pub fn check_snapshot_manifest(root: &Path) -> io::Result<Vec<Violation>> {
    let text = fs::read_to_string(root.join(SNAPSHOT_MANIFEST_PATH))?;
    let entries = parse_snapshot_manifest(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if entries.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "snapshot manifest lists no structs",
        ));
    }
    let mut violations = Vec::new();
    for entry in &entries {
        let src = fs::read_to_string(root.join(&entry.file))?;
        for (line, message) in scan_snapshot_struct(entry, &src) {
            violations.push(Violation {
                file: PathBuf::from(&entry.file),
                line,
                message,
            });
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wallclock_scanner_flags_code_but_not_comments_or_tests() {
        let text = "\
fn bad() { let t = std::time::Instant::now(); }\n\
// a comment mentioning Instant is fine\n\
fn ok() { let c = self.cycle; } // trailing SystemTime mention is fine\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { let _ = std::time::SystemTime::now(); }\n\
}\n";
        let findings = ast::scan_wallclock(text).expect("parses");
        // Line 1 matches both `std::time` and `Instant`.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.0 == 1), "{findings:?}");
    }

    fn confinement(text: &str) -> Vec<(usize, String)> {
        let rules = ast::ConfinementRules {
            direct_writes: true,
            method_calls: false,
        };
        ast::scan_confinement(text, ROUTER_FIELDS, &BTreeSet::new(), rules).expect("parses")
    }

    #[test]
    fn confinement_flags_writes_but_not_reads() {
        let text = "\
fn compute(router: &Router, routers: &mut [Router]) {\n\
    let snapshot = router.out_alloc.clone();\n\
    let c = router.credits[0][1];\n\
    if router.credits[0][1] >= 8 || router.credits[0][1] != 0 {}\n\
    let o = RouterOutcome { rr_sa: router.rr_sa };\n\
    outcome.sa_losers.push((0, 1));\n\
    router.credits[0][1] -= 1;\n\
    routers[next].inputs[0][1].state = VcState::Idle;\n\
    router.sa_losers.clear();\n\
    // router.rr_sa = [0; 5] in a comment is fine\n\
}\n";
        let lines: Vec<usize> = confinement(text).into_iter().map(|f| f.0).collect();
        assert_eq!(lines, vec![7, 8, 9], "exactly the three writes");
    }

    #[test]
    fn confinement_skips_tests_and_respects_boundaries() {
        let text = "\
fn f(router: &Router) { let x = router.rr_sample; }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t(router: &mut Router) { router.credits[0][0] += 1; }\n\
}\n";
        assert_eq!(confinement(text), Vec::new());
    }

    #[test]
    fn scanner_flags_code_but_not_comments_or_tests() {
        let text = "\
fn hot() {\n\
    let x = maybe().unwrap();\n\
    // a comment mentioning .unwrap() is fine\n\
    let y = other(); // trailing .expect( mention is fine\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { let z = maybe().expect(\"fine in tests\"); }\n\
}\n";
        let findings = ast::scan_panics(text).expect("parses");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].0, 2);
    }

    #[test]
    fn scanner_catches_expect() {
        let findings = ast::scan_panics("fn f() { g().expect(\"boom\"); }\n").expect("parses");
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn ast_hot_paths_are_clean() {
        let violations = scan_hot_paths_ast(&repo_root()).expect("sources readable");
        assert_eq!(violations, Vec::new(), "AST panic scan must stay clean");
    }

    #[test]
    fn ast_commit_confinement_holds() {
        let violations = check_commit_confinement_ast(&repo_root()).expect("sources readable");
        assert_eq!(
            violations,
            Vec::new(),
            "no helper-method or cfg-hidden Router mutation outside the serial context"
        );
    }

    #[test]
    fn ast_trace_path_is_wallclock_free() {
        let violations = check_no_wallclock_ast(&repo_root()).expect("sources readable");
        assert_eq!(
            violations,
            Vec::new(),
            "AST wall-clock scan must stay clean"
        );
    }

    #[test]
    fn compute_phase_is_pure() {
        let violations = check_compute_purity(&repo_root()).expect("sources readable");
        assert_eq!(
            violations,
            Vec::new(),
            "compute_router must keep its &Router signature and avoid interior mutability"
        );
    }

    #[test]
    fn live_router_exposes_expected_mut_methods() {
        let methods = live_router_mut_methods(&repo_root()).expect("router.rs parses");
        for expected in [
            "set_locked",
            "accept",
            "return_credit",
            "try_take_credits",
            "reshape_packet",
        ] {
            assert!(
                methods.contains(expected),
                "Router::{expected} (&mut self) should be extracted, got {methods:?}"
            );
        }
    }

    #[test]
    fn fault_kinds_are_covered() {
        let violations = check_fault_kind_coverage(&repo_root()).expect("sources readable");
        assert_eq!(
            violations,
            Vec::new(),
            "every FaultKind needs an injection site and a test"
        );
    }

    #[test]
    fn enum_extraction_reads_variants() {
        let src = "\
/// Doc.\n\
pub enum FaultKind {\n\
    /// Drops a packet.\n\
    LinkDrop = 0,\n\
    PayloadBitFlip = 3,\n\
}\n";
        let variants: Vec<String> = enum_variants(src, "FaultKind")
            .into_iter()
            .map(|v| v.1)
            .collect();
        assert_eq!(
            variants,
            vec!["LinkDrop".to_string(), "PayloadBitFlip".to_string()]
        );
    }

    #[test]
    fn camel_to_snake_handles_acronym_free_names() {
        assert_eq!(camel_to_snake("LinkDrop"), "link_drop");
        assert_eq!(camel_to_snake("PayloadBitFlip"), "payload_bit_flip");
        assert_eq!(camel_to_snake("DramStall"), "dram_stall");
    }
}
