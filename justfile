# Offline mirror of .github/workflows/ci.yml. `just ci` is the full gate.

# Run the complete CI gate locally.
ci: fmt-check clippy verify test

# Check formatting without rewriting.
fmt-check:
    cargo fmt --all --check

# Rewrite formatting in place.
fmt:
    cargo fmt --all

# Workspace lints, warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# The disco-verify analysis suite: bounded protocol model checking,
# credit-conservation proof, CDG deadlock freedom, MOESI exhaustiveness,
# message-class composition, AST-grade lints.
verify:
    cargo xtask verify

# Same analyses, plus the machine-readable report CI uploads as the
# VERIFY_REPORT artifact (schema disco-verify/1).
verify-json:
    cargo xtask verify --json VERIFY_REPORT.json

# Workspace tests (traced, faulty and sharded legs included; test builds
# check the NoC invariants every cycle), plus the slow ignored
# determinism matrix.
test:
    cargo test --workspace -q
    cargo test -q -p disco --test determinism -- --ignored

# Regenerate the EXPERIMENTS.md provenance tables and the sample trace
# exports (results/trace_disco_4x4.json / .jsonl, untracked).
provenance:
    cargo run --release -p disco-bench --bin provenance

# Regenerate both golden files (tests/golden_stats.txt and
# tests/golden_disco_variants.txt) from one run.
update-golden:
    UPDATE_GOLDEN=1 cargo test -q --test golden
