# Offline mirror of .github/workflows/ci.yml. `just ci` is the full gate.

# Run the complete CI gate locally.
ci: fmt-check clippy doc verify test

# Check formatting without rewriting.
fmt-check:
    cargo fmt --all --check

# Rewrite formatting in place.
fmt:
    cargo fmt --all

# Workspace lints, warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# API docs, warnings denied: a broken or private intra-doc link fails.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The disco-verify analysis suite: bounded protocol model checking,
# credit-conservation proof, CDG deadlock freedom, MOESI exhaustiveness,
# message-class composition, AST-grade lints.
verify:
    cargo xtask verify

# Same analyses, plus the machine-readable report CI uploads as the
# VERIFY_REPORT artifact (schema disco-verify/1).
verify-json:
    cargo xtask verify --json VERIFY_REPORT.json

# Workspace tests (traced and faulty legs included; test builds check
# the NoC invariants every cycle).
test:
    cargo test --workspace -q

# Regenerate the EXPERIMENTS.md provenance tables and the sample trace
# exports (results/trace_disco_4x4.json / .jsonl, untracked).
provenance:
    cargo run --release -p disco-bench --bin provenance

# Regenerate the three golden files (tests/golden_stats.txt,
# tests/golden_disco_variants.txt and tests/golden_kernel.txt) from one run.
update-golden:
    UPDATE_GOLDEN=1 cargo test -q --test golden

# Benchmark results must stay correct: every disco-benchmark workload,
# one trial each (`--seconds 0`) at both pinned seeds, must report
# `"correct": true` with no failed operation (the result fingerprints
# are pinned in crates/benchmark). Mirrors CI's "Benchmark correctness"
# step.
bench-check:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release -q -p disco-benchmark
    for seed in 2016 2018; do
      for w in paper-4x4 serve-8x8 noc-16x16 dse-4x4; do
        verdict=$(target/release/disco-benchmark --workload "$w" --seed "$seed" --seconds 0 | tail -n 1)
        echo "bench-check: $w seed $seed: ${verdict:0:48}"
        case "$verdict" in
          *'"correct": true,'*'"failed": 0,'*) ;;
          *) echo "bench-check: $w seed $seed is not correct" >&2; exit 1 ;;
        esac
      done
    done
