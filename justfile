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

# Paired comparison of two built `disco-benchmark` binaries on one
# workload, as the benchmark README prescribes: `pairs` pairs of
# `seconds`-long runs, alternating which binary goes first, with a fresh
# seed per pair (2016, 2018, …). Prints every run's `sim_cycles_per_s`,
# the per-pair change/parent ratios, the change's wins, both medians,
# the parent's IQR, and whether the change clears the claim rule: wins
# in at least 9 of 10 pairs and a median gain larger than the parent's
# IQR. Copy each binary out of its target directory first.
bench-pair parent change workload pairs="10" seconds="20":
    #!/usr/bin/env bash
    set -euo pipefail
    run() {
      "$1" --workload "{{workload}}" --seed "$2" --seconds "{{seconds}}" --trace 0 | tail -n 1 \
        | python3 -c 'import json, sys; v = json.load(sys.stdin); assert v["correct"] and v["failed"] == 0, v; print(v["metrics"]["sim_cycles_per_s"]["value"])'
    }
    results=""
    for k in $(seq 0 $(({{pairs}} - 1))); do
      seed=$((2016 + 2 * k))
      if [ $((k % 2)) -eq 0 ]; then
        p=$(run "{{parent}}" "$seed"); c=$(run "{{change}}" "$seed"); order="parent first"
      else
        c=$(run "{{change}}" "$seed"); p=$(run "{{parent}}" "$seed"); order="change first"
      fi
      echo "bench-pair: pair $k seed $seed ($order): parent $p change $c"
      results="$results $p:$c"
    done
    python3 - $results <<'PY'
    import statistics, sys
    pairs = [tuple(map(float, a.split(":"))) for a in sys.argv[1:]]
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    def quartiles(xs):
        q = statistics.quantiles(xs, n=4, method="inclusive")
        return q[0], q[2]
    ratios = [c / p for p, c in pairs]
    wins = sum(r > 1 for r in ratios)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    need = -(-9 * len(pairs) // 10)
    print("ratios (change/parent):", " ".join(f"{r:.3f}" for r in ratios))
    print(f"wins: {wins}/{len(pairs)} (need {need})")
    print(f"median parent {pm:.0f}, change {cm:.0f}, ratio {cm / pm:.3f}; median pair ratio {statistics.median(ratios):.3f}")
    print(f"parent IQR {q3 - q1:.0f}; median gain {cm - pm:.0f}")
    ok = wins >= need and cm - pm > q3 - q1
    print("verdict:", "change wins the claim rule" if ok else "claim rule not met")
    PY
