//! Seeded mutation testing of every text format read from disk: the
//! `disco-serve` queue, pareto journal lines, and the flat JSONL records
//! both of those and `disco-benchmark` read. Each mutated input must be
//! rejected (`Err`/`None`) or parse to a value that honours the format's
//! limits; none may panic. Deterministic: a fixed-seed local PRNG, no
//! dependencies.

use disco_bench::serve::parse_queue;
use disco_pareto::json::{parse_flat_object, Json};
use disco_pareto::spec::{MAX_GRID_SIDE, MAX_TOTAL_ACCESSES};
use disco_pareto::JournalEntry;

/// xorshift64* — enough randomness to pick bytes and bits.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const QUEUE: &str = r#"{
    "checkpoint_every": 300,
    "jobs": [
        {"name": "dd-faulty", "mesh": 4, "placement": "disco",
         "benchmark": "dedup", "trace_len": 300, "seed": 14,
         "fault_rate": 1e-4},
        {"name": "sw-base", "cols": 2, "rows": 8, "placement": "baseline",
         "scheme": "fpc", "topology": "torus", "benchmark": "swaptions",
         "trace_len": 250, "seed": 12, "compute_shards": 2, "max_cycles": 0}
    ]
}"#;

/// A well-formed journal line, as `JournalEntry::to_line` writes it.
fn journal_line() -> String {
    JournalEntry {
        id: 7,
        latency: 12.25,
        pj_per_cycle: 1.0 / 7.0,
        area_mm2: 1e-3,
        noc_dynamic_pj: 100.5,
        noc_static_pj: 7.0,
        cache_dynamic_pj: 300.125,
        cache_static_pj: 11.0,
        compressor_pj: 0.75,
        deterministic: true,
    }
    .to_line()
}

/// The mutants of `seed_text`: seeded bit flips and truncations, each
/// numeric value in turn replaced by a hostile one (overflowing floats
/// and integers, negatives, fractions), and the whole text nested 200
/// deep.
fn mutants(seed_text: &str, rng: &mut Rng, rounds: usize) -> Vec<String> {
    let bytes = seed_text.as_bytes();
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut flipped = bytes.to_vec();
        for _ in 0..=rng.below(3) {
            let i = rng.below(flipped.len());
            flipped[i] ^= 1 << rng.below(8);
        }
        out.push(String::from_utf8_lossy(&flipped).into_owned());
        let cut = rng.below(bytes.len());
        out.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
    }
    // Numeric values (a digit run right after a `:`), one at a time.
    let mut numbers = Vec::new();
    let mut from = 0;
    while let Some(offset) = seed_text[from..].find(|c: char| c.is_ascii_digit()) {
        let start = from + offset;
        let len = seed_text[start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '-'))
            .unwrap_or(seed_text.len() - start);
        if seed_text[..start].trim_end().ends_with(':') {
            numbers.push(start..start + len);
        }
        from = start + len;
    }
    assert!(!numbers.is_empty(), "the seed text has numeric fields");
    for token in [
        "1e400",
        "-1e400",
        "18446744073709551616",
        "-1",
        "1e19",
        "0.5",
    ] {
        for range in &numbers {
            let mut rewritten = seed_text.to_string();
            rewritten.replace_range(range.clone(), token);
            out.push(rewritten);
        }
    }
    let deep = 200;
    out.push("[".repeat(deep) + seed_text + &"]".repeat(deep));
    out.push("{\"a\":".repeat(deep) + seed_text + &"}".repeat(deep));
    out
}

#[test]
fn mutated_queues_are_rejected_or_valid() {
    let mut rng = Rng(0x5eed_2016);
    let (mut accepted, mut rejected) = (0, 0);
    for text in mutants(QUEUE, &mut rng, 1_500) {
        let Ok((cfg, _warnings)) = parse_queue(&text) else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        assert!(cfg.checkpoint_every >= 1 && !cfg.jobs.is_empty());
        for job in &cfg.jobs {
            assert!(!job.name.is_empty(), "{text}");
            assert!((2..=MAX_GRID_SIDE).contains(&job.spec.cols), "{text}");
            assert!((2..=MAX_GRID_SIDE).contains(&job.spec.rows), "{text}");
            let accesses = (job.spec.cols * job.spec.rows) as u64 * job.spec.trace_len as u64;
            assert!(
                job.spec.trace_len > 0 && accesses <= MAX_TOTAL_ACCESSES,
                "{text}"
            );
            assert!(
                job.spec.fault_rate.is_finite() && job.spec.fault_rate >= 0.0,
                "{text}"
            );
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}

#[test]
fn mutated_journal_lines_are_rejected_or_valid() {
    let mut rng = Rng(0x5eed_2018);
    let line = journal_line();
    assert!(JournalEntry::parse_line(&line).is_some());
    let (mut accepted, mut rejected) = (0, 0);
    for text in mutants(&line, &mut rng, 1_500) {
        match JournalEntry::parse_line(&text) {
            Some(e) => {
                accepted += 1;
                for v in [
                    e.latency,
                    e.pj_per_cycle,
                    e.area_mm2,
                    e.noc_dynamic_pj,
                    e.noc_static_pj,
                    e.cache_dynamic_pj,
                    e.cache_static_pj,
                    e.compressor_pj,
                ] {
                    assert!(v.is_finite(), "{text}");
                }
                assert_eq!(JournalEntry::parse_line(&e.to_line()), Some(e), "{text}");
            }
            None => rejected += 1,
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}

#[test]
fn mutated_flat_objects_are_rejected_or_flat() {
    let mut rng = Rng(0x5eed_2020);
    let record = r#"{"type":"metric","workload":"dse-4x4","name":"setup_s","unit":"s","n":3,"median":0.25,"q1":null,"q3":0.5,"p90":null,"samples":"0.25 0.5 0.125","ok":true}"#;
    let (mut accepted, mut rejected) = (0, 0);
    for text in mutants(record, &mut rng, 1_500)
        .iter()
        .chain(mutants(&journal_line(), &mut rng, 500).iter())
    {
        match parse_flat_object(text) {
            Some(map) => {
                accepted += 1;
                // Every value is a scalar; rendered back as strings, the
                // keys and values survive unchanged.
                let strings = Json::obj(map.iter().map(|(k, v)| (k.as_str(), Json::str(v))));
                assert_eq!(parse_flat_object(&strings.to_string()), Some(map), "{text}");
            }
            None => rejected += 1,
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
