//! The append-only exploration journal: one JSONL line per completed
//! design point. A killed exploration resumes by loading the journal and
//! skipping every point already recorded; a truncated tail line (the
//! kill landed mid-write) is tolerated and simply re-run.
//!
//! Floats are journaled with Rust's shortest-roundtrip `{:?}` formatting
//! and parsed back with `f64::from_str`, which recovers the exact bits —
//! a resumed exploration therefore renders byte-identical output to an
//! uninterrupted one.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::frontier::Objectives;
use crate::json::parse_flat_object;

/// Writes `bytes` to `path` atomically: write a `.tmp` sibling, then
/// rename over the destination. Readers never observe a half-written
/// file. (The `disco-serve` checkpoint/stats writer delegates here.)
///
/// # Errors
///
/// Propagates I/O errors from the write or the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// One journaled point: the measured objectives plus the per-point
/// energy breakdown. No wall-clock anywhere — the journal must be byte-stable across reruns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Design-point id (enumeration order within the space).
    pub id: u64,
    /// Mean on-chip data access latency, cycles.
    pub latency: f64,
    /// Mean energy per cycle, picojoules.
    pub pj_per_cycle: f64,
    /// Added silicon over the uncompressed mesh, mm².
    pub area_mm2: f64,
    /// NoC dynamic energy, pJ.
    pub noc_dynamic_pj: f64,
    /// NoC static energy, pJ.
    pub noc_static_pj: f64,
    /// Cache dynamic energy, pJ.
    pub cache_dynamic_pj: f64,
    /// Cache static energy, pJ.
    pub cache_static_pj: f64,
    /// Compressor/decompressor energy, pJ.
    pub compressor_pj: f64,
    /// `true` for every point run today. Journals and the frontier JSON
    /// keep the key from when a point could be re-run on a sharded
    /// kernel and compared with the serial run, so older journals still
    /// resume and the rendered JSON keeps its shape.
    pub deterministic: bool,
}

impl JournalEntry {
    /// The three minimized objectives of this entry.
    pub fn objectives(&self) -> Objectives {
        Objectives {
            latency: self.latency,
            pj_per_cycle: self.pj_per_cycle,
            area_mm2: self.area_mm2,
        }
    }

    /// Renders the entry as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"id\":{},\"latency\":{:?},\"pj_per_cycle\":{:?},\"area_mm2\":{:?},\
             \"noc_dynamic_pj\":{:?},\"noc_static_pj\":{:?},\"cache_dynamic_pj\":{:?},\
             \"cache_static_pj\":{:?},\"compressor_pj\":{:?},\"deterministic\":{}}}",
            self.id,
            self.latency,
            self.pj_per_cycle,
            self.area_mm2,
            self.noc_dynamic_pj,
            self.noc_static_pj,
            self.cache_dynamic_pj,
            self.cache_static_pj,
            self.compressor_pj,
            self.deterministic,
        )
    }

    /// Parses one journal line. `None` on anything malformed — a
    /// truncated tail after a kill is data, not a bug.
    pub fn parse_line(line: &str) -> Option<Self> {
        let map = parse_flat_object(line)?;
        let f = |k: &str| map.get(k)?.parse::<f64>().ok().filter(|v| v.is_finite());
        Some(JournalEntry {
            id: map.get("id")?.parse().ok()?,
            latency: f("latency")?,
            pj_per_cycle: f("pj_per_cycle")?,
            area_mm2: f("area_mm2")?,
            noc_dynamic_pj: f("noc_dynamic_pj")?,
            noc_static_pj: f("noc_static_pj")?,
            cache_dynamic_pj: f("cache_dynamic_pj")?,
            cache_static_pj: f("cache_static_pj")?,
            compressor_pj: f("compressor_pj")?,
            deterministic: match map.get("deterministic")?.as_str() {
                "true" => true,
                "false" => false,
                _ => return None,
            },
        })
    }
}

/// An append-only JSONL journal of completed points.
pub struct Journal {
    path: std::path::PathBuf,
}

impl Journal {
    /// Opens (or designates) a journal at `path`. Nothing is created
    /// until the first append.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every well-formed entry, keyed by point id. Malformed
    /// lines (the truncated tail of a killed run) are skipped; a later
    /// entry for the same id wins (idempotent reruns may re-append).
    /// A missing file is an empty journal.
    pub fn load(&self) -> BTreeMap<u64, JournalEntry> {
        let Ok(text) = fs::read_to_string(&self.path) else {
            return BTreeMap::new();
        };
        text.lines()
            .filter_map(JournalEntry::parse_line)
            .map(|e| (e.id, e))
            .collect()
    }

    /// Appends entries as one buffered write (one `write` syscall per
    /// batch keeps lines from interleaving if two drivers ever share a
    /// journal, and bounds the torn-tail window to the final line). If
    /// the file ends mid-line — a previous run was killed mid-write —
    /// a newline is emitted first, so the new entries never merge into
    /// the torn tail.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure.
    pub fn append(&self, entries: &[JournalEntry]) {
        if entries.is_empty() {
            return;
        }
        let mut buf = String::new();
        if let Ok(text) = fs::read_to_string(&self.path) {
            if !text.is_empty() && !text.ends_with('\n') {
                buf.push('\n');
            }
        }
        for e in entries {
            buf.push_str(&e.to_line());
            buf.push('\n');
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .unwrap_or_else(|e| panic!("open {}: {e}", self.path.display()));
        file.write_all(buf.as_bytes())
            .unwrap_or_else(|e| panic!("append {}: {e}", self.path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> JournalEntry {
        JournalEntry {
            id,
            latency: 12.25 + id as f64 / 3.0,
            pj_per_cycle: 0.1 * id as f64 + 1.0 / 7.0,
            area_mm2: 1e-3 * id as f64,
            noc_dynamic_pj: 100.5,
            noc_static_pj: 7.0,
            cache_dynamic_pj: 300.125,
            cache_static_pj: 11.0,
            compressor_pj: 0.75,
            deterministic: id.is_multiple_of(2),
        }
    }

    #[test]
    fn entries_roundtrip_bit_exactly() {
        for id in 0..10 {
            let e = entry(id);
            let back = JournalEntry::parse_line(&e.to_line()).expect("parses");
            assert_eq!(back.id, e.id);
            assert_eq!(back.deterministic, e.deterministic);
            for (a, b) in [
                (back.latency, e.latency),
                (back.pj_per_cycle, e.pj_per_cycle),
                (back.area_mm2, e.area_mm2),
                (back.noc_dynamic_pj, e.noc_dynamic_pj),
                (back.noc_static_pj, e.noc_static_pj),
                (back.cache_dynamic_pj, e.cache_dynamic_pj),
                (back.cache_static_pj, e.cache_static_pj),
                (back.compressor_pj, e.compressor_pj),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "floats must round-trip exactly");
            }
        }
    }

    #[test]
    fn journal_loads_what_it_appended_and_skips_torn_tail() {
        let dir = std::env::temp_dir().join("disco-pareto-journal-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j1.jsonl");
        let _ = fs::remove_file(&path);
        let j = Journal::new(&path);
        assert!(j.load().is_empty(), "missing file is an empty journal");
        j.append(&[entry(0), entry(3)]);
        j.append(&[entry(1)]);
        // Simulate a kill mid-write: append a torn tail by hand.
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"id\":9,\"latency\":1.").unwrap();
        drop(file);
        let loaded = j.load();
        assert_eq!(loaded.keys().copied().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(loaded[&3], entry(3));
        // An append after the torn tail must start on a fresh line —
        // not merge into the garbage — and idempotent re-appends must
        // not confuse the load.
        j.append(&[entry(1), entry(5)]);
        let loaded = j.load();
        assert_eq!(loaded.keys().copied().collect::<Vec<_>>(), vec![0, 1, 3, 5]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join("disco-pareto-journal-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp must be renamed away"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn non_finite_journal_values_are_rejected() {
        let line = "{\"id\":1,\"latency\":NaN,\"pj_per_cycle\":1.0,\"area_mm2\":0.0,\
                    \"noc_dynamic_pj\":1.0,\"noc_static_pj\":1.0,\"cache_dynamic_pj\":1.0,\
                    \"cache_static_pj\":1.0,\"compressor_pj\":1.0,\"deterministic\":true}";
        assert_eq!(JournalEntry::parse_line(line), None);
    }
}
