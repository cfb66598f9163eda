//! A NUCA L2 bank with optional compressed (segmented) storage.
//!
//! In compressed mode the data array is managed as 8-byte segments with a
//! doubled tag array, the standard decoupled organization of compressed
//! caches (paper refs. \[2\], \[5\]): a set's 8 ways of data (64 segments) can hold up to
//! 16 lines when they compress to half size or better. This is where
//! cache compression's capacity benefit — and therefore the miss-rate
//! reduction all evaluated schemes share — comes from.

use crate::addr::LineAddr;
use crate::config::{BankConfig, SEGMENT_BYTES};
use crate::replacement::{ReplState, ReplacementPolicy};
use disco_compress::{CacheLine, CompressedLine};

/// A line as stored in the bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredLine {
    /// Uncompressed (occupies all 8 segments).
    Raw(CacheLine),
    /// Compressed (occupies `ceil(bytes / 8)` segments).
    Compressed(CompressedLine),
}

impl StoredLine {
    /// Data-array segments this line occupies.
    pub fn segments(&self) -> usize {
        match self {
            StoredLine::Raw(_) => disco_compress::LINE_BYTES / SEGMENT_BYTES,
            StoredLine::Compressed(c) => c.size_bytes().div_ceil(SEGMENT_BYTES).max(1),
        }
    }

    /// Stored size in bytes (segment-granular).
    pub fn size_bytes(&self) -> usize {
        self.segments() * SEGMENT_BYTES
    }

    /// True for [`StoredLine::Compressed`].
    pub fn is_compressed(&self) -> bool {
        matches!(self, StoredLine::Compressed(_))
    }
}

/// A line pushed out of the bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Its address.
    pub addr: LineAddr,
    /// Its data, in stored form.
    pub data: StoredLine,
    /// True if it must be written back to memory.
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    tag: u64,
    data: StoredLine,
    dirty: bool,
    repl: ReplState,
}

/// Bank event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Fills.
    pub insertions: u64,
    /// Evictions (clean + dirty).
    pub evictions: u64,
    /// Dirty evictions.
    pub dirty_evictions: u64,
    /// Data-array bytes moved by hits and fills (segment-granular). The
    /// energy model charges the data array per byte, so compressed lines
    /// cost proportionally less to read and write.
    pub bytes_accessed: u64,
}

impl BankStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.misses as f64 / total as f64
    }
}

/// One NUCA bank.
///
/// ```
/// use disco_cache::nuca::{NucaBank, StoredLine};
/// use disco_cache::addr::LineAddr;
/// use disco_cache::config::BankConfig;
/// use disco_compress::CacheLine;
///
/// let mut bank = NucaBank::new(BankConfig::default(), 0, 16);
/// let a = LineAddr(0); // home bank 0
/// assert!(bank.lookup(a).is_none());
/// bank.insert(a, StoredLine::Raw(CacheLine::zeroed()), false);
/// assert!(bank.lookup(a).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct NucaBank {
    config: BankConfig,
    banks_total: usize,
    sets: Vec<Vec<Entry>>,
    policy: ReplacementPolicy,
    clock: u64,
    stats: BankStats,
    /// Boundary-crossing events since the last [`NucaBank::drain_trace`].
    /// The bank has no notion of the global cycle, so the harness drains
    /// and stamps these at the end of each tick, in bank-index order.
    /// Records only while tracing is on ([`NucaBank::set_tracing`]).
    site_log: disco_trace::EventList,
    bank_id: u16,
}

impl NucaBank {
    /// An empty bank. `bank_id` is informational; `banks_total` defines
    /// the address interleaving.
    pub fn new(config: BankConfig, bank_id: usize, banks_total: usize) -> Self {
        NucaBank {
            config,
            banks_total,
            sets: vec![Vec::new(); config.sets()],
            policy: ReplacementPolicy::new(config.replacement, 0xba5e ^ bank_id as u64),
            clock: 0,
            stats: BankStats::default(),
            site_log: disco_trace::EventList::default(),
            bank_id: bank_id as u16,
        }
    }

    /// Switches recording of boundary-crossing events on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.site_log.set_tracing(on);
    }

    /// Takes the events accumulated since the last drain.
    pub fn drain_trace(&mut self) -> Vec<disco_trace::Event> {
        self.site_log.drain()
    }

    /// The bank's configuration.
    pub fn config(&self) -> &BankConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        addr.bank_set(self.banks_total, self.config.sets())
    }

    fn tag_of(&self, addr: LineAddr) -> u64 {
        addr.bank_tag(self.banks_total, self.config.sets())
    }

    fn segments_used(&self, set: usize) -> usize {
        self.sets[set].iter().map(|e| e.data.segments()).sum()
    }

    /// Demand lookup with LRU update.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&StoredLine> {
        self.clock += 1;
        let tag = self.tag_of(addr);
        let set = self.set_of(addr);
        let clock = self.clock;
        match self.sets[set].iter().position(|e| e.tag == tag) {
            Some(i) => {
                let entry = &mut self.sets[set][i];
                self.policy.touch(&mut entry.repl, clock);
                self.stats.hits += 1;
                disco_trace::emit!(
                    self.site_log,
                    disco_trace::Event::L2Access {
                        node: self.bank_id,
                        line: addr.0,
                        hit: true,
                    }
                );
                let data = &self.sets[set][i].data;
                self.stats.bytes_accessed += data.size_bytes() as u64;
                Some(data)
            }
            None => {
                self.stats.misses += 1;
                disco_trace::emit!(
                    self.site_log,
                    disco_trace::Event::L2Access {
                        node: self.bank_id,
                        line: addr.0,
                        hit: false,
                    }
                );
                None
            }
        }
    }

    /// Presence check without stats or LRU effects.
    pub fn contains(&self, addr: LineAddr) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_of(addr)].iter().any(|e| e.tag == tag)
    }

    /// Marks a resident line dirty and replaces its data (an L1 writeback
    /// landing on a present line). Returns evictions if the new encoding
    /// is larger and overflows the set.
    pub fn update(&mut self, addr: LineAddr, data: StoredLine) -> Vec<Eviction> {
        self.insert_inner(addr, data, true)
    }

    /// Installs a line, evicting LRU lines until both a tag slot and
    /// enough data segments are free. Returns the evictions, dirty ones
    /// first .. in eviction order.
    pub fn insert(&mut self, addr: LineAddr, data: StoredLine, dirty: bool) -> Vec<Eviction> {
        self.insert_inner(addr, data, dirty)
    }

    fn insert_inner(&mut self, addr: LineAddr, data: StoredLine, dirty: bool) -> Vec<Eviction> {
        self.clock += 1;
        self.stats.insertions += 1;
        self.stats.bytes_accessed += data.size_bytes() as u64;
        disco_trace::emit!(
            self.site_log,
            disco_trace::Event::L2Insert {
                node: self.bank_id,
                line: addr.0,
            }
        );
        let tag = self.tag_of(addr);
        let set = self.set_of(addr);
        let sets_count = self.config.sets();
        // Replace in place if present (dirty is sticky).
        let mut was_dirty = false;
        if let Some(idx) = self.sets[set].iter().position(|e| e.tag == tag) {
            was_dirty = self.sets[set][idx].dirty;
            self.sets[set].remove(idx);
        }
        let clock = self.clock;
        let mut repl = ReplState::default();
        self.policy.touch(&mut repl, clock);
        self.sets[set].push(Entry {
            tag,
            data,
            dirty: dirty || was_dirty,
            repl,
        });
        // Evict until the set fits its tag-slot and segment budgets,
        // never choosing the line just inserted.
        let mut evictions = Vec::new();
        let tag_slots = self.config.tag_slots();
        let seg_budget = self.config.segments_per_set();
        loop {
            let over_tags = self.sets[set].len() > tag_slots;
            let over_segs = self.segments_used(set) > seg_budget;
            if !over_tags && !over_segs {
                break;
            }
            let candidates: Vec<(usize, ReplState)> = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.tag != tag)
                .map(|(i, e)| (i, e.repl))
                .collect();
            assert!(
                !candidates.is_empty(),
                "a raw line always fits one way; another entry must exist"
            );
            let (victim_idx, clear_epoch) = self.policy.victim(&candidates);
            if clear_epoch {
                for e in self.sets[set].iter_mut() {
                    e.repl.referenced = false;
                }
            }
            let e = self.sets[set].remove(victim_idx);
            self.stats.evictions += 1;
            if e.dirty {
                self.stats.dirty_evictions += 1;
            }
            let evicted_addr = LineAddr(
                (e.tag * sets_count as u64 + set as u64) * self.banks_total as u64
                    + (addr.0 % self.banks_total as u64),
            );
            evictions.push(Eviction {
                addr: evicted_addr,
                data: e.data,
                dirty: e.dirty,
            });
        }
        evictions
    }

    /// Removes a line (inclusive-LLC recall). Returns its data and dirty
    /// bit.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<(StoredLine, bool)> {
        let tag = self.tag_of(addr);
        let set = self.set_of(addr);
        let idx = self.sets[set].iter().position(|e| e.tag == tag)?;
        let e = self.sets[set].remove(idx);
        Some((e.data, e.dirty))
    }

    /// Lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Mean lines per set — > `assoc` means compression is buying
    /// effective capacity.
    pub fn effective_ways(&self) -> f64 {
        self.resident_lines() as f64 / self.sets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_compress::{scheme::Compressor, Codec};

    const BANKS: usize = 16;

    fn tiny(compressed: bool) -> NucaBank {
        // 2 sets × 2 ways: segment budget 16, tag slots 2 or 4.
        NucaBank::new(
            BankConfig {
                capacity_bytes: 2 * 2 * 64,
                assoc: 2,
                hit_latency: 4,
                compressed,
                ..BankConfig::default()
            },
            0,
            BANKS,
        )
    }

    /// Line addresses that map to bank 0, set `set` of the tiny bank.
    fn addr_in_set(set: usize, k: u64) -> LineAddr {
        LineAddr(((k * 2 + set as u64) * BANKS as u64) % (u64::MAX / 2))
    }

    fn raw(v: u64) -> StoredLine {
        StoredLine::Raw(CacheLine::from_u64_words([v; 8]))
    }

    fn small_compressed() -> StoredLine {
        let codec = Codec::delta();
        StoredLine::Compressed(codec.compress(&CacheLine::zeroed()))
    }

    #[test]
    fn segments_accounting() {
        assert_eq!(raw(1).segments(), 8);
        assert_eq!(small_compressed().segments(), 1);
        assert_eq!(small_compressed().size_bytes(), 8);
    }

    #[test]
    fn hit_after_insert() {
        let mut bank = tiny(false);
        let a = addr_in_set(0, 1);
        assert!(bank.lookup(a).is_none());
        bank.insert(a, raw(5), false);
        assert!(bank.lookup(a).is_some());
        assert_eq!(bank.stats().hits, 1);
        assert_eq!(bank.stats().misses, 1);
    }

    #[test]
    fn uncompressed_mode_holds_assoc_lines() {
        let mut bank = tiny(false);
        let a = addr_in_set(0, 1);
        let b = addr_in_set(0, 2);
        let c = addr_in_set(0, 3);
        assert!(bank.insert(a, raw(1), false).is_empty());
        assert!(bank.insert(b, raw(2), false).is_empty());
        let ev = bank.insert(c, raw(3), true);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, a);
        assert!(!ev[0].dirty);
        assert_eq!(bank.resident_lines(), 2);
    }

    #[test]
    fn compressed_mode_packs_more_lines() {
        let mut bank = tiny(true);
        // Four 1-segment lines fit in a 2-way set (budget 16 segments,
        // 4 tag slots).
        for k in 1..=4 {
            let ev = bank.insert(addr_in_set(0, k), small_compressed(), false);
            assert!(ev.is_empty(), "insert {k} must not evict");
        }
        assert_eq!(bank.resident_lines(), 4);
        assert!(bank.effective_ways() > 1.9);
    }

    #[test]
    fn tag_slots_bound_compressed_lines() {
        let mut bank = tiny(true);
        for k in 1..=5 {
            bank.insert(addr_in_set(0, k), small_compressed(), false);
        }
        // 5th line exceeds the 4 tag slots: one eviction.
        assert_eq!(bank.resident_lines(), 4);
        assert_eq!(bank.stats().evictions, 1);
    }

    #[test]
    fn segment_budget_bounds_raw_lines_in_compressed_mode() {
        let mut bank = tiny(true);
        let ev1 = bank.insert(addr_in_set(0, 1), raw(1), false);
        let ev2 = bank.insert(addr_in_set(0, 2), raw(2), false);
        assert!(ev1.is_empty() && ev2.is_empty());
        // Two raw lines = 16 segments = full budget; a third forces out
        // the LRU even though tag slots remain.
        let ev3 = bank.insert(addr_in_set(0, 3), raw(3), false);
        assert_eq!(ev3.len(), 1);
    }

    #[test]
    fn update_marks_dirty_and_can_grow() {
        let mut bank = tiny(true);
        let a = addr_in_set(0, 1);
        bank.insert(a, small_compressed(), false);
        bank.insert(addr_in_set(0, 2), raw(2), false);
        bank.insert(addr_in_set(0, 3), raw(3), false); // 1 + 8 + 8 = 17 > 16? evicts
                                                       // Now grow line `a` to raw: may evict others.
        let _ = bank.update(a, raw(9));
        let (data, dirty) = bank.invalidate(a).expect("a resident");
        assert!(dirty);
        assert_eq!(data, raw(9));
    }

    #[test]
    fn eviction_address_reconstructs() {
        let mut bank = tiny(false);
        let a = addr_in_set(1, 7);
        bank.insert(a, raw(1), true);
        bank.insert(addr_in_set(1, 8), raw(2), false);
        let ev = bank.insert(addr_in_set(1, 9), raw(3), false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, a, "evicted address must reconstruct exactly");
        assert!(ev[0].dirty);
    }

    #[test]
    fn full_size_bank_matches_table2() {
        let bank = NucaBank::new(BankConfig::default(), 0, 16);
        assert_eq!(bank.sets.len(), 512);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

impl disco_snapshot::Snap for StoredLine {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        match self {
            StoredLine::Raw(line) => {
                w.put(&0u8);
                w.put(line);
            }
            StoredLine::Compressed(c) => {
                w.put(&1u8);
                w.put(c);
            }
        }
    }
    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => StoredLine::Raw(r.take()?),
            1 => StoredLine::Compressed(r.take()?),
            tag => return Err(disco_snapshot::malformed(format!("StoredLine tag {tag}"))),
        })
    }
}

disco_snapshot::snap_fields!(Entry {
    tag,
    data,
    dirty,
    repl,
});

disco_snapshot::snap_fields!(BankStats {
    hits,
    misses,
    insertions,
    evictions,
    dirty_evictions,
    bytes_accessed,
});

impl NucaBank {
    /// Writes the bank's mutable state. `config`, `banks_total`, and the
    /// trace identifiers are rebuilt from the builder; the `site_log` is
    /// drained every tick and therefore empty at snapshot boundaries.
    pub fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&self.sets);
        w.put(&self.policy);
        w.put(&self.clock);
        w.put(&self.stats);
    }

    /// Overlays state written by [`NucaBank::snap_state`] onto a bank
    /// freshly built with the same config.
    pub fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let sets: Vec<Vec<Entry>> = r.take()?;
        if sets.len() != self.sets.len() {
            return Err(disco_snapshot::malformed(format!(
                "bank set count {} in snapshot, {} in rebuilt bank",
                sets.len(),
                self.sets.len()
            )));
        }
        self.sets = sets;
        self.policy = r.take()?;
        self.clock = r.take()?;
        self.stats = r.take()?;
        Ok(())
    }
}
