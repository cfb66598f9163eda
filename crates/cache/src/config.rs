//! Cache hierarchy parameters (Table 2 defaults).

use crate::replacement::Replacement;

/// L1 data cache parameters (Table 2: 32 KB, 4-way, 64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Victim selection policy.
    pub replacement: Replacement,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            capacity_bytes: 32 * 1024,
            assoc: 4,
            replacement: Replacement::Lru,
        }
    }
}

impl L1Config {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / 64 / self.assoc
    }
}

/// One NUCA L2 bank (Table 2: 4 MB shared over 16 banks ⇒ 256 KB/bank,
/// 8-way, 64 B lines, LRU, 4-cycle hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Capacity of this bank's data array in bytes.
    pub capacity_bytes: usize,
    /// Baseline associativity (data-array ways).
    pub assoc: usize,
    /// Hit latency in cycles, NoC delay excluded.
    pub hit_latency: u64,
    /// When `true`, the bank stores lines compressed in a segmented data
    /// array: the tag array holds `2 × assoc` tags per set and lines
    /// occupy 8-byte segments, so a set can hold up to twice as many
    /// lines when they compress well.
    pub compressed: bool,
    /// Victim selection policy (Table 2: LRU).
    pub replacement: Replacement,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            capacity_bytes: 256 * 1024,
            assoc: 8,
            hit_latency: 4,
            compressed: false,
            replacement: Replacement::Lru,
        }
    }
}

impl BankConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / 64 / self.assoc
    }

    /// Tag slots per set (doubled in compressed mode).
    pub fn tag_slots(&self) -> usize {
        if self.compressed {
            2 * self.assoc
        } else {
            self.assoc
        }
    }

    /// Data segments (8 B) per set.
    pub fn segments_per_set(&self) -> usize {
        self.assoc * 64 / SEGMENT_BYTES
    }
}

/// Segment granularity of the compressed data array.
pub const SEGMENT_BYTES: usize = 8;

/// Main memory (Table 2: 4 GB DRAM, 1 rank, 1 channel, 8 banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// DRAM banks.
    pub banks: usize,
    /// Row-miss latency (precharge + activate + CAS + transfer) in core
    /// cycles.
    pub access_latency: u64,
    /// Row-hit latency (CAS + transfer only).
    pub row_hit_latency: u64,
    /// 64 B lines per DRAM row (8 KB rows).
    pub row_lines: usize,
    /// Extra serialization between back-to-back accesses to one bank.
    pub bank_busy: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            access_latency: 160,
            row_hit_latency: 40,
            row_lines: 128,
            bank_busy: 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometry() {
        let l1 = L1Config::default();
        assert_eq!(l1.sets(), 128); // 32KB / 64B / 4

        let bank = BankConfig::default();
        assert_eq!(bank.sets(), 512); // 256KB / 64B / 8
        assert_eq!(bank.tag_slots(), 8);
        assert_eq!(bank.segments_per_set(), 64);

        let c = BankConfig {
            compressed: true,
            ..bank
        };
        assert_eq!(c.tag_slots(), 16);
    }
}
