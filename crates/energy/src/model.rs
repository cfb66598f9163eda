//! Event-based 45 nm energy model for the on-chip memory subsystem
//! (NoC + NUCA), in the style of Orion 2.0 (routers/links) and CACTI
//! (SRAM banks), plus the synthesized DISCO compressor figures (§4.2).
//!
//! The paper reports only *normalized* energy, so absolute constants
//! matter less than their ratios; the defaults below are in the range
//! Orion 2.0 and CACTI 6 report for 45 nm, 64-bit flits, and 256 KB
//! banks.

/// Per-event energies in picojoules and static power in picojoules per
/// cycle per component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Writing one flit into an input buffer.
    pub buffer_write_pj: f64,
    /// Reading one flit out of an input buffer.
    pub buffer_read_pj: f64,
    /// One flit through the crossbar.
    pub crossbar_pj: f64,
    /// One allocation (VA/SA) decision.
    pub arbiter_pj: f64,
    /// One flit across an inter-router link (1 mm at 45 nm).
    pub link_pj: f64,
    /// One flit across a long-range express link (span-2 wire, so about
    /// twice the single-hop wire energy; the router stages it skips are
    /// what make the express hop cheaper overall).
    pub express_link_pj: f64,
    /// Fixed part of one L2 bank access (tag match, decoders, sense-amp
    /// setup — paid regardless of line size).
    pub bank_access_pj: f64,
    /// Data-array energy per byte actually read or written. Compressed
    /// lines touch fewer segments, so they cost proportionally less —
    /// the main cache-side energy saving of compression.
    pub bank_byte_pj: f64,
    /// One compression operation.
    pub compress_pj: f64,
    /// One decompression operation.
    pub decompress_pj: f64,
    /// Router leakage per cycle.
    pub router_static_pj: f64,
    /// Bank leakage per cycle.
    pub bank_static_pj: f64,
    /// Compressor + arbitrator leakage per cycle (only charged on
    /// configurations that have the hardware).
    pub compressor_static_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            buffer_write_pj: 2.2,
            buffer_read_pj: 1.8,
            crossbar_pj: 1.5,
            arbiter_pj: 0.2,
            link_pj: 3.6,
            express_link_pj: 7.2,
            bank_access_pj: 130.0,
            bank_byte_pj: 3.9,
            compress_pj: 28.0,
            decompress_pj: 20.0,
            router_static_pj: 0.6,
            bank_static_pj: 4.0,
            compressor_static_pj: 0.1,
        }
    }
}

/// Event counts gathered by the system simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Routers in the mesh.
    pub routers: u64,
    /// NUCA banks.
    pub banks: u64,
    /// Components containing de/compression hardware (banks for CC, banks
    /// + NIs for CNC, routers for DISCO).
    pub compressor_sites: u64,
    /// Buffer write events.
    pub buffer_writes: u64,
    /// Buffer read events.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub crossbar_flits: u64,
    /// Allocation decisions.
    pub arbitrations: u64,
    /// Single-hop link traversals.
    pub link_flits: u64,
    /// Long-range express-link traversals (express-mesh only).
    pub express_flits: u64,
    /// Bank accesses (lookups + fills).
    pub bank_accesses: u64,
    /// Data-array bytes moved across all bank accesses.
    pub bank_bytes: u64,
    /// Compression operations.
    pub compressions: u64,
    /// Decompression operations.
    pub decompressions: u64,
}

/// Energy totals in picojoules, broken down by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic NoC energy (buffers, crossbar, arbitration, links).
    pub noc_dynamic_pj: f64,
    /// NoC leakage.
    pub noc_static_pj: f64,
    /// Dynamic NUCA energy.
    pub cache_dynamic_pj: f64,
    /// NUCA leakage.
    pub cache_static_pj: f64,
    /// De/compression hardware energy (dynamic + leakage).
    pub compressor_pj: f64,
}

impl EnergyBreakdown {
    /// Total memory-subsystem energy.
    pub fn total_pj(&self) -> f64 {
        self.noc_dynamic_pj
            + self.noc_static_pj
            + self.cache_dynamic_pj
            + self.cache_static_pj
            + self.compressor_pj
    }
}

impl EnergyModel {
    /// Evaluates the model over a set of event counts.
    pub fn evaluate(&self, c: &EnergyCounts) -> EnergyBreakdown {
        EnergyBreakdown {
            noc_dynamic_pj: c.buffer_writes as f64 * self.buffer_write_pj
                + c.buffer_reads as f64 * self.buffer_read_pj
                + c.crossbar_flits as f64 * self.crossbar_pj
                + c.arbitrations as f64 * self.arbiter_pj
                + c.link_flits as f64 * self.link_pj
                + c.express_flits as f64 * self.express_link_pj,
            noc_static_pj: (c.cycles * c.routers) as f64 * self.router_static_pj,
            cache_dynamic_pj: c.bank_accesses as f64 * self.bank_access_pj
                + c.bank_bytes as f64 * self.bank_byte_pj,
            cache_static_pj: (c.cycles * c.banks) as f64 * self.bank_static_pj,
            compressor_pj: c.compressions as f64 * self.compress_pj
                + c.decompressions as f64 * self.decompress_pj
                + (c.cycles * c.compressor_sites) as f64 * self.compressor_static_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> EnergyCounts {
        EnergyCounts {
            cycles: 1_000,
            routers: 16,
            banks: 16,
            compressor_sites: 16,
            buffer_writes: 500,
            buffer_reads: 500,
            crossbar_flits: 500,
            arbitrations: 400,
            link_flits: 450,
            express_flits: 50,
            bank_accesses: 100,
            compressions: 40,
            decompressions: 60,
            ..EnergyCounts::default()
        }
    }

    #[test]
    fn totals_are_sums() {
        let m = EnergyModel::default();
        let b = m.evaluate(&counts());
        let manual = b.noc_dynamic_pj
            + b.noc_static_pj
            + b.cache_dynamic_pj
            + b.cache_static_pj
            + b.compressor_pj;
        assert!((b.total_pj() - manual).abs() < 1e-9);
        assert!(b.total_pj() > 0.0);
    }

    #[test]
    fn fewer_flits_means_less_noc_energy() {
        let m = EnergyModel::default();
        let mut a = counts();
        let b = m.evaluate(&a);
        a.link_flits /= 2;
        a.express_flits /= 2;
        a.buffer_writes /= 2;
        a.buffer_reads /= 2;
        a.crossbar_flits /= 2;
        let c = m.evaluate(&a);
        assert!(c.noc_dynamic_pj < b.noc_dynamic_pj);
        assert_eq!(c.noc_static_pj, b.noc_static_pj);
    }

    #[test]
    fn compressor_energy_scales_with_sites() {
        let m = EnergyModel::default();
        let mut a = counts();
        a.compressions = 0;
        a.decompressions = 0;
        let one = m.evaluate(&EnergyCounts {
            compressor_sites: 16,
            ..a
        });
        let two = m.evaluate(&EnergyCounts {
            compressor_sites: 32,
            ..a
        });
        assert!(two.compressor_pj > one.compressor_pj);
    }

    #[test]
    fn express_flits_cost_the_express_rate() {
        let m = EnergyModel::default();
        let b = m.evaluate(&EnergyCounts {
            express_flits: 10,
            ..EnergyCounts::default()
        });
        assert!((b.noc_dynamic_pj - 10.0 * m.express_link_pj).abs() < 1e-9);
        assert!(m.express_link_pj > m.link_pj, "longer wire costs more");
    }

    #[test]
    fn zero_counts_zero_energy() {
        let m = EnergyModel::default();
        assert_eq!(m.evaluate(&EnergyCounts::default()).total_pj(), 0.0);
    }
}
