//! An open-page DRAM model with per-bank row buffers (the DRAMsim
//! stand-in; Table 2: 4 GB, 1 rank, 1 channel, 8 banks).
//!
//! Each bank keeps one row open. An access to the open row pays only the
//! CAS + transfer latency; a different row pays precharge + activate +
//! CAS. Banks serialize back-to-back accesses through a busy window.

use crate::addr::LineAddr;
use crate::config::DramConfig;

/// DRAM event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses.
    pub reads: u64,
    /// Write (writeback) accesses.
    pub writes: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that had to open a new row.
    pub row_misses: u64,
    /// Total cycles requests waited behind busy banks.
    pub conflict_cycles: u64,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }
}

/// Main memory behind the on-chip memory controllers.
///
/// ```
/// use disco_cache::dram::Dram;
/// use disco_cache::addr::LineAddr;
/// use disco_cache::config::DramConfig;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let cold = dram.access(LineAddr(0), 100, false);
/// assert_eq!(cold, 100 + 160); // row miss
/// // The next access to the same bank's open row pays only the CAS
/// // latency (line 8 → bank 0, row 0, like line 0).
/// let warm = dram.access(LineAddr(8), 400, false);
/// assert_eq!(warm, 400 + 40);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    bank_free_at: Vec<u64>,
    open_row: Vec<Option<u64>>,
    stats: DramStats,
    /// Fault schedule for bank-stall bursts. `None` keeps the timing
    /// byte-identical to a fault-free run.
    plan: Option<disco_faults::FaultPlan>,
    /// Extra cycles charged by injected bank stalls.
    fault_stall_cycles: u64,
    /// Off-chip access events since the last [`Dram::drain_trace`]; the
    /// harness drains and cycle-stamps these at the end of each tick.
    /// Records only while tracing is on ([`Dram::set_tracing`]).
    site_log: disco_trace::EventList,
}

impl Dram {
    /// An idle DRAM with all rows closed.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            config,
            bank_free_at: vec![0; config.banks],
            open_row: vec![None; config.banks],
            stats: DramStats::default(),
            plan: None,
            fault_stall_cycles: 0,
            site_log: disco_trace::EventList::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Arms the bank-stall fault schedule.
    pub fn set_fault_plan(&mut self, plan: disco_faults::FaultPlan) {
        self.plan = plan.is_active().then_some(plan);
    }

    /// Cycles lost to injected bank stalls.
    pub fn fault_stall_cycles(&self) -> u64 {
        self.fault_stall_cycles
    }

    /// Switches recording of off-chip access events on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.site_log.set_tracing(on);
    }

    /// Takes the events accumulated since the last drain.
    pub fn drain_trace(&mut self) -> Vec<disco_trace::Event> {
        self.site_log.drain()
    }

    /// Issues an access at cycle `now`; returns the completion cycle.
    /// Accesses to a busy bank queue behind it; the row buffer decides
    /// the service latency.
    pub fn access(&mut self, addr: LineAddr, now: u64, write: bool) -> u64 {
        let bank = (addr.0 % self.config.banks as u64) as usize;
        let row = addr.0 / self.config.banks as u64 / self.config.row_lines.max(1) as u64;
        let mut start = now.max(self.bank_free_at[bank]);
        self.stats.conflict_cycles += start - now;
        // A scheduled bank-stall burst holds the bank for an extra
        // penalty window before it can begin service. The lost cycles
        // are tallied separately from ordinary bank conflicts.
        if let Some(plan) = &self.plan {
            if plan.window_fires(
                disco_faults::FaultKind::DramStall,
                now,
                disco_faults::site::dram_bank(bank),
            ) {
                self.fault_stall_cycles += plan.dram_stall_penalty;
                start += plan.dram_stall_penalty;
            }
        }
        let row_hit = self.open_row[bank] == Some(row);
        let latency = if row_hit {
            self.stats.row_hits += 1;
            self.config.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.open_row[bank] = Some(row);
            self.config.access_latency
        };
        disco_trace::emit!(
            self.site_log,
            disco_trace::Event::DramAccess {
                line: addr.0,
                write,
                row_hit,
            }
        );
        let done = start + latency;
        self.bank_free_at[bank] = start + self.config.bank_busy;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_is_a_row_miss() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.access(LineAddr(0), 50, false), 210);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().conflict_cycles, 0);
    }

    #[test]
    fn same_row_hits_fast_path() {
        let mut d = Dram::new(DramConfig::default());
        d.access(LineAddr(0), 0, false);
        // Line 8 → bank 0, same row (row_lines = 128).
        let done = d.access(LineAddr(8), 500, true);
        assert_eq!(done, 500 + DramConfig::default().row_hit_latency);
        assert_eq!(d.stats().row_hits, 1);
        assert!((d.stats().row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_conflict_reopens() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        d.access(LineAddr(0), 0, false);
        // Same bank, different row: bank 0, row 1.
        let far = LineAddr(cfg.banks as u64 * cfg.row_lines as u64);
        let done = d.access(far, 500, false);
        assert_eq!(done, 500 + cfg.access_latency);
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = Dram::new(DramConfig::default());
        let first = d.access(LineAddr(0), 0, false);
        let second = d.access(LineAddr(8), 0, true); // bank 0, same row
        assert_eq!(second, first - 160 + 24 + 40);
        assert_eq!(d.stats().conflict_cycles, 24);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(DramConfig::default());
        let a = d.access(LineAddr(0), 0, false);
        let b = d.access(LineAddr(1), 0, false);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(Dram::new(DramConfig::default()).stats().row_hit_rate(), 0.0);
    }

    #[test]
    fn bank_stalls_delay_service_and_are_counted() {
        let mut plan = disco_faults::FaultPlan::new(11);
        plan.dram_stall_rate = 1.0; // every window stalls
        let mut d = Dram::new(DramConfig::default());
        d.set_fault_plan(plan.clone());
        let done = d.access(LineAddr(0), 50, false);
        assert_eq!(done, 50 + plan.dram_stall_penalty + 160);
        assert_eq!(d.fault_stall_cycles(), plan.dram_stall_penalty);
        // Ordinary conflict accounting stays separate from fault stalls.
        assert_eq!(d.stats().conflict_cycles, 0);
    }

    #[test]
    fn inactive_plan_leaves_timing_untouched() {
        let mut d = Dram::new(DramConfig::default());
        d.set_fault_plan(disco_faults::FaultPlan::new(11)); // all rates zero
        assert_eq!(d.access(LineAddr(0), 50, false), 210);
        assert_eq!(d.fault_stall_cycles(), 0);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

disco_snapshot::snap_fields!(DramStats {
    reads,
    writes,
    row_hits,
    row_misses,
    conflict_cycles,
});

impl Dram {
    /// Writes the controller's mutable state. `config` (and the armed
    /// fault plan) are rebuilt from the builder on restore; the
    /// `site_log` is drained every tick and empty at boundaries.
    pub fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&self.bank_free_at);
        w.put(&self.open_row);
        w.put(&self.stats);
        w.put(&self.fault_stall_cycles);
    }

    /// Overlays state written by [`Dram::snap_state`].
    pub fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let bank_free_at: Vec<u64> = r.take()?;
        if bank_free_at.len() != self.bank_free_at.len() {
            return Err(disco_snapshot::malformed(format!(
                "DRAM bank count {} in snapshot, {} in rebuilt controller",
                bank_free_at.len(),
                self.bank_free_at.len()
            )));
        }
        self.bank_free_at = bank_free_at;
        self.open_row = r.take()?;
        self.stats = r.take()?;
        self.fault_stall_cycles = r.take()?;
        Ok(())
    }
}
