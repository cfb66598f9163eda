//! Simulation results: the measurements the paper's figures plot.

use crate::engine::DiscoStats;
use crate::histogram::LatencyHistogram;
use crate::placement::CompressionPlacement;
use disco_cache::coherence::DirStats;
use disco_cache::dram::DramStats;
use disco_cache::{BankStats, L1Stats};
use disco_compress::{CompressionStats, SchemeKind};
use disco_energy::{EnergyBreakdown, EnergyCounts, EnergyModel, EnergyReport};
use disco_faults::FaultStats;
use disco_noc::NetworkStats;
use disco_trace::ProvenanceTotals;

/// Trace capture attached to a report when the run opted into tracing
/// (see [`SimBuilder::capture_trace`](crate::SimBuilder::capture_trace)).
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// Events emitted over the whole run.
    pub events: u64,
    /// Events the ring buffer dropped (always 0 here: the harness drains
    /// the ring every tick, so the capture is lossless).
    pub dropped: u64,
    /// Per-packet latency decomposition and its aggregates.
    pub provenance: disco_trace::ProvenanceReport,
    /// Raw cycle-stamped records, kept only when
    /// [`SimBuilder::retain_trace_records`](crate::SimBuilder::retain_trace_records)
    /// asked for them; feed these to [`disco_trace::export`].
    pub records: Vec<disco_trace::Record>,
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The placement simulated.
    pub placement: CompressionPlacement,
    /// The codec used.
    pub scheme: SchemeKind,
    /// Cycles simulated until the trace drained.
    pub cycles: u64,
    /// Completed L1 demand misses (primary misses).
    pub demand_misses: u64,
    /// Sum over demand misses of issue-to-fill latency, including
    /// off-chip DRAM service time for LLC misses.
    pub total_miss_latency: u64,
    /// Sum over demand misses of the *on-chip* portion of the latency
    /// (DRAM service time excluded) — the "NUCA data access latency" of
    /// §4.2: NoC delay + bank access + codec delays.
    pub total_onchip_latency: u64,
    /// Distribution of per-miss on-chip latencies (power-of-two
    /// buckets; use for p50/p90/p99 tail analysis).
    pub latency_histogram: LatencyHistogram,
    /// Aggregated L1 counters over all tiles.
    pub l1: L1Stats,
    /// Aggregated NUCA bank counters.
    pub banks: BankStats,
    /// Aggregated MOESI directory counters over all home banks.
    pub directory: DirStats,
    /// Network counters.
    pub network: NetworkStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Compression statistics over every line compressed anywhere.
    pub compression: CompressionStats,
    /// DISCO-layer counters (None for other placements).
    pub disco: Option<DiscoStats>,
    /// Raw energy event counts.
    pub energy_counts: EnergyCounts,
    /// Evaluated energy breakdown.
    pub energy: EnergyBreakdown,
    /// Fault-injection ledger (None unless the run armed a fault plan
    /// via [`SimBuilder::faults`](crate::SimBuilder::faults)).
    pub faults: Option<disco_faults::FaultStats>,
    /// Trace capture and latency provenance (None unless the run opted
    /// in via the builder).
    pub trace: Option<TraceCapture>,
}

impl SimReport {
    /// Mean end-to-end latency per L1 miss (DRAM included), in cycles.
    pub fn avg_access_latency(&self) -> f64 {
        if self.demand_misses == 0 {
            return 0.0;
        }
        self.total_miss_latency as f64 / self.demand_misses as f64
    }

    /// Mean **on-chip** data access latency per L1 miss — the Fig. 5/6/8
    /// metric: NUCA + NoC + codec cycles, off-chip DRAM service excluded.
    pub fn avg_onchip_latency(&self) -> f64 {
        if self.demand_misses == 0 {
            return 0.0;
        }
        self.total_onchip_latency as f64 / self.demand_misses as f64
    }

    /// Total memory-subsystem (NoC + NUCA) energy in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Re-evaluates energy with a custom model.
    pub fn energy_with(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.evaluate(&self.energy_counts)
    }

    /// The run's energy accounting as one self-describing record —
    /// what served/checkpointed jobs and the DSE journal carry.
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport {
            counts: self.energy_counts,
            breakdown: self.energy,
        }
    }

    /// Writes the report as a flat `key = value` stats file (gem5-style),
    /// convenient for diffing runs and for downstream tooling. A `&mut`
    /// reference works as the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_stats<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        // The counter structs are destructured without `..`: a new
        // counter does not compile until it is written here or waived
        // with `_` (and a note on which key already carries it).
        writeln!(w, "config.placement = {}", self.placement.name())?;
        writeln!(w, "config.scheme = {}", self.scheme.name())?;
        writeln!(w, "sim.cycles = {}", self.cycles)?;
        writeln!(w, "core.demand_misses = {}", self.demand_misses)?;
        writeln!(
            w,
            "core.avg_access_latency = {:.4}",
            self.avg_access_latency()
        )?;
        writeln!(
            w,
            "core.avg_onchip_latency = {:.4}",
            self.avg_onchip_latency()
        )?;
        writeln!(
            w,
            "core.onchip_latency_p50 = {:.1}",
            self.latency_histogram.percentile(0.5)
        )?;
        writeln!(
            w,
            "core.onchip_latency_p90 = {:.1}",
            self.latency_histogram.percentile(0.9)
        )?;
        writeln!(
            w,
            "core.onchip_latency_p99 = {:.1}",
            self.latency_histogram.percentile(0.99)
        )?;
        let L1Stats {
            hits,
            misses,
            writebacks,
            invalidations,
        } = self.l1;
        writeln!(w, "l1.hits = {hits}")?;
        writeln!(w, "l1.misses = {misses}")?;
        writeln!(w, "l1.miss_rate = {:.4}", self.l1.miss_rate())?;
        writeln!(w, "l1.writebacks = {writebacks}")?;
        writeln!(w, "l1.invalidations = {invalidations}")?;
        let BankStats {
            hits,
            misses,
            insertions: _, // no key (ROADMAP item 4)
            evictions,
            dirty_evictions: _, // no key (ROADMAP item 4)
            bytes_accessed,
        } = self.banks;
        writeln!(w, "llc.hits = {hits}")?;
        writeln!(w, "llc.misses = {misses}")?;
        writeln!(w, "llc.miss_rate = {:.4}", self.banks.miss_rate())?;
        writeln!(w, "llc.evictions = {evictions}")?;
        writeln!(w, "llc.bytes_accessed = {bytes_accessed}")?;
        // The directory counters reach no key yet; `SimReport.directory`
        // carries them to the tests and the benchmark.
        let DirStats {
            bank_reads: _,     // no key (ROADMAP item 4)
            owner_forwards: _, // no key (ROADMAP item 4)
            invalidations: _,  // no key (ROADMAP item 4)
            write_requests: _, // no key (ROADMAP item 4)
        } = self.directory;
        let NetworkStats {
            cycles,
            packets_injected,
            packets_delivered,
            link_flits,
            express_link_flits,
            buffer_writes,
            buffer_reads,
            crossbar_flits,
            arbitrations,
            sa_losses,
            total_packet_latency,
            total_hops,
            delivered_by_class: [dreq, dresp, dcoh],
            latency_by_class: [lreq, lresp, lcoh],
            routing_violations,
        } = self.network;
        writeln!(w, "noc.cycles = {cycles}")?;
        writeln!(w, "noc.packets_injected = {packets_injected}")?;
        writeln!(w, "noc.packets_delivered = {packets_delivered}")?;
        writeln!(w, "noc.link_flits = {link_flits}")?;
        writeln!(w, "noc.express_link_flits = {express_link_flits}")?;
        writeln!(w, "noc.buffer_writes = {buffer_writes}")?;
        writeln!(w, "noc.buffer_reads = {buffer_reads}")?;
        writeln!(w, "noc.crossbar_flits = {crossbar_flits}")?;
        writeln!(w, "noc.arbitrations = {arbitrations}")?;
        let avg_latency = self.network.avg_packet_latency();
        writeln!(w, "noc.avg_packet_latency = {avg_latency:.4}")?;
        writeln!(w, "noc.total_packet_latency = {total_packet_latency}")?;
        writeln!(w, "noc.avg_hops = {:.4}", self.network.avg_hops())?;
        writeln!(w, "noc.total_hops = {total_hops}")?;
        writeln!(w, "noc.sa_losses = {sa_losses}")?;
        writeln!(w, "noc.routing_violations = {routing_violations}")?;
        writeln!(w, "noc.delivered_by_class = {dreq} {dresp} {dcoh}")?;
        writeln!(w, "noc.latency_by_class = {lreq} {lresp} {lcoh}")?;
        let DramStats {
            reads,
            writes,
            row_hits: _,        // dram.row_hit_rate
            row_misses: _,      // dram.row_hit_rate
            conflict_cycles: _, // no key (ROADMAP item 4)
        } = self.dram;
        writeln!(w, "dram.reads = {reads}")?;
        writeln!(w, "dram.writes = {writes}")?;
        writeln!(w, "dram.row_hit_rate = {:.4}", self.dram.row_hit_rate())?;
        writeln!(w, "compression.lines = {}", self.compression.lines())?;
        writeln!(
            w,
            "compression.mean_ratio = {:.4}",
            self.compression.mean_ratio()
        )?;
        let er = self.energy_report();
        let EnergyBreakdown {
            noc_dynamic_pj,
            noc_static_pj,
            cache_dynamic_pj,
            cache_static_pj,
            compressor_pj,
        } = er.breakdown;
        writeln!(w, "energy.total_pj = {:.1}", er.total_pj())?;
        writeln!(w, "energy.noc_dynamic_pj = {noc_dynamic_pj:.1}")?;
        writeln!(w, "energy.noc_static_pj = {noc_static_pj:.1}")?;
        writeln!(w, "energy.cache_dynamic_pj = {cache_dynamic_pj:.1}")?;
        writeln!(w, "energy.cache_static_pj = {cache_static_pj:.1}")?;
        writeln!(w, "energy.compressor_pj = {compressor_pj:.1}")?;
        writeln!(w, "energy.pj_per_cycle = {:.4}", er.pj_per_cycle())?;
        let EnergyCounts {
            cycles: _, // sim.cycles
            routers,
            banks: _, // energy.routers (one bank per tile)
            compressor_sites,
            buffer_writes: _,  // noc.buffer_writes
            buffer_reads: _,   // noc.buffer_reads
            crossbar_flits: _, // noc.crossbar_flits
            arbitrations: _,   // noc.arbitrations
            link_flits: _,     // noc.link_flits
            express_flits,
            bank_accesses,
            bank_bytes,
            // Not in the stats file: the codec event counts priced into
            // energy.compressor_pj (disco.compressions counts only the
            // in-network engines).
            compressions: _,
            decompressions: _,
        } = er.counts;
        writeln!(w, "energy.routers = {routers}")?;
        writeln!(w, "energy.compressor_sites = {compressor_sites}")?;
        writeln!(w, "energy.bank_accesses = {bank_accesses}")?;
        writeln!(w, "energy.bank_bytes = {bank_bytes}")?;
        writeln!(w, "energy.express_flits = {express_flits}")?;
        if let Some(DiscoStats {
            started,
            compressions,
            decompressions,
            aborts,
            incompressible,
            growth_stalls,
            low_confidence,
            flits_saved,
            queue_compressions,
        }) = self.disco
        {
            writeln!(w, "disco.started = {started}")?;
            writeln!(w, "disco.compressions = {compressions}")?;
            writeln!(w, "disco.queue_compressions = {queue_compressions}")?;
            writeln!(w, "disco.decompressions = {decompressions}")?;
            writeln!(w, "disco.aborts = {aborts}")?;
            writeln!(w, "disco.incompressible = {incompressible}")?;
            writeln!(w, "disco.growth_stalls = {growth_stalls}")?;
            writeln!(w, "disco.low_confidence = {low_confidence}")?;
            writeln!(w, "disco.flits_saved = {flits_saved}")?;
        }
        // Fault keys appear only when the run armed an active plan, so
        // golden stats are identical whether or not a run could have.
        if let Some(FaultStats {
            injected,
            detected,
            recovered,
            unrecoverable,
            retries,
            fallback_deliveries,
            undetected,
            link_drops,
            payload_bit_flips,
            codec_corruptions,
            port_stall_cycles,
            dram_stall_cycles,
        }) = self.faults
        {
            writeln!(w, "faults.injected = {injected}")?;
            writeln!(w, "faults.detected = {detected}")?;
            writeln!(w, "faults.recovered = {recovered}")?;
            writeln!(w, "faults.unrecoverable = {unrecoverable}")?;
            writeln!(w, "faults.retries = {retries}")?;
            writeln!(w, "faults.fallback_deliveries = {fallback_deliveries}")?;
            writeln!(w, "faults.undetected = {undetected}")?;
            writeln!(w, "faults.link_drops = {link_drops}")?;
            writeln!(w, "faults.payload_bit_flips = {payload_bit_flips}")?;
            writeln!(w, "faults.codec_corruptions = {codec_corruptions}")?;
            writeln!(w, "faults.port_stall_cycles = {port_stall_cycles}")?;
            writeln!(w, "faults.dram_stall_cycles = {dram_stall_cycles}")?;
        }
        // Provenance keys appear only when the run captured a trace, so
        // an untraced run's stats match the golden file.
        if let Some(t) = &self.trace {
            let ProvenanceTotals {
                packets,
                incomplete,
                latency_cycles,
                serialization_cycles,
                link_cycles,
                queuing_cycles,
                codec_cycles,
                protocol_cycles,
                codec_hidden_cycles,
                codec_exposed_cycles,
                endpoint_codec_cycles,
            } = t.provenance.totals;
            writeln!(w, "trace.events = {}", t.events)?;
            writeln!(w, "trace.dropped = {}", t.dropped)?;
            writeln!(w, "provenance.packets = {packets}")?;
            writeln!(w, "provenance.incomplete = {incomplete}")?;
            writeln!(w, "provenance.latency_cycles = {latency_cycles}")?;
            writeln!(w, "provenance.protocol_cycles = {protocol_cycles}")?;
            writeln!(
                w,
                "provenance.serialization_cycles = {serialization_cycles}"
            )?;
            writeln!(w, "provenance.link_cycles = {link_cycles}")?;
            writeln!(w, "provenance.queuing_cycles = {queuing_cycles}")?;
            writeln!(w, "provenance.codec_cycles = {codec_cycles}")?;
            writeln!(w, "provenance.codec_hidden_cycles = {codec_hidden_cycles}")?;
            writeln!(
                w,
                "provenance.codec_exposed_cycles = {codec_exposed_cycles}"
            )?;
            writeln!(
                w,
                "provenance.endpoint_codec_cycles = {endpoint_codec_cycles}"
            )?;
            writeln!(
                w,
                "provenance.hidden_coverage = {:.4}",
                t.provenance.hidden_coverage()
            )?;
            writeln!(w, "provenance.exact = {}", t.provenance.exact)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{CompressionPlacement, SimBuilder};
    use disco_workloads::Benchmark;

    #[test]
    fn stats_file_is_complete_and_parsable() {
        let report = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Disco)
            .benchmark(Benchmark::Swaptions)
            .trace_len(200)
            .seed(4)
            .run()
            .expect("drains");
        let mut buf = Vec::new();
        report.write_stats(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        for key in [
            "config.placement = DISCO",
            "sim.cycles = ",
            "core.avg_onchip_latency = ",
            "llc.miss_rate = ",
            "dram.row_hit_rate = ",
            "disco.compressions = ",
        ] {
            assert!(
                text.contains(key),
                "missing {key} in:
{text}"
            );
        }
        // Every line parses as `key = value`.
        for line in text.lines() {
            let (k, v) = line.split_once(" = ").expect("key = value");
            assert!(!k.is_empty() && !v.is_empty());
        }
    }

    #[test]
    fn baseline_stats_omit_disco_section() {
        let report = SimBuilder::new()
            .mesh(2, 2)
            .placement(CompressionPlacement::Baseline)
            .benchmark(Benchmark::Swaptions)
            .trace_len(100)
            .seed(4)
            .run()
            .expect("drains");
        let mut buf = Vec::new();
        report.write_stats(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(!text.contains("disco."));
    }
}
