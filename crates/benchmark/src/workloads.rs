//! The four benchmark workloads. Each trial is one batch job: set up
//! its inputs, run them to completion, and check the result. All of a
//! trial's inputs derive from the workload seed, and the simulated
//! caches start empty in every trial (no simulated warm-up).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use disco_compress::scheme::Compressor;
use disco_compress::{CacheLine, Codec, SchemeKind};
use disco_core::protocol::{Msg, Op};
use disco_core::{
    CompressionPlacement, DiscoLayer, DiscoParams, DiscoStats, SimBuilder, SimError, SimReport,
    System,
};
use disco_faults::checksum;
use disco_noc::{
    Mesh, Network, NetworkStats, NocConfig, NodeId, Packet, PacketClass, Payload, SchedulingPolicy,
    TopologyChoice,
};
use disco_pareto::{explore, write_atomic, DesignSpace, ExploreConfig};
use disco_workloads::rng::Rng64;
use disco_workloads::{Benchmark, MemAccess, TraceGenerator, ValueModel, ValueProfile};

use crate::host::process_cpu_s;
use crate::spans::Recorder;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// Table 2 system at 4×4: every placement on x264 and canneal.
    Paper4x4,
    /// One long 8×8 canneal DISCO job, checkpointed every interval and
    /// killed and resumed part-way.
    Serve8x8,
    /// NoC plus DISCO engines at 16×16 under open-loop uniform traffic.
    Noc16x16,
    /// A 100-point journaled design-space exploration at 4×4.
    Dse4x4,
}

impl Workload {
    /// Every workload, in the order rounds interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper4x4,
        Workload::Serve8x8,
        Workload::Noc16x16,
        Workload::Dse4x4,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4x4 => "paper-4x4",
            Workload::Serve8x8 => "serve-8x8",
            Workload::Noc16x16 => "noc-16x16",
            Workload::Dse4x4 => "dse-4x4",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs attempted per trial: each simulation of `paper-4x4`, and the
    /// whole job for the others.
    pub fn attempts_per_trial(self) -> u64 {
        match self {
            Workload::Paper4x4 => PAPER_BENCHES.len() as u64 * PAPER_PLACEMENTS.len() as u64,
            _ => 1,
        }
    }
}

/// Exploration worker threads of `dse-4x4`; every other workload is
/// single-threaded. One: on a shared two-core host, two workers made the
/// run-to-run spread of this workload exceed any usable regression bound
/// (see README).
pub const DSE_WORKERS: usize = 1;

/// Input sizes. [`Sizes::default`] is the benchmark; the expected
/// fingerprints hold for it only. Tests shrink it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Trace accesses per core in `paper-4x4`.
    pub paper_trace_len: usize,
    /// Mesh side of `serve-8x8`.
    pub serve_mesh: usize,
    /// Trace accesses per core in `serve-8x8`.
    pub serve_trace_len: usize,
    /// Mesh side of `noc-16x16` (at most 16: tags carry 8-bit core ids).
    pub noc_mesh: usize,
    /// Simulated cycles of `noc-16x16`.
    pub noc_cycles: u64,
    /// Trace accesses per core of every `dse-4x4` point.
    pub dse_trace_len: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            paper_trace_len: 500,
            serve_mesh: 8,
            serve_trace_len: 250,
            noc_mesh: 16,
            noc_cycles: 8_000,
            dse_trace_len: 60,
        }
    }
}

/// Simulated cycles per `System::step_until` call, and the checkpoint
/// interval of `serve-8x8` (the `disco-serve` cadence).
const CHUNK_CYCLES: u64 = 2_000;

/// Simulated cycles per speed sample in `noc-16x16`.
const NOC_WINDOW_CYCLES: u64 = 500;

/// Offered load of `noc-16x16`, flits per node per cycle.
const NOC_OFFERED_FLITS: f64 = 0.2;

/// Flits per `noc-16x16` packet: one uncompressed 64 B line.
const NOC_PACKET_FLITS: f64 = 8.0;

/// Distinct lines per run passed through the codecs in a traced trial.
const MAX_CODEC_LINES: usize = 20_000;

const PAPER_BENCHES: [Benchmark; 2] = [Benchmark::X264, Benchmark::Canneal];
const PAPER_PLACEMENTS: [CompressionPlacement; 5] = CompressionPlacement::ALL;
const DSE_BENCHES: [Benchmark; 2] = [Benchmark::Swaptions, Benchmark::Canneal];
const DSE_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Delta,
    SchemeKind::Bdi,
    SchemeKind::Fpc,
    SchemeKind::Sc2,
];

/// Seed perturbation `SimBuilder::build` applies for its value model;
/// the codec timing reproduces the simulated line contents with it.
const VALUE_SEED_SALT: u64 = 0xda7a;

/// What one trial measured and produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trial {
    /// Input generation and simulator construction, seconds.
    pub setup_s: f64,
    /// The timed loop: running every job to completion, seconds.
    pub loop_s: f64,
    /// Input generation alone (part of set-up), seconds.
    pub generate_s: f64,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// Jobs completed: simulations, or design points for `dse-4x4`.
    pub jobs: u64,
    /// Simulated cycles per host second, one sample per interval.
    pub cycle_rates: Vec<f64>,
    /// Wall time of each checkpoint interval (step + snapshot + write), ms.
    pub chunk_ms: Vec<f64>,
    /// Read + restore after the simulated kill, seconds.
    pub resume_s: Option<f64>,
    /// Process CPU time over wall time × workers during the exploration.
    pub cpu_utilization: Option<f64>,
    /// FNV-1a of the trial's simulated result.
    pub fingerprint: u64,
    /// Deterministic work counters and ratios, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Correctness failures.
    pub errors: Vec<String>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn push_rate(rates: &mut Vec<f64>, cycles: u64, since: Instant) {
    let s = secs(since);
    if cycles > 0 && s > 0.0 {
        rates.push(cycles as f64 / s);
    }
}

/// Runs one trial of `workload`. `index` numbers the trials of a run
/// (0 is the warm-up); `scratch` holds checkpoint and journal files.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    index: u32,
    scratch: &Path,
    rec: &mut Recorder,
) -> Trial {
    let mut t = Trial::default();
    match workload {
        Workload::Paper4x4 => paper(seed, sizes, rec, &mut t),
        Workload::Serve8x8 => serve(seed, sizes, index, scratch, rec, &mut t),
        Workload::Noc16x16 => noc(seed, sizes, rec, &mut t),
        Workload::Dse4x4 => dse(seed, sizes, index, scratch, rec, &mut t),
    }
    t
}

/// Generates one benchmark's traces as `SimBuilder` would, timed.
fn generate(
    rec: &mut Recorder,
    t: &mut Trial,
    bench: Benchmark,
    cores: usize,
    seed: u64,
    len: usize,
) -> Vec<Vec<MemAccess>> {
    let profile = bench.profile().scaled_to(cores);
    let start = Instant::now();
    let traces = rec.leaf("workloads.generate", || {
        TraceGenerator::new(profile, cores, seed).generate(len)
    });
    t.generate_s += secs(start);
    traces
}

/// Steps `sys` to completion in [`CHUNK_CYCLES`] intervals, sampling
/// the simulation speed of each.
fn step_to_completion(
    mut sys: System,
    rec: &mut Recorder,
    rates: &mut Vec<f64>,
) -> Result<SimReport, SimError> {
    loop {
        let from = sys.now();
        let start = Instant::now();
        let done = rec.leaf("core.system.step", || sys.step_until(from + CHUNK_CYCLES))?;
        push_rate(rates, sys.now() - from, start);
        if done {
            break;
        }
    }
    rec.leaf("core.system.report", || sys.run_to_completion())
}

/// Full-system counters summed over a trial's simulations.
#[derive(Debug, Default)]
struct SystemCounts {
    cycles: u64,
    accesses: u64,
    demand_misses: u64,
    miss_latency: u64,
    l1_probes: u64,
    l1_misses: u64,
    bank_accesses: u64,
    bank_lookups: u64,
    bank_misses: u64,
    dir_ops: u64,
    dram_accesses: u64,
    row_hits: u64,
    row_lookups: u64,
    dram_conflict_cycles: u64,
    compressions: u64,
    decompressions: u64,
    network: NetworkStats,
    engine: DiscoStats,
}

impl SystemCounts {
    fn add(&mut self, r: &SimReport, accesses: u64) {
        self.cycles += r.cycles;
        self.accesses += accesses;
        self.demand_misses += r.demand_misses;
        self.miss_latency += r.total_miss_latency;
        self.l1_probes += r.l1.hits + r.l1.misses;
        self.l1_misses += r.l1.misses;
        self.bank_accesses += r.energy_counts.bank_accesses;
        self.bank_lookups += r.banks.hits + r.banks.misses;
        self.bank_misses += r.banks.misses;
        let d = &r.directory;
        self.dir_ops += d.bank_reads + d.owner_forwards + d.invalidations + d.write_requests;
        self.dram_accesses += r.dram.reads + r.dram.writes;
        self.row_hits += r.dram.row_hits;
        self.row_lookups += r.dram.row_hits + r.dram.row_misses;
        self.dram_conflict_cycles += r.dram.conflict_cycles;
        self.compressions += r.energy_counts.compressions;
        self.decompressions += r.energy_counts.decompressions;
        self.network.accumulate(&r.network);
        if let Some(e) = &r.disco {
            add_engine(&mut self.engine, e);
        }
    }

    fn export(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert("core.system.cycles", self.cycles as f64);
        out.insert("core.system.accesses", self.accesses as f64);
        out.insert("core.system.demand_misses", self.demand_misses as f64);
        out.insert(
            "core.system.avg_miss_latency_cycles",
            ratio(self.miss_latency, self.demand_misses),
        );
        out.insert("cache.l1_probes", self.l1_probes as f64);
        out.insert(
            "cache.l1_useful_ratio",
            ratio(self.accesses, self.l1_probes),
        );
        out.insert("cache.l1_miss_rate", ratio(self.l1_misses, self.l1_probes));
        out.insert("cache.bank_accesses", self.bank_accesses as f64);
        out.insert(
            "cache.bank_miss_rate",
            ratio(self.bank_misses, self.bank_lookups),
        );
        out.insert("cache.dir_ops", self.dir_ops as f64);
        out.insert("cache.dram_accesses", self.dram_accesses as f64);
        out.insert(
            "cache.dram_row_hit_rate",
            ratio(self.row_hits, self.row_lookups),
        );
        out.insert(
            "cache.dram_conflict_cycles",
            self.dram_conflict_cycles as f64,
        );
        out.insert(
            "compress.ops",
            (self.compressions + self.decompressions) as f64,
        );
        out.insert("compress.compressions", self.compressions as f64);
        out.insert("compress.decompressions", self.decompressions as f64);
        export_network(&self.network, 0, out);
        export_engine(&self.engine, out);
    }
}

fn add_engine(sum: &mut DiscoStats, e: &DiscoStats) {
    sum.started += e.started;
    sum.compressions += e.compressions;
    sum.decompressions += e.decompressions;
    sum.aborts += e.aborts;
    sum.incompressible += e.incompressible;
    sum.growth_stalls += e.growth_stalls;
    sum.low_confidence += e.low_confidence;
    sum.flits_saved += e.flits_saved;
    sum.queue_compressions += e.queue_compressions;
}

fn export_network(n: &NetworkStats, backlog: u64, out: &mut BTreeMap<&'static str, f64>) {
    out.insert(
        "noc.flit_hops",
        (n.link_flits + n.express_link_flits) as f64,
    );
    out.insert("noc.arbitrations", n.arbitrations as f64);
    out.insert("noc.sa_losses", n.sa_losses as f64);
    out.insert("noc.packets_delivered", n.packets_delivered as f64);
    out.insert("noc.backlog_packets", backlog as f64);
    out.insert(
        "noc.avg_packet_latency_cycles",
        ratio(n.total_packet_latency, n.packets_delivered),
    );
}

fn export_engine(e: &DiscoStats, out: &mut BTreeMap<&'static str, f64>) {
    out.insert("core.engine.started", e.started as f64);
    out.insert("core.engine.compressions", e.compressions as f64);
    out.insert("core.engine.decompressions", e.decompressions as f64);
    out.insert("core.engine.aborts", e.aborts as f64);
    out.insert("core.engine.low_confidence", e.low_confidence as f64);
    out.insert("core.engine.flits_saved", e.flits_saved as f64);
    out.insert(
        "core.engine.useful_ratio",
        ratio(e.compressions + e.decompressions, e.started),
    );
}

/// `paper-4x4`: the reproduction traffic of the figure and table bins.
fn paper(seed: u64, sizes: &Sizes, rec: &mut Recorder, t: &mut Trial) {
    let len = sizes.paper_trace_len;
    let setup = Instant::now();
    let mut systems = Vec::new();
    for bench in PAPER_BENCHES {
        let traces = generate(rec, t, bench, 16, seed, len);
        for placement in PAPER_PLACEMENTS {
            let builder = SimBuilder::new()
                .mesh(4, 4)
                .placement(placement)
                .scheme(SchemeKind::Delta)
                .benchmark(bench)
                .trace_len(len)
                .seed(seed)
                .traces(traces.clone());
            systems.push((
                placement,
                bench,
                rec.leaf("core.system.build", || builder.build()),
            ));
        }
    }
    t.setup_s = secs(setup);

    let start = Instant::now();
    let mut counts = SystemCounts::default();
    let mut stats = Vec::new();
    for (placement, bench, sys) in systems {
        t.attempted += 1;
        match step_to_completion(sys, rec, &mut t.cycle_rates) {
            Ok(report) => {
                t.jobs += 1;
                rec.leaf("bench.check", || {
                    counts.add(&report, 16 * len as u64);
                    report.write_stats(&mut stats).expect("in-memory write");
                });
            }
            Err(e) => {
                t.failed += 1;
                t.errors
                    .push(format!("{} on {}: {e}", placement.name(), bench.name()));
            }
        }
    }
    t.loop_s = secs(start);
    t.fingerprint = checksum(&stats);
    counts.export(&mut t.counters);
}

/// Checkpoint after which trial `index` of `serve-8x8` simulates a kill.
/// Trial 0 runs uninterrupted; the others kill at different points, so
/// every trial reaching the same fingerprint checks resume at each.
pub fn kill_chunk(index: u32) -> Option<u32> {
    const POINTS: [u32; 4] = [5, 2, 7, 4];
    (index > 0).then(|| POINTS[index as usize % POINTS.len()])
}

/// `serve-8x8`: one checkpointed job in the `disco-serve` cadence.
fn serve(seed: u64, sizes: &Sizes, index: u32, scratch: &Path, rec: &mut Recorder, t: &mut Trial) {
    let n = sizes.serve_mesh;
    let len = sizes.serve_trace_len;
    let setup = Instant::now();
    let traces = generate(rec, t, Benchmark::Canneal, n * n, seed, len);
    let builder = SimBuilder::new()
        .mesh(n, n)
        .placement(CompressionPlacement::Disco)
        .scheme(SchemeKind::Delta)
        .benchmark(Benchmark::Canneal)
        .trace_len(len)
        .seed(seed)
        .traces(traces);
    let sys = rec.leaf("core.system.build", || builder.build());
    t.setup_s = secs(setup);

    t.attempted = 1;
    let ckpt = scratch.join("serve.ckpt");
    let start = Instant::now();
    let outcome = serve_loop(sys, &ckpt, kill_chunk(index), rec, t);
    t.loop_s = secs(start);
    let _ = std::fs::remove_file(&ckpt);
    match outcome {
        Ok(report) => {
            t.jobs = 1;
            rec.leaf("bench.check", || {
                let mut counts = SystemCounts::default();
                counts.add(&report, (n * n * len) as u64);
                counts.export(&mut t.counters);
                let mut stats = Vec::new();
                report.write_stats(&mut stats).expect("in-memory write");
                t.fingerprint = checksum(&stats);
            });
        }
        Err(e) => {
            t.failed = 1;
            t.errors.push(e);
        }
    }
}

fn serve_loop(
    mut sys: System,
    ckpt: &Path,
    kill_at: Option<u32>,
    rec: &mut Recorder,
    t: &mut Trial,
) -> Result<SimReport, String> {
    let mut checkpoints = 0u32;
    let mut bytes_written = 0u64;
    loop {
        let from = sys.now();
        let start = Instant::now();
        let done = rec
            .leaf("core.system.step", || sys.step_until(from + CHUNK_CYCLES))
            .map_err(|e| e.to_string())?;
        if done {
            push_rate(&mut t.cycle_rates, sys.now() - from, start);
            break;
        }
        let bytes = rec.leaf("snapshot.encode", || sys.snapshot());
        rec.leaf("snapshot.write", || write_atomic(ckpt, &bytes))
            .map_err(|e| format!("checkpoint write: {e}"))?;
        push_rate(&mut t.cycle_rates, sys.now() - from, start);
        t.chunk_ms.push(secs(start) * 1e3);
        checkpoints += 1;
        bytes_written += bytes.len() as u64;
        if kill_at == Some(checkpoints) {
            drop(sys);
            let resume = Instant::now();
            let bytes = rec
                .leaf("snapshot.read", || std::fs::read(ckpt))
                .map_err(|e| format!("checkpoint read: {e}"))?;
            sys = rec
                .leaf("snapshot.restore", || System::restore(&bytes))
                .map_err(|e| format!("restore: {e}"))?;
            t.resume_s = Some(secs(resume));
        }
    }
    t.counters
        .insert("snapshot.checkpoints", f64::from(checkpoints));
    t.counters.insert(
        "snapshot.bytes",
        ratio(bytes_written, u64::from(checkpoints)),
    );
    rec.leaf("core.system.report", || sys.run_to_completion())
        .map_err(|e| e.to_string())
}

/// The open-loop injection schedule of `noc-16x16`.
#[derive(Debug)]
struct Schedule {
    /// `(cycle, src, dst)` per packet, in cycle order; the packet's index
    /// is its line address and payload index.
    injections: Vec<(u64, usize, usize)>,
    /// Payload of each packet.
    lines: Vec<CacheLine>,
}

impl Schedule {
    /// Bernoulli injection at every node and cycle at
    /// [`NOC_OFFERED_FLITS`], uniform random destinations, dedup-like
    /// payloads — all from `seed`.
    fn generate(nodes: usize, cycles: u64, seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let values = ValueModel::new(Benchmark::Dedup.profile().value, seed);
        let p = NOC_OFFERED_FLITS / NOC_PACKET_FLITS;
        let mut injections = Vec::new();
        let mut lines = Vec::new();
        for cycle in 1..=cycles {
            for src in 0..nodes {
                if !rng.gen_bool(p) {
                    continue;
                }
                let mut dst = rng.gen_below(nodes as u64 - 1) as usize;
                if dst >= src {
                    dst += 1;
                }
                lines.push(values.line(lines.len() as u64, 0));
                injections.push((cycle, src, dst));
            }
        }
        Schedule { injections, lines }
    }

    /// A valid protocol tag for packet `k`: the DISCO engines decode it.
    fn tag(k: usize, dst: usize) -> u64 {
        Msg::new(Op::DataToCore, dst, k as u64).encode()
    }

    /// Whether a delivered packet carries exactly the payload it was sent
    /// with, to the node it was sent to.
    fn verify(&self, pkt: &Packet, codec: &Codec) -> bool {
        let Some(msg) = Msg::try_decode(pkt.tag) else {
            return false;
        };
        let Some(expected) = usize::try_from(msg.line)
            .ok()
            .and_then(|k| self.lines.get(k))
        else {
            return false;
        };
        let routed = msg.requester == pkt.dst.0;
        routed
            && match &pkt.payload {
                Payload::Raw(line) => line == expected,
                Payload::Compressed(c) => codec.decompress(c).as_ref() == Ok(expected),
                Payload::None => false,
            }
    }
}

/// `noc-16x16`: the cycle kernel with DISCO engines, no caches.
fn noc(seed: u64, sizes: &Sizes, rec: &mut Recorder, t: &mut Trial) {
    let side = sizes.noc_mesh;
    let nodes = side * side;
    let cycles = sizes.noc_cycles;
    let setup = Instant::now();
    let gen = Instant::now();
    let sched = rec.leaf("workloads.generate", || {
        Schedule::generate(nodes, cycles, seed)
    });
    t.generate_s = secs(gen);
    let (mut net, mut layer) = rec.leaf("noc.build", || {
        // The scheduling policy SimBuilder sets for the DISCO placement.
        let config = NocConfig {
            scheduling: SchedulingPolicy {
                demote_uncompressed: true,
                ..SchedulingPolicy::default()
            },
            ..NocConfig::default()
        };
        let net = Network::new(Mesh::new(side, side), config);
        let routers = net.topology().routers();
        let layer = DiscoLayer::new(DiscoParams::default(), Codec::delta(), routers);
        (net, layer)
    });
    t.setup_s = secs(setup);

    t.attempted = 1;
    let codec = Codec::delta();
    let mut next = 0;
    let mut arrived: Vec<Packet> = Vec::new();
    let (mut delivered, mut corrupt) = (0u64, 0u64);
    let start = Instant::now();
    let mut window = Instant::now();
    for cycle in 1..=cycles {
        rec.leaf("noc.send", || {
            while let Some(&(due, src, dst)) = sched.injections.get(next) {
                if due != cycle {
                    break;
                }
                let payload = Payload::Raw(sched.lines[next]);
                let tag = Schedule::tag(next, dst);
                net.send(
                    NodeId(src),
                    NodeId(dst),
                    PacketClass::Response,
                    payload,
                    true,
                    tag,
                );
                next += 1;
            }
        });
        rec.leaf("noc.tick", || net.tick());
        rec.leaf("core.engine.tick", || layer.tick(&mut net));
        rec.leaf("noc.deliver", || {
            for node in 0..nodes {
                arrived.extend(net.take_delivered(NodeId(node)));
            }
        });
        rec.leaf("bench.check", || {
            for pkt in arrived.drain(..) {
                delivered += 1;
                if !sched.verify(&pkt, &codec) {
                    corrupt += 1;
                }
            }
        });
        if cycle % NOC_WINDOW_CYCLES == 0 {
            push_rate(&mut t.cycle_rates, NOC_WINDOW_CYCLES, window);
            window = Instant::now();
        }
    }
    t.loop_s = secs(start);

    rec.leaf("bench.check", || {
        let stats = *net.stats();
        let backlog = net.store().len() as u64;
        let sent = next as u64;
        if sent != delivered + backlog
            || stats.packets_injected != sent
            || stats.packets_delivered != delivered
        {
            t.errors.push(format!(
                "packet conservation: sent {sent}, delivered {delivered}, backlog {backlog}, \
                 network counted {} in / {} out",
                stats.packets_injected, stats.packets_delivered
            ));
        }
        if corrupt > 0 {
            t.errors
                .push(format!("{corrupt} packets delivered with a wrong payload"));
        }
        t.failed = u64::from(!t.errors.is_empty());
        t.jobs = 1 - t.failed;
        let engine = *layer.stats();
        let fields = [
            stats.cycles,
            stats.packets_injected,
            stats.packets_delivered,
            stats.link_flits,
            stats.express_link_flits,
            stats.buffer_writes,
            stats.buffer_reads,
            stats.crossbar_flits,
            stats.arbitrations,
            stats.sa_losses,
            stats.total_packet_latency,
            stats.total_hops,
            stats.routing_violations,
            engine.started,
            engine.compressions,
            engine.decompressions,
            engine.aborts,
            engine.incompressible,
            engine.growth_stalls,
            engine.low_confidence,
            engine.flits_saved,
            engine.queue_compressions,
        ];
        let bytes: Vec<u8> = fields.iter().flat_map(|v| v.to_le_bytes()).collect();
        t.fingerprint = checksum(&bytes);
        t.counters.insert("core.system.cycles", cycles as f64);
        t.counters.insert(
            "compress.ops",
            (engine.compressions + engine.decompressions) as f64,
        );
        t.counters
            .insert("compress.compressions", engine.compressions as f64);
        t.counters
            .insert("compress.decompressions", engine.decompressions as f64);
        export_network(&stats, backlog, &mut t.counters);
        export_engine(&engine, &mut t.counters);
    });
}

/// The declared space of `dse-4x4`: 2 topologies × (Baseline + 4
/// codecs × {CC, CNC} + 4 codecs × 4 threshold pairs for DISCO) × 2
/// benchmarks = 100 points.
fn dse_space(seed: u64, trace_len: usize) -> DesignSpace {
    DesignSpace {
        cols: 4,
        rows: 4,
        trace_len,
        seed,
        topologies: vec![TopologyChoice::Mesh, TopologyChoice::XMesh],
        vcs: vec![NocConfig::default().vcs],
        buffer_depths: vec![NocConfig::default().buffer_depth],
        placements: vec![
            CompressionPlacement::Baseline,
            CompressionPlacement::CacheOnly,
            CompressionPlacement::CacheAndNi,
            CompressionPlacement::Disco,
        ],
        schemes: DSE_SCHEMES.to_vec(),
        cc_thresholds: vec![0.4, 0.6],
        cd_thresholds: vec![0.4, 0.6],
        gammas: vec![DiscoParams::default().gamma],
        alphas: vec![DiscoParams::default().alpha],
        betas: vec![DiscoParams::default().beta],
        benchmarks: DSE_BENCHES.to_vec(),
    }
}

/// `dse-4x4`: a journaled exploration. Set-up is what an exploration does
/// before `explore`: declare and enumerate the space, clear the journal,
/// and build the config. Trace generation and `SimBuilder::build` happen
/// per point inside `explore`, so they count towards the timed loop.
fn dse(seed: u64, sizes: &Sizes, index: u32, scratch: &Path, rec: &mut Recorder, t: &mut Trial) {
    let len = sizes.dse_trace_len;
    let setup = Instant::now();
    let space = dse_space(seed, len);
    let points = space.points().len();
    let journal = scratch.join(format!("dse-{index}.jsonl"));
    let _ = std::fs::remove_file(&journal);
    let cfg = ExploreConfig {
        space,
        workers: DSE_WORKERS,
        shards: 1,
        journal: Some(journal.clone()),
        max_points: 0,
    };
    t.setup_s = secs(setup);

    t.attempted = 1;
    let cpu = process_cpu_s();
    let start = Instant::now();
    let outcome = rec.leaf("pareto.explore", || explore(&cfg));
    t.loop_s = secs(start);
    let cpu_s = process_cpu_s().zip(cpu).map(|(b, a)| b - a);
    let _ = std::fs::remove_file(&journal);

    rec.leaf("bench.check", || {
        let Some(json) = outcome.json.as_deref() else {
            t.failed = 1;
            t.errors
                .push(format!("{} points left unexplored", outcome.remaining));
            return;
        };
        if outcome.total != points {
            t.failed = 1;
            t.errors.push(format!(
                "explored {} points of a {points}-point space",
                outcome.total
            ));
            return;
        }
        let Some(cycles) = frontier_cycles(json) else {
            t.failed = 1;
            t.errors.push(
                "frontier JSON lacks per-point energy, or a point's energy components \
                 no longer sum to a whole number of cycles"
                    .to_string(),
            );
            return;
        };
        t.jobs = outcome.completed as u64;
        t.fingerprint = checksum(json.as_bytes());
        push_rate(&mut t.cycle_rates, cycles, start);
        t.cpu_utilization = cpu_s.map(|busy| busy / (t.loop_s * DSE_WORKERS as f64));
        t.counters.insert(
            "pareto.frontier_points",
            outcome.frontier.as_ref().map_or(0, |f| f.frontier.len()) as f64,
        );
        t.counters.insert("core.system.cycles", cycles as f64);
        t.counters
            .insert("core.system.accesses", (outcome.total * 16 * len) as f64);
    });
}

/// Relative distance from a whole number beyond which a point's energy
/// total over its `pj_per_cycle` is not taken as a cycle count.
const CYCLE_TOLERANCE: f64 = 1e-9;

/// Total simulated cycles of an exploration, read back from its frontier
/// JSON: each point's energy components sum to the total its
/// `pj_per_cycle` was divided from, so the quotient is its cycle count.
/// `None` when a quotient is not a whole number, as happens if the energy
/// model gains a component this sum does not know.
fn frontier_cycles(json: &str) -> Option<u64> {
    let mut total = 0;
    for line in json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"id\":"))
    {
        let num = |key: &str| -> Option<f64> {
            let needle = format!("\"{key}\":");
            let rest = &line[line.find(&needle)? + needle.len()..];
            rest[..rest.find([',', '}'])?].parse().ok()
        };
        let pj_per_cycle = num("pj_per_cycle")?;
        // Summed in `EnergyBreakdown::total_pj` order, so the total is
        // bit-identical to the one the simulator divided.
        let total_pj = num("noc_dynamic_pj")?
            + num("noc_static_pj")?
            + num("cache_dynamic_pj")?
            + num("cache_static_pj")?
            + num("compressor_pj")?;
        if pj_per_cycle <= 0.0 {
            return None;
        }
        let quotient = total_pj / pj_per_cycle;
        let cycles = quotient.round();
        if cycles < 1.0 || (quotient - cycles).abs() > CYCLE_TOLERANCE * cycles {
            return None;
        }
        total += cycles as u64;
    }
    (total > 0).then_some(total)
}

/// The codec of a run, built as `SimBuilder::build` builds it (SC² is
/// trained on a sample of the workload's values).
fn codec_for(scheme: SchemeKind, values: ValueProfile, seed: u64) -> Codec {
    if scheme == SchemeKind::Sc2 {
        let model = ValueModel::new(values, seed ^ VALUE_SEED_SALT);
        let sample: Vec<_> = (0..2_048u64).map(|a| model.line(a * 7 + 1, 0)).collect();
        Codec::Sc2(disco_compress::sc2::Sc2Codec::train(&sample))
    } else {
        Codec::from_kind(scheme)
    }
}

/// Distinct lines a benchmark's traces touch, at version 0, as the
/// simulated memory holds them.
fn trace_lines(bench: Benchmark, cores: usize, seed: u64, len: usize) -> Vec<CacheLine> {
    let profile = bench.profile().scaled_to(cores);
    let traces = TraceGenerator::new(profile, cores, seed).generate(len);
    let addrs: BTreeSet<u64> = traces.iter().flatten().map(|a| a.line).collect();
    let model = ValueModel::new(profile.value, seed ^ VALUE_SEED_SALT);
    addrs
        .into_iter()
        .take(MAX_CODEC_LINES)
        .map(|a| model.line(a, 0))
        .collect()
}

/// Each run's codec with the lines it compresses, for the traced
/// codec timing.
pub fn codec_inputs(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<(Codec, Vec<CacheLine>)> {
    match workload {
        Workload::Paper4x4 => PAPER_BENCHES
            .iter()
            .map(|&b| {
                (
                    Codec::delta(),
                    trace_lines(b, 16, seed, sizes.paper_trace_len),
                )
            })
            .collect(),
        Workload::Serve8x8 => {
            let cores = sizes.serve_mesh * sizes.serve_mesh;
            vec![(
                Codec::delta(),
                trace_lines(Benchmark::Canneal, cores, seed, sizes.serve_trace_len),
            )]
        }
        Workload::Noc16x16 => {
            let nodes = sizes.noc_mesh * sizes.noc_mesh;
            let mut lines = Schedule::generate(nodes, sizes.noc_cycles, seed).lines;
            lines.truncate(MAX_CODEC_LINES);
            vec![(Codec::delta(), lines)]
        }
        Workload::Dse4x4 => DSE_BENCHES
            .iter()
            .flat_map(|&b| {
                let lines = trace_lines(b, 16, seed, sizes.dse_trace_len);
                let values = b.profile().value;
                DSE_SCHEMES
                    .iter()
                    .map(move |&s| (codec_for(s, values, seed), lines.clone()))
            })
            .collect(),
    }
}

/// Codec speed over a set of lines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecTiming {
    /// Mean nanoseconds per compression.
    pub ns_per_compress: f64,
    /// Mean nanoseconds per decompression.
    pub ns_per_decompress: f64,
    /// Mean compression ratio.
    pub mean_ratio: f64,
    /// Lines whose round trip did not reproduce them.
    pub mismatches: u64,
}

/// Compresses then decompresses every line with its codec, timing each
/// pass and checking the round trip.
pub fn time_codecs(inputs: &[(Codec, Vec<CacheLine>)]) -> CodecTiming {
    let (mut comp_s, mut decomp_s, mut ratio_sum) = (0.0, 0.0, 0.0);
    let (mut lines, mut mismatches) = (0usize, 0u64);
    for (codec, batch) in inputs {
        let start = Instant::now();
        let encoded: Vec<_> = batch.iter().map(|l| codec.compress(l)).collect();
        comp_s += secs(start);
        let start = Instant::now();
        let decoded: Vec<_> = encoded.iter().map(|c| codec.decompress(c)).collect();
        decomp_s += secs(start);
        for ((line, enc), dec) in batch.iter().zip(&encoded).zip(decoded) {
            ratio_sum += enc.ratio();
            if dec.as_ref() != Ok(line) {
                mismatches += 1;
            }
        }
        lines += batch.len();
    }
    let per_line = |s: f64| {
        if lines == 0 {
            0.0
        } else {
            s * 1e9 / lines as f64
        }
    };
    CodecTiming {
        ns_per_compress: per_line(comp_s),
        ns_per_decompress: per_line(decomp_s),
        mean_ratio: if lines == 0 {
            0.0
        } else {
            ratio_sum / lines as f64
        },
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(compressor_pj: &str) -> String {
        format!(
            "{{\"id\":0,\"pj_per_cycle\":2.5,\"noc_dynamic_pj\":1000.0,\"noc_static_pj\":500.0,\
             \"cache_dynamic_pj\":500.0,\"cache_static_pj\":250.0,\"compressor_pj\":{compressor_pj}}}"
        )
    }

    #[test]
    fn frontier_cycles_refuses_energy_that_is_not_a_whole_cycle_count() {
        assert_eq!(frontier_cycles(&point("250.0")), Some(1000));
        let two = format!("{}\n{}", point("250.0"), point("250.0"));
        assert_eq!(frontier_cycles(&two), Some(2000));
        // A component the sum misses leaves the quotient off a whole number.
        assert_eq!(frontier_cycles(&point("250.5")), None);
        assert_eq!(frontier_cycles("{\"id\":0}"), None);
    }
}
