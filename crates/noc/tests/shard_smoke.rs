//! Minimal pinned workload for the sanitizer CI legs (Miri and
//! ThreadSanitizer run this against the compute-shard worker pool).
//! Deliberately tiny — a 2x2 mesh, eight packets, a bounded
//! tick budget — because interpreted/instrumented executions are orders
//! of magnitude slower than native. No filesystem, environment, clock,
//! or randomness: everything a data race could corrupt is checked by
//! exact equality against the serial (1-shard) run.

use disco_compress::CacheLine;
use disco_noc::{Mesh, Network, NocConfig, NodeId, PacketClass, Payload};

/// Runs the pinned workload at `shards` compute shards and returns the
/// delivery order (cycle, node, tag) plus the final stats rendering.
fn run(shards: usize) -> (Vec<(u64, usize, u64)>, String) {
    let config = NocConfig {
        compute_shards: shards,
        ..NocConfig::default()
    };
    let mut net = Network::new(Mesh::new(2, 2), config);
    // On a multi-core host 2 shards must really park a worker, or the
    // sanitizers would silently stop covering the pool.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if shards == 2 && cores >= 2 {
        assert_eq!(
            net.pool_workers(),
            1,
            "2 shards on {cores} cores park 1 worker"
        );
    }
    let mut tag = 0u64;
    for src in 0..4usize {
        for dst in 0..4usize {
            if src != dst && (src + dst) % 2 == 1 {
                let line = CacheLine::from_u64_words([(src * 16 + dst) as u64; 8]);
                net.send(
                    NodeId(src),
                    NodeId(dst),
                    PacketClass::Response,
                    Payload::Raw(line),
                    true,
                    tag,
                );
                tag += 1;
            }
        }
    }
    let mut deliveries = Vec::new();
    for _ in 0..200 {
        net.tick();
        for n in 0..4 {
            for p in net.take_delivered(NodeId(n)) {
                deliveries.push((net.now(), n, p.tag));
            }
        }
        if net.is_idle() {
            break;
        }
    }
    assert!(net.is_idle(), "{shards} shards: workload must drain");
    assert_eq!(
        deliveries.len(),
        tag as usize,
        "{shards} shards: every packet delivered"
    );
    (deliveries, format!("{:?}", net.stats()))
}

/// The sharded compute phase must be byte-identical to the serial one:
/// same delivery cycles, same order, same stats.
#[test]
fn two_shards_match_serial_exactly() {
    let (serial_deliveries, serial_stats) = run(1);
    let (sharded_deliveries, sharded_stats) = run(2);
    assert_eq!(serial_deliveries, sharded_deliveries);
    assert_eq!(serial_stats, sharded_stats);
}
