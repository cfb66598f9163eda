//! End-to-end data-integrity tests for in-network de/compression: no
//! matter how often the DISCO layer rewrites packets in flight, every
//! delivered payload must decode to exactly the bytes that were sent.

use disco::compress::{scheme::Compressor, CacheLine, Codec};
use disco::core::protocol::{Msg, Op};
use disco::core::{DiscoLayer, DiscoParams};
use disco::noc::{Mesh, Network, NocConfig, NodeId, PacketClass, Payload};
use disco::workloads::{Benchmark, ValueModel};
use proptest::prelude::*;

fn eager() -> DiscoParams {
    DiscoParams {
        cc_threshold: -10.0,
        cd_threshold: -10.0,
        beta: 0.1,
        ..DiscoParams::default()
    }
}

/// Drives random data traffic with an over-eager DISCO layer (maximum
/// in-network rewriting) and checks byte-exact delivery.
fn drive_and_check(lines: &[CacheLine], ops: &[Op]) {
    let mesh = Mesh::new(3, 3);
    let mut net = Network::new(mesh, NocConfig::default());
    let mut layer = DiscoLayer::new(eager(), Codec::delta(), mesh.nodes());
    let codec = Codec::delta();
    let mut expected = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let src = i % 9;
        let dst = (i * 5 + 3) % 9;
        if src == dst {
            continue;
        }
        let op = ops[i % ops.len()];
        let tag = Msg::new(op, dst.min(255), i as u64).encode();
        net.send(
            NodeId(src),
            NodeId(dst),
            PacketClass::Response,
            Payload::Raw(*line),
            true,
            tag,
        );
        expected.push((dst, i as u64, *line));
    }
    let mut delivered = 0;
    while delivered < expected.len() {
        net.tick();
        layer.tick(&mut net);
        for n in 0..9 {
            for pkt in net.take_delivered(NodeId(n)) {
                let msg = Msg::decode(pkt.tag);
                let (dst, _line_id, original) = expected
                    .iter()
                    .find(|(d, l, _)| *d == n && *l == msg.line)
                    .copied()
                    .expect("delivered packet was sent");
                assert_eq!(dst, n);
                let got = match &pkt.payload {
                    Payload::Raw(l) => *l,
                    Payload::Compressed(c) => codec.decompress(c).expect("valid"),
                    Payload::None => panic!("data packet lost its payload"),
                };
                assert_eq!(got, original, "payload corrupted in flight");
                delivered += 1;
            }
        }
        assert!(net.now() < 500_000, "traffic must drain");
    }
}

#[test]
fn eager_disco_preserves_workload_data() {
    for bench in [Benchmark::X264, Benchmark::Canneal, Benchmark::Dedup] {
        let model = ValueModel::new(bench.profile().value, 3);
        let lines: Vec<CacheLine> = (0..120).map(|a| model.line(a, 0)).collect();
        drive_and_check(&lines, &[Op::Writeback, Op::DataToCore, Op::MemFill]);
    }
}

#[test]
fn stalled_compressed_packet_is_decompressed_in_network() {
    // A compressed DataToCore packet stalled alone in a roomy VC (its
    // output port has no credits) is the §3.2 decompression case: the
    // engine expands it in place during the stall and the destination
    // receives raw flits without paying ejection-side latency.
    let mesh = Mesh::new(2, 1);
    let mut net = Network::new(mesh, NocConfig::default());
    let mut layer = DiscoLayer::new(eager(), Codec::delta(), mesh.nodes());
    let codec = Codec::delta();
    let line = CacheLine::from_u64_words([1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007]);
    let enc = codec.compress(&line);
    let tag = Msg::new(Op::DataToCore, 1, 7).encode();
    net.send(
        NodeId(0),
        NodeId(1),
        PacketClass::Response,
        Payload::Compressed(enc),
        true,
        tag,
    );
    assert!(net
        .router_mut(NodeId(0))
        .try_take_credits(disco::noc::topology::EAST, 1, 8));
    for _ in 0..60 {
        net.tick();
        layer.tick(&mut net);
    }
    assert_eq!(layer.stats().decompressions, 1, "{:?}", layer.stats());
    for _ in 0..8 {
        net.router_mut(NodeId(0))
            .return_credit(disco::noc::topology::EAST, 1);
    }
    let pkt = loop {
        net.tick();
        layer.tick(&mut net);
        if let Some(p) = net.take_delivered(NodeId(1)).pop() {
            break p;
        }
        assert!(net.now() < 2_000);
    };
    match &pkt.payload {
        Payload::Raw(l) => assert_eq!(*l, line),
        other => panic!("expected raw delivery, got {other:?}"),
    }
    assert_eq!(
        pkt.size_flits(),
        8,
        "decompressed packet carries all 8 flits"
    );
}

#[test]
fn dense_hotspot_preserves_compressed_payloads() {
    // Under a dense hotspot there is usually no room to expand in place
    // (growth stalls are expected); whatever form packets arrive in must
    // still decode exactly.
    let mesh = Mesh::new(3, 3);
    let mut net = Network::new(mesh, NocConfig::default());
    let mut layer = DiscoLayer::new(eager(), Codec::delta(), mesh.nodes());
    let codec = Codec::delta();
    let line = CacheLine::from_u64_words([1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007]);
    let n_pkts = 40u64;
    for k in 0..n_pkts {
        let src = 1 + (k as usize % 8);
        let enc = codec.compress(&line);
        let tag = Msg::new(Op::DataToCore, 0, k).encode();
        net.send(
            NodeId(src),
            NodeId(0),
            PacketClass::Response,
            Payload::Compressed(enc),
            true,
            tag,
        );
    }
    let mut got = 0;
    while got < n_pkts {
        net.tick();
        layer.tick(&mut net);
        for pkt in net.take_delivered(NodeId(0)) {
            match &pkt.payload {
                Payload::Raw(l) => assert_eq!(*l, line),
                Payload::Compressed(c) => assert_eq!(codec.decompress(c).unwrap(), line),
                Payload::None => panic!("lost payload"),
            }
            got += 1;
        }
        assert!(net.now() < 100_000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_lines_survive_eager_rewriting(seed in any::<u64>()) {
        let model = ValueModel::new(disco::workloads::ValueProfile::balanced(), seed);
        let lines: Vec<CacheLine> = (0..60).map(|a| model.line(a, 0)).collect();
        drive_and_check(&lines, &[Op::Writeback, Op::MemWriteback, Op::DataToCore]);
    }
}

#[test]
fn foreign_tags_are_skipped_not_rewritten() {
    // An 8×8 mesh under a burst heavy enough to lose switch allocations,
    // with seeded arbitrary tags mixed into valid protocol messages. A
    // packet whose tag does not decode is neither compressed nor
    // decompressed; the engines keep working on the valid ones, and
    // every payload arrives intact.
    let mesh = Mesh::new(8, 8);
    let nodes = mesh.nodes();
    let mut net = Network::new(mesh, NocConfig::default());
    let mut layer = DiscoLayer::new(eager(), Codec::delta(), nodes);
    let codec = Codec::delta();
    let model = ValueModel::new(Benchmark::Dedup.profile().value, 11);
    let mut x = 0x2016_d15c_0f0f_1234u64;
    // (packet, destination, sent payload, line, foreign tag)
    let mut sent = Vec::new();
    for i in 0..800usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (src, dst) = (i % nodes, (i * 37 + 11) % nodes);
        if src == dst {
            continue;
        }
        let tag = if i % 2 == 0 {
            x
        } else {
            let op = [Op::Writeback, Op::DataToCore, Op::MemWriteback][i % 3];
            Msg::new(op, dst.min(255), i as u64).encode()
        };
        let line = model.line(i as u64, 0);
        let enc = codec.compress(&line);
        let payload = if i % 4 < 2 && enc.is_compressed() {
            Payload::Compressed(enc)
        } else {
            Payload::Raw(line)
        };
        let foreign = Msg::try_decode(tag).is_none();
        let pid = net.send(
            NodeId(src),
            NodeId(dst),
            PacketClass::Response,
            payload.clone(),
            true,
            tag,
        );
        sent.push((pid, dst, payload, line, foreign));
    }
    let foreign_sent = sent.iter().filter(|s| s.4).count();
    assert!(foreign_sent > 100, "only {foreign_sent} foreign tags");
    let mut delivered = 0;
    while delivered < sent.len() {
        net.tick();
        layer.tick(&mut net);
        for n in 0..nodes {
            for pkt in net.take_delivered(NodeId(n)) {
                let (_, dst, payload, line, foreign) = sent
                    .iter()
                    .find(|s| s.0 == pkt.id)
                    .expect("delivered packet was sent");
                assert_eq!(*dst, n);
                let got = match &pkt.payload {
                    Payload::Raw(l) => *l,
                    Payload::Compressed(c) => codec.decompress(c).expect("valid"),
                    Payload::None => panic!("data packet lost its payload"),
                };
                assert_eq!(got, *line, "payload corrupted in flight");
                if *foreign {
                    assert_eq!(
                        pkt.payload.is_compressed(),
                        payload.is_compressed(),
                        "a foreign-tag packet was rewritten in flight"
                    );
                }
                delivered += 1;
            }
        }
        assert!(net.now() < 500_000, "traffic must drain");
    }
    assert!(net.stats().sa_losses > 0, "the burst must lose allocations");
    let stats = layer.stats();
    assert!(
        stats.started > 0 && stats.compressions + stats.decompressions > 0,
        "engines must still work on valid tags: {stats:?}"
    );
}
