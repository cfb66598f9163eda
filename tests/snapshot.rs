//! Snapshot failure paths: every way a checkpoint can fail to restore —
//! truncation, corruption, version skew (including files from the
//! older, feature-fingerprinted format), and restoring into the wrong
//! configuration — must surface as a typed
//! [`SimError`] with a readable message. No panics, no partial restores:
//! an error leaves nothing behind but the untouched input bytes.

use disco::core::{CompressionPlacement, SimBuilder, SimError, System};
use disco::snapshot::{Writer, FORMAT_VERSION, MAGIC};
use disco::workloads::Benchmark;

fn builder() -> SimBuilder {
    SimBuilder::new()
        .mesh(2, 2)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Swaptions)
        .trace_len(200)
        .seed(5)
}

/// A snapshot taken mid-run, with real state in every subsystem.
fn mid_run_snapshot() -> Vec<u8> {
    let mut sys = builder().build();
    assert!(!sys.step_until(400).expect("within budget"));
    sys.snapshot()
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let bytes = mid_run_snapshot();
    // Cut at the magic, inside the header, inside the builder, and just
    // short of the end — every prefix must fail with a typed error.
    for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
        let err = match System::restore(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => panic!("prefix of {cut} bytes restored"),
        };
        assert!(
            matches!(
                err,
                SimError::SnapshotTruncated { .. } | SimError::SnapshotCorrupt { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
        assert!(!format!("{err}").is_empty());
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.put(&(FORMAT_VERSION + 1));
    let err = match System::restore(&w.into_bytes()) {
        Err(e) => e,
        Ok(_) => panic!("future format version restored"),
    };
    let SimError::SnapshotVersionMismatch { found, expected } = err else {
        panic!("expected SnapshotVersionMismatch, got {err:?}");
    };
    assert_eq!(found, FORMAT_VERSION + 1);
    assert_eq!(expected, FORMAT_VERSION);
}

#[test]
fn version_1_snapshot_is_a_version_mismatch() {
    // A file from the version-1 format: magic, version 1, then the
    // cargo-feature fingerprint that format carried (here `trace` and
    // `faults`). The version check rejects it before the fingerprint.
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.put(&1u32);
    w.put(&0b11u32);
    let err = match System::restore(&w.into_bytes()) {
        Err(e) => e,
        Ok(_) => panic!("version-1 snapshot restored"),
    };
    let SimError::SnapshotVersionMismatch { found, expected } = err else {
        panic!("expected SnapshotVersionMismatch, got {err:?}");
    };
    assert_eq!((found, expected), (1, FORMAT_VERSION));
    assert!(
        format!("{err}").contains("version 1"),
        "message names the found version: {err}"
    );
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = mid_run_snapshot();
    bytes[0] = b'X';
    let err = match System::restore(&bytes) {
        Err(e) => e,
        Ok(_) => panic!("bad magic restored"),
    };
    let SimError::SnapshotCorrupt { detail } = err else {
        panic!("expected SnapshotCorrupt, got {err:?}");
    };
    assert!(detail.contains("magic"), "detail was {detail:?}");
}

#[test]
fn wrong_topology_restore_is_a_typed_error() {
    use disco::noc::TopologyChoice;

    let bytes = mid_run_snapshot();
    // Same tile count, different interconnect: a job runner handing this
    // snapshot to a ring job must be told, not silently resumed.
    let ring = builder().topology(TopologyChoice::Ring);
    let err = match System::restore_with(&bytes, &ring) {
        Err(e) => e,
        Ok(_) => panic!("mesh snapshot restored into a ring job"),
    };
    let SimError::SnapshotConfigMismatch {
        field,
        snapshot,
        requested,
    } = err
    else {
        panic!("expected SnapshotConfigMismatch, got {err:?}");
    };
    assert_eq!(field, "topology");
    assert_ne!(snapshot, requested);

    // A different mesh size trips the same check.
    let bigger = builder().mesh(4, 4);
    assert!(matches!(
        System::restore_with(&bytes, &bigger),
        Err(SimError::SnapshotConfigMismatch { field: "cols", .. })
    ));

    // So do a different workload and an armed fault plan: neither
    // changes the grid, and either would resume another simulation.
    let canneal = builder().benchmark(Benchmark::Canneal);
    assert!(matches!(
        System::restore_with(&bytes, &canneal),
        Err(SimError::SnapshotConfigMismatch {
            field: "profile",
            ..
        })
    ));
    let faulty = builder().faults(disco::faults::FaultPlan::uniform(5 ^ 0xfa17, 1e-3));
    assert!(matches!(
        System::restore_with(&bytes, &faulty),
        Err(SimError::SnapshotConfigMismatch {
            field: "fault_plan",
            ..
        })
    ));

    // The matching configuration sails through.
    let resumed = System::restore_with(&bytes, &builder()).expect("matching config restores");
    resumed.run_to_completion().expect("resumed run drains");
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    let mut bytes = mid_run_snapshot();
    bytes.extend_from_slice(&[0xde, 0xad]);
    assert!(matches!(
        System::restore(&bytes),
        Err(SimError::SnapshotCorrupt { .. })
    ));
}

#[test]
fn garbage_streams_never_panic() {
    // Structurally hostile inputs: all fail in header or length
    // validation with a typed error.
    let hostile: &[&[u8]] = &[
        b"",
        b"DISCO",
        b"DISCOSNP",
        b"not a snapshot at all",
        &[0xff; 64],
    ];
    for bytes in hostile {
        assert!(
            System::restore(bytes).is_err(),
            "{} bytes of garbage restored",
            bytes.len()
        );
    }
}
