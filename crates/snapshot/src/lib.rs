#![warn(missing_docs)]

//! Versioned binary checkpoint encoding for the DISCO simulator.
//!
//! The workspace is dependency-free, so checkpoints use a hand-rolled
//! little-endian format instead of an external serializer: the [`Snap`]
//! trait pairs a `snap` (encode) with a `restore` (decode), [`Writer`]
//! and [`Reader`] move bytes, and [`SnapshotHeader`] stamps every file
//! with a magic and a format version, so a restore of a file written in
//! another format fails with a typed error instead of silently
//! diverging. Every build writes the same layout: tracing and fault
//! state are runtime options, serialized as present or absent.
//!
//! Determinism rules every implementation must follow:
//!
//! - Hash-map-backed state is written in **sorted key order** (use
//!   [`Writer::snap_map`] / [`Reader::restore_map`]); insertion-ordered
//!   containers (`Vec`, `VecDeque`, `BTreeMap`) are written in
//!   iteration order.
//! - Floating-point state is written via its IEEE-754 bit pattern
//!   ([`f64::to_bits`]), never via text formatting.
//! - Decoders never panic on malformed input: every read is
//!   bounds-checked and surfaces [`SnapError`].
//!
//! Which fields of which structs participate is governed by the
//! snapshot manifest at `crates/snapshot/manifest.txt`, enforced by
//! disco-verify lint rule 6 (`check_snapshot_manifest`): every field of
//! a manifested state struct must be declared `state` (serialized) or
//! `derived` (rebuilt from config on restore).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;

/// Magic bytes opening every snapshot stream (`DISCOSNP`).
pub const MAGIC: [u8; 8] = *b"DISCOSNP";

/// Current snapshot format version. Bump on any encoding change.
pub const FORMAT_VERSION: u32 = 4;

/// Error decoding a snapshot stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the decoder finished.
    Truncated {
        /// Byte offset at which the read ran past the end.
        offset: usize,
    },
    /// The stream does not begin with the snapshot magic.
    BadMagic,
    /// The stream's format version differs from this binary's.
    VersionMismatch {
        /// Version recorded in the stream.
        found: u32,
        /// Version this binary reads/writes.
        expected: u32,
    },
    /// A decoded value is structurally invalid (bad enum tag, length
    /// inconsistent with the rebuilt structure, ...).
    Malformed {
        /// What was being decoded and why it is invalid.
        detail: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { offset } => {
                write!(f, "snapshot truncated: read past end at byte {offset}")
            }
            SnapError::BadMagic => write!(f, "not a DISCO snapshot (bad magic)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} but this binary reads version {expected}"
            ),
            SnapError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl Error for SnapError {}

/// Convenience constructor for [`SnapError::Malformed`].
pub fn malformed(detail: impl Into<String>) -> SnapError {
    SnapError::Malformed {
        detail: detail.into(),
    }
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes one value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.snap(self);
    }

    /// Writes a hash map in sorted-key order (determinism contract).
    pub fn snap_map<K, V, S>(&mut self, map: &HashMap<K, V, S>)
    where
        K: Snap + Ord + Eq + std::hash::Hash,
        V: Snap,
        S: BuildHasher,
    {
        let mut keys: Vec<&K> = map.keys().collect();
        keys.sort();
        (keys.len() as u64).snap(self);
        for k in keys {
            k.snap(self);
            map[k].snap(self);
        }
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapError::Truncated { offset: self.pos })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one value.
    pub fn take<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::restore(self)
    }

    /// Reads a length prefix, rejecting lengths the remaining stream
    /// cannot possibly hold (each element is ≥ 1 byte).
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let n = u64::restore(self)? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(malformed(format!(
                "length prefix {n} exceeds remaining {} bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Reads a map written by [`Writer::snap_map`].
    pub fn restore_map<K, V, S>(&mut self) -> Result<HashMap<K, V, S>, SnapError>
    where
        K: Snap + Eq + std::hash::Hash,
        V: Snap,
        S: BuildHasher + Default,
    {
        let n = self.take_len()?;
        let mut map = HashMap::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            let k = K::restore(self)?;
            let v = V::restore(self)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// A type that can checkpoint itself to a [`Writer`] and rebuild from a
/// [`Reader`].
pub trait Snap: Sized {
    /// Encodes `self`.
    fn snap(&self, w: &mut Writer);
    /// Decodes one value.
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn snap(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                let b = r.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized read")))
            }
        }
    )*};
}

snap_int!(u8, u16, u32, u64, i64);

impl Snap for usize {
    fn snap(&self, w: &mut Writer) {
        (*self as u64).snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(u64::restore(r)? as usize)
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut Writer) {
        (*self as u8).snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::restore(r)? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(malformed(format!("bool tag {n}"))),
        }
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut Writer) {
        self.to_bits().snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::restore(r)?))
    }
}

impl Snap for String {
    fn snap(&self, w: &mut Writer) {
        (self.len() as u64).snap(w);
        w.bytes(self.as_bytes());
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let b = r.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| malformed("non-UTF-8 string"))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut Writer) {
        (self.len() as u64).snap(w);
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut Writer) {
        (self.len() as u64).snap(w);
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut Writer) {
        match self {
            None => 0u8.snap(w),
            Some(v) => {
                1u8.snap(w);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::restore(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            n => Err(malformed(format!("Option tag {n}"))),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut Writer) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut Writer) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<T: Snap + Default + Copy, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut Writer) {
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::restore(r)?;
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut Writer) {
        (self.len() as u64).snap(w);
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Implements [`Snap`] for a struct by listing its fields in order.
/// Must be invoked in a scope with access to every listed field (the
/// defining module, for private fields).
#[macro_export]
macro_rules! snap_fields {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::Writer) {
                $( $crate::Snap::snap(&self.$field, w); )*
            }
            fn restore(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snap::restore(r)? ),* })
            }
        }
    };
}

/// The header opening every snapshot stream: magic and format version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version ([`FORMAT_VERSION`] at write time).
    pub version: u32,
}

impl SnapshotHeader {
    /// Writes magic + version.
    pub fn write(&self, w: &mut Writer) {
        w.bytes(&MAGIC);
        self.version.snap(w);
    }

    /// Reads and validates the magic and version.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let magic = r.bytes(MAGIC.len())?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::restore(r)?;
        if version != FORMAT_VERSION {
            return Err(SnapError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(SnapshotHeader { version })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put(&42u64);
        w.put(&7u8);
        w.put(&true);
        w.put(&(-3i64));
        w.put(&1.5f64);
        w.put(&"hello".to_string());
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take::<u64>().unwrap(), 42);
        assert_eq!(r.take::<u8>().unwrap(), 7);
        assert!(r.take::<bool>().unwrap());
        assert_eq!(r.take::<i64>().unwrap(), -3);
        assert_eq!(r.take::<f64>().unwrap(), 1.5);
        assert_eq!(r.take::<String>().unwrap(), "hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn containers_round_trip() {
        let mut w = Writer::new();
        w.put(&vec![1u64, 2, 3]);
        w.put(&Some(9u32));
        w.put(&Option::<u32>::None);
        let mut dq = VecDeque::new();
        dq.push_back(5u64);
        w.put(&dq);
        let mut bt = BTreeMap::new();
        bt.insert(2u64, 20u64);
        bt.insert(1u64, 10u64);
        w.put(&bt);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take::<Option<u32>>().unwrap(), Some(9));
        assert_eq!(r.take::<Option<u32>>().unwrap(), None);
        assert_eq!(r.take::<VecDeque<u64>>().unwrap(), dq);
        assert_eq!(r.take::<BTreeMap<u64, u64>>().unwrap(), bt);
    }

    #[test]
    fn hash_maps_serialize_sorted() {
        let mut a: HashMap<u64, u64> = HashMap::new();
        let mut b: HashMap<u64, u64> = HashMap::new();
        for k in 0..64u64 {
            a.insert(k, k * 2);
        }
        for k in (0..64u64).rev() {
            b.insert(k, k * 2);
        }
        let mut wa = Writer::new();
        wa.snap_map(&a);
        let mut wb = Writer::new();
        wb.snap_map(&b);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let mut w = Writer::new();
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        match r.take::<Vec<u64>>() {
            Err(SnapError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put(&u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.take::<Vec<u64>>(),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn header_round_trip_and_mismatches() {
        let hdr = SnapshotHeader {
            version: FORMAT_VERSION,
        };
        let mut w = Writer::new();
        hdr.write(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(SnapshotHeader::read(&mut Reader::new(&bytes)).unwrap(), hdr);

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            SnapshotHeader::read(&mut Reader::new(&bad)),
            Err(SnapError::BadMagic)
        );

        let mut wrong_ver = Writer::new();
        wrong_ver.bytes(&MAGIC);
        wrong_ver.put(&(FORMAT_VERSION + 1));
        let wv = wrong_ver.into_bytes();
        assert!(matches!(
            SnapshotHeader::read(&mut Reader::new(&wv)),
            Err(SnapError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn snap_fields_macro_round_trips() {
        struct Demo {
            a: u64,
            b: Vec<u16>,
        }
        snap_fields!(Demo { a, b });
        let d = Demo {
            a: 5,
            b: vec![1, 2],
        };
        let mut w = Writer::new();
        w.put(&d);
        let bytes = w.into_bytes();
        let back: Demo = Reader::new(&bytes).take().unwrap();
        assert_eq!(back.a, 5);
        assert_eq!(back.b, vec![1, 2]);
    }
}
