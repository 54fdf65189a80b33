//! Persistent warm state: versioned snapshots of the engine's memo tiers.
//!
//! Every memo tier the [`Engine`](crate::Engine) builds during a run is
//! keyed canonically — by layer content, hardware parameters, complete
//! topology encodings, or bit-exact graph encodings — never by process
//! addresses or hash-iteration order (the one instance-keyed map,
//! `ModelInterner::by_instance`, is deliberately *not* persisted). That
//! is what makes cross-process reuse sound: an entry looked up from a
//! snapshot is indistinguishable from one the loading process would
//! have computed itself, so a flow started from a snapshot is
//! bit-identical to the cold flow.
//!
//! # File format
//!
//! A fixed binary header followed by a compact binary payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic `CLAIRSNP`
//!      8     2  byte-order mark 0xFEFF, little-endian (`FF FE`)
//!     10     4  format version (u32 LE, currently 4)
//!     14     8  payload length in bytes (u64 LE)
//!     22     8  FNV-1a-64 checksum of the payload (u64 LE)
//!     30     …  binary payload
//! ```
//!
//! The payload is eight sections, in this order: structures, layer
//! costs, area tables, compute sums, route keys, communication
//! sequences, Louvain partitions, universal graphs. Each section is an
//! entry count followed by the entries. Inside an entry:
//!
//! * integers are unsigned LEB128 varints;
//! * floats are their IEEE-754 bit patterns (`f64::to_bits`), 8 bytes
//!   little-endian, so a round trip is bit-exact;
//! * enums (layer kinds, op classes, activation and pooling kinds) and
//!   booleans are one tag byte;
//! * every sequence carries a varint length prefix.
//!
//! Structural ids are renumbered into the order of the structures'
//! encoded bytes, and every section is sorted by its entries' encoded
//! bytes. Equal tier *contents* therefore give equal *bytes*:
//! snapshots are **byte-identical across thread counts** and across
//! processes that computed the same entries in different orders.
//!
//! The decoder checks every length prefix against the bytes that
//! remain before it allocates, and rejects unknown tags, out-of-range
//! ids, non-finite costs and trailing bytes. It decodes into a staging
//! area that touches no engine state until the whole payload has
//! validated.
//!
//! # Clean saves
//!
//! An [`Engine`] keeps one *persisted mark*: its
//! [`Engine::tier_signature`] at the last successful
//! [`Engine::save_snapshot`], or right after an
//! [`Engine::load_snapshot`] into an engine whose tiers were empty.
//! While the signature still equals the mark, the snapshot on disk
//! already holds every tier entry, so
//! [`Claire::save_warm_state`](crate::Claire::save_warm_state) — and
//! the serve checkpoint built on it — skip the write. `save_snapshot`
//! itself always writes.
//!
//! # Versioning and invalidation
//!
//! Any reader-visible change to the payload layout or to the meaning
//! of a cached value (a cost-model change, a new key field) must bump
//! [`SNAPSHOT_VERSION`]. Version 4 dropped version 3's lower-bound
//! section together with the tier it persisted (the flat plan keeps
//! each row's bounds itself). A reader rejects unknown versions — along
//! with short files, bad magic, foreign byte order, checksum
//! mismatches, and payloads that fail validation — with a typed
//! [`ClaireError::SnapshotInvalid`], and the caller degrades to a cold
//! start. A snapshot is an accelerator, never an input: no failure
//! mode may panic or alter results.

use crate::error::ClaireError;
use crate::evaluate::{ComputeSum, RouteTable, TransferCost};
use crate::parallel::{read_lock, write_lock, Engine, Prehashed, TopologyKey, UniversalCsr};
use claire_graph::{CsrGraph, Partition, WeightedGraph};
use claire_model::{
    Activation, ActivationKind, Conv1d, Conv2d, Flatten, LayerKind, Linear, OpClass, Permute,
    Pooling, PoolingKind,
};
use claire_ppa::{HwParams, LayerCost};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Snapshot file magic.
const MAGIC: [u8; 8] = *b"CLAIRSNP";

/// Byte-order mark: written little-endian, so the file starts a
/// foreign-endianness (or byte-swapped) header check cheaply.
const BOM: u16 = 0xFEFF;

/// Current snapshot format version. Bump on any layout or
/// cached-value-semantics change; readers reject other versions.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Header length in bytes: magic + BOM + version + length + checksum.
const HEADER_LEN: usize = 8 + 2 + 4 + 8 + 8;

/// FNV-1a 64-bit checksum — dependency-free and byte-order independent.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn invalid(detail: impl Into<String>) -> ClaireError {
    ClaireError::SnapshotInvalid {
        detail: detail.into(),
    }
}

// --- encoding -------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_varint(out, n as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for &v in values {
        put_varint(out, u64::from(v));
    }
}

fn put_hw(out: &mut Vec<u8>, hw: &HwParams) {
    put_u32s(out, &[hw.sa_size, hw.n_sa, hw.n_act, hw.n_pool]);
}

/// An op class is one tag byte: its [`OpClass::index`].
fn put_class(out: &mut Vec<u8>, class: OpClass) {
    out.push(class.index() as u8);
}

fn put_kind(out: &mut Vec<u8>, kind: &LayerKind) {
    match kind {
        LayerKind::Conv2d(c) => {
            out.push(0);
            put_u32s(
                out,
                &[
                    c.in_channels,
                    c.out_channels,
                    c.kernel.0,
                    c.kernel.1,
                    c.stride.0,
                    c.stride.1,
                    c.padding.0,
                    c.padding.1,
                    c.ifm.0,
                    c.ifm.1,
                    c.groups,
                ],
            );
        }
        LayerKind::Conv1d(c) => {
            out.push(1);
            put_u32s(
                out,
                &[
                    c.in_channels,
                    c.out_channels,
                    c.kernel,
                    c.stride,
                    c.padding,
                    c.length,
                ],
            );
        }
        LayerKind::Linear(l) => {
            out.push(2);
            put_u32s(out, &[l.in_features, l.out_features, l.tokens]);
        }
        LayerKind::Activation(a) => {
            out.push(3);
            out.push(a.kind as u8);
            put_varint(out, a.elements);
        }
        LayerKind::Pooling(p) => {
            out.push(4);
            out.push(p.kind as u8);
            put_varint(out, p.input_elements);
            put_varint(out, p.output_elements);
        }
        LayerKind::Flatten(f) => {
            out.push(5);
            put_varint(out, f.elements);
        }
        LayerKind::Permute(p) => {
            out.push(6);
            put_varint(out, p.elements);
        }
    }
}

fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_len(out, words.len());
    for &w in words {
        put_varint(out, w);
    }
}

fn put_topo(out: &mut Vec<u8>, key: &TopologyKey) {
    put_varint(out, u64::from(key.classes));
    put_len(out, key.chiplets.len());
    for &mask in &key.chiplets {
        put_varint(out, u64::from(mask));
    }
    put_len(out, key.slots.len());
    for &(x, y) in &key.slots {
        out.extend_from_slice(&[x, y]);
    }
    out.push(key.n_chiplets);
}

fn put_partition(out: &mut Vec<u8>, p: &Partition<OpClass>) {
    put_len(out, p.communities().len());
    for community in p.communities() {
        put_len(out, community.len());
        for &class in community {
            put_class(out, class);
        }
    }
}

/// Appends one canonical section to `out`: the entry count, then every
/// entry's encoding in ascending byte order, so the bytes do not depend
/// on the order `entries` yields them. Returns the iteration indices
/// of the entries in written order.
fn put_section<T>(
    out: &mut Vec<u8>,
    entries: impl IntoIterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) -> Vec<usize> {
    let mut buf = Vec::new();
    let mut spans: Vec<(Range<usize>, usize)> = Vec::new();
    for (i, entry) in entries.into_iter().enumerate() {
        let start = buf.len();
        put(&mut buf, entry);
        spans.push((start..buf.len(), i));
    }
    spans.sort_unstable_by(|a, b| buf[a.0.clone()].cmp(&buf[b.0.clone()]));
    put_len(out, spans.len());
    out.reserve(buf.len());
    spans
        .into_iter()
        .map(|(span, i)| {
            out.extend_from_slice(&buf[span]);
            i
        })
        .collect()
}

/// Serializes the engine's memo tiers into snapshot bytes (header +
/// canonical binary payload). Pure read: takes every tier lock
/// briefly, never mutates.
pub(crate) fn encode(engine: &Engine) -> Vec<u8> {
    // The header's length and checksum are patched in at the end.
    let mut file = Vec::with_capacity(HEADER_LEN);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&BOM.to_le_bytes());
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.resize(HEADER_LEN, 0);

    // Canonical structural ids: write structures in encoded-byte
    // order, then renumber. `old_to_new[old_sid] = snapshot_sid`.
    let old_to_new = {
        let models = read_lock(&engine.models);
        let entries: Vec<(&[LayerKind], u32)> = models
            .by_content
            .iter()
            .map(|(kinds, &sid)| (kinds.as_ref(), sid))
            .collect();
        let order = put_section(&mut file, &entries, |out, (kinds, _)| {
            put_len(out, kinds.len());
            for kind in *kinds {
                put_kind(out, kind);
            }
        });
        let mut old_to_new = vec![u32::MAX; models.batches.len()];
        for (new, i) in order.into_iter().enumerate() {
            old_to_new[entries[i].1 as usize] = new as u32;
        }
        old_to_new
    };
    let renum = |old: u32| u64::from(old_to_new[old as usize]);

    {
        let shards: Vec<_> = engine.shards.iter().map(read_lock).collect();
        put_section(
            &mut file,
            shards.iter().flat_map(|s| s.iter()),
            |out, (k, c)| {
                put_kind(out, &k.key.0);
                put_hw(out, &k.key.1);
                put_varint(out, c.cycles);
                put_f64(out, c.energy_pj);
                put_varint(out, c.executions);
            },
        );
    }
    put_section(
        &mut file,
        read_lock(&engine.areas).iter(),
        |out, (hw, table)| {
            put_hw(out, hw);
            put_len(out, table.len());
            for &area in table.iter() {
                put_f64(out, area);
            }
        },
    );
    put_section(
        &mut file,
        read_lock(&engine.sums).iter(),
        |out, (&(sid, hw), s)| {
            put_varint(out, renum(sid));
            put_hw(out, &hw);
            put_varint(out, s.cycles);
            put_f64(out, s.energy_pj);
        },
    );
    // Route tables are lazily-filled `OnceLock` grids; persisting the
    // keys alone preserves the "which topologies exist" working set
    // while letting routes refill deterministically on first use.
    put_section(&mut file, read_lock(&engine.routes).keys(), put_topo);
    put_section(
        &mut file,
        read_lock(&engine.comms).iter(),
        |out, ((sid, topo), costs)| {
            put_varint(out, renum(*sid));
            put_topo(out, topo);
            put_len(out, costs.len());
            for t in costs.iter() {
                put_varint(out, t.ser_cycles);
                put_varint(out, t.fixed_cycles);
                out.push(u8::from(t.crosses_chiplet));
                put_varint(out, t.noc_mpj);
                put_varint(out, t.nop_mpj);
            }
        },
    );
    put_section(
        &mut file,
        read_lock(&engine.louvains).iter(),
        |out, (key, p)| {
            put_words(out, key);
            put_partition(out, p);
        },
    );
    put_section(
        &mut file,
        read_lock(&engine.graphs).iter(),
        |out, ((sids, hw), ug)| {
            // Graph-tier keys hold structural ids widened to u64; map them
            // through the same renumbering as every other tier.
            put_len(out, sids.len());
            for &sid in sids.iter() {
                put_varint(out, renum(sid as u32));
            }
            put_hw(out, hw);
            put_len(out, ug.graph.node_count());
            for (&class, w) in ug.graph.nodes() {
                put_class(out, class);
                put_f64(out, w);
            }
            put_len(out, ug.graph.edge_count());
            for (&a, &b, w) in ug.graph.edges() {
                put_class(out, a);
                put_class(out, b);
                put_f64(out, w);
            }
        },
    );

    let (header, payload) = file.split_at_mut(HEADER_LEN);
    header[14..22].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[22..30].copy_from_slice(&fnv1a(payload).to_le_bytes());
    file
}

// --- decoding -------------------------------------------------------------

/// A staged Louvain entry: the canonical CSR-plus-resolution key and
/// the memoized partition.
type StagedLouvain = (Box<[u64]>, Arc<Partition<OpClass>>);

/// Everything a snapshot contributes, fully parsed and validated but
/// not yet applied — so a corrupt file can be rejected without having
/// touched any engine state.
#[derive(Debug)]
struct Staged {
    structures: Vec<Box<[LayerKind]>>,
    layer_costs: Vec<(LayerKind, HwParams, LayerCost)>,
    areas: Vec<(HwParams, Arc<[f64; OpClass::COUNT]>)>,
    sums: Vec<(u32, HwParams, ComputeSum)>,
    routes: Vec<TopologyKey>,
    comms: Vec<(u32, TopologyKey, Arc<[TransferCost]>)>,
    louvains: Vec<StagedLouvain>,
    graphs: Vec<(Vec<u32>, HwParams, Arc<UniversalCsr>)>,
}

/// The outcome of one decoding step.
type Decoded<T> = Result<T, ClaireError>;

/// A bounds-checked cursor over the payload. Every read fails with a
/// typed error instead of running past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.remaining() {
            return Err(invalid(format!(
                "payload ends inside a field at byte {}",
                self.at
            )));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn byte(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Decoded<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(invalid(format!(
            "varint overflows 64 bits at byte {}",
            self.at
        )))
    }

    fn u32(&mut self) -> Decoded<u32> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| invalid(format!("integer {v} exceeds 32 bits")))
    }

    fn f64(&mut self) -> Decoded<f64> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(f64::from_bits(u64::from_le_bytes(w)))
    }

    /// A finite float — costs and areas are never NaN or infinite.
    fn finite(&mut self, what: &str) -> Decoded<f64> {
        let v = self.f64()?;
        if !v.is_finite() {
            return Err(invalid(format!("non-finite {what} in snapshot")));
        }
        Ok(v)
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(invalid(format!("boolean byte {b}"))),
        }
    }

    /// A sequence length prefix, checked against the remaining bytes
    /// (each element takes at least `min_bytes`) before any caller
    /// allocates for it.
    fn len(&mut self, min_bytes: usize) -> Decoded<usize> {
        let n = self.varint()?;
        let room = self.remaining() / min_bytes;
        if n > room as u64 {
            return Err(invalid(format!(
                "length prefix {n} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A length-prefixed sequence of `item`s.
    fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        let n = self.len(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn hw(&mut self) -> Decoded<HwParams> {
        Ok(HwParams {
            sa_size: self.u32()?,
            n_sa: self.u32()?,
            n_act: self.u32()?,
            n_pool: self.u32()?,
        })
    }

    fn class(&mut self) -> Decoded<OpClass> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => OpClass::Conv2d,
            1 => OpClass::Conv1d,
            2 => OpClass::Linear,
            3..=7 => OpClass::Activation(ActivationKind::ALL[usize::from(tag - 3)]),
            8..=12 => OpClass::Pooling(PoolingKind::ALL[usize::from(tag - 8)]),
            13 => OpClass::Flatten,
            14 => OpClass::Permute,
            _ => return Err(invalid(format!("unknown op-class tag {tag}"))),
        })
    }

    fn kind(&mut self) -> Decoded<LayerKind> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => LayerKind::Conv2d(Conv2d {
                in_channels: self.u32()?,
                out_channels: self.u32()?,
                kernel: (self.u32()?, self.u32()?),
                stride: (self.u32()?, self.u32()?),
                padding: (self.u32()?, self.u32()?),
                ifm: (self.u32()?, self.u32()?),
                groups: self.u32()?,
            }),
            1 => LayerKind::Conv1d(Conv1d {
                in_channels: self.u32()?,
                out_channels: self.u32()?,
                kernel: self.u32()?,
                stride: self.u32()?,
                padding: self.u32()?,
                length: self.u32()?,
            }),
            2 => LayerKind::Linear(Linear {
                in_features: self.u32()?,
                out_features: self.u32()?,
                tokens: self.u32()?,
            }),
            3 => {
                let t = self.byte()?;
                let kind = *ActivationKind::ALL
                    .get(usize::from(t))
                    .ok_or_else(|| invalid(format!("unknown activation tag {t}")))?;
                LayerKind::Activation(Activation {
                    kind,
                    elements: self.varint()?,
                })
            }
            4 => {
                let t = self.byte()?;
                let kind = *PoolingKind::ALL
                    .get(usize::from(t))
                    .ok_or_else(|| invalid(format!("unknown pooling tag {t}")))?;
                LayerKind::Pooling(Pooling {
                    kind,
                    input_elements: self.varint()?,
                    output_elements: self.varint()?,
                })
            }
            5 => LayerKind::Flatten(Flatten {
                elements: self.varint()?,
            }),
            6 => LayerKind::Permute(Permute {
                elements: self.varint()?,
            }),
            _ => return Err(invalid(format!("unknown layer tag {tag}"))),
        })
    }

    fn words(&mut self) -> Decoded<Box<[u64]>> {
        Ok(self.seq(1, Self::varint)?.into_boxed_slice())
    }

    fn topo(&mut self) -> Decoded<TopologyKey> {
        let classes = self.varint()?;
        let classes = u16::try_from(classes)
            .map_err(|_| invalid(format!("topology class mask {classes} exceeds 16 bits")))?;
        if self.len(1)? != OpClass::COUNT {
            return Err(invalid("topology key with wrong chiplet-mask count"));
        }
        let mut chiplets = [0u16; OpClass::COUNT];
        for mask in &mut chiplets {
            let v = self.varint()?;
            *mask = u16::try_from(v)
                .map_err(|_| invalid(format!("chiplet mask {v} exceeds 16 bits")))?;
        }
        if self.len(2)? != OpClass::COUNT {
            return Err(invalid("topology key with wrong slot count"));
        }
        let mut slots = [(0u8, 0u8); OpClass::COUNT];
        for slot in &mut slots {
            *slot = (self.byte()?, self.byte()?);
        }
        Ok(TopologyKey {
            classes,
            chiplets,
            slots,
            n_chiplets: self.byte()?,
        })
    }

    /// Validates and rebuilds a partition. [`Partition::from_communities`]
    /// panics on malformed input, so a corrupt snapshot must be caught
    /// here — before any engine state is touched.
    fn partition(&mut self) -> Decoded<Partition<OpClass>> {
        let communities = self.seq(1, |r| r.seq(1, Self::class))?;
        let mut seen = 0u16;
        for community in &communities {
            if community.is_empty() {
                return Err(invalid("partition with an empty community"));
            }
            for class in community {
                let bit = 1u16 << class.index();
                if seen & bit != 0 {
                    return Err(invalid("partition with a node in two communities"));
                }
                seen |= bit;
            }
        }
        Ok(Partition::from_communities(communities))
    }
}

/// Parses and validates snapshot bytes into staged tier contents.
fn decode(bytes: &[u8]) -> Result<Staged, ClaireError> {
    if bytes.len() < HEADER_LEN {
        return Err(invalid(format!(
            "file too short for header ({} < {HEADER_LEN} bytes)",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(invalid("bad magic (not a CLAIRE snapshot)"));
    }
    let bom = u16::from_le_bytes([bytes[8], bytes[9]]);
    if bom != BOM {
        return Err(if bom == BOM.swap_bytes() {
            invalid("foreign-endianness header (byte-swapped BOM)")
        } else {
            invalid(format!("corrupt byte-order mark 0x{bom:04X}"))
        });
    }
    let version = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
    if version != SNAPSHOT_VERSION {
        return Err(invalid(format!(
            "version {version} (this build reads {SNAPSHOT_VERSION})"
        )));
    }
    let le_u64 = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let len = le_u64(14);
    let body = &bytes[HEADER_LEN..];
    if len != body.len() as u64 {
        return Err(invalid(format!(
            "truncated payload ({} of {len} bytes)",
            body.len()
        )));
    }
    let checksum = le_u64(22);
    if fnv1a(body) != checksum {
        return Err(invalid("payload checksum mismatch"));
    }

    // Sections in encoding order. Each `seq` names the fewest bytes
    // one of its elements encodes to, which bounds its length prefix.
    let mut r = Reader { bytes: body, at: 0 };
    let structures = r.seq(1, |r| Ok(r.seq(2, Reader::kind)?.into_boxed_slice()))?;
    let n = structures.len() as u32;
    let sid = |r: &mut Reader<'_>| {
        let sid = r.u32()?;
        if sid < n {
            Ok(sid)
        } else {
            Err(invalid(format!("structural id {sid} out of range (< {n})")))
        }
    };
    let layer_costs = r.seq(16, |r| {
        Ok((
            r.kind()?,
            r.hw()?,
            LayerCost {
                cycles: r.varint()?,
                energy_pj: r.finite("layer-cost energy")?,
                executions: r.varint()?,
            },
        ))
    })?;
    let areas = r.seq(5, |r| {
        let hw = r.hw()?;
        let count = r.len(8)?;
        if count != OpClass::COUNT {
            return Err(invalid(format!(
                "area table with {count} classes (expected {})",
                OpClass::COUNT
            )));
        }
        let mut table = [0.0f64; OpClass::COUNT];
        for slot in &mut table {
            *slot = r.finite("unit area")?;
        }
        Ok((hw, Arc::new(table)))
    })?;
    let sums = r.seq(14, |r| {
        Ok((
            sid(r)?,
            r.hw()?,
            ComputeSum {
                cycles: r.varint()?,
                energy_pj: r.finite("compute-sum energy")?,
            },
        ))
    })?;
    let routes = r.seq(49, Reader::topo)?;
    let comms = r.seq(51, |r| {
        let s = sid(r)?;
        let topo = r.topo()?;
        let costs = r.seq(5, |r| {
            Ok(TransferCost {
                ser_cycles: r.varint()?,
                fixed_cycles: r.varint()?,
                crosses_chiplet: r.bool()?,
                noc_mpj: r.varint()?,
                nop_mpj: r.varint()?,
            })
        })?;
        Ok((s, topo, Arc::from(costs)))
    })?;
    let louvains = r.seq(2, |r| Ok((r.words()?, Arc::new(r.partition()?))))?;
    let graphs = r.seq(7, |r| {
        let sids = r.seq(1, sid)?;
        let hw = r.hw()?;
        let nodes = r.seq(9, |r| Ok((r.class()?, r.f64()?)))?;
        let edges = r.seq(10, |r| Ok((r.class()?, r.class()?, r.f64()?)))?;
        let graph = WeightedGraph::from_parts(nodes, edges);
        let csr = CsrGraph::from_weighted(&graph);
        Ok((sids, hw, Arc::new(UniversalCsr { graph, csr })))
    })?;
    if r.remaining() != 0 {
        return Err(invalid(format!(
            "{} trailing bytes after the payload",
            r.remaining()
        )));
    }

    Ok(Staged {
        structures,
        layer_costs,
        areas,
        sums,
        routes,
        comms,
        louvains,
        graphs,
    })
}

/// Merges staged snapshot contents into the engine's tiers. Existing
/// live entries always win (`or_insert`): a tier entry is an exact
/// function of its key, so on a genuine collision both sides are
/// equal and keeping the resident one is free.
fn apply(engine: &Engine, staged: Staged) {
    // Intern the snapshot's structures; `sid_map[snapshot_sid]` is the
    // live structural id in this process.
    let sid_map: Vec<u32> = {
        let mut models = write_lock(&engine.models);
        staged
            .structures
            .into_iter()
            .map(|kinds| models.intern_content(kinds))
            .collect()
    };
    let live = |sid: u32| sid_map[sid as usize];

    for (kind, hw, cost) in staged.layer_costs {
        let key = Prehashed::new((kind, hw));
        let mut shard = write_lock(&engine.shards[key.shard()]);
        shard.entry(key).or_insert(cost);
    }
    {
        let mut areas = write_lock(&engine.areas);
        for (hw, table) in staged.areas {
            areas.entry(hw).or_insert(table);
        }
    }
    {
        let mut sums = write_lock(&engine.sums);
        for (sid, hw, sum) in staged.sums {
            sums.entry((live(sid), hw)).or_insert(sum);
        }
    }
    {
        // Fresh fault-free tables: route cells refill deterministically
        // on first use, and snapshots never load into faulted engines.
        let mut routes = write_lock(&engine.routes);
        for key in staged.routes {
            routes
                .entry(key)
                .or_insert_with(|| Arc::new(RouteTable::new()));
        }
    }
    {
        let mut comms = write_lock(&engine.comms);
        for (sid, topo, costs) in staged.comms {
            comms.entry((live(sid), topo)).or_insert(costs);
        }
    }
    {
        let mut louvains = write_lock(&engine.louvains);
        for (key, partition) in staged.louvains {
            louvains.entry(key).or_insert(partition);
        }
    }
    {
        let mut graphs = write_lock(&engine.graphs);
        for (sids, hw, ug) in staged.graphs {
            let key: Box<[u64]> = sids.iter().map(|&s| u64::from(live(s))).collect();
            graphs.entry((key, hw)).or_insert(ug);
        }
    }
}

impl Engine {
    /// Writes the engine's memo tiers to `path` as a versioned
    /// snapshot, atomically (write to a sibling temp file, then
    /// rename), and moves the persisted mark to the tiers it wrote.
    /// Always writes when eligible; the clean-save skip lives in
    /// [`Claire::save_warm_state`](crate::Claire::save_warm_state).
    /// Returns `false` — without writing — when the engine cannot
    /// produce a reusable snapshot: cache disabled (nothing to save)
    /// or a fault plan armed (faulted routes and evaluations must not
    /// leak into healthy runs).
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] when the file cannot be
    /// written.
    pub fn save_snapshot(&self, path: &Path) -> Result<bool, ClaireError> {
        if !self.cache_enabled() || self.faults().is_some() {
            return Ok(false);
        }
        let _span = self.telemetry().span("snapshot.save", "persist");
        // Taken before encoding: an entry inserted concurrently with
        // the encode leaves the mark stale, so the next save writes.
        let signature = self.tier_signature();
        let bytes = encode(self);
        // The temp name is unique per (process, write): two writers
        // sharing one cache dir each rename a *complete* file into
        // place, so the loser can at worst overwrite the winner with
        // another valid snapshot — never a torn interleaving.
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(|e| invalid(format!("write failed: {e}")))?;
        *write_lock(&self.persisted) = Some(signature);
        Ok(true)
    }

    /// Loads a snapshot from `path` into the engine's memo tiers.
    /// Returns `false` — without reading — when the file does not
    /// exist (a first run is not an error) or when the engine is not
    /// eligible (cache disabled, fault plan armed). Existing live
    /// entries are never overwritten. A load into an engine whose
    /// tiers were empty sets the persisted mark: the tiers then equal
    /// the file.
    ///
    /// # Errors
    ///
    /// [`ClaireError::SnapshotInvalid`] on any unreadable or invalid
    /// snapshot — short/truncated file, bad magic, foreign byte
    /// order, unknown version, checksum mismatch, malformed payload.
    /// The engine is untouched in every error case: validation
    /// completes before any tier is written, so the caller simply
    /// continues cold.
    pub fn load_snapshot(&self, path: &Path) -> Result<bool, ClaireError> {
        if !self.cache_enabled() || self.faults().is_some() {
            return Ok(false);
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(invalid(format!("read failed: {e}"))),
        };
        let _span = self.telemetry().span("snapshot.load", "persist");
        let staged = decode(&bytes)?;
        let was_empty = self.tiers_empty();
        apply(self, staged);
        if was_empty {
            *write_lock(&self.persisted) = Some(self.tier_signature());
        }
        Ok(true)
    }

    /// Whether the memo tiers are unchanged since the persisted mark:
    /// the last successful [`save_snapshot`](Engine::save_snapshot),
    /// or a [`load_snapshot`](Engine::load_snapshot) into empty tiers.
    /// `false` when neither has happened yet.
    pub fn tiers_persisted(&self) -> bool {
        *read_lock(&self.persisted) == Some(self.tier_signature())
    }

    /// The snapshot encoding of the current tiers, for byte-identity
    /// checks without touching the filesystem.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` keeps the signature stable.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, ClaireError> {
        Ok(encode(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for v in [
            0,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader { bytes: &buf, at: 0 };
            assert_eq!(r.varint().expect("decodes"), v);
            assert_eq!(r.remaining(), 0, "{v} left bytes behind");
        }
        // Eleven continuation bytes overflow 64 bits.
        let mut r = Reader {
            bytes: &[0xFF; 11],
            at: 0,
        };
        assert!(r.varint().is_err());
    }

    #[test]
    fn every_op_class_tag_round_trips() {
        for class in OpClass::all() {
            let mut buf = Vec::new();
            put_class(&mut buf, class);
            let mut r = Reader { bytes: &buf, at: 0 };
            assert_eq!(r.class().expect("decodes"), class);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX >> 1);
        let mut r = Reader { bytes: &buf, at: 0 };
        let err = r.seq(1, Reader::byte).unwrap_err();
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn malformed_partitions_are_rejected_before_rebuilding() {
        // Conv2d in two communities: `Partition::from_communities`
        // would panic on it.
        let mut buf = Vec::new();
        put_len(&mut buf, 2);
        for community in [&[OpClass::Conv2d, OpClass::Linear][..], &[OpClass::Conv2d]] {
            put_len(&mut buf, community.len());
            for &class in community {
                put_class(&mut buf, class);
            }
        }
        let err = Reader { bytes: &buf, at: 0 }.partition().unwrap_err();
        assert!(err.to_string().contains("two communities"), "{err}");

        let err = Reader {
            bytes: &[1, 0],
            at: 0,
        }
        .partition()
        .unwrap_err();
        assert!(err.to_string().contains("empty community"), "{err}");
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = encode(&Engine::new(1));
        bytes.push(0);
        let payload_len = (bytes.len() - HEADER_LEN) as u64;
        bytes[14..22].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(&bytes[HEADER_LEN..]);
        bytes[22..30].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn empty_engine_round_trips() {
        let engine = Engine::new(1);
        let bytes = encode(&engine);
        let staged = decode(&bytes).expect("fresh snapshot decodes");
        assert!(staged.structures.is_empty());
        let again = Engine::new(1);
        apply(&again, staged);
        assert_eq!(encode(&again), bytes);
    }

    #[test]
    fn version_3_snapshot_is_rejected_and_the_engine_stays_cold() {
        // Version 3 carried a lower-bound section, a tier this build
        // no longer has; such a file must not be read at all.
        let warm = Engine::new(1);
        warm.area_table(&HwParams::new(16, 16, 8, 8));
        let mut bytes = encode(&warm);
        bytes[10..14].copy_from_slice(&3u32.to_le_bytes());
        let path = std::env::temp_dir().join(format!("claire-v3-{}.snapshot", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let cold = Engine::new(1);
        let err = cold.load_snapshot(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, ClaireError::SnapshotInvalid { .. }));
        assert!(err.to_string().contains("version 3"), "{err}");
        assert!(cold.tiers_empty());
    }

    #[test]
    fn header_corruptions_are_typed() {
        let engine = Engine::new(1);
        let bytes = encode(&engine);

        // Truncated below the header.
        let err = decode(&bytes[..10]).unwrap_err();
        assert!(matches!(err, ClaireError::SnapshotInvalid { .. }));

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());

        // Byte-swapped BOM reads as foreign endianness.
        let mut swapped = bytes.clone();
        swapped.swap(8, 9);
        let err = decode(&swapped).unwrap_err();
        assert!(err.to_string().contains("endian"), "{err}");

        // Future version.
        let mut vers = bytes.clone();
        vers[10] = 0xFE;
        let err = decode(&vers).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // Payload corruption trips the checksum.
        let mut flip = bytes.clone();
        let last = flip.len() - 1;
        flip[last] ^= 0x01;
        let err = decode(&flip).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }
}
