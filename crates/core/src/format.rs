//! `qbs-index-v2`: the zero-copy flat binary index format.
//!
//! The v1 persistence path ([`crate::serialize`]) round-trips the whole
//! index through JSON, which costs `O(index)` text parsing plus a full heap
//! reconstruction on every load. Production deployments build once and
//! reload on every restart or shard spawn, so load time is a serving-path
//! cost, not a build-path one. v2 fixes this with a flat little-endian
//! layout that is read by **one buffer acquisition plus typed views over
//! byte ranges** — no parsing, no per-vertex allocation.
//!
//! # File layout
//!
//! Everything is little-endian. Every section starts on an 8-byte boundary
//! (zero padding in between), so the [`ViewBuf::Mmap`] backend — whose
//! mapping is page-aligned — could cast sections to typed slices directly.
//! The [`ViewBuf::Heap`] backend makes no base-pointer alignment
//! guarantee, so all in-tree accessors decode via `from_le_bytes`, which
//! is alignment-agnostic and therefore correct on both. See
//! `docs/index-format.md` for the normative specification.
//!
//! ```text
//! header (48 bytes)
//!   magic            8 bytes  "QBSIDX2\0"
//!   version          u32      2
//!   section_count    u32      10
//!   num_vertices     u64
//!   num_landmarks    u64
//!   file_size        u64      total file length in bytes
//!   reserved         u64      0
//! section table (10 × 24 bytes, in SectionKind order)
//!   kind             u32
//!   reserved         u32      0
//!   offset           u64      absolute, 8-byte aligned
//!   len              u64      payload bytes (padding excluded)
//! sections
//!   LANDMARKS        |R| × u32 vertex ids, column order
//!   LABEL_OFFSETS    (|V|+1) × u64 CSR offsets into LABEL_ENTRIES
//!   LABEL_ENTRIES    Σ|L(v)| × u32, low 16 bits landmark index, high 16
//!                    bits distance
//!   GRAPH_OFFSETS    (|V|+1) × u64 CSR offsets into GRAPH_NEIGHBORS
//!   GRAPH_NEIGHBORS  2|E| × u32 neighbour ids
//!   META_EDGES       |E_R| × (u32 i, u32 j, u32 σ) with i < j
//!   META_APSP        |R|² × u32 row-major landmark distance matrix
//!   DELTA_OFFSETS    (|E_R|+1) × u64 CSR offsets into DELTA_EDGES
//!   DELTA_EDGES      Σ|Δ_k| × (u32, u32) edge endpoints
//!   CHECKSUM         u64 word-wise FNV-1a 64 over file[0 .. checksum_offset)
//! ```
//!
//! # Loader abstraction
//!
//! [`IndexView`] wraps a [`ViewBuf`] — an owned heap buffer or a read-only
//! file mapping — and exposes typed accessors over the sections; every
//! accessor goes through [`ViewBuf::as_slice`], so the backends are
//! interchangeable. Two consumers sit on top:
//!
//! * [`crate::QbsIndex::from_view`] materialises the runtime structures
//!   from a validated view with a handful of bulk array builds (one per
//!   section), never a per-vertex or per-label allocation;
//! * [`crate::store::ViewStore`] serves queries **straight from the
//!   view** with no materialisation at all, via the
//!   [`crate::store::IndexStore`] abstraction.
//!
//! All structural validation happens in [`IndexView::parse`], so a corrupt
//! or truncated file is reported as [`QbsError::Corrupt`] instead of
//! panicking; [`IndexView::parse_trusted`] defers the `O(file)` integrity
//! scans for the map-speed serving cold start (see
//! [`crate::serialize::MapMode`]).
//!
//! # Compact profile (v3)
//!
//! This module also implements `qbs-index-v3`, the **compact profile**:
//! the same ten-section skeleton, but with a header-declared width profile
//! (1/2/4-byte distances, 4/8-byte CSR byte-offsets), front-coded LEB128
//! label and adjacency runs, varint Δ pairs and a narrow APSP matrix. See
//! [`write_v3`] / [`CompactView`] and the v3 chapter of
//! `docs/index-format.md`.

use qbs_graph::{Distance, Graph, VertexId, INFINITE_DISTANCE};

use crate::labelling::{PathLabelling, NO_LABEL};
use crate::meta_graph::MetaGraph;
use crate::query::QbsIndex;
use crate::{QbsError, Result};

/// Magic bytes opening every v2 index file.
pub const MAGIC_V2: [u8; 8] = *b"QBSIDX2\0";

/// Magic bytes opening every v3 (compact profile) index file.
pub const MAGIC_V3: [u8; 8] = *b"QBSIDX3\0";

/// Format version written by [`write_v2`].
pub const FORMAT_VERSION: u32 = 2;

/// Format version written by [`write_v3`].
pub const FORMAT_VERSION_V3: u32 = 3;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 48;

/// Byte length of one section-table record.
pub const SECTION_RECORD_LEN: usize = 24;

/// Alignment guaranteed for every section start.
pub const SECTION_ALIGN: usize = 8;

/// Number of sections in a v2 file.
pub const SECTION_COUNT: usize = 10;

/// Identifies one section of a v2 file.
///
/// Sections appear in the file in ascending discriminant order; the
/// checksum section is always last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// Landmark vertex ids in column order (`|R| × u32`).
    Landmarks = 1,
    /// CSR offsets into [`SectionKind::LabelEntries`] (`(|V|+1) × u64`).
    LabelOffsets = 2,
    /// Packed label entries (`u32`: low 16 bits landmark index, high 16
    /// bits distance).
    LabelEntries = 3,
    /// CSR offsets into [`SectionKind::GraphNeighbors`] (`(|V|+1) × u64`).
    GraphOffsets = 4,
    /// Concatenated sorted adjacency lists (`2|E| × u32`).
    GraphNeighbors = 5,
    /// Meta-graph edges (`|E_R| × (u32 i, u32 j, u32 σ)`, `i < j`).
    MetaEdges = 6,
    /// Row-major `|R|²` landmark all-pairs distance matrix (`u32`).
    MetaApsp = 7,
    /// CSR offsets into [`SectionKind::DeltaEdges`] (`(|E_R|+1) × u64`).
    DeltaOffsets = 8,
    /// Concatenated Δ path-graph edges (`(u32, u32)` per edge).
    DeltaEdges = 9,
    /// Word-wise FNV-1a 64 checksum of every byte before this section's offset.
    Checksum = 10,
}

impl SectionKind {
    /// All kinds in file order.
    pub const ALL: [SectionKind; SECTION_COUNT] = [
        SectionKind::Landmarks,
        SectionKind::LabelOffsets,
        SectionKind::LabelEntries,
        SectionKind::GraphOffsets,
        SectionKind::GraphNeighbors,
        SectionKind::MetaEdges,
        SectionKind::MetaApsp,
        SectionKind::DeltaOffsets,
        SectionKind::DeltaEdges,
        SectionKind::Checksum,
    ];

    /// Human-readable section name (used by `qbs-cli inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Landmarks => "landmarks",
            SectionKind::LabelOffsets => "label-offsets",
            SectionKind::LabelEntries => "label-entries",
            SectionKind::GraphOffsets => "graph-offsets",
            SectionKind::GraphNeighbors => "graph-neighbors",
            SectionKind::MetaEdges => "meta-edges",
            SectionKind::MetaApsp => "meta-apsp",
            SectionKind::DeltaOffsets => "delta-offsets",
            SectionKind::DeltaEdges => "delta-edges",
            SectionKind::Checksum => "checksum",
        }
    }

    fn from_u32(raw: u32) -> Option<SectionKind> {
        SectionKind::ALL.iter().copied().find(|&k| k as u32 == raw)
    }
}

/// One entry of the parsed section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionRecord {
    /// Which section this record describes.
    pub kind: SectionKind,
    /// Absolute byte offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub len: u64,
}

/// The buffer behind an [`IndexView`].
///
/// Every view accessor reads through [`ViewBuf::as_slice`], so the two
/// backends are interchangeable:
///
/// * [`ViewBuf::Heap`] — an owned copy of the file contents (the ingest /
///   inspection path, and the only possible backend for in-memory buffers);
/// * [`ViewBuf::Mmap`] — a read-only mapping of the index file itself
///   ([`crate::mmap::MmapRegion`]), shared behind an [`std::sync::Arc`] so
///   cloning a view never duplicates the file. N shard processes mapping the same
///   immutable file share one physical copy of the index through the page
///   cache.
#[derive(Clone, Debug)]
pub enum ViewBuf {
    /// An owned, heap-allocated copy of the file contents.
    Heap(Vec<u8>),
    /// A read-only memory mapping of the file (see [`crate::mmap`]).
    Mmap(std::sync::Arc<crate::mmap::MmapRegion>),
}

impl ViewBuf {
    /// The raw bytes of the whole file.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ViewBuf::Heap(bytes) => bytes,
            ViewBuf::Mmap(region) => region.as_slice(),
        }
    }

    /// Total buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// A validated, zero-copy view over a `qbs-index-v2` buffer.
///
/// Construction ([`IndexView::parse`]) performs *all* validation — magic,
/// version, section table geometry, checksum, and the structural invariants
/// of every section — so the typed accessors and [`QbsIndex::from_view`]
/// never panic on untrusted *file contents*. Per-vertex accessors index
/// like slices: passing a vertex or landmark index outside the ranges the
/// header declares (`< num_vertices()` / `< num_landmarks()`) is a caller
/// bug and panics, exactly as `Graph::neighbors` does.
#[derive(Debug)]
pub struct IndexView {
    buf: ViewBuf,
    sections: Vec<SectionRecord>,
    num_vertices: usize,
    num_landmarks: usize,
    /// Whether the `O(file)` integrity validation has passed (atomically
    /// flipped by a successful [`IndexView::verify`], so shared views can
    /// record it through `&self`).
    verified: std::sync::atomic::AtomicBool,
}

impl Clone for IndexView {
    fn clone(&self) -> Self {
        IndexView {
            buf: self.buf.clone(),
            sections: self.sections.clone(),
            num_vertices: self.num_vertices,
            num_landmarks: self.num_landmarks,
            verified: std::sync::atomic::AtomicBool::new(self.is_verified()),
        }
    }
}

impl IndexView {
    /// Parses and fully validates a v2 buffer.
    pub fn parse(buf: ViewBuf) -> Result<IndexView> {
        let view = Self::parse_geometry(buf)?;
        view.verify()?;
        Ok(view)
    }

    /// Parses a v2 buffer validating only its **geometry** — magic, version,
    /// section-table layout, and every section length the header implies —
    /// while deferring the `O(file)` integrity work (checksum and the
    /// structural scans) that [`IndexView::parse`] performs eagerly.
    ///
    /// This is the serving-path constructor: opening an immutable index
    /// file this way costs microseconds regardless of index size, because
    /// nothing beyond the header and section table is read until a query
    /// touches it. It is meant for files of **trusted provenance** — ones
    /// your own build pipeline wrote and verified (the writer checksums
    /// every file, and `qbs inspect` / [`IndexView::verify`] re-verify on
    /// demand). Feeding it a file that *would have failed* full validation
    /// trades the up-front `Corrupt` error for a deferred panic (an
    /// out-of-bounds slice index) or a wrong answer — never memory
    /// unsafety, since every accessor performs bounds-checked reads.
    pub fn parse_trusted(buf: ViewBuf) -> Result<IndexView> {
        Self::parse_geometry(buf)
    }

    /// Whether full integrity validation (checksum + structural scans) has
    /// passed on this view — `true` for [`IndexView::parse`], `false` for
    /// [`IndexView::parse_trusted`] until a successful
    /// [`IndexView::verify`] flips it.
    pub fn is_verified(&self) -> bool {
        self.verified.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs the deferred integrity validation of a
    /// [`IndexView::parse_trusted`] view: the checksum plus every
    /// structural invariant. On success the view is marked verified
    /// ([`IndexView::is_verified`]). Idempotent; views opened with
    /// [`IndexView::parse`] have already passed it.
    pub fn verify(&self) -> Result<()> {
        self.verify_checksum()?;
        self.validate_structure()?;
        self.verified
            .store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Geometry-only parse shared by both constructors.
    fn parse_geometry(buf: ViewBuf) -> Result<IndexView> {
        let data = buf.as_slice();
        check_magic_and_version(data)?;

        let section_count = le_u32(data, 12) as usize;
        if section_count != SECTION_COUNT {
            return Err(QbsError::Corrupt(format!(
                "qbs-index-v2 expects {SECTION_COUNT} sections, header declares {section_count}"
            )));
        }
        let num_vertices = le_u64(data, 16) as usize;
        let num_landmarks = le_u64(data, 24) as usize;
        let file_size = le_u64(data, 32);
        if file_size != data.len() as u64 {
            return Err(QbsError::Corrupt(format!(
                "file size mismatch: header declares {file_size} bytes, buffer has {} \
                 (truncated or padded file)",
                data.len()
            )));
        }

        let sections = parse_section_table(data)?;
        let view = IndexView {
            buf,
            sections,
            num_vertices,
            num_landmarks,
            verified: std::sync::atomic::AtomicBool::new(false),
        };
        view.validate_lengths()?;
        Ok(view)
    }

    /// Number of vertices of the serialised graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Total buffer length in bytes.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.buf.len()
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionRecord] {
        &self.sections
    }

    /// The buffer backend behind this view (heap copy or file mapping).
    pub fn buf(&self) -> &ViewBuf {
        &self.buf
    }

    /// The stored checksum ([`checksum64`] of every byte before its section).
    pub fn checksum(&self) -> u64 {
        let s = self.section(SectionKind::Checksum);
        le_u64(self.buf.as_slice(), s.offset as usize)
    }

    /// Raw payload bytes of one section.
    pub fn section_bytes(&self, kind: SectionKind) -> &[u8] {
        let s = self.section(kind);
        &self.buf.as_slice()[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// The `i`-th landmark vertex id (column order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_landmarks()`.
    #[inline]
    pub fn landmark(&self, i: usize) -> VertexId {
        le_u32(self.section_bytes(SectionKind::Landmarks), i * 4)
    }

    /// Iterator over the landmark list.
    pub fn landmarks(&self) -> impl Iterator<Item = VertexId> + '_ {
        u32_iter(self.section_bytes(SectionKind::Landmarks))
    }

    /// Number of label entries of vertex `v` (out of the packed CSR).
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_len(&self, v: VertexId) -> usize {
        let offsets = self.section_bytes(SectionKind::LabelOffsets);
        let lo = le_u64(offsets, v as usize * 8);
        let hi = le_u64(offsets, (v as usize + 1) * 8);
        (hi - lo) as usize
    }

    /// Iterator over the `(landmark_idx, distance)` label entries of `v`,
    /// decoded straight from the packed section.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = (usize, Distance)> + '_ {
        let offsets = self.section_bytes(SectionKind::LabelOffsets);
        let lo = le_u64(offsets, v as usize * 8) as usize;
        let hi = le_u64(offsets, (v as usize + 1) * 8) as usize;
        let entries = self.section_bytes(SectionKind::LabelEntries);
        u32_iter(&entries[lo * 4..hi * 4]).map(unpack_label_entry)
    }

    /// Iterator over the neighbours of `v`, decoded straight from the
    /// graph CSR sections.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn graph_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let offsets = self.section_bytes(SectionKind::GraphOffsets);
        let lo = le_u64(offsets, v as usize * 8) as usize;
        let hi = le_u64(offsets, (v as usize + 1) * 8) as usize;
        u32_iter(&self.section_bytes(SectionKind::GraphNeighbors)[lo * 4..hi * 4])
    }

    /// The degree of `v`: the difference of its two graph offsets.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub(crate) fn graph_degree(&self, v: VertexId) -> usize {
        let offsets = self.section_bytes(SectionKind::GraphOffsets);
        let lo = le_u64(offsets, v as usize * 8);
        let hi = le_u64(offsets, (v as usize + 1) * 8);
        (hi - lo) as usize
    }

    /// Number of directed arcs stored in the graph section.
    pub fn num_arcs(&self) -> usize {
        self.section(SectionKind::GraphNeighbors).len as usize / 4
    }

    /// Number of meta-graph edges.
    pub fn num_meta_edges(&self) -> usize {
        self.section(SectionKind::MetaEdges).len as usize / 12
    }

    /// Iterator over the meta edges `(i, j, σ)` in stored order.
    pub fn meta_edges(&self) -> impl Iterator<Item = (usize, usize, Distance)> + '_ {
        let bytes = self.section_bytes(SectionKind::MetaEdges);
        (0..self.num_meta_edges()).map(move |k| {
            (
                le_u32(bytes, k * 12) as usize,
                le_u32(bytes, k * 12 + 4) as usize,
                le_u32(bytes, k * 12 + 8),
            )
        })
    }

    /// Total number of Δ path-graph edges across all meta edges.
    pub fn num_delta_edges(&self) -> usize {
        self.section(SectionKind::DeltaEdges).len as usize / 8
    }

    /// The label distance of `v` towards landmark column `landmark_idx`,
    /// decoded straight from the packed label section (`None` when the pair
    /// has no entry). The per-vertex entry list is short (at most `|R|`),
    /// so a linear scan beats any index structure here.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        self.label_entries(v)
            .find(|&(idx, _)| idx == landmark_idx)
            .map(|(_, d)| d)
    }

    /// `d_M(i, j)` straight from the stored APSP matrix.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is `>= num_landmarks()`.
    #[inline]
    pub fn meta_distance(&self, i: usize, j: usize) -> Distance {
        le_u32(
            self.section_bytes(SectionKind::MetaApsp),
            (i * self.num_landmarks + j) * 4,
        )
    }

    /// The `k`-th meta edge `(i, j, σ)` in stored order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    #[inline]
    pub fn meta_edge(&self, k: usize) -> (usize, usize, Distance) {
        let bytes = self.section_bytes(SectionKind::MetaEdges);
        (
            le_u32(bytes, k * 12) as usize,
            le_u32(bytes, k * 12 + 4) as usize,
            le_u32(bytes, k * 12 + 8),
        )
    }

    /// Iterator over the Δ path-graph edges of meta edge `k`, decoded
    /// straight from the delta CSR sections.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    pub fn delta_edges(&self, k: usize) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let offsets = self.section_bytes(SectionKind::DeltaOffsets);
        let lo = le_u64(offsets, k * 8) as usize;
        let hi = le_u64(offsets, (k + 1) * 8) as usize;
        let edges = self.section_bytes(SectionKind::DeltaEdges);
        (lo..hi).map(move |e| (le_u32(edges, e * 8), le_u32(edges, e * 8 + 4)))
    }

    fn section(&self, kind: SectionKind) -> SectionRecord {
        // The table is stored in `SectionKind::ALL` order by construction.
        self.sections[kind as usize - 1]
    }

    fn verify_checksum(&self) -> Result<()> {
        let s = self.section(SectionKind::Checksum);
        if s.len != 8 {
            return Err(QbsError::Corrupt(format!(
                "checksum section must be 8 bytes, found {}",
                s.len
            )));
        }
        let data = self.buf.as_slice();
        let stored = le_u64(data, s.offset as usize);
        let actual = checksum64(&data[..s.offset as usize]);
        if stored != actual {
            return Err(QbsError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x} \
                 (file is corrupt)"
            )));
        }
        Ok(())
    }

    /// The cheap `O(section-count)` length checks: every section length the
    /// header implies, with checked arithmetic. These run in **both** parse
    /// modes, so even a [`IndexView::parse_trusted`] view has structurally
    /// sane array bounds (a crafted header with an absurd vertex count must
    /// fail here, not wrap around and slip past the section-length
    /// comparison).
    fn validate_lengths(&self) -> Result<()> {
        let n = self.num_vertices;
        let r = self.num_landmarks;
        if r > u16::MAX as usize {
            return Err(QbsError::Corrupt(format!(
                "v2 stores landmark indices in 16 bits; {r} landmarks exceed the limit"
            )));
        }
        let offsets_len = (n as u64)
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| {
                QbsError::Corrupt(format!("header vertex count {n} overflows the format"))
            })?;
        self.expect_len(SectionKind::Landmarks, r as u64 * 4)?;
        self.expect_len(SectionKind::LabelOffsets, offsets_len)?;
        self.expect_len(SectionKind::GraphOffsets, offsets_len)?;
        self.expect_len(SectionKind::MetaApsp, (r as u64 * r as u64) * 4)?;
        for (kind, elem) in [
            (SectionKind::LabelEntries, 4),
            (SectionKind::GraphNeighbors, 4),
            (SectionKind::MetaEdges, 12),
            (SectionKind::DeltaEdges, 8),
        ] {
            let len = self.section(kind).len;
            if !len.is_multiple_of(elem) {
                return Err(QbsError::Corrupt(format!(
                    "section '{}' length {len} is not a multiple of its {elem}-byte element",
                    kind.name()
                )));
            }
        }
        self.expect_len(
            SectionKind::DeltaOffsets,
            (self.num_meta_edges() as u64 + 1) * 8,
        )?;
        if self.section(SectionKind::Checksum).len != 8 {
            return Err(QbsError::Corrupt(format!(
                "checksum section must be 8 bytes, found {}",
                self.section(SectionKind::Checksum).len
            )));
        }
        Ok(())
    }

    /// Validates every `O(file)` structural invariant the typed accessors
    /// and the materialisers rely on, so no later code path can panic on a
    /// file that passed the checksum (e.g. one crafted rather than
    /// corrupted). Deferred by [`IndexView::parse_trusted`].
    fn validate_structure(&self) -> Result<()> {
        let n = self.num_vertices;
        let r = self.num_landmarks;

        for v in u32_iter(self.section_bytes(SectionKind::Landmarks)) {
            if v as usize >= n {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} out of range for {n} vertices"
                )));
            }
        }
        validate_csr(
            self.section_bytes(SectionKind::LabelOffsets),
            self.section(SectionKind::LabelEntries).len / 4,
            "label",
        )?;
        validate_csr(
            self.section_bytes(SectionKind::GraphOffsets),
            self.section(SectionKind::GraphNeighbors).len / 4,
            "graph",
        )?;
        validate_csr(
            self.section_bytes(SectionKind::DeltaOffsets),
            self.section(SectionKind::DeltaEdges).len / 8,
            "delta",
        )?;
        for raw in u32_iter(self.section_bytes(SectionKind::LabelEntries)) {
            let (idx, d) = unpack_label_entry(raw);
            if idx >= r {
                return Err(QbsError::Corrupt(format!(
                    "label entry references landmark column {idx}, only {r} exist"
                )));
            }
            if d as u16 == NO_LABEL {
                return Err(QbsError::Corrupt(
                    "label entry stores the NO_LABEL sentinel distance".into(),
                ));
            }
        }
        // Landmarks must be distinct: duplicates would silently corrupt
        // the vertex → landmark-column map rebuilt on load.
        let mut landmark_seen = vec![false; n];
        for v in u32_iter(self.section_bytes(SectionKind::Landmarks)) {
            if std::mem::replace(&mut landmark_seen[v as usize], true) {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} appears twice in the landmark list"
                )));
            }
        }
        // Adjacency lists must be strictly increasing per vertex — the
        // `Graph` invariant `has_edge`'s binary search relies on.
        {
            let offsets = self.section_bytes(SectionKind::GraphOffsets);
            let neighbors = self.section_bytes(SectionKind::GraphNeighbors);
            for v in 0..n {
                let lo = le_u64(offsets, v * 8) as usize;
                let hi = le_u64(offsets, (v + 1) * 8) as usize;
                let mut prev: Option<u32> = None;
                for w in u32_iter(&neighbors[lo * 4..hi * 4]) {
                    if w as usize >= n {
                        return Err(QbsError::Corrupt(format!(
                            "graph neighbour id {w} out of range for {n} vertices"
                        )));
                    }
                    if prev.is_some_and(|p| p >= w) {
                        return Err(QbsError::Corrupt(format!(
                            "adjacency list of vertex {v} is not strictly sorted"
                        )));
                    }
                    prev = Some(w);
                }
            }
        }
        for (i, j, _) in self.meta_edges() {
            if i >= j || j >= r {
                return Err(QbsError::Corrupt(format!(
                    "meta edge ({i}, {j}) violates i < j < |R| = {r}"
                )));
            }
        }
        for v in u32_iter(self.section_bytes(SectionKind::DeltaEdges)) {
            if v as usize >= n {
                return Err(QbsError::Corrupt(format!(
                    "delta edge endpoint {v} out of range for {n} vertices"
                )));
            }
        }
        Ok(())
    }

    fn expect_len(&self, kind: SectionKind, expected: u64) -> Result<()> {
        let len = self.section(kind).len;
        if len != expected {
            return Err(QbsError::Corrupt(format!(
                "section '{}' must be {expected} bytes for this header, found {len}",
                kind.name()
            )));
        }
        Ok(())
    }

    /// Materialises the runtime index structures from the view.
    ///
    /// Each section becomes at most one bulk array build; nothing is
    /// allocated per vertex or per label. The view was fully validated at
    /// parse time, so the CSR constructors cannot panic here.
    pub(crate) fn materialize(&self) -> (Graph, Vec<VertexId>, PathLabelling, MetaGraph) {
        let n = self.num_vertices;
        let r = self.num_landmarks;

        let landmarks: Vec<VertexId> = u32_vec(self.section_bytes(SectionKind::Landmarks));

        let graph_offsets: Vec<u64> = u64_vec(self.section_bytes(SectionKind::GraphOffsets));
        let graph_neighbors: Vec<VertexId> =
            u32_vec(self.section_bytes(SectionKind::GraphNeighbors));
        let graph = Graph::from_csr_parts(graph_offsets, graph_neighbors);

        let mut labelling = PathLabelling::new(n, r);
        let label_offsets = self.section_bytes(SectionKind::LabelOffsets);
        let entries = self.section_bytes(SectionKind::LabelEntries);
        for v in 0..n {
            let lo = le_u64(label_offsets, v * 8) as usize;
            let hi = le_u64(label_offsets, (v + 1) * 8) as usize;
            for raw in u32_iter(&entries[lo * 4..hi * 4]) {
                let (idx, d) = unpack_label_entry(raw);
                labelling.set(v as VertexId, idx, d as u16);
            }
        }

        let edges: Vec<(usize, usize, Distance)> = self.meta_edges().collect();
        let apsp: Vec<Distance> = u32_vec(self.section_bytes(SectionKind::MetaApsp));
        let delta_offsets = self.section_bytes(SectionKind::DeltaOffsets);
        let delta_edges = self.section_bytes(SectionKind::DeltaEdges);
        let delta: Vec<Vec<(VertexId, VertexId)>> = (0..edges.len())
            .map(|k| {
                let lo = le_u64(delta_offsets, k * 8) as usize;
                let hi = le_u64(delta_offsets, (k + 1) * 8) as usize;
                (lo..hi)
                    .map(|e| (le_u32(delta_edges, e * 8), le_u32(delta_edges, e * 8 + 4)))
                    .collect()
            })
            .collect();
        let meta = MetaGraph::from_parts(landmarks.clone(), edges, apsp, delta);

        (graph, landmarks, labelling, meta)
    }
}

/// Serialises a built index into a `qbs-index-v2` buffer.
///
/// Fails with [`QbsError::InvalidLandmarks`] when the landmark count
/// exceeds the format's 16-bit landmark-index budget (65535).
pub fn write_v2(index: &QbsIndex) -> Result<Vec<u8>> {
    let graph = index.graph();
    let landmarks = index.landmarks();
    let labelling = index.labelling();
    let meta = index.meta_graph();
    let n = graph.num_vertices();
    let r = landmarks.len();
    if r > u16::MAX as usize {
        return Err(QbsError::InvalidLandmarks(format!(
            "qbs-index-v2 stores landmark indices in 16 bits; cannot serialise {r} landmarks"
        )));
    }

    // Payloads, one per section, in file order.
    let mut landmarks_bytes = Vec::with_capacity(r * 4);
    for &v in landmarks {
        landmarks_bytes.extend_from_slice(&v.to_le_bytes());
    }

    let mut label_offsets = Vec::with_capacity((n + 1) * 8);
    let mut label_entries = Vec::new();
    let mut running = 0u64;
    label_offsets.extend_from_slice(&running.to_le_bytes());
    for v in 0..n as VertexId {
        for (idx, d) in labelling.entries(v) {
            label_entries.extend_from_slice(&pack_label_entry(idx, d).to_le_bytes());
            running += 1;
        }
        label_offsets.extend_from_slice(&running.to_le_bytes());
    }

    let mut graph_offsets = Vec::with_capacity((n + 1) * 8);
    for &o in graph.csr_offsets() {
        graph_offsets.extend_from_slice(&o.to_le_bytes());
    }
    let mut graph_neighbors = Vec::with_capacity(graph.num_arcs() * 4);
    for &v in graph.csr_neighbors() {
        graph_neighbors.extend_from_slice(&v.to_le_bytes());
    }

    let mut meta_edges = Vec::with_capacity(meta.edges().len() * 12);
    for &(i, j, sigma) in meta.edges() {
        meta_edges.extend_from_slice(&(i as u32).to_le_bytes());
        meta_edges.extend_from_slice(&(j as u32).to_le_bytes());
        meta_edges.extend_from_slice(&sigma.to_le_bytes());
    }

    let mut meta_apsp = Vec::with_capacity(r * r * 4);
    for &d in meta.apsp() {
        meta_apsp.extend_from_slice(&d.to_le_bytes());
    }

    let mut delta_offsets = Vec::with_capacity((meta.edges().len() + 1) * 8);
    let mut delta_edges = Vec::new();
    let mut running = 0u64;
    delta_offsets.extend_from_slice(&running.to_le_bytes());
    for k in 0..meta.edges().len() {
        for &(a, b) in meta.delta_edges(k) {
            delta_edges.extend_from_slice(&a.to_le_bytes());
            delta_edges.extend_from_slice(&b.to_le_bytes());
            running += 1;
        }
        delta_offsets.extend_from_slice(&running.to_le_bytes());
    }

    let payloads: [&[u8]; SECTION_COUNT - 1] = [
        &landmarks_bytes,
        &label_offsets,
        &label_entries,
        &graph_offsets,
        &graph_neighbors,
        &meta_edges,
        &meta_apsp,
        &delta_offsets,
        &delta_edges,
    ];

    // Lay out the section table.
    let mut records: Vec<(SectionKind, u64, u64)> = Vec::with_capacity(SECTION_COUNT);
    let mut cursor = (HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN) as u64;
    for (kind, payload) in SectionKind::ALL.iter().zip(payloads.iter()) {
        cursor = align_up(cursor, SECTION_ALIGN as u64);
        records.push((*kind, cursor, payload.len() as u64));
        cursor += payload.len() as u64;
    }
    cursor = align_up(cursor, SECTION_ALIGN as u64);
    let checksum_offset = cursor;
    records.push((SectionKind::Checksum, checksum_offset, 8));
    let file_size = checksum_offset + 8;

    // Emit header + table + payloads.
    let mut out = Vec::with_capacity(file_size as usize);
    out.extend_from_slice(&MAGIC_V2);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(r as u64).to_le_bytes());
    out.extend_from_slice(&file_size.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for &(kind, offset, len) in &records {
        out.extend_from_slice(&(kind as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    for (&(_, offset, _), payload) in records.iter().zip(payloads.iter()) {
        out.resize(offset as usize, 0);
        out.extend_from_slice(payload);
    }
    out.resize(checksum_offset as usize, 0);
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.len() as u64, file_size);
    Ok(out)
}

/// Everything `qbs inspect` reports about a v2 file, computed without
/// requiring the checksum to match — a corrupt-but-geometrically-sane file
/// is *inspectable* (that is the whole point of the tool), it just reports
/// `checksum_ok() == false`.
#[derive(Clone, Debug)]
pub struct FileInspection {
    /// `|V|` from the header.
    pub num_vertices: usize,
    /// `|R|` from the header.
    pub num_landmarks: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// The parsed section table, in file order.
    pub sections: Vec<SectionRecord>,
    /// Checksum stored in the file.
    pub stored_checksum: u64,
    /// Checksum recomputed over the file contents.
    pub computed_checksum: u64,
    /// Directed arc count implied by the graph-neighbors section.
    pub num_arcs: usize,
    /// Meta-edge count implied by the meta-edges section.
    pub num_meta_edges: usize,
    /// Δ edge count implied by the delta-edges section.
    pub num_delta_edges: usize,
}

impl FileInspection {
    /// Whether the stored checksum matches the recomputed one.
    pub fn checksum_ok(&self) -> bool {
        self.stored_checksum == self.computed_checksum
    }

    /// A section's payload share of the whole file, in percent.
    pub fn section_percent(&self, record: &SectionRecord) -> f64 {
        if self.file_len == 0 {
            return 0.0;
        }
        record.len as f64 * 100.0 / self.file_len as f64
    }
}

/// Inspects a v2 buffer: geometry must parse (otherwise the `Corrupt` error
/// is returned), but checksum and structural validity are *reported*, not
/// enforced, so `qbs inspect` can diagnose a bit-rotted file. Takes the
/// buffer by value so inspecting a multi-GB index never holds two copies
/// of it — pass `ViewBuf::Heap(std::fs::read(path)?)` or a mapped buffer.
pub fn inspect_v2(buf: ViewBuf) -> Result<FileInspection> {
    let view = IndexView::parse_trusted(buf)?;
    let checksum_offset = view.section(SectionKind::Checksum).offset as usize;
    let computed_checksum = checksum64(&view.buf().as_slice()[..checksum_offset]);
    Ok(FileInspection {
        num_vertices: view.num_vertices(),
        num_landmarks: view.num_landmarks(),
        file_len: view.file_len(),
        sections: view.sections().to_vec(),
        stored_checksum: view.checksum(),
        computed_checksum,
        num_arcs: view.num_arcs(),
        num_meta_edges: view.num_meta_edges(),
        num_delta_edges: view.num_delta_edges(),
    })
}

/// Validates the magic and version of a candidate v2 buffer, with a clear
/// migration message when the buffer is actually a v1 JSON index.
fn check_magic_and_version(data: &[u8]) -> Result<()> {
    if data.starts_with(crate::serialize::MAGIC_V1.as_bytes()) {
        return Err(QbsError::Corrupt(
            "this is a qbs-index-v1 JSON index, not a v2 binary one; load it through \
             serialize::load_from_file (which reads both) and re-save it with the v2 \
             writer to migrate"
                .into(),
        ));
    }
    if data.len() < HEADER_LEN {
        return Err(QbsError::Corrupt(format!(
            "buffer of {} bytes is shorter than the {HEADER_LEN}-byte v2 header",
            data.len()
        )));
    }
    if data[..8] == MAGIC_V3 {
        return Err(QbsError::Corrupt(
            "this is a qbs-index-v3 compact index, not a v2 wide one; read it with \
             CompactView / from_bytes_v3, or serialize::load_from_file (which reads \
             every version)"
                .into(),
        ));
    }
    if data[..8] != MAGIC_V2 {
        return Err(QbsError::Corrupt(format!(
            "missing qbs-index-v2 magic; file starts with {}",
            crate::serialize::excerpt(data)
        )));
    }
    let version = le_u32(data, 8);
    if version != FORMAT_VERSION {
        return Err(QbsError::Corrupt(format!(
            "unsupported qbs-index format version {version}; this build reads v1 (JSON) \
             and v{FORMAT_VERSION} (binary)"
        )));
    }
    Ok(())
}

/// Validates the magic and version of a candidate v3 buffer, with clear
/// cross-version hints for v1 and v2 data.
fn check_magic_and_version_v3(data: &[u8]) -> Result<()> {
    if data.starts_with(crate::serialize::MAGIC_V1.as_bytes()) {
        return Err(QbsError::Corrupt(
            "this is a qbs-index-v1 JSON index, not a v3 compact one; load it through \
             serialize::load_from_file (which reads every version) and re-save it with \
             the compact profile to migrate"
                .into(),
        ));
    }
    if data.len() < HEADER_LEN {
        return Err(QbsError::Corrupt(format!(
            "buffer of {} bytes is shorter than the {HEADER_LEN}-byte v3 header",
            data.len()
        )));
    }
    if data[..8] == MAGIC_V2 {
        return Err(QbsError::Corrupt(
            "this is a qbs-index-v2 wide index, not a v3 compact one; read it with \
             IndexView / from_bytes_v2, or convert it to the compact profile with \
             `qbs convert`"
                .into(),
        ));
    }
    if data[..8] != MAGIC_V3 {
        return Err(QbsError::Corrupt(format!(
            "missing qbs-index-v3 magic; file starts with {}",
            crate::serialize::excerpt(data)
        )));
    }
    let version = le_u32(data, 8);
    if version != FORMAT_VERSION_V3 {
        return Err(QbsError::Corrupt(format!(
            "unsupported qbs-index format version {version}; this build reads v1 (JSON), \
             v{FORMAT_VERSION} (wide binary) and v{FORMAT_VERSION_V3} (compact binary)"
        )));
    }
    Ok(())
}

/// Packs a label entry: low 16 bits landmark index, high 16 bits distance.
#[inline]
fn pack_label_entry(landmark_idx: usize, distance: Distance) -> u32 {
    debug_assert!(landmark_idx <= u16::MAX as usize);
    debug_assert!(distance < NO_LABEL as Distance);
    (landmark_idx as u32) | (distance << 16)
}

/// Inverse of [`pack_label_entry`].
#[inline]
fn unpack_label_entry(raw: u32) -> (usize, Distance) {
    ((raw & 0xFFFF) as usize, raw >> 16)
}

/// The v2 checksum: FNV-1a 64 applied to 8-byte little-endian words.
///
/// The classic byte-at-a-time FNV-1a is a serial multiply chain, which
/// costs ~2 ns/byte and would dominate load time on multi-hundred-MB
/// indexes. Hashing word-wise keeps the same structure (`h = (h ^ w) ·
/// prime`) at one multiply per 8 bytes. The tail is zero-padded to a full
/// word; buffer-length ambiguity is impossible because the header's
/// `file_size` field participates in the hash.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        hash = (hash ^ u64::from_le_bytes(padded)).wrapping_mul(PRIME);
    }
    hash
}

fn align_up(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}

/// Checks a CSR offset array: monotone, starting at 0, ending at the
/// element count of the payload it indexes.
fn validate_csr(offsets: &[u8], num_elements: u64, what: &str) -> Result<()> {
    if offsets.len() < 8 {
        return Err(QbsError::Corrupt(format!("{what} offset array is empty")));
    }
    let mut prev = le_u64(offsets, 0);
    if prev != 0 {
        return Err(QbsError::Corrupt(format!(
            "{what} offsets must start at 0, found {prev}"
        )));
    }
    for i in 1..offsets.len() / 8 {
        let next = le_u64(offsets, i * 8);
        if next < prev {
            return Err(QbsError::Corrupt(format!(
                "{what} offsets decrease at position {i}"
            )));
        }
        prev = next;
    }
    if prev != num_elements {
        return Err(QbsError::Corrupt(format!(
            "{what} offsets end at {prev}, but the payload holds {num_elements} elements"
        )));
    }
    Ok(())
}

#[inline]
fn le_u32(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
}

#[inline]
fn le_u64(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"))
}

fn u32_iter(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
}

fn u32_vec(bytes: &[u8]) -> Vec<u32> {
    u32_iter(bytes).collect()
}

fn u64_vec(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

// ---------------------------------------------------------------------------
// qbs-index-v3: the compact width-profiled layout
// ---------------------------------------------------------------------------
//
// v3 keeps the v2 skeleton — the same 48-byte header size, the same ten
// sections in the same order, the same 8-byte alignment, checksum and
// trailing-byte rules — but narrows every array to what the data actually
// needs:
//
// * the header declares a **width profile**: `id_width` (vertex-id bytes,
//   always 4 in this build), `dist_width` (1/2/4 bytes per stored distance,
//   chosen from the real maximum finite distance at encode time) and
//   `offset_width` (4/8 bytes per CSR byte-offset — 8 is the wide fallback
//   for variable sections past 4 GiB);
// * label and adjacency rows are **front-coded LEB128 runs**: both are
//   strictly ascending, so each element after the first is stored as a
//   varint delta from its predecessor. LEB128 was chosen over fixed
//   bit-packing because every hot accessor decodes rows *sequentially*
//   (never random-access within a row), where a byte-aligned varint is one
//   load + one branch per element and needs no per-row bit-width side table;
// * Δ rows store each endpoint as a plain LEB128 varint (their pair order
//   is answer-relevant and preserved verbatim, so no re-sorting for
//   front-coding);
// * the APSP matrix and meta-edge weights shrink to `dist_width` bytes,
//   with the width's all-ones value reserved as the `INFINITE_DISTANCE`
//   sentinel (which is why the maximum finite distance must sit strictly
//   below it);
// * CSR offsets are **byte** offsets into the (now variable-width) payload
//   sections, `offset_width` bytes each.
//
// The header additionally records the true maximum label distance, giving
// readers a cheap integrity tripwire the wide format never had: any decoded
// label distance above it is reported as `QbsError::Corrupt`.

/// A validated, zero-copy view over a compact `qbs-index-v3` buffer.
///
/// The v3 sibling of [`IndexView`], with the same [`CompactView::parse`] /
/// [`CompactView::parse_trusted`] / [`CompactView::verify`] split and the
/// same accessor contract (out-of-range vertex or landmark indices are
/// caller bugs and panic). Rows of the variable sections are front-coded
/// LEB128 runs, so accessors decode on the fly and return iterators.
#[derive(Debug)]
pub struct CompactView {
    buf: ViewBuf,
    sections: Vec<SectionRecord>,
    num_vertices: usize,
    num_landmarks: usize,
    dist_width: u8,
    offset_width: u8,
    max_label_distance: Distance,
    verified: std::sync::atomic::AtomicBool,
}

impl Clone for CompactView {
    fn clone(&self) -> Self {
        CompactView {
            buf: self.buf.clone(),
            sections: self.sections.clone(),
            num_vertices: self.num_vertices,
            num_landmarks: self.num_landmarks,
            dist_width: self.dist_width,
            offset_width: self.offset_width,
            max_label_distance: self.max_label_distance,
            verified: std::sync::atomic::AtomicBool::new(self.is_verified()),
        }
    }
}

impl CompactView {
    /// Parses and fully validates a v3 buffer.
    pub fn parse(buf: ViewBuf) -> Result<CompactView> {
        let view = Self::parse_geometry(buf)?;
        view.verify()?;
        Ok(view)
    }

    /// Parses a v3 buffer validating only its **geometry**, deferring the
    /// `O(file)` checksum and structural scans exactly like
    /// [`IndexView::parse_trusted`]. Same trust model: meant for files your
    /// own pipeline wrote; a file that would have failed full validation
    /// surfaces as a deferred [`CompactView::verify`] error, a panic
    /// (bounds-checked slice index), or a wrong answer — never memory
    /// unsafety.
    pub fn parse_trusted(buf: ViewBuf) -> Result<CompactView> {
        Self::parse_geometry(buf)
    }

    /// Whether full integrity validation has passed on this view.
    pub fn is_verified(&self) -> bool {
        self.verified.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs the deferred integrity validation (checksum + structural
    /// scans + the max-label-distance tripwire). Idempotent.
    pub fn verify(&self) -> Result<()> {
        self.verify_checksum()?;
        self.validate_structure()?;
        self.verified
            .store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn parse_geometry(buf: ViewBuf) -> Result<CompactView> {
        let data = buf.as_slice();
        check_magic_and_version_v3(data)?;

        let section_count = le_u32(data, 12) as usize;
        if section_count != SECTION_COUNT {
            return Err(QbsError::Corrupt(format!(
                "qbs-index-v3 expects {SECTION_COUNT} sections, header declares {section_count}"
            )));
        }
        let num_vertices = le_u64(data, 16) as usize;
        let num_landmarks = le_u64(data, 24) as usize;
        let file_size = le_u64(data, 32);
        if file_size != data.len() as u64 {
            return Err(QbsError::Corrupt(format!(
                "file size mismatch: header declares {file_size} bytes, buffer has {} \
                 (truncated or padded file)",
                data.len()
            )));
        }
        let id_width = data[40];
        let dist_width = data[41];
        let offset_width = data[42];
        if id_width != 4 {
            return Err(QbsError::Corrupt(format!(
                "qbs-index-v3 id_width {id_width} is unsupported; this build reads \
                 4-byte vertex ids"
            )));
        }
        if !matches!(dist_width, 1 | 2 | 4) {
            return Err(QbsError::Corrupt(format!(
                "qbs-index-v3 dist_width must be 1, 2 or 4 bytes, header declares \
                 {dist_width}"
            )));
        }
        if !matches!(offset_width, 4 | 8) {
            return Err(QbsError::Corrupt(format!(
                "qbs-index-v3 offset_width must be 4 or 8 bytes, header declares \
                 {offset_width}"
            )));
        }
        let max_label_distance = le_u32(data, 44);
        if max_label_distance >= width_sentinel(dist_width as usize) {
            return Err(QbsError::Corrupt(format!(
                "header max label distance {max_label_distance} does not fit the \
                 declared {dist_width}-byte distance width"
            )));
        }

        let sections = parse_section_table(data)?;
        let view = CompactView {
            buf,
            sections,
            num_vertices,
            num_landmarks,
            dist_width,
            offset_width,
            max_label_distance,
            verified: std::sync::atomic::AtomicBool::new(false),
        };
        view.validate_lengths()?;
        Ok(view)
    }

    /// Number of vertices of the serialised graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.num_landmarks
    }

    /// Bytes per stored distance (1, 2 or 4).
    #[inline]
    pub fn dist_width(&self) -> u8 {
        self.dist_width
    }

    /// Bytes per CSR byte-offset (4, or 8 for the wide fallback).
    #[inline]
    pub fn offset_width(&self) -> u8 {
        self.offset_width
    }

    /// The true maximum label distance recorded at encode time.
    #[inline]
    pub fn max_label_distance(&self) -> Distance {
        self.max_label_distance
    }

    /// Total buffer length in bytes.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.buf.len()
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionRecord] {
        &self.sections
    }

    /// The buffer backend behind this view (heap copy or file mapping).
    pub fn buf(&self) -> &ViewBuf {
        &self.buf
    }

    /// The stored checksum ([`checksum64`] of every byte before its section).
    pub fn checksum(&self) -> u64 {
        let s = self.section(SectionKind::Checksum);
        le_u64(self.buf.as_slice(), s.offset as usize)
    }

    /// Raw payload bytes of one section.
    pub fn section_bytes(&self, kind: SectionKind) -> &[u8] {
        let s = self.section(kind);
        &self.buf.as_slice()[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// The `i`-th landmark vertex id (column order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_landmarks()`.
    #[inline]
    pub fn landmark(&self, i: usize) -> VertexId {
        le_u32(self.section_bytes(SectionKind::Landmarks), i * 4)
    }

    /// Iterator over the landmark list.
    pub fn landmarks(&self) -> impl Iterator<Item = VertexId> + '_ {
        u32_iter(self.section_bytes(SectionKind::Landmarks))
    }

    /// The byte range of row `i` inside the payload section indexed by
    /// `offsets_kind`.
    fn row_range(&self, offsets_kind: SectionKind, i: usize) -> (usize, usize) {
        let offsets = self.section_bytes(offsets_kind);
        let ow = self.offset_width as usize;
        let lo = read_offset(offsets, i * ow, ow) as usize;
        let hi = read_offset(offsets, (i + 1) * ow, ow) as usize;
        (lo, hi)
    }

    /// Number of label entries of vertex `v` (decoded from the row run).
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_len(&self, v: VertexId) -> usize {
        self.label_entries(v).count()
    }

    /// Iterator over the `(landmark_idx, distance)` label entries of `v`,
    /// decoded on the fly from the front-coded run.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_entries(&self, v: VertexId) -> impl Iterator<Item = (usize, Distance)> + '_ {
        let (lo, hi) = self.row_range(SectionKind::LabelOffsets, v as usize);
        let row = &self.section_bytes(SectionKind::LabelEntries)[lo..hi];
        let dw = self.dist_width as usize;
        let mut pos = 0usize;
        let mut col = 0usize;
        let mut first = true;
        std::iter::from_fn(move || {
            if pos >= row.len() {
                return None;
            }
            let delta = read_varint(row, &mut pos) as usize;
            col = if first { delta } else { col + delta };
            first = false;
            let d = read_dist(row, &mut pos, dw);
            Some((col, d))
        })
    }

    /// Iterator over the neighbours of `v`, decoded on the fly from the
    /// front-coded adjacency run.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn graph_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let (lo, hi) = self.row_range(SectionKind::GraphOffsets, v as usize);
        let row = &self.section_bytes(SectionKind::GraphNeighbors)[lo..hi];
        let mut pos = 0usize;
        let mut prev = 0u32;
        let mut first = true;
        std::iter::from_fn(move || {
            if pos >= row.len() {
                return None;
            }
            let delta = read_varint(row, &mut pos);
            prev = if first { delta } else { prev + delta };
            first = false;
            Some(prev)
        })
    }

    /// The degree of `v` without decoding its row: every LEB128 varint
    /// ends in exactly one byte with the high bit clear.
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub(crate) fn graph_degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.row_range(SectionKind::GraphOffsets, v as usize);
        self.section_bytes(SectionKind::GraphNeighbors)[lo..hi]
            .iter()
            .filter(|&&b| b & 0x80 == 0)
            .count()
    }

    /// Number of meta-graph edges.
    pub fn num_meta_edges(&self) -> usize {
        self.section(SectionKind::MetaEdges).len as usize / (4 + self.dist_width as usize)
    }

    /// Iterator over the meta edges `(i, j, σ)` in stored order.
    pub fn meta_edges(&self) -> impl Iterator<Item = (usize, usize, Distance)> + '_ {
        (0..self.num_meta_edges()).map(move |k| self.meta_edge(k))
    }

    /// The `k`-th meta edge `(i, j, σ)` in stored order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    #[inline]
    pub fn meta_edge(&self, k: usize) -> (usize, usize, Distance) {
        let bytes = self.section_bytes(SectionKind::MetaEdges);
        let dw = self.dist_width as usize;
        let base = k * (4 + dw);
        let mut pos = base + 4;
        (
            le_u16(bytes, base) as usize,
            le_u16(bytes, base + 2) as usize,
            read_dist(bytes, &mut pos, dw),
        )
    }

    /// The label distance of `v` towards landmark column `landmark_idx`
    /// (`None` when the pair has no entry).
    ///
    /// # Panics
    ///
    /// Panics if `v as usize >= num_vertices()`.
    pub fn label_distance(&self, v: VertexId, landmark_idx: usize) -> Option<Distance> {
        self.label_entries(v)
            .find(|&(idx, _)| idx == landmark_idx)
            .map(|(_, d)| d)
    }

    /// `d_M(i, j)` from the narrow APSP matrix, mapping the width's
    /// all-ones sentinel back to [`INFINITE_DISTANCE`].
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is `>= num_landmarks()`.
    #[inline]
    pub fn meta_distance(&self, i: usize, j: usize) -> Distance {
        let dw = self.dist_width as usize;
        let mut pos = (i * self.num_landmarks + j) * dw;
        let raw = read_dist(self.section_bytes(SectionKind::MetaApsp), &mut pos, dw);
        if raw == width_sentinel(dw) {
            INFINITE_DISTANCE
        } else {
            raw
        }
    }

    /// Iterator over the Δ path-graph edges of meta edge `k`, decoded from
    /// the varint run in stored order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_meta_edges()`.
    pub fn delta_edges(&self, k: usize) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let (lo, hi) = self.row_range(SectionKind::DeltaOffsets, k);
        let row = &self.section_bytes(SectionKind::DeltaEdges)[lo..hi];
        let mut pos = 0usize;
        std::iter::from_fn(move || {
            if pos >= row.len() {
                return None;
            }
            let a = read_varint(row, &mut pos);
            let b = read_varint(row, &mut pos);
            Some((a, b))
        })
    }

    fn section(&self, kind: SectionKind) -> SectionRecord {
        self.sections[kind as usize - 1]
    }

    fn verify_checksum(&self) -> Result<()> {
        let s = self.section(SectionKind::Checksum);
        let data = self.buf.as_slice();
        let stored = le_u64(data, s.offset as usize);
        let actual = checksum64(&data[..s.offset as usize]);
        if stored != actual {
            return Err(QbsError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x} \
                 (file is corrupt)"
            )));
        }
        Ok(())
    }

    /// The cheap length checks that run in both parse modes: every
    /// fixed-size section length the header implies, with checked
    /// arithmetic. The variable sections (label entries, neighbours, Δ
    /// edges) have no header-implied length — their terminal offsets are
    /// checked by the deferred structural scan.
    fn validate_lengths(&self) -> Result<()> {
        let n = self.num_vertices;
        let r = self.num_landmarks;
        if r > u16::MAX as usize {
            return Err(QbsError::Corrupt(format!(
                "v3 stores landmark indices in 16 bits; {r} landmarks exceed the limit"
            )));
        }
        let ow = self.offset_width as u64;
        let dw = self.dist_width as u64;
        let offsets_len = (n as u64)
            .checked_add(1)
            .and_then(|c| c.checked_mul(ow))
            .ok_or_else(|| {
                QbsError::Corrupt(format!("header vertex count {n} overflows the format"))
            })?;
        self.expect_len(SectionKind::Landmarks, r as u64 * 4)?;
        self.expect_len(SectionKind::LabelOffsets, offsets_len)?;
        self.expect_len(SectionKind::GraphOffsets, offsets_len)?;
        self.expect_len(SectionKind::MetaApsp, (r as u64 * r as u64) * dw)?;
        let meta_len = self.section(SectionKind::MetaEdges).len;
        if !meta_len.is_multiple_of(4 + dw) {
            return Err(QbsError::Corrupt(format!(
                "section 'meta-edges' length {meta_len} is not a multiple of its {}-byte \
                 element",
                4 + dw
            )));
        }
        self.expect_len(
            SectionKind::DeltaOffsets,
            (self.num_meta_edges() as u64 + 1) * ow,
        )?;
        if self.section(SectionKind::Checksum).len != 8 {
            return Err(QbsError::Corrupt(format!(
                "checksum section must be 8 bytes, found {}",
                self.section(SectionKind::Checksum).len
            )));
        }
        Ok(())
    }

    /// The deferred `O(file)` structural scan: byte-CSR terminal offsets,
    /// landmark sanity, strictly-ascending runs, range checks, and the
    /// max-label-distance tripwire. Every decode here is *checked* — a
    /// malformed varint run yields `Corrupt`, never a panic.
    fn validate_structure(&self) -> Result<()> {
        let n = self.num_vertices;
        let r = self.num_landmarks;
        let dw = self.dist_width as usize;

        let mut landmark_seen = vec![false; n];
        for v in u32_iter(self.section_bytes(SectionKind::Landmarks)) {
            if v as usize >= n {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} out of range for {n} vertices"
                )));
            }
            if std::mem::replace(&mut landmark_seen[v as usize], true) {
                return Err(QbsError::Corrupt(format!(
                    "landmark id {v} appears twice in the landmark list"
                )));
            }
        }

        self.validate_byte_csr(
            SectionKind::LabelOffsets,
            SectionKind::LabelEntries,
            "label",
        )?;
        self.validate_byte_csr(
            SectionKind::GraphOffsets,
            SectionKind::GraphNeighbors,
            "graph",
        )?;
        self.validate_byte_csr(SectionKind::DeltaOffsets, SectionKind::DeltaEdges, "delta")?;

        // Label rows: strictly ascending columns < |R|, distances within
        // the header's recorded maximum (the compact profile's integrity
        // tripwire), rows consumed exactly.
        let entries = self.section_bytes(SectionKind::LabelEntries);
        for v in 0..n {
            let (lo, hi) = self.row_range(SectionKind::LabelOffsets, v);
            let row = &entries[lo..hi];
            let mut pos = 0usize;
            let mut col = 0usize;
            let mut first = true;
            while pos < row.len() {
                let delta = checked_varint(row, &mut pos)
                    .ok_or_else(|| malformed_row("label", v))? as usize;
                if !first && delta == 0 {
                    return Err(QbsError::Corrupt(format!(
                        "label columns of vertex {v} are not strictly ascending"
                    )));
                }
                col = if first { delta } else { col + delta };
                first = false;
                if col >= r {
                    return Err(QbsError::Corrupt(format!(
                        "label entry references landmark column {col}, only {r} exist"
                    )));
                }
                if pos + dw > row.len() {
                    return Err(malformed_row("label", v));
                }
                let d = read_dist(row, &mut pos, dw);
                if d > self.max_label_distance {
                    return Err(QbsError::Corrupt(format!(
                        "label distance {d} of vertex {v} exceeds the header's recorded \
                         maximum {}",
                        self.max_label_distance
                    )));
                }
            }
        }

        // Adjacency rows: strictly ascending ids < |V|.
        let neighbors = self.section_bytes(SectionKind::GraphNeighbors);
        for v in 0..n {
            let (lo, hi) = self.row_range(SectionKind::GraphOffsets, v);
            let row = &neighbors[lo..hi];
            let mut pos = 0usize;
            let mut w = 0u32;
            let mut first = true;
            while pos < row.len() {
                let delta =
                    checked_varint(row, &mut pos).ok_or_else(|| malformed_row("adjacency", v))?;
                if !first && delta == 0 {
                    return Err(QbsError::Corrupt(format!(
                        "adjacency list of vertex {v} is not strictly sorted"
                    )));
                }
                w = if first {
                    delta
                } else {
                    w.checked_add(delta).ok_or_else(|| {
                        QbsError::Corrupt(format!(
                            "adjacency delta of vertex {v} overflows the id space"
                        ))
                    })?
                };
                first = false;
                if w as usize >= n {
                    return Err(QbsError::Corrupt(format!(
                        "graph neighbour id {w} out of range for {n} vertices"
                    )));
                }
            }
        }

        // Meta edges: i < j < |R|, weights strictly below the infinite
        // sentinel (which only the APSP matrix may use).
        let sentinel = width_sentinel(dw);
        for (i, j, sigma) in self.meta_edges() {
            if i >= j || j >= r {
                return Err(QbsError::Corrupt(format!(
                    "meta edge ({i}, {j}) violates i < j < |R| = {r}"
                )));
            }
            if sigma >= sentinel {
                return Err(QbsError::Corrupt(format!(
                    "meta edge weight {sigma} collides with the {dw}-byte infinite sentinel"
                )));
            }
        }

        // Δ rows: endpoint pairs in range, rows consumed exactly.
        let delta_bytes = self.section_bytes(SectionKind::DeltaEdges);
        for k in 0..self.num_meta_edges() {
            let (lo, hi) = self.row_range(SectionKind::DeltaOffsets, k);
            let row = &delta_bytes[lo..hi];
            let mut pos = 0usize;
            while pos < row.len() {
                for _ in 0..2 {
                    let v =
                        checked_varint(row, &mut pos).ok_or_else(|| malformed_row("delta", k))?;
                    if v as usize >= n {
                        return Err(QbsError::Corrupt(format!(
                            "delta edge endpoint {v} out of range for {n} vertices"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks a byte-offset CSR array: starts at 0, monotone, ends exactly
    /// at the payload section's byte length. Runs before the row decodes,
    /// so row slicing in the structural scan cannot go out of bounds.
    fn validate_byte_csr(
        &self,
        offsets_kind: SectionKind,
        payload_kind: SectionKind,
        what: &str,
    ) -> Result<()> {
        let offsets = self.section_bytes(offsets_kind);
        let ow = self.offset_width as usize;
        let total = self.section(payload_kind).len;
        let mut prev = read_offset(offsets, 0, ow);
        if prev != 0 {
            return Err(QbsError::Corrupt(format!(
                "{what} offsets must start at 0, found {prev}"
            )));
        }
        for i in 1..offsets.len() / ow {
            let next = read_offset(offsets, i * ow, ow);
            if next < prev {
                return Err(QbsError::Corrupt(format!(
                    "{what} offsets decrease at position {i}"
                )));
            }
            prev = next;
        }
        if prev != total {
            return Err(QbsError::Corrupt(format!(
                "{what} offsets end at {prev}, but the payload holds {total} bytes"
            )));
        }
        Ok(())
    }

    fn expect_len(&self, kind: SectionKind, expected: u64) -> Result<()> {
        let len = self.section(kind).len;
        if len != expected {
            return Err(QbsError::Corrupt(format!(
                "section '{}' must be {expected} bytes for this header, found {len}",
                kind.name()
            )));
        }
        Ok(())
    }

    /// Decoded element counts of the three variable sections, or `None`
    /// when a row is malformed. Used by inspection, which must not panic on
    /// corrupt-but-geometrically-sane files.
    pub(crate) fn counts_checked(&self) -> Option<CompactCounts> {
        let dw = self.dist_width as usize;
        let mut label_entries = 0usize;
        for v in 0..self.num_vertices {
            let row = self.checked_row(SectionKind::LabelOffsets, SectionKind::LabelEntries, v)?;
            let mut pos = 0usize;
            while pos < row.len() {
                checked_varint(row, &mut pos)?;
                pos = pos.checked_add(dw)?;
                if pos > row.len() {
                    return None;
                }
                label_entries += 1;
            }
        }
        let mut num_arcs = 0usize;
        for v in 0..self.num_vertices {
            let row =
                self.checked_row(SectionKind::GraphOffsets, SectionKind::GraphNeighbors, v)?;
            let mut pos = 0usize;
            while pos < row.len() {
                checked_varint(row, &mut pos)?;
                num_arcs += 1;
            }
        }
        let mut num_delta_edges = 0usize;
        for k in 0..self.num_meta_edges() {
            let row = self.checked_row(SectionKind::DeltaOffsets, SectionKind::DeltaEdges, k)?;
            let mut pos = 0usize;
            while pos < row.len() {
                checked_varint(row, &mut pos)?;
                checked_varint(row, &mut pos)?;
                num_delta_edges += 1;
            }
        }
        Some(CompactCounts {
            label_entries,
            num_arcs,
            num_delta_edges,
        })
    }

    /// Like [`CompactView::row_range`] + slicing, but returns `None` on
    /// out-of-range offsets instead of panicking.
    fn checked_row(
        &self,
        offsets_kind: SectionKind,
        payload_kind: SectionKind,
        i: usize,
    ) -> Option<&[u8]> {
        let offsets = self.section_bytes(offsets_kind);
        let ow = self.offset_width as usize;
        let lo = read_offset(offsets, i * ow, ow) as usize;
        let hi = read_offset(offsets, (i + 1) * ow, ow) as usize;
        self.section_bytes(payload_kind).get(lo..hi)
    }

    /// Materialises the runtime index structures from the view, decoding
    /// every run once. The view was fully validated at parse time, so the
    /// CSR constructors cannot panic here.
    pub(crate) fn materialize(&self) -> (Graph, Vec<VertexId>, PathLabelling, MetaGraph) {
        let n = self.num_vertices;
        let r = self.num_landmarks;

        let landmarks: Vec<VertexId> = u32_vec(self.section_bytes(SectionKind::Landmarks));

        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u64);
        for v in 0..n as VertexId {
            neighbors.extend(self.graph_neighbors(v));
            offsets.push(neighbors.len() as u64);
        }
        let graph = Graph::from_csr_parts(offsets, neighbors);

        let mut labelling = PathLabelling::new(n, r);
        for v in 0..n as VertexId {
            for (idx, d) in self.label_entries(v) {
                labelling.set(v, idx, d as u16);
            }
        }

        let edges: Vec<(usize, usize, Distance)> = self.meta_edges().collect();
        let apsp: Vec<Distance> = (0..r)
            .flat_map(|i| (0..r).map(move |j| (i, j)))
            .map(|(i, j)| self.meta_distance(i, j))
            .collect();
        let delta: Vec<Vec<(VertexId, VertexId)>> = (0..edges.len())
            .map(|k| self.delta_edges(k).collect())
            .collect();
        let meta = MetaGraph::from_parts(landmarks.clone(), edges, apsp, delta);

        (graph, landmarks, labelling, meta)
    }
}

/// Serialises a built index into a compact `qbs-index-v3` buffer.
///
/// The width profile is derived from the data: `dist_width` is the
/// smallest of 1/2/4 bytes holding every finite stored distance (labels,
/// meta-edge weights, finite APSP entries) strictly below the width's
/// all-ones sentinel, and `offset_width` is 4 unless a variable section
/// outgrows `u32` byte offsets (the wide fallback, reachable only past
/// 4 GiB per section). Fails with [`QbsError::InvalidLandmarks`] when the
/// landmark count exceeds the 16-bit landmark-index budget.
pub fn write_v3(index: &QbsIndex) -> Result<Vec<u8>> {
    let graph = index.graph();
    let landmarks = index.landmarks();
    let labelling = index.labelling();
    let meta = index.meta_graph();
    let n = graph.num_vertices();
    let r = landmarks.len();
    if r > u16::MAX as usize {
        return Err(QbsError::InvalidLandmarks(format!(
            "qbs-index-v3 stores landmark indices in 16 bits; cannot serialise {r} landmarks"
        )));
    }

    // Width profile: scan every distance the file will store. The maximum
    // must sit strictly below the width's all-ones value, which the APSP
    // matrix reserves as its infinite sentinel.
    let mut max_label_distance: Distance = 0;
    for v in 0..n as VertexId {
        for (_, d) in labelling.entries(v) {
            max_label_distance = max_label_distance.max(d);
        }
    }
    let mut max_distance = max_label_distance;
    for &(_, _, sigma) in meta.edges() {
        max_distance = max_distance.max(sigma);
    }
    for &d in meta.apsp() {
        if d != INFINITE_DISTANCE {
            max_distance = max_distance.max(d);
        }
    }
    let dist_width: u8 = if max_distance < 0xFF {
        1
    } else if max_distance < 0xFFFF {
        2
    } else {
        4
    };
    let dw = dist_width as usize;

    // Payloads, one per section, in file order. The three variable
    // sections are encoded first so the byte-offset arrays (and their
    // width) can be derived from the encoded lengths.
    let mut landmarks_bytes = Vec::with_capacity(r * 4);
    for &v in landmarks {
        landmarks_bytes.extend_from_slice(&v.to_le_bytes());
    }

    let mut label_entries = Vec::new();
    let mut label_ends = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let mut prev = 0usize;
        let mut first = true;
        for (col, d) in labelling.entries(v) {
            let delta = if first { col } else { col - prev };
            first = false;
            prev = col;
            write_varint(&mut label_entries, delta as u32);
            write_dist(&mut label_entries, d, dw);
        }
        label_ends.push(label_entries.len() as u64);
    }

    let mut graph_neighbors = Vec::new();
    let mut graph_ends = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let mut prev = 0u32;
        let mut first = true;
        for &w in graph.neighbors(v) {
            let delta = if first { w } else { w - prev };
            first = false;
            prev = w;
            write_varint(&mut graph_neighbors, delta);
        }
        graph_ends.push(graph_neighbors.len() as u64);
    }

    let mut meta_edges = Vec::with_capacity(meta.edges().len() * (4 + dw));
    for &(i, j, sigma) in meta.edges() {
        meta_edges.extend_from_slice(&(i as u16).to_le_bytes());
        meta_edges.extend_from_slice(&(j as u16).to_le_bytes());
        write_dist(&mut meta_edges, sigma, dw);
    }

    let sentinel = width_sentinel(dw);
    let mut meta_apsp = Vec::with_capacity(r * r * dw);
    for &d in meta.apsp() {
        let stored = if d == INFINITE_DISTANCE { sentinel } else { d };
        write_dist(&mut meta_apsp, stored, dw);
    }

    // Δ pair order is answer-relevant (it decides path-graph edge order),
    // so pairs are stored verbatim as varints, not re-sorted for
    // front-coding.
    let mut delta_edges = Vec::new();
    let mut delta_ends = Vec::with_capacity(meta.edges().len());
    for k in 0..meta.edges().len() {
        for &(a, b) in meta.delta_edges(k) {
            write_varint(&mut delta_edges, a);
            write_varint(&mut delta_edges, b);
        }
        delta_ends.push(delta_edges.len() as u64);
    }

    // The wide fallback: 8-byte offsets only when a section's byte length
    // no longer fits u32.
    let needs_wide = [&label_entries, &graph_neighbors, &delta_edges]
        .iter()
        .any(|payload| payload.len() as u64 > u32::MAX as u64);
    let offset_width: u8 = if needs_wide { 8 } else { 4 };
    let ow = offset_width as usize;

    let label_offsets = encode_offsets(&label_ends, ow);
    let graph_offsets = encode_offsets(&graph_ends, ow);
    let delta_offsets = encode_offsets(&delta_ends, ow);

    let payloads: [&[u8]; SECTION_COUNT - 1] = [
        &landmarks_bytes,
        &label_offsets,
        &label_entries,
        &graph_offsets,
        &graph_neighbors,
        &meta_edges,
        &meta_apsp,
        &delta_offsets,
        &delta_edges,
    ];

    // Lay out the section table (same mechanics as v2).
    let mut records: Vec<(SectionKind, u64, u64)> = Vec::with_capacity(SECTION_COUNT);
    let mut cursor = (HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN) as u64;
    for (kind, payload) in SectionKind::ALL.iter().zip(payloads.iter()) {
        cursor = align_up(cursor, SECTION_ALIGN as u64);
        records.push((*kind, cursor, payload.len() as u64));
        cursor += payload.len() as u64;
    }
    cursor = align_up(cursor, SECTION_ALIGN as u64);
    let checksum_offset = cursor;
    records.push((SectionKind::Checksum, checksum_offset, 8));
    let file_size = checksum_offset + 8;

    // Emit header + table + payloads.
    let mut out = Vec::with_capacity(file_size as usize);
    out.extend_from_slice(&MAGIC_V3);
    out.extend_from_slice(&FORMAT_VERSION_V3.to_le_bytes());
    out.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(r as u64).to_le_bytes());
    out.extend_from_slice(&file_size.to_le_bytes());
    out.push(4); // id_width: vertex ids are u32 in this build
    out.push(dist_width);
    out.push(offset_width);
    out.push(0); // reserved
    out.extend_from_slice(&max_label_distance.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for &(kind, offset, len) in &records {
        out.extend_from_slice(&(kind as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    for (&(_, offset, _), payload) in records.iter().zip(payloads.iter()) {
        out.resize(offset as usize, 0);
        out.extend_from_slice(payload);
    }
    out.resize(checksum_offset as usize, 0);
    let checksum = checksum64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.len() as u64, file_size);
    Ok(out)
}

/// Decoded element counts of a v3 file's variable sections.
#[derive(Clone, Copy, Debug)]
pub struct CompactCounts {
    /// Total label entries `Σ_v |L(v)|`.
    pub label_entries: usize,
    /// Directed arc count of the adjacency section.
    pub num_arcs: usize,
    /// Total Δ path-graph edges across all meta edges.
    pub num_delta_edges: usize,
}

/// Everything `qbs inspect` reports about a v3 file — the compact sibling
/// of [`FileInspection`], computed without requiring the checksum to match.
#[derive(Clone, Debug)]
pub struct CompactInspection {
    /// `|V|` from the header.
    pub num_vertices: usize,
    /// `|R|` from the header.
    pub num_landmarks: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// The parsed section table, in file order.
    pub sections: Vec<SectionRecord>,
    /// Checksum stored in the file.
    pub stored_checksum: u64,
    /// Checksum recomputed over the file contents.
    pub computed_checksum: u64,
    /// Bytes per stored distance.
    pub dist_width: u8,
    /// Bytes per CSR byte-offset.
    pub offset_width: u8,
    /// The true maximum label distance recorded in the header.
    pub max_label_distance: Distance,
    /// Meta-edge count implied by the meta-edges section.
    pub num_meta_edges: usize,
    /// Decoded variable-section counts, or `None` when a run is malformed.
    pub counts: Option<CompactCounts>,
}

impl CompactInspection {
    /// Whether the stored checksum matches the recomputed one.
    pub fn checksum_ok(&self) -> bool {
        self.stored_checksum == self.computed_checksum
    }

    /// A section's payload share of the whole file, in percent.
    pub fn section_percent(&self, record: &SectionRecord) -> f64 {
        if self.file_len == 0 {
            return 0.0;
        }
        record.len as f64 * 100.0 / self.file_len as f64
    }

    /// The byte length the wide (v2) profile would spend on the same
    /// section, derived from the decoded counts — `None` for sections
    /// whose count is unknown (malformed runs) or identical by layout.
    pub fn wide_section_len(&self, kind: SectionKind) -> Option<u64> {
        let n = self.num_vertices as u64;
        let r = self.num_landmarks as u64;
        let counts = self.counts;
        Some(match kind {
            SectionKind::Landmarks => r * 4,
            SectionKind::LabelOffsets | SectionKind::GraphOffsets => (n + 1) * 8,
            SectionKind::LabelEntries => counts?.label_entries as u64 * 4,
            SectionKind::GraphNeighbors => counts?.num_arcs as u64 * 4,
            SectionKind::MetaEdges => self.num_meta_edges as u64 * 12,
            SectionKind::MetaApsp => r * r * 4,
            SectionKind::DeltaOffsets => (self.num_meta_edges as u64 + 1) * 8,
            SectionKind::DeltaEdges => counts?.num_delta_edges as u64 * 8,
            SectionKind::Checksum => 8,
        })
    }
}

/// Inspects a v3 buffer: geometry must parse, but checksum and structural
/// validity are *reported*, not enforced, so `qbs inspect` can diagnose a
/// bit-rotted compact file. Takes the buffer by value like [`inspect_v2`].
pub fn inspect_v3(buf: ViewBuf) -> Result<CompactInspection> {
    let view = CompactView::parse_trusted(buf)?;
    let checksum_offset = view.section(SectionKind::Checksum).offset as usize;
    let computed_checksum = checksum64(&view.buf().as_slice()[..checksum_offset]);
    let counts = view.counts_checked();
    Ok(CompactInspection {
        num_vertices: view.num_vertices(),
        num_landmarks: view.num_landmarks(),
        file_len: view.file_len(),
        sections: view.sections().to_vec(),
        stored_checksum: view.checksum(),
        computed_checksum,
        dist_width: view.dist_width(),
        offset_width: view.offset_width(),
        max_label_distance: view.max_label_distance(),
        num_meta_edges: view.num_meta_edges(),
        counts,
    })
}

/// Parses and geometry-checks a section table (shared by the v2 and v3
/// layouts, which use the same record shape, order, alignment, bounds and
/// trailing-byte rules).
fn parse_section_table(data: &[u8]) -> Result<Vec<SectionRecord>> {
    let table_end = HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN;
    if data.len() < table_end {
        return Err(QbsError::Corrupt(format!(
            "truncated section table: need {table_end} bytes, have {}",
            data.len()
        )));
    }
    let mut sections = Vec::with_capacity(SECTION_COUNT);
    let mut cursor = table_end as u64;
    for (slot, expected) in SectionKind::ALL.iter().enumerate() {
        let base = HEADER_LEN + slot * SECTION_RECORD_LEN;
        let raw_kind = le_u32(data, base);
        let kind = SectionKind::from_u32(raw_kind).ok_or_else(|| {
            QbsError::Corrupt(format!("unknown section kind {raw_kind} in slot {slot}"))
        })?;
        if kind != *expected {
            return Err(QbsError::Corrupt(format!(
                "section slot {slot} holds '{}', expected '{}'",
                kind.name(),
                expected.name()
            )));
        }
        let offset = le_u64(data, base + 8);
        let len = le_u64(data, base + 16);
        if !offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(QbsError::Corrupt(format!(
                "section '{}' offset {offset} is not {SECTION_ALIGN}-byte aligned",
                kind.name()
            )));
        }
        if offset < cursor {
            return Err(QbsError::Corrupt(format!(
                "section '{}' at offset {offset} overlaps the previous section",
                kind.name()
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            QbsError::Corrupt(format!("section '{}' length overflows", kind.name()))
        })?;
        if end > data.len() as u64 {
            return Err(QbsError::Corrupt(format!(
                "section '{}' [{offset}, {end}) exceeds the {}-byte buffer",
                kind.name(),
                data.len()
            )));
        }
        cursor = end;
        sections.push(SectionRecord { kind, offset, len });
    }
    if cursor != data.len() as u64 {
        return Err(QbsError::Corrupt(format!(
            "{} trailing bytes after the checksum section",
            data.len() as u64 - cursor
        )));
    }
    Ok(sections)
}

/// The all-ones value of a `width`-byte little-endian field — reserved as
/// the infinite-distance sentinel of the narrow APSP matrix.
#[inline]
fn width_sentinel(width: usize) -> Distance {
    match width {
        1 => 0xFF,
        2 => 0xFFFF,
        _ => u32::MAX,
    }
}

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation; at most 5 bytes for a u32).
fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint, panicking (bounds-checked index) on a
/// truncated run — the trusted-mode accessor contract.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut acc = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        acc |= ((byte & 0x7F) as u32) << (shift & 31);
        if byte & 0x80 == 0 {
            return acc;
        }
        shift += 7;
    }
}

/// Fallible LEB128 decode for the validation scans: `None` on truncation
/// or a run longer than a u32 can hold.
fn checked_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut acc = 0u32;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 32 || (shift == 28 && (byte & 0x7F) > 0x0F) {
            return None;
        }
        acc |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(acc);
        }
        shift += 7;
    }
}

/// Appends the low `width` bytes of a distance, little-endian.
#[inline]
fn write_dist(out: &mut Vec<u8>, d: Distance, width: usize) {
    out.extend_from_slice(&d.to_le_bytes()[..width]);
}

/// Reads a `width`-byte little-endian distance.
#[inline]
fn read_dist(bytes: &[u8], pos: &mut usize, width: usize) -> Distance {
    let mut raw = [0u8; 4];
    raw[..width].copy_from_slice(&bytes[*pos..*pos + width]);
    *pos += width;
    u32::from_le_bytes(raw)
}

/// Reads a `width`-byte little-endian CSR byte-offset (width 4 or 8).
#[inline]
fn read_offset(bytes: &[u8], pos: usize, width: usize) -> u64 {
    if width == 4 {
        le_u32(bytes, pos) as u64
    } else {
        le_u64(bytes, pos)
    }
}

/// Serialises row-end byte positions as a CSR offset array of `width`-byte
/// entries, with the leading 0.
fn encode_offsets(ends: &[u64], width: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity((ends.len() + 1) * width);
    out.extend_from_slice(&0u64.to_le_bytes()[..width]);
    for &end in ends {
        out.extend_from_slice(&end.to_le_bytes()[..width]);
    }
    out
}

fn malformed_row(what: &str, index: usize) -> QbsError {
    QbsError::Corrupt(format!(
        "malformed {what} run at row {index}: varint stream truncated or overlong"
    ))
}

#[inline]
fn le_u16(bytes: &[u8], pos: usize) -> u16 {
    u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("2 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QbsConfig;
    use qbs_graph::fixtures::figure4_graph;

    fn index() -> QbsIndex {
        QbsIndex::build(
            figure4_graph(),
            QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
        )
    }

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(SectionKind::ALL.len(), SECTION_COUNT);
        assert_eq!(HEADER_LEN % SECTION_ALIGN, 0);
        assert_eq!(SECTION_RECORD_LEN % SECTION_ALIGN, 0);
        for (slot, kind) in SectionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, slot + 1, "discriminants are 1-based slots");
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn write_parse_roundtrip_preserves_every_component() {
        let original = index();
        let bytes = write_v2(&original).expect("write");
        let view = IndexView::parse(ViewBuf::Heap(bytes)).expect("parse");
        assert_eq!(view.num_vertices(), 15);
        assert_eq!(view.num_landmarks(), 3);
        assert_eq!(view.landmarks().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(view.landmark(2), 3);
        assert_eq!(view.num_arcs(), original.graph().num_arcs());
        assert_eq!(view.num_meta_edges(), 3);
        assert_eq!(
            view.num_delta_edges(),
            original.meta_graph().delta_total_edges()
        );

        // Zero-copy accessors agree with the owned structures.
        for v in original.graph().vertices() {
            assert_eq!(
                view.graph_neighbors(v).collect::<Vec<_>>(),
                original.graph().neighbors(v)
            );
            assert_eq!(
                view.label_entries(v).collect::<Vec<_>>(),
                original.labelling().entries(v).collect::<Vec<_>>()
            );
            assert_eq!(view.label_len(v), original.labelling().label_len(v));
        }
        assert_eq!(
            view.meta_edges().collect::<Vec<_>>(),
            original.meta_graph().edges().to_vec()
        );

        // Materialisation rebuilds identical components.
        let (graph, landmarks, labelling, meta) = view.materialize();
        assert_eq!(&graph, original.graph());
        assert_eq!(landmarks, original.landmarks());
        assert_eq!(&labelling, original.labelling());
        assert_eq!(&meta, original.meta_graph());
    }

    #[test]
    fn sections_are_aligned_and_ordered() {
        let bytes = write_v2(&index()).expect("write");
        let total = bytes.len();
        let view = IndexView::parse(ViewBuf::Heap(bytes)).expect("parse");
        assert_eq!(view.file_len(), total);
        let mut prev_end = (HEADER_LEN + SECTION_COUNT * SECTION_RECORD_LEN) as u64;
        for record in view.sections() {
            assert_eq!(record.offset % SECTION_ALIGN as u64, 0);
            assert!(record.offset >= prev_end);
            prev_end = record.offset + record.len;
        }
        assert_eq!(prev_end, total as u64, "checksum is the final section");
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = write_v2(&index()).expect("write");
        // Flipping any byte must be caught by the checksum (or by header /
        // structural validation for bytes the checksum cannot protect).
        for pos in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                IndexView::parse(ViewBuf::Heap(corrupt)).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = write_v2(&index()).expect("write");
        for len in [0, 4, HEADER_LEN - 1, HEADER_LEN, 100, bytes.len() - 1] {
            assert!(
                IndexView::parse(ViewBuf::Heap(bytes[..len].to_vec())).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    /// Recomputes the trailing checksum after a test mutated the payload,
    /// so only structural validation can reject the crafted buffer.
    fn reseal(bytes: &mut [u8]) {
        let cs_offset = bytes.len() - 8;
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..].copy_from_slice(&recomputed.to_le_bytes());
    }

    #[test]
    fn unsorted_adjacency_and_duplicate_landmarks_are_rejected() {
        let valid = write_v2(&index()).expect("write");
        let view = IndexView::parse(ViewBuf::Heap(valid.clone())).expect("parse");

        // Swap two neighbours inside one adjacency list (vertex 1 of the
        // figure-4 graph has degree > 1): ids stay in range, CSR offsets
        // stay monotone, only the sortedness rule can catch it.
        let s = view.section(SectionKind::GraphNeighbors);
        let base = s.offset as usize;
        let mut crafted = valid.clone();
        let lo = view
            .section_bytes(SectionKind::GraphOffsets)
            .chunks_exact(8)
            .nth(1)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .unwrap();
        crafted.copy_within(base + lo * 4..base + lo * 4 + 4, base + lo * 4 + 4);
        crafted[base + lo * 4..base + lo * 4 + 4]
            .copy_from_slice(&valid[base + (lo + 1) * 4..base + (lo + 2) * 4]);
        reseal(&mut crafted);
        let err = IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(err.to_string().contains("not strictly sorted"), "{err}");

        // Duplicate a landmark id: the column map rebuild must never see it.
        let s = view.section(SectionKind::Landmarks);
        let base = s.offset as usize;
        let mut crafted = valid.clone();
        crafted.copy_within(base..base + 4, base + 4);
        reseal(&mut crafted);
        let err = IndexView::parse(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn trailing_bytes_after_the_checksum_are_rejected() {
        // Append junk past the checksum, patch file_size and recompute the
        // checksum so only the trailing-bytes rule can catch it.
        let mut bytes = write_v2(&index()).expect("write");
        let cs_offset = bytes.len() - 8;
        bytes.extend_from_slice(&[0xAB; 1024]);
        let new_len = bytes.len() as u64;
        bytes[32..40].copy_from_slice(&new_len.to_le_bytes());
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..cs_offset + 8].copy_from_slice(&recomputed.to_le_bytes());
        let err = IndexView::parse(ViewBuf::Heap(bytes)).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn crafted_header_with_absurd_counts_is_corrupt_not_panic() {
        // A checksum-valid file whose header claims 2^61 vertices: the
        // expected section length computation must fail with Corrupt
        // instead of wrapping around (and later aborting in materialise).
        let mut bytes = write_v2(&index()).expect("write");
        bytes[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let cs_offset = bytes.len() - 8;
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..].copy_from_slice(&recomputed.to_le_bytes());
        let err = IndexView::parse(ViewBuf::Heap(bytes)).unwrap_err();
        assert!(matches!(err, QbsError::Corrupt(_)), "{err:?}");

        // Same with an oversized landmark count.
        let mut bytes = write_v2(&index()).expect("write");
        bytes[24..32].copy_from_slice(&(1u64 << 33).to_le_bytes());
        let cs_offset = bytes.len() - 8;
        let recomputed = checksum64(&bytes[..cs_offset]);
        bytes[cs_offset..].copy_from_slice(&recomputed.to_le_bytes());
        let err = IndexView::parse(ViewBuf::Heap(bytes)).unwrap_err();
        assert!(matches!(err, QbsError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn version_and_magic_errors_are_clear() {
        let bytes = write_v2(&index()).expect("write");
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 9;
        let err = IndexView::parse(ViewBuf::Heap(wrong_version)).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");

        let err = IndexView::parse(ViewBuf::Heap(b"qbs-index-v1\n{}".to_vec())).unwrap_err();
        assert!(err.to_string().contains("v1 JSON"), "{err}");

        let err = IndexView::parse(ViewBuf::Heap(vec![0xAB; 64])).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        // Empty input hashes to the FNV-1a offset basis.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        // Word-wise FNV-1a: one round per 8-byte LE word.
        let one_word = 0xcbf2_9ce4_8422_2325u64 ^ u64::from_le_bytes(*b"abcdefgh");
        assert_eq!(
            checksum64(b"abcdefgh"),
            one_word.wrapping_mul(0x0000_0100_0000_01b3)
        );
        // The zero-padded tail behaves like the full word with zero bytes.
        assert_eq!(checksum64(b"abc"), checksum64(b"abc\0\0\0\0\0"));
        // Single-bit sensitivity at every position of a small buffer.
        let base = checksum64(b"0123456789abcdef");
        for pos in 0..16 {
            let mut flipped = *b"0123456789abcdef";
            flipped[pos] ^= 1;
            assert_ne!(checksum64(&flipped), base, "flip at byte {pos}");
        }
    }

    #[test]
    fn trusted_parse_defers_integrity_but_validates_geometry() {
        let bytes = write_v2(&index()).expect("write");

        // Valid buffer: geometry passes, integrity is deferred, verify() ok.
        let view = IndexView::parse_trusted(ViewBuf::Heap(bytes.clone())).expect("parse");
        assert!(!view.is_verified());
        view.verify().expect("valid file verifies");
        assert!(IndexView::parse(ViewBuf::Heap(bytes.clone()))
            .expect("full parse")
            .is_verified());

        // A payload bit flip sails through the trusted parse (that is the
        // documented trade) but is caught by the deferred verify().
        let view_ok = IndexView::parse_trusted(ViewBuf::Heap(bytes.clone())).expect("parse");
        let payload_pos = view_ok.section(SectionKind::GraphNeighbors).offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[payload_pos] ^= 0x01;
        let trusted = IndexView::parse_trusted(ViewBuf::Heap(corrupt)).expect("geometry ok");
        assert!(trusted.verify().is_err(), "bit flip must fail verify()");

        // Geometry damage is still rejected eagerly, even in trusted mode.
        assert!(IndexView::parse_trusted(ViewBuf::Heap(bytes[..HEADER_LEN].to_vec())).is_err());
        let mut absurd = bytes.clone();
        absurd[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(IndexView::parse_trusted(ViewBuf::Heap(absurd)).is_err());
    }

    #[test]
    fn inspection_reports_checksum_status_without_refusing_corrupt_files() {
        let bytes = write_v2(&index()).expect("write");
        let report = inspect_v2(ViewBuf::Heap(bytes.clone())).expect("inspect");
        assert!(report.checksum_ok());
        assert_eq!(report.num_vertices, 15);
        assert_eq!(report.num_landmarks, 3);
        assert_eq!(report.file_len, bytes.len());
        assert_eq!(report.sections.len(), SECTION_COUNT);
        let total_pct: f64 = report
            .sections
            .iter()
            .map(|s| report.section_percent(s))
            .sum();
        assert!(
            total_pct > 50.0 && total_pct <= 100.0,
            "payload share {total_pct}"
        );

        // Corrupt one payload byte: inspection still works and reports the
        // mismatch instead of erroring out.
        let payload_pos = report.sections[4].offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[payload_pos] ^= 0x20;
        let report = inspect_v2(ViewBuf::Heap(corrupt)).expect("inspect corrupt");
        assert!(!report.checksum_ok());
        assert_ne!(report.stored_checksum, report.computed_checksum);

        // Geometry-destroying corruption is still an error.
        assert!(inspect_v2(ViewBuf::Heap(bytes[..10].to_vec())).is_err());
    }

    #[test]
    fn viewbuf_basics() {
        let buf = ViewBuf::Heap(vec![1, 2, 3]);
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert!(ViewBuf::Heap(Vec::new()).is_empty());
    }

    // -------------------------------------------------------------------
    // qbs-index-v3
    // -------------------------------------------------------------------

    #[test]
    fn varint_roundtrips_at_every_boundary() {
        for v in [
            0u32,
            1,
            127,
            128,
            129,
            16383,
            16384,
            1 << 21,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 5);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
            let mut pos = 0;
            assert_eq!(checked_varint(&buf, &mut pos), Some(v));
        }
        // Truncated and overlong runs are rejected by the checked decoder.
        assert_eq!(checked_varint(&[0x80], &mut 0), None);
        assert_eq!(
            checked_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut 0),
            None
        );
        assert_eq!(
            checked_varint(&[0x80, 0x80, 0x80, 0x80, 0x7F], &mut 0),
            None
        );
    }

    #[test]
    fn v3_roundtrip_preserves_every_component_and_shrinks_the_file() {
        let original = index();
        let wide = write_v2(&original).expect("write v2");
        let bytes = write_v3(&original).expect("write v3");
        assert!(
            bytes.len() < wide.len(),
            "compact {} >= wide {}",
            bytes.len(),
            wide.len()
        );
        let view = CompactView::parse(ViewBuf::Heap(bytes)).expect("parse");
        assert_eq!(view.num_vertices(), 15);
        assert_eq!(view.num_landmarks(), 3);
        assert_eq!(view.dist_width(), 1, "figure-4 distances fit u8");
        assert_eq!(view.offset_width(), 4);
        assert_eq!(view.landmarks().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(view.landmark(2), 3);
        assert_eq!(view.num_meta_edges(), 3);

        for v in original.graph().vertices() {
            assert_eq!(
                view.graph_neighbors(v).collect::<Vec<_>>(),
                original.graph().neighbors(v)
            );
            assert_eq!(
                view.label_entries(v).collect::<Vec<_>>(),
                original.labelling().entries(v).collect::<Vec<_>>()
            );
            assert_eq!(view.label_len(v), original.labelling().label_len(v));
        }
        assert_eq!(
            view.meta_edges().collect::<Vec<_>>(),
            original.meta_graph().edges().to_vec()
        );
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    view.meta_distance(i, j),
                    original.meta_graph().distance(i, j)
                );
            }
        }
        for k in 0..3 {
            assert_eq!(
                view.delta_edges(k).collect::<Vec<_>>(),
                original.meta_graph().delta_edges(k)
            );
        }

        let (graph, landmarks, labelling, meta) = view.materialize();
        assert_eq!(&graph, original.graph());
        assert_eq!(landmarks, original.landmarks());
        assert_eq!(&labelling, original.labelling());
        assert_eq!(&meta, original.meta_graph());
    }

    #[test]
    fn v3_records_the_true_max_label_distance() {
        let original = index();
        let bytes = write_v3(&original).expect("write");
        let view = CompactView::parse(ViewBuf::Heap(bytes)).expect("parse");
        let expected = original
            .graph()
            .vertices()
            .flat_map(|v| {
                original
                    .labelling()
                    .entries(v)
                    .map(|(_, d)| d)
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        assert_eq!(view.max_label_distance(), expected);
    }

    #[test]
    fn v3_label_distance_above_recorded_max_is_corrupt() {
        // Shrink the recorded maximum below a stored distance and reseal:
        // only the tripwire can reject the file.
        let bytes = write_v3(&index()).expect("write");
        let view = CompactView::parse(ViewBuf::Heap(bytes.clone())).expect("parse");
        assert!(view.max_label_distance() > 0, "fixture has nonzero labels");
        let mut crafted = bytes.clone();
        crafted[44..48].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut crafted);
        let err = CompactView::parse(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(
            err.to_string()
                .contains("exceeds the header's recorded maximum"),
            "{err}"
        );
    }

    #[test]
    fn v3_invalid_width_profile_is_corrupt() {
        let bytes = write_v3(&index()).expect("write");
        for (pos, bad) in [(40usize, 3u8), (41, 3), (41, 0), (42, 5), (42, 0)] {
            let mut crafted = bytes.clone();
            crafted[pos] = bad;
            reseal(&mut crafted);
            let err = CompactView::parse(ViewBuf::Heap(crafted)).unwrap_err();
            assert!(matches!(err, QbsError::Corrupt(_)), "{err:?}");
        }
        // A declared max label distance that cannot fit the declared
        // distance width is rejected at geometry time.
        let mut crafted = bytes.clone();
        crafted[44..48].copy_from_slice(&0xFFu32.to_le_bytes());
        reseal(&mut crafted);
        let err = CompactView::parse_trusted(ViewBuf::Heap(crafted)).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn v3_cross_version_magic_errors_are_clear() {
        let v2_bytes = write_v2(&index()).expect("write v2");
        let v3_bytes = write_v3(&index()).expect("write v3");

        let err = CompactView::parse(ViewBuf::Heap(v2_bytes.clone())).unwrap_err();
        assert!(err.to_string().contains("qbs-index-v2 wide"), "{err}");
        let err = IndexView::parse(ViewBuf::Heap(v3_bytes.clone())).unwrap_err();
        assert!(err.to_string().contains("qbs-index-v3 compact"), "{err}");
        let err = CompactView::parse(ViewBuf::Heap(b"qbs-index-v1\n{}".to_vec())).unwrap_err();
        assert!(err.to_string().contains("qbs-index-v1 JSON"), "{err}");

        let mut wrong_version = v3_bytes.clone();
        wrong_version[8] = 9;
        let err = CompactView::parse(ViewBuf::Heap(wrong_version)).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");

        let err = CompactView::parse(ViewBuf::Heap(vec![0xAB; 64])).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn v3_trusted_parse_defers_integrity_but_validates_geometry() {
        let bytes = write_v3(&index()).expect("write");
        let view = CompactView::parse_trusted(ViewBuf::Heap(bytes.clone())).expect("parse");
        assert!(!view.is_verified());
        view.verify().expect("valid file verifies");
        assert!(CompactView::parse(ViewBuf::Heap(bytes.clone()))
            .expect("full parse")
            .is_verified());

        let payload_pos = view.section(SectionKind::GraphNeighbors).offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[payload_pos] ^= 0x01;
        let trusted = CompactView::parse_trusted(ViewBuf::Heap(corrupt)).expect("geometry ok");
        assert!(trusted.verify().is_err(), "bit flip must fail verify()");

        assert!(CompactView::parse_trusted(ViewBuf::Heap(bytes[..HEADER_LEN].to_vec())).is_err());
        let mut absurd = bytes.clone();
        absurd[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(CompactView::parse_trusted(ViewBuf::Heap(absurd)).is_err());
    }

    #[test]
    fn v3_inspection_reports_widths_counts_and_wide_equivalents() {
        let original = index();
        let bytes = write_v3(&original).expect("write");
        let report = inspect_v3(ViewBuf::Heap(bytes.clone())).expect("inspect");
        assert!(report.checksum_ok());
        assert_eq!(report.num_vertices, 15);
        assert_eq!(report.num_landmarks, 3);
        assert_eq!(report.dist_width, 1);
        assert_eq!(report.offset_width, 4);
        assert_eq!(report.num_meta_edges, 3);
        let counts = report.counts.expect("valid file decodes");
        assert_eq!(counts.num_arcs, original.graph().num_arcs());
        assert_eq!(counts.label_entries, original.labelling().total_entries());
        assert_eq!(
            counts.num_delta_edges,
            original.meta_graph().delta_total_edges()
        );
        // Every wide-equivalent length matches what write_v2 produced.
        let wide = write_v2(&original).expect("write v2");
        let wide_view = IndexView::parse(ViewBuf::Heap(wide)).expect("parse v2");
        for record in wide_view.sections() {
            assert_eq!(
                report.wide_section_len(record.kind),
                Some(record.len),
                "wide equivalent of '{}'",
                record.kind.name()
            );
        }

        // A corrupt payload still inspects, reporting the mismatch.
        let payload_pos = report.sections[4].offset as usize;
        let mut corrupt = bytes.clone();
        corrupt[payload_pos] ^= 0x20;
        let report = inspect_v3(ViewBuf::Heap(corrupt)).expect("inspect corrupt");
        assert!(!report.checksum_ok());
    }
}
