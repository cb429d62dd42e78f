//! Reading and writing graphs from text formats — the front door for user-supplied
//! instances.
//!
//! Two formats are supported:
//!
//! * **Edge list** — one `u v` pair per line, 0-based vertex ids, `#` / `%` comment
//!   lines and blank lines ignored. An optional `n <count>` header line fixes the
//!   vertex count (otherwise it is `max id + 1`).
//! * **DIMACS** — the classical `p edge <n> <m>` header with `e u v` edge lines
//!   (1-based ids) and `c` comment lines.
//!
//! Both parsers are forgiving where it is safe (duplicate edges are deduplicated,
//! either endpoint order is accepted) and strict where it matters (malformed tokens,
//! out-of-range ids, and self loops are errors with line numbers — a self loop can
//! silently change connectivity semantics, so it is rejected rather than dropped).

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex};
use std::fmt;
use std::path::Path;

/// A parse failure, with the 1-based line number it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphParseError {
    /// A line that is neither a comment, a header, nor an edge.
    MalformedLine { line: usize, content: String },
    /// A vertex token that does not parse as an unsigned integer.
    BadVertex { line: usize, token: String },
    /// A vertex id outside the declared range.
    VertexOutOfRange { line: usize, vertex: u64, n: usize },
    /// A self loop `u u` (the workspace's graphs are simple).
    SelfLoop { line: usize, vertex: Vertex },
    /// A DIMACS file without a `p edge` header, or a second header.
    BadHeader { line: usize },
    /// The input declares no vertices and no parsable content at all.
    Empty,
}

impl fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphParseError::MalformedLine { line, content } => {
                write!(f, "line {line}: malformed line {content:?}")
            }
            GraphParseError::BadVertex { line, token } => {
                write!(f, "line {line}: bad vertex id {token:?}")
            }
            GraphParseError::VertexOutOfRange { line, vertex, n } => {
                write!(f, "line {line}: vertex {vertex} out of range for n = {n}")
            }
            GraphParseError::SelfLoop { line, vertex } => {
                write!(f, "line {line}: self loop at vertex {vertex}")
            }
            GraphParseError::BadHeader { line } => {
                write!(f, "line {line}: bad or duplicate header")
            }
            GraphParseError::Empty => write!(f, "no vertices or edges in input"),
        }
    }
}

impl std::error::Error for GraphParseError {}

/// A read failure: I/O or parse.
#[derive(Debug)]
pub enum GraphReadError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Parse error with the offending line.
    Parse(GraphParseError),
}

impl fmt::Display for GraphReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphReadError::Io(e) => write!(f, "io: {e}"),
            GraphReadError::Parse(e) => write!(f, "parse: {e}"),
        }
    }
}

impl std::error::Error for GraphReadError {}

impl From<GraphParseError> for GraphReadError {
    fn from(e: GraphParseError) -> Self {
        GraphReadError::Parse(e)
    }
}

impl From<std::io::Error> for GraphReadError {
    fn from(e: std::io::Error) -> Self {
        GraphReadError::Io(e)
    }
}

/// Parses a vertex id / count token. Ids are dense `u32`s in this workspace
/// (`u32::MAX` is the `INVALID_VERTEX` sentinel), so anything at or above that is
/// rejected here with a line-numbered error — otherwise a huge id would silently
/// truncate in the `as Vertex` casts, or drive `n = max_id + 1` into an allocation
/// abort long after parsing "succeeded".
fn parse_vertex(tok: &str, line: usize) -> Result<u64, GraphParseError> {
    let v = tok.parse::<u64>().map_err(|_| GraphParseError::BadVertex {
        line,
        token: tok.to_string(),
    })?;
    if v >= u64::from(u32::MAX) {
        return Err(GraphParseError::VertexOutOfRange {
            line,
            vertex: v,
            n: u32::MAX as usize,
        });
    }
    Ok(v)
}

fn check_range(v: u64, n: usize, line: usize) -> Result<Vertex, GraphParseError> {
    if (v as usize) < n {
        Ok(v as Vertex)
    } else {
        Err(GraphParseError::VertexOutOfRange { line, vertex: v, n })
    }
}

/// Parses a 0-based edge list (see the module docs for the grammar).
pub fn parse_edge_list(text: &str) -> Result<CsrGraph, GraphParseError> {
    let mut edges: Vec<(u64, u64, usize)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    let mut max_id: Option<u64> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.trim();
        if content.is_empty() || content.starts_with('#') || content.starts_with('%') {
            continue;
        }
        let mut toks = content.split_whitespace();
        let first = toks.next().expect("non-empty line has a token");
        if first == "n" {
            let count = toks.next().ok_or_else(|| GraphParseError::MalformedLine {
                line,
                content: content.to_string(),
            })?;
            if declared_n.is_some() || toks.next().is_some() {
                return Err(GraphParseError::BadHeader { line });
            }
            declared_n = Some(parse_vertex(count, line)? as usize);
            continue;
        }
        let second = toks.next().ok_or_else(|| GraphParseError::MalformedLine {
            line,
            content: content.to_string(),
        })?;
        if toks.next().is_some() {
            return Err(GraphParseError::MalformedLine {
                line,
                content: content.to_string(),
            });
        }
        let u = parse_vertex(first, line)?;
        let v = parse_vertex(second, line)?;
        max_id = Some(max_id.unwrap_or(0).max(u).max(v));
        edges.push((u, v, line));
    }
    let n = match (declared_n, max_id) {
        (Some(n), _) => n,
        (None, Some(max)) => max as usize + 1,
        (None, None) => return Err(GraphParseError::Empty),
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v, line) in edges {
        let u = check_range(u, n, line)?;
        let v = check_range(v, n, line)?;
        if u == v {
            return Err(GraphParseError::SelfLoop { line, vertex: u });
        }
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Parses a DIMACS `p edge` file (1-based `e u v` lines).
pub fn parse_dimacs(text: &str) -> Result<CsrGraph, GraphParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let content = raw.trim();
        if content.is_empty() || content.starts_with('c') {
            continue;
        }
        let mut toks = content.split_whitespace();
        match toks.next() {
            Some("p") => {
                // `p edge n m` (also accept the historical `p col`).
                let _format = toks.next();
                let n_tok = toks.next().ok_or(GraphParseError::BadHeader { line })?;
                if builder.is_some() {
                    return Err(GraphParseError::BadHeader { line });
                }
                n = parse_vertex(n_tok, line)? as usize;
                builder = Some(GraphBuilder::new(n));
            }
            Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or(GraphParseError::BadHeader { line })?;
                let u_tok = toks.next().ok_or_else(|| GraphParseError::MalformedLine {
                    line,
                    content: content.to_string(),
                })?;
                let v_tok = toks.next().ok_or_else(|| GraphParseError::MalformedLine {
                    line,
                    content: content.to_string(),
                })?;
                let u = parse_vertex(u_tok, line)?;
                let v = parse_vertex(v_tok, line)?;
                if u == 0 || v == 0 {
                    return Err(GraphParseError::VertexOutOfRange { line, vertex: 0, n });
                }
                let u = check_range(u - 1, n, line)?;
                let v = check_range(v - 1, n, line)?;
                if u == v {
                    return Err(GraphParseError::SelfLoop { line, vertex: u });
                }
                b.add_edge(u, v);
            }
            _ => {
                return Err(GraphParseError::MalformedLine {
                    line,
                    content: content.to_string(),
                })
            }
        }
    }
    match builder {
        Some(b) => Ok(b.build()),
        None => Err(GraphParseError::Empty),
    }
}

/// Parses either supported format, sniffing DIMACS by its `p` header line.
pub fn parse_graph(text: &str) -> Result<CsrGraph, GraphParseError> {
    let is_dimacs = text.lines().any(|l| {
        let t = l.trim();
        t.starts_with("p ") || t.starts_with("e ")
    });
    if is_dimacs {
        parse_dimacs(text)
    } else {
        parse_edge_list(text)
    }
}

/// Loads a graph from a file, dispatching on content (and `.col` / `.dimacs`
/// extensions) between the two formats.
pub fn read_graph_file(path: impl AsRef<Path>) -> Result<CsrGraph, GraphReadError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let by_extension = path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.eq_ignore_ascii_case("col") || e.eq_ignore_ascii_case("dimacs"));
    let graph = match by_extension {
        Some(true) => parse_dimacs(&text)?,
        _ => parse_graph(&text)?,
    };
    Ok(graph)
}

/// Serialises a graph as a canonical edge list (with an `n` header so isolated
/// vertices round-trip).
pub fn write_edge_list(graph: &CsrGraph) -> String {
    let mut out = String::with_capacity(16 + graph.num_edges() * 8);
    out.push_str(&format!("n {}\n", graph.num_vertices()));
    for (u, v) in graph.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Binary sectioned container (index artifacts)
// ---------------------------------------------------------------------------

/// Magic bytes opening every sectioned binary file written by this workspace.
pub const SECTION_MAGIC: [u8; 8] = *b"PSISECT\0";

/// Maximum section-name length (names are stored NUL-padded in 8 bytes).
pub const SECTION_NAME_LEN: usize = 8;

/// FNV-1a 64-bit hash — the per-section payload checksum of the sectioned container.
///
/// Not cryptographic; it exists to turn silent file corruption (truncation aside,
/// which the section table catches by itself) into a structured
/// [`SectionReadError::ChecksumMismatch`] instead of a semantic failure deep inside
/// payload decoding.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A failure while reading a sectioned binary file. Every variant names the part of
/// the file it refers to, mirroring the line-numbered text-parser errors above.
#[derive(Debug)]
pub enum SectionReadError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`SECTION_MAGIC`].
    BadMagic { found: [u8; 8] },
    /// The file's schema version is not the one the reader supports.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends before the header or section table is complete.
    TruncatedHeader { file_len: usize },
    /// A section-table name is not NUL-padded ASCII.
    BadSectionName { index: usize },
    /// Two sections share a name.
    DuplicateSection { section: String },
    /// A section's `[offset, offset + len)` range does not lie inside the file.
    SectionOutOfBounds {
        section: String,
        offset: u64,
        len: u64,
        file_len: usize,
    },
    /// A section's payload bytes do not hash to the checksum recorded in the table.
    ChecksumMismatch { section: String },
}

impl fmt::Display for SectionReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionReadError::Io(e) => write!(f, "io: {e}"),
            SectionReadError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (not a sectioned PSI file)")
            }
            SectionReadError::UnsupportedVersion { found, supported } => {
                write!(f, "schema version {found} unsupported (reader supports {supported})")
            }
            SectionReadError::TruncatedHeader { file_len } => {
                write!(f, "file truncated inside header/section table ({file_len} bytes)")
            }
            SectionReadError::BadSectionName { index } => {
                write!(f, "section {index}: name is not NUL-padded ASCII")
            }
            SectionReadError::DuplicateSection { section } => {
                write!(f, "section {section:?} appears twice")
            }
            SectionReadError::SectionOutOfBounds {
                section,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "section {section:?}: range [{offset}, {offset}+{len}) outside file of {file_len} bytes"
            ),
            SectionReadError::ChecksumMismatch { section } => {
                write!(f, "section {section:?}: payload checksum mismatch (file corrupted)")
            }
        }
    }
}

impl std::error::Error for SectionReadError {}

impl From<std::io::Error> for SectionReadError {
    fn from(e: std::io::Error) -> Self {
        SectionReadError::Io(e)
    }
}

/// Bytes before the section table: magic, version and section count.
const HEADER_LEN: usize = 8 + 4 + 4;

/// Bytes of one section-table entry: name, offset, length and checksum.
const TABLE_ENTRY_LEN: usize = SECTION_NAME_LEN + 8 + 8 + 8;

/// A sectioned binary file read from bytes: a schema version plus named byte
/// payloads, borrowed from the input, so a load decodes straight from the file's
/// bytes without copying them. [`SectionWriter`] writes the format.
///
/// On disk the layout is `magic (8) | version (u32) | section count (u32) | table |
/// payloads`, where each table entry is `name ([u8; 8], NUL-padded) | offset (u64,
/// absolute) | len (u64) | fnv1a64 checksum (u64)`, everything little-endian.
/// Payloads are opaque here — semantic encoding/decoding belongs to the caller
/// (e.g. `planar_subiso`'s index artifact); this layer owns framing, versioning and
/// corruption detection only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionedFile<'a> {
    /// Caller-defined schema version, checked against the reader's expectation.
    pub version: u32,
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> SectionedFile<'a> {
    /// The payload of `name`, if present.
    pub fn section(&self, name: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, p)| p)
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Parses a container from bytes, verifying magic, version, section-table sanity
    /// and every payload checksum. The payloads stay borrowed from `data`.
    pub fn from_bytes(data: &'a [u8], supported_version: u32) -> Result<Self, SectionReadError> {
        let mut r = SliceReader::new(data);
        let magic = r.take_bytes(8).ok_or(SectionReadError::TruncatedHeader {
            file_len: data.len(),
        })?;
        if magic != SECTION_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(SectionReadError::BadMagic { found });
        }
        let truncated = || SectionReadError::TruncatedHeader {
            file_len: data.len(),
        };
        let version = r.take_u32().ok_or_else(truncated)?;
        if version != supported_version {
            return Err(SectionReadError::UnsupportedVersion {
                found: version,
                supported: supported_version,
            });
        }
        let count = r.take_u32().ok_or_else(truncated)? as usize;
        let mut entries: Vec<(String, u64, u64, u64)> = Vec::with_capacity(count.min(1024));
        for index in 0..count {
            let name_bytes = r.take_bytes(SECTION_NAME_LEN).ok_or_else(truncated)?;
            let end = name_bytes
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(SECTION_NAME_LEN);
            if end == 0
                || !name_bytes[..end].iter().all(|b| b.is_ascii())
                || !name_bytes[end..].iter().all(|&b| b == 0)
            {
                return Err(SectionReadError::BadSectionName { index });
            }
            let name = String::from_utf8(name_bytes[..end].to_vec())
                .map_err(|_| SectionReadError::BadSectionName { index })?;
            let offset = r.take_u64().ok_or_else(truncated)?;
            let len = r.take_u64().ok_or_else(truncated)?;
            let checksum = r.take_u64().ok_or_else(truncated)?;
            if entries.iter().any(|(n, _, _, _)| *n == name) {
                return Err(SectionReadError::DuplicateSection { section: name });
            }
            entries.push((name, offset, len, checksum));
        }
        let mut sections = Vec::with_capacity(entries.len());
        for (name, offset, len, checksum) in entries {
            let start = usize::try_from(offset).ok();
            let end = offset
                .checked_add(len)
                .and_then(|e| usize::try_from(e).ok());
            let payload = match (start, end) {
                (Some(s), Some(e)) if e <= data.len() && s <= e => &data[s..e],
                _ => {
                    return Err(SectionReadError::SectionOutOfBounds {
                        section: name,
                        offset,
                        len,
                        file_len: data.len(),
                    })
                }
            };
            if fnv1a64(payload) != checksum {
                return Err(SectionReadError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload));
        }
        Ok(SectionedFile { version, sections })
    }
}

/// Writes a [`SectionedFile`] straight into one buffer: the header and a table
/// sized for a declared number of sections come first, each payload is encoded
/// in place after them, and its table entry (offset, length, checksum) is
/// patched in once the payload is complete. No payload is held apart from the
/// output, so writing keeps no second copy of the file.
pub struct SectionWriter {
    out: Vec<u8>,
    declared: usize,
    written: usize,
    /// The file length [`SectionWriter::with_capacity`] reserved.
    reserved: Option<usize>,
}

impl SectionWriter {
    /// A file of schema `version` whose table has room for exactly `sections`
    /// sections.
    pub fn new(version: u32, sections: usize) -> Self {
        let table_end = HEADER_LEN + sections * TABLE_ENTRY_LEN;
        let mut out = Vec::with_capacity(table_end);
        out.extend_from_slice(&SECTION_MAGIC);
        push_u32(&mut out, version);
        push_u32(&mut out, sections as u32);
        out.resize(table_end, 0);
        SectionWriter {
            out,
            declared: sections,
            written: 0,
            reserved: None,
        }
    }

    /// [`SectionWriter::new`] with the buffer sized up front for payloads of
    /// `payload_len` bytes in all, so the file is written without regrowing
    /// the buffer. Debug builds check in [`SectionWriter::finish`] that the
    /// payloads add up to exactly `payload_len`.
    pub fn with_capacity(version: u32, sections: usize, payload_len: usize) -> Self {
        let mut file = SectionWriter::new(version, sections);
        file.out.reserve_exact(payload_len);
        file.reserved = Some(file.out.len() + payload_len);
        file
    }

    /// Appends the next section, whose payload `encode` appends to the buffer it
    /// is handed (the file so far, whose bytes it must leave as they are).
    /// Panics past the declared section count, and on names longer than
    /// [`SECTION_NAME_LEN`] bytes, non-ASCII names, embedded NULs, or duplicates
    /// — section names are compile-time constants of the writer, not data.
    pub fn section(&mut self, name: &str, encode: impl FnOnce(&mut Vec<u8>)) {
        assert!(
            self.written < self.declared,
            "more sections than the {} declared",
            self.declared
        );
        assert!(
            name.len() <= SECTION_NAME_LEN && !name.is_empty(),
            "section name {name:?} must be 1..={SECTION_NAME_LEN} bytes"
        );
        assert!(
            name.bytes().all(|b| b.is_ascii() && b != 0),
            "section name {name:?} must be ASCII without NULs"
        );
        let mut name_bytes = [0u8; SECTION_NAME_LEN];
        name_bytes[..name.len()].copy_from_slice(name.as_bytes());
        let entry_at = |i: usize| HEADER_LEN + i * TABLE_ENTRY_LEN;
        assert!(
            (0..self.written).all(|i| self.out[entry_at(i)..][..SECTION_NAME_LEN] != name_bytes),
            "duplicate section name {name:?}"
        );
        let start = self.out.len();
        encode(&mut self.out);
        let len = self.out.len() - start;
        let checksum = fnv1a64(&self.out[start..]);
        let entry = &mut self.out[entry_at(self.written)..][..TABLE_ENTRY_LEN];
        entry[..SECTION_NAME_LEN].copy_from_slice(&name_bytes);
        entry[SECTION_NAME_LEN..][..8].copy_from_slice(&(start as u64).to_le_bytes());
        entry[SECTION_NAME_LEN + 8..][..8].copy_from_slice(&(len as u64).to_le_bytes());
        entry[SECTION_NAME_LEN + 16..].copy_from_slice(&checksum.to_le_bytes());
        self.written += 1;
    }

    /// The finished file. Panics unless every declared section was written.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(
            self.written, self.declared,
            "sections written and declared differ"
        );
        debug_assert!(
            self.reserved.is_none_or(|len| len == self.out.len()),
            "wrote {} bytes into a file reserved for {:?}",
            self.out.len(),
            self.reserved
        );
        self.out
    }
}

/// Appends a `u32` little-endian.
#[inline]
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` slice little-endian, without a length prefix (callers frame).
pub fn push_u32_slice(out: &mut Vec<u8>, vs: &[u32]) {
    out.reserve(vs.len() * 4);
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A little-endian byte cursor over a payload slice. All `take_*` methods return
/// `None` past the end; callers convert that into their own labelled errors.
pub struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the cursor consumed every byte (decoders check this to reject
    /// trailing garbage).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `len` raw bytes.
    pub fn take_bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take_bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take_bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Takes `len` little-endian `u32`s.
    pub fn take_u32_vec(&mut self, len: usize) -> Option<Vec<u32>> {
        let bytes = self.take_bytes(len.checked_mul(4)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }

    /// Takes `len` little-endian `u64`s.
    pub fn take_u64_vec(&mut self, len: usize) -> Option<Vec<u64>> {
        let bytes = self.take_bytes(len.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    }
}

/// A failure while decoding a serialised CSR graph (see [`decode_csr`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsrDecodeError {
    /// The payload ends before the declared arrays do.
    Truncated,
    /// The declared vertex or neighbour count does not fit in memory addressing.
    TooLarge { n: u64, total: u64 },
    /// `offsets` is not non-decreasing, or does not end at the neighbour count.
    BadOffsets { vertex: usize },
    /// A neighbour id is `>= n`.
    NeighborOutOfRange { vertex: usize, neighbor: u32 },
    /// An adjacency list is not strictly increasing (unsorted or duplicated).
    AdjacencyNotSorted { vertex: usize },
    /// A self loop (the workspace's graphs are simple).
    SelfLoop { vertex: usize },
}

impl fmt::Display for CsrDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrDecodeError::Truncated => write!(f, "payload truncated"),
            CsrDecodeError::TooLarge { n, total } => {
                write!(f, "declared sizes n={n}, degree-sum={total} too large")
            }
            CsrDecodeError::BadOffsets { vertex } => {
                write!(f, "offset array broken at vertex {vertex}")
            }
            CsrDecodeError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex}: neighbour {neighbor} out of range")
            }
            CsrDecodeError::AdjacencyNotSorted { vertex } => {
                write!(f, "vertex {vertex}: adjacency not sorted/deduplicated")
            }
            CsrDecodeError::SelfLoop { vertex } => write!(f, "vertex {vertex}: self loop"),
        }
    }
}

impl std::error::Error for CsrDecodeError {}

/// Serialises a CSR graph as `n (u64) | degree-sum (u64) | offsets (n+1 × u64) |
/// neighbours (degree-sum × u32)`, little-endian.
pub fn encode_csr(graph: &CsrGraph, out: &mut Vec<u8>) {
    let offsets = graph.csr_offsets();
    let neighbors = graph.csr_neighbors();
    push_u64(out, graph.num_vertices() as u64);
    push_u64(out, neighbors.len() as u64);
    out.reserve(offsets.len() * 8 + neighbors.len() * 4);
    for &o in offsets {
        push_u64(out, o as u64);
    }
    push_u32_slice(out, neighbors);
}

/// The number of bytes [`encode_csr`] appends for `graph`.
pub fn encoded_csr_len(graph: &CsrGraph) -> usize {
    16 + 8 * graph.csr_offsets().len() + 4 * graph.csr_neighbors().len()
}

/// Decodes a CSR graph written by [`encode_csr`], re-validating every structural
/// invariant ([`CsrGraph::from_csr_parts`] only checks them in debug builds):
/// monotone offsets ending at the neighbour count, in-range sorted deduplicated
/// adjacencies, no self loops. Adjacency *symmetry* is not re-checked here (it is
/// `O(m log m)`); the container checksum already rules out accidental corruption.
pub fn decode_csr(r: &mut SliceReader) -> Result<CsrGraph, CsrDecodeError> {
    let n = r.take_u64().ok_or(CsrDecodeError::Truncated)?;
    let total = r.take_u64().ok_or(CsrDecodeError::Truncated)?;
    let n_us = usize::try_from(n).map_err(|_| CsrDecodeError::TooLarge { n, total })?;
    let total_us = usize::try_from(total).map_err(|_| CsrDecodeError::TooLarge { n, total })?;
    if n_us.checked_add(1).is_none() || total_us.checked_mul(4).is_none() {
        return Err(CsrDecodeError::TooLarge { n, total });
    }
    let raw_offsets = r.take_u64_vec(n_us + 1).ok_or(CsrDecodeError::Truncated)?;
    let neighbors = r.take_u32_vec(total_us).ok_or(CsrDecodeError::Truncated)?;
    let mut offsets = Vec::with_capacity(n_us + 1);
    for (i, &o) in raw_offsets.iter().enumerate() {
        let o = usize::try_from(o).map_err(|_| CsrDecodeError::BadOffsets { vertex: i })?;
        if o > total_us || offsets.last().is_some_and(|&prev| o < prev) {
            return Err(CsrDecodeError::BadOffsets { vertex: i });
        }
        offsets.push(o);
    }
    if *offsets.last().unwrap() != total_us {
        return Err(CsrDecodeError::BadOffsets { vertex: n_us });
    }
    for u in 0..n_us {
        let adj = &neighbors[offsets[u]..offsets[u + 1]];
        for (i, &v) in adj.iter().enumerate() {
            if v as usize >= n_us {
                return Err(CsrDecodeError::NeighborOutOfRange {
                    vertex: u,
                    neighbor: v,
                });
            }
            if v as usize == u {
                return Err(CsrDecodeError::SelfLoop { vertex: u });
            }
            if i > 0 && adj[i - 1] >= v {
                return Err(CsrDecodeError::AdjacencyNotSorted { vertex: u });
            }
        }
    }
    Ok(CsrGraph::from_csr_parts(offsets, neighbors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip() {
        let g = generators::triangulated_grid(5, 4);
        let text = write_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
        // parse_graph sniffs the format too
        assert_eq!(parse_graph(&text).unwrap(), g);
    }

    #[test]
    fn edge_list_accepts_comments_and_duplicates() {
        let text = "# a triangle\n% with both comment styles\n0 1\n1 2\n\n2 0\n1 0\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_header_preserves_isolated_vertices() {
        let g = parse_edge_list("n 5\n0 1\n").unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_errors_carry_line_numbers() {
        assert_eq!(
            parse_edge_list("0 1\n2\n"),
            Err(GraphParseError::MalformedLine {
                line: 2,
                content: "2".to_string()
            })
        );
        assert_eq!(
            parse_edge_list("0 x\n"),
            Err(GraphParseError::BadVertex {
                line: 1,
                token: "x".to_string()
            })
        );
        assert_eq!(
            parse_edge_list("3 3\n"),
            Err(GraphParseError::SelfLoop { line: 1, vertex: 3 })
        );
        assert_eq!(
            parse_edge_list("n 2\n0 5\n"),
            Err(GraphParseError::VertexOutOfRange {
                line: 2,
                vertex: 5,
                n: 2
            })
        );
        assert_eq!(parse_edge_list("# nothing\n"), Err(GraphParseError::Empty));
        // Ids must fit the dense u32 vertex space: a huge id is a line-numbered
        // error, not a silent truncation or a gigantic allocation.
        assert_eq!(
            parse_edge_list("0 99999999999\n"),
            Err(GraphParseError::VertexOutOfRange {
                line: 1,
                vertex: 99_999_999_999,
                n: u32::MAX as usize
            })
        );
        assert!(matches!(
            parse_edge_list("n 5000000000\n0 1\n"),
            Err(GraphParseError::VertexOutOfRange { line: 1, .. })
        ));
    }

    #[test]
    fn dimacs_round_trip_via_generator() {
        let g = generators::wheel(7);
        let mut text = String::from("c a wheel\np edge 7 12\n");
        for (u, v) in g.edges() {
            text.push_str(&format!("e {} {}\n", u + 1, v + 1));
        }
        assert_eq!(parse_dimacs(&text).unwrap(), g);
        // sniffed automatically by the `p`/`e` lines
        assert_eq!(parse_graph(&text).unwrap(), g);
    }

    #[test]
    fn dimacs_errors() {
        assert_eq!(
            parse_dimacs("e 1 2\n"),
            Err(GraphParseError::BadHeader { line: 1 })
        );
        assert_eq!(
            parse_dimacs("p edge 3 1\ne 0 2\n"),
            Err(GraphParseError::VertexOutOfRange {
                line: 2,
                vertex: 0,
                n: 3
            })
        );
        assert_eq!(
            parse_dimacs("c only comments\n"),
            Err(GraphParseError::Empty)
        );
    }

    #[test]
    fn file_reading_dispatches_on_content() {
        let dir = std::env::temp_dir();
        let p1 = dir.join("psi_io_test_edges.txt");
        let p2 = dir.join("psi_io_test_graph.col");
        let g = generators::grid(4, 3);
        std::fs::write(&p1, write_edge_list(&g)).unwrap();
        let mut dimacs = format!("p edge {} {}\n", g.num_vertices(), g.num_edges());
        for (u, v) in g.edges() {
            dimacs.push_str(&format!("e {} {}\n", u + 1, v + 1));
        }
        std::fs::write(&p2, dimacs).unwrap();
        assert_eq!(read_graph_file(&p1).unwrap(), g);
        assert_eq!(read_graph_file(&p2).unwrap(), g);
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
        assert!(matches!(
            read_graph_file(dir.join("psi_io_absent_file.txt")),
            Err(GraphReadError::Io(_))
        ));
    }

    #[test]
    fn sectioned_file_round_trip() {
        let big: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        let mut f = SectionWriter::new(7, 3);
        f.section("meta", |out| out.extend_from_slice(&[1, 2, 3]));
        f.section("empty", |_| {});
        f.section("big", |out| out.extend_from_slice(&big));
        let bytes = f.finish();
        let back = SectionedFile::from_bytes(&bytes, 7).unwrap();
        assert_eq!(back.version, 7);
        assert_eq!(back.section("meta"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.section("empty"), Some(&[][..]));
        assert_eq!(back.section("big"), Some(&big[..]));
        assert_eq!(back.section("absent"), None);
        assert_eq!(
            back.section_names().collect::<Vec<_>>(),
            vec!["meta", "empty", "big"]
        );
        // byte-idempotent re-serialisation
        let mut again = SectionWriter::new(back.version, 3);
        for name in back.section_names() {
            again.section(name, |out| {
                out.extend_from_slice(back.section(name).unwrap())
            });
        }
        assert_eq!(again.finish(), bytes);
    }

    #[test]
    fn sectioned_file_rejects_malformed_inputs() {
        let mut f = SectionWriter::new(3, 1);
        f.section("data", |out| out.extend_from_slice(&[42; 64]));
        let bytes = f.finish();

        // wrong magic
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SectionedFile::from_bytes(&bad, 3),
            Err(SectionReadError::BadMagic { .. })
        ));

        // version mismatch (both a newer file and a reader expecting another schema)
        assert!(matches!(
            SectionedFile::from_bytes(&bytes, 4),
            Err(SectionReadError::UnsupportedVersion {
                found: 3,
                supported: 4
            })
        ));

        // truncations at every prefix length either fail the header or a section range
        for cut in [0, 4, 9, 13, 17, 25, 40, bytes.len() - 1] {
            let err = SectionedFile::from_bytes(&bytes[..cut], 3).unwrap_err();
            assert!(
                matches!(
                    err,
                    SectionReadError::TruncatedHeader { .. }
                        | SectionReadError::SectionOutOfBounds { .. }
                        | SectionReadError::BadMagic { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }

        // a payload bit flip trips the checksum with the section named
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        match SectionedFile::from_bytes(&flipped, 3) {
            Err(SectionReadError::ChecksumMismatch { section }) => assert_eq!(section, "data"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn csr_codec_round_trip_and_validation() {
        for g in [
            generators::triangulated_grid(6, 5),
            generators::complete(5),
            CsrGraph::empty(4),
            CsrGraph::empty(0),
        ] {
            let mut out = Vec::new();
            encode_csr(&g, &mut out);
            assert_eq!(out.len(), encoded_csr_len(&g));
            let mut r = SliceReader::new(&out);
            let back = decode_csr(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(back, g);
        }

        // truncated payload
        let mut out = Vec::new();
        encode_csr(&generators::cycle(5), &mut out);
        let cut = out.len() - 3;
        assert_eq!(
            decode_csr(&mut SliceReader::new(&out[..cut])),
            Err(CsrDecodeError::Truncated)
        );

        // hand-built payloads with structural violations
        fn raw(n: u64, offsets: &[u64], neighbors: &[u32]) -> Vec<u8> {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            push_u64(&mut out, neighbors.len() as u64);
            for &o in offsets {
                push_u64(&mut out, o);
            }
            push_u32_slice(&mut out, neighbors);
            out
        }
        // decreasing offsets
        let bad = raw(2, &[0, 2, 1], &[1, 0]);
        assert!(matches!(
            decode_csr(&mut SliceReader::new(&bad)),
            Err(CsrDecodeError::BadOffsets { .. })
        ));
        // neighbour out of range
        let bad = raw(2, &[0, 1, 2], &[5, 0]);
        assert_eq!(
            decode_csr(&mut SliceReader::new(&bad)),
            Err(CsrDecodeError::NeighborOutOfRange {
                vertex: 0,
                neighbor: 5
            })
        );
        // self loop
        let bad = raw(2, &[0, 1, 2], &[0, 0]);
        assert_eq!(
            decode_csr(&mut SliceReader::new(&bad)),
            Err(CsrDecodeError::SelfLoop { vertex: 0 })
        );
        // unsorted adjacency
        let bad = raw(3, &[0, 2, 3, 3], &[2, 1, 0]);
        assert_eq!(
            decode_csr(&mut SliceReader::new(&bad)),
            Err(CsrDecodeError::AdjacencyNotSorted { vertex: 0 })
        );
        // absurd declared size fails cleanly instead of allocating
        let bad = raw(u64::MAX - 1, &[0], &[]);
        assert!(matches!(
            decode_csr(&mut SliceReader::new(&bad)),
            Err(CsrDecodeError::TooLarge { .. }) | Err(CsrDecodeError::Truncated)
        ));
    }
}
