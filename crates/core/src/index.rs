//! The versioned index artifact: build once, serve many queries.
//!
//! Every classic query ([`crate::isomorphism::SubgraphIsomorphism::find_one`],
//! [`crate::connectivity::vertex_connectivity`]) rebuilds from scratch the
//! clustering, the cover windows, a tree decomposition for each batch whose fast
//! path runs out of budget, and (for connectivity) the face–vertex graph. All of
//! those products are **read-only after construction** (Eppstein's
//! preprocess-then-query framing of planar subgraph isomorphism, JGAA 1999), so
//! [`PsiIndex`] freezes these once:
//!
//! * the target graph and the facial walks of its planar embedding,
//! * `rounds` independent k-d covers (Section 2.1), each stored as the streamed
//!   [`CoverBatch`] sequence plus a flat per-batch tree decomposition.
//!
//! A frozen index is served as an epoch-0 [`crate::snapshot::PsiSnapshot`]
//! (`PsiSnapshot::from(index)`), which answers pattern and connectivity queries
//! with per-query scratch only — no rebuild — so thousands of queries run
//! concurrently on the work-stealing pool. Per scanned batch the reader first
//! runs an exhaustive backtracking search (exact whenever it completes under
//! [`FAST_PATH_NODE_BUDGET`] — batches are ~256-vertex disjoint window unions,
//! so it almost always does, in microseconds) and falls back to the stored
//! decomposition's DP only past the budget. Connectivity queries derive the
//! face–vertex graph of Section 5.1 from the stored faces once per served epoch.
//!
//! ## Which queries an index can serve
//!
//! An index built with [`IndexParams`]`{ k, d, .. }` serves any connected pattern
//! with at most `k` vertices **and** diameter at most `d`:
//!
//! * the clustering uses `β = 2k` (Observation 1), so a pattern with `k' ≤ k`
//!   vertices crosses a cluster boundary with probability at most
//!   `(k' − 1)/(2k) ≤ 1/2`;
//! * stored windows span `d + 1` BFS levels `[i, i + d]` for every start
//!   `i ∈ [0, max_level − d]` (clipped at the top). An occurrence of diameter
//!   `d' ≤ d` inside one cluster spans levels `[l, l + d']`; if
//!   `l ≤ max_level − d` the window starting at `l` contains it, otherwise the last
//!   window `[max_level − d, max_level]` does. Either way some stored window
//!   contains the occurrence whenever the clustering retained it.
//!
//! Hence each stored round catches a fixed occurrence with probability ≥ 1/2,
//! exactly as in Theorem 2.4, and a "no" answer after scanning all `rounds` stored
//! covers is wrong with probability at most `2^−rounds` *per occurrence*. Unlike
//! the classic path, which draws `O(log n)` fresh covers per query, the index
//! freezes its randomness at build time — `rounds` is the (user-chosen) knob that
//! trades index size for the "no"-side guarantee. Patterns exceeding `k` or `d`
//! are rejected with a structured [`QueryError`] instead of a silently weakened
//! guarantee.
//!
//! ## On-disk format
//!
//! [`PsiIndex::save`] writes a [`psi_graph::io::SectionedFile`]: magic, schema
//! version ([`INDEX_SCHEMA_VERSION`]), and a checksummed section table over flat
//! little-endian payloads (the same CSR/flat arrays held in memory — loading is
//! validation + wrapping, not re-derivation, except for the decompositions an
//! older artifact marks as layered). Malformed files fail with
//! section-labelled [`IndexLoadError`]s, never panics.

use crate::cover::{map_cover_batches, round_seed, CoverBatch, DEFAULT_BATCH_BUDGET, DEFAULT_SEED};
use crate::pattern::Pattern;
use psi_graph::io::{
    decode_csr, encode_csr, push_u32, push_u32_slice, push_u64, SectionReadError, SectionedFile,
    SliceReader,
};
use psi_graph::{CsrGraph, Vertex};
use psi_planar::{validate_walks, Embedding};
use psi_treedecomp::BinaryTreeDecomposition;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Schema version of the serialised index artifact. Bumped on any layout change;
/// readers reject versions outside `[MIN_INDEX_SCHEMA_VERSION, INDEX_SCHEMA_VERSION]`
/// with [`SectionReadError::UnsupportedVersion`].
///
/// Version history:
/// * **1** — initial sectioned layout; window stamps were dense cluster ids and
///   batches could span clusters (so byte layout depended on shard packing).
/// * **2** — window stamps are cluster *centre vertices* and batches are
///   cluster-pure, making every round's byte stream a pure function of the cluster
///   set — the invariant the incremental [`crate::dynamic`] updates splice against.
/// * **3** — each stored decomposition carries one more word, the number of
///   cover segments whose bags came from the guaranteed-width layered construction
///   instead of the min-degree heuristic. Batches no longer try that
///   construction, so the word is now always written as 0; where the load finds
///   it nonzero, it re-derives the batch's decomposition.
/// * **4** — the stored face–vertex graph (section `fvgraph`) is dropped: no
///   reader used it, since connectivity queries derive the graph from the
///   stored faces once per served epoch. v2 and v3 artifacts still load; their
///   `fvgraph` section is skipped.
pub const INDEX_SCHEMA_VERSION: u32 = 4;

/// Oldest artifact version [`PsiIndex::from_bytes`] still accepts.
pub const MIN_INDEX_SCHEMA_VERSION: u32 = 2;

/// Planar vertex connectivity is at most 5 (Euler), so s–t queries cap there.
pub const CONNECTIVITY_CAP: usize = 5;

/// Build-time parameters of a [`PsiIndex`]; frozen into the artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexParams {
    /// Maximum pattern vertex count the index serves (clustering uses `β = 2k`).
    pub k: u32,
    /// Maximum pattern diameter the index serves (windows span `d + 1` levels).
    pub d: u32,
    /// Number of independent stored cover rounds; a "no" answer is wrong with
    /// probability at most `2^−rounds` per fixed occurrence.
    pub rounds: u32,
    /// Batch budget for packing small windows (see [`crate::cover::batch_budget_for`]).
    pub batch_budget: u32,
    /// Base seed; round `r` derives its clustering seed exactly like round `r` of
    /// the classic query path, so with equal base seeds the index's round `r`
    /// stores every window of at least `k` vertices that round `r` of a classic
    /// `k`-vertex query draws.
    pub seed: u64,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams {
            k: 4,
            d: 2,
            rounds: 3,
            batch_budget: DEFAULT_BATCH_BUDGET as u32,
            seed: DEFAULT_SEED,
        }
    }
}

/// A tree decomposition in flat arrays — the serialised (and resident) form of a
/// [`BinaryTreeDecomposition`]. `children` stores two entries per node
/// (`u32::MAX` for "no child"); `parent` is reconstructed on materialisation.
/// On disk each one also carries schema v3's layered-segment word, written as 0;
/// a batch loaded with a nonzero word gets the decomposition a fresh build stores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatDecomposition {
    /// Bag boundaries: node `i`'s bag is `bag_data[bag_offsets[i]..bag_offsets[i+1]]`.
    pub bag_offsets: Vec<u32>,
    /// Concatenated sorted bags.
    pub bag_data: Vec<Vertex>,
    /// `2 * num_nodes` child ids (`[left, right]` per node, `u32::MAX` for leaves).
    pub children: Vec<u32>,
    /// Root node id.
    pub root: u32,
}

impl FlatDecomposition {
    /// Flattens a binarised decomposition. Child **order** is preserved — the DP's
    /// join order follows it, so witnesses stay bit-identical through a round trip.
    pub fn from_binary(btd: &BinaryTreeDecomposition) -> Self {
        let nodes = btd.num_nodes();
        let mut bag_offsets = Vec::with_capacity(nodes + 1);
        bag_offsets.push(0u32);
        let total: usize = btd.bags.iter().map(|b| b.len()).sum();
        let mut bag_data = Vec::with_capacity(total);
        for bag in &btd.bags {
            bag_data.extend_from_slice(bag);
            bag_offsets.push(bag_data.len() as u32);
        }
        let mut children = Vec::with_capacity(2 * nodes);
        for c in &btd.children {
            match c {
                Some([l, r]) => {
                    children.push(*l as u32);
                    children.push(*r as u32);
                }
                None => {
                    children.push(u32::MAX);
                    children.push(u32::MAX);
                }
            }
        }
        FlatDecomposition {
            bag_offsets,
            bag_data,
            children,
            root: btd.root as u32,
        }
    }

    /// The decomposition the index stores for `batch`: the flattened
    /// [`CoverBatch::decomposition`]. The build and the dynamic index's flush both
    /// store exactly this, so a flushed batch carries the bytes a fresh build of
    /// its content would.
    pub(crate) fn of_batch(batch: &CoverBatch) -> Self {
        FlatDecomposition::from_binary(&batch.decomposition())
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.bag_offsets.len() - 1
    }

    /// Materialises the DP-ready [`BinaryTreeDecomposition`] (per-query scratch;
    /// `O(nodes + bag entries)`). The flat form must be structurally valid —
    /// [`PsiIndex::from_bytes`] validates on load, [`FlatDecomposition::from_binary`]
    /// is valid by construction.
    pub fn to_binary(&self, num_graph_vertices: usize) -> BinaryTreeDecomposition {
        let nodes = self.num_nodes();
        let bags: Vec<Vec<Vertex>> = (0..nodes)
            .map(|i| {
                self.bag_data[self.bag_offsets[i] as usize..self.bag_offsets[i + 1] as usize]
                    .to_vec()
            })
            .collect();
        let mut children: Vec<Option<[usize; 2]>> = Vec::with_capacity(nodes);
        let mut parent = vec![usize::MAX; nodes];
        for i in 0..nodes {
            let l = self.children[2 * i];
            let r = self.children[2 * i + 1];
            if l == u32::MAX {
                children.push(None);
            } else {
                children.push(Some([l as usize, r as usize]));
                parent[l as usize] = i;
                parent[r as usize] = i;
            }
        }
        BinaryTreeDecomposition {
            bags,
            children,
            parent,
            root: self.root as usize,
            num_graph_vertices,
        }
    }
}

/// One stored cover batch: the streamed [`CoverBatch`] plus its precomputed
/// segment-chained decomposition in flat form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexedBatch {
    /// The disjoint-union window batch exactly as the streaming pipeline emitted it.
    pub batch: CoverBatch,
    /// Flattened [`CoverBatch::decomposition`] of `batch`.
    pub decomp: FlatDecomposition,
}

/// The immutable build-once / serve-many index artifact. See the module docs.
///
/// Every section is `Arc`-shared: cloning the index — or handing individual
/// sections to an epoch snapshot ([`crate::snapshot::PsiSnapshot`]) — bumps
/// reference counts instead of copying graphs or batches. `Arc<T>` compares by
/// contents, so the derived `PartialEq` (and with it the freeze bit-identity
/// suite) is unaffected by the sectioning.
#[derive(Clone, Debug, PartialEq)]
pub struct PsiIndex {
    params: IndexParams,
    target: Arc<CsrGraph>,
    /// Facial walks of the embedding, flattened (`face_offsets.len() == faces + 1`).
    face_offsets: Arc<Vec<u64>>,
    face_data: Arc<Vec<Vertex>>,
    /// Stored cover rounds, each a deterministic batch sequence.
    rounds: Vec<Arc<Vec<IndexedBatch>>>,
}

/// The pieces [`PsiIndex::into_parts`] dismantles into (params, target CSR,
/// facial walks, rounds) — exactly what a served or thawed epoch starts from.
pub(crate) type IndexParts = (
    IndexParams,
    Arc<CsrGraph>,
    Vec<Vec<Vertex>>,
    Vec<Arc<Vec<IndexedBatch>>>,
);

impl PsiIndex {
    /// Builds the index from a validated planar embedding. Cost is `rounds` cover
    /// passes plus one decomposition per batch — all of it paid once, none of it
    /// at query time.
    pub fn build(embedding: &Embedding, params: IndexParams) -> PsiIndex {
        assert!(params.k >= 1, "index must serve at least k = 1");
        assert!(params.rounds >= 1, "index needs at least one stored round");
        debug_assert!(embedding.validate().is_ok(), "embedding must be valid");
        let _span = psi_obs::span!(
            "index.build",
            n = embedding.graph.num_vertices(),
            k = params.k,
            rounds = params.rounds,
        );
        let build_start = std::time::Instant::now();
        let rounds = (0..params.rounds)
            .map(|r| {
                let (batches, _stats) = map_cover_batches(
                    &embedding.graph,
                    params.k as usize,
                    params.d as usize,
                    round_seed(params.seed, r.into()),
                    1, // min_vertices: store every window so k' < k patterns are served
                    params.batch_budget as usize,
                    |batch| IndexedBatch {
                        decomp: FlatDecomposition::of_batch(&batch),
                        batch,
                    },
                );
                batches
            })
            .collect();
        let index = PsiIndex::from_parts(params, embedding, rounds);
        let metrics = crate::obs::metrics();
        metrics.index_builds_total.add(1);
        metrics
            .index_build_ns
            .record_duration(build_start.elapsed());
        index
    }

    /// Assembles an index from already-built parts — the last step of
    /// [`PsiIndex::build`] and of the dynamic index's freeze, which maintains the
    /// rounds incrementally and must produce the exact struct (and therefore the
    /// exact bytes) a from-scratch build would. `faces` are the embedding's facial
    /// walks in canonical order; `rounds` must be the canonical batch streams
    /// (cluster-pure, ascending centre order).
    pub(crate) fn from_parts(
        params: IndexParams,
        embedding: &Embedding,
        rounds: Vec<Vec<IndexedBatch>>,
    ) -> PsiIndex {
        let mut face_offsets = Vec::with_capacity(embedding.faces.len() + 1);
        face_offsets.push(0u64);
        let total: usize = embedding.faces.iter().map(|f| f.len()).sum();
        let mut face_data = Vec::with_capacity(total);
        for face in &embedding.faces {
            face_data.extend_from_slice(face);
            face_offsets.push(face_data.len() as u64);
        }
        PsiIndex {
            params,
            target: Arc::new(embedding.graph.clone()),
            face_offsets: Arc::new(face_offsets),
            face_data: Arc::new(face_data),
            rounds: rounds.into_iter().map(Arc::new).collect(),
        }
    }

    /// Dismantles the index into the parts a served or thawed epoch starts from:
    /// the target and rounds stay `Arc`-wrapped (a freshly loaded index moves
    /// them without copying); the faces are unflattened into walks.
    pub(crate) fn into_parts(self) -> IndexParts {
        let walks = self.walks();
        (self.params, self.target, walks, self.rounds)
    }

    /// The build parameters frozen into this index.
    pub fn params(&self) -> IndexParams {
        self.params
    }

    /// The indexed target graph.
    pub fn target(&self) -> &CsrGraph {
        &self.target
    }

    /// Stored cover rounds (each a deterministic, `Arc`-shared batch sequence).
    pub fn rounds(&self) -> &[Arc<Vec<IndexedBatch>>] {
        &self.rounds
    }

    /// Materialises the stored embedding (target plus facial walks). `O(n + m)`.
    pub fn embedding(&self) -> Embedding {
        Embedding::new((*self.target).clone(), self.walks())
    }

    /// The stored facial walks, unflattened.
    fn walks(&self) -> Vec<Vec<Vertex>> {
        self.face_offsets
            .windows(2)
            .map(|w| self.face_data[w[0] as usize..w[1] as usize].to_vec())
            .collect()
    }

    // --- serialisation ----------------------------------------------------

    /// Serialises the index to its sectioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut file = SectionedFile::new(INDEX_SCHEMA_VERSION);

        let mut meta = Vec::new();
        push_u32(&mut meta, self.params.k);
        push_u32(&mut meta, self.params.d);
        push_u32(&mut meta, self.params.rounds);
        push_u32(&mut meta, self.params.batch_budget);
        push_u64(&mut meta, self.params.seed);
        push_u64(&mut meta, self.target.num_vertices() as u64);
        push_u64(&mut meta, self.target.num_edges() as u64);
        file.push_section("meta", meta);

        let mut target = Vec::new();
        encode_csr(&self.target, &mut target);
        file.push_section("target", target);

        let mut faces = Vec::new();
        push_u64(&mut faces, (self.face_offsets.len() - 1) as u64);
        push_u64(&mut faces, self.face_data.len() as u64);
        for &o in self.face_offsets.iter() {
            push_u64(&mut faces, o);
        }
        push_u32_slice(&mut faces, &self.face_data);
        file.push_section("faces", faces);

        for (r, batches) in self.rounds.iter().enumerate() {
            let mut payload = Vec::new();
            push_u64(&mut payload, batches.len() as u64);
            for ib in batches.iter() {
                encode_csr(&ib.batch.graph, &mut payload);
                push_u64(&mut payload, ib.batch.local_to_global.len() as u64);
                push_u32_slice(&mut payload, &ib.batch.local_to_global);
                push_u64(&mut payload, ib.batch.windows.len() as u64);
                for &(cluster, level_start, offset) in &ib.batch.windows {
                    push_u32(&mut payload, cluster);
                    push_u32(&mut payload, level_start);
                    push_u32(&mut payload, offset);
                }
                push_u64(&mut payload, ib.decomp.num_nodes() as u64);
                push_u32(&mut payload, ib.decomp.root);
                push_u32(&mut payload, 0); // the v3 layered-segment word
                push_u32_slice(&mut payload, &ib.decomp.bag_offsets);
                push_u32_slice(&mut payload, &ib.decomp.bag_data);
                push_u32_slice(&mut payload, &ib.decomp.children);
            }
            file.push_section(&format!("round{r}"), payload);
        }
        file.to_bytes()
    }

    /// Writes the index artifact to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads an index from a file (see [`PsiIndex::from_bytes`]).
    pub fn load(path: impl AsRef<Path>) -> Result<PsiIndex, IndexLoadError> {
        let data = std::fs::read(path).map_err(SectionReadError::Io)?;
        PsiIndex::from_bytes(&data)
    }

    /// Deserialises and **validates** an index: container framing and checksums
    /// first ([`SectionedFile::from_bytes`]), then every structural invariant the
    /// query engines rely on — CSR well-formedness, id ranges, faces that form a
    /// plane embedding of the target ([`psi_planar::validate_walks`] with genus
    /// 0), window offsets, decomposition tree shape. Load never re-derives
    /// covers; it re-derives a batch's decomposition only where a nonzero
    /// layered-segment word marks bags of the retired layered construction, so
    /// the loaded index equals a fresh build of its content.
    pub fn from_bytes(data: &[u8]) -> Result<PsiIndex, IndexLoadError> {
        // Current version first; on a version mismatch retry with any older
        // still-supported schema (v2 lacks the per-batch layered-segment word;
        // v2 and v3 carry an `fvgraph` section, which is skipped).
        let file = match SectionedFile::from_bytes(data, INDEX_SCHEMA_VERSION) {
            Ok(file) => file,
            Err(SectionReadError::UnsupportedVersion { found, .. })
                if (MIN_INDEX_SCHEMA_VERSION..INDEX_SCHEMA_VERSION).contains(&found) =>
            {
                SectionedFile::from_bytes(data, found)?
            }
            Err(e) => return Err(e.into()),
        };
        let schema_version = file.version;
        let section = |name: &str| -> Result<&[u8], IndexLoadError> {
            file.section(name).ok_or_else(|| IndexLoadError::Section {
                section: name.to_string(),
                detail: "section missing".to_string(),
            })
        };
        let fail = |name: &str, detail: &str| -> IndexLoadError {
            IndexLoadError::Section {
                section: name.to_string(),
                detail: detail.to_string(),
            }
        };

        // meta
        let mut r = SliceReader::new(section("meta")?);
        let mut meta_u32 = |det: &str| r.take_u32().ok_or_else(|| fail("meta", det));
        let k = meta_u32("missing k")?;
        let d = meta_u32("missing d")?;
        let rounds_declared = meta_u32("missing rounds")?;
        let batch_budget = meta_u32("missing batch_budget")?;
        let seed = r.take_u64().ok_or_else(|| fail("meta", "missing seed"))?;
        let n_declared = r.take_u64().ok_or_else(|| fail("meta", "missing n"))?;
        let m_declared = r.take_u64().ok_or_else(|| fail("meta", "missing m"))?;
        if !r.is_empty() {
            return Err(fail("meta", "trailing bytes"));
        }
        if k == 0 || rounds_declared == 0 {
            return Err(fail("meta", "k and rounds must be at least 1"));
        }
        let params = IndexParams {
            k,
            d,
            rounds: rounds_declared,
            batch_budget,
            seed,
        };

        // target graph
        let mut r = SliceReader::new(section("target")?);
        let target = decode_csr(&mut r).map_err(|e| IndexLoadError::Csr {
            section: "target".to_string(),
            error: e,
        })?;
        if !r.is_empty() {
            return Err(fail("target", "trailing bytes"));
        }
        let n = target.num_vertices();
        if n as u64 != n_declared || target.num_edges() as u64 != m_declared {
            return Err(fail("target", "graph size disagrees with meta"));
        }

        // faces
        let mut r = SliceReader::new(section("faces")?);
        let num_faces = r
            .take_u64()
            .ok_or_else(|| fail("faces", "missing face count"))?;
        let total = r
            .take_u64()
            .ok_or_else(|| fail("faces", "missing walk total"))?;
        let num_faces_us =
            usize::try_from(num_faces).map_err(|_| fail("faces", "face count too large"))?;
        let total_us = usize::try_from(total).map_err(|_| fail("faces", "walk total too large"))?;
        let face_offsets = r
            .take_u64_vec(
                num_faces_us
                    .checked_add(1)
                    .ok_or_else(|| fail("faces", "face count too large"))?,
            )
            .ok_or_else(|| fail("faces", "truncated offsets"))?;
        let face_data = r
            .take_u32_vec(total_us)
            .ok_or_else(|| fail("faces", "truncated walks"))?;
        if !r.is_empty() {
            return Err(fail("faces", "trailing bytes"));
        }
        if face_offsets.first() != Some(&0)
            || face_offsets.last() != Some(&total)
            || face_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(fail("faces", "offsets not monotone"));
        }
        if face_data.iter().any(|&v| v as usize >= n) {
            return Err(fail("faces", "walk vertex out of range"));
        }
        // The walks must embed the target in the plane: the readers derive the
        // face–vertex graph from them, the live engine splices them, and a
        // freeze re-embeds the target expecting it planar.
        let walks = face_offsets
            .windows(2)
            .map(|w| &face_data[w[0] as usize..w[1] as usize]);
        match validate_walks(&target, walks) {
            Ok(0) => {}
            Ok(genus) => {
                let detail = format!("walks embed the target on genus {genus}, not the plane");
                return Err(fail("faces", &detail));
            }
            Err(e) => {
                return Err(fail(
                    "faces",
                    &format!("not an embedding of the target: {e}"),
                ))
            }
        }

        // rounds
        let mut rounds = Vec::with_capacity(rounds_declared as usize);
        for round in 0..rounds_declared {
            let name = format!("round{round}");
            let payload = section(&name)?;
            rounds.push(Arc::new(decode_round(&name, payload, n, schema_version)?));
        }

        Ok(PsiIndex {
            params,
            target: Arc::new(target),
            face_offsets: Arc::new(face_offsets),
            face_data: Arc::new(face_data),
            rounds,
        })
    }
}

/// Decodes and validates one round's batch list.
fn decode_round(
    name: &str,
    payload: &[u8],
    target_n: usize,
    schema_version: u32,
) -> Result<Vec<IndexedBatch>, IndexLoadError> {
    let fail = |detail: String| IndexLoadError::Section {
        section: name.to_string(),
        detail,
    };
    let mut r = SliceReader::new(payload);
    let num_batches = r
        .take_u64()
        .ok_or_else(|| fail("missing batch count".into()))?;
    let num_batches =
        usize::try_from(num_batches).map_err(|_| fail("batch count too large".into()))?;
    let mut batches = Vec::with_capacity(num_batches.min(1 << 20));
    for b in 0..num_batches {
        let graph = decode_csr(&mut r).map_err(|e| IndexLoadError::Csr {
            section: name.to_string(),
            error: e,
        })?;
        let bn = graph.num_vertices();
        let l2g_len = r
            .take_u64()
            .ok_or_else(|| fail(format!("batch {b}: missing map length")))?;
        if l2g_len != bn as u64 {
            return Err(fail(format!("batch {b}: map length != batch vertices")));
        }
        let local_to_global = r
            .take_u32_vec(bn)
            .ok_or_else(|| fail(format!("batch {b}: truncated map")))?;
        if local_to_global.iter().any(|&v| v as usize >= target_n) {
            return Err(fail(format!("batch {b}: map vertex out of range")));
        }
        let num_windows = r
            .take_u64()
            .ok_or_else(|| fail(format!("batch {b}: missing window count")))?;
        let num_windows = usize::try_from(num_windows)
            .map_err(|_| fail(format!("batch {b}: window count too large")))?;
        if num_windows == 0 || num_windows > bn.max(1) {
            return Err(fail(format!("batch {b}: implausible window count")));
        }
        let mut windows = Vec::with_capacity(num_windows);
        for w in 0..num_windows {
            let cluster = r
                .take_u32()
                .ok_or_else(|| fail(format!("batch {b}: truncated windows")))?;
            let level_start = r
                .take_u32()
                .ok_or_else(|| fail(format!("batch {b}: truncated windows")))?;
            let offset = r
                .take_u32()
                .ok_or_else(|| fail(format!("batch {b}: truncated windows")))?;
            let prev = windows.last().map(|&(_, _, o)| o).unwrap_or(0);
            if (w == 0 && offset != 0) || offset < prev || offset as usize > bn {
                return Err(fail(format!("batch {b}: window offsets not monotone")));
            }
            windows.push((cluster, level_start, offset));
        }
        let (decomp, layered) = decode_decomposition(&mut r, name, b, bn, schema_version)?;
        let batch = CoverBatch {
            graph,
            local_to_global,
            windows,
        };
        // A nonzero layered-segment word marks bags of the retired layered
        // construction: re-derive them, so the index equals a fresh build.
        let decomp = if layered {
            FlatDecomposition::of_batch(&batch)
        } else {
            decomp
        };
        batches.push(IndexedBatch { batch, decomp });
    }
    if !r.is_empty() {
        return Err(fail("trailing bytes".into()));
    }
    Ok(batches)
}

/// Decodes and validates one flat decomposition (bounds, monotone bag offsets, and
/// a full tree-shape check: every non-root has exactly one parent and the root
/// reaches every node — the DP's postorder traversal relies on it), and whether
/// its layered-segment word is nonzero.
fn decode_decomposition(
    r: &mut SliceReader,
    name: &str,
    batch: usize,
    batch_n: usize,
    schema_version: u32,
) -> Result<(FlatDecomposition, bool), IndexLoadError> {
    let fail = |detail: String| IndexLoadError::Section {
        section: name.to_string(),
        detail,
    };
    let nodes = r
        .take_u64()
        .ok_or_else(|| fail(format!("batch {batch}: missing decomposition size")))?;
    let nodes = usize::try_from(nodes)
        .ok()
        .filter(|n| n.checked_add(1).is_some())
        .ok_or_else(|| fail(format!("batch {batch}: decomposition too large")))?;
    if nodes == 0 {
        return Err(fail(format!("batch {batch}: empty decomposition")));
    }
    let root = r
        .take_u32()
        .ok_or_else(|| fail(format!("batch {batch}: missing root")))?;
    if root as usize >= nodes {
        return Err(fail(format!("batch {batch}: root out of range")));
    }
    // v3 added the layered-segment word; v2 predates the layered construction.
    let layered = schema_version >= 3
        && r.take_u32()
            .ok_or_else(|| fail(format!("batch {batch}: missing layered count")))?
            != 0;
    let bag_offsets = r
        .take_u32_vec(nodes + 1)
        .ok_or_else(|| fail(format!("batch {batch}: truncated bag offsets")))?;
    if bag_offsets[0] != 0 || bag_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(fail(format!("batch {batch}: bag offsets not monotone")));
    }
    let bag_total = *bag_offsets.last().unwrap() as usize;
    let bag_data = r
        .take_u32_vec(bag_total)
        .ok_or_else(|| fail(format!("batch {batch}: truncated bags")))?;
    if bag_data.iter().any(|&v| v as usize >= batch_n) {
        return Err(fail(format!("batch {batch}: bag vertex out of range")));
    }
    let children = r
        .take_u32_vec(2 * nodes)
        .ok_or_else(|| fail(format!("batch {batch}: truncated children")))?;
    // Tree shape: interior nodes have two distinct in-range children; each node has
    // at most one parent; the root reaches everything (counted, not traversed).
    let mut indegree = vec![0u8; nodes];
    for i in 0..nodes {
        let (l, ri) = (children[2 * i], children[2 * i + 1]);
        if (l == u32::MAX) != (ri == u32::MAX) {
            return Err(fail(format!(
                "batch {batch}: half-missing children at node {i}"
            )));
        }
        if l != u32::MAX {
            if l as usize >= nodes || ri as usize >= nodes || l == ri {
                return Err(fail(format!("batch {batch}: bad children at node {i}")));
            }
            for c in [l as usize, ri as usize] {
                indegree[c] += 1;
                if indegree[c] > 1 || c == root as usize {
                    return Err(fail(format!(
                        "batch {batch}: node {c} has multiple parents"
                    )));
                }
            }
        }
    }
    if indegree
        .iter()
        .enumerate()
        .any(|(i, &d)| d == 0 && i != root as usize)
    {
        return Err(fail(format!(
            "batch {batch}: decomposition tree disconnected"
        )));
    }
    let decomp = FlatDecomposition {
        bag_offsets,
        bag_data,
        children,
        root,
    };
    Ok((decomp, layered))
}

/// A failure while loading an index artifact. Container-level problems (framing,
/// checksums, version) carry the [`SectionReadError`]; semantic problems name the
/// section and what is wrong with it.
#[derive(Debug)]
pub enum IndexLoadError {
    /// Container-level failure (magic, version, table, checksum, I/O).
    File(SectionReadError),
    /// A section's CSR graph payload failed structural validation.
    Csr {
        /// The section the graph lives in.
        section: String,
        /// The structural violation.
        error: psi_graph::io::CsrDecodeError,
    },
    /// A section is missing or semantically malformed.
    Section {
        /// The offending section.
        section: String,
        /// What is wrong.
        detail: String,
    },
}

impl fmt::Display for IndexLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexLoadError::File(e) => write!(f, "index container: {e}"),
            IndexLoadError::Csr { section, error } => {
                write!(f, "section {section:?}: csr graph: {error}")
            }
            IndexLoadError::Section { section, detail } => {
                write!(f, "section {section:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexLoadError {}

impl From<SectionReadError> for IndexLoadError {
    fn from(e: SectionReadError) -> Self {
        IndexLoadError::File(e)
    }
}

/// A query the index cannot serve (with the reason), or malformed query input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Pattern has more vertices than the index's `k`.
    PatternTooLarge { k: usize, max_k: usize },
    /// Pattern diameter exceeds the index's `d` (stored windows are too short).
    DiameterTooLarge { diameter: usize, max_d: usize },
    /// The pattern is disconnected. A frozen index cannot serve it (the
    /// colour-coding reduction draws fresh covers per colouring, incompatible
    /// with frozen rounds), and listing is defined for connected patterns only.
    DisconnectedPattern,
    /// An s–t endpoint is not a vertex of the indexed target.
    VertexOutOfRange { vertex: Vertex, n: usize },
    /// An s–t query with `s == t`.
    IdenticalEndpoints { vertex: Vertex },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::PatternTooLarge { k, max_k } => {
                write!(f, "pattern has {k} vertices; index built for k <= {max_k}")
            }
            QueryError::DiameterTooLarge { diameter, max_d } => {
                write!(
                    f,
                    "pattern diameter {diameter}; index built for d <= {max_d}"
                )
            }
            QueryError::DisconnectedPattern => {
                write!(
                    f,
                    "pattern is disconnected: index queries and listing need a connected pattern"
                )
            }
            QueryError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for indexed target (n = {n})"
                )
            }
            QueryError::IdenticalEndpoints { vertex } => {
                write!(f, "s and t are both {vertex}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Node budget for the exhaustive backtracking fast path on one batch, stored
/// or streamed (the default [`crate::isomorphism::DpStrategy::FastPath`]).
/// Every candidate vertex considered costs one node. The search is *exact*
/// whenever it completes under the budget — both "occurs" and "absent" verdicts
/// are certain, because batches are disjoint unions of windows and a connected
/// pattern cannot span components, so plain subgraph search on the batch graph
/// decides exactly the predicate the treewidth DP decides. Past the budget the
/// batch falls back to the DP, whose cost is guaranteed polynomial in the batch
/// size — the budget only caps the *time* of the fast path, never its soundness.
///
/// At ~256 vertices per batch and degree ≤ 6 targets, complete searches for
/// k ≤ 4 patterns run in tens of thousands of nodes (microseconds), versus
/// milliseconds for one DP table build — a >100× cut on both first-hit positive
/// queries and exhaustive negative scans.
pub const FAST_PATH_NODE_BUDGET: usize = 1 << 16;

/// A connected visit order over a pattern, computed once per query and replayed by
/// the backtracking fast path on every scanned batch: BFS order from pattern
/// vertex 0 plus, per position, the earlier positions it must be adjacent to.
pub(crate) struct MatchPlan {
    /// Pattern vertex at each visit position.
    order: Vec<u32>,
    /// For position `i`: positions `j < i` with a pattern edge `{order[j], order[i]}`.
    back_edges: Vec<Vec<u32>>,
}

impl MatchPlan {
    /// Plans `pattern`, which must be connected and non-empty (the engine's
    /// admission check guarantees both).
    pub(crate) fn new(pattern: &Pattern) -> Self {
        let k = pattern.k();
        let mut order = Vec::with_capacity(k);
        let mut pos = vec![u32::MAX; k];
        let mut queue = std::collections::VecDeque::new();
        pos[0] = 0;
        order.push(0u32);
        queue.push_back(0u32);
        while let Some(u) = queue.pop_front() {
            for &v in pattern.neighbors(u as usize) {
                if pos[v as usize] == u32::MAX {
                    pos[v as usize] = order.len() as u32;
                    order.push(v);
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(order.len(), k, "MatchPlan needs a connected pattern");
        let back_edges = order
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                pattern
                    .neighbors(u as usize)
                    .iter()
                    .filter_map(|&v| {
                        let p = pos[v as usize];
                        (p < i as u32).then_some(p)
                    })
                    .collect()
            })
            .collect();
        MatchPlan { order, back_edges }
    }

    /// Converts a by-position assignment into the by-pattern-vertex occurrence
    /// layout (`occ[i]` hosts pattern vertex `i`) the rest of the crate uses.
    pub(crate) fn to_occurrence(&self, assigned: &[Vertex]) -> Vec<Vertex> {
        let mut occ = vec![0; assigned.len()];
        for (i, &u) in self.order.iter().enumerate() {
            occ[u as usize] = assigned[i];
        }
        occ
    }
}

/// Depth-first exhaustive search for the planned pattern in one batch graph.
/// `Ok(true)` leaves the full assignment in `assigned` (by plan position);
/// `Ok(false)` means the pattern is exhaustively absent from this batch;
/// `Err(())` means the node budget ran out and the verdict is unknown.
pub(crate) fn backtrack_step(
    plan: &MatchPlan,
    graph: &CsrGraph,
    depth: usize,
    assigned: &mut Vec<Vertex>,
    budget: &mut usize,
) -> Result<bool, ()> {
    if depth == plan.order.len() {
        return Ok(true);
    }
    let backs = &plan.back_edges[depth];
    if backs.is_empty() {
        // Only the root of the visit order has no earlier neighbour.
        debug_assert_eq!(depth, 0);
        for v in 0..graph.num_vertices() as Vertex {
            if *budget == 0 {
                return Err(());
            }
            *budget -= 1;
            assigned.push(v);
            if backtrack_step(plan, graph, depth + 1, assigned, budget)? {
                return Ok(true);
            }
            assigned.pop();
        }
        return Ok(false);
    }
    let anchor = assigned[backs[0] as usize];
    'candidates: for &v in graph.neighbors(anchor) {
        if *budget == 0 {
            return Err(());
        }
        *budget -= 1;
        if assigned.contains(&v) {
            continue;
        }
        for &b in &backs[1..] {
            if !graph.neighbors(assigned[b as usize]).contains(&v) {
                continue 'candidates;
            }
        }
        assigned.push(v);
        if backtrack_step(plan, graph, depth + 1, assigned, budget)? {
            return Ok(true);
        }
        assigned.pop();
    }
    Ok(false)
}

/// Whether any stored window of `ib` is large enough to host `k` vertices.
pub(crate) fn batch_can_host(ib: &IndexedBatch, k: usize) -> bool {
    ib.batch
        .segment_ranges()
        .any(|(start, end)| end - start >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::ConnectivityMode;
    use crate::isomorphism::batch_dp;
    use crate::pattern::verify_occurrence;
    use crate::snapshot::PsiSnapshot;
    use psi_planar::generators as pg;

    fn small_index() -> PsiIndex {
        let e = pg::triangulated_grid_embedded(12, 12);
        PsiIndex::build(&e, IndexParams::default())
    }

    #[test]
    fn index_serves_classic_patterns() {
        let index = small_index();
        let engine = PsiSnapshot::from(index.clone());
        assert!(engine.decide(&Pattern::triangle()).unwrap());
        assert!(engine.decide(&Pattern::cycle(4)).unwrap());
        assert!(!engine.decide(&Pattern::clique(4)).unwrap());
        let occ = engine.find_one(&Pattern::cycle(4)).unwrap().unwrap();
        assert!(verify_occurrence(&Pattern::cycle(4), index.target(), &occ));
    }

    #[test]
    fn fast_path_agrees_with_the_dp_on_every_stored_batch() {
        // The backtracking fast path and the decomposition DP decide the same
        // predicate (pattern occurrence in the batch's disjoint window union);
        // check per-batch verdict equality across pattern shapes on a real index.
        let index = small_index();
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::clique(4),
            Pattern::path(3),
            Pattern::star(3),
        ] {
            let plan = MatchPlan::new(&pattern);
            for round in index.rounds() {
                for ib in round.iter() {
                    let mut assigned = Vec::new();
                    let mut budget = FAST_PATH_NODE_BUDGET;
                    let fast =
                        backtrack_step(&plan, &ib.batch.graph, 0, &mut assigned, &mut budget)
                            .expect("~256-vertex batches complete under the budget");
                    let btd = ib.decomp.to_binary(ib.batch.graph.num_vertices());
                    let dp = batch_dp(&pattern, &ib.batch.graph, &btd);
                    assert_eq!(fast, dp.is_some(), "fast path and DP disagree on a batch");
                }
            }
        }
    }

    #[test]
    fn fast_path_budget_exhaustion_is_reported_not_wrong() {
        // With a starved budget the search must say "unknown", never guess.
        let index = small_index();
        let ib = &index.rounds()[0][0];
        let plan = MatchPlan::new(&Pattern::cycle(4));
        let mut assigned = Vec::new();
        let mut budget = 1usize;
        assert_eq!(
            backtrack_step(&plan, &ib.batch.graph, 0, &mut assigned, &mut budget),
            Err(())
        );
    }

    #[test]
    fn index_rejects_unservable_patterns() {
        let engine = PsiSnapshot::from(small_index());
        assert_eq!(
            engine.decide(&Pattern::clique(5)),
            Err(QueryError::PatternTooLarge { k: 5, max_k: 4 })
        );
        // P4 has diameter 3 > d = 2
        assert_eq!(
            engine.decide(&Pattern::path(4)),
            Err(QueryError::DiameterTooLarge {
                diameter: 3,
                max_d: 2
            })
        );
        let two_edges = Pattern::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            engine.decide(&two_edges),
            Err(QueryError::DisconnectedPattern)
        );
        // trivial cases short-circuit
        assert!(engine.decide(&Pattern::empty()).unwrap());
        assert!(engine
            .find_one(&Pattern::single_vertex())
            .unwrap()
            .is_some());
    }

    #[test]
    fn batch_answers_in_input_order() {
        let engine = PsiSnapshot::from(small_index());
        let patterns = vec![
            Pattern::cycle(4),
            Pattern::clique(4),
            Pattern::triangle(),
            Pattern::clique(5),
        ];
        let answers = engine.decide_batch(&patterns);
        assert_eq!(answers[0], Ok(true));
        assert_eq!(answers[1], Ok(false));
        assert_eq!(answers[2], Ok(true));
        assert!(answers[3].is_err());
        // batch results equal one-at-a-time results
        for (p, a) in patterns.iter().zip(&answers) {
            assert_eq!(*a, engine.decide(p));
        }
    }

    #[test]
    fn connectivity_batch_and_global() {
        let e = pg::triangulated_grid_embedded(8, 8);
        let engine = PsiSnapshot::from(PsiIndex::build(&e, IndexParams::default()));
        // corner (w-1, 0) of the triangulated grid has degree 2
        let global = engine.vertex_connectivity(ConnectivityMode::WholeGraph, 1);
        assert_eq!(global.connectivity, 2);
        let fresh = crate::connectivity::vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
        assert_eq!(global.connectivity, fresh.connectivity);
        assert_eq!(global.cut, fresh.cut);

        let n = engine.num_vertices() as Vertex;
        let answers = engine.connectivity_batch(&[(0, n - 1), (0, 0), (0, n), (1, 2)]);
        assert!(matches!(answers[0], Ok(c) if c >= 2));
        assert_eq!(
            answers[1],
            Err(QueryError::IdenticalEndpoints { vertex: 0 })
        );
        assert_eq!(
            answers[2],
            Err(QueryError::VertexOutOfRange {
                vertex: n,
                n: n as usize
            })
        );
        assert!(answers[3].is_ok());
    }

    #[test]
    fn flat_decomposition_round_trips() {
        let e = pg::triangulated_grid_embedded(9, 7);
        let index = PsiIndex::build(&e, IndexParams::default());
        for ib in index.rounds().iter().flat_map(|r| r.iter()).take(10) {
            let btd = ib.batch.decomposition();
            let flat = FlatDecomposition::of_batch(&ib.batch);
            assert_eq!(flat, ib.decomp);
            let back = flat.to_binary(ib.batch.graph.num_vertices());
            assert_eq!(back.bags, btd.bags);
            assert_eq!(back.children, btd.children);
            assert_eq!(back.parent, btd.parent);
            assert_eq!(back.root, btd.root);
            assert_eq!(back.num_graph_vertices, btd.num_graph_vertices);
        }
    }

    /// The windows of `batch` with at least `k` vertices, as `(centre, level
    /// start, vertices)` in stored order.
    fn windows_of(batch: &CoverBatch, k: usize) -> Vec<(u32, u32, Vec<Vertex>)> {
        batch
            .segment_ranges()
            .zip(&batch.windows)
            .filter(|&((start, end), _)| end - start >= k)
            .map(|((start, end), &(c, level, _))| {
                (c, level, batch.local_to_global[start..end].to_vec())
            })
            .collect()
    }

    #[test]
    fn stored_rounds_hold_the_default_classic_query_covers() {
        // The default index (k = 4, d = 2) and a default classic C4 query share
        // their base seed, so each stored round's windows of 4 or more vertices
        // are exactly the windows the query's cover holds in that round.
        let g = psi_graph::generators::triangulated_grid(30, 30);
        let embedding = psi_planar::planar_embedding(&g).unwrap();
        let index = PsiIndex::build(&embedding, IndexParams::default());
        let c4 = Pattern::cycle(4);
        let (k, d) = (c4.k(), c4.diameter());
        assert_eq!((k as u32, d as u32), (index.params().k, index.params().d));
        for (r, round) in index.rounds().iter().enumerate() {
            let stored: Vec<_> = round
                .iter()
                .flat_map(|ib| windows_of(&ib.batch, k))
                .collect();
            let seed = round_seed(DEFAULT_SEED, r as u64);
            let budget = crate::cover::batch_budget_for(k);
            let (drawn, _) = map_cover_batches(&g, k, d, seed, k, budget, |b| windows_of(&b, k));
            assert!(!stored.is_empty());
            assert_eq!(stored, drawn.concat(), "round {r}");
        }
    }

    #[test]
    fn serialisation_round_trips_in_memory() {
        let index = small_index();
        let bytes = index.to_bytes();
        let back = PsiIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, index);
        // byte-idempotent
        assert_eq!(back.to_bytes(), bytes);
    }

    /// The `fvgraph` section v2 and v3 artifacts carried: the original vertex
    /// count, then the face–vertex graph of the stored embedding as CSR.
    fn legacy_fvgraph_section(index: &PsiIndex) -> Vec<u8> {
        let mut fv = Vec::new();
        push_u64(&mut fv, index.target().num_vertices() as u64);
        encode_csr(
            &psi_planar::face_vertex_graph(&index.embedding()).graph,
            &mut fv,
        );
        fv
    }

    /// Encodes `index`'s rounds by hand into `file`. With `layered_word` each
    /// batch stores other bags than its own (one bag holding every vertex) and,
    /// after their root, a nonzero layered-segment word (the batch's window
    /// count), as artifacts written while batches tried the layered construction
    /// could; without it, the v2 layout.
    fn push_rounds_by_hand(file: &mut SectionedFile, index: &PsiIndex, layered_word: bool) {
        for (r, batches) in index.rounds.iter().enumerate() {
            let mut payload = Vec::new();
            push_u64(&mut payload, batches.len() as u64);
            for ib in batches.iter() {
                encode_csr(&ib.batch.graph, &mut payload);
                push_u64(&mut payload, ib.batch.local_to_global.len() as u64);
                push_u32_slice(&mut payload, &ib.batch.local_to_global);
                push_u64(&mut payload, ib.batch.windows.len() as u64);
                for &(cluster, level_start, offset) in &ib.batch.windows {
                    push_u32(&mut payload, cluster);
                    push_u32(&mut payload, level_start);
                    push_u32(&mut payload, offset);
                }
                if layered_word {
                    let n = ib.batch.graph.num_vertices() as u32;
                    push_u64(&mut payload, 1);
                    push_u32(&mut payload, 0);
                    push_u32(&mut payload, ib.batch.num_windows() as u32);
                    push_u32_slice(&mut payload, &[0, n]);
                    push_u32_slice(&mut payload, &(0..n).collect::<Vec<_>>());
                    push_u32_slice(&mut payload, &[u32::MAX, u32::MAX]);
                    continue;
                }
                push_u64(&mut payload, ib.decomp.num_nodes() as u64);
                push_u32(&mut payload, ib.decomp.root);
                push_u32_slice(&mut payload, &ib.decomp.bag_offsets);
                push_u32_slice(&mut payload, &ib.decomp.bag_data);
                push_u32_slice(&mut payload, &ib.decomp.children);
            }
            file.push_section(&format!("round{r}"), payload);
        }
    }

    #[test]
    fn v2_artifacts_still_load() {
        let index = small_index();
        // Re-encode by hand in the v2 layout: the v3 `fvgraph` section, and no
        // per-batch layered-segment word (plus the container version stamp).
        let v4 = SectionedFile::from_bytes(&index.to_bytes(), INDEX_SCHEMA_VERSION).unwrap();
        let mut v2 = SectionedFile::new(2);
        for name in ["meta", "target", "faces"] {
            v2.push_section(name, v4.section(name).unwrap().to_vec());
        }
        v2.push_section("fvgraph", legacy_fvgraph_section(&index));
        push_rounds_by_hand(&mut v2, &index, false);
        let back = PsiIndex::from_bytes(&v2.to_bytes()).unwrap();
        assert_eq!(back.target, index.target);
        for (a, b) in back
            .rounds
            .iter()
            .flat_map(|r| r.iter())
            .zip(index.rounds.iter().flat_map(|r| r.iter()))
        {
            assert_eq!(a.batch, b.batch);
            assert_eq!(a.decomp.bag_offsets, b.decomp.bag_offsets);
            assert_eq!(a.decomp.bag_data, b.decomp.bag_data);
            assert_eq!(a.decomp.children, b.decomp.children);
            assert_eq!(a.decomp.root, b.decomp.root);
        }
        // Re-saving a v2-loaded index writes the current schema.
        let resaved = SectionedFile::from_bytes(&back.to_bytes(), INDEX_SCHEMA_VERSION).unwrap();
        assert_eq!(resaved.version, INDEX_SCHEMA_VERSION);
    }

    #[test]
    fn v3_artifacts_with_fvgraph_still_load() {
        let index = small_index();
        // The v3 layout is the v4 one plus the `fvgraph` section after `faces`.
        let v4 = SectionedFile::from_bytes(&index.to_bytes(), INDEX_SCHEMA_VERSION).unwrap();
        let mut v3 = SectionedFile::new(3);
        for name in v4.section_names() {
            v3.push_section(name, v4.section(name).unwrap().to_vec());
            if name == "faces" {
                v3.push_section("fvgraph", legacy_fvgraph_section(&index));
            }
        }
        let v3 = v3.to_bytes();
        assert!(v3.len() > index.to_bytes().len());
        let back = PsiIndex::from_bytes(&v3).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.to_bytes(), index.to_bytes(), "re-saving writes v4");

        // v4 artifacts written while batches tried the layered construction
        // carry nonzero layered-segment words; the load re-derives those
        // batches' decompositions, and re-saving writes the words as 0.
        let mut layered = SectionedFile::new(INDEX_SCHEMA_VERSION);
        for name in ["meta", "target", "faces"] {
            layered.push_section(name, v4.section(name).unwrap().to_vec());
        }
        push_rounds_by_hand(&mut layered, &index, true);
        let layered = layered.to_bytes();
        assert_ne!(layered, index.to_bytes());
        let back = PsiIndex::from_bytes(&layered).unwrap();
        assert_eq!(back, index);
        assert_eq!(
            back.to_bytes(),
            index.to_bytes(),
            "re-saving writes the words as 0"
        );
    }

    #[test]
    fn embedding_and_fv_round_trip() {
        let e = pg::triangulated_grid_embedded(6, 6);
        let index = PsiIndex::build(&e, IndexParams::default());
        let back = index.embedding();
        assert_eq!(back.graph, e.graph);
        assert_eq!(back.faces, e.faces);
        // The face–vertex graph connectivity serves from is derived from the
        // stored faces; it equals the one of the build's embedding.
        let fv = psi_planar::face_vertex_graph(&back);
        let fresh = psi_planar::face_vertex_graph(&e);
        assert_eq!(fv.graph, fresh.graph);
        assert_eq!(fv.num_original, fresh.num_original);
        assert_eq!(fv.face_of, fresh.face_of);
        assert_eq!(fv.walks, fresh.walks);
        assert_eq!(fv.walk_offsets, fresh.walk_offsets);
    }
}
