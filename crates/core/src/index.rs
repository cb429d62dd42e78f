//! The versioned index artifact: build once, serve many queries.
//!
//! Every classic query ([`crate::isomorphism::SubgraphIsomorphism::find_one`],
//! [`crate::connectivity::vertex_connectivity`]) rebuilds from scratch the
//! clustering, the cover windows, a tree decomposition for each batch whose fast
//! path runs out of budget, and (for connectivity) the face–vertex graph. The
//! cover is **read-only after construction** (Eppstein's preprocess-then-query
//! framing of planar subgraph isomorphism, JGAA 1999), so [`PsiIndex`] freezes
//! once what queries consume:
//!
//! * the target graph and the facial walks of its planar embedding,
//! * `rounds` independent k-d covers (Section 2.1), each a `StoredRound`
//!   holding one *window label* per target vertex: the vertex's cluster centre
//!   and the first and last start of the windows that hold it.
//!
//! A window is fixed by two labels of its members, the cluster centre and the
//! BFS level inside the cluster, so the labels are the whole round: the
//! artifact stores one centre per vertex per round. The build and the load
//! label a round in one sequential pass over its centres, and the dynamic
//! index's flush relabels its dirty clusters, all by one rule, a BFS inside
//! each cluster from its centre. No batch is stored. A round's batches, its
//! windows packed exactly as the round's cover pass packs them, are emitted
//! from the labels by one emitter, only where something reads them: the
//! scan's fallback for a root out of budget, and [`PsiIndex::rounds`]. As on
//! the classic path, a batch is decomposed ([`CoverBatch::decomposition`])
//! only when its DP runs.
//!
//! A frozen index is served as an epoch-0 [`crate::snapshot::PsiSnapshot`]
//! (`PsiSnapshot::from(index)`), which answers pattern and connectivity queries
//! with per-query scratch only — no rebuild — so thousands of queries run
//! concurrently on the work-stealing pool. A pattern query scans the target
//! once: an exhaustive backtracking search from each target vertex in turn,
//! under [`FAST_PATH_NODE_BUDGET`] nodes per root, that accepts an occurrence
//! only when the labels put it inside one window of a round. A root whose
//! search runs out of budget (a hub) emits its cluster's batches from each
//! round's labels and sends those holding its windows straight to the batch
//! DP, on a decomposition derived then. Connectivity queries derive the
//! face–vertex graph of Section 5.1 from the stored faces once per served
//! epoch.
//!
//! ## Which queries an index can serve
//!
//! An index built with [`IndexParams`]`{ k, d, .. }` serves any connected pattern
//! with at most `k` vertices **and** diameter at most `d`:
//!
//! * the clustering uses `β = 2k` (Observation 1), so a pattern with `k' ≤ k`
//!   vertices crosses a cluster boundary with probability at most
//!   `(k' − 1)/(2k) ≤ 1/2`;
//! * a round's windows span `d + 1` BFS levels `[i, i + d]` for every start
//!   `i ∈ [0, max_level − d]` (clipped at the top). An occurrence of diameter
//!   `d' ≤ d` inside one cluster spans levels `[l, l + d']`; if
//!   `l ≤ max_level − d` the window starting at `l` contains it, otherwise the last
//!   window `[max_level − d, max_level]` does. Either way some window of the
//!   round contains the occurrence whenever the clustering retained it.
//!
//! A window `[s, s + d]` of a cluster holds a member exactly when `s` lies
//! between the member's first and last window start, so a round keeps an
//! occurrence exactly when its labels give every vertex the same centre and
//! the largest first start is at most the smallest last start — the test the
//! scan applies to each occurrence it completes.
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
//! [`PsiIndex::save`] writes a [`psi_graph::io::SectionedFile`] (through a
//! [`SectionWriter`], which encodes every payload into the one output buffer):
//! magic, schema version ([`INDEX_SCHEMA_VERSION`]), and a checksummed section
//! table over flat little-endian payloads — meta, the target CSR, the faces
//! and, per round, one centre per vertex. Loading is validation + wrapping,
//! not re-derivation, except for the window labels: the load runs the build's
//! label pass over the stored centres, whose BFS also checks that every
//! cluster is connected. Serialising sizes the output once, from the array
//! lengths. Malformed files fail with section-labelled [`IndexLoadError`]s,
//! never panics.

use crate::cover::{
    cover_clustering, label_batches, round_labels, round_seed, ClusterScratch, CoverBatch,
    WindowLabel, DEFAULT_BATCH_BUDGET, DEFAULT_SEED,
};
use crate::pattern::Pattern;
use psi_graph::io::{
    decode_csr, encode_csr, encoded_csr_len, push_u32, push_u32_slice, push_u64, SectionReadError,
    SectionWriter, SectionedFile, SliceReader,
};
use psi_graph::{CsrGraph, NeighborSource, Vertex, INVALID_VERTEX};
use psi_planar::{validate_walks, Embedding};
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
///   instead of the min-degree heuristic. Batches later stopped trying that
///   construction and wrote the word as 0.
/// * **4** — the stored face–vertex graph (section `fvgraph`) is dropped: no
///   reader used it, since connectivity queries derive the graph from the
///   stored faces once per served epoch. v2 and v3 artifacts still load; their
///   `fvgraph` section is skipped.
/// * **5** — the per-batch decompositions are dropped: a round section holds,
///   per batch, only the CSR, the local-to-global map and the windows, since a
///   batch is decomposed only when its DP runs. v2–v4 artifacts still load;
///   each batch's decomposition is skipped after bounds checks, its tree
///   unread.
/// * **6** — the batches are dropped: a round section holds the vertex count
///   and one `u32` cluster centre per vertex, `8 + 4n` bytes, from which the
///   load derives the window labels and anything that reads batches emits
///   them. v2–v5 artifacts still load: each vertex's centre is read off the
///   stored windows.
pub const INDEX_SCHEMA_VERSION: u32 = 6;

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
    /// Batch budget for packing a cluster's small windows into one batch (see
    /// [`crate::cover::batch_budget_for`]). No batch is stored: the budget
    /// decides how the scan's fallback and [`PsiIndex::rounds`] pack the
    /// windows they emit from a round's labels, so both emit the batches of
    /// the round's cover pass under this budget.
    pub batch_budget: u32,
    /// Base seed; round `r` derives its clustering seed exactly like round `r` of
    /// the classic query path, so with equal base seeds the index's round `r`
    /// holds every window of at least `k` vertices that round `r` of a classic
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

/// Placeholder, always empty: no batch carries a decomposition. A batch is
/// decomposed only when its DP runs ([`CoverBatch::decomposition`]), so
/// nothing stores, encodes or reuses one. perfbench's serve replay reads these
/// three arrays until its next change (ROADMAP benchmark follow-up 5), which
/// deletes the type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatDecomposition {
    /// Always empty.
    pub bag_offsets: Vec<u32>,
    /// Always empty.
    pub bag_data: Vec<Vertex>,
    /// Always empty.
    pub children: Vec<u32>,
}

/// One batch as [`RoundBatches::iter`] yields it. Placeholder: the batch and
/// an empty [`FlatDecomposition`], the shape perfbench reads until its next
/// change (ROADMAP benchmark follow-up 5); the engine and the tests read
/// [`RoundBatches::batches`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexedBatch<'a> {
    /// The disjoint-union window batch exactly as the streaming pipeline emitted it.
    pub batch: &'a CoverBatch,
    /// Always empty.
    pub decomp: FlatDecomposition,
}

/// One stored cover round: the window label of every target vertex, nothing
/// more. A cluster is the vertices labelled with one centre, and its window
/// starting at level `s` the members whose first and last start enclose `s`,
/// so the round's batches follow from the labels and the target (the scan's
/// fallback and [`PsiIndex::rounds`] emit them). Served, thawed and frozen
/// epochs share a round through an `Arc`; the dynamic index's flush relabels
/// a copy of a round that another holder still reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct StoredRound {
    pub(crate) labels: Vec<WindowLabel>,
}

impl StoredRound {
    /// Whether one window of this round holds every vertex of `occ`.
    #[inline]
    pub(crate) fn holds(&self, occ: &[Vertex]) -> bool {
        let WindowLabel {
            centre,
            mut first,
            mut last,
        } = self.labels[occ[0] as usize];
        for &v in &occ[1..] {
            let label = self.labels[v as usize];
            if label.centre != centre {
                return false;
            }
            first = first.max(label.first);
            last = last.min(label.last);
        }
        first <= last
    }
}

/// One round's batches as [`PsiIndex::rounds`] emits them from the round's
/// labels: every cluster's windows packed under the index's batch budget,
/// clusters in ascending centre order — the round's cover pass regrouped by
/// cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundBatches {
    batches: Vec<CoverBatch>,
}

impl RoundBatches {
    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the round has no batch (the target is empty).
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The batches in order: clusters in ascending centre order, each
    /// cluster's batches in emission order.
    pub fn batches(&self) -> impl Iterator<Item = &CoverBatch> {
        self.batches.iter()
    }

    /// Placeholder: [`RoundBatches::batches`], each paired with an empty
    /// [`FlatDecomposition`] — what perfbench reads until its next change
    /// (ROADMAP benchmark follow-up 5).
    pub fn iter(&self) -> impl Iterator<Item = IndexedBatch<'_>> {
        self.batches().map(|batch| IndexedBatch {
            batch,
            decomp: FlatDecomposition::default(),
        })
    }
}

/// The immutable build-once / serve-many index artifact. See the module docs.
///
/// Every section is `Arc`-shared: cloning the index — or handing individual
/// sections to an epoch snapshot ([`crate::snapshot::PsiSnapshot`]) — bumps
/// reference counts instead of copying graphs or labels. `Arc<T>` compares by
/// contents, so the derived `PartialEq` (and with it the freeze bit-identity
/// suite) is unaffected by the sectioning.
#[derive(Clone, Debug, PartialEq)]
pub struct PsiIndex {
    params: IndexParams,
    target: Arc<CsrGraph>,
    /// Facial walks of the embedding, flattened (`face_offsets.len() == faces + 1`).
    face_offsets: Arc<Vec<u64>>,
    face_data: Arc<Vec<Vertex>>,
    rounds: Vec<Arc<StoredRound>>,
}

/// The pieces [`PsiIndex::into_parts`] dismantles into (params, target CSR,
/// facial walks, rounds) — exactly what a served or thawed epoch starts from.
pub(crate) type IndexParts = (
    IndexParams,
    Arc<CsrGraph>,
    Vec<Vec<Vertex>>,
    Vec<Arc<StoredRound>>,
);

impl PsiIndex {
    /// Builds the index from a validated planar embedding: per round, the
    /// round's clustering and the label pass over its centres, paid once. No
    /// window is cut and no batch is packed.
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
        let (graph, k, d) = (&embedding.graph, params.k as usize, params.d as usize);
        let rounds = (0..params.rounds)
            .map(|r| {
                let clustering = cover_clustering(graph, k, round_seed(params.seed, r.into()));
                let labels = round_labels(graph, &clustering.center, d);
                Arc::new(StoredRound { labels })
            })
            .collect();
        let target = Arc::new(embedding.graph.clone());
        let index = PsiIndex::from_parts(params, target, &embedding.faces, rounds);
        let metrics = crate::obs::metrics();
        metrics.index_builds_total.add(1);
        metrics
            .index_build_ns
            .record_duration(build_start.elapsed());
        index
    }

    /// Assembles an index from already-built parts — the last step of
    /// [`PsiIndex::build`] and of an epoch's freeze, which shares the epoch's
    /// target and rounds and must produce the exact struct (and therefore the
    /// exact bytes) a from-scratch build would. `faces` are the target's facial
    /// walks in canonical order.
    pub(crate) fn from_parts(
        params: IndexParams,
        target: Arc<CsrGraph>,
        faces: &[Vec<Vertex>],
        rounds: Vec<Arc<StoredRound>>,
    ) -> PsiIndex {
        let mut face_offsets = Vec::with_capacity(faces.len() + 1);
        face_offsets.push(0u64);
        let total: usize = faces.iter().map(|f| f.len()).sum();
        let mut face_data = Vec::with_capacity(total);
        for face in faces {
            face_data.extend_from_slice(face);
            face_offsets.push(face_data.len() as u64);
        }
        PsiIndex {
            params,
            target,
            face_offsets: Arc::new(face_offsets),
            face_data: Arc::new(face_data),
            rounds,
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

    /// The stored rounds' batches, emitted from their labels on every call
    /// (nothing stores them): per round, every cluster's windows packed under
    /// [`IndexParams::batch_budget`], clusters in ascending centre order —
    /// the batch stream of the round's cover pass, regrouped by cluster.
    /// Costs one BFS per cluster and the batch construction, `O(rounds·n·d)`.
    pub fn rounds(&self) -> Vec<RoundBatches> {
        let (d, budget) = (self.params.d as usize, self.params.batch_budget as usize);
        let mut scratch = ClusterScratch::new(self.target.num_vertices());
        let rounds = self.rounds.iter().map(|round| {
            let labels = &round.labels;
            let centres = (0..labels.len() as Vertex).filter(|&v| labels[v as usize].centre == v);
            let emit =
                |centre| label_batches(&*self.target, labels, centre, d, budget, &mut scratch);
            RoundBatches {
                batches: centres.flat_map(emit).collect(),
            }
        });
        rounds.collect()
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

    /// The payload bytes [`PsiIndex::to_bytes`] writes, from the array lengths.
    fn payload_len(&self) -> usize {
        let meta = 4 * 4 + 3 * 8;
        let faces = 2 * 8 + 8 * self.face_offsets.len() + 4 * self.face_data.len();
        let round = 8 + 4 * self.target.num_vertices();
        meta + encoded_csr_len(&self.target) + faces + self.rounds.len() * round
    }

    /// Serialises the index to its sectioned binary form, encoding every
    /// section straight into the returned buffer, which is sized once, exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections = 3 + self.rounds.len();
        let mut file =
            SectionWriter::with_capacity(INDEX_SCHEMA_VERSION, sections, self.payload_len());
        file.section("meta", |out| {
            push_u32(out, self.params.k);
            push_u32(out, self.params.d);
            push_u32(out, self.params.rounds);
            push_u32(out, self.params.batch_budget);
            push_u64(out, self.params.seed);
            push_u64(out, self.target.num_vertices() as u64);
            push_u64(out, self.target.num_edges() as u64);
        });
        file.section("target", |out| encode_csr(&self.target, out));
        file.section("faces", |out| {
            push_u64(out, (self.face_offsets.len() - 1) as u64);
            push_u64(out, self.face_data.len() as u64);
            for &o in self.face_offsets.iter() {
                push_u64(out, o);
            }
            push_u32_slice(out, &self.face_data);
        });
        for (r, round) in self.rounds.iter().enumerate() {
            file.section(&format!("round{r}"), |out| {
                push_u64(out, round.labels.len() as u64);
                for label in &round.labels {
                    push_u32(out, label.centre);
                }
            });
        }
        file.finish()
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
    /// 0), and rounds whose centres partition the target into connected
    /// clusters around them. Load never re-derives covers; it runs the build's
    /// label pass over each round's centres, so the loaded index equals a
    /// fresh build of its content.
    pub fn from_bytes(data: &[u8]) -> Result<PsiIndex, IndexLoadError> {
        // Current version first; on a version mismatch retry with any older
        // still-supported schema (v2–v5 store batches, whose windows give each
        // vertex's centre; v2–v4 also a decomposition per batch, which is
        // skipped; v2 and v3 an `fvgraph` section, which is skipped).
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

        // rounds: every section decoded first, grown as they decode (the
        // declared count sizes nothing, so a count the sections cannot back
        // fails on the first missing round), then each labelled
        let mut centres = Vec::new();
        for round in 0..rounds_declared {
            let name = format!("round{round}");
            let payload = section(&name)?;
            centres.push(if schema_version >= 6 {
                decode_centres(&name, payload, n)?
            } else {
                decode_round(&name, payload, n, schema_version)?
            });
        }
        let rounds = centres
            .into_iter()
            .enumerate()
            .map(|(round, centres)| {
                let name = format!("round{round}");
                let uncovered = centres.iter().position(|&c| c == INVALID_VERTEX);
                if let (true, Some(v)) = (schema_version < 6, uncovered) {
                    return Err(fail(&name, &format!("vertex {v} in no window")));
                }
                label_round(&name, &target, &centres, d as usize).map(Arc::new)
            })
            .collect::<Result<_, _>>()?;

        Ok(PsiIndex {
            params,
            target: Arc::new(target),
            face_offsets: Arc::new(face_offsets),
            face_data: Arc::new(face_data),
            rounds,
        })
    }
}

/// Decodes a v6 round section: the vertex count, which must be meta's `n`,
/// then one centre per vertex.
fn decode_centres(name: &str, payload: &[u8], n: usize) -> Result<Vec<Vertex>, IndexLoadError> {
    let fail = |detail: &str| IndexLoadError::Section {
        section: name.to_string(),
        detail: detail.to_string(),
    };
    let mut r = SliceReader::new(payload);
    let count = r.take_u64().ok_or_else(|| fail("missing vertex count"))?;
    if count != n as u64 {
        return Err(fail("vertex count disagrees with meta"));
    }
    let centres = r.take_u32_vec(n).ok_or_else(|| fail("truncated centres"))?;
    if !r.is_empty() {
        return Err(fail("trailing bytes"));
    }
    Ok(centres)
}

/// The round that one centre per vertex gives, labelled by the build's label
/// pass. The labels, the scan and the fallback rely on clusters that
/// partition the target into connected parts around their centres, so a
/// centre out of range, a centre that is not its own centre and a member the
/// BFS from its centre does not reach are refused, naming the section.
fn label_round(
    name: &str,
    target: &CsrGraph,
    centres: &[Vertex],
    d: usize,
) -> Result<StoredRound, IndexLoadError> {
    let fail = |detail: String| IndexLoadError::Section {
        section: name.to_string(),
        detail,
    };
    let n = centres.len();
    for (v, &c) in centres.iter().enumerate() {
        if c as usize >= n {
            return Err(fail(format!("vertex {v}: centre {c} out of range")));
        }
        if centres[c as usize] != c {
            return Err(fail(format!(
                "vertex {v}: centre {c} is not its own centre"
            )));
        }
    }
    let labels = round_labels(target, centres, d);
    match labels.iter().position(|l| l.centre == INVALID_VERTEX) {
        Some(v) => {
            let c = centres[v];
            Err(fail(format!(
                "vertex {v} is not reached from its centre {c}"
            )))
        }
        None => Ok(StoredRound { labels }),
    }
}

/// Decodes and validates one v2–v5 round's batch list and reads each
/// vertex's centre off the windows, [`INVALID_VERTEX`] where no window holds
/// it. Clusters partition the target, so a vertex in windows of two centres
/// is refused, after the section has been read to its end.
fn decode_round(
    name: &str,
    payload: &[u8],
    target_n: usize,
    schema_version: u32,
) -> Result<Vec<Vertex>, IndexLoadError> {
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
    let mut centres = vec![INVALID_VERTEX; target_n];
    let mut in_two_clusters = None;
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
        if schema_version < 5 {
            skip_decomposition(&mut r, schema_version)
                .map_err(|detail| fail(format!("batch {b}: {detail}")))?;
        }
        let batch = CoverBatch {
            graph,
            local_to_global,
            windows,
        };
        for (centre, _, members) in batch.windows_with_members() {
            for &v in members {
                let c = &mut centres[v as usize];
                if *c != INVALID_VERTEX && *c != centre {
                    in_two_clusters.get_or_insert(v);
                }
                *c = centre;
            }
        }
    }
    if !r.is_empty() {
        return Err(fail("trailing bytes".into()));
    }
    match in_two_clusters {
        Some(v) => Err(fail(format!("vertex {v} in windows of two clusters"))),
        None => Ok(centres),
    }
}

/// Steps over the decomposition a v2–v4 artifact stores after each batch,
/// checking bounds only: nothing reads it, since a batch's DP derives its own.
/// The layout is the node count, the root, the layered-segment word (v3 and
/// v4), `nodes + 1` bag offsets, the bags up to the last offset and
/// `2 · nodes` children.
fn skip_decomposition(r: &mut SliceReader, schema_version: u32) -> Result<(), &'static str> {
    const TRUNCATED: &str = "truncated decomposition";
    let skip_u32s = |r: &mut SliceReader, len: usize| {
        let bytes = len.checked_mul(4).ok_or(TRUNCATED)?;
        r.take_bytes(bytes).map(drop).ok_or(TRUNCATED)
    };
    let nodes = r.take_u64().ok_or(TRUNCATED)?;
    let (offsets, children) = usize::try_from(nodes)
        .ok()
        .and_then(|n| Some((n.checked_add(1)?, n.checked_mul(2)?)))
        .ok_or("decomposition too large")?;
    // The root and, from v3 on, the layered-segment word.
    skip_u32s(r, if schema_version >= 3 { 2 } else { 1 })?;
    // Every bag offset but the last, which counts the bag entries.
    skip_u32s(r, offsets - 1)?;
    let bag_total = r.take_u32().ok_or(TRUNCATED)?;
    skip_u32s(r, bag_total as usize)?;
    skip_u32s(r, children)
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
    /// Pattern diameter exceeds the index's `d` (its windows are too short).
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

/// Node budget of one exhaustive backtracking search: per root on the index's
/// scan of the target, per batch on a streamed batch (the default
/// [`crate::isomorphism::DpStrategy::FastPath`]). Every candidate vertex
/// considered costs one node. The search is *exact* whenever it completes under
/// the budget — both "occurs" and "absent" verdicts are certain, for the root's
/// occurrences on the index scan, and on a batch because batches are disjoint
/// unions of windows and a connected pattern cannot span components, so plain
/// subgraph search on the batch graph decides exactly the predicate the
/// treewidth DP decides. Past the budget the batches holding the root's
/// windows, emitted then from each round's labels, or the batch itself, fall
/// back to the DP on a decomposition derived then
/// ([`CoverBatch::decomposition`]), whose cost is guaranteed polynomial in the
/// batch size — the budget only caps the *time* of the search, never its
/// soundness.
///
/// On degree ≤ 6 targets a k ≤ 4 pattern's search from one root completes in a
/// few hundred nodes, and one over a ~256-vertex batch in tens of thousands
/// (microseconds), versus milliseconds for one DP table build. A hub root, as in
/// a wheel, runs the budget out.
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

/// Depth-first exhaustive search for the planned pattern in `graph`, from
/// plan position `depth` on (`assigned` holds the positions before it). A
/// complete assignment ends the search only if `accept` takes it; otherwise
/// the search goes on. `Ok(true)` leaves the accepted assignment in `assigned`
/// (by plan position); `Ok(false)` means no accepted completion exists;
/// `Err(())` means the node budget ran out and the verdict is unknown.
pub(crate) fn backtrack_step<G: NeighborSource + ?Sized>(
    plan: &MatchPlan,
    graph: &G,
    depth: usize,
    assigned: &mut Vec<Vertex>,
    budget: &mut usize,
    accept: &mut impl FnMut(&[Vertex]) -> bool,
) -> Result<bool, ()> {
    if depth == plan.order.len() {
        return Ok(accept(assigned));
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
            if backtrack_step(plan, graph, depth + 1, assigned, budget, accept)? {
                return Ok(true);
            }
            assigned.pop();
        }
        return Ok(false);
    }
    let anchor = assigned[backs[0] as usize];
    'candidates: for &v in graph.neighbors_of(anchor) {
        if *budget == 0 {
            return Err(());
        }
        *budget -= 1;
        if assigned.contains(&v) {
            continue;
        }
        for &b in &backs[1..] {
            if !graph.neighbors_of(assigned[b as usize]).contains(&v) {
                continue 'candidates;
            }
        }
        assigned.push(v);
        if backtrack_step(plan, graph, depth + 1, assigned, budget, accept)? {
            return Ok(true);
        }
        assigned.pop();
    }
    Ok(false)
}

/// Whether any window of `batch` is large enough to host `k` vertices.
pub(crate) fn batch_can_host(batch: &CoverBatch, k: usize) -> bool {
    batch.segment_ranges().any(|(start, end)| end - start >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::ConnectivityMode;
    use crate::cover::map_cover_batches;
    use crate::isomorphism::batch_dp;
    use crate::pattern::verify_occurrence;
    use crate::snapshot::PsiSnapshot;
    use psi_planar::generators as pg;
    use std::collections::BTreeMap;

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
        let rounds = small_index().rounds();
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::clique(4),
            Pattern::path(3),
            Pattern::star(3),
        ] {
            let plan = MatchPlan::new(&pattern);
            for round in &rounds {
                for batch in round.batches() {
                    let mut assigned = Vec::new();
                    let mut budget = FAST_PATH_NODE_BUDGET;
                    let (graph, all) = (&batch.graph, &mut |_: &[Vertex]| true);
                    let fast = backtrack_step(&plan, graph, 0, &mut assigned, &mut budget, all)
                        .expect("~256-vertex batches complete under the budget");
                    let dp = batch_dp(&pattern, graph, &batch.decomposition());
                    assert_eq!(fast, dp.is_some(), "fast path and DP disagree on a batch");
                }
            }
        }
    }

    #[test]
    fn fast_path_budget_exhaustion_is_reported_not_wrong() {
        // With a starved budget the search must say "unknown", never guess.
        let rounds = small_index().rounds();
        let batch = rounds[0].batches().next().unwrap();
        let plan = MatchPlan::new(&Pattern::cycle(4));
        let mut assigned = Vec::new();
        let mut budget = 1usize;
        assert_eq!(
            backtrack_step(
                &plan,
                &batch.graph,
                0,
                &mut assigned,
                &mut budget,
                &mut |_| true
            ),
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

    /// The windows of `batch` with at least `k` vertices, as `(centre, level
    /// start, vertices)` in stored order.
    fn windows_of(batch: &CoverBatch, k: usize) -> Vec<(u32, u32, Vec<Vertex>)> {
        batch
            .windows_with_members()
            .filter(|(_, _, members)| members.len() >= k)
            .map(|(c, level, members)| (c, level, members.to_vec()))
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
        let rounds = index.rounds();
        for (r, round) in rounds.iter().enumerate() {
            let stored: Vec<_> = round.batches().flat_map(|b| windows_of(b, k)).collect();
            let seed = round_seed(DEFAULT_SEED, r as u64);
            let budget = crate::cover::batch_budget_for(k);
            let (drawn, _) = map_cover_batches(&g, k, d, seed, k, budget, |b| windows_of(&b, k));
            assert!(!stored.is_empty());
            assert_eq!(stored, drawn.concat(), "round {r}");
        }
    }

    /// The window labels of round `r` of an index with `params` on `graph`,
    /// by the labelling rule, independently of the index: a BFS inside each
    /// cluster from its centre `c`, and for a member at level `l` of a
    /// cluster whose deepest level is `deepest`, the label `(c, max(0, l − d),
    /// min(l, max(0, deepest − d)))`.
    fn formula_labels(graph: &CsrGraph, params: IndexParams, r: u32) -> Vec<WindowLabel> {
        let k = params.k as usize;
        let seed = round_seed(params.seed, r.into());
        let clustering = psi_cluster::cluster_parallel(graph, crate::cover::cover_beta(k), seed);
        let mut labels = vec![WindowLabel::NONE; graph.num_vertices()];
        let mut level = vec![u32::MAX; graph.num_vertices()];
        for (cid, members) in clustering.iter_clusters().enumerate() {
            let centre = members[0];
            level[centre as usize] = 0;
            let mut queue = std::collections::VecDeque::from([centre]);
            let mut deepest = 0;
            while let Some(u) = queue.pop_front() {
                for &w in graph.neighbors(u) {
                    let inside = clustering.cluster_of[w as usize] == cid as u32;
                    if inside && level[w as usize] == u32::MAX {
                        level[w as usize] = level[u as usize] + 1;
                        deepest = deepest.max(level[w as usize]);
                        queue.push_back(w);
                    }
                }
            }
            for &v in members {
                let l = level[v as usize];
                assert_ne!(l, u32::MAX, "cluster of {centre} is not connected");
                labels[v as usize] = WindowLabel {
                    centre,
                    first: l.saturating_sub(params.d),
                    last: l.min(deepest.saturating_sub(params.d)),
                };
            }
        }
        labels
    }

    /// Every round of `index` labels each vertex by the labelling rule, and
    /// its batches are the index's cover pass regrouped by each batch's first
    /// centre, in ascending centre order.
    fn assert_rounds_follow_the_labelling_rule(index: &PsiIndex, name: &str) {
        let (g, p) = (index.target(), index.params());
        let rounds = index.rounds();
        assert_eq!(rounds.len(), p.rounds as usize);
        for (r, round) in rounds.iter().enumerate() {
            let want = formula_labels(g, p, r as u32);
            assert_eq!(index.rounds[r].labels, want, "{name}: labels of round {r}");
            let seed = round_seed(p.seed, r as u64);
            let (k, d, budget) = (p.k as usize, p.d as usize, p.batch_budget as usize);
            let (drawn, _) = map_cover_batches(g, k, d, seed, 1, budget, |b| b);
            let mut by_centre: BTreeMap<Vertex, Vec<CoverBatch>> = BTreeMap::new();
            for batch in drawn {
                by_centre.entry(batch.windows[0].0).or_default().push(batch);
            }
            let want: Vec<CoverBatch> = by_centre.into_values().flatten().collect();
            let got: Vec<CoverBatch> = round.batches().cloned().collect();
            assert_eq!(got, want, "{name}: batches of round {r}");
        }
    }

    /// [`assert_rounds_follow_the_labelling_rule`] on `index` and on the
    /// index its artifact loads as, whose label pass runs on the stored
    /// centres.
    fn assert_built_and_loaded_follow_the_labelling_rule(index: &PsiIndex, name: &str) {
        assert_rounds_follow_the_labelling_rule(index, name);
        let loaded = PsiIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_rounds_follow_the_labelling_rule(&loaded, &format!("{name}, loaded"));
    }

    #[test]
    fn stored_rounds_follow_the_labelling_rule() {
        let params = |seed| IndexParams {
            seed,
            ..IndexParams::default()
        };
        for seed in [1, 7, DEFAULT_SEED] {
            let e = pg::triangulated_grid_embedded(20, 20);
            let index = PsiIndex::build(&e, params(seed));
            assert_built_and_loaded_follow_the_labelling_rule(&index, &format!("grid seed {seed}"));
            if seed == 1 {
                // A v5 artifact: the load reads each vertex's centre off the
                // stored windows, then runs the same label pass.
                let v5 = PsiIndex::from_bytes(&legacy_artifact(&index, 5, false)).unwrap();
                assert_rounds_follow_the_labelling_rule(&v5, "grid seed 1, loaded from v5");
            }
        }

        // A plain grid after toggles of cell diagonals (insert one of the two
        // diagonals of a cell without one, else delete it), then frozen.
        let side = 16;
        let mut dynamic = crate::dynamic::DynamicPsiIndex::build(
            &pg::grid_embedded(side, side),
            IndexParams::default(),
        );
        let mut diagonal: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (r, c) = (
                (x >> 33) as usize % (side - 1),
                (x >> 45) as usize % (side - 1),
            );
            let at = |r: usize, c: usize| (r * side + c) as Vertex;
            let ends = |main| match main {
                true => (at(r, c), at(r + 1, c + 1)),
                false => (at(r, c + 1), at(r + 1, c)),
            };
            match diagonal.remove(&(r, c)) {
                Some(main) => {
                    let (u, v) = ends(main);
                    dynamic.delete_edge(u, v).unwrap();
                }
                None => {
                    let main = (x >> 20) & 1 == 0;
                    let (u, v) = ends(main);
                    dynamic.insert_edge(u, v).unwrap();
                    diagonal.insert((r, c), main);
                }
            }
        }
        assert_built_and_loaded_follow_the_labelling_rule(&dynamic.freeze(), "toggled grid");

        // The hub-first 300-vertex wheel: the hub is vertex 0.
        let wheel = psi_graph::generators::wheel(300);
        let mut b = psi_graph::GraphBuilder::new(wheel.num_vertices());
        for (u, v) in wheel.edges() {
            b.add_edge((u + 1) % 300, (v + 1) % 300);
        }
        let hub_first = psi_planar::planar_embedding(&b.build()).unwrap();
        let index = PsiIndex::build(&hub_first, IndexParams::default());
        assert_built_and_loaded_follow_the_labelling_rule(&index, "hub-first wheel");

        // A random tree; a disconnected union with isolated vertices; a
        // target with fewer vertices than k.
        let tree = psi_graph::generators::random_tree(200, 3);
        let mut b = psi_graph::GraphBuilder::new(40);
        for i in 0..10 {
            b.add_edge(i, (i + 1) % 10); // a 10-cycle
        }
        for i in 12..20 {
            b.add_edge(i, i + 1); // a path; 10, 11 and 21..40 are isolated
        }
        b.add_edge(25, 26);
        let union = b.build();
        let tiny = psi_graph::generators::path(3);
        for (name, g) in [("random tree", tree), ("union", union), ("n < k", tiny)] {
            let e = psi_planar::planar_embedding(&g).unwrap();
            let index = PsiIndex::build(&e, params(5));
            assert_built_and_loaded_follow_the_labelling_rule(&index, name);
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

    /// Appends the `fvgraph` section v2 and v3 artifacts carried: the original
    /// vertex count, then the face–vertex graph of the stored embedding as CSR.
    fn push_legacy_fvgraph(fv: &mut Vec<u8>, index: &PsiIndex) {
        push_u64(fv, index.target().num_vertices() as u64);
        encode_csr(&psi_planar::face_vertex_graph(&index.embedding()).graph, fv);
    }

    /// Encodes `index`'s rounds by hand into `file` in the layout of schema
    /// `version` (2–5): per round the batch count and, per batch of
    /// [`PsiIndex::rounds`], its CSR, its local-to-global map and its windows.
    /// In v2–v4 a decomposition follows each batch: the flattened
    /// [`CoverBatch::decomposition`] those versions stored, whose
    /// layered-segment word (from v3 on) is 0. With `layered_word` each batch
    /// stores other bags than its own (one bag holding every vertex) and a
    /// nonzero word (the batch's window count), as artifacts written while
    /// batches tried the layered construction could.
    fn push_rounds_by_hand(
        file: &mut SectionWriter,
        index: &PsiIndex,
        version: u32,
        layered_word: bool,
    ) {
        assert!(version >= 3 || !layered_word, "v2 has no layered word");
        assert!(version <= 4 || !layered_word, "v5 stores no decomposition");
        let rounds = index.rounds();
        for (r, round) in rounds.iter().enumerate() {
            file.section(&format!("round{r}"), |payload| {
                push_u64(payload, round.len() as u64);
                for batch in round.batches() {
                    encode_csr(&batch.graph, payload);
                    push_u64(payload, batch.local_to_global.len() as u64);
                    push_u32_slice(payload, &batch.local_to_global);
                    push_u64(payload, batch.windows.len() as u64);
                    for &(cluster, level_start, offset) in &batch.windows {
                        push_u32(payload, cluster);
                        push_u32(payload, level_start);
                        push_u32(payload, offset);
                    }
                    if version >= 5 {
                        continue;
                    }
                    let n = batch.graph.num_vertices() as Vertex;
                    let (bags, children, root, word) = if layered_word {
                        let word = batch.num_windows() as u32;
                        (vec![(0..n).collect()], vec![None], 0, word)
                    } else {
                        let btd = batch.decomposition();
                        (btd.bags, btd.children, btd.root, 0)
                    };
                    push_u64(payload, bags.len() as u64);
                    push_u32(payload, root as u32);
                    if version >= 3 {
                        push_u32(payload, word);
                    }
                    let mut offset = 0;
                    push_u32(payload, offset);
                    for bag in &bags {
                        offset += bag.len() as u32;
                        push_u32(payload, offset);
                    }
                    for bag in &bags {
                        push_u32_slice(payload, bag);
                    }
                    for c in children {
                        let [l, r] = c.map_or([u32::MAX; 2], |[l, r]| [l as u32, r as u32]);
                        push_u32_slice(payload, &[l, r]);
                    }
                }
            });
        }
    }

    /// `index` written by hand as a schema-`version` (2–5) artifact: the
    /// current `meta`, `target` and `faces` sections, the `fvgraph` section
    /// v2 and v3 carried, and the rounds of [`push_rounds_by_hand`].
    fn legacy_artifact(index: &PsiIndex, version: u32, layered_word: bool) -> Vec<u8> {
        let bytes = index.to_bytes();
        let current = SectionedFile::from_bytes(&bytes, INDEX_SCHEMA_VERSION).unwrap();
        let fvgraph = usize::from(version < 4);
        let mut file = SectionWriter::new(version, 3 + fvgraph + index.rounds.len());
        for name in ["meta", "target", "faces"] {
            file.section(name, |out| {
                out.extend_from_slice(current.section(name).unwrap())
            });
        }
        if version < 4 {
            file.section("fvgraph", |out| push_legacy_fvgraph(out, index));
        }
        push_rounds_by_hand(&mut file, index, version, layered_word);
        file.finish()
    }

    #[test]
    fn v2_artifacts_still_load() {
        let index = small_index();
        // Encoded by hand in the v2 layout: the v3 `fvgraph` section, and a
        // decomposition without the layered-segment word after each batch.
        let back = PsiIndex::from_bytes(&legacy_artifact(&index, 2, false)).unwrap();
        assert_eq!(back.target, index.target);
        let (loaded, fresh) = (back.rounds(), index.rounds());
        for (a, b) in loaded
            .iter()
            .flat_map(|r| r.batches())
            .zip(fresh.iter().flat_map(|r| r.batches()))
        {
            assert_eq!(a, b);
        }
        assert_eq!(back, index);
        // Re-saving a v2-loaded index writes the current schema.
        let resaved = back.to_bytes();
        assert_eq!(resaved, index.to_bytes());
        let resaved = SectionedFile::from_bytes(&resaved, INDEX_SCHEMA_VERSION).unwrap();
        assert_eq!(resaved.version, INDEX_SCHEMA_VERSION);
    }

    #[test]
    fn v3_artifacts_with_fvgraph_still_load() {
        let index = small_index();
        // The v3 layout: the `fvgraph` section after `faces`, and a
        // decomposition with a zero layered-segment word after each batch.
        let v3 = legacy_artifact(&index, 3, false);
        assert!(v3.len() > index.to_bytes().len());
        let back = PsiIndex::from_bytes(&v3).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.to_bytes(), index.to_bytes(), "re-saving writes v6");

        // v4 drops `fvgraph`. Artifacts written while batches tried the
        // layered construction carry nonzero layered-segment words and other
        // bags than a fresh build's; the load skips every decomposition, so
        // both load as a fresh build, and re-saving writes none.
        for layered_word in [false, true] {
            let v4 = legacy_artifact(&index, 4, layered_word);
            assert_ne!(v4, index.to_bytes());
            let back = PsiIndex::from_bytes(&v4).unwrap();
            assert_eq!(back, index);
            assert_eq!(back.to_bytes(), index.to_bytes(), "re-saving writes v6");
        }

        // v5 drops the decompositions and stores the batches alone; the load
        // reads each vertex's centre off their windows.
        let v5 = legacy_artifact(&index, 5, false);
        assert!(v5.len() > index.to_bytes().len());
        let back = PsiIndex::from_bytes(&v5).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.to_bytes(), index.to_bytes(), "re-saving writes v6");
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
