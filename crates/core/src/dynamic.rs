//! Dynamic index mutation: incremental cover maintenance under edge flips.
//!
//! [`DynamicPsiIndex`] is the mutable counterpart of the immutable
//! [`PsiIndex`] artifact. It keeps, per stored round, the round's batches
//! grouped by cluster centre (the artifact's own [`StoredRound`] layout) plus
//! the live [`DynamicClustering`] state of the exponential-start-time
//! clustering, which the first accepted mutation builds: a thawed engine that
//! is only read never clusters. An edge flip then costs only
//!
//! 1. an embedding repair — a face split/merge for the four local cases
//!    (chord inside a face, cross-component join, bridge deletion, ordinary
//!    deletion). An insert whose endpoints share no face first runs the local
//!    insertion test ([`check_insertion_locally`]): LR on breadth-first balls
//!    around the endpoints refuses a non-planar edge with a witness from the
//!    ball, or finds the endpoints in different components, in work
//!    proportional to the balls. Only an insert the balls leave undecided — a
//!    planar merge of biconnected blocks, or an obstruction beyond the balls —
//!    pays one LR embedding of the whole target, which re-embeds it or refuses
//!    the edge,
//! 2. a per-round clustering repair (lazy Dijkstra over the provably affected
//!    vertices only — see [`psi_cluster::incremental`]),
//! 3. *marking dirty* exactly the clusters whose membership or induced subgraph
//!    changed. Their batches are rebuilt lazily — by the next query, freeze, or
//!    explicit [`DynamicPsiIndex::flush`] — through `emit_cluster_batches`,
//!    the same single code path the from-scratch build uses; as in the build,
//!    no batch is decomposed until a DP runs on it. Deferral is what makes
//!    mutations cheap at scale: the flip itself is a local repair, and a
//!    cluster hit by many flips between two queries is rebuilt once, not once
//!    per flip.
//!
//! Because batches are cluster-pure, window stamps carry the centre *vertex*
//! (not a dense renumbered id), and each round's canonical stream is the
//! concatenation of per-cluster streams in ascending centre order, splicing the
//! rebuilt clusters into the round's [`StoredRound`] reproduces the from-scratch
//! byte stream exactly: [`DynamicPsiIndex::freeze`] is **bit-for-bit identical**
//! to [`PsiIndex::build`] on the mutated graph — the invariant the determinism
//! suite pins under `PSI_THREADS = {1, 4}`.
//!
//! The engine's readable state is an `EpochState` value — the one read path
//! frozen, live and pinned queries share (see [`crate::snapshot`]). Queries
//! ([`DynamicPsiIndex::decide`], [`DynamicPsiIndex::find_one`], the batch
//! variants, and the connectivity front ends) flush the dirty backlog, which
//! also patches the rebuilt clusters' window labels, and then read that state
//! in place: a pattern scan runs from every root in vertex order on the
//! adjacency lists, whose rows hold what the frozen artifact's CSR rows hold,
//! so verdicts *and witnesses* match a frozen [`PsiSnapshot`] of the same graph
//! for every thread count.

use crate::connectivity::{ConnectivityMode, ConnectivityResult};
use crate::cover::{
    cover_beta, emit_cluster_batches, round_seed, BatchBuilder, ClusterScratch, ClusterView,
    PassCounters,
};
use crate::index::{IndexParams, PsiIndex, QueryError, StoredRound};
use crate::pattern::Pattern;
use crate::snapshot::{EpochSource, EpochState, PsiSnapshot};
use psi_cluster::DynamicClustering;
use psi_graph::{AdjacencyList, CsrGraph, Vertex};
use psi_planar::{
    check_insertion_locally, planar_embedding, Embedding, LocalVerdict, NonPlanarWitness,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Errors and stats
// ---------------------------------------------------------------------------

/// Why an edge mutation was rejected. Every rejection leaves the index exactly
/// as it was — mutations are atomic.
#[derive(Clone, Debug)]
pub enum MutationError {
    /// An endpoint is not a vertex of the target.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: Vertex,
        /// Number of target vertices.
        n: usize,
    },
    /// Both endpoints are the same vertex (the target is simple).
    SelfLoop {
        /// The repeated endpoint.
        vertex: Vertex,
    },
    /// The edge to insert already exists.
    DuplicateEdge {
        /// Smaller endpoint.
        u: Vertex,
        /// Larger endpoint.
        v: Vertex,
    },
    /// The edge to delete does not exist.
    MissingEdge {
        /// Smaller endpoint.
        u: Vertex,
        /// Larger endpoint.
        v: Vertex,
    },
    /// Inserting the edge would make the target non-planar; the boxed witness is
    /// a Kuratowski subdivision of the *would-be* graph (in target vertex ids).
    /// It lies in the smallest ball around the endpoints that holds one (see
    /// [`check_insertion_locally`]), or, for an obstruction beyond the balls,
    /// inside the rejected edge's biconnected block.
    NonPlanar(Box<NonPlanarWitness>),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for {n}-vertex target")
            }
            MutationError::SelfLoop { vertex } => {
                write!(
                    f,
                    "self loop at vertex {vertex} rejected (target is simple)"
                )
            }
            MutationError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u},{v}) already present")
            }
            MutationError::MissingEdge { u, v } => {
                write!(f, "edge ({u},{v}) not present")
            }
            MutationError::NonPlanar(w) => {
                write!(f, "insertion would break planarity: {w}")
            }
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::NonPlanar(w) => Some(w.as_ref()),
            _ => None,
        }
    }
}

/// What one accepted mutation touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Clusters whose membership or induced subgraph this mutation changed,
    /// summed over rounds (includes clusters that ceased to exist). Their
    /// batches are marked dirty, not rebuilt inline.
    pub affected_clusters: usize,
    /// Dirty clusters awaiting rebuild after this mutation, summed over rounds
    /// — the backlog the next query, freeze, or [`DynamicPsiIndex::flush`]
    /// pays for. Smaller than the running sum of `affected_clusters` when
    /// flips revisit the same clusters.
    pub dirty_clusters: usize,
    /// Whether the embedding had to be rebuilt from scratch: an insertion
    /// outside every face that the local insertion test left undecided (a
    /// biconnected-block merge, or a join of two components too large for its
    /// balls).
    pub reembedded: bool,
}

// ---------------------------------------------------------------------------
// Face store: the maintained embedding
// ---------------------------------------------------------------------------

/// The facial walks of the maintained embedding, mutable in place.
///
/// Faces are tombstoned on removal so ids stay stable; `incident[v]` lists the
/// faces `v` lies on, one entry per *occurrence* on the walk. The store is only
/// consulted for surgery decisions (which faces an edge flip touches) and for
/// the lazily derived face–vertex graph; the frozen artifact re-canonicalises
/// its faces through [`planar_embedding`], so the store needs to stay *valid*,
/// never canonical.
struct FaceStore {
    walks: Vec<Option<Vec<Vertex>>>,
    incident: Vec<Vec<u32>>,
}

impl FaceStore {
    fn from_walks(n: usize, walks: Vec<Vec<Vertex>>) -> FaceStore {
        let mut store = FaceStore {
            walks: Vec::with_capacity(walks.len()),
            incident: vec![Vec::new(); n],
        };
        for walk in walks {
            store.add(walk);
        }
        store
    }

    fn add(&mut self, walk: Vec<Vertex>) -> u32 {
        let id = self.walks.len() as u32;
        for &v in &walk {
            self.incident[v as usize].push(id);
        }
        self.walks.push(Some(walk));
        id
    }

    fn remove(&mut self, id: u32) -> Vec<Vertex> {
        let walk = self.walks[id as usize]
            .take()
            .expect("face already removed");
        for &v in &walk {
            let inc = &mut self.incident[v as usize];
            let at = inc.iter().position(|&f| f == id).expect("incidence desync");
            inc.swap_remove(at);
        }
        walk
    }

    fn walk(&self, id: u32) -> &[Vertex] {
        self.walks[id as usize].as_deref().expect("face removed")
    }

    /// Any face whose walk visits both `u` and `v` (the chord-insertion fast path).
    fn common_face(&self, u: Vertex, v: Vertex) -> Option<u32> {
        self.incident[u as usize]
            .iter()
            .copied()
            .find(|&f| self.walk(f).contains(&v))
    }

    /// Some face `v` lies on (every vertex lies on at least one).
    fn any_face_of(&self, v: Vertex) -> u32 {
        self.incident[v as usize][0]
    }

    /// The `(face, walk position)` of both facial sides of edge `{u, v}`.
    fn edge_sides(&self, u: Vertex, v: Vertex) -> [(u32, usize); 2] {
        let mut fids: Vec<u32> = self.incident[u as usize].clone();
        fids.sort_unstable();
        fids.dedup();
        let mut sides: Vec<(u32, usize)> = Vec::with_capacity(2);
        for f in fids {
            let walk = self.walk(f);
            let len = walk.len();
            if len < 2 {
                continue;
            }
            for q in 0..len {
                let (x, y) = (walk[q], walk[(q + 1) % len]);
                if (x == u && y == v) || (x == v && y == u) {
                    sides.push((f, q));
                }
            }
        }
        debug_assert_eq!(sides.len(), 2, "edge must lie on exactly two facial sides");
        [sides[0], sides[1]]
    }

    /// Splits the face `f` along the new chord `{u, v}` (both endpoints lie on
    /// `f`'s walk): `F ↦ F[i..=j]` and `F[j..] ++ F[..=i]`, each closed by one
    /// side of the chord.
    fn split_for_insert(&mut self, f: u32, u: Vertex, v: Vertex) {
        let walk = self.remove(f);
        let mut i = walk.iter().position(|&x| x == u).expect("u not on face");
        let mut j = walk.iter().position(|&x| x == v).expect("v not on face");
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        // Cyclically adjacent occurrences would mean the edge already exists
        // (rejected before surgery), so both parts have at least three vertices.
        let part1: Vec<Vertex> = walk[i..=j].to_vec();
        let mut part2: Vec<Vertex> = walk[j..].to_vec();
        part2.extend_from_slice(&walk[..=i]);
        self.add(part1);
        self.add(part2);
    }

    /// Merges a face of `u`'s component with a face of `v`'s component around the
    /// new edge `{u, v}`: the merged walk crosses the edge twice,
    /// `[u, a₁..aₚ, u, v, b₁..b_q, v]`, with the repeated endpoint dropped for
    /// singleton (isolated-vertex) faces.
    fn merge_for_insert(&mut self, fu: u32, fv: u32, u: Vertex, v: Vertex) {
        let wu = self.remove(fu);
        let wv = self.remove(fv);
        let mut merged = Vec::with_capacity(wu.len() + wv.len() + 2);
        if wu.len() == 1 {
            merged.push(u);
        } else {
            let i = wu.iter().position(|&x| x == u).expect("u not on face");
            merged.extend_from_slice(&wu[i..]);
            merged.extend_from_slice(&wu[..i]);
            merged.push(u);
        }
        if wv.len() == 1 {
            merged.push(v);
        } else {
            let j = wv.iter().position(|&x| x == v).expect("v not on face");
            merged.extend_from_slice(&wv[j..]);
            merged.extend_from_slice(&wv[..j]);
            merged.push(v);
        }
        self.add(merged);
    }

    /// Deletes the bridge `{u, v}` whose two sides lie on the single face `f`,
    /// splitting it into the walk around `u`'s side and the walk around `v`'s
    /// side (an endpoint of degree one becomes a singleton face).
    fn split_for_bridge_delete(&mut self, f: u32, u: Vertex, v: Vertex) {
        let walk = self.remove(f);
        let len = walk.len();
        let q = (0..len)
            .find(|&q| walk[q] == u && walk[(q + 1) % len] == v)
            .expect("directed side (u,v) not on face");
        let rotated = rotate_after(&walk, q); // starts at v, ends at u, closes over {u,v}
        let p = (0..len - 1)
            .find(|&p| rotated[p] == v && rotated[p + 1] == u)
            .expect("directed side (v,u) not on face");
        let v_side: Vec<Vertex> = if p == 0 {
            vec![v]
        } else {
            rotated[..p].to_vec()
        };
        let u_side: Vec<Vertex> = if p + 1 == len - 1 {
            vec![u]
        } else {
            rotated[p + 1..len - 1].to_vec()
        };
        self.add(v_side);
        self.add(u_side);
    }

    /// Deletes the non-bridge edge `{u, v}`, merging the two faces on its sides.
    fn merge_for_delete(&mut self, s1: (u32, usize), s2: (u32, usize)) {
        let w1 = self.remove(s1.0);
        let mut w2 = self.remove(s2.0);
        let len1 = w1.len();
        let (x, y) = (w1[s1.1], w1[(s1.1 + 1) % len1]);
        let mut q2 = s2.1;
        let len2 = w2.len();
        debug_assert!(len2 >= 3, "digon faces only occur around bridges");
        if w2[q2] == x {
            // Both walks traverse the edge in the same direction (an improperly
            // oriented component, e.g. after hand-built input): flip one side.
            w2.reverse();
            q2 = (0..len2)
                .find(|&q| w2[q] == y && w2[(q + 1) % len2] == x)
                .expect("reversed side not found");
        }
        let r1 = rotate_after(&w1, s1.1); // [y .. x], closes over the deleted edge
        let r2 = rotate_after(&w2, q2); // [x .. y], closes over the deleted edge
        let mut merged = r1;
        merged.extend_from_slice(&r2[1..len2 - 1]);
        self.add(merged);
    }

    /// Live walks in stable id order (for embedding validation and the lazily
    /// derived face–vertex graph).
    fn compact(&self) -> Vec<Vec<Vertex>> {
        self.walks.iter().flatten().cloned().collect()
    }
}

/// The walk rotated to start right after position `q`: `walk[q+1..] ++ walk[..=q]`.
fn rotate_after(walk: &[Vertex], q: usize) -> Vec<Vertex> {
    let mut out = Vec::with_capacity(walk.len());
    out.extend_from_slice(&walk[q + 1..]);
    out.extend_from_slice(&walk[..=q]);
    out
}

// ---------------------------------------------------------------------------
// The dynamic cluster view
// ---------------------------------------------------------------------------

/// A cluster of the live [`DynamicClustering`], viewed through the centre
/// oracle with vertex ids as scratch slots (each flush sizes its scratch `n`).
struct DynClusterView<'a> {
    clustering: &'a DynamicClustering,
    center: Vertex,
}

impl ClusterView for DynClusterView<'_> {
    #[inline]
    fn center(&self) -> Vertex {
        self.center
    }

    #[inline]
    fn contains(&self, v: Vertex) -> bool {
        self.clustering.center_of(v) == self.center
    }

    #[inline]
    fn slot(&self, v: Vertex) -> usize {
        v as usize
    }
}

// ---------------------------------------------------------------------------
// The dynamic index
// ---------------------------------------------------------------------------

/// The mutable index: supports [`DynamicPsiIndex::insert_edge`] and
/// [`DynamicPsiIndex::delete_edge`] in time proportional to the affected
/// clusters, serves the same queries as the frozen engine with identical
/// answers, and [`DynamicPsiIndex::freeze`]s back to a byte-identical
/// [`PsiIndex`]. See the module docs for the invariants that make this work.
pub struct DynamicPsiIndex {
    /// The readable state: params, epoch, and the stored rounds, `Arc`-shared
    /// with any outstanding [`PsiSnapshot`]s and frozen indexes, plus the
    /// target/faces/face–vertex cells every accepted mutation empties. A flush
    /// never mutates a round another holder still reads: it edits the round
    /// copy-on-write (cheap — its cluster groups are `Arc`s).
    state: EpochState,
    /// The current epoch's publication, shared by every snapshot of it; dropped
    /// by the next accepted mutation.
    published: Option<Arc<EpochState>>,
    graph: AdjacencyList,
    faces: FaceStore,
    /// One live clustering per stored round, same `(β, seed)` as at build
    /// time; empty until the first accepted mutation builds them.
    clusterings: Vec<DynamicClustering>,
    /// Per round: centres whose batches are stale and must be re-emitted before
    /// the next batch scan (ordered so the flush is deterministic).
    dirty: Vec<BTreeSet<Vertex>>,
}

/// Placeholder, always zero: the flush stores no decompositions, so it reuses
/// and derives none. perfbench's churn run reads it
/// ([`DynamicPsiIndex::decomp_cache_metrics`]) until its next change (ROADMAP
/// benchmark follow-up 5), which deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecompCacheMetrics {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

impl fmt::Debug for DynamicPsiIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicPsiIndex")
            .field("n", &self.graph.num_vertices())
            .field("m", &self.graph.num_edges())
            .field("rounds", &self.state.rounds.len())
            .field(
                "dirty_clusters",
                &self.dirty.iter().map(BTreeSet::len).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

impl DynamicPsiIndex {
    /// Thaws a frozen index into its mutable form: the stored rounds move in
    /// as they are, and nothing is clustered. The per-round clusterings (their
    /// per-vertex arrival state is not serialised — it is a pure function of
    /// the target and the frozen seeds) cost one clustering pass per round,
    /// paid by the first accepted mutation.
    pub fn thaw(index: PsiIndex) -> DynamicPsiIndex {
        let (state, walks) = EpochState::from_index(index);
        DynamicPsiIndex {
            published: None,
            graph: AdjacencyList::from_csr(state.target(&())), // filled by `from_index`
            faces: FaceStore::from_walks(state.n, walks),
            clusterings: Vec::new(),
            dirty: vec![BTreeSet::new(); state.rounds.len()],
            state,
        }
    }

    /// Builds a fresh dynamic index ([`PsiIndex::build`] + [`DynamicPsiIndex::thaw`]).
    pub fn build(embedding: &Embedding, params: IndexParams) -> DynamicPsiIndex {
        Self::thaw(PsiIndex::build(embedding, params))
    }

    /// The build parameters shared with the frozen artifact.
    pub fn params(&self) -> IndexParams {
        self.state.params
    }

    /// Number of target vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of target edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Whether the target currently contains edge `{u, v}`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.graph.has_edge(u, v)
    }

    /// The target as CSR (rebuilt lazily after a mutation, then cached).
    pub fn target_csr(&self) -> &CsrGraph {
        self.state.target(self)
    }

    /// The maintained embedding (target plus live facial walks). `O(n + m)`.
    pub fn embedding(&self) -> Embedding {
        Embedding::new(self.target_csr().clone(), self.faces.compact())
    }

    // --- mutations --------------------------------------------------------

    fn check_endpoints(&self, u: Vertex, v: Vertex) -> Result<(), MutationError> {
        let n = self.graph.num_vertices();
        for x in [u, v] {
            if x as usize >= n {
                return Err(MutationError::VertexOutOfRange { vertex: x, n });
            }
        }
        if u == v {
            return Err(MutationError::SelfLoop { vertex: u });
        }
        Ok(())
    }

    /// Builds the per-round clusterings if this engine has none yet. Called by
    /// a mutation once it is known to change the graph — after its arguments
    /// pass validation and after every refusal, the whole-target LR pass's
    /// included — and before any repair, so it clusters the epoch's target,
    /// still the graph the stored rounds were cut from.
    fn cluster_rounds(&mut self) {
        if !self.clusterings.is_empty() {
            return;
        }
        let params = self.state.params;
        let target = self.state.target(self).clone();
        let beta = cover_beta(params.k as usize);
        self.clusterings = (0..params.rounds)
            .map(|r| {
                DynamicClustering::from_graph(&target, beta, round_seed(params.seed, r.into()))
            })
            .collect();
    }

    /// Inserts edge `{u, v}`, maintaining planarity (rejecting with a verified
    /// Kuratowski witness when the edge would break it), the embedding, and
    /// every round's clustering; the affected clusters' batches are marked
    /// dirty and rebuilt by the next query/freeze/[`DynamicPsiIndex::flush`].
    ///
    /// A face chord splits its face. Otherwise the local insertion test
    /// ([`check_insertion_locally`], traced as a `planarity.local` span) grows
    /// balls around `u` and `v`: a witness in a ball refuses the edge, and
    /// endpoints in different components are joined by a face merge, both in
    /// time proportional to the balls. Only an insert the balls leave
    /// undecided runs one LR pass over the would-be target, which refuses the
    /// edge or re-embeds the whole target. Every refusal comes before any state
    /// changes or clustering.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<UpdateStats, MutationError> {
        let _span = psi_obs::span!("mutate.insert", u = u, v = v);
        let metrics = crate::obs::metrics();
        let start = std::time::Instant::now();
        if let Err(e) = self.check_endpoints(u, v) {
            metrics.mutations_rejected_total.add(1);
            return Err(e);
        }
        if self.graph.has_edge(u, v) {
            metrics.mutations_rejected_total.add(1);
            return Err(MutationError::DuplicateEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        // Decide the repair before any state changes: a refusal returns here,
        // having clustered nothing and touched nothing.
        let repair = match self.faces.common_face(u, v) {
            Some(f) => Repair::Chord(f),
            None => match self.check_locally(u, v) {
                LocalVerdict::NonPlanar(witness) => {
                    metrics.mutations_rejected_total.add(1);
                    metrics.mutations_refused_local_total.add(1);
                    return Err(MutationError::NonPlanar(witness));
                }
                LocalVerdict::Disconnected => Repair::Bridge,
                LocalVerdict::Inconclusive => {
                    // No shared face and no verdict from the balls: a planar
                    // insert here merges biconnected blocks, which
                    // invalidates walks far from the edge, so no local splice
                    // is possible. One LR pass over the would-be target
                    // embeds it or refuses the edge; only the merged block
                    // can fail, and the witness is extracted from it.
                    metrics.mutations_whole_target_total.add(1);
                    self.graph.insert_edge(u, v);
                    let would_be = self.graph.to_csr();
                    self.graph.delete_edge(u, v);
                    match planar_embedding(&would_be) {
                        Ok(embedding) => Repair::Reembed(embedding.faces),
                        Err(witness) => {
                            metrics.mutations_rejected_total.add(1);
                            return Err(MutationError::NonPlanar(witness));
                        }
                    }
                }
            },
        };
        self.cluster_rounds();
        let mut stats = UpdateStats::default();
        match repair {
            Repair::Chord(f) => {
                // The new edge is a chord of face `f`: split it, planarity untouched.
                self.graph.insert_edge(u, v);
                self.faces.split_for_insert(f, u, v);
            }
            Repair::Bridge => {
                // Bridging two components: merge a face of each around the edge.
                let (fu, fv) = (self.faces.any_face_of(u), self.faces.any_face_of(v));
                self.graph.insert_edge(u, v);
                self.faces.merge_for_insert(fu, fv, u, v);
            }
            Repair::Reembed(walks) => {
                self.graph.insert_edge(u, v);
                self.faces = FaceStore::from_walks(self.graph.num_vertices(), walks);
                stats.reembedded = true;
            }
        }
        for r in 0..self.clusterings.len() {
            let mut affected = self.clusterings[r].insert_edge(&self.graph, u, v);
            // An intra-cluster edge changes that cluster's induced subgraph (and
            // its BFS levels) even when no vertex is re-assigned.
            let (cu, cv) = (
                self.clusterings[r].center_of(u),
                self.clusterings[r].center_of(v),
            );
            if cu == cv {
                merge_center(&mut affected, cu);
            }
            stats.affected_clusters += affected.len();
            self.dirty[r].extend(affected);
        }
        stats.dirty_clusters = self.dirty.iter().map(BTreeSet::len).sum();
        self.invalidate_caches();
        metrics.mutations_insert_total.add(1);
        metrics.mutation_ns.record_duration(start.elapsed());
        Ok(stats)
    }

    /// Deletes edge `{u, v}`, maintaining the embedding (face merge, or face
    /// split for a bridge) and every round's clustering; the affected clusters'
    /// batches are marked dirty and rebuilt lazily, as for
    /// [`DynamicPsiIndex::insert_edge`]. Deletion can never break planarity, so
    /// it always succeeds once the edge exists.
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<UpdateStats, MutationError> {
        let _span = psi_obs::span!("mutate.delete", u = u, v = v);
        let metrics = crate::obs::metrics();
        let start = std::time::Instant::now();
        if let Err(e) = self.check_endpoints(u, v) {
            metrics.mutations_rejected_total.add(1);
            return Err(e);
        }
        if !self.graph.has_edge(u, v) {
            metrics.mutations_rejected_total.add(1);
            return Err(MutationError::MissingEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        self.cluster_rounds();
        let sides = self.faces.edge_sides(u, v);
        if sides[0].0 == sides[1].0 {
            self.faces.split_for_bridge_delete(sides[0].0, u, v);
        } else {
            self.faces.merge_for_delete(sides[0], sides[1]);
        }
        self.graph.delete_edge(u, v);
        let mut stats = UpdateStats::default();
        for r in 0..self.clusterings.len() {
            // Capture the centres *before* the repair: if the edge was
            // intra-cluster, that cluster's induced subgraph shrinks even when
            // membership survives.
            let (cu, cv) = (
                self.clusterings[r].center_of(u),
                self.clusterings[r].center_of(v),
            );
            let mut affected = self.clusterings[r].delete_edge(&self.graph, u, v);
            if cu == cv {
                merge_center(&mut affected, cu);
            }
            stats.affected_clusters += affected.len();
            self.dirty[r].extend(affected);
        }
        stats.dirty_clusters = self.dirty.iter().map(BTreeSet::len).sum();
        self.invalidate_caches();
        metrics.mutations_delete_total.add(1);
        metrics.mutation_ns.record_duration(start.elapsed());
        Ok(stats)
    }

    /// Rebuilds the batches of every cluster dirtied since the last flush and
    /// returns the number of batches re-emitted. Queries, [`Self::freeze`], and
    /// the batch front ends flush implicitly; call this directly to pay the
    /// rebuild at a moment of your choosing (e.g. off the serving path). A
    /// cluster dirtied by many flips is rebuilt once, from the *current*
    /// clustering state — batches are a pure function of membership, so the
    /// result is identical to eager per-flip rebuilds. The flush keeps nothing
    /// between calls: its cluster scratch and batch builder live for one flush,
    /// and it drops each group it replaces. It decomposes no batch.
    pub fn flush(&mut self) -> usize {
        // Clean engines flush implicitly before every query; skip all
        // bookkeeping (spans, histogram samples, scratch) so those no-ops stay
        // free and don't pollute the flush latency distribution.
        if self.dirty.iter().all(BTreeSet::is_empty) {
            return 0;
        }
        let dirty_total: usize = self.dirty.iter().map(BTreeSet::len).sum();
        let mut span = psi_obs::span!("flush", dirty_clusters = dirty_total);
        let metrics = crate::obs::metrics();
        let start = std::time::Instant::now();
        let mut scratch = ClusterScratch::new(self.graph.num_vertices());
        let mut batch = BatchBuilder::new(self.state.params.batch_budget as usize);
        let mut rebuilt = 0usize;
        for r in 0..self.dirty.len() {
            if self.dirty[r].is_empty() {
                continue;
            }
            let affected: Vec<Vertex> = std::mem::take(&mut self.dirty[r]).into_iter().collect();
            rebuilt += self.rebuild_clusters(r, &affected, &mut scratch, &mut batch);
        }
        span.field("batches_rebuilt", rebuilt as u64);
        metrics.flushes_total.add(1);
        metrics.flush_batches_rebuilt_total.add(rebuilt as u64);
        metrics.flush_ns.record_duration(start.elapsed());
        rebuilt
    }

    /// The local insertion test of `{u, v}` ([`check_insertion_locally`]) on the
    /// current adjacency lists, under a `planarity.local` span. Only reached
    /// when the insertion is not a face chord.
    fn check_locally(&self, u: Vertex, v: Vertex) -> LocalVerdict {
        let mut span = psi_obs::span!("planarity.local");
        let local = check_insertion_locally(&self.graph, u, v);
        span.field("radius", local.radius.into());
        span.field("vertices", local.vertices as u64);
        let refused = matches!(local.verdict, LocalVerdict::NonPlanar(_));
        span.field("refused", refused.into());
        local.verdict
    }

    /// Re-emits the batches of every centre in `affected` (sorted, deduplicated)
    /// for round `r`, through the same `emit_cluster_batches` path as the
    /// from-scratch build, and returns the batches re-emitted. Centres that are
    /// no longer centres are just removed. Removing a group clears the window
    /// labels it set and putting the rebuilt one in sets its members' labels,
    /// so the round's labels stay those a fresh build derives from its windows.
    ///
    /// The rebuild is copy-on-write: a round that a snapshot or frozen index
    /// still holds is cloned first (`O(clusters)` `Arc` bumps and one copy of
    /// its labels), so those holders keep scanning the retired round, which is
    /// freed when the last one drops.
    fn rebuild_clusters(
        &mut self,
        r: usize,
        affected: &[Vertex],
        scratch: &mut ClusterScratch,
        batch: &mut BatchBuilder,
    ) -> usize {
        let d = self.state.params.d as usize;
        let mut rebuilt = 0usize;
        let round: &mut StoredRound = Arc::make_mut(&mut self.state.rounds[r]);
        for &c in affected {
            round.remove_group(c);
            if !self.clusterings[r].is_center(c) {
                continue; // the cluster dissolved; nothing to re-emit
            }
            let view = DynClusterView {
                clustering: &self.clusterings[r],
                center: c,
            };
            let mut batches = Vec::new();
            let _: Option<()> = emit_cluster_batches(
                &self.graph,
                &view,
                d,
                1, // min_vertices: mirror the build (serve k' < k patterns too)
                scratch,
                batch,
                &PassCounters::default(), // nothing reads a flush's pass counts
                &mut |b| {
                    batches.push(b);
                    None
                },
            );
            rebuilt += batches.len();
            round.put_group(c, batches);
        }
        psi_obs::event!("flush.publish", round = r, rebuilt = rebuilt);
        rebuilt
    }

    fn invalidate_caches(&mut self) {
        self.state.advance();
        self.published = None;
        crate::obs::metrics().epoch_advances_total.add(1);
    }

    // --- freezing ---------------------------------------------------------

    /// Freezes back to the immutable artifact (flushing any dirty clusters
    /// first). The result is **bit-for-bit identical** (struct and
    /// [`PsiIndex::to_bytes`] stream) to [`PsiIndex::build`] on the current
    /// graph: rounds concatenate the per-centre streams in ascending centre
    /// order — the canonical stream — and the faces are re-canonicalised
    /// through [`planar_embedding`], which is a pure function of the target.
    pub fn freeze(&mut self) -> PsiIndex {
        let _span = psi_obs::span!("freeze", n = self.graph.num_vertices());
        self.flush();
        self.state.freeze(self)
    }

    // --- snapshots ---------------------------------------------------------

    /// The current epoch. Strictly increases across accepted mutations;
    /// rejected mutations and queries leave it unchanged.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// Pins the current state as an immutable, `Send + Sync` [`PsiSnapshot`]
    /// that concurrent readers can query while this engine keeps mutating and
    /// flushing.
    ///
    /// Cost: one implicit [`DynamicPsiIndex::flush`] of the dirty backlog, then
    /// `O(rounds)` `Arc` bumps plus the epoch's target CSR and facial walks
    /// (derived once per epoch, shared with the live reads) — no batch copies.
    /// Snapshots of an unchanged engine share one publication (and one epoch
    /// number).
    pub fn snapshot(&mut self) -> PsiSnapshot {
        let _span = psi_obs::span!("snapshot", epoch = self.state.epoch);
        crate::obs::metrics().snapshots_total.add(1);
        self.flush();
        if let Some(state) = &self.published {
            return PsiSnapshot::new(state.clone());
        }
        let state = Arc::new(self.state.publish(self));
        self.published = Some(state.clone());
        PsiSnapshot::new(state)
    }

    /// Placeholder, always zero ([`DecompCacheMetrics`]): perfbench's churn run
    /// reads it until its next change (ROADMAP benchmark follow-up 5).
    pub fn decomp_cache_metrics(&self) -> DecompCacheMetrics {
        DecompCacheMetrics::default()
    }

    // --- queries ----------------------------------------------------------
    //
    // Each query flushes the dirty backlog (pattern scans read the rounds'
    // window labels and, past the node budget, their batches), then reads the
    // engine's `EpochState` in place — the same implementation frozen and
    // pinned snapshots run (see `crate::snapshot`).

    /// Decides whether `pattern` occurs in the live target (flushing dirty
    /// clusters first); same contract as [`PsiSnapshot::decide`].
    pub fn decide(&mut self, pattern: &Pattern) -> Result<bool, QueryError> {
        self.flush();
        self.state.decide(pattern, self)
    }

    /// Finds one occurrence (flushing dirty clusters first); the witness is the
    /// scan's first hit in root order, searched on the adjacency lists —
    /// identical to the witness of a frozen artifact of the same graph.
    pub fn find_one(&mut self, pattern: &Pattern) -> Result<Option<Vec<Vertex>>, QueryError> {
        self.flush();
        self.state.find_one(pattern, self)
    }

    /// [`DynamicPsiIndex::decide`] over many patterns on the work-stealing pool,
    /// answers in input order (one flush up front, then read-only scans).
    pub fn decide_batch(&mut self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        self.flush();
        self.state.decide_batch(patterns, self)
    }

    /// [`DynamicPsiIndex::find_one`] over many patterns (input order,
    /// deterministic witnesses; one flush up front).
    pub fn find_one_batch(
        &mut self,
        patterns: &[Pattern],
    ) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
        self.flush();
        self.state.find_one_batch(patterns, self)
    }

    /// Capped pairwise s–t vertex connectivity against the live target, in input
    /// order (the planar cap of [`crate::CONNECTIVITY_CAP`] applies).
    pub fn connectivity_batch(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Result<usize, QueryError>> {
        self.state.connectivity_batch(pairs, self)
    }

    /// Global vertex connectivity from the maintained embedding's face–vertex
    /// graph (Lemma 5.1); the graph is derived once per epoch. The connectivity
    /// *value* is embedding-independent, so it matches the frozen answer.
    pub fn vertex_connectivity(&self, mode: ConnectivityMode, seed: u64) -> ConnectivityResult {
        self.state.vertex_connectivity(mode, seed, self)
    }
}

/// The live engine fills its epoch cells from the adjacency lists and the
/// maintained face store.
impl EpochSource for DynamicPsiIndex {
    fn csr(&self) -> CsrGraph {
        self.graph.to_csr()
    }

    fn walks(&self) -> Vec<Vec<Vertex>> {
        self.faces.compact()
    }

    fn adjacency(&self) -> Option<&AdjacencyList> {
        Some(&self.graph)
    }
}

/// How an accepted insert repairs the embedding.
enum Repair {
    /// Split the face whose walk holds both endpoints.
    Chord(u32),
    /// Merge a face of each endpoint's component around the new bridge.
    Bridge,
    /// Replace every face by the walks of the would-be target's LR embedding.
    Reembed(Vec<Vec<Vertex>>),
}

/// Inserts `c` into the sorted, deduplicated centre list.
fn merge_center(affected: &mut Vec<Vertex>, c: Vertex) {
    if let Err(at) = affected.binary_search(&c) {
        affected.insert(at, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::CoverBatch;
    use psi_planar::generators as pg;

    fn params() -> IndexParams {
        IndexParams::default()
    }

    /// The invariant everything rests on: after any accepted mutation, freezing
    /// equals a from-scratch build of the current graph, bytes and all.
    fn assert_matches_scratch(dynamic: &mut DynamicPsiIndex) {
        let frozen = dynamic.freeze();
        let embedding = planar_embedding(dynamic.target_csr()).unwrap();
        let scratch = PsiIndex::build(&embedding, dynamic.params());
        assert_eq!(frozen, scratch, "frozen struct diverged from scratch build");
        assert_eq!(
            frozen.to_bytes(),
            scratch.to_bytes(),
            "serialised artifact diverged from scratch build"
        );
    }

    fn assert_valid_embedding(dynamic: &DynamicPsiIndex) {
        let e = dynamic.embedding();
        e.validate().expect("maintained embedding must stay valid");
        assert!(e.is_planar(), "maintained embedding must stay planar");
    }

    #[test]
    fn chord_insert_splits_a_face_and_matches_scratch() {
        let e = pg::grid_embedded(6, 6);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        // A diagonal inside the top-left grid cell (vertices 0, 1, 6, 7).
        let stats = dynamic.insert_edge(0, 7).unwrap();
        assert!(!stats.reembedded);
        assert!(stats.affected_clusters >= 1);
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
        assert!(dynamic.has_edge(0, 7));
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let e = pg::grid_embedded(5, 5);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        let before = dynamic.freeze().to_bytes();
        dynamic.delete_edge(0, 1).unwrap();
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
        dynamic.insert_edge(0, 1).unwrap();
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
        assert_eq!(dynamic.freeze().to_bytes(), before);
    }

    #[test]
    fn bridge_delete_splits_components_and_faces() {
        // A path is all bridges; deleting the middle edge must split the face
        // and leave two components with valid embeddings.
        let g = psi_graph::generators::path(6);
        let embedding = planar_embedding(&g).unwrap();
        let mut dynamic = DynamicPsiIndex::build(&embedding, params());
        dynamic.delete_edge(2, 3).unwrap();
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
        // Re-join the components (cross-component merge path).
        dynamic.insert_edge(2, 3).unwrap();
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn nonplanar_insert_is_rejected_with_a_verified_witness() {
        // K5 minus one edge is planar; inserting the missing edge must be
        // rejected, leave the index untouched, and certify the rejection.
        let g = {
            let mut b = psi_graph::GraphBuilder::new(5);
            for a in 0..5u32 {
                for c in (a + 1)..5u32 {
                    if (a, c) != (3, 4) {
                        b.add_edge(a, c);
                    }
                }
            }
            b.build()
        };
        let embedding = planar_embedding(&g).unwrap();
        let mut dynamic = DynamicPsiIndex::build(&embedding, params());
        let before = dynamic.freeze().to_bytes();
        match dynamic.insert_edge(3, 4) {
            Err(MutationError::NonPlanar(w)) => {
                assert!(w.verify(&{
                    let mut adj = AdjacencyList::from_csr(&g);
                    adj.insert_edge(3, 4);
                    adj.to_csr()
                }));
            }
            other => panic!("expected NonPlanar, got {other:?}"),
        }
        assert!(!dynamic.has_edge(3, 4));
        assert_eq!(
            dynamic.freeze().to_bytes(),
            before,
            "rejection must not mutate"
        );
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn malformed_mutations_error_cleanly() {
        let e = pg::grid_embedded(3, 3);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        assert!(matches!(
            dynamic.insert_edge(0, 99),
            Err(MutationError::VertexOutOfRange { vertex: 99, .. })
        ));
        assert!(matches!(
            dynamic.insert_edge(4, 4),
            Err(MutationError::SelfLoop { vertex: 4 })
        ));
        assert!(matches!(
            dynamic.insert_edge(0, 1),
            Err(MutationError::DuplicateEdge { u: 0, v: 1 })
        ));
        assert!(matches!(
            dynamic.delete_edge(0, 4),
            Err(MutationError::MissingEdge { u: 0, v: 4 })
        ));
        // Errors chain: the non-planar rejection exposes the witness as source.
        let err = dynamic.insert_edge(0, 99).unwrap_err();
        assert!(std::error::Error::source(&err).is_none());
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn queries_match_the_frozen_engine_after_churn() {
        let e = pg::grid_embedded(6, 6);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        dynamic.insert_edge(0, 7).unwrap();
        dynamic.insert_edge(14, 21).unwrap();
        dynamic.delete_edge(0, 1).unwrap();
        let engine = PsiSnapshot::from(dynamic.freeze());
        for pattern in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::path(3),
            Pattern::star(3),
            Pattern::clique(4),
        ] {
            assert_eq!(dynamic.decide(&pattern), engine.decide(&pattern));
            assert_eq!(dynamic.find_one(&pattern), engine.find_one(&pattern));
        }
        let pairs = [(0u32, 35u32), (7, 14), (3, 30)];
        assert_eq!(
            dynamic.connectivity_batch(&pairs),
            engine.connectivity_batch(&pairs)
        );
    }

    #[test]
    fn first_accepted_mutation_clusters_and_freeze_shares_the_rounds() {
        let e = pg::grid_embedded(6, 6);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        assert!(dynamic.clusterings.is_empty(), "thaw clustered");
        assert!(dynamic.insert_edge(0, 1).is_err());
        assert!(dynamic.delete_edge(0, 7).is_err());
        assert!(dynamic.insert_edge(3, 3).is_err());
        // An interior chord shares no face with the grid: the local test
        // refuses it before the clusterings are built.
        assert!(matches!(
            dynamic.insert_edge(7, 21),
            Err(MutationError::NonPlanar(_))
        ));
        assert!(
            dynamic.clusterings.is_empty(),
            "a rejected mutation clustered"
        );
        dynamic.insert_edge(0, 7).unwrap();
        assert_eq!(dynamic.clusterings.len(), params().rounds as usize);
        assert!(dynamic.flush() > 0);
        // Freeze hands the engine's cluster groups to the index: no batch copy.
        let frozen = dynamic.freeze();
        for (live, stored) in dynamic.state.rounds.iter().zip(frozen.rounds()) {
            assert_eq!(live.groups.len(), stored.groups.len());
            for (a, b) in live.groups.values().zip(stored.groups.values()) {
                assert!(Arc::ptr_eq(a, b), "freeze copied a cluster's batches");
            }
        }
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn live_decide_after_a_mutation_derives_no_target_or_faces() {
        // Pattern scans read the adjacency lists and the window labels the
        // flush patches, so the read derives neither the CSR nor the faces.
        let e = pg::grid_embedded(5, 5);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        dynamic.insert_edge(0, 6).unwrap();
        assert!(dynamic.state.target.get().is_none());
        assert_eq!(dynamic.decide(&Pattern::triangle()), Ok(true));
        assert_eq!(
            dynamic.decide_batch(&[Pattern::cycle(4), Pattern::clique(4)]),
            vec![Ok(true), Ok(false)]
        );
        assert!(
            dynamic.state.target.get().is_none(),
            "decide derived the CSR"
        );
        assert!(
            dynamic.state.faces.get().is_none(),
            "decide compacted faces"
        );
        // Connectivity reads the target, once per epoch.
        assert!(dynamic.connectivity_batch(&[(0, 24)])[0].is_ok());
        assert!(dynamic.state.target.get().is_some());
    }

    /// Cell diagonals of a `w × w` grid, spread over distinct cells — every
    /// insert is a face chord, accepted without a re-embed.
    fn diagonals(w: usize) -> Vec<(Vertex, Vertex)> {
        let mut out = Vec::new();
        for r in (0..w - 1).step_by(2) {
            for c in (0..w - 1).step_by(3) {
                out.push(((r * w + c) as Vertex, ((r + 1) * w + c + 1) as Vertex));
            }
        }
        out
    }

    #[test]
    fn rebuilt_clusters_reuse_their_own_decompositions_and_free_the_rest() {
        // On a 48×48 grid a cluster spans several batches, so a diagonal
        // leaves some of a dirty cluster's batches as they were. No batch
        // stores a decomposition, so the flush reuses none; it keeps none of
        // the groups it replaces either.
        let e = pg::grid_embedded(48, 48);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        let held: Vec<Vec<(Vertex, Arc<Vec<CoverBatch>>)>> = dynamic
            .state
            .rounds
            .iter()
            .map(|round| round.groups.iter().map(|(&c, g)| (c, g.clone())).collect())
            .collect();
        for &(u, v) in diagonals(48).iter().step_by(37) {
            dynamic.insert_edge(u, v).expect("cell diagonal rejected");
        }
        assert!(dynamic.flush() > 0);
        let mut replaced = 0;
        for (round, groups) in dynamic.state.rounds.iter().zip(&held) {
            for (c, old) in groups {
                if round.groups.get(c).is_some_and(|now| Arc::ptr_eq(now, old)) {
                    continue;
                }
                replaced += 1;
                assert_eq!(
                    Arc::strong_count(old),
                    1,
                    "a replaced group outlived the flush"
                );
            }
        }
        assert!(replaced > 0);
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn whole_target_refusals_cluster_nothing() {
        // A K3,3 with every edge subdivided into a 64-edge path, less the path
        // from 0 to 3: the edge {0, 3} completes a subdivision spanning the
        // whole graph, beyond every ball of the local test.
        let mut b = psi_graph::GraphBuilder::new(6 + 8 * 63);
        let mut next = 6 as Vertex;
        for a in 0..3 as Vertex {
            for t in 3..6 as Vertex {
                if (a, t) == (0, 3) {
                    continue;
                }
                let mut prev = a;
                for _ in 1..64 {
                    b.add_edge(prev, next);
                    prev = next;
                    next += 1;
                }
                b.add_edge(prev, t);
            }
        }
        let g = b.build();
        let mut dynamic = DynamicPsiIndex::build(&planar_embedding(&g).unwrap(), params());
        assert!(matches!(
            check_insertion_locally(&dynamic.graph, 0, 3).verdict,
            LocalVerdict::Inconclusive
        ));
        assert!(matches!(
            dynamic.insert_edge(0, 3),
            Err(MutationError::NonPlanar(_))
        ));
        assert!(
            dynamic.clusterings.is_empty(),
            "a whole-target refusal clustered"
        );
        assert!(!dynamic.has_edge(0, 3));
        assert_matches_scratch(&mut dynamic);
    }

    #[test]
    fn block_merge_insert_falls_back_to_reembed() {
        // A square with chord 0-2 and a pendant 4 on vertex 1, with the pendant
        // embedded *inside* triangle [0,1,2]. Vertex 4 then shares no face with
        // vertex 3, yet G + {3,4} is planar (flip the pendant into the outer
        // face). The insert must fail both fast paths, pass the LR test of the
        // whole target, fully re-embed, and still match scratch.
        let graph = psi_graph::GraphBuilder::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4)],
        );
        let faces = vec![
            vec![0, 1, 4, 1, 2], // triangle 0-1-2 with the pendant tucked inside
            vec![0, 2, 3],
            vec![0, 3, 2, 1], // outer face
        ];
        let e = Embedding::new(graph, faces);
        e.validate().expect("hand-built embedding is valid");
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        assert!(dynamic
            .embedding()
            .faces
            .iter()
            .all(|f| { !(f.contains(&3) && f.contains(&4)) }));
        let stats = dynamic.insert_edge(3, 4).unwrap();
        assert!(stats.reembedded, "no-common-face insert must re-embed");
        assert_valid_embedding(&dynamic);
        assert_matches_scratch(&mut dynamic);
    }
}
