//! The Parallel Treewidth k-d Cover (Section 2.1) and its S-separating variant
//! (Section 5.2.1), as a **sharded streaming pipeline**.
//!
//! The cover turns an arbitrarily large planar target graph into a collection of
//! overlapping induced subgraphs of bounded treewidth such that any fixed occurrence of
//! a connected `k`-vertex, diameter-`d` pattern lies entirely inside one of them with
//! probability at least 1/2 (Theorem 2.4):
//!
//! 1. run an exponential start time `2k`-clustering (Lemma 2.3),
//! 2. run a BFS from the centre inside every cluster (the clusters have diameter
//!    `O(k log n)`, so the BFS has low depth),
//! 3. for every BFS level `i`, output the subgraph induced by the vertices at levels
//!    `i .. i+d` of that cluster (windows whose upper end is clipped by the deepest
//!    level are subsumed by the last full window and skipped, cf. Figure 3).
//!
//! ## The sharded pipeline
//!
//! Clusters are grouped into contiguous-id *shards* of roughly
//! [`SHARD_VERTEX_TARGET`] member vertices each; shards run in parallel, clusters
//! within a shard run sequentially over **epoch-stamped scratch** sized by the shard
//! (not by `n`), so one cover round is a single `O(n + m)` pass — the previous
//! implementation allocated and memset two `O(n)` vectors *per cluster*. Windows with
//! fewer than `min_vertices` vertices are never constructed at all, and constructed
//! windows stream out as size-bucketed [`CoverBatch`]es: small windows are packed
//! back-to-back into one disjoint-union graph (amortising tree-decomposition and DP
//! setup), windows at least as large as the batch budget travel alone. Batches are
//! *cluster-pure* (flushed at every cluster boundary) and stamped with the cluster's
//! centre vertex, so the batch stream is a function of the cluster set alone — not of
//! shard boundaries or dense cluster numbering — which is what lets the dynamic index
//! rebuild single clusters and splice the results in bit-identically. Consumers
//! ([`crate::isomorphism`], [`crate::listing`], [`crate::connectivity`]) process
//! batches as they appear and stop all shards through a shared flag as soon as a
//! witness is found, instead of materialising the full `O(nd)`-vertex piece list
//! up front. A batch budget of 0 flushes after every window, so one batch is one
//! piece: that is how the experiments and the tests read the cover window by window.
//!
//! The S-separating variant additionally contracts, per cluster, every connected
//! component of the *rest of the graph* and every connected component of
//! "cluster minus window" into single *merged* vertices, producing minors in which an
//! occurrence is separating if and only if it separates `S` in the original graph
//! (Figure 7); merged vertices are excluded from the allowed image set.

use psi_cluster::{cluster_parallel, Clustering};
use psi_graph::{
    CsrGraph, EpochMap, EpochSet, GraphBuilder, NeighborSource, UnionFind, Vertex, INVALID_VERTEX,
};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Target member count of one shard (clusters are packed greedily in id order until a
/// shard reaches this many vertices). Thread-count independent, so batch boundaries —
/// and with them every streamed artefact — are bit-identical across pool sizes.
pub const SHARD_VERTEX_TARGET: usize = 4096;

/// Default vertex budget of one [`CoverBatch`]: windows are packed until the union
/// reaches this many vertices. Chosen so that the per-batch tree-decomposition stays
/// cache-resident while the per-piece setup cost (allocation, path layering) amortises
/// over dozens of small windows.
pub const DEFAULT_BATCH_BUDGET: usize = 256;

/// The batch budget appropriate for a `k`-vertex pattern.
///
/// Packing pays off when the per-window DP is near-linear (small patterns: bounded
/// state counts, setup-dominated), and backfires when the `(τ+3)^k` factor makes a
/// single unlucky window exponential — there a batch forces every packed window's DP
/// to complete before the consumer can act on a hit, while solo windows (budget 0)
/// keep the piece-level early exit. The threshold matches where the DP factor starts
/// to dominate setup on triangulated-grid targets (`experiments f4` prints the
/// decision time per pattern size).
pub fn batch_budget_for(k: usize) -> usize {
    if k <= 5 {
        DEFAULT_BATCH_BUDGET
    } else {
        0
    }
}

/// Counters of one sharded cover pass (scratch bytes witness the `O(n)` memory bound).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverStats {
    /// Number of clusters of the round's clustering.
    pub clusters: usize,
    /// Number of shards the clusters were grouped into.
    pub shards: usize,
    /// Windows constructed (i.e. with at least `min_vertices` vertices).
    pub pieces: usize,
    /// Windows below `min_vertices`, skipped before any allocation.
    pub skipped_small: usize,
    /// Batches emitted to the consumer.
    pub batches: usize,
    /// Total epoch-stamped scratch resident across all shards — `O(n)` by
    /// construction (12 bytes per member vertex), independent of the cluster count.
    pub scratch_bytes: usize,
}

impl CoverStats {
    /// Accumulates another pass's counters (saturating adds; commutative and
    /// associative, so aggregated totals are independent of merge order).
    pub fn absorb(&mut self, other: &CoverStats) {
        self.clusters = self.clusters.saturating_add(other.clusters);
        self.shards = self.shards.saturating_add(other.shards);
        self.pieces = self.pieces.saturating_add(other.pieces);
        self.skipped_small = self.skipped_small.saturating_add(other.skipped_small);
        self.batches = self.batches.saturating_add(other.batches);
        self.scratch_bytes = self.scratch_bytes.saturating_add(other.scratch_bytes);
    }
}

/// A size-bucketed batch of cover windows packed into one disjoint-union graph.
///
/// Windows are vertex-disjoint segments of `graph` (no edges cross segments), so a
/// connected pattern occurrence in `graph` lies inside a single window and
/// `local_to_global` translates it straight back to original vertex ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverBatch {
    /// The disjoint union of the packed windows.
    pub graph: CsrGraph,
    /// Original vertex id of every union vertex.
    pub local_to_global: Vec<Vertex>,
    /// `(cluster centre vertex, level_start, vertex offset into the union)` per
    /// packed window, in emission order. All windows of a batch come from the same
    /// cluster (batches are cluster-pure, see `emit_cluster_batches`).
    pub windows: Vec<(u32, u32, u32)>,
}

impl CoverBatch {
    /// Number of windows packed into this batch.
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// Per-window vertex ranges `[start, end)` into the union's vertex ids.
    pub fn segment_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.windows.len()).map(move |w| {
            let start = self.windows[w].2 as usize;
            let end = self
                .windows
                .get(w + 1)
                .map(|&(_, _, o)| o as usize)
                .unwrap_or(self.local_to_global.len());
            (start, end)
        })
    }

    /// Per packed window: its cluster centre, its start level and its vertices
    /// in target ids.
    pub(crate) fn windows_with_members(&self) -> impl Iterator<Item = (u32, u32, &[Vertex])> {
        self.segment_ranges()
            .zip(&self.windows)
            .map(|((start, end), &(centre, level, _))| {
                (centre, level, &self.local_to_global[start..end])
            })
    }

    /// A binarised tree decomposition of the union: the min-degree decomposition
    /// of each segment, chained. Every batch takes this one rule, derived only
    /// when a DP runs on the batch: the classic path, the index scan's fallback,
    /// the paper's DP and listing run on it, and nothing stores it.
    ///
    /// Decomposing the union in one pass would let the elimination heuristic
    /// interleave segments, producing a tree in which partial matches of *different
    /// windows* coexist in the same DP tables — a multiplicative state blowup for
    /// larger patterns (the `(τ+3)^k` factor squared). Decomposing each window
    /// separately and chaining the segment trees keeps every subtree window-pure
    /// except along the chain spine, where forget-safety admits only complete (or
    /// empty) matches across, so the batched DP costs the sum of the per-window DPs
    /// plus `O(1)` chain overhead.
    pub fn decomposition(&self) -> psi_treedecomp::BinaryTreeDecomposition {
        let mut bags: Vec<Vec<Vertex>> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (start, end) in self.segment_ranges() {
            let adjacency: Vec<Vec<Vertex>> = (start..end)
                .map(|v| {
                    self.graph
                        .neighbors(v as Vertex)
                        .iter()
                        .map(|&w| w - start as Vertex)
                        .collect()
                })
                .collect();
            let seg = CsrGraph::from_sorted_adjacency(adjacency);
            let td = psi_treedecomp::min_degree_decomposition(&seg);
            let base = bags.len();
            if base > 0 {
                // attach this segment's first bag to the previous segment's last bag;
                // segments share no vertices, so any tree over segment trees is valid
                edges.push((base - 1, base));
            }
            bags.extend(
                td.bags
                    .iter()
                    .map(|bag| bag.iter().map(|&v| v + start as Vertex).collect::<Vec<_>>()),
            );
            edges.extend(td.tree_edges.iter().map(|&(a, b)| (base + a, base + b)));
        }
        let td = psi_treedecomp::TreeDecomposition::new(bags, edges, self.graph.num_vertices());
        psi_treedecomp::BinaryTreeDecomposition::from_decomposition(&td)
    }

    /// Placeholder: [`CoverBatch::decomposition`] and the number of its segments
    /// that took the layered Baker/Eppstein construction, which is always 0:
    /// batches no longer try it. Only perfbench's serve replay reads this pair,
    /// until its next change (ROADMAP benchmark follow-up 5).
    pub fn decomposition_described(&self) -> (psi_treedecomp::BinaryTreeDecomposition, usize) {
        (self.decomposition(), 0)
    }
}

/// Shared atomic counters of one pass.
#[derive(Default)]
pub(crate) struct PassCounters {
    pieces: AtomicUsize,
    skipped_small: AtomicUsize,
    batches: AtomicUsize,
    scratch_bytes: AtomicUsize,
}

impl PassCounters {
    fn stats(&self, clustering: &Clustering, shards: usize) -> CoverStats {
        CoverStats {
            clusters: clustering.num_clusters(),
            shards,
            pieces: self.pieces.load(Ordering::Relaxed),
            skipped_small: self.skipped_small.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            scratch_bytes: self.scratch_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Base seed of the default index (`IndexParams`) and of the default classic
/// query (`QueryConfig`).
pub(crate) const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The clustering seed of cover round `round` drawn from base seed `base`. The
/// index's stored rounds, the classic query's repetitions, listing's iterations
/// (from a salted base) and Cover-mode connectivity all derive their rounds'
/// seeds here, so index round `r` clusters exactly like round `r` of a classic
/// query with the same base seed.
pub(crate) fn round_seed(base: u64, round: u64) -> u64 {
    base.wrapping_add(round).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The clustering parameter of every cover round (`β = 2k`, Observation 1).
pub(crate) fn cover_beta(k: usize) -> f64 {
    2.0 * k.max(1) as f64
}

/// The clustering every cover round starts from.
fn cover_clustering(graph: &CsrGraph, k: usize, seed: u64) -> Clustering {
    cluster_parallel(graph, cover_beta(k), seed)
}

/// Contiguous cluster-id ranges of roughly [`SHARD_VERTEX_TARGET`] members each.
fn shard_ranges(clustering: &Clustering) -> Vec<(u32, u32)> {
    let num = clustering.num_clusters() as u32;
    let mut shards = Vec::new();
    let mut start = 0u32;
    let mut members = 0usize;
    for cid in 0..num {
        members += clustering.members_of(cid).len();
        if members >= SHARD_VERTEX_TARGET {
            shards.push((start, cid + 1));
            start = cid + 1;
            members = 0;
        }
    }
    if start < num {
        shards.push((start, num));
    }
    shards
}

/// One cluster as the streaming emitter sees it: the BFS root, a membership oracle,
/// and a dense scratch-slot mapping for the cluster's vertices.
///
/// The full build implements this over a [`Clustering`]'s flat member layout
/// ([`StaticClusterView`]); the dynamic index implements it over the
/// [`psi_cluster::DynamicClustering`] centre oracle with vertex ids as slots. Both
/// feed the same `emit_cluster_batches` — the single code path that guarantees an
/// incremental per-cluster rebuild is bit-identical to the from-scratch build.
pub(crate) trait ClusterView {
    /// The cluster's centre vertex (BFS root and canonical window stamp).
    fn center(&self) -> Vertex;
    /// Whether `v` belongs to this cluster.
    fn contains(&self, v: Vertex) -> bool;
    /// Dense scratch slot of `v` (only called when `contains(v)` holds).
    fn slot(&self, v: Vertex) -> usize;
}

/// Cluster `cid` of a dense [`Clustering`], slotted by shard-relative member position.
pub(crate) struct StaticClusterView<'a> {
    clustering: &'a Clustering,
    /// Base offset of the shard inside the clustering's flat member array.
    base: usize,
    cid: u32,
}

impl ClusterView for StaticClusterView<'_> {
    #[inline]
    fn center(&self) -> Vertex {
        self.clustering.members_of(self.cid)[0]
    }

    #[inline]
    fn contains(&self, v: Vertex) -> bool {
        self.clustering.cluster_of[v as usize] == self.cid
    }

    #[inline]
    fn slot(&self, v: Vertex) -> usize {
        self.clustering.member_position(v) - self.base
    }
}

/// Reusable per-cluster scratch: every array is sized by the slot space (the shard's
/// member count for the static build, `n` for the dynamic rebuild) and logically
/// cleared per cluster/window by an epoch bump.
pub(crate) struct ClusterScratch {
    /// BFS visited set, keyed by [`ClusterView::slot`] (levels are delimited by
    /// `level_starts`, so no per-vertex distance needs storing).
    visited: EpochSet,
    /// Window-local (or union-local) vertex id, keyed by [`ClusterView::slot`].
    local_id: EpochMap<u32>,
    /// BFS visitation order of the current cluster (each level sorted by vertex id).
    order: Vec<Vertex>,
    /// `level_starts[l]..level_starts[l + 1]` delimits level `l` inside `order`.
    level_starts: Vec<u32>,
}

impl ClusterScratch {
    pub(crate) fn new(slots: usize) -> ClusterScratch {
        ClusterScratch {
            visited: EpochSet::new(slots),
            local_id: EpochMap::new(slots),
            order: Vec::new(),
            level_starts: Vec::new(),
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.visited.bytes() + self.local_id.bytes()
    }

    /// Level-synchronous BFS from the cluster centre, restricted to the cluster by the
    /// membership oracle (no membership mask is materialised). Each level of `order`
    /// is sorted by vertex id, matching the canonical window layout.
    fn bfs_cluster<G: NeighborSource + ?Sized, V: ClusterView>(&mut self, graph: &G, view: &V) {
        self.visited.clear();
        self.order.clear();
        self.level_starts.clear();
        let root = view.center();
        self.visited.insert(view.slot(root));
        self.order.push(root);
        self.level_starts.push(0);
        self.level_starts.push(1);
        loop {
            let len = self.level_starts.len();
            let (lo, hi) = (
                self.level_starts[len - 2] as usize,
                self.level_starts[len - 1] as usize,
            );
            for i in lo..hi {
                let u = self.order[i];
                for &w in graph.neighbors_of(u) {
                    if view.contains(w) && self.visited.insert(view.slot(w)) {
                        self.order.push(w);
                    }
                }
            }
            if self.order.len() == hi {
                break;
            }
            self.order[hi..].sort_unstable();
            self.level_starts.push(self.order.len() as u32);
        }
    }

    /// The window `[start, start + d]` as a slice of `order` (levels are contiguous).
    fn window(&self, start: usize, d: usize) -> &[Vertex] {
        let max_level = self.level_starts.len() - 2;
        let end = (start + d).min(max_level);
        &self.order[self.level_starts[start] as usize..self.level_starts[end + 1] as usize]
    }

    /// Number of BFS levels minus one (the deepest level index).
    fn max_level(&self) -> usize {
        self.level_starts.len() - 2
    }
}

/// Accumulates windows into one disjoint-union batch.
pub(crate) struct BatchBuilder {
    budget: usize,
    offsets: Vec<usize>,
    neighbors: Vec<Vertex>,
    local_to_global: Vec<Vertex>,
    windows: Vec<(u32, u32, u32)>,
}

impl BatchBuilder {
    pub(crate) fn new(budget: usize) -> BatchBuilder {
        BatchBuilder {
            budget,
            offsets: vec![0],
            neighbors: Vec::new(),
            local_to_global: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn full(&self) -> bool {
        self.local_to_global.len() >= self.budget
    }

    /// Appends the induced subgraph of `verts` (all inside `view`'s cluster) as one
    /// more disjoint segment of the union, stamped with the cluster's centre vertex.
    fn append_window<G: NeighborSource + ?Sized, V: ClusterView>(
        &mut self,
        graph: &G,
        view: &V,
        level_start: u32,
        verts: &[Vertex],
        local_id: &mut EpochMap<u32>,
    ) {
        let offset = self.local_to_global.len() as u32;
        local_id.clear();
        for (i, &v) in verts.iter().enumerate() {
            local_id.insert(view.slot(v), offset + i as u32);
        }
        for &v in verts {
            let row_start = self.neighbors.len();
            for &w in graph.neighbors_of(v) {
                if view.contains(w) {
                    if let Some(l) = local_id.get(view.slot(w)) {
                        self.neighbors.push(l);
                    }
                }
            }
            // neighbours arrive in ascending *global* order, but local ids follow the
            // level-concatenated window layout — sort the row into local order
            self.neighbors[row_start..].sort_unstable();
            self.offsets.push(self.neighbors.len());
        }
        self.local_to_global.extend_from_slice(verts);
        self.windows.push((view.center(), level_start, offset));
    }

    fn take(&mut self) -> CoverBatch {
        CoverBatch {
            graph: CsrGraph::from_csr_parts(
                std::mem::replace(&mut self.offsets, vec![0]),
                std::mem::take(&mut self.neighbors),
            ),
            local_to_global: std::mem::take(&mut self.local_to_global),
            windows: std::mem::take(&mut self.windows),
        }
    }
}

/// Streams every window batch of one cluster: BFS from the centre, cut the windows
/// `[i, i + d]`, pack them into `batch`, flush on budget **and at the cluster's end**.
///
/// Batches are therefore *cluster-pure* — no batch ever spans two clusters — so a
/// round's batch stream is the concatenation of independent per-cluster streams in
/// ascending centre-vertex order, regardless of how clusters were sharded. The full
/// build ([`run_shard`]) and the dynamic index's per-cluster rebuild both funnel
/// through this one function; together with the centre-vertex window stamps (dense
/// cluster ids renumber globally when the centre set changes) this makes an
/// incrementally maintained round bit-identical to a from-scratch rebuild *by
/// construction*.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_cluster_batches<T, G: NeighborSource + ?Sized, V: ClusterView>(
    graph: &G,
    view: &V,
    d: usize,
    min_vertices: usize,
    scratch: &mut ClusterScratch,
    batch: &mut BatchBuilder,
    counters: &PassCounters,
    emit: &mut dyn FnMut(CoverBatch) -> Option<T>,
) -> Option<T> {
    debug_assert!(batch.is_empty(), "batches must not span clusters");
    scratch.bfs_cluster(graph, view);
    let max_level = scratch.max_level();
    // Only windows starting at 0 ..= max_level - d are needed; later windows are
    // subsets of the last one (Figure 3).
    let last_start = max_level.saturating_sub(d);
    for start in 0..=last_start {
        let lo = scratch.level_starts[start] as usize;
        let hi = scratch.level_starts[((start + d).min(max_level)) + 1] as usize;
        if hi - lo < min_vertices {
            counters.skipped_small.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        counters.pieces.fetch_add(1, Ordering::Relaxed);
        let window: Vec<Vertex> = scratch.window(start, d).to_vec();
        batch.append_window(graph, view, start as u32, &window, &mut scratch.local_id);
        if batch.full() {
            counters.batches.fetch_add(1, Ordering::Relaxed);
            if let Some(hit) = emit(batch.take()) {
                return Some(hit);
            }
        }
    }
    if !batch.is_empty() {
        counters.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = emit(batch.take()) {
            return Some(hit);
        }
    }
    None
}

/// Runs one shard: BFS every cluster of `range` over the shared scratch, stream out
/// batches. Returns early (propagating the consumer's value) on a hit, and bails
/// between clusters once another shard has set `stop`.
#[allow(clippy::too_many_arguments)]
fn run_shard<T>(
    graph: &CsrGraph,
    clustering: &Clustering,
    range: (u32, u32),
    d: usize,
    min_vertices: usize,
    batch_budget: usize,
    stop: &AtomicBool,
    counters: &PassCounters,
    emit: &mut dyn FnMut(CoverBatch) -> Option<T>,
) -> Option<T> {
    let _span = psi_obs::span!("cover.shard", clusters = range.1 - range.0);
    let base = clustering.member_start(range.0);
    let mut scratch = ClusterScratch::new(clustering.member_start(range.1) - base);
    counters
        .scratch_bytes
        .fetch_add(scratch.bytes(), Ordering::Relaxed);
    let mut batch = BatchBuilder::new(batch_budget);
    for cid in range.0..range.1 {
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        let view = StaticClusterView {
            clustering,
            base,
            cid,
        };
        if let Some(hit) = emit_cluster_batches(
            graph,
            &view,
            d,
            min_vertices,
            &mut scratch,
            &mut batch,
            counters,
            emit,
        ) {
            stop.store(true, Ordering::Relaxed);
            return Some(hit);
        }
    }
    None
}

/// Streams the cover of one round through `f`, batch by batch, stopping every shard as
/// soon as `f` returns `Some` (cross-shard early exit). Windows with fewer than
/// `min_vertices` vertices are skipped before construction; pass the pattern size `k`
/// so that windows that cannot host an occurrence cost nothing.
pub fn search_cover<T, F>(
    graph: &CsrGraph,
    k: usize,
    d: usize,
    seed: u64,
    min_vertices: usize,
    batch_budget: usize,
    f: F,
) -> (Option<T>, CoverStats)
where
    T: Send,
    F: Fn(CoverBatch) -> Option<T> + Sync,
{
    let clustering = cover_clustering(graph, k, seed);
    let shards = shard_ranges(&clustering);
    let mut span = psi_obs::span!(
        "cover.build",
        n = graph.num_vertices(),
        clusters = clustering.num_clusters(),
        shards = shards.len(),
    );
    let counters = PassCounters::default();
    let stop = AtomicBool::new(false);
    let hit = shards.par_iter().find_map_any(|&range| {
        run_shard(
            graph,
            &clustering,
            range,
            d,
            min_vertices,
            batch_budget,
            &stop,
            &counters,
            &mut |batch| f(batch),
        )
    });
    let stats = counters.stats(&clustering, shards.len());
    span.field("pieces", stats.pieces as u64);
    span.field("batches", stats.batches as u64);
    crate::obs::record_cover_pass(&stats);
    (hit, stats)
}

/// Maps every batch of one cover round through `f` and collects the results in
/// deterministic (cluster id, level) order. No early exit — intended for listing-style
/// consumers that need every batch.
pub fn map_cover_batches<R, F>(
    graph: &CsrGraph,
    k: usize,
    d: usize,
    seed: u64,
    min_vertices: usize,
    batch_budget: usize,
    f: F,
) -> (Vec<R>, CoverStats)
where
    R: Send,
    F: Fn(CoverBatch) -> R + Sync,
{
    let clustering = cover_clustering(graph, k, seed);
    let shards = shard_ranges(&clustering);
    let mut span = psi_obs::span!(
        "cover.build",
        n = graph.num_vertices(),
        clusters = clustering.num_clusters(),
        shards = shards.len(),
    );
    let counters = PassCounters::default();
    let stop = AtomicBool::new(false);
    let per_shard: Vec<Vec<R>> = shards
        .par_iter()
        .map(|&range| {
            let mut out = Vec::new();
            let none = run_shard::<()>(
                graph,
                &clustering,
                range,
                d,
                min_vertices,
                batch_budget,
                &stop,
                &counters,
                &mut |batch| {
                    out.push(f(batch));
                    None
                },
            );
            debug_assert!(none.is_none());
            out
        })
        .collect();
    let stats = counters.stats(&clustering, shards.len());
    span.field("pieces", stats.pieces as u64);
    span.field("batches", stats.batches as u64);
    crate::obs::record_cover_pass(&stats);
    (per_shard.into_iter().flatten().collect(), stats)
}

/// One piece of the S-separating cover: a **minor** of the target graph in which some
/// vertices are merged super-vertices (contracted connected components of the graph
/// outside the cluster, or contracted leftover components of "cluster minus window").
/// Merged vertices may not be used by the pattern image, and a merged vertex belongs
/// to `S` if any vertex it swallowed does.
#[derive(Clone, Debug)]
pub struct SeparatingCoverPiece {
    /// The minor.
    pub graph: CsrGraph,
    /// For non-merged vertices, the original vertex id; `INVALID_VERTEX` for merged ones.
    pub original_of: Vec<Vertex>,
    /// Whether each vertex of the minor is allowed in the pattern image (non-merged).
    pub allowed: Vec<bool>,
    /// Whether each vertex of the minor counts as a member of the separated set `S`.
    pub in_s: Vec<bool>,
    /// Dense id of the cluster this piece was cut from.
    pub cluster: u32,
    /// The BFS level the window starts at.
    pub level_start: u32,
}

/// Per-round context of the separating cover: the cluster quotient graph `Q` (one
/// vertex per cluster, one edge per adjacent cluster pair) and the labels needed to
/// contract, for each cluster `c`, the connected components of `G ∖ c` faithfully.
///
/// Fidelity matters (Figure 7): an edge of `G` between two *different* clusters
/// outside `c` keeps their contractions connected, so contracting each neighbouring
/// cluster separately — as the pre-fix construction did — can disconnect vertices
/// that a detour outside the window keeps connected, turning non-separating
/// occurrences into false small cuts. Components of `Q ∖ {c}` are exactly the
/// components of `G ∖ c`'s cluster structure: for the (typical) non-articulation
/// clusters they collapse to a single merged vertex in `O(1)`; articulation clusters
/// of `Q` fall back to a union–find sweep over `Q`'s edges.
struct SepRound {
    quotient: CsrGraph,
    is_articulation: Vec<bool>,
    /// Component label of every cluster in `Q`.
    comp_of: Vec<u32>,
    /// Number of S-containing clusters per `Q`-component.
    comp_s_clusters: Vec<u32>,
    /// Whether each cluster contains an `S` vertex.
    has_s: Vec<bool>,
}

impl SepRound {
    fn build(graph: &CsrGraph, clustering: &Clustering, in_s: &[bool]) -> SepRound {
        let num_clusters = clustering.num_clusters();
        let mut qb = GraphBuilder::new(num_clusters);
        for (u, v) in graph.edges() {
            let (cu, cv) = (
                clustering.cluster_of[u as usize],
                clustering.cluster_of[v as usize],
            );
            // vertices without a cluster (possible through partial assignments of
            // `Clustering::from_assignment`) take no part in the quotient
            if cu != cv && cu != u32::MAX && cv != u32::MAX {
                qb.add_edge(cu, cv);
            }
        }
        let quotient = qb.build();
        let mut is_articulation = vec![false; num_clusters];
        for a in psi_graph::articulation_points(&quotient) {
            is_articulation[a as usize] = true;
        }
        let comps = psi_graph::connected_components(&quotient);
        let mut has_s = vec![false; num_clusters];
        for (v, &s) in in_s.iter().enumerate() {
            if s && clustering.cluster_of[v] != u32::MAX {
                has_s[clustering.cluster_of[v] as usize] = true;
            }
        }
        let mut comp_s_clusters = vec![0u32; comps.num_components];
        for c in 0..num_clusters {
            if has_s[c] {
                comp_s_clusters[comps.label[c] as usize] += 1;
            }
        }
        SepRound {
            quotient,
            is_articulation,
            comp_of: comps.label,
            comp_s_clusters,
            has_s,
        }
    }

    /// The merged-component structure of `G ∖ cluster c`: for every cluster `x ≠ c`
    /// (in `c`'s `Q`-component) a component id, plus per-component `S` membership.
    /// Components not adjacent to `c` never materialise in the minor (they share no
    /// edge with it), so ids are assigned lazily by [`BlobMap::blob_of`].
    fn blob_map(&self, c: u32) -> BlobMap {
        if !self.is_articulation[c as usize] {
            // Q ∖ {c} keeps c's component connected: every outside cluster of the
            // component lands in one merged vertex.
            let comp = self.comp_of[c as usize] as usize;
            let others_in_s = self.comp_s_clusters[comp] - u32::from(self.has_s[c as usize]);
            BlobMap::Single {
                in_s: others_in_s > 0,
            }
        } else {
            let mut uf = UnionFind::new(self.quotient.num_vertices());
            for (a, b) in self.quotient.edges() {
                if a != c && b != c {
                    uf.union(a as usize, b as usize);
                }
            }
            let comp = self.comp_of[c as usize];
            let mut root_in_s = std::collections::HashSet::new();
            for x in 0..self.quotient.num_vertices() {
                if x as u32 != c && self.comp_of[x] == comp && self.has_s[x] {
                    let r = uf.find(x);
                    root_in_s.insert(r);
                }
            }
            BlobMap::PerRoot {
                uf,
                root_in_s,
                dense: std::collections::HashMap::new(),
                in_s: Vec::new(),
            }
        }
    }
}

/// See [`SepRound::blob_map`].
enum BlobMap {
    Single {
        in_s: bool,
    },
    PerRoot {
        uf: UnionFind,
        root_in_s: std::collections::HashSet<usize>,
        dense: std::collections::HashMap<usize, u32>,
        in_s: Vec<bool>,
    },
}

impl BlobMap {
    /// Dense merged-vertex id of the component containing cluster `x` (assigned in
    /// first-touch order, which is deterministic because callers scan members and
    /// neighbours in fixed order).
    fn blob_of(&mut self, x: u32) -> u32 {
        match self {
            BlobMap::Single { .. } => 0,
            BlobMap::PerRoot {
                uf,
                root_in_s,
                dense,
                in_s,
            } => {
                let root = uf.find(x as usize);
                *dense.entry(root).or_insert_with(|| {
                    in_s.push(root_in_s.contains(&root));
                    (in_s.len() - 1) as u32
                })
            }
        }
    }

    /// Number of merged vertices materialised so far.
    fn num_blobs(&self) -> usize {
        match self {
            BlobMap::Single { .. } => 1,
            BlobMap::PerRoot { in_s, .. } => in_s.len(),
        }
    }

    fn blob_in_s(&self, blob: u32) -> bool {
        match self {
            BlobMap::Single { in_s } => *in_s,
            BlobMap::PerRoot { in_s, .. } => in_s[blob as usize],
        }
    }
}

/// Streams the separating cover of one round through `f` piece by piece with
/// cross-shard early exit — the `Cover`-mode connectivity pipeline consumes minors as
/// they are cut instead of materialising all of them. Pieces whose minor has fewer
/// than `min_vertices` vertices are skipped.
///
/// (Separating pieces are never batched into disjoint unions: two `S` vertices in
/// different union segments would count as separated by *any* occurrence.)
pub fn search_separating_cover<T: Send>(
    graph: &CsrGraph,
    k: usize,
    d: usize,
    in_s: &[bool],
    seed: u64,
    min_vertices: usize,
    f: impl Fn(SeparatingCoverPiece) -> Option<T> + Sync,
) -> Option<T> {
    let clustering = cover_clustering(graph, k, seed);
    search_separating_clustering(graph, &clustering, d, in_s, min_vertices, &f)
}

/// Shard-parallel body of [`search_separating_cover`] over an explicit clustering.
///
/// `emit` semantics: called per piece in deterministic order per shard. When it
/// returns `Some`, every shard stops at its next cluster boundary.
fn search_separating_clustering<T: Send>(
    graph: &CsrGraph,
    clustering: &Clustering,
    d: usize,
    in_s: &[bool],
    min_vertices: usize,
    emit: &(impl Fn(SeparatingCoverPiece) -> Option<T> + Sync),
) -> Option<T> {
    let round = SepRound::build(graph, clustering, in_s);
    let shards = shard_ranges(clustering);
    let stop = AtomicBool::new(false);
    shards.par_iter().find_map_any(|&range| {
        let base = clustering.member_start(range.0);
        let mut scratch = ClusterScratch::new(clustering.member_start(range.1) - base);
        for cid in range.0..range.1 {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let view = StaticClusterView {
                clustering,
                base,
                cid,
            };
            if let Some(hit) = separating_one_cluster(
                graph,
                clustering,
                &round,
                &view,
                cid,
                d,
                in_s,
                min_vertices,
                &mut scratch,
                emit,
            ) {
                stop.store(true, Ordering::Relaxed);
                return Some(hit);
            }
        }
        None
    })
}

/// Cuts every window minor of one cluster and feeds it to `emit`.
#[allow(clippy::too_many_arguments)]
fn separating_one_cluster<T>(
    graph: &CsrGraph,
    clustering: &Clustering,
    round: &SepRound,
    view: &StaticClusterView<'_>,
    cid: u32,
    d: usize,
    in_s: &[bool],
    min_vertices: usize,
    scratch: &mut ClusterScratch,
    emit: &impl Fn(SeparatingCoverPiece) -> Option<T>,
) -> Option<T> {
    let members = clustering.members_of(cid);
    scratch.bfs_cluster(graph, view);
    let max_level = scratch.max_level();
    let last_start = max_level.saturating_sub(d);

    // Local base graph, built once per cluster: cluster vertices keep their identity
    // (local ids 0.., in member order), each connected component of G ∖ cluster that
    // touches the cluster becomes one merged vertex (dense ids after the members).
    // Merged components are pairwise non-adjacent by maximality, so all base edges are
    // member–member or member–blob.
    scratch.local_id.clear();
    for (i, &v) in members.iter().enumerate() {
        scratch.local_id.insert(view.slot(v), i as u32);
    }
    let mut blobs = round.blob_map(cid);
    let members_n = members.len();
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    for (i, &v) in members.iter().enumerate() {
        let lv = i as Vertex;
        for &w in graph.neighbors(v) {
            if view.contains(w) {
                if v < w {
                    let lw = scratch
                        .local_id
                        .get(view.slot(w))
                        .expect("cluster member has a local id");
                    edges.push((lv, lw));
                }
            } else {
                let blob = blobs.blob_of(clustering.cluster_of[w as usize]);
                edges.push((lv, members_n as Vertex + blob));
            }
        }
    }
    let num_blobs = if edges.iter().any(|&(_, b)| (b as usize) >= members_n) {
        blobs.num_blobs()
    } else {
        0
    };
    let local_n = members_n + num_blobs;
    let base = GraphBuilder::from_edges(local_n, &edges);

    let mut window_local = vec![false; members_n];
    for start in 0..=last_start {
        let window = scratch.window(start, d);
        if window.is_empty() {
            continue;
        }
        window_local.iter_mut().for_each(|w| *w = false);
        for &v in window {
            let l = scratch
                .local_id
                .get(view.slot(v))
                .expect("window vertex has a local id");
            window_local[l as usize] = true;
        }
        // Contract the base graph: window vertices stay, other cluster vertices merge
        // per connected component of (cluster ∖ window), outside components keep one
        // group each.
        let mask: Vec<bool> = (0..local_n)
            .map(|lv| lv < members_n && !window_local[lv])
            .collect();
        let comps = psi_graph::connectivity::connected_components_masked(&base, Some(&mask));
        let mut groups: Vec<Option<u32>> = vec![None; local_n];
        let comp_offset = num_blobs as u32;
        for (lv, group) in groups.iter_mut().enumerate() {
            if lv >= members_n {
                *group = Some((lv - members_n) as u32);
            } else if !window_local[lv] {
                *group = Some(comp_offset + comps.label[lv]);
            }
        }
        let contraction = psi_graph::contract_groups(&base, &groups);
        let minor_n = contraction.graph.num_vertices();
        if minor_n < min_vertices {
            continue;
        }
        let mut original_of = vec![INVALID_VERTEX; minor_n];
        let mut allowed = vec![false; minor_n];
        let mut piece_in_s = vec![false; minor_n];
        for lv in 0..local_n {
            let mv = contraction.vertex_map[lv] as usize;
            if lv < members_n {
                let orig = members[lv];
                if window_local[lv] {
                    original_of[mv] = orig;
                    allowed[mv] = true;
                }
                if in_s[orig as usize] {
                    piece_in_s[mv] = true;
                }
            } else if blobs.blob_in_s((lv - members_n) as u32) {
                piece_in_s[mv] = true;
            }
        }
        let piece = SeparatingCoverPiece {
            graph: contraction.graph,
            original_of,
            allowed,
            in_s: piece_in_s,
            cluster: cid,
            level_start: start as u32,
        };
        if let Some(hit) = emit(piece) {
            return Some(hit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generators;

    /// The pieces of one cover round: batch budget 0 puts one window in each batch.
    fn pieces(g: &CsrGraph, k: usize, d: usize, seed: u64) -> Vec<CoverBatch> {
        map_cover_batches(g, k, d, seed, 1, 0, |b| b).0
    }

    #[test]
    fn cover_pieces_partition_properties() {
        let g = generators::triangulated_grid(20, 20);
        let (k, d) = (4usize, 2usize);
        let pieces = pieces(&g, k, d, 7);
        assert!(!pieces.is_empty());
        // every vertex appears in at least one piece and at most d+1 pieces
        let n = g.num_vertices();
        let mut count = vec![0usize; n];
        for p in &pieces {
            assert_eq!(p.num_windows(), 1);
            for &v in &p.local_to_global {
                count[v as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c >= 1), "some vertex in no piece");
        let max = count.iter().copied().max().unwrap_or(0);
        assert!(max <= d + 1, "vertex in more than d+1 pieces: {max}");
        // total size O(nd)
        assert!(count.iter().sum::<usize>() <= n * (d + 1));
    }

    #[test]
    fn cover_retains_planted_occurrence_with_constant_probability() {
        let (g, planted) = generators::grid_with_planted_cycle(18, 18, 6);
        let trials = 40;
        let mut hits = 0;
        for s in 0..trials {
            let (retained, _) = map_cover_batches(&g, 6, 3, s, 1, 0, |b| {
                planted.iter().all(|v| b.local_to_global.contains(v))
            });
            if retained.contains(&true) {
                hits += 1;
            }
        }
        // Theorem 2.4 promises >= 1/2; allow statistical slack over 40 trials.
        assert!(
            hits * 5 >= trials * 2,
            "retention {hits}/{trials} far below 1/2"
        );
    }

    #[test]
    fn cover_piece_treewidth_is_bounded() {
        // Theorem 2.4: every piece has treewidth <= 3d. We check the heuristic
        // decomposition width as an upper-bound proxy with slack for the heuristic.
        let g = generators::triangulated_grid(16, 16);
        let d = 2usize;
        for p in pieces(&g, 4, d, 3) {
            if p.graph.num_vertices() < 3 {
                continue;
            }
            let td = psi_treedecomp::min_degree_decomposition(&p.graph);
            assert!(
                td.width() <= 3 * (d + 1),
                "piece width {} exceeds 3(d+1)={}",
                td.width(),
                3 * (d + 1)
            );
        }
    }

    #[test]
    fn cover_of_small_graph_is_whole_graph() {
        let g = generators::cycle(6);
        // with beta = 12 the whole cycle is almost surely one cluster; in any case every
        // vertex is covered
        let mut covered = vec![false; g.num_vertices()];
        for p in pieces(&g, 6, 3, 1) {
            for &v in &p.local_to_global {
                covered[v as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn cover_pieces_are_genuine_induced_subgraphs() {
        // The streamed construction must reproduce exactly what the generic
        // `induced_subgraph` extracts for the same vertex set.
        let g = generators::random_stacked_triangulation(300, 9);
        for p in pieces(&g, 4, 2, 21) {
            let reference = psi_graph::induced_subgraph(&g, &p.local_to_global);
            assert_eq!(p.graph, reference.graph, "window {:?}", p.windows[0]);
            assert_eq!(p.local_to_global, reference.local_to_global);
        }
    }

    #[test]
    fn batched_cover_is_bit_identical_to_eager_cover() {
        // Unpacking the size-bucketed disjoint-union batches must reproduce the
        // one-window-per-batch cover exactly (same windows, same order, same
        // graphs) for a fixed seed, for several batch budgets.
        let g = generators::triangulated_grid(30, 30);
        let (k, d, seed) = (4usize, 2usize, 99u64);
        let eager = pieces(&g, k, d, seed);
        for budget in [64usize, 256, 100_000] {
            let (batches, stats) = map_cover_batches(&g, k, d, seed, 1, budget, |b| b);
            assert_eq!(stats.batches, batches.len());
            let mut unpacked = 0usize;
            for batch in &batches {
                for (w, (start, end)) in batch.segment_ranges().enumerate() {
                    let (cluster, level_start, offset) = batch.windows[w];
                    let verts = &batch.local_to_global[start..end];
                    let piece = &eager[unpacked];
                    assert_eq!(piece.windows, [(cluster, level_start, 0)]);
                    assert_eq!(piece.local_to_global, verts, "budget {budget}");
                    // edges of the segment must match the piece graph exactly
                    for (i, &v) in verts.iter().enumerate() {
                        let seg: Vec<Vertex> = batch
                            .graph
                            .neighbors(offset + i as Vertex)
                            .iter()
                            .map(|&l| l - offset)
                            .collect();
                        assert_eq!(piece.graph.neighbors(i as Vertex), &seg[..], "vertex {v}");
                    }
                    unpacked += 1;
                }
            }
            assert_eq!(unpacked, eager.len(), "budget {budget}");
        }
    }

    #[test]
    fn small_windows_are_skipped_not_constructed() {
        let g = generators::triangulated_grid(20, 20);
        let (k, d, seed) = (6usize, 1usize, 5u64);
        let (sizes, all) = map_cover_batches(&g, k, d, seed, 1, 0, |b| b.graph.num_vertices());
        let (_, filtered) = map_cover_batches(&g, k, d, seed, k, DEFAULT_BATCH_BUDGET, |_| ());
        let small = sizes.iter().filter(|&&n| n < k).count();
        assert_eq!(all.pieces, sizes.len());
        assert_eq!(filtered.skipped_small, small);
        assert_eq!(filtered.pieces, sizes.len() - small);
        // scratch stays O(n): 12 bytes per member vertex across all shards
        assert!(filtered.scratch_bytes <= 12 * g.num_vertices() + 12 * SHARD_VERTEX_TARGET);
    }

    #[test]
    fn separating_cover_structure() {
        let g = generators::triangulated_grid(12, 12);
        let in_s: Vec<bool> = (0..g.num_vertices()).map(|_| true).collect();
        let pieces = std::sync::Mutex::new(Vec::new());
        let none = search_separating_cover::<()>(&g, 4, 2, &in_s, 5, 1, |p| {
            pieces.lock().unwrap().push(p);
            None
        });
        assert!(none.is_none());
        let pieces = pieces.into_inner().unwrap();
        assert!(!pieces.is_empty());
        for p in &pieces {
            let n = p.graph.num_vertices();
            assert_eq!(p.original_of.len(), n);
            assert_eq!(p.allowed.len(), n);
            assert_eq!(p.in_s.len(), n);
            // allowed vertices are exactly those with an original id
            for v in 0..n {
                assert_eq!(p.allowed[v], p.original_of[v] != INVALID_VERTEX);
            }
            // minors never exceed the original size
            assert!(n <= g.num_vertices());
        }
        // every original vertex appears as an allowed vertex of at least one piece
        let mut covered = vec![false; g.num_vertices()];
        for p in &pieces {
            for v in 0..p.graph.num_vertices() {
                if p.allowed[v] {
                    covered[p.original_of[v] as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn cover_deterministic_for_seed() {
        let g = generators::random_stacked_triangulation(200, 2);
        let a = pieces(&g, 3, 1, 11);
        let b = pieces(&g, 3, 1, 11);
        assert_eq!(a, b);
    }

    /// Every minor of the separating cover of a pinned clustering with `d = 1`:
    /// every cluster is cut, none is skipped.
    fn separating_pieces(
        g: &CsrGraph,
        clustering: &Clustering,
        in_s: &[bool],
    ) -> Vec<SeparatingCoverPiece> {
        let pieces = std::sync::Mutex::new(Vec::new());
        let none = search_separating_clustering::<()>(g, clustering, 1, in_s, 1, &|p| {
            pieces.lock().unwrap().push(p);
            None
        });
        assert!(none.is_none());
        pieces.into_inner().unwrap()
    }

    /// The minor cut from cluster `C` (the cluster of vertex 2) with the full
    /// window {2, 3}, from the separating cover of a pinned clustering.
    fn full_window_piece_of_c(
        g: &CsrGraph,
        clustering: &Clustering,
        in_s: &[bool],
    ) -> SeparatingCoverPiece {
        let c_id = clustering.cluster_of[2];
        separating_pieces(g, clustering, in_s)
            .into_iter()
            .find(|p| p.cluster == c_id && p.allowed.iter().filter(|&&a| a).count() == 2)
            .expect("full-window piece of cluster C")
    }

    /// The archetype regression (separating-minor contraction fidelity): two clusters
    /// `X` and `Y` adjacent to the window cluster `C` *and to each other*, where the
    /// `X`–`Y` edge is the only `s`–`t` link avoiding `C`. The pre-fix construction
    /// contracted `X` and `Y` into two merged vertices and dropped the `X`–`Y` edge
    /// (it is incident to no member of `C`), so removing the window "separated" `s`
    /// from `t` — a false small cut. The faithful minor contracts the connected
    /// component {X, Y} of `G ∖ C` into one vertex.
    #[test]
    fn separating_minor_keeps_edges_between_outside_clusters() {
        // vertices: X = {0 (centre), 1 = s side}, C = {2 (centre), 3}, Y = {4 (centre), 5 = t}
        let g = GraphBuilder::from_edges(
            6,
            &[
                (0, 1), // inside X
                (2, 3), // inside C
                (4, 5), // inside Y
                (1, 2), // X – C
                (3, 4), // C – Y
                (1, 4), // X – Y: the only s–t link once the window is removed
            ],
        );
        let center = vec![0, 0, 2, 2, 4, 4];
        let clustering = Clustering::from_assignment(center, vec![0.0; 6]);
        let mut in_s = vec![false; 6];
        in_s[0] = true; // s
        in_s[5] = true; // t
        let piece = full_window_piece_of_c(&g, &clustering, &in_s);
        // Removing the entire allowed image must NOT separate S: s and t stay
        // connected through the contracted {X, Y} component.
        let mask: Vec<bool> = (0..piece.graph.num_vertices())
            .map(|v| !piece.allowed[v])
            .collect();
        let comps = psi_graph::connectivity::connected_components_masked(&piece.graph, Some(&mask));
        let s_labels: std::collections::HashSet<u32> = (0..piece.graph.num_vertices())
            .filter(|&v| piece.in_s[v] && !piece.allowed[v])
            .map(|v| comps.label[v])
            .collect();
        assert_eq!(
            s_labels.len(),
            1,
            "outside S vertices fell apart: the X–Y edge was dropped from the minor"
        );
        // ... and the DP agrees: no separating occurrence of the edge pattern exists.
        let inst = crate::separating::SeparatingInstance {
            graph: &piece.graph,
            in_s: &piece.in_s,
            allowed: &piece.allowed,
        };
        assert!(
            crate::separating::find_separating_occurrence(&inst, &crate::pattern::Pattern::path(2))
                .is_none(),
            "false small cut: non-separating occurrence reported as separating"
        );
    }

    /// Faithfulness in the other direction: when the outside component genuinely
    /// splits (C is an articulation cluster of the quotient), the minor must keep the
    /// sides apart and the separating verdict must fire.
    #[test]
    fn separating_minor_splits_at_articulation_clusters() {
        // X – C – Y as a path of clusters, no X–Y edge: removing C's window separates.
        let g = GraphBuilder::from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)]);
        let center = vec![0, 0, 2, 2, 4, 4];
        let clustering = Clustering::from_assignment(center, vec![0.0; 6]);
        let mut in_s = vec![false; 6];
        in_s[0] = true;
        in_s[5] = true;
        let piece = full_window_piece_of_c(&g, &clustering, &in_s);
        let inst = crate::separating::SeparatingInstance {
            graph: &piece.graph,
            in_s: &piece.in_s,
            allowed: &piece.allowed,
        };
        assert!(
            crate::separating::find_separating_occurrence(&inst, &crate::pattern::Pattern::path(2))
                .is_some(),
            "genuinely separating occurrence was lost"
        );
    }

    #[test]
    fn separating_cover_tolerates_partially_assigned_clusterings() {
        // `Clustering::from_assignment` permits unclustered vertices; they must be
        // ignored by the quotient construction, not crash it.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let center = vec![0, 0, INVALID_VERTEX, 3, 3];
        let clustering = Clustering::from_assignment(center, vec![0.0; 5]);
        let in_s = vec![true; 5];
        assert!(!separating_pieces(&g, &clustering, &in_s).is_empty());
    }

    #[test]
    fn streamed_separating_cover_matches_eager() {
        // Same seed, same clustering and BFS levels: the streamed separating
        // minors allow exactly the windows of the one-window-per-batch cover, and
        // an allowed vertex is in `S` exactly when its original is.
        let g = generators::triangulated_grid(10, 10);
        let in_s: Vec<bool> = (0..g.num_vertices()).map(|v| v % 3 == 0).collect();
        let streamed = std::sync::Mutex::new(Vec::new());
        let none = search_separating_cover::<()>(&g, 4, 2, &in_s, 17, 1, |p| {
            let mut allowed = Vec::new();
            for (v, &orig) in p.original_of.iter().enumerate() {
                if p.allowed[v] {
                    assert_eq!(p.in_s[v], in_s[orig as usize]);
                    allowed.push(orig);
                }
            }
            allowed.sort_unstable();
            streamed.lock().unwrap().push((p.level_start, allowed));
            None
        });
        assert!(none.is_none());
        let mut streamed = streamed.into_inner().unwrap();
        streamed.sort();
        let mut reference: Vec<_> = pieces(&g, 4, 2, 17)
            .into_iter()
            .map(|p| {
                let mut verts = p.local_to_global;
                verts.sort_unstable();
                (p.windows[0].1, verts)
            })
            .collect();
        reference.sort();
        assert_eq!(streamed, reference);
    }
}
