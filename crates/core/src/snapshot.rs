//! The one read path: frozen, live and pinned queries over one `EpochState`.
//!
//! The engine answers one query surface — `decide`, `find_one`, their batch
//! forms, `connectivity_batch` and `vertex_connectivity` — from three states,
//! and all three serve it through the same `EpochState` methods:
//!
//! * **frozen** — [`PsiSnapshot::from`] a [`PsiIndex`] serves the artifact as
//!   epoch 0, moving in its stored rounds as they are;
//! * **live** — a [`crate::dynamic::DynamicPsiIndex`] keeps its readable state
//!   behind one `Arc`, so a live query is a flush of the dirty backlog
//!   followed by a read of that state in place;
//! * **pinned** — [`DynamicPsiIndex::snapshot`](crate::dynamic::DynamicPsiIndex::snapshot)
//!   fills the epoch's target and faces cells and hands out a clone of that
//!   `Arc`, which any number of reader threads query while the writer keeps
//!   mutating: the writer reaches the state through `Arc::make_mut`, so its
//!   next accepted mutation copies the state (`O(rounds)` reference-count
//!   bumps) instead of changing it.
//!
//! Every servable product — the target CSR, the facial walks, the stored
//! rounds (one window label per vertex, one layout from build to freeze) — is
//! held behind an `Arc`. The writer never mutates published data: a flush
//! relabels a round copy-on-write, so a round a snapshot or frozen index still
//! holds is copied (one label array) before its dirty clusters are relabelled;
//! a retired epoch's labels are freed when the last holder drops. Taking a
//! snapshot needs `&mut` on the engine, so it serialises with mutations, and
//! the bundle it captures is frozen thereafter. A snapshot therefore never
//! observes a partially published round set, and its answers are
//! bit-identical to a from-scratch [`PsiIndex::build`] of the target as of its
//! epoch — the invariant [`PsiSnapshot::to_frozen`] exposes and the snapshot
//! serving suite pins under `PSI_THREADS = {1, 4}`.
//!
//! `decide` and `find_one` scan the target once, one root at a time in vertex
//! order: an exhaustive backtracking search from the root under
//! [`FAST_PATH_NODE_BUDGET`] nodes, which takes a complete occurrence only when
//! some round's window labels put it inside one window — exactly the
//! occurrences the rounds' batches hold. Nothing stores a batch: a root whose
//! search runs out of budget emits, per round, its cluster's batches from the
//! labels on the scan's own graph, through the emitter [`PsiIndex::rounds`]
//! uses (each cluster once per query, under an `index.materialise` span), and
//! sends those holding its windows straight to the batch DP, on a
//! decomposition derived then, each batch at most once per query. They are
//! the batches of the round's cover pass, so the DP's input,
//! and with it every witness, is the same as when rounds stored them. The
//! first hit ends the scan, so verdicts and witnesses are independent of
//! thread count.
//!
//! The target, faces and face–vertex graph are cells filled on first need and
//! reset by every accepted mutation. Frozen and pinned epochs scan the target
//! CSR; the live engine scans its adjacency lists, so a live `decide` or
//! `find_one` after a mutation derives no CSR and compacts no faces (release
//! builds; debug builds re-verify witnesses against the target). Connectivity
//! queries derive what they read once per epoch.

use crate::connectivity::{
    st_connectivity_capped, vertex_connectivity_with_fv, ConnectivityMode, ConnectivityResult,
};
use crate::cover::{label_batches, ClusterScratch, CoverBatch};
use crate::index::{
    backtrack_step, batch_can_host, IndexParams, MatchPlan, PsiIndex, QueryError, StoredRound,
    CONNECTIVITY_CAP, FAST_PATH_NODE_BUDGET,
};
use crate::isomorphism::{decompose_and_run_dp, BatchHit};
use crate::pattern::{verify_occurrence, Pattern};
use psi_graph::{AdjacencyList, CsrGraph, NeighborSource, Vertex};
use psi_planar::{face_vertex_graph, rotation_system, Embedding, FaceVertexGraph};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Fills an epoch's lazy cells on first need. The live engine derives them
/// from its adjacency lists and face store; a snapshot's epoch (`()`) had its
/// target and faces filled before it was shared, so it is never asked.
pub(crate) trait EpochSource: Sync {
    /// The target as CSR.
    fn csr(&self) -> CsrGraph;
    /// The facial walks of a valid embedding of the target.
    fn walks(&self) -> Vec<Vec<Vertex>>;
    /// The target as adjacency lists, where the source keeps them: pattern
    /// scans read these instead of the CSR.
    fn adjacency(&self) -> Option<&AdjacencyList> {
        None
    }
}

impl EpochSource for () {
    fn csr(&self) -> CsrGraph {
        unreachable!("a published epoch carries its target")
    }

    fn walks(&self) -> Vec<Vec<Vertex>> {
        unreachable!("a published epoch carries its faces")
    }
}

/// Everything a query reads as of one epoch: the only implementation of the
/// query surface (see the module docs).
#[derive(Clone)]
pub(crate) struct EpochState {
    pub(crate) epoch: u64,
    pub(crate) params: IndexParams,
    /// Number of target vertices (edge flips never change it).
    pub(crate) n: usize,
    pub(crate) rounds: Vec<Arc<StoredRound>>,
    /// The target CSR.
    pub(crate) target: OnceLock<Arc<CsrGraph>>,
    /// Facial walks of the embedding as of this epoch (valid, not necessarily
    /// canonical — exactly what the live engine maintains).
    pub(crate) faces: OnceLock<Arc<Vec<Vec<Vertex>>>>,
    /// Face–vertex graph of those walks (Section 5.1), derived on the epoch's
    /// first `vertex_connectivity` and shared with every later reader.
    pub(crate) fv: OnceLock<Arc<FaceVertexGraph>>,
}

impl EpochState {
    /// Epoch 0 of a frozen index, returned with the index's facial walks (the
    /// faces cell is left to the caller). The target and the stored rounds
    /// move in as they are.
    pub(crate) fn from_index(index: PsiIndex) -> (EpochState, Vec<Vec<Vertex>>) {
        let (params, target, walks, rounds) = index.into_parts();
        let state = EpochState {
            epoch: 0,
            params,
            n: target.num_vertices(),
            rounds,
            target: OnceLock::from(target),
            faces: OnceLock::new(),
            fv: OnceLock::new(),
        };
        (state, walks)
    }

    /// An accepted mutation: the next epoch, with every derived cell emptied.
    pub(crate) fn advance(&mut self) {
        self.epoch += 1;
        self.target = OnceLock::new();
        self.faces = OnceLock::new();
        self.fv = OnceLock::new();
    }

    /// The target CSR, derived from `src` on the epoch's first need.
    pub(crate) fn target(&self, src: &dyn EpochSource) -> &Arc<CsrGraph> {
        self.target.get_or_init(|| Arc::new(src.csr()))
    }

    /// The facial walks, derived from `src` on the epoch's first need.
    pub(crate) fn faces(&self, src: &dyn EpochSource) -> &Arc<Vec<Vec<Vertex>>> {
        self.faces.get_or_init(|| Arc::new(src.walks()))
    }

    /// The face–vertex graph, derived once per epoch.
    fn face_vertex(&self, src: &dyn EpochSource) -> &FaceVertexGraph {
        self.fv.get_or_init(|| {
            Arc::new(face_vertex_graph(&Embedding::new(
                (**self.target(src)).clone(),
                (**self.faces(src)).clone(),
            )))
        })
    }

    /// Materialises this epoch as the frozen artifact — bit-identical (struct
    /// and byte stream) to [`PsiIndex::build`] of the target. The index shares
    /// this epoch's target and rounds; only the faces are new, re-canonicalised
    /// through the target's LR rotation system, a pure function of the target.
    pub(crate) fn freeze(&self, src: &dyn EpochSource) -> PsiIndex {
        // Guards the invariant that every served epoch's target is planar: a
        // build starts from a planar embedding, `PsiIndex::from_bytes` admits
        // only faces that pass `Embedding::validate`'s rules (every edge on two
        // sides, one rotation of corners at each vertex) with Euler
        // characteristic 2·components, which makes every component a sphere,
        // and the live engine refuses every insertion that would break
        // planarity before its epoch advances.
        let target = self.target(src);
        let rotation = rotation_system(target).expect("every served epoch has a planar target");
        let faces = rotation.faces(target);
        PsiIndex::from_parts(self.params, target.clone(), &faces, self.rounds.clone())
    }

    /// Checks that the index can serve `pattern`; `Ok(Some(answer))`
    /// short-circuits trivial cases (empty pattern, pattern larger than the
    /// target).
    fn admit(&self, pattern: &Pattern) -> Result<Option<Option<Vec<Vertex>>>, QueryError> {
        let k = pattern.k();
        if k == 0 {
            return Ok(Some(Some(Vec::new())));
        }
        if k > self.n {
            return Ok(Some(None));
        }
        if !pattern.is_connected() {
            return Err(QueryError::DisconnectedPattern);
        }
        let max_k = self.params.k as usize;
        if k > max_k {
            return Err(QueryError::PatternTooLarge { k, max_k });
        }
        let (diameter, max_d) = (pattern.diameter(), self.params.d as usize);
        if diameter > max_d {
            return Err(QueryError::DiameterTooLarge { diameter, max_d });
        }
        Ok(None)
    }

    /// The one scan behind `decide` and `find_one` (see the module docs), on
    /// the live engine's adjacency lists where `src` keeps them and on the
    /// target CSR otherwise. Both list each row in ascending order, so the
    /// search, and with it the first hit, is the same on either.
    fn scan(
        &self,
        plan: &MatchPlan,
        pattern: &Pattern,
        src: &dyn EpochSource,
        stats: &mut ScanStats,
    ) -> Option<ScanHit> {
        match src.adjacency() {
            Some(graph) => self.scan_roots(graph, plan, pattern, stats),
            None => self.scan_roots(&**self.target(src), plan, pattern, stats),
        }
    }

    /// Searches from every root in vertex order, each under
    /// [`FAST_PATH_NODE_BUDGET`] nodes, accepting an occurrence that one
    /// window of some round holds; a root that runs out of budget falls back
    /// to the batches holding its windows.
    fn scan_roots<G: NeighborSource + ?Sized>(
        &self,
        graph: &G,
        plan: &MatchPlan,
        pattern: &Pattern,
        stats: &mut ScanStats,
    ) -> Option<ScanHit> {
        let mut assigned = Vec::with_capacity(pattern.k());
        let mut in_one_window = |occ: &[Vertex]| self.rounds.iter().any(|r| r.holds(occ));
        let mut fallback = Fallback::default();
        for root in 0..self.n as Vertex {
            stats.roots += 1;
            assigned.clear();
            assigned.push(root);
            let mut budget = FAST_PATH_NODE_BUDGET;
            let found = backtrack_step(
                plan,
                graph,
                1,
                &mut assigned,
                &mut budget,
                &mut in_one_window,
            );
            stats.nodes += (FAST_PATH_NODE_BUDGET - budget) as u64;
            match found {
                Ok(true) => return Some(ScanHit::Root(assigned)),
                Ok(false) => {}
                Err(()) => {
                    let hit = self.fall_back(graph, root, pattern, &mut fallback, stats);
                    if hit.is_some() {
                        return hit;
                    }
                }
            }
        }
        None
    }

    /// Runs the batch DP ([`decompose_and_run_dp`]) on every batch that holds
    /// a window of `root` and can host the pattern — rounds in order, each
    /// round's batches in stream order — skipping batches an earlier root
    /// already sent. Per round, the batches of `root`'s cluster are emitted
    /// from the labels on `graph`, unless an earlier root of the query emitted
    /// them. The root has spent the node budget on the same hub, so no batch
    /// is searched first. Returns the first hit.
    fn fall_back<G: NeighborSource + ?Sized>(
        &self,
        graph: &G,
        root: Vertex,
        pattern: &Pattern,
        fallback: &mut Fallback,
        stats: &mut ScanStats,
    ) -> Option<ScanHit> {
        for (r, round) in self.rounds.iter().enumerate() {
            let label = round.labels[root as usize];
            let cluster = (r, label.centre);
            let at = match fallback.clusters.iter().position(|(c, _)| *c == cluster) {
                Some(at) => at,
                None => {
                    let batches = self.materialise(graph, round, cluster, &mut fallback.scratch);
                    fallback.clusters.push((cluster, batches));
                    fallback.clusters.len() - 1
                }
            };
            let starts = label.first..=label.last;
            for (i, batch) in fallback.clusters[at].1.iter().enumerate() {
                let holds = batch.windows.iter().any(|w| starts.contains(&w.1));
                let sent = fallback.sent.contains(&(cluster, i));
                if !holds || sent || !batch_can_host(batch, pattern.k()) {
                    continue;
                }
                fallback.sent.push((cluster, i));
                stats.fallback_batches += 1;
                crate::obs::metrics().query_fallback_batches_total.add(1);
                let td = || batch.decomposition();
                if let Some(hit) = decompose_and_run_dp(pattern, &batch.graph, td) {
                    return Some(ScanHit::Batch(batch.clone(), hit));
                }
            }
        }
        None
    }

    /// The batches of the cluster of centre `cluster.1` in round `cluster.0`,
    /// emitted from `round`'s labels ([`label_batches`]) under the index's
    /// batch budget, on the query's one `n`-slot scratch.
    fn materialise<G: NeighborSource + ?Sized>(
        &self,
        graph: &G,
        round: &StoredRound,
        (r, centre): (usize, Vertex),
        scratch: &mut Option<ClusterScratch>,
    ) -> Vec<CoverBatch> {
        let mut span = psi_obs::span!("index.materialise", round = r, centre = centre);
        let scratch = scratch.get_or_insert_with(|| ClusterScratch::new(self.n));
        let (d, budget) = (self.params.d as usize, self.params.batch_budget as usize);
        let batches = label_batches(graph, &round.labels, centre, d, budget, scratch);
        span.field("batches", batches.len() as u64);
        batches
    }

    pub(crate) fn decide(
        &self,
        pattern: &Pattern,
        src: &dyn EpochSource,
    ) -> Result<bool, QueryError> {
        let mut span = psi_obs::span!("query.decide", epoch = self.epoch, k = pattern.k());
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(1);
        let start = Instant::now();
        let mut stats = ScanStats::default();
        let verdict = match self.admit(pattern)? {
            Some(short) => short.is_some(),
            None => {
                let plan = MatchPlan::new(pattern);
                self.scan(&plan, pattern, src, &mut stats).is_some()
            }
        };
        stats.record(&mut span);
        metrics.query_decide_ns.record_duration(start.elapsed());
        Ok(verdict)
    }

    pub(crate) fn find_one(
        &self,
        pattern: &Pattern,
        src: &dyn EpochSource,
    ) -> Result<Option<Vec<Vertex>>, QueryError> {
        let mut span = psi_obs::span!("query.find_one", epoch = self.epoch, k = pattern.k());
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(1);
        let start = Instant::now();
        let mut stats = ScanStats::default();
        let witness = match self.admit(pattern)? {
            Some(short) => short,
            None => {
                let plan = MatchPlan::new(pattern);
                self.scan(&plan, pattern, src, &mut stats)
                    .map(|hit| match hit {
                        ScanHit::Root(assigned) => plan.to_occurrence(&assigned),
                        ScanHit::Batch(batch, hit) => {
                            let occ = hit.occurrence(&plan, pattern, &batch.graph).into_iter();
                            occ.map(|v| batch.local_to_global[v as usize]).collect()
                        }
                    })
            }
        };
        if let Some(occ) = &witness {
            debug_assert!(verify_occurrence(pattern, self.target(src), occ));
        }
        stats.record(&mut span);
        metrics.query_find_one_ns.record_duration(start.elapsed());
        Ok(witness)
    }

    pub(crate) fn decide_batch(
        &self,
        patterns: &[Pattern],
        src: &dyn EpochSource,
    ) -> Vec<Result<bool, QueryError>> {
        patterns.par_iter().map(|p| self.decide(p, src)).collect()
    }

    pub(crate) fn find_one_batch(
        &self,
        patterns: &[Pattern],
        src: &dyn EpochSource,
    ) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
        patterns.par_iter().map(|p| self.find_one(p, src)).collect()
    }

    pub(crate) fn connectivity_batch(
        &self,
        pairs: &[(Vertex, Vertex)],
        src: &dyn EpochSource,
    ) -> Vec<Result<usize, QueryError>> {
        let _span = psi_obs::span!(
            "query.connectivity_batch",
            epoch = self.epoch,
            pairs = pairs.len(),
        );
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(pairs.len() as u64);
        let start = Instant::now();
        let target = self.target(src);
        let answers = pairs
            .par_iter()
            .map(|&(s, t)| st_connectivity_capped(target, s, t, CONNECTIVITY_CAP))
            .collect();
        metrics
            .query_connectivity_batch_ns
            .record_duration(start.elapsed());
        answers
    }

    pub(crate) fn vertex_connectivity(
        &self,
        mode: ConnectivityMode,
        seed: u64,
        src: &dyn EpochSource,
    ) -> ConnectivityResult {
        let _span = psi_obs::span!("query.vertex_connectivity", epoch = self.epoch, n = self.n);
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(1);
        let start = Instant::now();
        let fv = self.face_vertex(src);
        let result = vertex_connectivity_with_fv(self.target(src), fv, mode, seed);
        metrics
            .query_connectivity_ns
            .record_duration(start.elapsed());
        result
    }
}

/// What a scan found first.
enum ScanHit {
    /// A root search's accepted assignment, by plan position, in target ids.
    Root(Vec<Vertex>),
    /// A fallback batch's hit, in the batch's vertex ids.
    Batch(CoverBatch, BatchHit),
}

/// What one query's fallback has emitted: the batches of every (round,
/// centre) it materialised, the batches it sent to the DP (by cluster and
/// position), and the scratch it emits on, allocated on the first fallback.
#[derive(Default)]
struct Fallback {
    scratch: Option<ClusterScratch>,
    clusters: Vec<((usize, Vertex), Vec<CoverBatch>)>,
    sent: Vec<((usize, Vertex), usize)>,
}

/// What one scan did, recorded on its query span.
#[derive(Default)]
struct ScanStats {
    /// Roots searched.
    roots: u64,
    /// Backtracking nodes the root searches spent.
    nodes: u64,
    /// Fallback batches sent to the batch kernel.
    fallback_batches: u64,
}

impl ScanStats {
    fn record(&self, span: &mut psi_obs::trace::SpanGuard) {
        if span.is_recording() {
            span.field("roots", self.roots);
            span.field("nodes", self.nodes);
            span.field("fallback_batches", self.fallback_batches);
        }
    }
}

/// An immutable view of the engine as of one epoch: a frozen index served as
/// epoch 0 ([`PsiSnapshot::from`]) or a pinned epoch of the live engine
/// ([`DynamicPsiIndex::snapshot`](crate::dynamic::DynamicPsiIndex::snapshot)).
///
/// Cloning is one `Arc` bump; the snapshot is `Send + Sync`, so any number of
/// reader threads can query it while the writer that produced it keeps
/// mutating and flushing. Every method takes `&self` with per-query scratch
/// only; the batch methods fan out on the work-stealing pool and answer in
/// input order. Answers — verdicts, witnesses, and connectivity values alike —
/// are bit-identical to a frozen [`PsiIndex::build`] of the target at the
/// snapshot's epoch, for every `PSI_THREADS`.
#[derive(Clone)]
pub struct PsiSnapshot {
    state: Arc<EpochState>,
}

#[allow(dead_code)]
fn assert_auto_traits() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<PsiSnapshot>();
}

impl std::fmt::Debug for PsiSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsiSnapshot")
            .field("epoch", &self.state.epoch)
            .field("n", &self.state.n)
            .field("m", &self.num_edges())
            .field("rounds", &self.state.rounds.len())
            .finish()
    }
}

impl From<PsiIndex> for PsiSnapshot {
    /// Serves a frozen index as epoch 0: the target and the stored rounds move
    /// in as they are, and the stored faces are unflattened once.
    fn from(index: PsiIndex) -> PsiSnapshot {
        let (state, walks) = EpochState::from_index(index);
        let _ = state.faces.set(Arc::new(walks));
        PsiSnapshot::new(Arc::new(state))
    }
}

impl PsiSnapshot {
    pub(crate) fn new(state: Arc<EpochState>) -> PsiSnapshot {
        PsiSnapshot { state }
    }

    /// The epoch this snapshot pins (0 for a frozen index). Strictly increases
    /// across accepted mutations; snapshots of an unchanged engine share the
    /// same epoch (and the same underlying state).
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The build parameters of the underlying index.
    pub fn params(&self) -> IndexParams {
        self.state.params
    }

    /// Number of target vertices as of this epoch.
    pub fn num_vertices(&self) -> usize {
        self.state.n
    }

    /// Number of target edges as of this epoch.
    pub fn num_edges(&self) -> usize {
        self.target().num_edges()
    }

    /// The pinned target graph.
    pub fn target(&self) -> &CsrGraph {
        self.state.target(&())
    }

    /// Decides whether `pattern` occurs in the pinned target. "Yes" answers
    /// are certain; a "no" is wrong with probability at most `2^−rounds` per
    /// fixed occurrence (see [`crate::index`] on frozen randomness). Patterns
    /// the index cannot serve fail with a [`QueryError`].
    pub fn decide(&self, pattern: &Pattern) -> Result<bool, QueryError> {
        self.state.decide(pattern, &())
    }

    /// Finds one occurrence (pattern vertex `i` ↦ `mapping[i]`): the first hit
    /// of the scan in root order (see [`crate::snapshot`]), independent of
    /// thread count.
    pub fn find_one(&self, pattern: &Pattern) -> Result<Option<Vec<Vertex>>, QueryError> {
        self.state.find_one(pattern, &())
    }

    /// [`PsiSnapshot::decide`] over many patterns on the work-stealing pool,
    /// answers in input order.
    pub fn decide_batch(&self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        self.state.decide_batch(patterns, &())
    }

    /// [`PsiSnapshot::find_one`] over many patterns (input order, deterministic
    /// witnesses).
    pub fn find_one_batch(
        &self,
        patterns: &[Pattern],
    ) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
        self.state.find_one_batch(patterns, &())
    }

    /// Capped pairwise s–t vertex connectivity
    /// ([`crate::connectivity::st_connectivity_capped`] with the planar cap of
    /// [`CONNECTIVITY_CAP`]) against the pinned target, in input order.
    pub fn connectivity_batch(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Result<usize, QueryError>> {
        self.state.connectivity_batch(pairs, &())
    }

    /// Global vertex connectivity of the pinned target (Lemma 5.1). The
    /// face–vertex graph is derived once per epoch, on the first call, and
    /// shared across snapshot clones.
    pub fn vertex_connectivity(&self, mode: ConnectivityMode, seed: u64) -> ConnectivityResult {
        self.state.vertex_connectivity(mode, seed, &())
    }

    /// Materialises the pinned epoch as a frozen [`PsiIndex`] — bit-identical
    /// (struct and byte stream) to [`PsiIndex::build`] of the target at this
    /// epoch. The index shares the snapshot's target and rounds (`O(rounds)`
    /// `Arc` bumps); the cost is one LR embedding of the target, `O(n + m)`,
    /// for its canonical faces.
    pub fn to_frozen(&self) -> PsiIndex {
        self.state.freeze(&())
    }
}
