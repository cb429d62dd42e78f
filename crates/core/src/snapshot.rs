//! The one read path: frozen, live and pinned queries over one `EpochState`.
//!
//! The engine answers one query surface — `decide`, `find_one`, their batch
//! forms, `connectivity_batch` and `vertex_connectivity` — from three states,
//! and all three serve it through the same `EpochState` methods:
//!
//! * **frozen** — [`PsiSnapshot::from`] a [`PsiIndex`] serves the artifact as
//!   epoch 0, its stored rounds regrouped per cluster centre;
//! * **live** — a [`crate::dynamic::DynamicPsiIndex`] keeps its readable state
//!   as an `EpochState` value, so a live query is a flush of the dirty backlog
//!   followed by a read of borrowed state, with nothing published;
//! * **pinned** — [`DynamicPsiIndex::snapshot`](crate::dynamic::DynamicPsiIndex::snapshot)
//!   publishes a copy of the live state behind an `Arc` for `O(rounds)`
//!   reference-count bumps, which any number of reader threads query while
//!   the writer keeps mutating.
//!
//! Every servable product — the target CSR, the facial walks, the per-round
//! batch maps — is held behind an `Arc`. The writer never mutates published
//! data: a flush rebuilds the dirty clusters' batches *off to the side*
//! (copy-on-write round maps) and swaps each replacement map in with a single
//! `Arc` store; a retired epoch's batches are freed when the last snapshot
//! holding them drops. Taking a snapshot needs `&mut` on the engine, so it
//! serialises with mutations, and the bundle it captures is frozen thereafter.
//! A snapshot therefore never observes a partially published round set, and
//! its answers are bit-identical to a from-scratch [`PsiIndex::build`] of the
//! target as of its epoch — the invariant [`PsiSnapshot::to_frozen`] exposes
//! and the snapshot serving suite pins under `PSI_THREADS = {1, 4}`.
//!
//! The target, faces and face–vertex graph are cells filled on first need and
//! reset by every accepted mutation: pattern queries read only the batches, so
//! a live `decide` or `find_one` after a mutation derives no CSR and compacts
//! no faces (release builds; debug builds re-verify witnesses against the
//! target). Connectivity queries derive what they read once per epoch.

use crate::connectivity::{
    st_connectivity_capped, vertex_connectivity_with_fv, ConnectivityMode, ConnectivityResult,
};
use crate::dp::DpResult;
use crate::index::{
    backtrack_step, batch_can_host, IndexParams, IndexedBatch, MatchPlan, PsiIndex, QueryError,
    CONNECTIVITY_CAP, FAST_PATH_NODE_BUDGET,
};
use crate::isomorphism::{batch_dp, dp_witness, DpStrategy};
use crate::pattern::{verify_occurrence, Pattern};
use psi_graph::{CsrGraph, Vertex};
use psi_planar::{face_vertex_graph, planar_embedding, Embedding, FaceVertexGraph};
use psi_treedecomp::BinaryTreeDecomposition;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One stored round, keyed by cluster centre. Values are `Arc`-shared so a
/// copy-on-write rebuild of the map re-uses every untouched cluster's batches.
pub(crate) type RoundMap = BTreeMap<Vertex, Arc<Vec<IndexedBatch>>>;

/// Fills an epoch's lazy cells on first need. The live engine derives them
/// from its adjacency lists and face store; a published epoch (`()`) captured
/// its target and faces when it was published, so it is never asked.
pub(crate) trait EpochSource: Sync {
    /// The target as CSR.
    fn csr(&self) -> CsrGraph;
    /// The facial walks of a valid embedding of the target.
    fn walks(&self) -> Vec<Vec<Vertex>>;
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
pub(crate) struct EpochState {
    pub(crate) epoch: u64,
    pub(crate) params: IndexParams,
    /// Number of target vertices (edge flips never change it).
    pub(crate) n: usize,
    pub(crate) rounds: Vec<Arc<RoundMap>>,
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
    /// faces cell is left to the caller). Each stored round is regrouped by
    /// cluster centre: batches are cluster-pure and stored in ascending centre
    /// order, so iterating the groups in key order replays the stored stream.
    pub(crate) fn from_index(index: PsiIndex) -> (EpochState, Vec<Vec<Vertex>>) {
        let (params, target, walks, rounds) = index.into_parts();
        let rounds = rounds
            .into_iter()
            .map(|round| {
                // A freshly built or decoded round is not shared (refcount 1),
                // so unwrapping moves the batches without copying.
                let round = Arc::try_unwrap(round).unwrap_or_else(|arc| (*arc).clone());
                let mut by_center: BTreeMap<Vertex, Vec<IndexedBatch>> = BTreeMap::new();
                for ib in round {
                    by_center.entry(ib.batch.windows[0].0).or_default().push(ib);
                }
                Arc::new(
                    by_center
                        .into_iter()
                        .map(|(c, batches)| (c, Arc::new(batches)))
                        .collect::<RoundMap>(),
                )
            })
            .collect();
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

    /// A copy of this epoch for [`PsiSnapshot`]s: `O(rounds)` `Arc` bumps, with
    /// the target and faces captured (derived first if their cells are empty)
    /// and the face–vertex graph shared when already derived.
    pub(crate) fn publish(&self, src: &dyn EpochSource) -> EpochState {
        EpochState {
            epoch: self.epoch,
            params: self.params,
            n: self.n,
            rounds: self.rounds.clone(),
            target: OnceLock::from(self.target(src).clone()),
            faces: OnceLock::from(self.faces(src).clone()),
            fv: self.fv.clone(),
        }
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

    fn faces(&self, src: &dyn EpochSource) -> &Arc<Vec<Vec<Vertex>>> {
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
    /// and byte stream) to [`PsiIndex::build`] of the target: faces are
    /// re-canonicalised through [`planar_embedding`], a pure function of the
    /// target, and rounds flatten in stored order.
    pub(crate) fn freeze(&self, src: &dyn EpochSource) -> PsiIndex {
        // Guards the invariant that every served epoch's target is planar: a
        // build starts from a planar embedding, `PsiIndex::from_bytes` admits
        // only faces that pass `Embedding::validate`'s rules with Euler
        // characteristic 2·components, and the live engine refuses every
        // insertion that would break planarity before its epoch advances. The
        // load does not check that the corners at each vertex form one
        // rotation, so a pinched walk set could still carry a non-planar target.
        let embedding =
            planar_embedding(self.target(src)).expect("every served epoch has a planar target");
        let rounds: Vec<Vec<IndexedBatch>> = self
            .rounds
            .iter()
            .map(|round| {
                round
                    .values()
                    .flat_map(|batches| batches.iter())
                    .cloned()
                    .collect()
            })
            .collect();
        PsiIndex::from_parts(self.params, &embedding, rounds)
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

    /// The stored batch stream: rounds in order, each round's clusters in
    /// ascending centre order — the scan order of every front end, so the
    /// first hit (and with it every witness) is independent of thread count.
    fn batches(&self) -> impl Iterator<Item = &IndexedBatch> {
        self.rounds
            .iter()
            .flat_map(|round| round.values())
            .flat_map(|batches| batches.iter())
    }

    /// The one scan behind `decide` and `find_one`: per batch that can host
    /// the pattern, the exhaustive backtracking fast path (exact whenever it
    /// completes under [`FAST_PATH_NODE_BUDGET`]), with the stored
    /// decomposition's DP as the polynomial fallback. Returns the first hit in
    /// stored order.
    fn scan(&self, pattern: &Pattern) -> Option<Hit<'_>> {
        let k = pattern.k();
        let plan = MatchPlan::new(pattern);
        let mut assigned = Vec::with_capacity(k);
        for ib in self.batches() {
            if !batch_can_host(ib, k) {
                continue;
            }
            assigned.clear();
            let mut budget = FAST_PATH_NODE_BUDGET;
            let graph = &ib.batch.graph;
            let found = match backtrack_step(&plan, graph, 0, &mut assigned, &mut budget) {
                Ok(true) => Found::Fast(plan, assigned),
                Ok(false) => continue,
                Err(()) => {
                    let btd = ib.decomp.to_binary(graph.num_vertices());
                    match batch_dp(DpStrategy::Sequential, pattern, graph, &btd) {
                        Some(decision) => Found::Dp(btd, decision),
                        None => continue,
                    }
                }
            };
            return Some(Hit { ib, found });
        }
        None
    }

    pub(crate) fn decide(&self, pattern: &Pattern) -> Result<bool, QueryError> {
        let _span = psi_obs::span!("query.decide", epoch = self.epoch, k = pattern.k());
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(1);
        let start = Instant::now();
        let verdict = match self.admit(pattern)? {
            Some(short) => short.is_some(),
            None => self.scan(pattern).is_some(),
        };
        metrics.query_decide_ns.record_duration(start.elapsed());
        Ok(verdict)
    }

    pub(crate) fn find_one(
        &self,
        pattern: &Pattern,
        src: &dyn EpochSource,
    ) -> Result<Option<Vec<Vertex>>, QueryError> {
        let _span = psi_obs::span!("query.find_one", epoch = self.epoch, k = pattern.k());
        let metrics = crate::obs::metrics();
        metrics.queries_total.add(1);
        let start = Instant::now();
        let witness = match self.admit(pattern)? {
            Some(short) => short,
            None => self.scan(pattern).map(|hit| hit.witness(pattern)),
        };
        if let Some(occ) = &witness {
            debug_assert!(verify_occurrence(pattern, self.target(src), occ));
        }
        metrics.query_find_one_ns.record_duration(start.elapsed());
        Ok(witness)
    }

    pub(crate) fn decide_batch(&self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        patterns.par_iter().map(|p| self.decide(p)).collect()
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

/// The first hit of [`EpochState::scan`]: the batch it lies in and how it was
/// found there.
struct Hit<'a> {
    ib: &'a IndexedBatch,
    found: Found,
}

/// What found a hit.
enum Found {
    /// The fast path's full assignment, by plan position.
    Fast(MatchPlan, Vec<Vertex>),
    /// The batch DP's run over the materialised decomposition.
    Dp(BinaryTreeDecomposition, DpResult),
}

impl Hit<'_> {
    /// The hit's occurrence in target vertex ids: the fast path's assignment
    /// reordered by pattern vertex, or one recovered from the DP run.
    fn witness(self, pattern: &Pattern) -> Vec<Vertex> {
        let occ = match self.found {
            Found::Fast(plan, assigned) => plan.to_occurrence(&assigned),
            Found::Dp(btd, decision) => dp_witness(&decision, pattern, &self.ib.batch.graph, &btd),
        };
        let map = &self.ib.batch.local_to_global;
        occ.into_iter().map(|v| map[v as usize]).collect()
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
    /// Serves a frozen index as epoch 0: the stored rounds regrouped per
    /// cluster centre (moved, not copied, unless the index's rounds are
    /// shared) and the stored faces unflattened once.
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
        self.state.decide(pattern)
    }

    /// Finds one occurrence (pattern vertex `i` ↦ `mapping[i]`): the first hit
    /// in stored (round, centre, batch) order, independent of thread count.
    pub fn find_one(&self, pattern: &Pattern) -> Result<Option<Vec<Vertex>>, QueryError> {
        self.state.find_one(pattern, &())
    }

    /// [`PsiSnapshot::decide`] over many patterns on the work-stealing pool,
    /// answers in input order.
    pub fn decide_batch(&self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        self.state.decide_batch(patterns)
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
    /// epoch. `O(index size)`; meant for tests and persistence of a pinned
    /// epoch, not the serving path.
    pub fn to_frozen(&self) -> PsiIndex {
        self.state.freeze(&())
    }
}
