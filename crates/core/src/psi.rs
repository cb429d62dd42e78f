//! The unified engine facade: one front door for the whole pipeline.
//!
//! [`Psi`] wraps planarity gating, index construction, serve-many queries,
//! dynamic mutation, and artifact (de)serialisation behind a single builder and
//! a single error type:
//!
//! ```
//! use planar_subiso::{Pattern, Psi};
//!
//! let target = psi_graph::generators::triangulated_grid(12, 12);
//! let mut psi = Psi::builder().k(4).rounds(3).open(&target)?;
//! assert!(psi.decide(&Pattern::cycle(4))?);
//! psi.delete_edge(0, 1)?; // incremental — no rebuild
//! assert!(psi.decide(&Pattern::cycle(4))?);
//! # Ok::<(), planar_subiso::PsiError>(())
//! ```
//!
//! The entry points:
//!
//! * [`PsiBuilder::open`] / [`PsiBuilder::open_text`] / [`PsiBuilder::open_path`]
//!   gate the target through the LR planarity engine, build the index, and
//!   return a live, *mutable* engine;
//! * [`Psi::decide_in`], [`Psi::find_one_in`], [`Psi::list_all_in`], and
//!   [`Psi::vertex_connectivity_of`] answer one-shot queries on arbitrary
//!   graphs (the cheap classic path, no index is built);
//! * [`Psi::load`] / [`Psi::save`] round-trip the artifact;
//! * [`PsiError`] folds `NonPlanarWitness`, [`QueryError`], [`IndexLoadError`],
//!   [`MutationError`], parse, I/O, and thread-pool failures, and a zero `k` or
//!   `rounds`, into one `std::error::Error` with `source()` chaining. No entry
//!   point panics on malformed input.

use crate::connectivity::{vertex_connectivity, ConnectivityMode, ConnectivityResult};
use crate::dynamic::{DynamicPsiIndex, MutationError, UpdateStats};
use crate::index::{IndexLoadError, IndexParams, PsiIndex, QueryError};
use crate::isomorphism::SubgraphIsomorphism;
use crate::listing::ListingOutcome;
use crate::pattern::Pattern;
use psi_graph::{CsrGraph, GraphParseError, GraphReadError, Vertex};
use psi_planar::{check_planarity, planar_embedding, Embedding, NonPlanarWitness};
use std::fmt;
use std::path::Path;

// ---------------------------------------------------------------------------
// The unified error type
// ---------------------------------------------------------------------------

/// Everything a [`Psi`] entry point can fail with. Each variant wraps the
/// underlying typed error and exposes it through
/// [`std::error::Error::source`], so callers can match coarsely or drill down.
#[derive(Debug)]
pub enum PsiError {
    /// The target is not planar; the boxed witness is a verifiable Kuratowski
    /// subdivision.
    NonPlanar(Box<NonPlanarWitness>),
    /// A query was malformed for the engine serving it (pattern too large,
    /// disconnected, endpoint out of range, …).
    Query(QueryError),
    /// A serialised artifact failed validation on load.
    IndexLoad(IndexLoadError),
    /// An edge mutation was rejected (see [`MutationError`]); the engine is
    /// unchanged.
    Mutation(MutationError),
    /// A textual graph payload failed to parse.
    Parse(GraphParseError),
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// The dedicated thread pool could not be built.
    Threads(rayon::ThreadPoolBuildError),
    /// A builder knob that must be at least 1 (`k` or `rounds`) was 0; no index
    /// was built.
    ZeroParam(&'static str),
}

impl fmt::Display for PsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsiError::NonPlanar(w) => write!(f, "target is not planar: {w}"),
            PsiError::Query(e) => write!(f, "query rejected: {e}"),
            PsiError::IndexLoad(e) => write!(f, "index artifact rejected: {e}"),
            PsiError::Mutation(e) => write!(f, "mutation rejected: {e}"),
            PsiError::Parse(e) => write!(f, "graph parse failed: {e}"),
            PsiError::Io(e) => write!(f, "i/o failed: {e}"),
            PsiError::Threads(e) => write!(f, "thread pool construction failed: {e}"),
            PsiError::ZeroParam(name) => write!(f, "builder parameter `{name}` must be at least 1"),
        }
    }
}

impl std::error::Error for PsiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PsiError::NonPlanar(w) => Some(w.as_ref()),
            PsiError::Query(e) => Some(e),
            PsiError::IndexLoad(e) => Some(e),
            PsiError::Mutation(e) => Some(e),
            PsiError::Parse(e) => Some(e),
            PsiError::Io(e) => Some(e),
            PsiError::Threads(e) => Some(e),
            PsiError::ZeroParam(_) => None,
        }
    }
}

impl From<Box<NonPlanarWitness>> for PsiError {
    fn from(w: Box<NonPlanarWitness>) -> Self {
        PsiError::NonPlanar(w)
    }
}

impl From<QueryError> for PsiError {
    fn from(e: QueryError) -> Self {
        PsiError::Query(e)
    }
}

impl From<IndexLoadError> for PsiError {
    fn from(e: IndexLoadError) -> Self {
        PsiError::IndexLoad(e)
    }
}

impl From<MutationError> for PsiError {
    fn from(e: MutationError) -> Self {
        PsiError::Mutation(e)
    }
}

impl From<GraphParseError> for PsiError {
    fn from(e: GraphParseError) -> Self {
        PsiError::Parse(e)
    }
}

impl From<std::io::Error> for PsiError {
    fn from(e: std::io::Error) -> Self {
        PsiError::Io(e)
    }
}

impl From<GraphReadError> for PsiError {
    fn from(e: GraphReadError) -> Self {
        match e {
            GraphReadError::Io(e) => PsiError::Io(e),
            GraphReadError::Parse(e) => PsiError::Parse(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and opens a [`Psi`] engine. Obtained from [`Psi::builder`];
/// every knob has the [`IndexParams`] default.
#[derive(Clone, Debug, Default)]
pub struct PsiBuilder {
    params: IndexParams,
    threads: Option<usize>,
}

impl PsiBuilder {
    /// Maximum pattern size the engine will serve.
    pub fn k(mut self, k: u32) -> Self {
        self.params.k = k;
        self
    }

    /// Maximum pattern diameter the engine will serve.
    pub fn d(mut self, d: u32) -> Self {
        self.params.d = d;
        self
    }

    /// Stored cover rounds (a "no" is wrong with probability ≤ `2^−rounds` per
    /// fixed occurrence).
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.params.rounds = rounds;
        self
    }

    /// The frozen randomness seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Runs batch queries on a dedicated pool of `threads` workers instead of
    /// the process-global pool (which honours `PSI_THREADS`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The configured [`IndexParams`].
    pub fn params(&self) -> IndexParams {
        self.params
    }

    fn pool(&self) -> Result<Option<rayon::ThreadPool>, PsiError> {
        match self.threads {
            None => Ok(None),
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map(Some)
                .map_err(PsiError::Threads),
        }
    }

    /// Gates `target` through the LR planarity engine, builds the index, and
    /// opens the live engine. Non-planar targets are rejected with the
    /// Kuratowski certificate.
    pub fn open(self, target: &CsrGraph) -> Result<Psi, PsiError> {
        let embedding = {
            let _span = psi_obs::span!("planarity.embed", n = target.num_vertices());
            planar_embedding(target)?
        };
        self.open_embedded(&embedding)
    }

    /// Opens over an already validated [`Embedding`] (generator-native
    /// embeddings skip the planarity re-test). `k = 0` or `rounds = 0` is
    /// rejected with [`PsiError::ZeroParam`].
    pub fn open_embedded(self, embedding: &Embedding) -> Result<Psi, PsiError> {
        if self.params.k == 0 {
            return Err(PsiError::ZeroParam("k"));
        }
        if self.params.rounds == 0 {
            return Err(PsiError::ZeroParam("rounds"));
        }
        let pool = self.pool()?;
        let dynamic = install(&pool, || DynamicPsiIndex::build(embedding, self.params));
        Ok(Psi { dynamic, pool })
    }

    /// Parses an edge-list / DIMACS payload ([`psi_graph::io::parse_graph`])
    /// and opens it.
    pub fn open_text(self, text: &str) -> Result<Psi, PsiError> {
        let graph = psi_graph::parse_graph(text)?;
        self.open(&graph)
    }

    /// Reads a graph file ([`psi_graph::io::read_graph_file`]) and opens it.
    pub fn open_path(self, path: impl AsRef<Path>) -> Result<Psi, PsiError> {
        let graph = psi_graph::read_graph_file(path)?;
        self.open(&graph)
    }

    /// Loads a serialised artifact and thaws it into a live engine. The stored
    /// [`IndexParams`] win over the builder's `k`/`d`/`rounds`/`seed` knobs (they are
    /// frozen into the artifact); `threads` still applies.
    pub fn load(self, path: impl AsRef<Path>) -> Result<Psi, PsiError> {
        let index = PsiIndex::load(path)?;
        self.thaw(index)
    }

    /// Thaws an in-memory artifact into a live engine (see [`PsiBuilder::load`]).
    pub fn thaw(self, index: PsiIndex) -> Result<Psi, PsiError> {
        let pool = self.pool()?;
        let dynamic = install(&pool, || DynamicPsiIndex::thaw(index));
        Ok(Psi { dynamic, pool })
    }
}

/// Runs `f` on the dedicated pool when there is one, else on the caller (whose
/// parallel sections use the process-global pool).
fn install<R: Send>(pool: &Option<rayon::ThreadPool>, f: impl FnOnce() -> R + Send) -> R {
    match pool {
        Some(p) => p.install(f),
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The unified engine: a live [`DynamicPsiIndex`] plus an optional dedicated
/// thread pool. Construct through [`Psi::builder`] (or [`Psi::open`] /
/// [`Psi::load`] with defaults); query, mutate, and freeze at will.
pub struct Psi {
    dynamic: DynamicPsiIndex,
    pool: Option<rayon::ThreadPool>,
}

// The epoch-snapshot serving story rests on moving the writer onto its own
// thread while readers query snapshots: keep `Psi` `Send` by construction.
#[allow(dead_code)]
fn assert_psi_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Psi>();
}

impl fmt::Debug for Psi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Psi")
            .field("dynamic", &self.dynamic)
            .field("dedicated_pool", &self.pool.is_some())
            .finish()
    }
}

impl Psi {
    /// The configuration builder.
    pub fn builder() -> PsiBuilder {
        PsiBuilder::default()
    }

    /// [`PsiBuilder::open`] with default parameters.
    pub fn open(target: &CsrGraph) -> Result<Psi, PsiError> {
        Psi::builder().open(target)
    }

    /// [`PsiBuilder::load`] with default parameters.
    pub fn load(path: impl AsRef<Path>) -> Result<Psi, PsiError> {
        Psi::builder().load(path)
    }

    /// The engine's parameters (frozen into any saved artifact).
    pub fn params(&self) -> IndexParams {
        self.dynamic.params()
    }

    /// Number of target vertices.
    pub fn num_vertices(&self) -> usize {
        self.dynamic.num_vertices()
    }

    /// Number of target edges.
    pub fn num_edges(&self) -> usize {
        self.dynamic.num_edges()
    }

    /// Whether the live target contains edge `{u, v}`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.dynamic.has_edge(u, v)
    }

    /// Direct access to the underlying dynamic index (advanced use: custom
    /// scans, embedding inspection).
    pub fn dynamic(&self) -> &DynamicPsiIndex {
        &self.dynamic
    }

    /// Mutable access to the underlying dynamic index (advanced use: explicit
    /// [`DynamicPsiIndex::flush`] scheduling).
    pub fn dynamic_mut(&mut self) -> &mut DynamicPsiIndex {
        &mut self.dynamic
    }

    /// Relabels the clusters dirtied by mutations since the last flush, on the
    /// engine's pool; returns the number of clusters relabelled. Queries and
    /// [`Psi::freeze`] flush implicitly — call this to pay the relabelling off
    /// the serving path.
    pub fn flush(&mut self) -> usize {
        install(&self.pool, || self.dynamic.flush())
    }

    // --- queries ----------------------------------------------------------

    /// Decides whether `pattern` occurs in the live target. Takes `&mut self`:
    /// the first query after a mutation relabels the dirtied clusters (pin a
    /// [`Psi::snapshot`] for shared read-only access).
    pub fn decide(&mut self, pattern: &Pattern) -> Result<bool, PsiError> {
        install(&self.pool, || self.dynamic.decide(pattern)).map_err(PsiError::from)
    }

    /// Finds one occurrence: the first hit of the scan in root order, the
    /// same witness for every thread count.
    pub fn find_one(&mut self, pattern: &Pattern) -> Result<Option<Vec<Vertex>>, PsiError> {
        install(&self.pool, || self.dynamic.find_one(pattern)).map_err(PsiError::from)
    }

    /// Decides many patterns on the engine's pool; answers in input order.
    pub fn decide_batch(&mut self, patterns: &[Pattern]) -> Vec<Result<bool, QueryError>> {
        install(&self.pool, || self.dynamic.decide_batch(patterns))
    }

    /// Finds occurrences for many patterns on the engine's pool (input order,
    /// deterministic witnesses).
    pub fn find_one_batch(
        &mut self,
        patterns: &[Pattern],
    ) -> Vec<Result<Option<Vec<Vertex>>, QueryError>> {
        install(&self.pool, || self.dynamic.find_one_batch(patterns))
    }

    /// Lists all occurrences of `pattern` via the coin-flip listing loop
    /// (classic cover path over the live target; the outcome reports
    /// completeness explicitly). Listing is defined for connected patterns: a
    /// disconnected one fails with [`QueryError::DisconnectedPattern`].
    pub fn list_all(&self, pattern: &Pattern) -> Result<ListingOutcome, PsiError> {
        admit_listing(pattern)?;
        let target = self.dynamic.target_csr();
        Ok(install(&self.pool, || {
            SubgraphIsomorphism::new(pattern.clone()).list_all_outcome(target)
        }))
    }

    /// Capped pairwise s–t vertex connectivity for many pairs, in input order.
    pub fn connectivity_batch(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Result<usize, QueryError>> {
        install(&self.pool, || self.dynamic.connectivity_batch(pairs))
    }

    /// Global vertex connectivity of the live target (Lemma 5.1).
    pub fn vertex_connectivity(&self, mode: ConnectivityMode, seed: u64) -> ConnectivityResult {
        install(&self.pool, || self.dynamic.vertex_connectivity(mode, seed))
    }

    // --- mutation ---------------------------------------------------------

    /// Inserts edge `{u, v}` incrementally (planarity-gated; see
    /// [`DynamicPsiIndex::insert_edge`]).
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> Result<UpdateStats, PsiError> {
        install(&self.pool, || self.dynamic.insert_edge(u, v)).map_err(PsiError::from)
    }

    /// Deletes edge `{u, v}` incrementally (see [`DynamicPsiIndex::delete_edge`]).
    pub fn delete_edge(&mut self, u: Vertex, v: Vertex) -> Result<UpdateStats, PsiError> {
        install(&self.pool, || self.dynamic.delete_edge(u, v)).map_err(PsiError::from)
    }

    // --- snapshots --------------------------------------------------------

    /// Pins the current state as an immutable, `Send + Sync`
    /// [`crate::PsiSnapshot`]: one `Arc` bump on the engine's epoch state
    /// after an implicit flush, no label copies. Reader threads query the
    /// snapshot (same surface, same answers as a frozen index of this epoch)
    /// while this engine keeps mutating and flushing; see
    /// [`DynamicPsiIndex::snapshot`].
    pub fn snapshot(&mut self) -> crate::PsiSnapshot {
        install(&self.pool, || self.dynamic.snapshot())
    }

    /// The engine's current epoch (strictly increases across accepted
    /// mutations; see [`DynamicPsiIndex::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.dynamic.epoch()
    }

    // --- observability ----------------------------------------------------

    /// Turns structured tracing on or off process-wide. While off (the
    /// default), every `span!` site in the engine costs one relaxed atomic
    /// load; while on, spans land in per-thread ring buffers for
    /// [`Psi::trace_export`]. Tracing never changes answers, witnesses, or
    /// frozen artifact bytes.
    pub fn set_tracing(on: bool) {
        psi_obs::set_tracing(on);
    }

    /// A Prometheus-style text dump of the process-wide metrics registry:
    /// query/mutation/flush counters (relabelled clusters included), per-query
    /// latency percentiles
    /// (`p50`/`p95`/`p99`/max summaries), layer statistics (cover, DP, arena,
    /// separating), and work-stealing pool counters.
    pub fn metrics(&self) -> String {
        psi_obs::registry().prometheus_text()
    }

    /// The recorded spans as chrome://tracing trace-event JSON (load via
    /// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)). Returns
    /// whatever the per-thread ring buffers currently retain; call
    /// [`Psi::set_tracing`]`(true)` first or the export is empty.
    pub fn trace_export(&self) -> String {
        psi_obs::chrome_trace_json()
    }

    // --- artifact ---------------------------------------------------------

    /// Freezes the live state into the immutable artifact (flushing first) —
    /// bit-identical to a from-scratch [`PsiIndex::build`] of the current
    /// target.
    pub fn freeze(&mut self) -> PsiIndex {
        install(&self.pool, || self.dynamic.freeze())
    }

    /// Freezes and serialises to `path` (sectioned container, see
    /// [`crate::index`]).
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<(), PsiError> {
        self.freeze().save(path).map_err(PsiError::Io)
    }

    // --- one-shot classics (no index built) -------------------------------

    /// One-shot decide on an arbitrary graph: the cheap LR gate (test phases
    /// only), then the classic cover pipeline. Use an opened engine instead
    /// when the target serves many queries.
    pub fn decide_in(pattern: &Pattern, target: &CsrGraph) -> Result<bool, PsiError> {
        Ok(Psi::find_one_in(pattern, target)?.is_some())
    }

    /// One-shot find-one on an arbitrary graph (see [`Psi::decide_in`]).
    pub fn find_one_in(
        pattern: &Pattern,
        target: &CsrGraph,
    ) -> Result<Option<Vec<Vertex>>, PsiError> {
        check_planarity(target)?;
        Ok(SubgraphIsomorphism::new(pattern.clone()).find_one(target))
    }

    /// One-shot exhaustive listing on an arbitrary graph (see [`Psi::decide_in`]);
    /// a disconnected pattern fails as in [`Psi::list_all`].
    pub fn list_all_in(pattern: &Pattern, target: &CsrGraph) -> Result<ListingOutcome, PsiError> {
        check_planarity(target)?;
        admit_listing(pattern)?;
        Ok(SubgraphIsomorphism::new(pattern.clone()).list_all_outcome(target))
    }

    /// One-shot planar vertex connectivity of an arbitrary graph: the LR engine
    /// supplies the embedding the face–vertex construction requires.
    pub fn vertex_connectivity_of(
        target: &CsrGraph,
        mode: ConnectivityMode,
        seed: u64,
    ) -> Result<ConnectivityResult, PsiError> {
        let embedding = planar_embedding(target)?;
        Ok(vertex_connectivity(&embedding, mode, seed))
    }
}

/// The listing loop's precondition, as a typed error: a connected pattern.
fn admit_listing(pattern: &Pattern) -> Result<(), QueryError> {
    if pattern.is_connected() {
        Ok(())
    } else {
        Err(QueryError::DisconnectedPattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::verify_occurrence;
    use psi_graph::generators as gg;

    #[test]
    fn builder_opens_queries_and_mutates() {
        let g = gg::triangulated_grid(10, 10);
        let mut psi = Psi::builder().k(4).rounds(3).open(&g).unwrap();
        assert!(psi.decide(&Pattern::cycle(4)).unwrap());
        assert!(!psi.decide(&Pattern::clique(4)).unwrap());
        let occ = psi.find_one(&Pattern::triangle()).unwrap().unwrap();
        assert!(verify_occurrence(&Pattern::triangle(), &g, &occ));
        // Delete every edge of the found triangle; it must stop occurring there.
        psi.delete_edge(occ[0], occ[1]).unwrap();
        assert!(psi.num_edges() < g.num_edges());
    }

    #[test]
    fn facade_rejects_non_planar_targets() {
        let err = Psi::open(&gg::complete(5)).unwrap_err();
        match &err {
            PsiError::NonPlanar(w) => assert!(w.verify(&gg::complete(5))),
            other => panic!("expected NonPlanar, got {other:?}"),
        }
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn facade_surfaces_query_errors_without_panicking() {
        let mut psi = Psi::builder().k(3).open(&gg::grid(4, 4)).unwrap();
        assert!(matches!(
            psi.decide(&Pattern::clique(4)),
            Err(PsiError::Query(QueryError::PatternTooLarge { .. }))
        ));
        assert!(matches!(
            Psi::builder().k(0).open(&gg::grid(4, 4)),
            Err(PsiError::ZeroParam("k"))
        ));
        assert!(matches!(
            Psi::builder().rounds(0).open(&gg::grid(4, 4)),
            Err(PsiError::ZeroParam("rounds"))
        ));
        let two_edges = Pattern::from_edges(4, &[(0, 1), (2, 3)]);
        let grid = gg::triangulated_grid(4, 4);
        let psi = Psi::open(&grid).unwrap();
        assert!(matches!(
            psi.list_all(&two_edges),
            Err(PsiError::Query(QueryError::DisconnectedPattern))
        ));
        assert!(matches!(
            Psi::list_all_in(&two_edges, &grid),
            Err(PsiError::Query(QueryError::DisconnectedPattern))
        ));
    }

    #[test]
    fn open_text_parses_and_serves() {
        let mut psi = Psi::builder().open_text("0 1\n1 2\n2 0\n").unwrap();
        assert!(psi.decide(&Pattern::triangle()).unwrap());
        assert!(matches!(
            Psi::builder().open_text("0 zebra\n"),
            Err(PsiError::Parse(_))
        ));
    }

    #[test]
    fn dedicated_pool_matches_global_pool_answers() {
        let g = gg::triangulated_grid(8, 8);
        let mut single = Psi::builder().threads(1).open(&g).unwrap();
        let mut wide = Psi::builder().threads(4).open(&g).unwrap();
        let patterns = [Pattern::triangle(), Pattern::cycle(4), Pattern::path(3)];
        assert_eq!(single.decide_batch(&patterns), wide.decide_batch(&patterns));
        assert_eq!(
            single.find_one_batch(&patterns),
            wide.find_one_batch(&patterns)
        );
    }

    #[test]
    fn one_shot_classics_match_the_engine() {
        let g = gg::triangulated_grid(9, 9);
        assert!(Psi::decide_in(&Pattern::cycle(4), &g).unwrap());
        let occ = Psi::find_one_in(&Pattern::triangle(), &g).unwrap().unwrap();
        assert!(verify_occurrence(&Pattern::triangle(), &g, &occ));
        let outcome = Psi::list_all_in(&Pattern::triangle(), &gg::triangulated_grid(4, 4)).unwrap();
        assert!(outcome.complete && !outcome.occurrences.is_empty());
        assert_eq!(
            Psi::vertex_connectivity_of(&gg::grid(4, 4), ConnectivityMode::WholeGraph, 1)
                .unwrap()
                .connectivity,
            2
        );
        assert!(Psi::decide_in(&Pattern::triangle(), &gg::complete(5)).is_err());
    }

    #[test]
    fn save_load_round_trips_through_the_facade() {
        let dir = std::env::temp_dir().join("psi_facade_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.psi");
        let g = gg::triangulated_grid(7, 7);
        let mut psi = Psi::builder().seed(7).open(&g).unwrap();
        psi.save(&path).unwrap();
        let mut reloaded = Psi::load(&path).unwrap();
        assert_eq!(reloaded.params().seed, 7);
        assert_eq!(
            psi.decide(&Pattern::cycle(4)).unwrap(),
            reloaded.decide(&Pattern::cycle(4)).unwrap()
        );
        assert_eq!(psi.freeze().to_bytes(), reloaded.freeze().to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
