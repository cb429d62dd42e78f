//! # planar-subiso
//!
//! A reproduction of **"Parallel Planar Subgraph Isomorphism and Vertex Connectivity"**
//! (Gianinazzi & Hoefler, SPAA 2020): a fixed-parameter, low-depth parallel algorithm
//! deciding whether a small pattern graph `H` occurs as a subgraph of a planar target
//! graph `G`, plus the application of that machinery to deciding planar vertex
//! connectivity in `O(n log n)` work and `O(log² n)` depth.
//!
//! ## Pipeline
//!
//! 0. [`psi_planar::planarity`] — the LR planarity engine verifies planarity and
//!    constructs the embedding as step zero ([`psi::Psi`] runs it on every
//!    arbitrary-graph entry point), rejecting non-planar inputs with a checkable
//!    Kuratowski certificate.
//! 1. [`cover`] — the Parallel Treewidth k-d Cover (Section 2.1): an exponential start
//!    time clustering followed by per-cluster BFS level windows turns the target into
//!    `O(n d)` total size worth of bounded-treewidth pieces such that each fixed
//!    occurrence survives with probability ≥ 1/2.
//! 2. [`dp`] / [`dp_parallel`] — the bounded-treewidth partial-match dynamic program
//!    (Sections 3.2 and 3.3): the sequential DP the queries run, and the
//!    path-parallel DP with shortcuts ([`run_parallel`], called directly).
//! 3. [`isomorphism`] — the public query API: decide / find one / list all / count, with
//!    `O(log n)` cover repetitions for the high-probability guarantee. Each cover
//!    batch goes through the kernel the index shares: an exhaustive backtracking
//!    search on a node budget, with the DP on the batches where it runs out;
//!    [`DpStrategy::Sequential`] runs the paper's DP on every batch.
//! 4. [`disconnected`] — colour-coding reduction for disconnected patterns (Section 4.1).
//! 5. [`listing`] — the listing loop with the coin-flip stopping rule (Section 4.2).
//! 6. [`separating`] / [`connectivity`] — S-separating subgraph isomorphism
//!    (Section 5.2) and planar vertex connectivity via separating cycles in the
//!    face–vertex graph (Section 5.1, Lemmas 5.1–5.2): enumerated on a budget
//!    below the minimum degree, with the separating DP as the fallback.
//! 7. [`index`] — the versioned build-once / serve-many artifact: cover rounds
//!    and embedding frozen into one immutable [`index::PsiIndex`] (optionally
//!    serialised via [`psi_graph::io`]), served as an epoch-0
//!    [`snapshot::PsiSnapshot`]. No decomposition is stored: a batch is
//!    decomposed only when its DP runs.
//! 8. [`dynamic`] — incremental index mutation: [`dynamic::DynamicPsiIndex`]
//!    maintains the embedding, the per-round clusterings, and the affected
//!    clusters' batches under edge insertion/deletion, freezing back to an
//!    artifact bit-identical to a from-scratch rebuild.
//! 9. [`psi`] — the unified facade: [`psi::Psi`] wraps planarity gating, index
//!    construction, queries, mutation, and (de)serialisation behind one builder
//!    and one [`psi::PsiError`] type.
//! 10. [`snapshot`] — the one read path: frozen, live, and pinned queries share
//!     one epoch-state implementation, and [`snapshot::PsiSnapshot`] pins an
//!     immutable, `Send + Sync` view of the engine (O(rounds) `Arc` bumps) that
//!     reader threads query while the writer keeps mutating — answers
//!     bit-identical to a frozen build of the graph at that epoch.
//!
//! ## Quick start
//!
//! ```
//! use planar_subiso::{Pattern, Psi};
//!
//! // Open a live engine over a triangulated grid, query it, mutate it.
//! let target = psi_graph::generators::triangulated_grid(16, 16);
//! let mut psi = Psi::builder().k(4).open(&target)?;
//! let occurrence = psi.find_one(&Pattern::cycle(4))?.expect("grids are full of 4-cycles");
//! assert!(planar_subiso::verify_occurrence(&Pattern::cycle(4), &target, &occurrence));
//! psi.delete_edge(occurrence[0], occurrence[1])?; // incremental, no rebuild
//! # Ok::<(), planar_subiso::PsiError>(())
//! ```

pub mod arena;
#[cfg(test)]
mod auto;
pub mod connectivity;
pub mod cover;
pub mod disconnected;
pub mod dp;
pub mod dp_parallel;
pub mod dynamic;
pub mod index;
pub mod isomorphism;
pub mod listing;
pub(crate) mod obs;
pub mod pattern;
pub mod psi;
pub mod separating;
pub mod snapshot;
pub mod state;

pub use arena::{ArenaStats, StateArena, StateId};
pub use connectivity::{
    separating_cycle_connectivity, st_connectivity_capped, vertex_connectivity,
    vertex_connectivity_with_fv, ConnectivityMode, ConnectivityResult,
};
pub use cover::{
    batch_budget_for, map_cover_batches, search_cover, search_separating_cover, CoverBatch,
    CoverStats, SeparatingCoverPiece, DEFAULT_BATCH_BUDGET,
};
pub use dp::{run_sequential, run_sequential_subtree, DpResult, NodeTable};
pub use dp_parallel::{run_parallel, ParallelDpConfig, ParallelDpStats};
pub use dynamic::{DecompCacheMetrics, DynamicPsiIndex, MutationError, UpdateStats};
pub use index::{
    FlatDecomposition, IndexLoadError, IndexParams, IndexedBatch, PsiIndex, QueryError,
    StoredRound, CONNECTIVITY_CAP, FAST_PATH_NODE_BUDGET, INDEX_SCHEMA_VERSION,
    MIN_INDEX_SCHEMA_VERSION,
};
pub use isomorphism::{decide, find_one, DpStrategy, QueryConfig, SubgraphIsomorphism};
pub use listing::{count_distinct_images, list_all, list_all_outcome, ListingOutcome};
pub use pattern::{verify_occurrence, Pattern};
pub use psi::{Psi, PsiBuilder, PsiError};
pub use separating::{
    find_separating_occurrence, find_separating_occurrence_in,
    find_separating_occurrence_with_config, find_separating_occurrence_with_stats, is_separating,
    SepConfig, SepStats, SeparatingInstance,
};
pub use snapshot::PsiSnapshot;
pub use state::MatchState;
