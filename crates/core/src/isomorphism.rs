//! Top-level planar subgraph isomorphism API (Theorem 2.1 / Corollary 2.2).
//!
//! A query combines the k-d cover (Section 2.1) with the bounded-treewidth DP
//! (Section 3): every cover run catches any fixed occurrence with probability at least
//! 1/2, so `O(log n)` independent runs decide the problem with high probability. Cover
//! pieces are solved in parallel (and, optionally, each piece's DP itself uses the
//! path-parallel algorithm of Section 3.3).

use crate::cover::{batch_budget_for, search_cover};
use crate::dp::{recover_occurrences, run_sequential, run_sequential_subtree, DpResult};
use crate::dp_parallel::{run_parallel, ParallelDpConfig};
use crate::pattern::{verify_occurrence, Pattern};
use crate::state::words_is_complete;
use psi_graph::{CsrGraph, Vertex};
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};

/// Which DP engine runs inside each cover piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpStrategy {
    /// Sequential bottom-up DP per piece (pieces still run in parallel).
    Sequential,
    /// Path-parallel DP with shortcuts per piece (Section 3.3).
    PathParallel,
}

/// Options of a subgraph isomorphism query.
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Base random seed (each repetition derives its own seed from it).
    pub seed: u64,
    /// Number of independent cover repetitions before answering "no occurrence".
    /// `None` chooses `⌈4 log2 n⌉ + 1`, giving a high-probability guarantee.
    pub repetitions: Option<usize>,
    /// DP engine per cover piece.
    pub strategy: DpStrategy,
    /// Treat the whole graph as a single "cover piece" (skip clustering). Intended for
    /// small targets and for deterministic cross-checking in tests.
    pub whole_graph: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            seed: 0xC0FFEE,
            repetitions: None,
            strategy: DpStrategy::Sequential,
            whole_graph: false,
        }
    }
}

impl QueryConfig {
    fn rounds(&self, n: usize) -> usize {
        self.repetitions
            .unwrap_or_else(|| 4 * (n.max(2) as f64).log2().ceil() as usize + 1)
            .max(1)
    }
}

/// A subgraph isomorphism query for a fixed pattern.
#[derive(Clone, Debug)]
pub struct SubgraphIsomorphism {
    pattern: Pattern,
    config: QueryConfig,
}

impl SubgraphIsomorphism {
    /// Creates a query with default configuration.
    pub fn new(pattern: Pattern) -> Self {
        SubgraphIsomorphism {
            pattern,
            config: QueryConfig::default(),
        }
    }

    /// Creates a query with explicit configuration.
    pub fn with_config(pattern: Pattern, config: QueryConfig) -> Self {
        SubgraphIsomorphism { pattern, config }
    }

    /// The pattern being searched for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The active configuration.
    pub fn config(&self) -> &QueryConfig {
        &self.config
    }

    /// Decides (with high probability on the "no" side; "yes" answers are certain)
    /// whether the pattern occurs in `target`.
    pub fn decide(&self, target: &CsrGraph) -> bool {
        self.find_one(target).is_some() || self.pattern.k() == 0
    }

    /// Finds one occurrence (a mapping pattern vertex → target vertex), if any.
    ///
    /// Returned mappings are always verified genuine occurrences; a `None` answer is
    /// correct with high probability (Theorem 2.1).
    pub fn find_one(&self, target: &CsrGraph) -> Option<Vec<Vertex>> {
        let k = self.pattern.k();
        if k == 0 {
            return Some(Vec::new());
        }
        if k > target.num_vertices() {
            return None;
        }
        if !self.pattern.is_connected() {
            return crate::disconnected::find_one_disconnected(&self.pattern, target, &self.config);
        }
        if self.config.whole_graph {
            return self.search_piece(target, None);
        }
        let d = self.pattern.diameter();
        for round in 0..self.config.rounds(target.num_vertices()) {
            let seed = self
                .config
                .seed
                .wrapping_add(round as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            // Stream the cover: windows smaller than k are never constructed, small
            // windows arrive packed into disjoint-union batches (one DP over the
            // segment-chained decomposition per batch; solo windows for large k so
            // the piece-level early exit survives), and a hit in any shard stops the
            // whole round.
            let (hit, _stats) = search_cover(target, k, d, seed, k, batch_budget_for(k), |batch| {
                self.search_decomposed(
                    &batch.graph,
                    &batch.decomposition(),
                    Some(&batch.local_to_global),
                )
            });
            if let Some(occ) = hit {
                debug_assert!(verify_occurrence(&self.pattern, target, &occ));
                return Some(occ);
            }
        }
        None
    }

    /// Runs the DP on one piece; translates local vertex ids back through `map`.
    fn search_piece(&self, graph: &CsrGraph, map: Option<&[Vertex]>) -> Option<Vec<Vertex>> {
        let td = min_degree_decomposition(graph);
        let btd = BinaryTreeDecomposition::from_decomposition(&td);
        self.search_decomposed(graph, &btd, map)
    }

    /// Runs the DP over an explicit decomposition (cover batches bring their own
    /// segment-chained tree); translates local vertex ids back through `map`.
    fn search_decomposed(
        &self,
        graph: &CsrGraph,
        btd: &BinaryTreeDecomposition,
        map: Option<&[Vertex]>,
    ) -> Option<Vec<Vertex>> {
        let decision = batch_dp(self.config.strategy, &self.pattern, graph, btd)?;
        let occ = dp_witness(&decision, &self.pattern, graph, btd);
        Some(match map {
            Some(map) => occ.into_iter().map(|local| map[local as usize]).collect(),
            None => occ,
        })
    }

    /// Lists all occurrences with high probability (Section 4.2). See
    /// [`crate::listing::list_all`] for the iteration/termination details.
    pub fn list_all(&self, target: &CsrGraph) -> Vec<Vec<Vertex>> {
        crate::listing::list_all(&self.pattern, target, &self.config)
    }

    /// [`SubgraphIsomorphism::list_all`] with an explicit completeness verdict: when
    /// the listing loop hits its iteration safety cap before the coin-flip stopping
    /// rule concludes, [`crate::listing::ListingOutcome::complete`] is `false` instead
    /// of the truncation passing silently.
    pub fn list_all_outcome(&self, target: &CsrGraph) -> crate::listing::ListingOutcome {
        crate::listing::list_all_outcome(&self.pattern, target, &self.config)
    }

    /// Counts the occurrences (by listing them; the paper notes counting is not
    /// work-efficient with this approach).
    pub fn count(&self, target: &CsrGraph) -> usize {
        self.list_all(target).len()
    }
}

/// The decision DP over one piece or batch, under one `dp.batch` span: the
/// chosen engine runs without derivation tracking (tracking disables the
/// lifted-side dedup, which is exponentially more expensive on no-instance
/// windows). Returns the run when a complete match exists, for [`dp_witness`]
/// to recover an occurrence from. Shared by [`SubgraphIsomorphism`] and the
/// index read path ([`crate::snapshot`]).
pub(crate) fn batch_dp(
    strategy: DpStrategy,
    pattern: &Pattern,
    graph: &CsrGraph,
    btd: &BinaryTreeDecomposition,
) -> Option<DpResult> {
    let mut span = psi_obs::span!(
        "dp.batch",
        n = graph.num_vertices(),
        k = pattern.k(),
        nodes = btd.num_nodes(),
    );
    let decision = match strategy {
        DpStrategy::PathParallel => {
            run_parallel(graph, pattern, btd, ParallelDpConfig::default()).0
        }
        DpStrategy::Sequential => run_sequential(graph, pattern, btd, false),
    };
    if span.is_recording() {
        let arena = decision.arena_stats();
        span.field("total_states", decision.total_states as u64);
        span.field("arena_states", arena.states_interned as u64);
        span.field("arena_hits", arena.hits);
        span.field("arena_misses", arena.misses);
    }
    decision.found().then_some(decision)
}

/// One occurrence, in `graph`'s vertex ids, from a run [`batch_dp`] returned.
/// Both engines produce identical tables, so the first (deepest, in postorder)
/// node holding a complete state is located and only that node's subtree is
/// re-derived with tracking — not the whole piece or batch.
pub(crate) fn dp_witness(
    decision: &DpResult,
    pattern: &Pattern,
    graph: &CsrGraph,
    btd: &BinaryTreeDecomposition,
) -> Vec<Vertex> {
    let node = btd
        .postorder()
        .into_iter()
        .find(|&v| decision.tables[v].iter().any(words_is_complete))
        .expect("a found run holds a complete state at some node");
    let found = run_sequential_subtree(graph, pattern, btd, node);
    recover_occurrences(&found, btd, 1)
        .into_iter()
        .next()
        .expect("a complete state derives an occurrence")
}

/// Convenience wrapper: decide with default configuration.
pub fn decide(pattern: &Pattern, target: &CsrGraph) -> bool {
    SubgraphIsomorphism::new(pattern.clone()).decide(target)
}

/// Convenience wrapper: find one occurrence with default configuration.
pub fn find_one(pattern: &Pattern, target: &CsrGraph) -> Option<Vec<Vertex>> {
    SubgraphIsomorphism::new(pattern.clone()).find_one(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generators;

    fn check_planted_cycle(k: usize) {
        let (g, _planted) = generators::grid_with_planted_cycle(10, 10, k);
        let query = SubgraphIsomorphism::new(Pattern::cycle(k));
        let occ = query
            .find_one(&g)
            .unwrap_or_else(|| panic!("C{k} not found"));
        assert!(verify_occurrence(&Pattern::cycle(k), &g, &occ));
    }

    #[test]
    fn finds_planted_cycles_in_grids() {
        check_planted_cycle(4);
        check_planted_cycle(6);
    }

    /// The k = 8 case pays the paper's `(τ+3)^k` DP factor in full on unlucky covers;
    /// exercised by CI's nightly `--ignored` job. With the interned state engine and
    /// the join-candidate index the pinned-seed run completes in well under a second
    /// (seed baseline: 0.10 s; it was only ever slow on adversarial covers).
    #[test]
    #[ignore = "exercised nightly: worst-case covers pay the full (τ+3)^k DP factor"]
    fn finds_planted_c8_in_grids() {
        check_planted_cycle(8);
    }

    #[test]
    fn rejects_absent_patterns() {
        let g = generators::grid(12, 12);
        // grids are bipartite and triangle-free
        assert!(!decide(&Pattern::triangle(), &g));
        assert!(!decide(&Pattern::cycle(5), &g));
        assert!(!decide(&Pattern::star(6), &g));
        assert!(!decide(&Pattern::clique(4), &g));
    }

    #[test]
    fn whole_graph_mode_matches_cover_mode() {
        let g = generators::random_stacked_triangulation(80, 3);
        for pattern in [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::cycle(4),
            Pattern::clique(5),
        ] {
            let cover_ans = decide(&pattern, &g);
            let whole = SubgraphIsomorphism::with_config(
                pattern.clone(),
                QueryConfig {
                    whole_graph: true,
                    ..QueryConfig::default()
                },
            )
            .decide(&g);
            assert_eq!(cover_ans, whole, "k={}", pattern.k());
        }
    }

    #[test]
    fn path_parallel_strategy_agrees() {
        let g = generators::triangulated_grid(10, 10);
        for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::path(5)] {
            let seq = decide(&pattern, &g);
            let par = SubgraphIsomorphism::with_config(
                pattern.clone(),
                QueryConfig {
                    strategy: DpStrategy::PathParallel,
                    ..QueryConfig::default()
                },
            )
            .decide(&g);
            assert_eq!(seq, par);
        }
    }

    #[test]
    fn trivial_patterns() {
        let g = generators::path(5);
        assert!(decide(&Pattern::empty(), &g));
        assert!(decide(&Pattern::single_vertex(), &g));
        assert!(decide(&Pattern::path(2), &g));
        assert!(!decide(&Pattern::path(6), &g));
        // pattern larger than the target
        assert!(!decide(&Pattern::clique(7), &g));
    }

    #[test]
    fn found_mappings_are_verified_occurrences() {
        let g = generators::random_stacked_triangulation(150, 9);
        for pattern in [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::star(4),
            Pattern::path(6),
        ] {
            if let Some(occ) = find_one(&pattern, &g) {
                assert!(verify_occurrence(&pattern, &g, &occ));
            }
        }
    }

    #[test]
    fn octahedron_contains_wheel_pattern() {
        // every octahedron vertex together with its 4 neighbours induces a wheel W5
        let g = psi_planar::generators::octahedron().graph;
        let pattern = Pattern::new(generators::wheel(5));
        let occ = find_one(&pattern, &g).expect("W5 occurs in the octahedron");
        assert!(verify_occurrence(&pattern, &g, &occ));
    }
}
