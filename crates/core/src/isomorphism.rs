//! Top-level planar subgraph isomorphism API (Theorem 2.1 / Corollary 2.2).
//!
//! A query combines the k-d cover (Section 2.1) with the bounded-treewidth DP
//! (Section 3): every cover run catches any fixed occurrence with probability at least
//! 1/2, so `O(log n)` independent runs decide the problem with high probability. Cover
//! batches are decided in parallel, each by the kernel the index read path shares
//! (`search_batch`): an exhaustive backtracking search on a node budget, with the
//! sequential DP over the batch's decomposition when the search runs out.
//! [`DpStrategy::Sequential`] runs the paper's DP on every batch instead.

use crate::cover::{batch_budget_for, round_seed, search_cover, DEFAULT_SEED};
use crate::dp::{recover_occurrences, run_sequential, run_sequential_subtree, DpResult};
use crate::index::{backtrack_step, MatchPlan, FAST_PATH_NODE_BUDGET};
use crate::pattern::{verify_occurrence, Pattern};
use crate::state::words_is_complete;
use psi_graph::{CsrGraph, Vertex};
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};

/// How each batch of a [`SubgraphIsomorphism`] query is decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpStrategy {
    /// The index's kernel: an exhaustive backtracking search, exact whenever it
    /// completes under [`FAST_PATH_NODE_BUDGET`] nodes, with the sequential DP
    /// only on the batches where it runs out.
    FastPath,
    /// The paper's bounded-treewidth DP (Section 3.2) on every batch: the same
    /// kernel with a zero node budget. The experiments time this strategy.
    Sequential,
}

/// Options of a subgraph isomorphism query.
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Base random seed (each repetition derives its own seed from it).
    pub seed: u64,
    /// Number of independent cover repetitions before answering "no occurrence".
    /// `None` chooses `⌈4 log2 n⌉ + 1`, giving a high-probability guarantee.
    pub repetitions: Option<usize>,
    /// How each cover batch is decided (default [`DpStrategy::FastPath`]).
    pub strategy: DpStrategy,
    /// Treat the whole graph as a single "cover piece" (skip clustering). Intended for
    /// small targets and for deterministic cross-checking in tests.
    pub whole_graph: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            seed: DEFAULT_SEED,
            repetitions: None,
            strategy: DpStrategy::FastPath,
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
        self.find_one(target).is_some()
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
        let plan = MatchPlan::new(&self.pattern);
        let budget = match self.config.strategy {
            DpStrategy::FastPath => FAST_PATH_NODE_BUDGET,
            DpStrategy::Sequential => 0,
        };
        if self.config.whole_graph {
            let td =
                || BinaryTreeDecomposition::from_decomposition(&min_degree_decomposition(target));
            let hit = search_batch(&plan, &self.pattern, target, budget, &mut Vec::new(), td)?;
            return Some(hit.occurrence(&plan, &self.pattern, target));
        }
        let d = self.pattern.diameter();
        for round in 0..self.config.rounds(target.num_vertices()) {
            let seed = round_seed(self.config.seed, round as u64);
            // Stream the cover: windows smaller than k are never constructed, small
            // windows arrive packed into disjoint-union batches (one decomposition
            // per batch, segment-chained, built only if the kernel's DP runs; solo
            // windows for large k so the piece-level early exit survives), and a hit
            // in any shard stops the whole round.
            let (hit, _stats) = search_cover(target, k, d, seed, k, batch_budget_for(k), |batch| {
                let (graph, td) = (&batch.graph, || batch.decomposition());
                let hit = search_batch(&plan, &self.pattern, graph, budget, &mut Vec::new(), td)?;
                let occ = hit.occurrence(&plan, &self.pattern, graph).into_iter();
                let map = &batch.local_to_global;
                Some(occ.map(|v| map[v as usize]).collect::<Vec<_>>())
            });
            if let Some(occ) = hit {
                debug_assert!(verify_occurrence(&self.pattern, target, &occ));
                return Some(occ);
            }
        }
        None
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

/// A batch the pattern occurs in, as [`search_batch`] found it.
pub(crate) enum BatchHit {
    /// The fast path's full assignment, by plan position.
    Fast(Vec<Vertex>),
    /// The batch DP's run over the decomposition it ran on.
    Dp(BinaryTreeDecomposition, DpResult),
}

impl BatchHit {
    /// The hit's occurrence in the batch graph's vertex ids: the fast path's
    /// assignment reordered by pattern vertex, or one recovered from the DP run,
    /// where the first (deepest, in postorder) node holding a complete state is
    /// located and only that node's subtree is re-derived with tracking.
    pub(crate) fn occurrence(
        self,
        plan: &MatchPlan,
        pattern: &Pattern,
        graph: &CsrGraph,
    ) -> Vec<Vertex> {
        let (btd, decision) = match self {
            BatchHit::Fast(assigned) => return plan.to_occurrence(&assigned),
            BatchHit::Dp(btd, decision) => (btd, decision),
        };
        let node = btd
            .postorder()
            .into_iter()
            .find(|&v| decision.tables[v].iter().any(words_is_complete))
            .expect("a found run holds a complete state at some node");
        let found = run_sequential_subtree(graph, pattern, &btd, node);
        recover_occurrences(&found, &btd, 1)
            .into_iter()
            .next()
            .expect("a complete state derives an occurrence")
    }
}

/// The per-batch decision of every query front end, classic and indexed: the
/// exhaustive backtracking search of `plan` in `graph` (exact whenever it
/// completes under `budget` nodes; `assigned` is its scratch), then, when it
/// runs out, [`decompose_and_run_dp`]. Batches are disjoint unions of windows
/// and a connected pattern cannot span components, so both halves decide the
/// same predicate.
pub(crate) fn search_batch(
    plan: &MatchPlan,
    pattern: &Pattern,
    graph: &CsrGraph,
    mut budget: usize,
    assigned: &mut Vec<Vertex>,
    decomposition: impl FnOnce() -> BinaryTreeDecomposition,
) -> Option<BatchHit> {
    assigned.clear();
    match backtrack_step(plan, graph, 0, assigned, &mut budget, &mut |_| true) {
        Ok(true) => Some(BatchHit::Fast(std::mem::take(assigned))),
        Ok(false) => None,
        Err(()) => decompose_and_run_dp(pattern, graph, decomposition),
    }
}

/// The batch kernel's DP half: derives `graph`'s decomposition under one
/// `dp.decompose` span, then runs [`batch_dp`] over it. [`search_batch`] calls
/// it on a budget miss; the index scan calls it directly on the stored batches
/// of a root that ran out of budget.
pub(crate) fn decompose_and_run_dp(
    pattern: &Pattern,
    graph: &CsrGraph,
    decomposition: impl FnOnce() -> BinaryTreeDecomposition,
) -> Option<BatchHit> {
    let btd = {
        let mut span = psi_obs::span!("dp.decompose", n = graph.num_vertices());
        let btd = decomposition();
        span.field("nodes", btd.num_nodes() as u64);
        btd
    };
    let decision = batch_dp(pattern, graph, &btd)?;
    Some(BatchHit::Dp(btd, decision))
}

/// The sequential decision DP over one batch, under one `dp.batch` span. It
/// runs without derivation tracking (tracking disables the lifted-side dedup,
/// which is exponentially more expensive on no-instance windows) and returns
/// the run when a complete match exists.
pub(crate) fn batch_dp(
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
    let decision = run_sequential(graph, pattern, btd, false);
    if span.is_recording() {
        let arena = decision.arena_stats();
        span.field("total_states", decision.total_states as u64);
        span.field("arena_states", arena.states_interned as u64);
        span.field("arena_hits", arena.hits);
        span.field("arena_misses", arena.misses);
    }
    decision.found().then_some(decision)
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
    use crate::dp_parallel::{run_parallel, ParallelDpConfig};
    use psi_graph::generators;

    /// A query of `pattern` under `strategy`, otherwise default.
    fn query(pattern: &Pattern, strategy: DpStrategy) -> SubgraphIsomorphism {
        let config = QueryConfig {
            strategy,
            ..QueryConfig::default()
        };
        SubgraphIsomorphism::with_config(pattern.clone(), config)
    }

    fn check_planted_cycle(k: usize, strategy: DpStrategy) {
        let (g, _planted) = generators::grid_with_planted_cycle(10, 10, k);
        let occ = query(&Pattern::cycle(k), strategy)
            .find_one(&g)
            .unwrap_or_else(|| panic!("C{k} not found ({strategy:?})"));
        assert!(verify_occurrence(&Pattern::cycle(k), &g, &occ));
    }

    #[test]
    fn finds_planted_cycles_in_grids() {
        for k in [4, 6] {
            check_planted_cycle(k, DpStrategy::FastPath);
            check_planted_cycle(k, DpStrategy::Sequential);
        }
        check_planted_cycle(8, DpStrategy::FastPath);
    }

    /// The paper's DP at k = 8 pays the `(τ+3)^k` factor in full on unlucky covers;
    /// exercised by CI's nightly `--ignored` job. With the interned state engine and
    /// the join-candidate index the pinned-seed run completes in well under a second
    /// (seed baseline: 0.10 s; it was only ever slow on adversarial covers).
    #[test]
    #[ignore = "exercised nightly: worst-case covers pay the full (τ+3)^k DP factor"]
    fn finds_planted_c8_in_grids() {
        check_planted_cycle(8, DpStrategy::Sequential);
    }

    #[test]
    fn rejects_absent_patterns() {
        let g = generators::grid(12, 12);
        // grids are bipartite and triangle-free
        let absent = [
            Pattern::triangle(),
            Pattern::cycle(5),
            Pattern::clique(4),
            Pattern::star(6),
        ];
        for p in &absent {
            assert!(!decide(p, &g), "{p:?}");
        }
        // star(6) is left out here: the DP takes minutes on it.
        for p in &absent[..3] {
            assert!(!query(p, DpStrategy::Sequential).decide(&g), "{p:?}");
        }
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
            for strategy in [DpStrategy::FastPath, DpStrategy::Sequential] {
                for whole_graph in [false, true] {
                    let config = QueryConfig {
                        strategy,
                        whole_graph,
                        ..QueryConfig::default()
                    };
                    let ans = SubgraphIsomorphism::with_config(pattern.clone(), config).decide(&g);
                    assert_eq!(
                        cover_ans,
                        ans,
                        "k={} {strategy:?} {whole_graph}",
                        pattern.k()
                    );
                }
            }
        }
    }

    /// Section 3.3's path-parallel DP on every batch of as many cover rounds
    /// gives the default's verdicts.
    #[test]
    fn path_parallel_strategy_agrees() {
        let g = generators::triangulated_grid(10, 10);
        for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::path(5)] {
            let (k, d) = (pattern.k(), pattern.diameter());
            let rounds = QueryConfig::default().rounds(g.num_vertices()) as u64;
            let par = (0..rounds).any(|seed| {
                let (hit, _) = search_cover(&g, k, d, seed, k, batch_budget_for(k), |batch| {
                    let btd = batch.decomposition();
                    let (run, _) =
                        run_parallel(&batch.graph, &pattern, &btd, ParallelDpConfig::default());
                    run.found().then_some(())
                });
                hit.is_some()
            });
            assert_eq!(decide(&pattern, &g), par);
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
