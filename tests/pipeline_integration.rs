//! End-to-end integration tests of the subgraph-isomorphism pipeline across crates:
//! generators (psi-graph / psi-planar) → clustering (psi-cluster) → cover → tree
//! decomposition (psi-treedecomp) → DP → verified occurrences.

use planar_subiso::{
    batch_budget_for, decide, find_one, run_parallel, search_cover, verify_occurrence, DpStrategy,
    ParallelDpConfig, Pattern, QueryConfig, SubgraphIsomorphism,
};
use psi_graph::{generators, CsrGraph};

/// The default query runs the fast-path kernel; `Sequential` runs the paper's DP
/// on every batch. Both answer against the oracles.
const STRATEGIES: [DpStrategy; 2] = [DpStrategy::FastPath, DpStrategy::Sequential];

fn query(p: &Pattern, config: QueryConfig) -> SubgraphIsomorphism {
    SubgraphIsomorphism::with_config(p.clone(), config)
}

fn with_strategy(strategy: DpStrategy) -> QueryConfig {
    QueryConfig {
        strategy,
        ..QueryConfig::default()
    }
}

fn check_planted(k: usize, seed: u64, strategy: DpStrategy) {
    let (g, planted) = generators::grid_with_planted_cycle(12, 12, k);
    // sanity: the planted vertex set really carries a k-cycle
    for i in 0..k {
        assert!(g.has_edge(planted[i], planted[(i + 1) % k]));
    }
    let config = QueryConfig {
        seed,
        ..with_strategy(strategy)
    };
    let occ = query(&Pattern::cycle(k), config)
        .find_one(&g)
        .unwrap_or_else(|| panic!("planted C{k} not found ({strategy:?})"));
    assert!(verify_occurrence(&Pattern::cycle(k), &g, &occ));
}

#[test]
fn planted_patterns_are_found_and_verified() {
    for strategy in STRATEGIES {
        check_planted(4, 1, strategy);
        check_planted(6, 2, strategy);
    }
    check_planted(8, 3, DpStrategy::FastPath);
}

/// The paper's DP at k = 8 pays the `(τ+3)^k` factor in full on unlucky covers; run
/// with `cargo test -- --ignored`.
#[test]
#[ignore = "C8 partial-match DP can take minutes on a single core"]
fn planted_c8_is_found_and_verified() {
    check_planted(8, 3, DpStrategy::Sequential);
}

#[test]
fn pipeline_agrees_with_backtracking_oracle_on_random_planar_graphs() {
    let patterns = vec![
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::cycle(5),
        Pattern::path(5),
        Pattern::star(4),
        Pattern::clique(4),
        Pattern::clique(5),
    ];
    for seed in 0..3u64 {
        let g = generators::random_stacked_triangulation(50, seed);
        for p in &patterns {
            let expected = psi_baselines::ullmann_decide(p, &g);
            for strategy in STRATEGIES {
                let got = query(p, with_strategy(strategy)).decide(&g);
                assert_eq!(got, expected, "seed {seed}, k={}, {strategy:?}", p.k());
            }
        }
    }
}

#[test]
fn pipeline_agrees_with_eppstein_sequential_baseline() {
    let g = generators::triangulated_grid(10, 8);
    for p in [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::cycle(6),
        Pattern::path(6),
    ] {
        let expected = psi_baselines::eppstein_sequential_decide(&p, &g);
        for strategy in STRATEGIES {
            let got = query(&p, with_strategy(strategy)).decide(&g);
            assert_eq!(got, expected, "k={}, {strategy:?}", p.k());
        }
    }
}

/// Section 3.3's path-parallel DP on every batch of the default's number of
/// cover rounds: whether some batch holds `p`.
fn path_parallel_decide(p: &Pattern, g: &CsrGraph) -> bool {
    let (k, d) = (p.k(), p.diameter());
    let rounds = 4 * (g.num_vertices() as f64).log2().ceil() as u64 + 1;
    (0..rounds).any(|seed| {
        let (hit, _) = search_cover(g, k, d, seed, k, batch_budget_for(k), |batch| {
            let btd = batch.decomposition();
            let (run, _) = run_parallel(&batch.graph, p, &btd, ParallelDpConfig::default());
            run.found().then_some(())
        });
        hit.is_some()
    })
}

#[test]
fn strategies_and_modes_agree() {
    let g = generators::random_stacked_triangulation(60, 17);
    for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(5)] {
        let default = decide(&p, &g);
        let sequential = query(&p, with_strategy(DpStrategy::Sequential)).decide(&g);
        let whole = QueryConfig {
            whole_graph: true,
            ..QueryConfig::default()
        };
        let whole = query(&p, whole).decide(&g);
        assert_eq!(default, sequential);
        assert_eq!(default, whole);
        assert_eq!(default, path_parallel_decide(&p, &g));
    }
}

#[test]
fn bounded_genus_targets_are_supported() {
    // The cover + heuristic decomposition pipeline never requires planarity; a torus
    // grid (genus 1, apex-minor-free) works end to end (Section 4.3).
    let g = generators::torus_grid(10, 10);
    assert!(decide(&Pattern::cycle(4), &g));
    assert!(!decide(&Pattern::triangle(), &g));
    let occ = find_one(&Pattern::path(6), &g).expect("P6 in torus grid");
    assert!(verify_occurrence(&Pattern::path(6), &g, &occ));
}

#[test]
fn disconnected_patterns_end_to_end() {
    let g = generators::triangulated_grid(8, 8);
    let two_triangles = Pattern::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let occ = find_one(&two_triangles, &g).expect("two disjoint triangles exist");
    assert!(verify_occurrence(&two_triangles, &g, &occ));

    // impossible: a triangle component on a triangle-free target
    let grid = generators::grid(6, 6);
    let tri_plus_edge = Pattern::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
    assert!(!decide(&tri_plus_edge, &grid));
}

#[test]
fn empty_and_degenerate_inputs() {
    let empty = psi_graph::CsrGraph::empty(0);
    assert!(decide(&Pattern::empty(), &empty));
    assert!(!decide(&Pattern::single_vertex(), &empty));

    let isolated = psi_graph::CsrGraph::empty(5);
    assert!(decide(&Pattern::single_vertex(), &isolated));
    assert!(!decide(&Pattern::path(2), &isolated));
}
