//! Regression coverage for the interned DP state engine on the separating DP's
//! adversarial path: *no-instance* searches cannot early-exit, so they materialise the
//! full state space of every node — exactly the workload that made the C6/C8
//! connectivity searches take minutes before states were arena-interned.
//!
//! Interned-state counts are deterministic per instance and independent of the thread
//! count, so the pinned cases below hold each count to 1.5× the value measured when it
//! was pinned (slack for re-shaping a case, not for a lost pruning lever), and require
//! the separating DP's pruning counters to keep firing. The slowest four run nightly
//! through `--ignored`.

use planar_subiso::{
    find_separating_occurrence_with_stats, run_parallel, separating_cycle_connectivity,
    ConnectivityMode, ParallelDpConfig, Pattern, SepStats, SeparatingInstance,
};
use psi_graph::{generators, Vertex};
use psi_planar::generators as pg;
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};
use std::time::Instant;

/// Fails when `states` is zero or exceeds 1.5× `pinned`, the count measured when
/// the case was pinned.
fn assert_states_within(case: &str, states: usize, pinned: usize) {
    println!("{case}: {states} interned states (pinned {pinned})");
    assert!(states > 0, "{case}: no interned states accounted");
    assert!(
        2 * states <= 3 * pinned,
        "{case}: {states} interned states, more than 1.5x the pinned {pinned}"
    );
}

/// Flip canonicalisation, flag dominance and orbit interning together must still
/// prune something on a case where they did when it was pinned.
fn assert_pruning_fires(case: &str, stats: &SepStats) {
    let pruned = stats.flips_canonicalised + stats.dominated_dropped + stats.orbit_merges;
    assert!(pruned > 0, "{case}: pruning counters collapsed to zero");
}

/// A separating-cycle search, checked against its pinned state count; returns the
/// occurrence found and the search's statistics.
fn check_separating(
    case: &str,
    inst: &SeparatingInstance<'_>,
    cycle: usize,
    pinned: usize,
) -> (Option<Vec<Vertex>>, SepStats) {
    let (occ, stats) = find_separating_occurrence_with_stats(inst, &Pattern::cycle(cycle));
    assert_states_within(case, stats.sep_states, pinned);
    assert_pruning_fires(case, &stats);
    (occ, stats)
}

/// The paper's whole-graph separating-cycle loop (the DP for every cut size, as
/// `vertex_connectivity` runs it only on its fallback), checked against its pinned
/// state count; returns the connectivity.
fn check_connectivity(case: &str, e: &psi_planar::Embedding, pinned: usize) -> usize {
    let fv = psi_planar::face_vertex_graph(e);
    let result = separating_cycle_connectivity(&e.graph, &fv, ConnectivityMode::WholeGraph, 1);
    assert!(result.dp_ran && result.candidates == 0);
    assert_states_within(case, result.states_explored, pinned);
    assert_pruning_fires(case, &result.stats);
    result.connectivity
}

/// The plain parallel DP's decision tables on a triangulated grid (no pruning
/// levers apply), checked against the pinned table-state total.
fn check_parallel_dp(case: &str, side: usize, pattern: Pattern, pinned: usize) {
    let g = generators::triangulated_grid(side, side);
    let btd = BinaryTreeDecomposition::from_decomposition(&min_degree_decomposition(&g));
    let (result, _) = run_parallel(&g, &pattern, &btd, ParallelDpConfig::default());
    assert_states_within(case, result.total_states, pinned);
}

/// The separating C8 search on a 4×4 grid with every vertex in S.
#[test]
fn sep_c8_grid4_stays_within_pinned_states() {
    let g = generators::grid(4, 4);
    let n = g.num_vertices();
    let in_s = vec![true; n];
    let allowed = vec![true; n];
    let inst = SeparatingInstance {
        graph: &g,
        in_s: &in_s,
        allowed: &allowed,
    };
    check_separating("sep_c8_grid4", &inst, 8, 10_909);
}

/// The 5-connected icosahedron: three exhaustive searches, the worst case of
/// Section 5.2.
#[test]
#[ignore = "~3 s release; run nightly via --ignored"]
fn icosahedron_connectivity_stays_within_pinned_states() {
    assert_eq!(
        check_connectivity("conn_icosahedron", &pg::icosahedron(), 305_065),
        5
    );
}

/// A 3-connected stacked triangulation whose verdict comes from the C6 search
/// (one exhaustive C4 pass, then a C6 witness).
#[test]
#[ignore = "~2 s release; run nightly via --ignored"]
fn stacked64_connectivity_stays_within_pinned_states() {
    let e = pg::stacked_triangulation_embedded(64, 3);
    assert_eq!(check_connectivity("conn_stacked64_c6", &e, 123_120), 3);
}

#[test]
#[ignore = "~2 s release; run nightly via --ignored"]
fn parallel_dp_c4_grid24_stays_within_pinned_states() {
    check_parallel_dp("dp_parallel_c4_grid24", 24, Pattern::cycle(4), 669_473);
}

#[test]
#[ignore = "~10 s release; run nightly via --ignored"]
fn parallel_dp_c6_grid12_stays_within_pinned_states() {
    check_parallel_dp("dp_parallel_c6_grid12", 12, Pattern::cycle(6), 137_970);
}

/// The adversarial C6 no-instance search on 5×5 and 6×6 triangulated grids: S is a
/// pair of adjacent vertices, so no occurrence can ever separate it (the surviving
/// S-edge keeps S connected) and the DP must exhaust every table.
#[test]
fn adversarial_c6_no_instance_search_stays_bounded() {
    for (side, pinned) in [(5, 28_618), (6, 135_240)] {
        let g = generators::triangulated_grid(side, side);
        let n = g.num_vertices();
        let mut in_s = vec![false; n];
        in_s[0] = true;
        in_s[1] = true;
        let allowed = vec![true; n];
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &allowed,
        };
        let case = format!("sep_c6_adversarial_g{side}");
        let start = Instant::now();
        let (occ, stats) = check_separating(&case, &inst, 6, pinned);
        println!(
            "{case}: {:?}, base_states={}, peak_node={}, bytes={}, hits={}, misses={}",
            start.elapsed(),
            stats.base_states,
            stats.peak_node_states,
            stats.arena.bytes,
            stats.arena.hits,
            stats.arena.misses
        );
        assert!(
            occ.is_none(),
            "{case}: adjacent S pair can never be separated"
        );
        // The shared base arena is the point of the engine: distinct match-states
        // must be far fewer than separating states (each sep state references one
        // base).
        assert!(
            stats.base_states > 0 && stats.base_states * 2 < stats.sep_states,
            "{case}: base interning is not sharing: {} base vs {} sep states",
            stats.base_states,
            stats.sep_states
        );
    }
}

/// The octahedron's connectivity computation exercises two full no-instance searches
/// (C4 and C6) before the separating C8 is found; the per-search state accounting must
/// surface through the public result and stay within the pinned count.
#[test]
fn octahedron_connectivity_reports_state_accounting() {
    let start = Instant::now();
    let connectivity = check_connectivity("conn_octahedron", &pg::octahedron(), 20_151);
    println!("octahedron connectivity: {:?}", start.elapsed());
    assert_eq!(connectivity, 4);
}
