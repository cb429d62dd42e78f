//! Planar vertex connectivity (Section 5, Lemma 5.2).
//!
//! The connectivity of an embedded planar graph `G` is decided through Nishizeki's
//! observation (Lemma 5.1): if `G` is 2-connected and the shortest cycle of the
//! face–vertex bipartite graph `G'` that separates the original vertices has length
//! `2c`, then the vertex connectivity of `G` is exactly `c`. Planar graphs have
//! connectivity at most 5 (Euler's formula), so it suffices to
//!
//! 1. handle disconnected graphs (`c = 0`) and graphs with articulation points
//!    (`c = 1`) with the classical substrate algorithms,
//! 2. search `G'` for S-separating cycles of length 4, 6 and 8 (deciding `c = 2, 3, 4`),
//! 3. answer 5 when none exists.
//!
//! The separating-cycle searches use the S-separating subgraph isomorphism machinery,
//! either on the whole face–vertex graph (exact, fine for bounded-treewidth `G'`) or
//! through the randomised separating k-d cover (near-linear work, correct with high
//! probability after `O(log n)` repetitions).

use crate::cover::{search_separating_cover, LAYERED_ATTEMPT_WIDTH};
use crate::pattern::Pattern;
use crate::separating::{
    find_separating_occurrence_in, find_separating_occurrence_with_stats, SepConfig, SepStats,
    SeparatingInstance,
};
use psi_graph::{CsrGraph, Vertex, INVALID_VERTEX};
use psi_planar::{face_vertex_graph, Embedding, FaceVertexGraph};
use psi_treedecomp::BinaryTreeDecomposition;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the separating-cycle searches are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectivityMode {
    /// Run the separating DP on the whole face–vertex graph (deterministic; intended for
    /// small and medium inputs and for cross-checking).
    WholeGraph,
    /// Use the randomised separating k-d cover with the given number of repetitions per
    /// cycle length (the paper's near-linear-work pipeline; Monte Carlo).
    Cover { repetitions: usize },
}

/// Result of a vertex-connectivity computation.
#[derive(Clone, Debug)]
pub struct ConnectivityResult {
    /// The vertex connectivity `c`.
    pub connectivity: usize,
    /// A witness vertex cut of size `c` (empty when `c` equals `n − 1` or 5-connectivity
    /// was concluded by exhaustion).
    pub cut: Vec<Vertex>,
    /// Total separating-DP states interned across every cycle search performed (the
    /// dominant cost of the pipeline; a regression canary for the state engine). In
    /// `Cover` mode the count covers the pieces searched before the first hit.
    pub states_explored: usize,
    /// Full state-engine accounting aggregated over the cycle searches: interning
    /// (arena hits/misses/bytes, peak table) and the state-space reduction counters
    /// (flips, dominated rows, orbit merges). In `Cover` mode only `sep_states` is
    /// populated (the per-piece searches report a bare state count).
    pub stats: SepStats,
}

/// Computes the vertex connectivity of an embedded planar graph.
pub fn vertex_connectivity(
    embedding: &Embedding,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    if let Some(early) = degenerate_connectivity(&embedding.graph) {
        return early;
    }
    // G is 2-connected from here on; Lemma 5.1 applies.
    let fv = face_vertex_graph(embedding);
    separating_cycle_connectivity(&embedding.graph, &fv, mode, seed)
}

/// [`vertex_connectivity`] against a **prebuilt** face–vertex graph.
///
/// The face–vertex construction is pure preprocessing — it depends only on the
/// embedding, not on the query — so the index read path ([`crate::snapshot`])
/// derives it once per served epoch and answers every connectivity query of
/// that epoch without re-deriving it. `fv` must be the face–vertex graph of an embedding of
/// `graph` (`fv.num_original == graph.num_vertices()`).
pub fn vertex_connectivity_with_fv(
    graph: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    assert_eq!(
        fv.num_original,
        graph.num_vertices(),
        "face–vertex graph does not belong to this target"
    );
    if let Some(early) = degenerate_connectivity(graph) {
        return early;
    }
    separating_cycle_connectivity(graph, fv, mode, seed)
}

/// Degenerate and tiny cases decided on the substrate (the definition requires at
/// least `c + 1` vertices): disconnected (`c = 0`), `K2`, and articulation points
/// (`c = 1`).
fn degenerate_connectivity(g: &CsrGraph) -> Option<ConnectivityResult> {
    let n = g.num_vertices();
    if n <= 1 || !psi_graph::is_connected(g) {
        return Some(ConnectivityResult {
            connectivity: 0,
            cut: Vec::new(),
            states_explored: 0,
            stats: SepStats::default(),
        });
    }
    if n == 2 {
        return Some(ConnectivityResult {
            connectivity: 1,
            cut: Vec::new(),
            states_explored: 0,
            stats: SepStats::default(),
        });
    }
    let aps = psi_graph::articulation_points(g);
    if let Some(&a) = aps.first() {
        return Some(ConnectivityResult {
            connectivity: 1,
            cut: vec![a],
            states_explored: 0,
            stats: SepStats::default(),
        });
    }
    None
}

/// The decomposition the whole-graph cycle searches share: min-degree, upgraded to
/// the guaranteed-width layered construction when the heuristic comes out wide and
/// the Baker/Eppstein bound beats it (the face–vertex graph is planar, so the
/// embedding step only fails on inputs the heuristic must serve anyway).
fn best_whole_graph_decomposition(g: &CsrGraph) -> BinaryTreeDecomposition {
    let mut td = psi_treedecomp::min_degree_decomposition(g);
    if td.width() > LAYERED_ATTEMPT_WIDTH {
        if let Ok(embedding) = psi_planar::planar_embedding(g) {
            if let Some(layered) = psi_treedecomp::layered_decomposition_auto(g, &embedding.faces) {
                if layered.width() < td.width() {
                    td = layered;
                }
            }
        }
    }
    BinaryTreeDecomposition::from_decomposition(&td)
}

/// The separating-cycle loop of Lemma 5.1 on a 2-connected `g` with its face–vertex
/// graph.
fn separating_cycle_connectivity(
    g: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    let n = g.num_vertices();
    let n_prime = fv.graph.num_vertices();
    let in_s: Vec<bool> = (0..n_prime).map(|v| fv.is_original(v as Vertex)).collect();
    let allowed = vec![true; n_prime];

    // Complete graphs (K3, K4) have no separating cycle at all but connectivity n − 1.
    let mut states_explored = 0usize;
    let mut agg = SepStats::default();
    // The whole-graph searches all run on one decomposition of G' (the instance graph
    // is the same for every cycle length), computed lazily on first use.
    let mut shared_btd: Option<BinaryTreeDecomposition> = None;
    for c in 2..=4usize {
        if c >= n {
            break;
        }
        let cycle = Pattern::cycle(2 * c);
        let witness = match mode {
            ConnectivityMode::WholeGraph => {
                let inst = SeparatingInstance {
                    graph: &fv.graph,
                    in_s: &in_s,
                    allowed: &allowed,
                };
                let btd =
                    shared_btd.get_or_insert_with(|| best_whole_graph_decomposition(&fv.graph));
                let (occ, stats) =
                    find_separating_occurrence_in(&inst, &cycle, SepConfig::default(), btd);
                states_explored += stats.sep_states;
                agg.absorb(&stats);
                occ.map(|occ| fv.original_vertices_of(&occ))
            }
            ConnectivityMode::Cover { repetitions } => {
                let counter = AtomicUsize::new(0);
                let hit = search_with_cover(&fv.graph, &in_s, &cycle, repetitions, seed, &counter)
                    .map(|occ| fv.original_vertices_of(&occ));
                let piece_states = counter.into_inner();
                states_explored += piece_states;
                agg.sep_states += piece_states;
                hit
            }
        };
        if let Some(cut) = witness {
            debug_assert_eq!(cut.len(), c);
            // Lemma 5.1 guarantees the *connectivity* from the existence of the cycle;
            // the original vertices on the particular cycle found are usually a vertex
            // cut of G, but not always (e.g. a 4-cycle through two adjacent vertices of
            // a plain cycle graph isolates the face vertices of G' without cutting G).
            // Report the witness only when it verifies.
            let cut = if is_vertex_cut(g, &cut) {
                cut
            } else {
                Vec::new()
            };
            return ConnectivityResult {
                connectivity: c,
                cut,
                states_explored,
                stats: agg,
            };
        }
    }
    // No separating cycle of length <= 8: the graph is min(5, n - 1)-connected.
    ConnectivityResult {
        connectivity: 5.min(n - 1),
        cut: Vec::new(),
        states_explored,
        stats: agg,
    }
}

/// Runs the separating-cycle search through the randomised separating cover.
///
/// `states` accumulates the interned-state counts of every piece search that ran
/// (best-effort under `find_map_any` early exit: pieces still in flight when a witness
/// is found may or may not be counted).
fn search_with_cover(
    g_prime: &CsrGraph,
    in_s: &[bool],
    cycle: &Pattern,
    repetitions: usize,
    seed: u64,
    states: &AtomicUsize,
) -> Option<Vec<Vertex>> {
    let k = cycle.k();
    let d = cycle.diameter();
    for round in 0..repetitions.max(1) {
        let round_seed = seed
            .wrapping_add(round as u64)
            .wrapping_mul(0x9E3779B97F4A7C15);
        // Minors are searched as they are cut from their cluster — the round never
        // materialises the full piece list, and a hit stops every shard.
        let hit = search_separating_cover(g_prime, k, d, in_s, round_seed, k, |piece| {
            let inst = SeparatingInstance {
                graph: &piece.graph,
                in_s: &piece.in_s,
                allowed: &piece.allowed,
            };
            let (occ, stats) = find_separating_occurrence_with_stats(&inst, cycle);
            states.fetch_add(stats.sep_states, Ordering::Relaxed);
            occ.map(|occ| {
                occ.into_iter()
                    .map(|v| piece.original_of[v as usize])
                    .collect::<Vec<Vertex>>()
            })
        });
        if let Some(occ) = hit {
            debug_assert!(occ.iter().all(|&v| v != INVALID_VERTEX));
            return Some(occ);
        }
    }
    None
}

/// Maximum number of pairwise internally-vertex-disjoint `s`–`t` paths, capped at
/// `cap` — by Menger's theorem, for non-adjacent pairs this is the minimum `s`–`t`
/// vertex cut size. Planar callers pass `cap = 5` (Euler's formula bounds planar
/// connectivity by 5), making the cost `O(cap · (n + m))`: unit-capacity augmenting
/// paths on the vertex-split flow network, stopped at `cap`.
///
/// Adjacent pairs are fine: the direct edge counts as one (internally-vertex-
/// disjoint) path, so the result is still well-defined — it just no longer equals a
/// cut size, since no vertex cut separates adjacent vertices.
///
/// The function is read-only on `graph` (per-query scratch only), so batches of
/// pairs run concurrently against one shared target — the
/// [`crate::PsiSnapshot::connectivity_batch`] front end does exactly that.
pub fn st_connectivity_capped(graph: &CsrGraph, s: Vertex, t: Vertex, cap: usize) -> usize {
    let n = graph.num_vertices();
    assert!((s as usize) < n && (t as usize) < n, "s/t out of range");
    assert_ne!(s, t, "s and t must differ");
    if cap == 0 {
        return 0;
    }
    // Vertex-split network: node 2v = v_in, 2v + 1 = v_out; split arcs carry
    // capacity 1, edge arcs u_out → v_in capacity 1 (unit edge caps make the direct
    // s–t edge count once, matching path semantics). Flow goes s_out → t_in.
    let num_nodes = 2 * n;
    let arc_pairs = n + graph.num_edges() * 2;
    let mut to: Vec<u32> = Vec::with_capacity(arc_pairs * 2);
    let mut res_cap: Vec<u8> = Vec::with_capacity(arc_pairs * 2);
    let mut deg = vec![0u32; num_nodes];
    let push_arc =
        |to: &mut Vec<u32>, res_cap: &mut Vec<u8>, deg: &mut Vec<u32>, a: usize, b: usize| {
            // forward arc 2i, reverse arc 2i + 1
            to.push(b as u32);
            res_cap.push(1);
            to.push(a as u32);
            res_cap.push(0);
            deg[a] += 1;
            deg[b] += 1;
        };
    for v in 0..n {
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * v, 2 * v + 1);
    }
    for (u, v) in graph.edges() {
        let (u, v) = (u as usize, v as usize);
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * u + 1, 2 * v);
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * v + 1, 2 * u);
    }
    // CSR over arc ids (each arc id appears in its tail's list; reverse arcs too, so
    // residual traversal is uniform).
    let mut start = vec![0usize; num_nodes + 1];
    for v in 0..num_nodes {
        start[v + 1] = start[v] + deg[v] as usize;
    }
    let mut fill = start.clone();
    let mut arc_ids = vec![0u32; to.len()];
    for (arc, &head) in to.iter().enumerate() {
        // the tail of arc `arc` is the head of its partner `arc ^ 1`
        let tail = to[arc ^ 1] as usize;
        let _ = head;
        arc_ids[fill[tail]] = arc as u32;
        fill[tail] += 1;
    }

    let source = 2 * s as usize + 1;
    let sink = 2 * t as usize;
    let mut flow = 0usize;
    let mut parent_arc: Vec<u32> = vec![u32::MAX; num_nodes];
    let mut queue: Vec<u32> = Vec::with_capacity(num_nodes);
    while flow < cap {
        // BFS for an augmenting path in the residual network.
        parent_arc.iter_mut().for_each(|p| *p = u32::MAX);
        queue.clear();
        queue.push(source as u32);
        parent_arc[source] = u32::MAX - 1; // visited marker for the source
        let mut head = 0;
        let mut reached = false;
        'bfs: while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &arc in &arc_ids[start[v]..start[v + 1]] {
                let arc = arc as usize;
                if res_cap[arc] == 0 {
                    continue;
                }
                let w = to[arc] as usize;
                if parent_arc[w] != u32::MAX {
                    continue;
                }
                parent_arc[w] = arc as u32;
                if w == sink {
                    reached = true;
                    break 'bfs;
                }
                queue.push(w as u32);
            }
        }
        if !reached {
            break;
        }
        // Augment one unit along the parent chain.
        let mut v = sink;
        while v != source {
            let arc = parent_arc[v] as usize;
            res_cap[arc] -= 1;
            res_cap[arc ^ 1] += 1;
            v = to[arc ^ 1] as usize;
        }
        flow += 1;
    }
    flow
}

/// Whether removing `cut` disconnects the graph (used to verify witnesses).
pub fn is_vertex_cut(graph: &CsrGraph, cut: &[Vertex]) -> bool {
    let n = graph.num_vertices();
    if cut.len() >= n {
        return false;
    }
    let removed: std::collections::HashSet<Vertex> = cut.iter().copied().collect();
    let mask: Vec<bool> = (0..n as Vertex).map(|v| !removed.contains(&v)).collect();
    let comps = psi_graph::connectivity::connected_components_masked(graph, Some(&mask));
    comps.num_components >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_planar::generators as pg;

    fn conn(e: &Embedding) -> usize {
        vertex_connectivity(e, ConnectivityMode::WholeGraph, 1).connectivity
    }

    #[test]
    fn low_connectivity_cases() {
        // disconnected
        let two_triangles = psi_graph::generators::disjoint_union(&[
            &psi_graph::generators::cycle(3),
            &psi_graph::generators::cycle(3),
        ]);
        let walk: Vec<Vertex> = vec![0, 1, 2];
        let walk2: Vec<Vertex> = vec![3, 4, 5];
        let e = Embedding::new(
            two_triangles,
            vec![walk.clone(), walk, walk2.clone(), walk2],
        );
        assert_eq!(conn(&e), 0);

        // a path has an articulation point
        let p = psi_graph::generators::path(4);
        let e = Embedding::new(p, vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]]);
        assert_eq!(conn(&e), 1);

        // a single edge
        let p2 = psi_graph::generators::path(2);
        let e = Embedding::new(p2, vec![vec![0, 1], vec![1, 0]]);
        assert_eq!(conn(&e), 1);
    }

    #[test]
    fn cycle_is_two_connected() {
        let result = vertex_connectivity(&pg::cycle_embedded(8), ConnectivityMode::WholeGraph, 1);
        assert_eq!(result.connectivity, 2);
        // the witness is optional (see the note in `vertex_connectivity`), but when
        // reported it must be a genuine cut of the right size
        if !result.cut.is_empty() {
            assert_eq!(result.cut.len(), 2);
            assert!(is_vertex_cut(&pg::cycle_embedded(8).graph, &result.cut));
        }
    }

    #[test]
    fn wheel_is_three_connected() {
        let e = pg::wheel_embedded(8);
        let result = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
        assert_eq!(result.connectivity, 3);
        assert!(is_vertex_cut(&e.graph, &result.cut));
    }

    #[test]
    fn platonic_connectivities() {
        assert_eq!(conn(&pg::tetrahedron()), 3); // K4: n - 1
        assert_eq!(conn(&pg::cube()), 3);
        assert_eq!(conn(&pg::octahedron()), 4);
    }

    /// The 4-vs-5 distinction on the icosahedron exercises the most expensive search
    /// (no separating C4/C6/C8 exists); run with `cargo test -- --ignored`.
    #[test]
    #[ignore = "expensive separating-C8 search (minutes); run with --ignored"]
    fn icosahedron_is_five_connected() {
        assert_eq!(conn(&pg::icosahedron()), 5);
    }

    #[test]
    fn double_wheel_is_four_connected() {
        let e = pg::double_wheel(6);
        let result = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
        assert_eq!(result.connectivity, 4);
        assert!(is_vertex_cut(&e.graph, &result.cut));
    }

    #[test]
    fn grid_and_triangulated_grid() {
        // grid corners have degree 2 -> connectivity 2
        assert_eq!(conn(&pg::grid_embedded(4, 4)), 2);
        // triangulated grid corner (w-1, 0) has degree 2 as well
        assert_eq!(conn(&pg::triangulated_grid_embedded(4, 4)), 2);
    }

    #[test]
    fn stacked_triangulation_is_three_connected() {
        let e = pg::stacked_triangulation_embedded(18, 5);
        let result = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
        assert_eq!(result.connectivity, 3);
        assert!(is_vertex_cut(&e.graph, &result.cut));
    }

    #[test]
    fn st_connectivity_known_values() {
        // path: one internal path
        let p = psi_graph::generators::path(5);
        assert_eq!(st_connectivity_capped(&p, 0, 4, 5), 1);
        // cycle: two disjoint arcs
        let c = psi_graph::generators::cycle(6);
        assert_eq!(st_connectivity_capped(&c, 0, 3, 5), 2);
        // cap is honoured
        assert_eq!(st_connectivity_capped(&c, 0, 3, 1), 1);
        assert_eq!(st_connectivity_capped(&c, 0, 3, 0), 0);
        // K4 (adjacent pair): direct edge + two length-2 detours
        let k4 = psi_graph::generators::complete(4);
        assert_eq!(st_connectivity_capped(&k4, 0, 1, 5), 3);
        // octahedron: antipodal vertices are non-adjacent with 4 disjoint paths
        let oct = pg::octahedron().graph;
        let (s, t) = (
            0u32,
            (0..6u32).find(|&v| v != 0 && !oct.has_edge(0, v)).unwrap(),
        );
        assert_eq!(st_connectivity_capped(&oct, s, t, 5), 4);
        // disconnected pair
        let two = psi_graph::generators::disjoint_union(&[
            &psi_graph::generators::cycle(3),
            &psi_graph::generators::cycle(3),
        ]);
        assert_eq!(st_connectivity_capped(&two, 0, 3, 5), 0);
    }

    #[test]
    fn st_connectivity_matches_flow_baseline() {
        let g = psi_graph::generators::random_stacked_triangulation(60, 11);
        let n = g.num_vertices() as Vertex;
        let mut checked = 0;
        for s in 0..n {
            for t in (s + 1)..n {
                if g.has_edge(s, t) {
                    continue; // the baseline saturates adjacent pairs by convention
                }
                let ours = st_connectivity_capped(&g, s, t, 5);
                let baseline = psi_baselines::maxflow::local_vertex_connectivity(&g, s, t, 5);
                assert_eq!(ours, baseline, "pair ({s}, {t})");
                checked += 1;
                if checked >= 200 {
                    return;
                }
            }
        }
    }

    #[test]
    fn prebuilt_fv_matches_fresh_connectivity() {
        for e in [
            pg::wheel_embedded(8),
            pg::octahedron(),
            pg::grid_embedded(4, 4),
            pg::cycle_embedded(9),
            pg::stacked_triangulation_embedded(18, 5),
        ] {
            let fresh = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
            let fv = face_vertex_graph(&e);
            let reused =
                vertex_connectivity_with_fv(&e.graph, &fv, ConnectivityMode::WholeGraph, 1);
            assert_eq!(fresh.connectivity, reused.connectivity);
            assert_eq!(fresh.cut, reused.cut);
            assert_eq!(fresh.states_explored, reused.states_explored);
        }
    }

    #[test]
    fn cover_mode_agrees_with_whole_graph_mode() {
        for e in [pg::cycle_embedded(10), pg::wheel_embedded(7)] {
            let whole = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 3).connectivity;
            let cover = vertex_connectivity(&e, ConnectivityMode::Cover { repetitions: 12 }, 3)
                .connectivity;
            assert_eq!(whole, cover);
        }
    }
}
