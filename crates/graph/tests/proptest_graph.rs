//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use psi_graph::{
    bfs, biconnected_components, connected_components, contract_groups, induced_subgraph,
    parallel_bfs, parallel_connected_components, GraphBuilder, Vertex,
};

/// Strategy producing a random simple graph as (n, edge list).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(Vertex, Vertex)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter_map("no self loop", |(a, b)| {
            (a != b).then(|| (a.min(b), a.max(b)))
        });
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrip_preserves_edges((n, edges) in arb_graph(40, 120)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let mut expected: Vec<(Vertex, Vertex)> = edges.clone();
        expected.sort_unstable();
        expected.dedup();
        let mut got: Vec<(Vertex, Vertex)> = g.edges().collect();
        got.sort_unstable();
        prop_assert_eq!(expected, got);
        // symmetry of adjacency
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
        }
    }

    #[test]
    fn bfs_parallel_equals_sequential((n, edges) in arb_graph(40, 150)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let s = bfs(&g, 0);
        let p = parallel_bfs(&g, 0, None);
        prop_assert_eq!(s.dist, p.dist);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality_on_edges((n, edges) in arb_graph(30, 90)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let t = bfs(&g, 0);
        for (u, v) in g.edges() {
            let (du, dv) = (t.dist[u as usize], t.dist[v as usize]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // either both reachable or both unreachable across an edge
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn components_sequential_equals_parallel((n, edges) in arb_graph(35, 100)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let s = connected_components(&g);
        let p = parallel_connected_components(&g);
        prop_assert_eq!(s.num_components, p.num_components);
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(s.label[u] == s.label[v], p.label[u] == p.label[v]);
            }
        }
    }

    #[test]
    fn articulation_points_really_disconnect((n, edges) in arb_graph(20, 45)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let before = connected_components(&g).num_components;
        let bc = biconnected_components(&g);
        for &a in &bc.articulation_points {
            // removing an articulation point increases the number of components
            // (among the remaining vertices).
            let mask: Vec<bool> = (0..n as u32).map(|v| v != a).collect();
            let after =
                psi_graph::connectivity::connected_components_masked(&g, Some(&mask)).num_components;
            prop_assert!(after > before.saturating_sub(1), "articulation {a} did not disconnect");
        }
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_internal_edges((n, edges) in arb_graph(30, 90), selector in proptest::collection::vec(any::<bool>(), 30)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let verts: Vec<Vertex> = (0..n as u32).filter(|&v| selector[v as usize % selector.len()]).collect();
        let sub = induced_subgraph(&g, &verts);
        // every subgraph edge corresponds to an original edge
        for (a, b) in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.to_global(a), sub.to_global(b)));
        }
        // every original edge with both endpoints selected appears
        let in_sub: std::collections::HashSet<Vertex> = verts.iter().copied().collect();
        let expected = g
            .edges()
            .filter(|(u, v)| in_sub.contains(u) && in_sub.contains(v))
            .count();
        prop_assert_eq!(sub.graph.num_edges(), expected);
    }

    #[test]
    fn contraction_never_creates_loops_or_grows((n, edges) in arb_graph(30, 90), groups in proptest::collection::vec(proptest::option::of(0u32..5), 30)) {
        let g = GraphBuilder::from_edges(n, &edges);
        let group_of: Vec<Option<u32>> = (0..n).map(|v| groups[v % groups.len()]).collect();
        let c = contract_groups(&g, &group_of);
        prop_assert!(c.graph.num_vertices() <= n);
        prop_assert!(c.graph.num_edges() <= g.num_edges());
        for (u, v) in c.graph.edges() {
            prop_assert!(u != v);
        }
        // adjacency is preserved under the map: every original edge either collapses or maps to an edge
        for (u, v) in g.edges() {
            let (nu, nv) = (c.vertex_map[u as usize], c.vertex_map[v as usize]);
            if nu != nv {
                prop_assert!(c.graph.has_edge(nu, nv));
            }
        }
    }
}
