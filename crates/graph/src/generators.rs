//! Deterministic and random graph generators used throughout the workspace.
//!
//! The evaluation harness needs planar target graphs of controllable size and
//! structure (grids, triangulated grids, random triangulations), non-planar
//! bounded-genus graphs (torus grids), pattern graphs (paths, cycles, stars, small
//! cliques) and adversarial shapes for the tree/path-decomposition experiments
//! (caterpillars). Generators that need a planar *embedding* (rotation
//! system) live in `psi-planar`; the ones here return plain [`CsrGraph`]s.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, Vertex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Path graph `P_n` on `n` vertices (`n ≥ 1`).
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    b.build()
}

/// Cycle graph `C_n` on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        b.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    b.build()
}

/// Star `K_{1,n-1}`: vertex 0 adjacent to all others.
pub fn star(n: usize) -> CsrGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for i in 1..n {
        b.add_edge(0, i as Vertex);
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as Vertex, j as Vertex);
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}` (side `A` is `0..a`, side `B` is `a..a+b`).
/// `K_{3,3}` is the second Kuratowski obstruction, used by the planarity tests.
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    let mut builder = GraphBuilder::with_capacity(a + b, a * b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(i as Vertex, (a + j) as Vertex);
        }
    }
    builder.build()
}

/// Wheel graph: a cycle on `n-1` vertices plus a hub adjacent to all of them (`n ≥ 4`).
pub fn wheel(n: usize) -> CsrGraph {
    assert!(n >= 4);
    let rim = n - 1;
    let mut b = GraphBuilder::with_capacity(n, 2 * rim);
    for i in 0..rim {
        b.add_edge(i as Vertex, ((i + 1) % rim) as Vertex);
        b.add_edge(i as Vertex, rim as Vertex);
    }
    b.build()
}

/// `w × h` grid graph; vertex `(r, c)` has index `r * w + c`.
///
/// Assembled directly in CSR form (each vertex's sorted neighbour list is known in
/// closed form), so million-vertex instances skip the edge-list round trip of
/// [`GraphBuilder`] — the cover-pipeline experiments generate `n ≈ 10^6` targets.
pub fn grid(w: usize, h: usize) -> CsrGraph {
    grid_like(w, h, false)
}

/// `w × h` grid with one diagonal added per unit square (a planar triangulated grid,
/// the workhorse target-graph family for the experiments). Direct CSR assembly, see
/// [`grid`].
pub fn triangulated_grid(w: usize, h: usize) -> CsrGraph {
    grid_like(w, h, true)
}

/// Shared direct-CSR assembly of [`grid`] / [`triangulated_grid`]: emit each vertex's
/// neighbours in ascending index order (previous row, own row, next row).
fn grid_like(w: usize, h: usize, diagonals: bool) -> CsrGraph {
    assert!(w >= 1 && h >= 1);
    let n = w * h;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<Vertex> = Vec::with_capacity(if diagonals { 6 * n } else { 4 * n });
    offsets.push(0usize);
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    for r in 0..h {
        for c in 0..w {
            // previous row: the anti-diagonal (r-1, c-1) -> (r, c) exists because the
            // diagonal of a unit square points from its top-left to bottom-right corner
            if diagonals && r >= 1 && c >= 1 {
                neighbors.push(idx(r - 1, c - 1));
            }
            if r >= 1 {
                neighbors.push(idx(r - 1, c));
            }
            // own row
            if c >= 1 {
                neighbors.push(idx(r, c - 1));
            }
            if c + 1 < w {
                neighbors.push(idx(r, c + 1));
            }
            // next row
            if r + 1 < h {
                neighbors.push(idx(r + 1, c));
                if diagonals && c + 1 < w {
                    neighbors.push(idx(r + 1, c + 1));
                }
            }
            offsets.push(neighbors.len());
        }
    }
    CsrGraph::from_csr_parts(offsets, neighbors)
}

/// `w × h` grid wrapped around both dimensions (a genus-1, non-planar graph for
/// `w, h ≥ 3`; used by the bounded-genus generalisation experiments).
pub fn torus_grid(w: usize, h: usize) -> CsrGraph {
    assert!(w >= 3 && h >= 3);
    let n = w * h;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let idx = |r: usize, c: usize| ((r % h) * w + (c % w)) as Vertex;
    for r in 0..h {
        for c in 0..w {
            b.add_edge(idx(r, c), idx(r, c + 1));
            b.add_edge(idx(r, c), idx(r + 1, c));
        }
    }
    b.build_parallel()
}

/// Ladder graph: two paths of length `n` joined by rungs.
pub fn ladder(n: usize) -> CsrGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(2 * n, 3 * n);
    for i in 0..n {
        b.add_edge(i as Vertex, (i + n) as Vertex);
        if i + 1 < n {
            b.add_edge(i as Vertex, (i + 1) as Vertex);
            b.add_edge((i + n) as Vertex, (i + n + 1) as Vertex);
        }
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` vertices, each with `legs` pendant leaves.
/// Useful as an adversarial decomposition-tree shape for the path-layering experiments.
pub fn caterpillar(spine: usize, legs: usize) -> CsrGraph {
    assert!(spine >= 1);
    let n = spine + spine * legs;
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for i in 1..spine {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            b.add_edge(s as Vertex, next as Vertex);
            next += 1;
        }
    }
    b.build()
}

/// Uniform random labelled tree on `n` vertices via a random Prüfer-like attachment.
pub fn random_tree(n: usize, seed: u64) -> CsrGraph {
    assert!(n >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.add_edge(v as Vertex, parent as Vertex);
    }
    b.build()
}

/// Random maximal planar graph ("stacked triangulation" / Apollonian network) on
/// `n ≥ 3` vertices: start from a triangle and repeatedly insert a vertex inside a
/// uniformly random existing face, connecting it to the face's three corners.
///
/// The result is planar, 3-connected for `n ≥ 4`, and has exactly `3n - 6` edges
/// (hence maximal planar). The accompanying rotation system is produced by the
/// `psi-planar` generator of the same name; this plain version is enough for the
/// subgraph-isomorphism experiments that only need the abstract graph.
pub fn random_stacked_triangulation(n: usize, seed: u64) -> CsrGraph {
    assert!(n >= 3);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 3 * n);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    // Faces as vertex triples; the outer face is kept so insertion stays uniform over
    // all faces of the triangulation.
    let mut faces: Vec<[Vertex; 3]> = vec![[0, 1, 2], [0, 1, 2]];
    for v in 3..n {
        let f = rng.gen_range(0..faces.len());
        let [a, bq, c] = faces[f];
        let v = v as Vertex;
        b.add_edge(v, a);
        b.add_edge(v, bq);
        b.add_edge(v, c);
        faces[f] = [a, bq, v];
        faces.push([a, c, v]);
        faces.push([bq, c, v]);
    }
    b.build_parallel()
}

/// Erdős–Rényi `G(n, p)` graph (generally non-planar; used as negative-control input
/// and for the general-graph baselines).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(i as Vertex, j as Vertex);
            }
        }
    }
    b.build()
}

/// Disjoint union of the given graphs (vertex ids are shifted).
pub fn disjoint_union(parts: &[&CsrGraph]) -> CsrGraph {
    let n: usize = parts.iter().map(|g| g.num_vertices()).sum();
    let mut b = GraphBuilder::new(n);
    let mut offset: Vertex = 0;
    for g in parts {
        for (u, v) in g.edges() {
            b.add_edge(u + offset, v + offset);
        }
        offset += g.num_vertices() as Vertex;
    }
    b.build()
}

/// A planar graph with a planted pattern occurrence: takes a host triangulated grid and
/// returns it unchanged together with the vertex set of one specific occurrence of a
/// `k`-cycle embedded along grid cells (for cover-retention experiments).
pub fn grid_with_planted_cycle(w: usize, h: usize, k: usize) -> (CsrGraph, Vec<Vertex>) {
    assert!(k >= 3 && k <= 2 * (w + h) - 4, "cycle too large for grid");
    let g = triangulated_grid(w, h);
    // Walk a rectangle of perimeter >= k starting at (0,0); take the first k vertices of
    // a cycle along cell boundaries of a (a x b) sub-rectangle with 2(a+b-2) = k when
    // possible, otherwise plant a triangle fan cycle in the corner.
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    if k == 3 {
        return (g, vec![idx(0, 0), idx(0, 1), idx(1, 1)]);
    }
    // choose a = 2, b = k/2 for even k; odd k uses a diagonal to close.
    if k.is_multiple_of(2) {
        let b_len = k / 2;
        let mut cyc = Vec::with_capacity(k);
        for c in 0..b_len {
            cyc.push(idx(0, c));
        }
        for c in (0..b_len).rev() {
            cyc.push(idx(1, c));
        }
        (g, cyc)
    } else {
        let b_len = k.div_ceil(2);
        let mut cyc = Vec::with_capacity(k);
        for c in 0..b_len {
            cyc.push(idx(0, c));
        }
        for c in (1..b_len).rev() {
            cyc.push(idx(1, c));
        }
        (g, cyc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::exact_diameter;
    use crate::connectivity::is_connected;

    #[test]
    fn path_and_cycle_counts() {
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(cycle(10).num_edges(), 10);
        assert_eq!(star(7).num_edges(), 6);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(wheel(7).num_edges(), 12);
    }

    #[test]
    fn grid_structure() {
        let g = grid(4, 3);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 4 * 2 + 3 * 3); // 17
        assert!(is_connected(&g));
        assert_eq!(exact_diameter(&g), 3 + 2);
    }

    #[test]
    fn triangulated_grid_has_diagonals() {
        let g = triangulated_grid(3, 3);
        assert!(g.has_edge(0, 4));
        assert_eq!(g.num_edges(), 12 + 4);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus_grid(4, 4);
        assert_eq!(g.num_vertices(), 16);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn stacked_triangulation_is_maximal_planar() {
        for n in [3usize, 5, 10, 50, 200] {
            let g = random_stacked_triangulation(n, 42);
            assert_eq!(g.num_edges(), 3 * n - 6, "n={n}");
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn random_tree_is_a_tree() {
        let g = random_tree(100, 7);
        assert_eq!(g.num_edges(), 99);
        assert!(is_connected(&g));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 19);
        assert!(is_connected(&g));
    }

    #[test]
    fn disjoint_union_counts() {
        let a = cycle(4);
        let b = path(3);
        let u = disjoint_union(&[&a, &b]);
        assert_eq!(u.num_vertices(), 7);
        assert_eq!(u.num_edges(), 6);
        assert!(!is_connected(&u));
    }

    #[test]
    fn planted_cycle_is_a_cycle_in_the_grid() {
        for k in [3usize, 4, 6, 7, 8] {
            let (g, cyc) = grid_with_planted_cycle(8, 8, k);
            assert_eq!(cyc.len(), k);
            for i in 0..k {
                assert!(
                    g.has_edge(cyc[i], cyc[(i + 1) % k]),
                    "missing edge {} {} for k={k}",
                    cyc[i],
                    cyc[(i + 1) % k]
                );
            }
        }
    }

    #[test]
    fn direct_csr_grids_match_builder_reference() {
        for (w, h) in [(1usize, 1usize), (1, 7), (6, 1), (4, 3), (9, 11)] {
            for diagonals in [false, true] {
                let fast = grid_like(w, h, diagonals);
                let mut b = GraphBuilder::new(w * h);
                let idx = |r: usize, c: usize| (r * w + c) as Vertex;
                for r in 0..h {
                    for c in 0..w {
                        if c + 1 < w {
                            b.add_edge(idx(r, c), idx(r, c + 1));
                        }
                        if r + 1 < h {
                            b.add_edge(idx(r, c), idx(r + 1, c));
                        }
                        if diagonals && c + 1 < w && r + 1 < h {
                            b.add_edge(idx(r, c), idx(r + 1, c + 1));
                        }
                    }
                }
                assert_eq!(fast, b.build(), "w={w} h={h} diagonals={diagonals}");
            }
        }
    }

    #[test]
    fn erdos_renyi_bounds() {
        let g = erdos_renyi(50, 0.1, 3);
        assert!(g.num_edges() <= 50 * 49 / 2);
    }
}
