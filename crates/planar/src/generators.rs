//! Planar (and bounded-genus) generators that carry their embedding.
//!
//! Every generator returns an [`Embedding`] whose face list validates and whose genus is
//! what the name promises. These are the target-graph families of the experiment suite:
//! grids and triangulated grids (diameter `Θ(√n)` planar graphs), random stacked
//! triangulations (maximal planar graphs), cycles and wheels (low-connectivity
//! controls), platonic solids, double wheels and geodesic spheres (3-, 4- and
//! 5-connected controls for the vertex-connectivity experiments), and torus grids
//! (genus 1 inputs for the locally-bounded-treewidth generalisation).

use crate::embedding::Embedding;
use psi_graph::{GraphBuilder, Vertex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cycle `C_n` with its two faces.
pub fn cycle_embedded(n: usize) -> Embedding {
    assert!(n >= 3);
    let graph = psi_graph::generators::cycle(n);
    let walk: Vec<Vertex> = (0..n as Vertex).collect();
    Embedding::new(graph, vec![walk.clone(), walk])
}

/// `w × h` grid with its unit-square faces plus the outer face.
pub fn grid_embedded(w: usize, h: usize) -> Embedding {
    assert!(w >= 2 && h >= 2);
    let graph = psi_graph::generators::grid(w, h);
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    let mut faces = Vec::with_capacity((w - 1) * (h - 1) + 1);
    for r in 0..h - 1 {
        for c in 0..w - 1 {
            faces.push(vec![
                idx(r, c),
                idx(r, c + 1),
                idx(r + 1, c + 1),
                idx(r + 1, c),
            ]);
        }
    }
    faces.push(boundary_walk(w, h));
    Embedding::new(graph, faces)
}

/// `w × h` triangulated grid (one diagonal per cell) with its triangular faces plus the
/// outer face.
pub fn triangulated_grid_embedded(w: usize, h: usize) -> Embedding {
    assert!(w >= 2 && h >= 2);
    let graph = psi_graph::generators::triangulated_grid(w, h);
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    let mut faces = Vec::with_capacity(2 * (w - 1) * (h - 1) + 1);
    for r in 0..h - 1 {
        for c in 0..w - 1 {
            // diagonal (r,c)-(r+1,c+1) splits the cell into two triangles
            faces.push(vec![idx(r, c), idx(r, c + 1), idx(r + 1, c + 1)]);
            faces.push(vec![idx(r, c), idx(r + 1, c + 1), idx(r + 1, c)]);
        }
    }
    faces.push(boundary_walk(w, h));
    Embedding::new(graph, faces)
}

fn boundary_walk(w: usize, h: usize) -> Vec<Vertex> {
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    let mut walk = Vec::with_capacity(2 * (w + h));
    for c in 0..w {
        walk.push(idx(0, c));
    }
    for r in 1..h {
        walk.push(idx(r, w - 1));
    }
    for c in (0..w - 1).rev() {
        walk.push(idx(h - 1, c));
    }
    for r in (1..h - 1).rev() {
        walk.push(idx(r, 0));
    }
    walk
}

/// Random stacked triangulation (Apollonian network) with all of its triangular faces.
///
/// Same construction as `psi_graph::generators::random_stacked_triangulation`, but the
/// face list (including the outer triangle) is kept, so the result is a maximal planar
/// graph with `2n − 4` faces.
pub fn stacked_triangulation_embedded(n: usize, seed: u64) -> Embedding {
    assert!(n >= 3);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 3 * n);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    // faces[0] is the outer triangle and is never subdivided, so the embedding stays a
    // triangulation of the sphere; interior insertion picks among the other faces.
    let mut faces: Vec<Vec<Vertex>> = vec![vec![0, 1, 2], vec![0, 1, 2]];
    for v in 3..n {
        let f = if faces.len() == 2 {
            1
        } else {
            rng.gen_range(1..faces.len())
        };
        let old = faces[f].clone();
        let (a, bq, c) = (old[0], old[1], old[2]);
        let v = v as Vertex;
        b.add_edge(v, a);
        b.add_edge(v, bq);
        b.add_edge(v, c);
        faces[f] = vec![a, bq, v];
        faces.push(vec![bq, c, v]);
        faces.push(vec![c, a, v]);
    }
    Embedding::new(b.build_parallel(), faces)
}

/// Wheel on `n` vertices (rim `0..n−1`, hub `n−1`): 3-connected planar.
pub fn wheel_embedded(n: usize) -> Embedding {
    assert!(n >= 4);
    let graph = psi_graph::generators::wheel(n);
    let rim = n - 1;
    let hub = rim as Vertex;
    let mut faces: Vec<Vec<Vertex>> = (0..rim)
        .map(|i| vec![i as Vertex, ((i + 1) % rim) as Vertex, hub])
        .collect();
    faces.push((0..rim as Vertex).collect());
    Embedding::new(graph, faces)
}

/// Double wheel: a rim cycle of `rim ≥ 5` vertices plus two hubs adjacent to every rim
/// vertex (hubs not adjacent to each other). 4-connected planar for `rim ≥ 5`.
pub fn double_wheel(rim: usize) -> Embedding {
    assert!(rim >= 4);
    let n = rim + 2;
    let hub_a = rim as Vertex;
    let hub_b = (rim + 1) as Vertex;
    let mut b = GraphBuilder::with_capacity(n, 3 * rim);
    for i in 0..rim {
        let u = i as Vertex;
        let v = ((i + 1) % rim) as Vertex;
        b.add_edge(u, v);
        b.add_edge(u, hub_a);
        b.add_edge(u, hub_b);
    }
    let mut faces = Vec::with_capacity(2 * rim);
    for i in 0..rim {
        let u = i as Vertex;
        let v = ((i + 1) % rim) as Vertex;
        faces.push(vec![u, v, hub_a]);
        faces.push(vec![u, v, hub_b]);
    }
    Embedding::new(b.build(), faces)
}

/// Tetrahedron (`K_4`): 3-regular, 3-connected.
pub fn tetrahedron() -> Embedding {
    let graph = psi_graph::generators::complete(4);
    let faces = vec![vec![0, 1, 2], vec![0, 3, 1], vec![1, 3, 2], vec![2, 3, 0]];
    Embedding::new(graph, faces)
}

/// Cube graph `Q_3`: 3-regular, 3-connected.
pub fn cube() -> Embedding {
    // vertex id = x + 2y + 4z
    let mut b = GraphBuilder::new(8);
    for v in 0..8u32 {
        for bit in [1u32, 2, 4] {
            let w = v ^ bit;
            if v < w {
                b.add_edge(v, w);
            }
        }
    }
    let faces = vec![
        vec![0, 1, 3, 2], // z = 0
        vec![4, 6, 7, 5], // z = 1
        vec![0, 4, 5, 1], // y = 0
        vec![2, 3, 7, 6], // y = 1
        vec![0, 2, 6, 4], // x = 0
        vec![1, 5, 7, 3], // x = 1
    ];
    Embedding::new(b.build(), faces)
}

/// Octahedron: 4-regular, 4-connected planar graph on 6 vertices.
pub fn octahedron() -> Embedding {
    // vertices: 0=+x, 1=-x, 2=+y, 3=-y, 4=+z, 5=-z; edges between all non-antipodal pairs
    let mut b = GraphBuilder::new(6);
    for u in 0..6u32 {
        for v in (u + 1)..6 {
            let antipodal = (u / 2 == v / 2) && (u % 2 != v % 2);
            if !antipodal {
                b.add_edge(u, v);
            }
        }
    }
    let faces = vec![
        vec![0, 2, 4],
        vec![2, 1, 4],
        vec![1, 3, 4],
        vec![3, 0, 4],
        vec![2, 0, 5],
        vec![1, 2, 5],
        vec![3, 1, 5],
        vec![0, 3, 5],
    ];
    Embedding::new(b.build(), faces)
}

/// Icosahedron: 5-regular, 5-connected planar graph on 12 vertices — the canonical
/// witness that the vertex-connectivity algorithm must distinguish 4- from 5-connected.
pub fn icosahedron() -> Embedding {
    // 0 = top apex, 1..=5 upper ring, 6..=10 lower ring, 11 = bottom apex
    let upper = |i: usize| (1 + i % 5) as Vertex;
    let lower = |i: usize| (6 + i % 5) as Vertex;
    let mut b = GraphBuilder::new(12);
    for i in 0..5 {
        b.add_edge(0, upper(i));
        b.add_edge(11, lower(i));
        b.add_edge(upper(i), upper(i + 1));
        b.add_edge(lower(i), lower(i + 1));
        b.add_edge(upper(i), lower(i));
        b.add_edge(upper(i + 1), lower(i));
    }
    let mut faces = Vec::with_capacity(20);
    for i in 0..5 {
        faces.push(vec![0, upper(i), upper(i + 1)]);
        faces.push(vec![11, lower(i), lower(i + 1)]);
        faces.push(vec![upper(i), upper(i + 1), lower(i)]);
        faces.push(vec![upper(i + 1), lower(i + 1), lower(i)]);
    }
    Embedding::new(b.build(), faces)
}

/// Geodesic sphere: the icosahedron with every triangle split `level` times into
/// four at its edge midpoints, so `n = 10 · 4^level + 2` (12, 42, 162, 642, …).
/// The twelve original vertices keep degree 5 and every midpoint has degree 6; the
/// graph is a 5-connected triangulation at every level.
pub fn geodesic_sphere(level: u32) -> Embedding {
    let ico = icosahedron();
    let mut n = ico.graph.num_vertices();
    let mut faces = ico.faces;
    for _ in 0..level {
        let mut midpoint: std::collections::HashMap<(Vertex, Vertex), Vertex> =
            std::collections::HashMap::with_capacity(faces.len() * 3 / 2);
        let mut mid = |a: Vertex, b: Vertex| {
            *midpoint.entry((a.min(b), a.max(b))).or_insert_with(|| {
                n += 1;
                (n - 1) as Vertex
            })
        };
        let mut split = Vec::with_capacity(4 * faces.len());
        for face in &faces {
            let (a, b, c) = (face[0], face[1], face[2]);
            let (ab, bc, ca) = (mid(a, b), mid(b, c), mid(c, a));
            split.push(vec![a, ab, ca]);
            split.push(vec![ab, b, bc]);
            split.push(vec![ca, bc, c]);
            split.push(vec![ab, bc, ca]);
        }
        faces = split;
    }
    // Every edge lies on two faces; the builder drops the second copy.
    let mut b = GraphBuilder::with_capacity(n, 3 * faces.len());
    for face in &faces {
        for i in 0..3 {
            b.add_edge(face[i], face[(i + 1) % 3]);
        }
    }
    Embedding::new(b.build(), faces)
}

/// `w × h` torus grid with its quadrilateral faces: a genus-1 (non-planar) embedding.
pub fn torus_grid_embedded(w: usize, h: usize) -> Embedding {
    assert!(w >= 3 && h >= 3);
    let graph = psi_graph::generators::torus_grid(w, h);
    let idx = |r: usize, c: usize| ((r % h) * w + (c % w)) as Vertex;
    let mut faces = Vec::with_capacity(w * h);
    for r in 0..h {
        for c in 0..w {
            faces.push(vec![
                idx(r, c),
                idx(r, c + 1),
                idx(r + 1, c + 1),
                idx(r + 1, c),
            ]);
        }
    }
    Embedding::new(graph, faces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_embedding_valid() {
        let e = wheel_embedded(8);
        e.validate().unwrap();
        assert!(e.is_planar());
    }

    #[test]
    fn double_wheel_valid_and_4_regular_on_rim() {
        let e = double_wheel(8);
        e.validate().unwrap();
        assert!(e.is_planar());
        for v in 0..8u32 {
            assert_eq!(e.graph.degree(v), 4);
        }
        assert_eq!(e.graph.degree(8), 8);
    }

    #[test]
    fn octahedron_and_icosahedron_regularity() {
        let o = octahedron();
        o.validate().unwrap();
        assert!(o.graph.vertices().all(|v| o.graph.degree(v) == 4));
        assert_eq!(o.graph.num_edges(), 12);

        let i = icosahedron();
        i.validate().unwrap();
        assert!(i.graph.vertices().all(|v| i.graph.degree(v) == 5));
        assert_eq!(i.graph.num_edges(), 30);
        assert_eq!(i.num_faces(), 20);
    }

    #[test]
    fn geodesic_spheres_are_valid_triangulations() {
        for (level, n) in [(0u32, 12usize), (1, 42), (2, 162), (3, 642)] {
            let e = geodesic_sphere(level);
            e.validate().unwrap();
            assert!(e.is_planar());
            assert_eq!(e.graph.num_vertices(), n);
            assert_eq!(e.graph.num_edges(), 3 * n - 6);
            assert_eq!(e.num_faces(), 2 * n - 4);
            assert_eq!(e.graph.min_degree(), 5);
            assert_eq!(e.graph.max_degree(), if level == 0 { 5 } else { 6 });
        }
        assert_eq!(geodesic_sphere(0).graph, icosahedron().graph);
    }

    #[test]
    fn stacked_triangulation_deterministic() {
        let a = stacked_triangulation_embedded(50, 7);
        let b = stacked_triangulation_embedded(50, 7);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.faces, b.faces);
    }

    #[test]
    fn grid_embedded_matches_plain_generator() {
        let e = grid_embedded(6, 4);
        assert_eq!(e.graph, psi_graph::generators::grid(6, 4));
    }
}
