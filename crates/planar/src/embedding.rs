//! Combinatorial embeddings given by their facial walks.

use psi_graph::{CsrGraph, UnionFind, Vertex};
use std::fmt;

/// Problems detected while validating an embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbeddingError {
    /// A face walk contains two consecutive vertices that are not adjacent in the graph.
    NonEdgeOnFace { face: usize, u: Vertex, v: Vertex },
    /// An edge does not appear on exactly two facial sides.
    WrongEdgeMultiplicity { u: Vertex, v: Vertex, count: usize },
    /// A face walk is too short to be a facial cycle (singleton walks are allowed
    /// only for isolated vertices, two-vertex walks only for an edge walked on both
    /// sides).
    DegenerateFace { face: usize },
    /// Euler's formula gives a negative or non-integral genus.
    InconsistentEuler { n: usize, m: usize, f: usize },
    /// A vertex appears on no face at all (isolated vertices must be embedded as
    /// singleton faces).
    VertexNotOnAnyFace { v: Vertex },
    /// The corners the walks turn at a vertex do not close into one rotation
    /// around it: the walks pinch the surface together at `v`.
    PinchedVertex { v: Vertex },
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingError::NonEdgeOnFace { face, u, v } => {
                write!(f, "face {face} uses non-edge ({u},{v})")
            }
            EmbeddingError::WrongEdgeMultiplicity { u, v, count } => {
                write!(f, "edge ({u},{v}) lies on {count} facial sides, expected 2")
            }
            EmbeddingError::DegenerateFace { face } => {
                write!(f, "face {face} has fewer than 3 vertices")
            }
            EmbeddingError::InconsistentEuler { n, m, f: faces } => {
                write!(f, "Euler characteristic of n={n}, m={m}, f={faces} is not an even nonnegative genus")
            }
            EmbeddingError::VertexNotOnAnyFace { v } => {
                write!(f, "vertex {v} appears on no face")
            }
            EmbeddingError::PinchedVertex { v } => {
                write!(f, "the corners at vertex {v} do not form one rotation")
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

/// A graph together with an embedding on an orientable surface, represented by the list
/// of its facial walks.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// The underlying simple graph.
    pub graph: CsrGraph,
    /// The facial walks; each face is a cyclic vertex sequence (the last vertex is
    /// implicitly adjacent to the first).
    pub faces: Vec<Vec<Vertex>>,
}

impl Embedding {
    /// Wraps a graph and face list without validating; call [`Embedding::validate`] to check.
    pub fn new(graph: CsrGraph, faces: Vec<Vec<Vertex>>) -> Self {
        Embedding { graph, faces }
    }

    /// Number of faces.
    pub fn num_faces(&self) -> usize {
        self.faces.len()
    }

    /// Euler characteristic `n − m + f`.
    pub fn euler_characteristic(&self) -> i64 {
        self.graph.num_vertices() as i64 - self.graph.num_edges() as i64 + self.faces.len() as i64
    }

    /// Number of connected components of the underlying graph (each embedded
    /// separately; a valid genus-`g` embedding of `c` components has Euler
    /// characteristic `2c − 2g`).
    pub fn num_components(&self) -> usize {
        if self.graph.num_vertices() == 0 {
            return 0;
        }
        psi_graph::connected_components(&self.graph).num_components
    }

    /// Total genus of the embedding surfaces (`0` for a planar embedding). Each
    /// connected component is embedded on its own surface; their genera add.
    pub fn genus(&self) -> i64 {
        (2 * self.num_components() as i64 - self.euler_characteristic()) / 2
    }

    /// Whether the embedding is planar (genus 0 — every component on a sphere).
    pub fn is_planar(&self) -> bool {
        self.euler_characteristic() == 2 * self.num_components() as i64
    }

    /// Validates the facial structure: every consecutive face pair is an edge, every
    /// edge lies on exactly two facial sides, the corners at every vertex form one
    /// rotation, every vertex appears on at least one face (isolated vertices as
    /// singleton faces), and Euler's formula yields a nonnegative integral genus per
    /// connected component.
    pub fn validate(&self) -> Result<(), EmbeddingError> {
        validate_walks(&self.graph, self.faces.iter().map(Vec::as_slice)).map(|_genus| ())
    }

    /// Quick necessary condition for planarity of a simple graph (`m ≤ 3n − 6` for `n ≥ 3`).
    pub fn passes_euler_bound(graph: &CsrGraph) -> bool {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        n < 3 || m <= 3 * n - 6
    }
}

/// The rules of [`Embedding::validate`] over borrowed parts: checks that `faces`
/// are the facial walks of an embedding of `graph` and returns its total genus
/// (0 for a planar embedding). The walks are borrowed, so flat stored faces are
/// checked without assembling an [`Embedding`]. Every walk vertex must be a
/// vertex of `graph`.
///
/// Glued along their edges, walks that pass these checks form a closed surface
/// per component: every edge borders two sides and the corners at every vertex
/// close into one rotation. So a genus of 0 (Euler characteristic 2 per
/// component) makes every component a sphere, and `graph` planar. The check
/// reads no orientation, so unoriented walks pass.
pub fn validate_walks<'a>(
    graph: &CsrGraph,
    faces: impl IntoIterator<Item = &'a [Vertex]>,
) -> Result<i64, EmbeddingError> {
    // A dart `u→v` is `v`'s slot in `u`'s sorted CSR neighbour list. Facial
    // sides per edge `{a < b}` are counted at the dart `a→b`; each corner a walk
    // turns at `v`, from `v→pred` to `v→succ`, joins those two darts.
    let offsets = graph.csr_offsets();
    let dart = |u: Vertex, v: Vertex| {
        let slot = graph.neighbors(u).binary_search(&v).ok()?;
        Some(offsets[u as usize] + slot)
    };
    let mut sides = vec![0u32; graph.degree_sum()];
    let mut corners = UnionFind::new(graph.degree_sum());
    let mut on_face = vec![false; graph.num_vertices()];
    let mut num_faces = 0usize;
    for (fi, face) in faces.into_iter().enumerate() {
        num_faces += 1;
        match face.len() {
            0 => return Err(EmbeddingError::DegenerateFace { face: fi }),
            // A singleton face embeds an isolated vertex inside some region.
            1 => {
                if graph.degree(face[0]) != 0 {
                    return Err(EmbeddingError::DegenerateFace { face: fi });
                }
                on_face[face[0] as usize] = true;
                continue;
            }
            // A two-vertex walk traverses one edge on both sides — the face of an
            // isolated-edge component. Longer walks are the usual facial cycles.
            _ => {}
        }
        // `first` is the dart `face[0]→face[1]`, which the walk's last corner joins
        // to `face[0]→face[len − 1]`; `back` is the previous step's dart `u→pred`.
        let (mut first, mut back) = (0, 0);
        for i in 0..face.len() {
            let u = face[i];
            let v = face[(i + 1) % face.len()];
            let (forth, rev) = dart(u, v)
                .zip(dart(v, u))
                .ok_or(EmbeddingError::NonEdgeOnFace { face: fi, u, v })?;
            on_face[u as usize] = true;
            let count = &mut sides[if u < v { forth } else { rev }];
            *count = count.saturating_add(1);
            if i == 0 {
                first = forth;
            } else {
                corners.union(back, forth);
            }
            back = rev;
        }
        corners.union(back, first);
    }
    for u in graph.vertices() {
        let first = offsets[u as usize];
        for (slot, &v) in graph.neighbors(u).iter().enumerate() {
            let count = sides[first + slot];
            if u < v && count != 2 {
                let count = count as usize;
                return Err(EmbeddingError::WrongEdgeMultiplicity { u, v, count });
            }
        }
    }
    // With every edge on two sides, each dart ends two corners, so the corners at
    // a vertex link its darts into cycles; a rotation is one cycle through all.
    for u in graph.vertices() {
        let mut darts = offsets[u as usize]..offsets[u as usize + 1];
        if let Some(d) = darts.next() {
            let rotation = corners.find(d);
            if darts.any(|d| corners.find(d) != rotation) {
                return Err(EmbeddingError::PinchedVertex { v: u });
            }
        }
    }
    if let Some(v) = on_face.iter().position(|&seen| !seen) {
        return Err(EmbeddingError::VertexNotOnAnyFace { v: v as Vertex });
    }
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let components = if n == 0 {
        0
    } else {
        psi_graph::connected_components(graph).num_components
    };
    let chi = n as i64 - m as i64 + num_faces as i64;
    let max_chi = 2 * components as i64;
    if chi > max_chi || (max_chi - chi) % 2 != 0 {
        return Err(EmbeddingError::InconsistentEuler { n, m, f: num_faces });
    }
    Ok((max_chi - chi) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangle_embedding() {
        let e = generators::cycle_embedded(3);
        e.validate().unwrap();
        assert_eq!(e.num_faces(), 2);
        assert!(e.is_planar());
        assert_eq!(e.genus(), 0);
    }

    #[test]
    fn grid_embedding_is_planar() {
        let e = generators::grid_embedded(5, 4);
        e.validate().unwrap();
        assert!(e.is_planar());
        // faces = inner squares + outer face
        assert_eq!(e.num_faces(), 4 * 3 + 1);
    }

    #[test]
    fn triangulated_grid_embedding_is_planar() {
        let e = generators::triangulated_grid_embedded(6, 5);
        e.validate().unwrap();
        assert!(e.is_planar());
    }

    #[test]
    fn stacked_triangulation_embedding_is_planar_and_maximal() {
        for n in [4usize, 10, 60] {
            let e = generators::stacked_triangulation_embedded(n, 3);
            e.validate().unwrap();
            assert!(e.is_planar(), "n={n}");
            assert_eq!(e.graph.num_edges(), 3 * n - 6);
            assert_eq!(e.num_faces(), 2 * n - 4);
            assert!(e.faces.iter().all(|f| f.len() == 3));
        }
    }

    #[test]
    fn platonic_solids_are_planar() {
        for (name, e) in [
            ("tetrahedron", generators::tetrahedron()),
            ("cube", generators::cube()),
            ("octahedron", generators::octahedron()),
            ("icosahedron", generators::icosahedron()),
        ] {
            e.validate().unwrap_or_else(|err| panic!("{name}: {err}"));
            assert!(e.is_planar(), "{name}");
        }
    }

    #[test]
    fn torus_embedding_has_genus_one() {
        let e = generators::torus_grid_embedded(4, 4);
        e.validate().unwrap();
        assert_eq!(e.genus(), 1);
        assert!(!e.is_planar());
    }

    #[test]
    fn invalid_embedding_detected() {
        let g = psi_graph::generators::cycle(4);
        // A face using a chord that is not an edge.
        let bad = Embedding::new(g.clone(), vec![vec![0, 1, 2], vec![0, 2, 3]]);
        assert!(matches!(
            bad.validate(),
            Err(EmbeddingError::NonEdgeOnFace { .. })
        ));
        // Missing the outer face: each edge appears only once.
        let bad2 = Embedding::new(g, vec![vec![0, 1, 2, 3]]);
        assert!(matches!(
            bad2.validate(),
            Err(EmbeddingError::WrongEdgeMultiplicity { .. })
        ));
        // K5 behind pinched walks: every edge lies on two sides and χ = 5 − 10 + 7
        // = 2, but the corners at 3 (and at 4) split into two rotations.
        let walks = [
            &[0, 1, 3][..],
            &[0, 1, 4],
            &[0, 2, 3],
            &[0, 2, 4],
            &[1, 2, 3],
            &[1, 2, 4],
            &[3, 4],
        ];
        let faces = walks.iter().map(|w| w.to_vec()).collect();
        let pinched = Embedding::new(psi_graph::generators::complete(5), faces);
        assert_eq!(
            pinched.validate(),
            Err(EmbeddingError::PinchedVertex { v: 3 })
        );
    }

    #[test]
    fn isolated_vertex_must_appear_on_a_face() {
        // Triangle plus an isolated vertex 3: omitting the vertex from every face
        // used to validate silently; now it is an explicit error.
        let mut b = psi_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let g = b.build();
        let walk: Vec<Vertex> = vec![0, 1, 2];
        let missing = Embedding::new(g.clone(), vec![walk.clone(), walk.clone()]);
        assert_eq!(
            missing.validate(),
            Err(EmbeddingError::VertexNotOnAnyFace { v: 3 })
        );
        // With the singleton face the embedding is a valid genus-0 embedding of two
        // components (Euler characteristic 2c = 4).
        let fixed = Embedding::new(g, vec![walk.clone(), walk, vec![3]]);
        fixed.validate().unwrap();
        assert!(fixed.is_planar());
        assert_eq!(fixed.genus(), 0);
        assert_eq!(fixed.num_components(), 2);
    }

    #[test]
    fn singleton_faces_only_for_isolated_vertices() {
        let g = psi_graph::generators::path(2);
        // A singleton face of a non-isolated vertex is degenerate.
        let bad = Embedding::new(g.clone(), vec![vec![0], vec![0, 1]]);
        assert!(matches!(
            bad.validate(),
            Err(EmbeddingError::DegenerateFace { .. })
        ));
        // The digon walk of a single-edge component is the valid embedding of K2.
        let k2 = Embedding::new(g, vec![vec![0, 1]]);
        k2.validate().unwrap();
        assert!(k2.is_planar());
    }

    #[test]
    fn disconnected_embedding_validates_per_component() {
        let g = psi_graph::generators::disjoint_union(&[
            &psi_graph::generators::cycle(3),
            &psi_graph::generators::cycle(4),
        ]);
        let t: Vec<Vertex> = vec![0, 1, 2];
        let c: Vec<Vertex> = vec![3, 4, 5, 6];
        let e = Embedding::new(g, vec![t.clone(), t, c.clone(), c]);
        e.validate().unwrap();
        assert_eq!(e.num_components(), 2);
        assert_eq!(e.euler_characteristic(), 4);
        assert!(e.is_planar());
        assert_eq!(e.genus(), 0);
    }

    #[test]
    fn euler_bound_filter() {
        assert!(Embedding::passes_euler_bound(&psi_graph::generators::grid(
            5, 5
        )));
        assert!(!Embedding::passes_euler_bound(
            &psi_graph::generators::complete(6)
        ));
        assert!(Embedding::passes_euler_bound(
            &psi_graph::generators::complete(2)
        ));
    }
}
