//! The face–vertex bipartite graph of Section 5.1 (Nishizeki's construction).
//!
//! Given an embedded planar graph `G`, place one new vertex inside every face and
//! connect it to all vertices of that face, then delete the original edges. The result
//! `G'` is planar and bipartite (original vertices on one side, face vertices on the
//! other), and Lemma 5.1 relates the vertex connectivity of `G` to the length of the
//! shortest cycle of `G'` that separates the original vertices.

use crate::embedding::Embedding;
use psi_graph::{CsrGraph, GraphBuilder, Vertex};

/// The bipartite face–vertex graph together with the bookkeeping needed to interpret
/// its vertices.
#[derive(Clone, Debug)]
pub struct FaceVertexGraph {
    /// The bipartite graph `G'`. Vertices `0..num_original` are the original vertices of
    /// `G` (same ids); vertices `num_original..` are face vertices.
    pub graph: CsrGraph,
    /// Number of original vertices.
    pub num_original: usize,
    /// For every face vertex (indexed from 0) the face of the embedding it represents.
    pub face_of: Vec<usize>,
    /// Every facial walk of the embedding, concatenated in face order: face `f`'s
    /// walk is `walks[walk_offsets[f]..walk_offsets[f + 1]]`, in the embedding's
    /// cyclic order. `G'`'s adjacency lists are sorted, so this is where the
    /// rotation at each original vertex can still be read.
    pub walks: Vec<Vertex>,
    /// Start of each face's walk in [`FaceVertexGraph::walks`], plus one end
    /// sentinel.
    pub walk_offsets: Vec<usize>,
}

impl FaceVertexGraph {
    /// Whether `v` is one of the original vertices of `G`.
    #[inline]
    pub fn is_original(&self, v: Vertex) -> bool {
        (v as usize) < self.num_original
    }

    /// Number of faces of the embedding (face vertices of `G'`).
    #[inline]
    pub fn num_faces(&self) -> usize {
        self.face_of.len()
    }

    /// The facial walk of face `f`, in the embedding's cyclic order.
    #[inline]
    pub fn walk(&self, f: usize) -> &[Vertex] {
        &self.walks[self.walk_offsets[f]..self.walk_offsets[f + 1]]
    }

    /// Maps a cycle of `G'` to the original vertices it passes through (the candidate
    /// vertex cut of `G`).
    pub fn original_vertices_of(&self, vertices: &[Vertex]) -> Vec<Vertex> {
        let mut cut: Vec<Vertex> = vertices
            .iter()
            .copied()
            .filter(|&v| self.is_original(v))
            .collect();
        cut.sort_unstable();
        cut.dedup();
        cut
    }
}

/// Builds the face–vertex bipartite graph of an embedding.
pub fn face_vertex_graph(embedding: &Embedding) -> FaceVertexGraph {
    let n = embedding.graph.num_vertices();
    let f = embedding.num_faces();
    let total: usize = embedding.faces.iter().map(|w| w.len()).sum();
    let mut builder = GraphBuilder::with_capacity(n + f, total);
    let mut face_of = Vec::with_capacity(f);
    let mut walks = Vec::with_capacity(total);
    let mut walk_offsets = Vec::with_capacity(f + 1);
    walk_offsets.push(0);
    for (fi, face) in embedding.faces.iter().enumerate() {
        let face_vertex = (n + fi) as Vertex;
        face_of.push(fi);
        // A facial walk may repeat a vertex (e.g. around a bridge); the builder
        // deduplicates the resulting parallel edges.
        for &v in face {
            builder.add_edge(face_vertex, v);
        }
        walks.extend_from_slice(face);
        walk_offsets.push(walks.len());
    }
    FaceVertexGraph {
        graph: builder.build(),
        num_original: n,
        face_of,
        walks,
        walk_offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bipartite_and_sizes() {
        let e = generators::triangulated_grid_embedded(4, 4);
        let fv = face_vertex_graph(&e);
        assert_eq!(
            fv.graph.num_vertices(),
            e.graph.num_vertices() + e.num_faces()
        );
        // bipartite: no edge between two originals or two face vertices
        for (u, v) in fv.graph.edges() {
            assert_ne!(fv.is_original(u), fv.is_original(v));
        }
        // every face vertex has degree = face length (triangles -> 3, outer face larger)
        for fi in 0..e.num_faces() {
            let fv_vertex = (fv.num_original + fi) as Vertex;
            let mut unique: Vec<Vertex> = e.faces[fi].clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(fv.graph.degree(fv_vertex), unique.len());
        }
    }

    #[test]
    fn walks_keep_the_facial_order() {
        let e = generators::wheel_embedded(6);
        let fv = face_vertex_graph(&e);
        assert_eq!(fv.num_faces(), e.num_faces());
        for (f, face) in e.faces.iter().enumerate() {
            assert_eq!(fv.walk(f), &face[..]);
        }
        assert_eq!(*fv.walk_offsets.last().unwrap(), fv.walks.len());
    }

    #[test]
    fn face_vertex_graph_is_planar_by_euler_bound() {
        let e = generators::stacked_triangulation_embedded(30, 9);
        let fv = face_vertex_graph(&e);
        assert!(Embedding::passes_euler_bound(&fv.graph));
    }

    #[test]
    fn original_vertex_extraction() {
        let e = generators::cycle_embedded(5);
        let fv = face_vertex_graph(&e);
        let cut = fv.original_vertices_of(&[0, 7, 2, 6, 0]);
        assert_eq!(cut, vec![0, 2]);
    }

    #[test]
    fn cycle_face_vertex_graph_structure() {
        // C_n has 2 faces; G' is K_{2,n}-like: every original vertex adjacent to both face vertices.
        let e = generators::cycle_embedded(6);
        let fv = face_vertex_graph(&e);
        assert_eq!(fv.graph.num_vertices(), 8);
        assert_eq!(fv.graph.num_edges(), 12);
        for v in 0..6u32 {
            assert_eq!(fv.graph.degree(v), 2);
        }
    }

    #[test]
    fn all_cycles_in_face_vertex_graph_are_even() {
        // bipartiteness check via 2-colouring BFS
        let e = generators::grid_embedded(4, 3);
        let fv = face_vertex_graph(&e);
        let g = &fv.graph;
        let mut color = vec![u8::MAX; g.num_vertices()];
        for s in 0..g.num_vertices() as Vertex {
            if color[s as usize] != u8::MAX {
                continue;
            }
            color[s as usize] = 0;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &w in g.neighbors(u) {
                    if color[w as usize] == u8::MAX {
                        color[w as usize] = 1 - color[u as usize];
                        q.push_back(w);
                    } else {
                        assert_ne!(color[w as usize], color[u as usize], "odd cycle found");
                    }
                }
            }
        }
    }
}
