//! Mutable edge-list builder producing [`CsrGraph`]s.

use crate::csr::{CsrGraph, Vertex};
use rayon::prelude::*;

/// Incrementally assembles a simple undirected graph.
///
/// Self loops are rejected with a panic (the algorithms in this workspace all assume
/// simple graphs); parallel edges are silently deduplicated at [`GraphBuilder::build`]
/// time.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder pre-sized for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Ensures the vertex range covers `v` (growing the graph if needed).
    pub fn ensure_vertex(&mut self, v: Vertex) {
        if (v as usize) >= self.n {
            self.n = v as usize + 1;
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self loops or vertices outside `0..n`.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        assert!(u != v, "self loop {u} rejected: graphs are simple");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (Vertex, Vertex)>>(&mut self, it: I) {
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Builds the CSR graph, sorting and deduplicating adjacency lists.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        let mut adjacency: Vec<Vec<Vertex>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        adjacency.iter_mut().for_each(|a| {
            a.sort_unstable();
            a.dedup();
        });
        CsrGraph::from_sorted_adjacency(adjacency)
    }

    /// Builds the CSR graph using rayon to sort the adjacency lists in parallel.
    ///
    /// Functionally identical to [`GraphBuilder::build`]; preferable when the edge list
    /// is large (all generators in this workspace use it).
    pub fn build_parallel(self) -> CsrGraph {
        let n = self.n;
        let mut adjacency: Vec<Vec<Vertex>> = vec![Vec::new(); n];
        for &(u, v) in &self.edges {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        adjacency.par_iter_mut().for_each(|a| {
            a.sort_unstable();
            a.dedup();
        });
        CsrGraph::from_sorted_adjacency(adjacency)
    }

    /// Builds a graph directly from an edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        b.extend_edges(edges.iter().copied());
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let edges: Vec<(Vertex, Vertex)> = (0..200u32).map(|i| (i, (i + 1) % 201)).collect();
        let g1 = GraphBuilder::from_edges(201, &edges);
        let mut b = GraphBuilder::new(201);
        b.extend_edges(edges.iter().copied());
        let g2 = b.build_parallel();
        assert_eq!(g1, g2);
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut b = GraphBuilder::new(1);
        b.ensure_vertex(4);
        b.add_edge(0, 4);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert!(g.has_edge(0, 4));
    }
}
