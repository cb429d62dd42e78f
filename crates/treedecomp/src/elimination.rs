//! Min-degree elimination: the tree decomposition every DP in the workspace runs on.
//!
//! A perfect elimination game yields a valid tree decomposition of any graph: eliminate
//! vertices one by one, each time turning the current neighbourhood of the eliminated
//! vertex into a clique; the bag of an eliminated vertex is the vertex plus its
//! neighbourhood at elimination time, and it hangs off the bag of the first of those
//! neighbours to be eliminated later. The width equals the largest such neighbourhood.
//!
//! The paper obtains width-`3d` decompositions of `d`-level planar slabs from the
//! Baker/Eppstein construction and width-`8τ+7` decompositions from Lagergren's parallel
//! algorithm. This reproduction substitutes the classical min-degree heuristic
//! (always eliminate a vertex of least current degree), which always produces a
//! *valid* decomposition (checked by [`TreeDecomposition::validate`]) and empirically
//! stays within the `3(d+1)` bound on the cover pieces (experiment F1). Only the width,
//! and so the constants in the DPs' running time, depends on this substitution; their
//! correctness does not.

use crate::decomposition::TreeDecomposition;
use psi_graph::{CsrGraph, Vertex};
use std::collections::BTreeSet;

struct EliminationGame {
    /// Current neighbourhoods (as sets) of the not-yet-eliminated vertices.
    adj: Vec<BTreeSet<Vertex>>,
}

impl EliminationGame {
    fn new(graph: &CsrGraph) -> Self {
        let adj = (0..graph.num_vertices())
            .map(|v| graph.neighbors(v as Vertex).iter().copied().collect())
            .collect();
        EliminationGame { adj }
    }

    fn eliminate(&mut self, v: usize) -> Vec<Vertex> {
        let neigh: Vec<Vertex> = self.adj[v].iter().copied().collect();
        // make the neighbourhood a clique
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let (a, b) = (neigh[i] as usize, neigh[j] as usize);
                self.adj[a].insert(neigh[j]);
                self.adj[b].insert(neigh[i]);
            }
        }
        for &w in &neigh {
            self.adj[w as usize].remove(&(v as Vertex));
        }
        self.adj[v].clear();
        neigh
    }
}

/// Bucket priority queue over current degrees: the next min-degree vertex is popped
/// from the lowest non-empty bucket (smallest vertex id first: a `(degree, v)`
/// tie-break), and degree changes move vertices between buckets. Selection over the whole elimination costs `O((n + fill) log n)`
/// instead of the naive `O(n²)` per-step scans — the cover pipeline decomposes many
/// thousands of batched pieces per query, so selection must stay near-linear.
struct DegreeBuckets {
    buckets: Vec<BTreeSet<usize>>,
    deg: Vec<usize>,
    min_deg: usize,
}

impl DegreeBuckets {
    fn new(game: &EliminationGame) -> Self {
        let n = game.adj.len();
        let mut buckets: Vec<BTreeSet<usize>> = Vec::new();
        let mut deg = vec![0usize; n];
        for (v, slot) in deg.iter_mut().enumerate() {
            let d = game.adj[v].len();
            *slot = d;
            if buckets.len() <= d {
                buckets.resize_with(d + 1, BTreeSet::new);
            }
            buckets[d].insert(v);
        }
        DegreeBuckets {
            buckets,
            deg,
            min_deg: 0,
        }
    }

    fn pop_min(&mut self) -> usize {
        loop {
            if let Some(&v) = self.buckets.get(self.min_deg).and_then(|b| b.first()) {
                self.buckets[self.min_deg].remove(&v);
                return v;
            }
            self.min_deg += 1;
            assert!(self.min_deg < self.buckets.len(), "no vertex remains");
        }
    }

    fn update(&mut self, v: usize, new_deg: usize) {
        let old = self.deg[v];
        if old == new_deg {
            return;
        }
        self.buckets[old].remove(&v);
        if self.buckets.len() <= new_deg {
            self.buckets.resize_with(new_deg + 1, BTreeSet::new);
        }
        self.buckets[new_deg].insert(v);
        self.deg[v] = new_deg;
        self.min_deg = self.min_deg.min(new_deg);
    }
}

/// The min-degree decomposition of `graph`: vertices are eliminated in order of least
/// current degree (ties by smallest id), each contributing the bag of itself and its
/// neighbourhood at elimination time. The empty graph gets one empty bag.
pub fn min_degree_decomposition(graph: &CsrGraph) -> TreeDecomposition {
    let n = graph.num_vertices();
    if n == 0 {
        return TreeDecomposition::new(vec![Vec::new()], Vec::new(), 0);
    }
    let mut game = EliminationGame::new(graph);
    let mut queue = DegreeBuckets::new(&game);
    // position[v] = the step at which v is eliminated, which is also its bag's index.
    let mut position = vec![usize::MAX; n];
    let mut bags: Vec<Vec<Vertex>> = Vec::with_capacity(n);
    let mut neighbours_at_elim: Vec<Vec<Vertex>> = Vec::with_capacity(n);

    for step in 0..n {
        let candidate = queue.pop_min();
        position[candidate] = step;
        let neigh = game.eliminate(candidate);
        // Only the eliminated vertex's neighbourhood changes degree (it loses the
        // edge to the eliminated vertex and gains the clique fill edges).
        for &w in &neigh {
            queue.update(w as usize, game.adj[w as usize].len());
        }
        let mut bag = neigh.clone();
        bag.push(candidate as Vertex);
        bags.push(bag);
        neighbours_at_elim.push(neigh);
    }

    // Tree edges: the bag of vertex v connects to the bag of the earliest-eliminated
    // neighbour that is eliminated after v (the standard construction).
    let mut tree_edges = Vec::with_capacity(n.saturating_sub(1));
    for (step, neighbours) in neighbours_at_elim.iter().enumerate() {
        let later = neighbours
            .iter()
            .copied()
            .filter(|&w| position[w as usize] > step)
            .min_by_key(|&w| position[w as usize]);
        if let Some(w) = later {
            tree_edges.push((step, position[w as usize]));
        } else if step + 1 < n {
            // Vertex had no later neighbours (its component is finished); attach to the
            // next bag to keep the decomposition a single tree.
            tree_edges.push((step, step + 1));
        }
    }
    TreeDecomposition::new(bags, tree_edges, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generators;

    #[test]
    fn tree_has_width_one() {
        let g = generators::random_tree(60, 3);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn cycle_has_width_two() {
        let g = generators::cycle(20);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn complete_graph_width() {
        let g = generators::complete(6);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 5);
    }

    #[test]
    fn grid_width_is_small() {
        let g = generators::grid(6, 6);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
        // treewidth of the 6x6 grid is 6; min-degree may overshoot slightly
        assert!(td.width() >= 6 && td.width() <= 9, "width {}", td.width());
    }

    #[test]
    fn disconnected_graph_still_valid() {
        let a = generators::cycle(5);
        let b = generators::path(4);
        let g = generators::disjoint_union(&[&a, &b]);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = CsrGraph::empty(1);
        let td = min_degree_decomposition(&g);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 0);

        let g0 = CsrGraph::empty(0);
        let td0 = min_degree_decomposition(&g0);
        td0.validate(&g0).unwrap();
    }
}
