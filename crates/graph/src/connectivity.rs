//! Connected components: sequential BFS labelling and parallel label propagation.
//!
//! The paper uses parallel connected components [Gazit 1991] as a black box for the
//! S-separating cover (merging the components that remain after removing a cover
//! subgraph, Section 5.2.1). Any `O(n + m)`-work low-depth component labelling works;
//! we provide deterministic sequential labelling and a parallel min-label propagation.

use crate::csr::{CsrGraph, Vertex};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Component labelling: `label[v]` is a dense component id in `0..num_components`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentLabels {
    /// Component id for each vertex.
    pub label: Vec<u32>,
    /// Total number of connected components.
    pub num_components: usize,
}

impl ComponentLabels {
    /// Vertices grouped by component.
    pub fn components(&self) -> Vec<Vec<Vertex>> {
        let mut comps = vec![Vec::new(); self.num_components];
        for (v, &c) in self.label.iter().enumerate() {
            comps[c as usize].push(v as Vertex);
        }
        comps
    }
}

/// Sequential connected components via repeated BFS.
pub fn connected_components(graph: &CsrGraph) -> ComponentLabels {
    connected_components_masked(graph, None)
}

/// Sequential connected components restricted to `mask` (unmasked vertices get label
/// `u32::MAX` and do not count as components).
pub fn connected_components_masked(graph: &CsrGraph, mask: Option<&[bool]>) -> ComponentLabels {
    let n = graph.num_vertices();
    let allowed = |v: usize| mask.is_none_or(|m| m[v]);
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != u32::MAX || !allowed(s) {
            continue;
        }
        label[s] = next;
        stack.push(s as Vertex);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if label[v as usize] == u32::MAX && allowed(v as usize) {
                    label[v as usize] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    ComponentLabels {
        label,
        num_components: next as usize,
    }
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &CsrGraph) -> bool {
    if graph.num_vertices() == 0 {
        return true;
    }
    crate::bfs::bfs(graph, 0).order.len() == graph.num_vertices()
}

/// Parallel connected components by iterated minimum-label propagation
/// (a shared-memory stand-in for the PRAM hooking/shortcutting algorithms).
///
/// Labels converge in at most `diameter` rounds; each round is a parallel sweep over
/// the edges. The returned labels are densified to `0..num_components` and agree with
/// [`connected_components`] up to renaming.
pub fn parallel_connected_components(graph: &CsrGraph) -> ComponentLabels {
    let n = graph.num_vertices();
    if n == 0 {
        return ComponentLabels {
            label: Vec::new(),
            num_components: 0,
        };
    }
    let label: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    loop {
        let changed: bool = (0..n)
            .into_par_iter()
            .map(|u| {
                let mut best = label[u].load(Ordering::Relaxed);
                let mut local_change = false;
                for &v in graph.neighbors(u as Vertex) {
                    let lv = label[v as usize].load(Ordering::Relaxed);
                    if lv < best {
                        best = lv;
                        local_change = true;
                    }
                }
                if local_change {
                    label[u].fetch_min(best, Ordering::Relaxed);
                }
                local_change
            })
            // Audited for the shim's real-splitting `reduce` contract: `||` is
            // associative and `false` is its identity, so the verdict is independent
            // of how chunks are cut across workers.
            .reduce(|| false, |a, b| a || b);
        // Pointer-jumping style shortcut: propagate each label to its label's label.
        (0..n).into_par_iter().for_each(|u| {
            let l = label[u].load(Ordering::Relaxed) as usize;
            let ll = label[l].load(Ordering::Relaxed);
            label[u].fetch_min(ll, Ordering::Relaxed);
        });
        if !changed {
            break;
        }
    }
    let raw: Vec<u32> = label.into_iter().map(|a| a.into_inner()).collect();
    densify(raw)
}

fn densify(raw: Vec<u32>) -> ComponentLabels {
    let mut remap = std::collections::HashMap::new();
    let mut label = Vec::with_capacity(raw.len());
    for r in raw {
        let next = remap.len() as u32;
        let id = *remap.entry(r).or_insert(next);
        label.push(id);
    }
    let num_components = remap.len();
    ComponentLabels {
        label,
        num_components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn single_component() {
        let g = generators::cycle(8);
        let c = connected_components(&g);
        assert_eq!(c.num_components, 1);
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let c = connected_components(&g);
        assert_eq!(c.num_components, 4); // {0,1},{2,3},{4},{5}
        assert!(!is_connected(&g));
        assert_eq!(c.label[0], c.label[1]);
        assert_ne!(c.label[0], c.label[2]);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let mut b = GraphBuilder::new(40);
        // two cycles and some isolated vertices
        for i in 0..15u32 {
            b.add_edge(i, (i + 1) % 15);
        }
        for i in 0..20u32 {
            b.add_edge(15 + i, 15 + (i + 1) % 20);
        }
        let g = b.build();
        let s = connected_components(&g);
        let p = parallel_connected_components(&g);
        assert_eq!(s.num_components, p.num_components);
        // same partition (compare via pairs of representatives)
        for u in 0..40usize {
            for v in 0..40usize {
                assert_eq!(
                    s.label[u] == s.label[v],
                    p.label[u] == p.label[v],
                    "{u} {v}"
                );
            }
        }
    }

    #[test]
    fn masked_components() {
        let g = generators::path(7);
        let mask: Vec<bool> = (0..7).map(|v| v != 3).collect();
        let c = connected_components_masked(&g, Some(&mask));
        assert_eq!(c.num_components, 2);
        assert_eq!(c.label[3], u32::MAX);
        assert_eq!(c.label[0], c.label[2]);
        assert_ne!(c.label[2], c.label[4]);
    }

    #[test]
    fn component_listing() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4);
        let g = b.build();
        let c = connected_components(&g);
        let comps = c.components();
        assert_eq!(comps.len(), 4);
        assert!(comps.iter().any(|c| c == &vec![0, 4]));
    }
}
