//! Graph substrate for the `planar-subiso` workspace.
//!
//! This crate provides the shared graph machinery used by every other crate in the
//! reproduction of *Parallel Planar Subgraph Isomorphism and Vertex Connectivity*
//! (Gianinazzi & Hoefler, SPAA 2020):
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row undirected graph,
//! * [`GraphBuilder`] — a mutable edge-list builder that deduplicates and sorts,
//! * [`AdjacencyList`] — a mutable sorted-adjacency graph with `O(log deg)` edge
//!   flips, plus the [`NeighborSource`] trait shared with [`CsrGraph`], in
//!   [`adjacency`],
//! * breadth-first search (sequential and level-synchronous parallel) in [`mod@bfs`],
//! * connected components and a union–find in [`connectivity`] and [`union_find`],
//! * articulation points / biconnectivity in [`biconnectivity`],
//! * induced-subgraph views with vertex maps in [`view`],
//! * vertex-group contraction (graph minors) in [`contraction`],
//! * epoch-stamped (generation-counter) scratch arrays in [`epoch`],
//! * edge-list / DIMACS readers and writers in [`io`],
//! * a zoo of deterministic and random generators in [`generators`].
//!
//! Vertices are dense `u32` indices (`Vertex`). All graphs are simple and undirected;
//! builders reject self loops and deduplicate parallel edges.

pub mod adjacency;
pub mod bfs;
pub mod biconnectivity;
pub mod builder;
pub mod connectivity;
pub mod contraction;
pub mod csr;
pub mod epoch;
pub mod generators;
pub mod io;
pub mod union_find;
pub mod view;

pub use adjacency::{AdjacencyList, NeighborSource};
pub use bfs::{bfs, bfs_restricted, parallel_bfs, BfsTree};
pub use biconnectivity::{
    articulation_points, biconnected_components, is_biconnected, Biconnectivity,
};
pub use builder::GraphBuilder;
pub use connectivity::{
    connected_components, is_connected, parallel_connected_components, ComponentLabels,
};
pub use contraction::{contract_groups, ContractionResult};
pub use csr::{CsrGraph, Vertex, INVALID_VERTEX};
pub use epoch::{EpochMap, EpochSet};
pub use io::{
    parse_dimacs, parse_edge_list, parse_graph, read_graph_file, write_edge_list, GraphParseError,
    GraphReadError,
};
pub use union_find::UnionFind;
pub use view::{induced_subgraph, InducedSubgraph};
