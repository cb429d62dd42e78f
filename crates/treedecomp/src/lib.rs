//! Tree decompositions and the tree-into-paths machinery of the paper.
//!
//! This crate supplies the "bounded treewidth" substrate of the reproduction:
//!
//! * [`TreeDecomposition`] — bags + decomposition tree, with a full validity checker
//!   (the three conditions of Section 1.1) and width computation,
//! * [`elimination`] — [`min_degree_decomposition`], the one construction every
//!   decomposition in the workspace comes from: a valid decomposition of any graph by
//!   min-degree elimination (the documented substitution for the Baker/Eppstein
//!   width-`3d` construction and Lagergren's parallel algorithm; only the width, never
//!   the correctness, depends on it),
//! * [`binary`] — rooted binarisation so that every interior node has exactly two
//!   children (the form assumed by the partial-match dynamic program),
//! * [`path_layers`] — Lemma 3.2 / Appendix A: decomposing a rooted tree into paths
//!   grouped into `O(log n)` layers, including the `f≠ / g=` unary-function family and
//!   its closure properties used by the expression-tree-evaluation argument.

pub mod binary;
pub mod decomposition;
pub mod elimination;
pub mod path_layers;

pub use binary::BinaryTreeDecomposition;
pub use decomposition::TreeDecomposition;
pub use elimination::min_degree_decomposition;
pub use path_layers::{
    layer_numbers, layer_numbers_parallel, tree_into_paths, LayerFn, PathDecomposition,
};
