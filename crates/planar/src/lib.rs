//! Planarity substrate: the LR planarity engine, combinatorial embeddings, the
//! face–vertex (Nishizeki) bipartite graph, and planar generators that carry their
//! embedding.
//!
//! The paper assumes a planar embedding is available (computable with the Klein–Reif
//! parallel algorithm in `O(n)` work and `O(log^2 n)` depth). This crate provides that
//! step for **arbitrary input graphs**: [`planarity`] implements the left-right
//! planarity test over a DFS orientation, constructs a rotation system per biconnected
//! block (blocks tested in parallel on the work-stealing pool — the documented
//! substitution for Klein–Reif's depth bound), merges the blocks at cut vertices, and
//! traces the facial walks into an [`Embedding`]. Non-planar inputs are rejected with
//! a checkable Kuratowski certificate ([`NonPlanarWitness`]).
//!
//! An embedding is represented by its **face list**: the set of facial walks, each a
//! cyclic vertex sequence. A face list in which every edge lies on exactly two facial
//! sides determines the embedding, allows the exact genus to be computed from Euler's
//! formula, and is precisely the input the vertex-connectivity construction of Section
//! 5.1 needs (one new vertex per face, connected to the face's vertices). The
//! [`generators`] still produce their embedding natively — that path skips the engine
//! and is used to cross-check it.

pub mod embedding;
pub mod face_vertex;
pub mod generators;
pub mod planarity;

pub use embedding::{validate_walks, Embedding, EmbeddingError};
pub use face_vertex::{face_vertex_graph, FaceVertexGraph};
pub use planarity::{
    check_planarity, is_planar_graph, planar_embedding, rotation_system, KuratowskiKind,
    NonPlanarWitness, RotationSystem,
};
