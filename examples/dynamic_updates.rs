//! Dynamic index mutation: open a live [`Psi`] engine, churn edges through it,
//! serve queries between mutations, and freeze the result back to an artifact
//! that is bit-identical to a from-scratch rebuild.
//!
//! Run with: `cargo run --release --example dynamic_updates`
//!
//! The workload is a plain (untriangulated) grid: inserting a cell diagonal is
//! always planar, stays inside one face, and touches only the clusters whose
//! seeded exponential start times reach the flipped edge — so a mutation costs
//! milliseconds where a rebuild costs the full build time.

use planar_subiso::{MutationError, Pattern, Psi, PsiError, PsiIndex, UpdateStats};
use std::time::Instant;

fn main() {
    let (w, h) = (200usize, 200usize);
    let embedding = psi_planar::generators::grid_embedded(w, h);

    let t = Instant::now();
    let mut psi = Psi::builder()
        .k(4)
        .rounds(3)
        .open_embedded(&embedding)
        .expect("generator embedding rejected");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "opened live engine: n = {}, m = {} in {build_ms:.1} ms",
        psi.num_vertices(),
        psi.num_edges()
    );

    // A plain grid has 4-cycles but no triangles — until we insert a diagonal.
    let c4 = Pattern::cycle(4);
    let triangle = Pattern::triangle();
    assert!(psi.decide(&c4).expect("C4 fits the engine"));
    assert!(!psi.decide(&triangle).expect("triangle fits the engine"));

    // Insert one cell diagonal: the two endpoints share the cell's face, so the
    // embedding update is a single face split; only the clusters that can reach
    // the edge are marked dirty, and their members are relabelled by the next
    // query (or an explicit `flush`).
    let (u, v) = ((10 * w + 10) as u32, (11 * w + 11) as u32);
    let t = Instant::now();
    let stats: UpdateStats = psi.insert_edge(u, v).expect("diagonal insert rejected");
    println!(
        "insert_edge({u}, {v}): {:.3} ms, {} clusters affected, backlog {}, re-embedded: {}",
        t.elapsed().as_secs_f64() * 1e3,
        stats.affected_clusters,
        stats.dirty_clusters,
        stats.reembedded
    );
    let t = Instant::now();
    let relabelled = psi.flush();
    println!(
        "flush: {} clusters relabelled in {:.3} ms",
        relabelled,
        t.elapsed().as_secs_f64() * 1e3
    );
    assert!(psi.decide(&triangle).expect("triangle fits the engine"));

    // Delete it again: the triangle disappears with it.
    let t = Instant::now();
    let stats = psi.delete_edge(u, v).expect("inserted diagonal missing");
    println!(
        "delete_edge({u}, {v}): {:.3} ms, {} clusters affected, backlog {}",
        t.elapsed().as_secs_f64() * 1e3,
        stats.affected_clusters,
        stats.dirty_clusters
    );
    assert!(!psi.decide(&triangle).expect("triangle fits the engine"));

    // Planarity is a hard gate: an edge whose insertion would create a K5 or
    // K3,3 subdivision is rejected with a verifiable certificate and the engine
    // is left exactly as it was. Two interior vertices two cells apart share no
    // face of the grid, so the chord between them is non-planar; the engine
    // finds the witness in a small ball around the edge.
    let (a, b) = ((10 * w + 10) as u32, (12 * w + 12) as u32);
    let edges_before = psi.num_edges();
    let would_be = {
        let mut g = psi_graph::GraphBuilder::new(psi.num_vertices());
        g.extend_edges(psi.dynamic().target_csr().edges());
        g.add_edge(a, b);
        g.build()
    };
    let t = Instant::now();
    let refusal = psi.insert_edge(a, b);
    let reject_ms = t.elapsed().as_secs_f64() * 1e3;
    match refusal {
        Err(PsiError::Mutation(MutationError::NonPlanar(witness)))
            if witness.verify(&would_be) && !psi.has_edge(a, b) =>
        {
            println!("insert_edge({a}, {b}) refused in {reject_ms:.3} ms: {witness} (verified)");
        }
        other => {
            eprintln!(
                "insert_edge({a}, {b}): expected a verified non-planar refusal, got {other:?}"
            );
            std::process::exit(1);
        }
    }
    assert_eq!(psi.num_edges(), edges_before);

    // Sustained churn: walk a diagonal of cells, inserting and deleting, with a
    // decide every few mutations — the serve-while-mutating loop.
    let mutations = 64usize;
    let t = Instant::now();
    for i in 0..mutations / 2 {
        let (r, c) = (3 * i % (h - 2), (5 * i + 7) % (w - 2));
        let (a, b) = ((r * w + c) as u32, ((r + 1) * w + c + 1) as u32);
        psi.insert_edge(a, b).expect("diagonal insert rejected");
        psi.delete_edge(a, b).expect("inserted diagonal missing");
        if i % 8 == 7 {
            assert!(psi.decide(&c4).expect("C4 fits the engine"));
        }
    }
    let churn_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "churn: {mutations} mutations in {churn_ms:.1} ms ({:.3} ms/mutation vs {build_ms:.1} ms per rebuild)",
        churn_ms / mutations as f64
    );

    // Freeze: the mutated engine serialises to exactly the bytes a from-scratch
    // build of the same graph produces — the artifact contract of the repo.
    // (Freezing canonicalises the faces through the LR engine, so the scratch
    // build must start from the same canonical embedding, not the
    // generator-native one.)
    let frozen = psi.freeze();
    let canonical = psi_planar::planar_embedding(psi.dynamic().target_csr())
        .expect("live target is planar by construction");
    let scratch = PsiIndex::build(&canonical, psi.params());
    assert_eq!(
        frozen.to_bytes(),
        scratch.to_bytes(),
        "incremental result must be bit-identical to a rebuild"
    );
    println!(
        "freeze: {} bytes, bit-identical to a from-scratch rebuild",
        frozen.to_bytes().len()
    );
}
