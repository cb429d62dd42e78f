//! Planar vertex connectivity: classify a zoo of embedded planar graphs and show the
//! witness cuts (Section 5 of the paper).
//!
//! Every answer is checked against Dinic max-flow and every cut with
//! `is_vertex_cut`; the example exits with status 1 if one disagrees.
//!
//! Run with: `cargo run --release --example vertex_connectivity`

use planar_subiso::connectivity::is_vertex_cut;
use planar_subiso::{vertex_connectivity, ConnectivityMode};
use psi_baselines::flow_vertex_connectivity;
use psi_planar::generators as pg;
use std::time::Instant;

fn main() {
    let cases: Vec<(&str, psi_planar::Embedding)> = vec![
        ("path P6 (has a cut vertex)", {
            let g = psi_graph::generators::path(6);
            psi_planar::Embedding::new(g, vec![vec![0, 1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1, 0]])
        }),
        ("cycle C12", pg::cycle_embedded(12)),
        ("wheel W10", pg::wheel_embedded(10)),
        ("cube", pg::cube()),
        ("octahedron", pg::octahedron()),
        ("double wheel (rim 10)", pg::double_wheel(10)),
        (
            "random triangulation n=24",
            pg::stacked_triangulation_embedded(24, 5),
        ),
        ("icosahedron", pg::icosahedron()),
        ("geodesic sphere n=42", pg::geodesic_sphere(1)),
    ];

    println!(
        "{:<28} {:>4} {:>14} {:>10} {:>24}",
        "graph", "n", "connectivity", "time [ms]", "witness cut"
    );
    let mut failures = 0;
    for (name, embedding) in cases {
        let start = Instant::now();
        let result = vertex_connectivity(&embedding, ConnectivityMode::WholeGraph, 1);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let cut = if result.cut.is_empty() {
            "-".to_string()
        } else {
            format!("{:?}", result.cut)
        };
        println!(
            "{:<28} {:>4} {:>14} {:>10.3} {:>24}",
            name,
            embedding.graph.num_vertices(),
            result.connectivity,
            ms,
            cut
        );
        let flow = flow_vertex_connectivity(&embedding.graph, 6);
        if result.connectivity != flow {
            eprintln!(
                "{name}: connectivity {} but max-flow says {flow}",
                result.connectivity
            );
            failures += 1;
        }
        // Every non-complete graph has a cut; the reported one must be real.
        let n = embedding.graph.num_vertices();
        let complete = embedding.graph.num_edges() == n * (n - 1) / 2;
        if !complete
            && (result.cut.len() != result.connectivity
                || !is_vertex_cut(&embedding.graph, &result.cut))
        {
            eprintln!(
                "{name}: {:?} is not a vertex cut of size {}",
                result.cut, result.connectivity
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} answer(s) disagree with the baselines");
        std::process::exit(1);
    }
}
