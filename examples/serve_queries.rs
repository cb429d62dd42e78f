//! Build-once / serve-many through the [`Psi`] facade: construct (or load) an
//! index artifact file, then answer a mixed batch of pattern and s–t connectivity
//! queries against it, printing per-query latency percentiles.
//!
//! Run with: `cargo run --release --example serve_queries [index-file]`
//!
//! Without an argument the example builds an index over a 100×100 triangulated grid,
//! saves it to a temp file, loads it back (exercising the full artifact round trip),
//! and serves from the loaded copy — the same lifecycle a long-running service uses:
//! an offline build job writes the artifact once, query servers `Psi::load` and serve.

use planar_subiso::{IndexParams, Pattern, Psi, PsiError, QueryError};
use std::time::Instant;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn build_default_artifact(path: &std::path::Path) {
    let embedding = psi_planar::generators::triangulated_grid_embedded(100, 100);
    println!(
        "building index: n = {}, m = {}, params = {:?}",
        embedding.graph.num_vertices(),
        embedding.graph.num_edges(),
        IndexParams::default()
    );
    let t = Instant::now();
    let mut psi = Psi::builder()
        .open_embedded(&embedding)
        .expect("generator embedding rejected");
    println!("  built in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    psi.save(path).expect("write index artifact");
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "  saved {:.1} MiB in {:.1} ms -> {}",
        bytes as f64 / (1 << 20) as f64,
        t.elapsed().as_secs_f64() * 1e3,
        path.display()
    );
}

fn main() {
    let path = std::env::args().nth(1).map(std::path::PathBuf::from);
    let path = match path {
        Some(p) => p,
        None => {
            let p = std::env::temp_dir().join("psi_serve_queries.psi");
            build_default_artifact(&p);
            p
        }
    };

    // Serve phase: load is validation + thawing, not re-derivation.
    let t = Instant::now();
    let mut psi = match Psi::load(&path) {
        Ok(psi) => psi,
        Err(e) => {
            eprintln!("cannot load index artifact: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "loaded index over n = {} in {:.1} ms ({} rounds)",
        psi.num_vertices(),
        t.elapsed().as_secs_f64() * 1e3,
        psi.params().rounds,
    );

    let n = psi.num_vertices() as u32;

    // A mixed workload: pattern queries (positive, negative, and unservable) plus
    // s–t connectivity pairs spread across the target. Negative queries search
    // from every target vertex (no early exit), so the mix carries exactly one of
    // them — they dominate the tail latency, which is the point of reporting
    // percentiles.
    let patterns: Vec<Pattern> = (0..120)
        .map(|i| match i {
            3 => Pattern::clique(4), // absent from triangulated grids: full scan
            7 => Pattern::clique(5), // exceeds the index's k: structured admission error
            _ => match i % 4 {
                0 => Pattern::cycle(4),
                1 => Pattern::triangle(),
                2 => Pattern::star(4),
                _ => Pattern::path(3),
            },
        })
        .collect();
    let pairs: Vec<(u32, u32)> = (0..200u32)
        .map(|i| (i * 37 % n, (i * 101 + n / 2) % n))
        .filter(|(s, t)| s != t)
        .collect();

    // Batch front end: one call, answers in input order, parallel underneath.
    let t = Instant::now();
    let verdicts = psi.decide_batch(&patterns);
    let batch_ms = t.elapsed().as_secs_f64() * 1e3;
    let yes = verdicts.iter().filter(|v| matches!(v, Ok(true))).count();
    let no = verdicts.iter().filter(|v| matches!(v, Ok(false))).count();
    let rejected = verdicts.iter().filter(|v| v.is_err()).count();
    println!(
        "decide_batch: {} queries in {:.1} ms ({:.3} ms/query amortised): {yes} yes, {no} no, {rejected} rejected",
        patterns.len(),
        batch_ms,
        batch_ms / patterns.len() as f64
    );

    let t = Instant::now();
    let conns = psi.connectivity_batch(&pairs);
    let conn_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(conns.iter().all(|c| c.is_ok()));
    println!(
        "connectivity_batch: {} pairs in {:.1} ms ({:.3} ms/pair amortised)",
        pairs.len(),
        conn_ms,
        conn_ms / pairs.len() as f64
    );

    // Per-query latency distribution (scalar path, one timing sample per query).
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut errors = 0usize;
    for p in &patterns {
        let t = Instant::now();
        let r = psi.find_one(p);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(PsiError::Query(QueryError::PatternTooLarge { .. })) = r {
            // Unservable patterns fail fast with a structured error.
            errors += 1;
        }
    }
    for &(s, t_v) in &pairs {
        let t = Instant::now();
        let _ = psi.connectivity_batch(&[(s, t_v)]);
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "per-query latency over {} mixed queries ({} admission errors):",
        latencies_ms.len(),
        errors
    );
    for (label, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        println!("  {label}: {:.3} ms", percentile(&latencies_ms, p));
    }
    println!(
        "  max: {:.3} ms",
        latencies_ms.last().copied().unwrap_or(0.0)
    );

    // One witness, verified against the served target.
    if let Ok(Some(occ)) = psi.find_one(&Pattern::cycle(4)) {
        assert!(planar_subiso::verify_occurrence(
            &Pattern::cycle(4),
            psi.dynamic().target_csr(),
            &occ
        ));
        println!("C4 witness verified: {occ:?}");
    }
}
