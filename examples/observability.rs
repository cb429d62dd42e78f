//! The observability layer end to end: open an engine, put it under a mixed
//! mutate/query load with tracing on, then export what the engine saw —
//! Prometheus metrics text from [`Psi::metrics`] and a chrome://tracing
//! trace-event JSON from [`Psi::trace_export`].
//!
//! Run with: `cargo run --release --example observability [trace-file.json]`
//!
//! With an argument the chrome trace is written to that file; load it in
//! chrome://tracing (or Perfetto) to see the planarity embed, the cover
//! shards, the per-batch DP, and every flush publication on the real
//! thread/time axes. Without an argument a short excerpt is printed instead.

use planar_subiso::{ConnectivityMode, Pattern, Psi};
use psi_obs::trace;

fn main() {
    // Tracing is off by default: every instrumented site in the engine costs a
    // single relaxed atomic load until someone turns the gate on.
    Psi::set_tracing(true);

    // --- build ------------------------------------------------------------
    let embedding = psi_planar::generators::triangulated_grid_embedded(60, 60);
    let mut psi = Psi::builder()
        .open_embedded(&embedding)
        .expect("generator embedding rejected");
    println!(
        "engine open: n = {}, m = {}",
        psi.num_vertices(),
        psi.num_edges()
    );

    // --- load: queries, mutations, flushes, snapshot reads ----------------
    let patterns = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::path(3),
        Pattern::star(3),
    ];
    for p in &patterns {
        let verdict = psi.decide(p).expect("servable pattern");
        println!("decide {:>8}: {verdict}", format!("k={}", p.k()));
    }

    // Deleting a triangulation chord and putting it back dirties clusters and
    // exercises the mutate -> flush -> publish path the spans narrate.
    let (u, v) = (0u32, 61u32);
    psi.delete_edge(u, v).expect("chord delete rejected");
    psi.insert_edge(u, v).expect("chord re-insert rejected");
    let rebuilt = psi.flush();
    println!("flush rebuilt {rebuilt} cluster(s)");

    let snap = psi.snapshot();
    let hits = patterns
        .iter()
        .filter(|p| snap.decide(p).unwrap_or(false))
        .count();
    println!(
        "snapshot (epoch {}): {hits}/{} patterns present",
        snap.epoch(),
        patterns.len()
    );

    let conn = psi.vertex_connectivity(ConnectivityMode::Cover { repetitions: 2 }, 7);
    println!(
        "vertex connectivity: {} (cut witness {:?}, {} separating states explored)",
        conn.connectivity, conn.cut, conn.states_explored
    );

    // --- export 1: Prometheus metrics text --------------------------------
    // Counters, gauges, per-query latency summaries, and the layer/pool
    // sources, all from one registry.
    let metrics = psi.metrics();
    println!(
        "\n--- Psi::metrics() ({} lines), excerpt ---",
        metrics.lines().count()
    );
    for line in metrics.lines().filter(|l| {
        l.starts_with("psi_queries_total")
            || l.starts_with("psi_query_decide_ns{")
            || l.starts_with("psi_flushes_total")
            || l.starts_with("psi_flush_batches_rebuilt_total")
            || l.starts_with("psi_query_fallback_batches_total")
            || l.starts_with("psi_pool_steals_total")
    }) {
        println!("{line}");
    }

    // --- export 2: chrome://tracing trace-event JSON ----------------------
    let trace_json = psi.trace_export();
    Psi::set_tracing(false);
    psi_obs::json::parse(&trace_json).expect("trace export must be valid JSON");

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &trace_json).expect("write trace file");
            println!(
                "\nwrote {} KiB chrome trace to {path} (load it in chrome://tracing)",
                trace_json.len() / 1024
            );
        }
        None => {
            let spans = trace::snapshot_spans();
            println!(
                "\n--- Psi::trace_export(): {} spans recorded, slowest five ---",
                spans.len()
            );
            let mut by_cost: Vec<_> = spans.iter().filter(|s| !s.instant).collect();
            by_cost.sort_by_key(|s| std::cmp::Reverse(s.dur_us));
            for s in by_cost.iter().take(5) {
                println!(
                    "  {:<24} {:>8} us  (thread {}, depth {}, fields {:?})",
                    s.name,
                    s.dur_us,
                    s.tid,
                    s.depth,
                    s.fields()
                );
            }
            println!("(pass a filename to write the full trace for chrome://tracing)");
        }
    }
}
