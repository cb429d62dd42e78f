//! Shared helpers of the `experiments` binary (workload generators and small
//! utilities).

use planar_subiso::Pattern;
use psi_graph::CsrGraph;

/// The standard target-graph family of the experiments: a triangulated grid with
/// approximately `n` vertices (planar, diameter `Θ(√n)`).
pub fn target_with_n(n: usize) -> CsrGraph {
    let side = (n as f64).sqrt().ceil() as usize;
    psi_graph::generators::triangulated_grid(side.max(2), side.max(2))
}

/// The pattern set used by the Table 1 style comparisons.
pub fn table1_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("triangle", Pattern::triangle()),
        ("C4", Pattern::cycle(4)),
        ("P4", Pattern::path(4)),
        ("K4", Pattern::clique(4)),
    ]
}

/// The paper's headline instance size (the F3 sweep and `bench_cover` run up to it;
/// the sharded cover pipeline makes it affordable on a single core).
pub const MILLION: usize = 1_048_576;

/// Geometric size sweep used by the scaling experiments. `size_sweep(MILLION)` yields
/// `1024, 4096, …, 1048576` — million-vertex targets are generated directly in CSR
/// form by `psi_graph::generators`, so the sweep's top end is bounded by the DP, not
/// by graph construction.
pub fn size_sweep(max_n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut n = 1024usize;
    while n <= max_n {
        sizes.push(n);
        n *= 4;
    }
    sizes
}

/// Thread counts for the F8 strong-scaling sweep: powers of two up to the host's
/// available parallelism, but always at least up to 4 — oversubscription costs little
/// and proves the pool schedules real workers even on small hosts (CI pins the same
/// range via its `PSI_THREADS` matrix).
pub fn f8_thread_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let max_threads = cores.max(4);
    let mut sweep = Vec::new();
    let mut threads = 1usize;
    while threads <= max_threads {
        sweep.push(threads);
        threads *= 2;
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_magnitude() {
        let g = target_with_n(10_000);
        let n = g.num_vertices();
        assert!((10_000..11_000).contains(&n));
        assert_eq!(table1_patterns().len(), 4);
        assert_eq!(size_sweep(20_000), vec![1024, 4096, 16384]);
    }
}
