//! The host-speed gauge. The reference host is a shared virtual machine whose
//! speed drifts over minutes, and every timing of a run moves with it: in one
//! ten-run set, four runs in a slow spell read 20–25% slower on compute-bound
//! operations (hits, the separating DP) and 40–75% slower on memory-bound
//! ones (snapshot reads, edits, the slowest s–t flows). So an untraced run
//! also times two fixed kernels, a dependent walk through a 4 MiB cycle
//! (memory latency) and a sort of 64 Ki shuffled keys (branchy core work),
//! in short bursts between its slices, and divides each timing it reports by
//! the geometric mean of the two kernels' slow-downs against their nominal
//! times. The kernels are the benchmark's own code and share nothing with the
//! engine, so an engine change moves the reported timings and leaves the
//! gauge where it was. The raw timings and both factors are printed as
//! context.

use crate::gen::Rng;
use crate::stats::Samples;
use std::hint::black_box;
use std::time::Instant;

/// Slots of the walk: 4 MiB of `u32`, past the per-core L2, so each step
/// waits on the shared cache or memory the way the engine's graph walks do.
const SLOTS: usize = 1 << 20;

/// Walk steps and sorted keys of one tick of each kernel.
const STEPS: usize = 8_192;
const KEYS: usize = 65_536;

/// Ticks of each kernel per burst.
const TICKS: usize = 6;

/// Nominal tick of each kernel: rounded medians of early runs on the
/// reference host (2-vCPU Intel Xeon VM). A run whose ticks take this long
/// reports its timings unscaled; the values set the scale of the reported
/// timings, not their spread.
pub const NOMINAL_WALK_S: f64 = 0.93e-3;
pub const NOMINAL_SORT_S: f64 = 1.2e-3;

/// The two kernels and the tick times they have recorded.
pub struct Gauge {
    next: Vec<u32>,
    at: u32,
    keys: Vec<u32>,
    scratch: Vec<u32>,
    walk: Samples,
    sort: Samples,
}

impl Gauge {
    /// Builds the walk, one cycle through every slot (Sattolo's algorithm),
    /// and the keys to sort, from a fixed seed, so every run does the same
    /// work.
    pub fn new() -> Gauge {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut rng = Rng::new(0x6A06E);
        for i in (1..SLOTS).rev() {
            next.swap(i, rng.below(i));
        }
        let keys = (0..KEYS).map(|_| rng.next_u64() as u32).collect();
        Gauge {
            next,
            at: 0,
            keys,
            scratch: Vec::with_capacity(KEYS),
            walk: Samples::default(),
            sort: Samples::default(),
        }
    }

    /// One tick of each kernel.
    fn tick(&mut self) {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        self.walk.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        self.sort.push(t.elapsed().as_secs_f64());
    }

    /// Times one burst of ticks.
    pub fn burst(&mut self) {
        for _ in 0..TICKS {
            self.tick();
        }
    }

    pub fn ticks(&self) -> usize {
        self.walk.len()
    }

    /// Slow-down of the walk and of the sort against nominal: each kernel's
    /// median tick over the bursts so far divided by its nominal.
    pub fn factors(&self) -> (f64, f64) {
        (
            self.walk.median() / NOMINAL_WALK_S,
            self.sort.median() / NOMINAL_SORT_S,
        )
    }

    /// How much slower than nominal the host ran: the geometric mean of the
    /// two kernels' slow-downs.
    pub fn factor(&self) -> f64 {
        let (walk, sort) = self.factors();
        (walk * sort).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let g = Gauge::new();
        let (mut at, mut steps) = (g.next[0], 1usize);
        while at != 0 {
            at = g.next[at as usize];
            steps += 1;
            assert!(steps <= SLOTS, "the walk closed early or never");
        }
        assert_eq!(steps, SLOTS);
    }

    #[test]
    fn bursts_record_ticks_and_a_positive_factor() {
        let mut g = Gauge::new();
        g.burst();
        g.burst();
        assert_eq!(g.ticks(), 2 * TICKS);
        let (walk, sort) = g.factors();
        assert!(walk > 0.0 && sort > 0.0);
        assert!((g.factor() - (walk * sort).sqrt()).abs() < 1e-12);
        assert!(g.scratch.windows(2).all(|w| w[0] <= w[1]));
    }
}
