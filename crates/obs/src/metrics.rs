//! Metrics registry: counters, gauges, and log-bucketed latency histograms behind
//! one [`MetricsRegistry`], exported as Prometheus-style text exposition.
//!
//! Instruments are created (or fetched) by name from the registry and shared as
//! `Arc`s, so a hot path resolves its counter once and then pays one relaxed
//! atomic op per update. Layers that already aggregate their own statistics
//! (`ArenaStats`, `SepStats`, `CoverStats`, ... in the engine) register a *source*
//! — a closure sampled at export time — instead of double-counting into live
//! instruments.
//!
//! All counter arithmetic is saturating: a metric pegging at `u64::MAX` is a
//! better failure mode than a wrapped counter silently reporting a tiny value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    /// Saturating add (CAS loop; counters are not contended enough for this to
    /// matter, and saturation beats wraparound for telemetry).
    pub fn add(&self, delta: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(delta))
            });
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (cache sizes, queue depths, epochs).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets; covers [1ns, ~2^63 ns), i.e. everything.
const HISTOGRAM_BUCKETS: usize = 64;

/// A log-bucketed histogram of `u64` samples (conventionally nanoseconds).
/// Bucket `i` counts samples `v` with `floor(log2(max(v,1))) == i`; quantiles are
/// therefore resolved to within a factor of two, which is ample for latency
/// percentiles spanning nanoseconds to seconds.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, value: u64) {
        let bucket = 63 - (value | 1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), or 0 for an empty histogram. Clamped to the observed
    /// maximum so `quantile(1.0) == max()`.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(bucket.load(Ordering::Relaxed));
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return upper.min(self.max());
            }
        }
        self.max()
    }

    /// (p50, p95, p99, max) in the histogram's sample unit.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max(),
        )
    }
}

/// One sample reported by a registered source at export time.
pub struct Sample {
    pub name: String,
    pub value: f64,
}

impl Sample {
    pub fn new(name: impl Into<String>, value: f64) -> Sample {
        Sample {
            name: name.into(),
            value,
        }
    }
}

type SourceFn = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// The registry: named instruments plus export-time sources. Everything is
/// `Send + Sync`; instruments are shared out as `Arc`s so callers cache the
/// lookup outside their hot loops.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    sources: Mutex<BTreeMap<String, SourceFn>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fetches (creating on first use) the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Registers (or replaces) a named source sampled at export time. Sources
    /// export gauges; use them to surface statistics a layer already aggregates
    /// elsewhere, so the numbers are never counted twice.
    pub fn register_source(
        &self,
        name: &str,
        source: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static,
    ) {
        self.sources
            .lock()
            .unwrap()
            .insert(name.to_string(), Box::new(source));
    }

    /// Renders the Prometheus text exposition format: counters as `counter`,
    /// gauges and source samples as `gauge`, histograms as `summary` quantiles
    /// (p50/p95/p99) plus `_sum` / `_count` / `_max` series.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, counter) in self.counters.lock().unwrap().iter() {
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                counter.get()
            ));
        }
        for (name, gauge) in self.gauges.lock().unwrap().iter() {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", gauge.get()));
        }
        for (name, histogram) in self.histograms.lock().unwrap().iter() {
            let (p50, p95, p99, max) = histogram.percentiles();
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}{{quantile=\"0.5\"}} {p50}\n"));
            out.push_str(&format!("{name}{{quantile=\"0.95\"}} {p95}\n"));
            out.push_str(&format!("{name}{{quantile=\"0.99\"}} {p99}\n"));
            out.push_str(&format!("{name}_sum {}\n", histogram.sum()));
            out.push_str(&format!("{name}_count {}\n", histogram.count()));
            out.push_str(&format!("{name}_max {max}\n"));
        }
        let mut samples = Vec::new();
        for source in self.sources.lock().unwrap().values() {
            source(&mut samples);
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        for sample in samples {
            let value = if sample.value.fract() == 0.0 && sample.value.abs() < 1e15 {
                format!("{}", sample.value as i64)
            } else {
                format!("{}", sample.value)
            };
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {value}\n",
                name = sample.name
            ));
        }
        out
    }
}

/// The process-global registry the engine's facade exports. Libraries may also
/// instantiate private registries; everything in this workspace uses the global
/// one so `Psi::metrics()` sees all layers.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}
