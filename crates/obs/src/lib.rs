//! `psi_obs` — the observability layer of the planar subgraph-isomorphism engine.
//!
//! Three deliberately dependency-free pillars (the workspace is offline; every
//! external crate is a vendored shim, so this crate uses `std` only):
//!
//! * [`trace`] — structured spans ([`span!`] / [`event!`]) recorded into
//!   per-thread ring buffers behind a global atomic gate. Disabled cost is a
//!   single relaxed load; enabled spans nest across the engine's real call tree
//!   (planarity embed → cover shards → per-batch DP → flush publish → snapshot
//!   reads) and export as chrome://tracing trace-event JSON.
//! * [`metrics`] — counters, gauges, and log-bucketed latency histograms behind
//!   one [`MetricsRegistry`], with export-time *sources* for statistics the
//!   engine layers already aggregate (arena, separating-DP, cover, work-stealing
//!   pool). Exported as Prometheus-style text.
//! * [`json`] — the JSON writer/parser: chrome-trace export and validation of
//!   both export formats without external dependencies.
//!
//! The facade (`Psi::metrics()` / `Psi::trace_export()` in `planar_subiso`)
//! composes these into the user-visible surface.

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::{JsonWriter, Value};
pub use metrics::{registry, Counter, Gauge, Histogram, MetricsRegistry, Sample};
pub use trace::{
    chrome_trace_json, enabled as tracing_enabled, set_enabled as set_tracing, SpanGuard,
    SpanRecord,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99, max) = h.percentiles();
        assert_eq!(max, 1000);
        // Log buckets resolve to a factor of two.
        assert!((256..=1000).contains(&p50), "p50 = {p50}");
        assert!(p95 >= p50 && p99 >= p95 && max >= p99);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::default();
        assert_eq!(h.percentiles(), (0, 0, 0, 0));
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_roundtrip_through_prometheus() {
        let reg = MetricsRegistry::new();
        reg.counter("psi_test_total").add(42);
        reg.gauge("psi_test_depth").set(7);
        reg.histogram("psi_test_latency_ns").record(1234);
        reg.register_source("test", |out| {
            out.push(Sample::new("psi_test_source", 3.0));
        });
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE psi_test_total counter\npsi_test_total 42\n"));
        assert!(text.contains("psi_test_depth 7\n"));
        assert!(text.contains("psi_test_latency_ns_count 1\n"));
        assert!(text.contains("psi_test_source 3\n"));
    }

    #[test]
    fn span_gate_and_nesting() {
        // The tracing gate is process-global; this is the only test in this
        // crate that toggles it.
        trace::clear();
        set_tracing(false);
        {
            let _off = span!("off.outer", n = 1u64);
        }
        assert!(trace::snapshot_spans()
            .iter()
            .all(|s| s.name != "off.outer"));
        set_tracing(true);
        {
            let mut outer = span!("t.outer", n = 3u64);
            {
                let _inner = span!("t.inner");
            }
            outer.field("late", 9);
            event!("t.marker", k = 1u64);
        }
        set_tracing(false);
        let spans = trace::snapshot_spans();
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        let marker = spans.iter().find(|s| s.name == "t.marker").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(marker.instant);
        assert!(outer.fields().contains(&("n", 3)));
        assert!(outer.fields().contains(&("late", 9)));
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        let json = chrome_trace_json();
        let value = json::parse(&json).expect("chrome trace must be valid JSON");
        assert!(value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
        trace::clear();
    }

    #[test]
    fn json_writer_and_parser_agree() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("s");
        w.string("a\"b\\c\n");
        w.key("n");
        w.u64(42);
        w.key("f");
        w.f64(1.5, 3);
        w.key("arr");
        w.begin_array();
        w.i64(-1);
        w.bool(true);
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("a\"b\\c\n"));
        assert_eq!(v.get("n").and_then(|n| n.as_f64()), Some(42.0));
        assert_eq!(v.get("f").and_then(|f| f.as_f64()), Some(1.5));
        assert_eq!(
            v.get("arr").and_then(|a| a.as_array()).map(|a| a.len()),
            Some(2)
        );
    }
}
