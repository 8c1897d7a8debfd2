//! First-party observability primitives: atomic counters, gauges, and
//! fixed-bucket histograms behind a [`Registry`] that renders the
//! Prometheus text exposition format.
//!
//! No prometheus crate, matching the hand-rolled-HTTP ethos of the serve
//! crate: everything here is `std` atomics plus one mutex around the
//! registration table (never taken on the metric hot path). Handles are
//! cheap `Arc` clones — instrument a hot loop by cloning the handle once
//! and calling [`Counter::add`] / [`Histogram::observe`], which cost one
//! `fetch_add` (plus a bounded bucket scan for histograms).
//!
//! Two usage shapes:
//! - process-wide subsystems (the measurement pipeline) register in
//!   [`global()`], so any exporter in the process can render them;
//! - per-instance subsystems (one HTTP server among several in a test
//!   process) own a private `Registry` and render both, concatenated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; all increments use atomic RMW
/// (`fetch_add`), so concurrent updates are never lost.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic word).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not (yet) attached to any registry, initialized to 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default latency buckets in seconds: 50µs … 2.5s, a decade ladder wide
/// enough for both cache hits (~µs) and cold bootstrap routes (~100ms).
pub const LATENCY_SECONDS: &[f64] = &[
    50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5,
];

#[derive(Debug)]
struct HistogramInner {
    /// Finite upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// One cell per finite bound plus the `+Inf` cell.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram with p50/p90/p99 readout.
///
/// Buckets are chosen at construction and never change, so `observe` is
/// wait-free apart from the sum's CAS loop.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram over the given finite bucket bounds (must be strictly
    /// increasing and non-empty; a `+Inf` bucket is always appended).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one observation given as a [`std::time::Duration`].
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0 < q < 1`) by linear interpolation inside
    /// the bucket holding the target rank; observations in the `+Inf`
    /// bucket clamp to the largest finite bound. `None` before the first
    /// observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let inner = &self.0;
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, cell) in inner.buckets.iter().enumerate() {
            let in_bucket = cell.load(Ordering::Relaxed);
            if cum + in_bucket >= target {
                let hi = match inner.bounds.get(i) {
                    Some(&b) => b,
                    // +Inf bucket: clamp to the last finite bound.
                    None => return Some(*inner.bounds.last().expect("non-empty bounds")),
                };
                let lo = if i == 0 { 0.0 } else { inner.bounds[i - 1] };
                let into = (target - cum) as f64 / in_bucket.max(1) as f64;
                return Some(lo + (hi - lo) * into);
            }
            cum += in_bucket;
        }
        Some(*inner.bounds.last().expect("non-empty bounds"))
    }

    /// Cumulative `(upper_bound, count)` pairs, `+Inf` last — the shape
    /// the text format wants.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let inner = &self.0;
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(inner.buckets.len());
        for (i, cell) in inner.buckets.iter().enumerate() {
            cum += cell.load(Ordering::Relaxed);
            let bound = inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A named collection of metrics, rendered in the Prometheus text
/// exposition format (version 0.0.4).
///
/// Registration is idempotent: asking for an existing `(name, labels)`
/// pair returns a clone of the existing handle, so call sites never need
/// to coordinate "who registers first".
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Checks a metric or label name against the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`; labels without the colon).
fn valid_name(name: &str, allow_colon: bool) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let ok_first = first.is_ascii_alphabetic() || first == '_' || (allow_colon && first == ':');
    ok_first && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(valid_name(name, true), "bad metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k, false), "bad label name {k:?}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("metrics registry poisoned");
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
                let handle = series.handle.clone();
                let fresh = make();
                assert!(
                    handle.kind() == fresh.kind(),
                    "metric {name:?} re-registered as a different kind ({} vs {})",
                    handle.kind(),
                    fresh.kind(),
                );
                return handle;
            }
            let handle = make();
            family.series.push(Series {
                labels,
                handle: handle.clone(),
            });
            return handle;
        }
        let handle = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            series: vec![Series {
                labels,
                handle: handle.clone(),
            }],
        });
        handle
    }

    /// Registers (or fetches) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or fetches) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, || Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or fetches) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, || Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) an unlabeled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Registers (or fetches) a labeled histogram over `bounds`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.register(name, help, labels, || {
            Handle::Histogram(Histogram::new(bounds))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Renders every family in registration order as Prometheus text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("metrics registry poisoned");
        for family in families.iter() {
            if !family.help.is_empty() {
                out.push_str("# HELP ");
                out.push_str(&family.name);
                out.push(' ');
                out.push_str(&escape_help(&family.help));
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.series[0].handle.kind());
            out.push('\n');
            for series in &family.series {
                render_series(&mut out, &family.name, series);
            }
        }
        out
    }
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.handle {
        Handle::Counter(c) => {
            render_sample(out, name, &series.labels, None, &fmt_u64(c.get()));
        }
        Handle::Gauge(g) => {
            render_sample(out, name, &series.labels, None, &fmt_f64(g.get()));
        }
        Handle::Histogram(h) => {
            let bucket_name = format!("{name}_bucket");
            for (bound, cum) in h.cumulative_buckets() {
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    fmt_f64(bound)
                };
                render_sample(
                    out,
                    &bucket_name,
                    &series.labels,
                    Some(("le", &le)),
                    &fmt_u64(cum),
                );
            }
            render_sample(
                out,
                &format!("{name}_sum"),
                &series.labels,
                None,
                &fmt_f64(h.sum()),
            );
            render_sample(
                out,
                &format!("{name}_count"),
                &series.labels,
                None,
                &fmt_u64(h.count()),
            );
        }
    }
}

fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn fmt_u64(v: u64) -> String {
    v.to_string()
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral floats render without an exponent or trailing noise.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// The process-wide registry: subsystems without a natural owner (the
/// measurement pipeline) register here, and exporters render it
/// alongside their own.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_exact_under_contention() {
        let reg = Registry::new();
        let c = reg.counter("test_total", "help");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter_with("dup_total", "h", &[("k", "v")]);
        let b = reg.counter_with("dup_total", "h", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are a distinct series in the same family.
        let other = reg.counter_with("dup_total", "h", &[("k", "w")]);
        assert_eq!(other.get(), 0);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE dup_total counter").count(), 1);
        assert!(text.contains("dup_total{k=\"v\"} 3"));
        assert!(text.contains("dup_total{k=\"w\"} 0"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x_total", "h");
        let _ = reg.gauge("x_total", "h");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.5, 1.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.5).abs() < 1e-9);
        let cum = h.cumulative_buckets();
        assert_eq!(cum[0], (1.0, 1));
        assert_eq!(cum[1], (2.0, 3));
        assert_eq!(cum[2], (4.0, 4));
        assert_eq!(cum[3].1, 5);
        assert!(cum[3].0.is_infinite());
        // p50 lands in the (1, 2] bucket; +Inf observations clamp to 4.
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(0.99), Some(4.0));
    }

    #[test]
    fn histogram_renders_prometheus_shape() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat_seconds", "latency", &[("route", "x")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        let text = reg.render();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{route=\"x\",le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{route=\"x\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count{route=\"x\"} 2"));
        assert!(text.contains("lat_seconds_sum{route=\"x\"} 0.55"));
    }

    #[test]
    fn gauge_roundtrips_floats() {
        let g = Gauge::new();
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let _ = reg.counter_with("esc_total", "h", &[("k", "a\"b\\c\nd")]);
        assert!(reg.render().contains("esc_total{k=\"a\\\"b\\\\c\\nd\"} 0"));
    }
}
