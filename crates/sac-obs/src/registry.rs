//! Named metric registry with Prometheus text exposition.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a mutex and returns an
//! `Arc` handle; callers register once at construction and record through
//! the handle with plain atomic ops — the lock is never on the hot path.
//! Re-registering the same `(name, labels)` returns the existing instrument,
//! so independent components can share a series.
//!
//! A value its owner already keeps (a ring's length, the served epoch, a
//! replica's applied epoch) is registered as a *reader*
//! (`counter_fn`/`gauge_fn`) and read from the owner at render time, so
//! every series has exactly one value behind it.

use crate::histogram::Histogram;
use crate::window::WindowedHistogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (wait-free `inc`/`add`).
///
/// ```
/// use sac_obs::Counter;
///
/// let c = Counter::default();
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
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

/// A gauge: a value that can go up and down (e.g. pending mutations).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Reads a series' value from its owner at render time.
type Reader = dyn Fn() -> u64 + Send + Sync;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// A `"counter"` or `"gauge"` read from its owner.
    Read(&'static str, Arc<Reader>),
    Histogram(Arc<Histogram>),
    Windowed(Arc<WindowedHistogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    /// Rendered `{key="value",…}` suffix ("" for unlabelled series).
    labels: String,
    instrument: Instrument,
}

/// A registry of named instruments, renderable as Prometheus-compatible
/// text exposition (the `GET /metrics` payload).
///
/// Series identity is `(name, labels)`; registering the same series twice
/// returns the same underlying instrument. Names should follow Prometheus
/// conventions (`snake_case`, unit suffix such as `_micros` or `_total`).
///
/// The registry carries the timings switch: one built
/// [`MetricsRegistry::with_timings`]`(false)` hands out silent histograms,
/// while its counters and gauges count as usual.
///
/// ```
/// use sac_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter("cache_hits_total", "Cache hits", &[("kind", "exact")]);
/// hits.add(41);
/// registry.counter("cache_hits_total", "Cache hits", &[("kind", "exact")]).inc();
/// let text = registry.render_prometheus();
/// assert!(text.contains("# TYPE cache_hits_total counter"));
/// assert!(text.contains("cache_hits_total{kind=\"exact\"} 42"));
/// ```
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
    /// Whether the histograms handed out record.
    timings: bool,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::with_timings(true)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.lock().len())
            .finish()
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Prometheus label values escape backslash, quote and newline.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl MetricsRegistry {
    /// Creates an empty registry whose histograms record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry; with `timings == false` every histogram
    /// and windowed histogram it hands out is silent (recording is a no-op,
    /// so [`crate::Span`]s over them only time), while counters and gauges
    /// count as usual.
    pub fn with_timings(timings: bool) -> Self {
        MetricsRegistry {
            entries: Mutex::new(Vec::new()),
            timings,
        }
    }

    /// Whether the histograms this registry hands out record.
    pub fn timings(&self) -> bool {
        self.timings
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        // A panicked registrant cannot corrupt the Vec in a way that matters
        // for exposition; recover instead of wedging the metrics endpoint.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn get_or_insert<T: ?Sized, F: FnOnce() -> Instrument, G: Fn(&Instrument) -> Option<Arc<T>>>(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: F,
        project: G,
    ) -> Arc<T> {
        let labels = render_labels(labels);
        let mut entries = self.lock();
        if let Some(existing) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            if let Some(found) = project(&existing.instrument) {
                return found;
            }
            panic!("metric {name}{labels} re-registered with a different type");
        }
        let instrument = make();
        let found = project(&instrument).expect("freshly made instrument has the right type");
        entries.push(Entry {
            name,
            help,
            labels,
            instrument,
        });
        found
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::default())),
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::default())),
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers the counter `name{labels}` whose value `read` returns from
    /// its owner at render time; the first registration of a series wins.
    /// `read` runs under the registry lock, so it must not register.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.reader("counter", name, help, labels, Arc::new(read));
    }

    /// Registers the gauge `name{labels}` whose value `read` returns from
    /// its owner at render time (see [`MetricsRegistry::counter_fn`]).
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.reader("gauge", name, help, labels, Arc::new(read));
    }

    fn reader(
        &self,
        kind: &'static str,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        read: Arc<Reader>,
    ) {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Read(kind, read),
            |i| match i {
                Instrument::Read(k, f) if *k == kind => Some(Arc::clone(f)),
                _ => None,
            },
        );
    }

    /// Returns (registering on first use) the histogram `name{labels}`
    /// (silent when the registry was built without timings).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::with_recording(self.timings))),
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Returns (registering on first use) the **windowed** histogram
    /// `name{labels}` — a rotating ring of `windows × width_micros` windows
    /// whose merged recent view is rendered as a Prometheus `summary`
    /// (`quantile` label series plus `_sum`/`_count`, and the non-standard
    /// `_max` and `_qps` helpers). The window geometry of an already
    /// registered series wins; later geometries are ignored. Silent when
    /// the registry was built without timings.
    pub fn windowed_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        windows: usize,
        width_micros: u64,
    ) -> Arc<WindowedHistogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            || {
                Instrument::Windowed(Arc::new(WindowedHistogram::with_recording(
                    windows,
                    width_micros,
                    self.timings,
                )))
            },
            |i| match i {
                Instrument::Windowed(w) => Some(Arc::clone(w)),
                _ => None,
            },
        )
    }

    /// Renders every registered series as Prometheus text exposition
    /// (version 0.0.4): `# HELP`/`# TYPE` headers once per metric name,
    /// histograms as cumulative `_bucket{le="…"}` series plus `_sum`,
    /// `_count` and a non-standard-but-handy `_max`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.lock();
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for entry in entries.iter() {
            if !seen.contains(&entry.name) {
                seen.push(entry.name);
                let kind = match entry.instrument {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Read(kind, _) => kind,
                    Instrument::Histogram(_) => "histogram",
                    Instrument::Windowed(_) => "summary",
                };
                let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
                let _ = writeln!(out, "# TYPE {} {kind}", entry.name);
            }
            match &entry.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", entry.name, entry.labels, c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", entry.name, entry.labels, g.get());
                }
                Instrument::Read(_, read) => {
                    let _ = writeln!(out, "{}{} {}", entry.name, entry.labels, read());
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let bounds = crate::histogram::bucket_bounds();
                    // Bucket labels compose with the series labels: splice
                    // `le` into the existing {...} set (or open a new one).
                    let prefix = if entry.labels.is_empty() {
                        format!("{}_bucket{{", entry.name)
                    } else {
                        format!(
                            "{}_bucket{},",
                            entry.name,
                            &entry.labels[..entry.labels.len() - 1]
                        )
                    };
                    let mut cumulative = 0u64;
                    for (i, &n) in snap.buckets().iter().enumerate() {
                        if n == 0 && i + 1 < snap.buckets().len() {
                            continue; // sparse: skip empty finite buckets
                        }
                        cumulative = snap.buckets()[..=i].iter().sum();
                        let le = if i < bounds.len() {
                            bounds[i].to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        let _ = writeln!(out, "{prefix}le=\"{le}\"}} {cumulative}");
                    }
                    debug_assert_eq!(cumulative, snap.count());
                    let _ = writeln!(out, "{}_sum{} {}", entry.name, entry.labels, snap.sum());
                    let _ = writeln!(out, "{}_count{} {}", entry.name, entry.labels, snap.count());
                    let _ = writeln!(out, "{}_max{} {}", entry.name, entry.labels, snap.max());
                }
                Instrument::Windowed(w) => {
                    let snap = w.snapshot();
                    // Quantile labels compose with the series labels the
                    // same way histogram `le` labels do.
                    let prefix = if entry.labels.is_empty() {
                        format!("{}{{", entry.name)
                    } else {
                        format!("{}{},", entry.name, &entry.labels[..entry.labels.len() - 1])
                    };
                    for q in [0.5f64, 0.95, 0.99, 0.999] {
                        let _ = writeln!(
                            out,
                            "{prefix}quantile=\"{q}\"}} {}",
                            snap.histogram.percentile(q)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        entry.name,
                        entry.labels,
                        snap.histogram.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        entry.name,
                        entry.labels,
                        snap.histogram.count()
                    );
                    let _ = writeln!(
                        out,
                        "{}_max{} {}",
                        entry.name,
                        entry.labels,
                        snap.histogram.max()
                    );
                    let _ = writeln!(out, "{}_qps{} {:.3}", entry.name, entry.labels, snap.qps());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_identity_is_name_plus_labels() {
        let r = MetricsRegistry::new();
        let a = r.counter("hits_total", "h", &[("tier", "interactive")]);
        let b = r.counter("hits_total", "h", &[("tier", "interactive")]);
        let c = r.counter("hits_total", "h", &[("tier", "batch")]);
        a.inc();
        b.inc();
        c.add(5);
        assert_eq!(a.get(), 2, "same series shares the instrument");
        assert_eq!(c.get(), 5);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x", "x", &[]);
        let _ = r.gauge("x", "x", &[]);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = MetricsRegistry::new();
        r.counter("q_total", "Queries", &[("tier", "batch")]).add(3);
        r.gauge("pending", "Pending ops", &[]).set(-2);
        let h = r.histogram("lat_micros", "Latency", &[("tier", "batch")]);
        h.record(5);
        h.record(5);
        h.record(1_000);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP q_total Queries\n# TYPE q_total counter"));
        assert!(text.contains("q_total{tier=\"batch\"} 3\n"));
        assert!(text.contains("pending -2\n"));
        // Cumulative buckets, le spliced into the label set.
        assert!(text.contains("lat_micros_bucket{tier=\"batch\",le=\"6\"} 2\n"));
        assert!(text.contains("lat_micros_bucket{tier=\"batch\",le=\"1024\"} 3\n"));
        assert!(text.contains("lat_micros_bucket{tier=\"batch\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_micros_sum{tier=\"batch\"} 1010\n"));
        assert!(text.contains("lat_micros_count{tier=\"batch\"} 3\n"));
        assert!(text.contains("lat_micros_max{tier=\"batch\"} 1000\n"));
        // HELP/TYPE emitted once per name even with many series.
        r.counter("q_total", "Queries", &[("tier", "interactive")])
            .inc();
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE q_total counter").count(), 1);
    }

    #[test]
    fn windowed_summary_rendering_shape() {
        let r = MetricsRegistry::new();
        let w = r.windowed_histogram(
            "win_micros",
            "Windowed latency",
            &[("tier", "batch")],
            10,
            60_000_000,
        );
        w.record_at(10, 100);
        w.record_at(20, 3_000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE win_micros summary"));
        assert!(text.contains("win_micros{tier=\"batch\",quantile=\"0.5\"} 128\n"));
        assert!(text.contains("win_micros{tier=\"batch\",quantile=\"0.999\"} 3000\n"));
        assert!(text.contains("win_micros_sum{tier=\"batch\"} 3100\n"));
        assert!(text.contains("win_micros_count{tier=\"batch\"} 2\n"));
        assert!(text.contains("win_micros_max{tier=\"batch\"} 3000\n"));
        assert!(text.contains("win_micros_qps{tier=\"batch\"} "));
        // Re-registering returns the same ring; the first geometry wins.
        let again =
            r.windowed_histogram("win_micros", "Windowed latency", &[("tier", "batch")], 3, 1);
        assert_eq!(again.windows(), 10);
        // An unlabelled windowed series opens its own label set.
        r.windowed_histogram("bare_micros", "Unlabelled", &[], 2, 60_000_000)
            .record_at(1, 7);
        let text = r.render_prometheus();
        assert!(text.contains("bare_micros{quantile=\"0.99\"} 7\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            render_labels(&[("plan", "a\"b\\c\nd")]),
            "{plan=\"a\\\"b\\\\c\\nd\"}"
        );
    }
}
