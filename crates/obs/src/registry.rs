//! A registry of live metric instruments under stable dotted names.
//!
//! The [`MetricsRegistry`] hands out cheap [`Counter`], [`Gauge`] and
//! [`Histogram`] handles (each a clone of an `Arc`'d atomic or
//! histogram) keyed by `(family name, label values)`. Registering the
//! same name and labels twice returns a handle to the *same*
//! instrument, so layers can re-resolve instead of threading handles
//! around.
//!
//! Label sets are **bounded**: each family caps its distinct label
//! combinations ([`DEFAULT_SERIES_CAP`] by default). Once a family is
//! full, new label combinations all share one reserved overflow series
//! whose every label value is `"other"`, and the registry counts the
//! spill in its own `gmc.obs.label.overflow` counter — a hostile or
//! buggy client can never grow metrics memory without bound. A label
//! set that is itself all `"other"` resolves to that same overflow
//! series, so the two can never render as one duplicated series.
//!
//! Scrape with [`MetricsRegistry::render_into`], which copies every
//! live instrument into a [`crate::Exposition`].

use crate::histogram::LatencyHistogram;
use crate::prometheus::Exposition;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default cap on distinct label combinations per family.
pub const DEFAULT_SERIES_CAP: usize = 64;

/// Name of the registry's own overflow counter (spilled label sets).
pub const OVERFLOW_COUNTER: &str = "gmc.obs.label.overflow";

/// The label value of every label of a family's overflow series.
pub const OVERFLOW_LABEL: &str = "other";

/// A monotone counter handle. Clones share the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding a `u64` (point-in-time value, may go down).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Clones share the underlying buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<LatencyHistogram>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> crate::HistogramSnapshot {
        self.0.snapshot()
    }
}

/// One live instrument (the registry's internal storage).
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A family of series sharing a name, help text, kind and label names.
#[derive(Debug)]
struct Family {
    help: String,
    kind: &'static str,
    label_names: Vec<String>,
    series: BTreeMap<Vec<String>, Instrument>,
    /// The shared spill series once `series` is at capacity.
    overflow: Option<Instrument>,
    cap: usize,
}

/// A thread-safe registry of live metric instruments. See the module
/// docs for the bounded-label-set semantics.
#[derive(Debug)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
    spilled: Counter,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            families: RwLock::new(BTreeMap::new()),
            spilled: Counter::default(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or re-resolves) a counter series.
    ///
    /// # Panics
    /// If `name` already exists with a different kind or label names —
    /// that is a programming error, not an input error.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Registers (or re-resolves) a gauge series. Panics on a kind or
    /// label-name mismatch, like [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Registers (or re-resolves) a histogram series. Panics on a kind
    /// or label-name mismatch, like [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, labels, || {
            Instrument::Histogram(Histogram::default())
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Total label combinations spilled into `other` series so far.
    pub fn spilled(&self) -> u64 {
        self.spilled.get()
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl Fn() -> Instrument,
    ) -> Instrument {
        let label_names: Vec<String> = labels.iter().map(|(k, _)| (*k).to_owned()).collect();
        let values: Vec<String> = labels.iter().map(|(_, v)| (*v).to_owned()).collect();
        let mut families = write_lock(&self.families);
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind: make().kind(),
            label_names: label_names.clone(),
            series: BTreeMap::new(),
            overflow: None,
            cap: DEFAULT_SERIES_CAP,
        });
        assert_eq!(
            family.kind,
            make().kind(),
            "metric {name} registered with two kinds"
        );
        assert_eq!(
            family.label_names, label_names,
            "metric {name} registered with two label-name sets"
        );
        if !values.is_empty() && values.iter().all(|v| v == OVERFLOW_LABEL) {
            return family.overflow.get_or_insert_with(make).clone();
        }
        if let Some(existing) = family.series.get(&values) {
            return existing.clone();
        }
        if family.series.len() >= family.cap {
            self.spilled.inc();
            return family.overflow.get_or_insert_with(make).clone();
        }
        family.series.entry(values).or_insert_with(make).clone()
    }

    /// Copies every live instrument (and the registry's own overflow
    /// counter, when nonzero) into `expo`.
    pub fn render_into(&self, expo: &mut Exposition) {
        let families = read_lock(&self.families);
        for (name, family) in families.iter() {
            let emit = |expo: &mut Exposition, values: &[String], instrument: &Instrument| {
                let labels: Vec<(&str, &str)> = family
                    .label_names
                    .iter()
                    .map(String::as_str)
                    .zip(values.iter().map(String::as_str))
                    .collect();
                match instrument {
                    Instrument::Counter(c) => {
                        expo.add_counter(name, &family.help, &labels, c.get())
                    }
                    Instrument::Gauge(g) => {
                        expo.add_gauge(name, &family.help, &labels, g.get() as f64)
                    }
                    Instrument::Histogram(h) => {
                        expo.add_histogram(name, &family.help, &labels, h.snapshot())
                    }
                }
            };
            for (values, instrument) in &family.series {
                emit(expo, values, instrument);
            }
            if let Some(overflow) = &family.overflow {
                let values: Vec<String> = family
                    .label_names
                    .iter()
                    .map(|_| OVERFLOW_LABEL.to_owned())
                    .collect();
                emit(expo, &values, overflow);
            }
        }
        drop(families);
        if self.spilled.get() > 0 {
            expo.add_counter(
                OVERFLOW_COUNTER,
                "Label combinations spilled into shared `other` series",
                &[],
                self.spilled.get(),
            );
        }
    }
}

/// Read-locks, recovering from poisoning (metric state stays valid
/// even if a panicking thread held the lock).
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-locks, recovering from poisoning.
fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_an_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("req.total", "requests", &[("class", "hit")]);
        let b = reg.counter("req.total", "requests", &[("class", "hit")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        let other = reg.counter("req.total", "requests", &[("class", "miss")]);
        other.inc();
        assert_eq!(other.get(), 1);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn label_sets_are_bounded_with_shared_overflow() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for i in 0..(DEFAULT_SERIES_CAP + 10) {
            handles.push(reg.counter("c.total", "c", &[("k", &format!("v{i}"))]));
        }
        for h in &handles {
            h.inc();
        }
        // The 10 spilled registrations share one instrument.
        assert_eq!(handles[DEFAULT_SERIES_CAP].get(), 10);
        assert_eq!(reg.spilled(), 10);
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        assert!(text.contains("c_total{k=\"other\"} 10"), "{text}");
        assert!(text.contains("gmc_obs_label_overflow 10"), "{text}");
    }

    #[test]
    fn explicit_other_labels_share_the_overflow_series() {
        let reg = MetricsRegistry::new();
        let explicit = reg.counter("c.total", "c", &[("k", "other")]);
        explicit.add(2);
        for i in 0..=DEFAULT_SERIES_CAP {
            reg.counter("c.total", "c", &[("k", &format!("v{i}"))])
                .inc();
        }
        // The one spilled registration and the explicit `other` share
        // one instrument, which renders once with both counts.
        assert_eq!(explicit.get(), 3);
        assert_eq!(reg.spilled(), 1);
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        let other: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("c_total{k=\"other\"}"))
            .collect();
        assert_eq!(other, ["c_total{k=\"other\"} 3"], "{text}");
        // Below the cap, an explicit `other` is still the overflow
        // series: the family's named series are untouched by it.
        let reg = MetricsRegistry::new();
        reg.counter("d.total", "d", &[("k", "other")]).inc();
        reg.counter("d.total", "d", &[("k", "v")]).inc();
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        assert!(text.contains("d_total{k=\"other\"} 1"), "{text}");
        assert!(text.contains("d_total{k=\"v\"} 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "registered with two kinds")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", "x", &[]);
        let _ = reg.gauge("x", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "two label-name sets")]
    fn label_name_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", "x", &[("a", "1")]);
        let _ = reg.counter("x", "x", &[("b", "1")]);
    }

    #[test]
    fn render_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count", "a", &[]).add(5);
        reg.gauge("b.level", "b", &[]).set(9);
        reg.histogram("c.ns", "c", &[("stage", "solve")]).record(42);
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        assert!(text.contains("a_count 5"), "{text}");
        assert!(text.contains("b_level 9"), "{text}");
        assert!(text.contains("c_ns_count{stage=\"solve\"} 1"), "{text}");
        assert!(text.contains("c_ns_sum{stage=\"solve\"} 42"), "{text}");
    }
}
