//! Global metrics registry: saturating counters, gauges, and log-bucketed
//! histograms with percentile summaries.
//!
//! Names are `&'static str` dotted paths (see the crate docs for the
//! naming conventions). Every operation is a no-op while collection is
//! disabled, so instrumented hot loops cost one relaxed atomic load.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]` (64 covers the full `u64` range).
const BUCKETS: usize = 65;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

/// A log-bucketed histogram (powers of two).
#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// The bucket index of a value: 0 for 0, otherwise its bit length (so the
/// bucket upper bound is `2^i - 1`).
pub(crate) fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold.
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// The value at quantile `q` (0..=1): the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`, clamped to
    /// the observed max (exact when the bucket holds one distinct value).
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Percentile summary of a histogram, as reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median (bucket upper bound, clamped to the observed range).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Adds `n` to the counter `name` (saturating at `u64::MAX`). Passing 0
/// registers the counter so it appears in the report with a zero value —
/// instrumented sites use this to keep the metric set stable across runs.
pub fn counter_add(name: &'static str, n: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    let c = reg.counters.entry(name).or_insert(0);
    *c = c.saturating_add(n);
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.gauges.insert(name, value);
}

/// Registers the histogram `name` without recording a value, so it
/// appears in the report with a zero count — the histogram counterpart of
/// `counter_add(name, 0)` for keeping the metric set stable across runs.
pub fn histogram_register(name: &'static str) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.histograms.entry(name).or_default();
}

/// Records `value` into the histogram `name`.
pub fn observe(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.histograms.entry(name).or_default().record(value);
}

/// Records every value of `values` into the histogram `name` under one
/// registry lock — [`observe`] for a batch (one value per data-plane
/// pair, say) without a lock round trip per value.
pub fn observe_all(name: &'static str, values: impl IntoIterator<Item = u64>) {
    if !crate::enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    let h = reg.histograms.entry(name).or_default();
    for v in values {
        h.record(v);
    }
}

pub(crate) fn counters_snapshot() -> Vec<(String, u64)> {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

pub(crate) fn gauges_snapshot() -> Vec<(String, f64)> {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

pub(crate) fn histograms_snapshot() -> Vec<(String, HistogramSummary)> {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.histograms
        .iter()
        .map(|(k, h)| (k.to_string(), h.summary()))
        .collect()
}

pub(crate) fn clear() {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}
