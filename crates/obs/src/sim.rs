//! The deterministic sim-plane registry: typed instruments keyed by
//! `(static name, sorted labels)`.
//!
//! Everything here is part of the byte-identical-replay contract:
//!
//! * metric names are `&'static str` (detlint D7 rejects dynamic names at
//!   the call site), so the key space is fixed at compile time;
//! * labels live in a `BTreeMap`, so key order — and therefore export
//!   order — is canonical;
//! * instruments hold integers only (counts, sim-time micros); no floats
//!   accumulate, so merge order cannot change low bits;
//! * merging is commutative and associative (counter/histogram addition,
//!   gauge max), so per-shard registries can be folded in canonical shard
//!   order and the result never depends on thread count.

use crate::catalog::MetricKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sorted label set attached to an instrument.
pub type Labels = BTreeMap<&'static str, String>;

/// Instrument key: static metric name plus canonicalized labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name (static: the D7 lint rejects dynamic names).
    pub name: &'static str,
    /// Label set, already sorted by construction.
    pub labels: Labels,
}

impl Key {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
        Key {
            name,
            labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
        }
    }
}

/// A gauge sample with high-water tracking: `set` records the latest value
/// and the largest value ever set. Merging takes the maximum of both (the
/// fleet-wide peak), which is order-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub value: u64,
    /// Largest value ever set.
    pub high_water: u64,
}

impl Gauge {
    fn set(&mut self, value: u64) {
        self.value = value;
        self.high_water = self.high_water.max(value);
    }

    fn merge(&mut self, other: &Gauge) {
        self.value = self.value.max(other.value);
        self.high_water = self.high_water.max(other.high_water);
    }
}

/// Number of histogram buckets: one per bit length of a `u64` sample,
/// plus the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram over `u64` samples (sim-time micros, queue depths, …) with
/// fixed power-of-two bucket edges: bucket `i` counts samples `v` with
/// `v < 2^i` and (for `i > 0`) `v >= 2^(i-1)`. Fixed edges mean merging is
/// plain element-wise addition — no edge renegotiation, no floats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples observed.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// The bucket a sample lands in: its bit length (0 for the sample `0`).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The exclusive upper edge of bucket `i`: `2^i`.
pub fn bucket_edge(i: usize) -> u128 {
    1u128 << i.min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Count in bucket `i` (samples with bit length `i`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Folds another histogram in (element-wise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The exclusive upper edge of the bucket holding the `num/den`
    /// quantile (integer arithmetic: the first bucket whose cumulative
    /// count reaches `ceil(count · num / den)`). Returns 0 for an empty
    /// histogram.
    pub fn quantile_edge(&self, num: u64, den: u64) -> u128 {
        if self.count == 0 || den == 0 {
            return 0;
        }
        let threshold = (self.count as u128 * num as u128).div_ceil(den as u128);
        let mut cumulative: u128 = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b as u128;
            if cumulative >= threshold {
                return bucket_edge(i);
            }
        }
        bucket_edge(HISTOGRAM_BUCKETS - 1)
    }

    /// Iterator over `(bucket index, count)` for non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (i, b))
    }
}

/// Labels sorted in place for a borrowed lookup: at most this many fit.
const PROBE_LABELS: usize = 6;

/// The parts of a key a lookup compares: its name and its labels in
/// label-name order. [`Key`] and a borrowed probe both expose them, so a
/// `BTreeMap<Key, _>` can be searched without building a `Key`.
trait KeyView {
    fn name(&self) -> &str;
    fn labels(&self) -> LabelIter<'_>;
}

/// The labels of a [`KeyView`], owned or borrowed, in label-name order.
enum LabelIter<'a> {
    Owned(std::collections::btree_map::Iter<'a, &'static str, String>),
    Borrowed(std::slice::Iter<'a, (&'static str, &'a str)>),
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            LabelIter::Owned(it) => it.next().map(|(k, v)| (*k, v.as_str())),
            LabelIter::Borrowed(it) => it.next().map(|(k, v)| (*k, *v)),
        }
    }
}

impl KeyView for Key {
    fn name(&self) -> &str {
        self.name
    }

    fn labels(&self) -> LabelIter<'_> {
        LabelIter::Owned(self.labels.iter())
    }
}

/// A key borrowed from a mutator's arguments, labels already sorted.
struct Probe<'a> {
    name: &'a str,
    labels: &'a [(&'static str, &'a str)],
}

impl KeyView for Probe<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn labels(&self) -> LabelIter<'_> {
        LabelIter::Borrowed(self.labels.iter())
    }
}

// The same order as `Key`'s derived one: name, then the label pairs
// lexicographically.
impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name()
            .cmp(other.name())
            .then_with(|| self.labels().cmp(other.labels()))
    }
}

impl<'a> std::borrow::Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// Every series of one instrument kind: the key → slot map, whose order is
/// the export order, and the values in slot (creation) order.
#[derive(Debug, Clone)]
struct Family<T> {
    index: BTreeMap<Key, usize>,
    values: Vec<T>,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family {
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Default> Family<T> {
    /// The slot of `(name, labels)`, created at the default value on first
    /// use. An existing series is found through a borrowed probe; a `Key`
    /// is built only to create one, or to look up a label set the probe
    /// cannot hold: more than [`PROBE_LABELS`] labels, or a repeated name.
    fn slot(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> usize {
        let mut sorted = [("", ""); PROBE_LABELS];
        if let Some(sorted) = sort_labels(labels, &mut sorted) {
            let probe = Probe {
                name,
                labels: sorted,
            };
            if let Some(&i) = self.index.get(&probe as &dyn KeyView) {
                return i;
            }
        }
        self.slot_of_key(&Key::new(name, labels))
    }

    /// The slot of `key`, created at the default value on first use.
    fn slot_of_key(&mut self, key: &Key) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.values.len();
        self.values.push(T::default());
        self.index.insert(key.clone(), i);
        i
    }
}

impl<T> Family<T> {
    /// Every series in key order.
    fn iter(&self) -> impl Iterator<Item = (&Key, &T)> + '_ {
        self.index.iter().map(|(k, &i)| (k, &self.values[i]))
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

// Content, not slot order: two registries filled in different orders hold
// the same series under different slots.
impl<T: PartialEq> PartialEq for Family<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for Family<T> {}

/// Copies `labels` into `buf` sorted by label name; `None` when they do not
/// fit. A repeated label name needs no care: a probe holding it equals no
/// key, so the caller falls back to [`Key::new`], which keeps the last value.
fn sort_labels<'a>(
    labels: &[(&'static str, &'a str)],
    buf: &'a mut [(&'static str, &'a str); PROBE_LABELS],
) -> Option<&'a [(&'static str, &'a str)]> {
    let sorted = buf.get_mut(..labels.len())?;
    sorted.copy_from_slice(labels);
    sorted.sort_unstable_by_key(|&(name, _)| name);
    Some(sorted)
}

/// A counter series resolved once by [`Registry::counter_id`] and bumped
/// by [`Registry::add`] without a key lookup. Valid for the registry that
/// issued it and its clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// A histogram series resolved once by [`Registry::histogram_id`] and fed
/// by [`Registry::observe`]. Valid for the registry that issued it and its
/// clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// The sim-plane metric registry: every instrument of one campaign (or one
/// shard of it), exported as `results/metrics.json` and the `metrics`
/// summary table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: Family<u64>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &'static str, labels: &[(&'static str, &str)]) {
        // detlint: allow(D7) -- registry-internal delegation; the
        // static-name rule binds at instrumentation call sites
        self.inc_by(name, labels, 1);
    }

    /// Increments a counter by `delta`.
    pub fn inc_by(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        let i = self.counters.slot(name, labels);
        self.counters.values[i] += delta;
    }

    /// Sets a gauge, tracking its high-water mark.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        let i = self.gauges.slot(name, labels);
        self.gauges.values[i].set(value);
    }

    /// Records one histogram sample (sim-time micros or any other `u64`).
    pub fn observe_us(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        let i = self.histograms.slot(name, labels);
        self.histograms.values[i].observe(v);
    }

    /// Resolves a counter series for [`Registry::add`], creating it at 0 if
    /// it is new — exactly what `inc_by(name, labels, 0)` would do.
    pub fn counter_id(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> CounterId {
        CounterId(self.counters.slot(name, labels))
    }

    /// Increments the counter behind `id` by `delta`.
    // detlint: hot
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters.values[id.0] += delta;
    }

    /// Resolves a histogram series for [`Registry::observe`], creating it
    /// empty if it is new. `observe_us` never leaves a histogram empty, so
    /// resolve where the first sample is recorded to export the same
    /// series.
    pub fn histogram_id(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramId {
        HistogramId(self.histograms.slot(name, labels))
    }

    /// Records one sample in the histogram behind `id`.
    // detlint: hot
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.histograms.values[id.0].observe(v);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && labels_match(&k.labels, labels))
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of a counter across all of its label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Fleet-wide high-water mark of a gauge across all label sets.
    pub fn gauge_peak(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, g)| g.high_water)
            .max()
            .unwrap_or(0)
    }

    /// A histogram, if any sample was recorded under the key.
    pub fn histogram(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k.name == name && labels_match(&k.labels, labels))
            .map(|(_, h)| h)
    }

    /// Number of distinct instruments.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the registry holds no instruments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The name and kind of every instrument, one item per label set:
    /// counters, then gauges, then histograms, each in key order.
    pub(crate) fn series(&self) -> impl Iterator<Item = (&'static str, MetricKind)> + '_ {
        let counters = self
            .counters
            .iter()
            .map(|(k, _)| (k.name, MetricKind::Counter));
        let gauges = self.gauges.iter().map(|(k, _)| (k.name, MetricKind::Gauge));
        let histograms = self
            .histograms
            .iter()
            .map(|(k, _)| (k.name, MetricKind::Histogram));
        counters.chain(gauges).chain(histograms)
    }

    /// Folds another registry in: counters and histograms add, gauges take
    /// the maximum. Commutative and associative, so per-shard registries
    /// merged in canonical shard order yield a thread-count-invariant
    /// result.
    pub fn merge_from(&mut self, other: &Registry) {
        for (k, v) in other.counters.iter() {
            let i = self.counters.slot_of_key(k);
            self.counters.values[i] += v;
        }
        for (k, g) in other.gauges.iter() {
            let i = self.gauges.slot_of_key(k);
            self.gauges.values[i].merge(g);
        }
        for (k, h) in other.histograms.iter() {
            let i = self.histograms.slot_of_key(k);
            self.histograms.values[i].merge(h);
        }
    }

    /// Serializes every instrument as deterministic JSON: keys in
    /// `BTreeMap` order, integers only, no host state. The exported bytes
    /// are part of the replay contract.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [\n");
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("    {{{}, \"value\": {v}}}", json_key(k)))
            .collect();
        out.push_str(&counters.join(",\n"));
        out.push_str("\n  ],\n  \"gauges\": [\n");
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, g)| {
                format!(
                    "    {{{}, \"value\": {}, \"high_water\": {}}}",
                    json_key(k),
                    g.value,
                    g.high_water
                )
            })
            .collect();
        out.push_str(&gauges.join(",\n"));
        out.push_str("\n  ],\n  \"histograms\": [\n");
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> = h
                    .nonzero_buckets()
                    .map(|(i, c)| format!("{{\"lt\": {}, \"count\": {c}}}", bucket_edge(i)))
                    .collect();
                format!(
                    "    {{{}, \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                    json_key(k),
                    h.count,
                    h.sum,
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&histograms.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the rustc-style summary table: one aligned row per
    /// instrument, histograms summarized as count/p50/p99 edges.
    pub fn render_table(&self, title: &str) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (k, v) in self.counters.iter() {
            rows.push((display_key(k), v.to_string()));
        }
        for (k, g) in self.gauges.iter() {
            rows.push((
                display_key(k),
                format!("{} (high-water {})", g.value, g.high_water),
            ));
        }
        for (k, h) in self.histograms.iter() {
            rows.push((
                display_key(k),
                format!(
                    "n={} p50<{} p99<{}",
                    h.count,
                    h.quantile_edge(1, 2),
                    h.quantile_edge(99, 100)
                ),
            ));
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = format!("== {title} ==\n");
        for (k, v) in rows {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
        out
    }
}

fn labels_match(have: &Labels, want: &[(&'static str, &str)]) -> bool {
    have.len() == want.len()
        && want
            .iter()
            .all(|(k, v)| have.get(k).map(String::as_str) == Some(*v))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_key(k: &Key) -> String {
    let labels: Vec<String> = k
        .labels
        .iter()
        .map(|(lk, lv)| format!("\"{}\": \"{}\"", json_escape(lk), json_escape(lv)))
        .collect();
    format!(
        "\"name\": \"{}\", \"labels\": {{{}}}",
        json_escape(k.name),
        labels.join(", ")
    )
}

fn display_key(k: &Key) -> String {
    if k.labels.is_empty() {
        return k.name.to_string();
    }
    let labels: Vec<String> = k
        .labels
        .iter()
        .map(|(lk, lv)| format!("{lk}={lv}"))
        .collect();
    format!("{}{{{}}}", k.name, labels.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_bucket_edges_are_powers_of_two() {
        // Bucket i holds samples with bit length i: 2^(i-1) <= v < 2^i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_edge(i), 1u128 << i);
        }
        // Every sample lands strictly below its bucket's edge and (when
        // nonzero) at or above the previous edge.
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 7, 8, 1000, u64::MAX] {
            h.observe(v);
            let i = bucket_index(v);
            assert!((v as u128) < bucket_edge(i));
            if i > 0 {
                assert!(v as u128 >= bucket_edge(i - 1));
            }
        }
        assert_eq!(h.count, 7);
    }

    #[test]
    fn histogram_quantiles_walk_the_buckets() {
        let mut h = Histogram::default();
        for v in [1u64, 1, 1, 100] {
            h.observe(v);
        }
        assert_eq!(h.quantile_edge(1, 2), 2); // p50 in the `<2` bucket
        assert_eq!(h.quantile_edge(99, 100), 128); // p99 reaches the 100
        assert_eq!(Histogram::default().quantile_edge(1, 2), 0);
    }

    #[test]
    fn gauge_tracks_high_water_and_merges_by_max() {
        let mut reg = Registry::new();
        reg.gauge_set("queue", &[], 5);
        reg.gauge_set("queue", &[], 9);
        reg.gauge_set("queue", &[], 3);
        let only = |reg: &Registry| reg.gauges.values[0];
        let g = only(&reg);
        assert_eq!(g.value, 3);
        assert_eq!(g.high_water, 9);

        let mut other = Registry::new();
        other.gauge_set("queue", &[], 7);
        reg.merge_from(&other);
        let g = only(&reg);
        assert_eq!(g.value, 7, "merge takes the max current value");
        assert_eq!(g.high_water, 9, "merge keeps the fleet peak");
        assert_eq!(reg.gauge_peak("queue"), 9);
    }

    #[test]
    fn merge_is_commutative_and_export_order_canonical() {
        let shard = |name: &'static str, n: u64| {
            let mut r = Registry::new();
            r.inc_by("events", &[("carrier", name)], n);
            r.inc_by("events.total", &[], n);
            r.observe_us("lookup_us", &[], n);
            r
        };
        let a = shard("att", 10);
        let b = shard("verizon", 32);
        let mut ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json(), "export order must be canonical");
        assert_eq!(ab.counter_total("events"), 42);
        assert_eq!(ab.counter_value("events", &[("carrier", "att")]), 10);
        assert_eq!(ab.counter_value("events.total", &[]), 42);
        assert_eq!(ab.histogram("lookup_us", &[]).unwrap().count, 2);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut reg = Registry::new();
        reg.inc_by("net.events", &[("carrier", "a\"b")], 3);
        reg.gauge_set("depth", &[], 2);
        reg.observe_us("t_us", &[], 5);
        let json = reg.to_json();
        assert!(json.contains("\"name\": \"net.events\""));
        assert!(json.contains("a\\\"b"));
        assert!(json.contains("\"high_water\": 2"));
        assert!(json.contains("{\"lt\": 8, \"count\": 1}"));
        assert_eq!(json, reg.clone().to_json());
        // Empty registry still serializes to a well-formed skeleton.
        let empty = Registry::new().to_json();
        assert!(empty.contains("\"counters\""));
        assert!(empty.ends_with("}\n"));
    }

    const NAMES: [&str; 3] = ["serve.queries", "serve.outcomes", "dns.lookup_us"];
    const LABELS: [&[(&str, &str)]; 7] = [
        &[],
        &[("carrier", "a")],
        &[("carrier", "b"), ("transport", "udp")],
        // Unsorted: the probe sorts, the key's map sorts.
        &[("transport", "tcp"), ("carrier", "a")],
        &[("carrier", "a"), ("resolver", "local"), ("outcome", "ok")],
        // A repeated label name: the last value wins, as in `Key::new`.
        &[("carrier", "a"), ("carrier", "b")],
        // More labels than the probe sorts in place.
        &[
            ("g", "7"),
            ("f", "6"),
            ("e", "5"),
            ("d", "4"),
            ("c", "3"),
            ("b", "2"),
            ("a", "1"),
        ],
    ];

    /// One update through the string API.
    fn by_string(reg: &mut Registry, (op, name, labels, v): (u8, usize, usize, u64)) {
        let (name, labels) = (NAMES[name % 3], LABELS[labels % 7]);
        match op % 4 {
            0 => reg.inc(name, labels),
            1 => reg.inc_by(name, labels, v),
            2 => reg.observe_us(name, labels, v),
            _ => reg.gauge_set(name, labels, v),
        }
    }

    /// Handles by `(name, labels)` index, each resolved on first use.
    type Handles = BTreeMap<(usize, usize), (Option<CounterId>, Option<HistogramId>)>;

    /// The same update through a handle, resolved on first use and then
    /// reused, the way `ServeCore` holds its handles.
    fn by_handle(
        reg: &mut Registry,
        ids: &mut Handles,
        (op, name, labels, v): (u8, usize, usize, u64),
    ) {
        let (n, l) = (name % 3, labels % 7);
        let (counter, histogram) = ids.entry((n, l)).or_default();
        match op % 4 {
            0 | 1 => {
                let id = *counter.get_or_insert_with(|| reg.counter_id(NAMES[n], LABELS[l]));
                reg.add(id, if op % 4 == 0 { 1 } else { v });
            }
            2 => {
                let id = *histogram.get_or_insert_with(|| reg.histogram_id(NAMES[n], LABELS[l]));
                reg.observe(id, v);
            }
            _ => reg.gauge_set(NAMES[n], LABELS[l], v),
        }
    }

    fn op() -> impl Strategy<Value = (u8, usize, usize, u64)> {
        (any::<u8>(), 0usize..3, 0usize..7, 0u64..5_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Handle and string updates interleaved in any order leave the
        /// registry a string-only run leaves: equal, the same export bytes,
        /// the same series count.
        #[test]
        fn handles_and_strings_build_the_same_registry(
            ops in proptest::collection::vec((op(), any::<bool>()), 0..120),
        ) {
            let (mut strings, mut mixed) = (Registry::new(), Registry::new());
            let mut ids = BTreeMap::new();
            for &(update, through_handle) in &ops {
                by_string(&mut strings, update);
                if through_handle {
                    by_handle(&mut mixed, &mut ids, update);
                } else {
                    by_string(&mut mixed, update);
                }
            }
            prop_assert_eq!(&mixed, &strings);
            prop_assert_eq!(mixed.to_json(), strings.to_json());
            prop_assert_eq!(mixed.render_table("t"), strings.render_table("t"));
            prop_assert_eq!(mixed.len(), strings.len());
        }

        /// Counters and histograms commute: filled in reverse order, the
        /// registry holds its series in other slots and still compares and
        /// exports equal.
        #[test]
        fn fill_order_does_not_show(ops in proptest::collection::vec(op(), 0..120)) {
            let commuting = ops.iter().map(|&(op, n, l, v)| (op % 3, n, l, v));
            let (mut forward, mut backward) = (Registry::new(), Registry::new());
            let mut ids = BTreeMap::new();
            for update in commuting.clone() {
                by_string(&mut forward, update);
            }
            for update in commuting.rev() {
                by_handle(&mut backward, &mut ids, update);
            }
            prop_assert_eq!(&backward, &forward);
            prop_assert_eq!(backward.to_json(), forward.to_json());
            prop_assert_eq!(backward.len(), forward.len());
        }
    }

    #[test]
    fn table_renders_every_instrument() {
        let mut reg = Registry::new();
        reg.inc("experiments", &[("carrier", "att")]);
        reg.gauge_set("queue.depth", &[], 4);
        reg.observe_us("lookup_us", &[], 900);
        let table = reg.render_table("campaign vitals");
        assert!(table.starts_with("== campaign vitals =="));
        assert!(table.contains("experiments{carrier=att}"));
        assert!(table.contains("(high-water 4)"));
        assert!(table.contains("n=1 p50<1024"));
    }
}
