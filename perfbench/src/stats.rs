//! Sample collection and the order statistics the report prints.

use std::collections::BTreeMap;

/// Named timing samples and deterministic counters gathered over one run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, u64>,
}

impl Samples {
    /// Appends one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// All samples of `name` (empty when none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every counter, by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Median of `name`'s samples, `None` without samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        percentile(self.get(name), 50.0)
    }

    /// Mean of `name`'s samples, `None` without samples.
    pub fn mean(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Sum of `name`'s samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Samples) {
        for (name, mut v) in other.values {
            self.values.entry(name).or_default().append(&mut v);
        }
        for (name, c) in other.counters {
            self.count(name, c);
        }
    }
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between order statistics; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// or `None` when fewer than 100 samples were taken.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
