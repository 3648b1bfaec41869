//! Statistics and metric records shared by every workload.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` sorted samples
//! is the sample at 1-based rank `ceil(p/100 * n)`, so every reported value
//! is one that was actually measured. A tail percentile is refused unless at
//! least [`MIN_BEYOND`] samples lie beyond it.

use std::fmt::Write as _;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Nearest-rank tail percentile, refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
///
/// # Errors
///
/// Returns a message naming the sample count when the tail is too thin.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(rank(p, n.max(1)));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    Ok(percentile(samples, p).expect("non-empty"))
}

/// Median of `samples`, or 0 when there are none (a layer the workload
/// does not exercise).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// True when `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Suffix of the metric that carries a ratio's denominator.
pub const BASE_SUFFIX: &str = ".base";

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within a record.
    pub name: String,
    /// Measured value, as measured (never rounded).
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// An ordered set of metrics. Insertion validates the name and unit, so a
/// record that reaches the output is well-formed by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name, an invalid unit, or a
    /// non-finite value — all bugs in the benchmark, not in the program.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name `{name}`");
        assert!(valid_unit(unit), "invalid unit `{unit}` for `{name}`");
        assert!(value.is_finite(), "non-finite value for `{name}`");
        assert!(self.get(&name).is_none(), "duplicate metric `{name}`");
        self.items.push(Metric { name, value, unit });
    }

    /// Adds the ratio `numerator / base` under `name` and its base under
    /// `name.base` (unit `count`). A zero base yields a zero ratio.
    pub fn ratio(&mut self, name: &str, numerator: f64, base: u64, unit: &'static str) {
        let value = if base == 0 {
            0.0
        } else {
            numerator / base as f64
        };
        self.push(name, value, unit);
        self.push(format!("{name}{BASE_SUFFIX}"), base as f64, "count");
    }

    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    /// Value of the metric named `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` with every digit
    /// of each value (Rust's shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite float as a JSON number (integers keep a trailing `.0` off).
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 51.0), Some(6.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.1), Some(1.0));
        // order of the input does not matter, and values are never
        // interpolated between samples
        let shuffled = [7.0, 1.0, 10.0, 3.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0];
        assert_eq!(percentile(&shuffled, 50.0), Some(5.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn p99_is_refused_without_ten_samples_beyond_it() {
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        let err = tail_percentile(&thin, 99.0).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        // rank 990 of 1000 leaves exactly ten samples beyond it
        assert_eq!(tail_percentile(&enough, 99.0), Ok(989.0));
        assert!(tail_percentile(&[], 99.0).is_err());
        assert!(tail_percentile(&[1.0; 20], 50.0).is_ok());
        // p95 needs 200 samples: rank 190 leaves ten beyond it
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 95.0), Ok(189.0));
        assert!(tail_percentile(&samples[..199], 95.0).is_err());
    }

    #[test]
    fn every_ratio_carries_its_base() {
        let mut m = Metrics::default();
        m.ratio("serve.cache_hit_ratio", 85.0, 100, "1");
        m.ratio("empty.ratio", 0.0, 0, "1");
        assert_eq!(m.value("serve.cache_hit_ratio"), Some(0.85));
        assert_eq!(m.value("serve.cache_hit_ratio.base"), Some(100.0));
        assert_eq!(m.get("serve.cache_hit_ratio.base").unwrap().unit, "count");
        assert_eq!(m.value("empty.ratio"), Some(0.0));
        assert_eq!(m.value("empty.ratio.base"), Some(0.0));
    }

    #[test]
    fn names_and_units_are_validated() {
        assert!(valid_name("core.predict_ms_p50.full"));
        assert!(valid_name("nn.forward_ms.m0"));
        assert!(valid_name("0x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        for unit in ["ms", "s", "1/s", "count", "MB", "1", "req/batch", "%"] {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        let result = std::panic::catch_unwind(|| {
            Metrics::default().push("bad name", 1.0, "ms");
        });
        assert!(result.is_err(), "an invalid name must be rejected");
        let result = std::panic::catch_unwind(|| {
            let mut m = Metrics::default();
            m.push("twice", 1.0, "ms");
            m.push("twice", 2.0, "ms");
        });
        assert!(result.is_err(), "a duplicate name must be rejected");
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203_456_789_012_3, "ms");
        m.push("count", 42.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 42, \"unit\": \"count\"}}"
        );
    }
}
