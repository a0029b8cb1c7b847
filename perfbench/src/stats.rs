//! Sample summaries and the printed report.
//!
//! Latencies are summarised by their median and by a *tail*: the highest
//! percentile that still has [`TAIL_BEYOND`] samples above it, capped at
//! [`TAIL_CAP`]. Below `100 · TAIL_BEYOND` samples the tail is therefore
//! the `(n - TAIL_BEYOND)`-th order statistic, at percentile
//! `100 · (n - TAIL_BEYOND) / n`; above it, the p99. The percentile and
//! the sample count are printed next to the value, so two runs are
//! compared only when their tails mean the same thing.
//!
//! The cap keeps the tail a property of the program. With a hundred
//! thousand reads, the eleventh-slowest is a host preemption of a few
//! milliseconds, and it moves by a third from run to run; the p99 is the
//! slow read kind itself, and it holds still.

use std::fmt::Write as _;

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;
/// Highest tail percentile reported.
pub const TAIL_CAP: f64 = 99.0;

/// The median (mean of the two middle values for even counts); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Medians of `groups` interleaved sample streams: stream `i` holds the
/// samples at indices `i, i + groups, i + 2·groups, …`.
pub fn group_medians(samples: &[f64], groups: usize) -> Vec<f64> {
    (0..groups.max(1))
        .map(|i| {
            let g: Vec<f64> = samples.iter().skip(i).step_by(groups.max(1)).copied().collect();
            median(&g)
        })
        .collect()
}

/// The mean of [`group_medians`]. A mix of request kinds with different
/// costs has a multi-modal latency distribution whose pooled median sits
/// on the edge between two kinds and jumps between them from run to run;
/// the mean of the per-kind medians is the typical cost of one request of
/// the mix and holds still.
pub fn mixed_p50(samples: &[f64], groups: usize) -> f64 {
    let m = group_medians(samples, groups);
    m.iter().sum::<f64>() / m.len() as f64
}

/// The median over blocks of their rate `units / seconds`. A whole-run
/// rate is a mean, and a few seconds of host preemption move it; the
/// median block rate passes over them, as the p50 latencies do.
pub fn median_rate(blocks: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> =
        blocks.iter().filter(|b| b.1 > 0.0).map(|&(units, secs)| units / secs).collect();
    median(&rates)
}

/// Consecutive blocks of `block` latencies (in `unit_s` seconds each) as
/// `(requests, seconds)` pairs for [`median_rate`]; a short last block is
/// dropped.
pub fn latency_blocks(samples: &[f64], block: usize, unit_s: f64) -> Vec<(f64, f64)> {
    samples
        .chunks_exact(block.max(1))
        .map(|c| (c.len() as f64, c.iter().sum::<f64>() * unit_s))
        .collect()
}

/// A tail value with the percentile and sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile (`100 · rank / n`).
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The highest percentile, up to [`TAIL_CAP`], with at least
/// [`TAIL_BEYOND`] samples beyond it. With too few samples for that, the
/// maximum is reported (percentile 100) and the printed note says so.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, samples: 0 };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail { value: v[n - 1], percentile: 100.0, samples: n };
    }
    let capped = (TAIL_CAP / 100.0 * n as f64).ceil() as usize;
    let rank = (n - TAIL_BEYOND).min(capped);
    Tail { value: v[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n }
}

/// `p50/p90/p99/max` of a sample set, for the printed context.
pub fn spread_line(label: &str, unit: &str, samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| v.get(((p * v.len() as f64).ceil() as usize).saturating_sub(1)).copied();
    let f = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.3}"));
    format!(
        "{label} ({unit}): n={} p50={} p90={} p99={} max={}",
        v.len(),
        f(at(0.5)),
        f(at(0.9)),
        f(at(0.99)),
        f(v.last().copied())
    )
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// An ordered set of metrics plus the human-readable lines printed before
/// the final JSON line.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Context lines (input shape, tail ranks, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    /// Notes a tail metric's percentile and sample count.
    pub fn tail_note(&mut self, name: &str, t: Tail) {
        self.note(format!(
            "{name} = p{:.2} of {} samples{}",
            t.percentile,
            t.samples,
            if t.samples <= TAIL_BEYOND { " (too few for the tail rule: maximum)" } else { "" }
        ));
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes and one `name value unit` line per metric.
    pub fn print_human(&self, title: &str) {
        println!("== {title}");
        for n in &self.notes {
            println!("   {n}");
        }
        for m in &self.metrics {
            println!("   {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from an empty
            // workload, which the correctness checks already refuse.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(s, "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_capped_at_p99() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 9_900.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn mixed_p50_averages_per_kind_medians() {
        // Two interleaved kinds: 1, 10, 2, 20, 3, 30.
        let v = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        assert_eq!(group_medians(&v, 2), vec![2.0, 20.0]);
        assert_eq!(mixed_p50(&v, 2), 11.0);
    }

    #[test]
    fn median_rate_passes_over_a_stalled_block() {
        let lat = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0, 1.0, 1.0];
        let blocks = latency_blocks(&lat, 3, 1e-3);
        assert_eq!(blocks.len(), 3);
        assert!((median_rate(&blocks) - 1000.0).abs() < 1e-9);
        assert!((median_rate(&[(4.0, 2.0), (4.0, 0.0)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
