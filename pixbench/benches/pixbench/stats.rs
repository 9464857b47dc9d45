//! Order statistics, the output digest, and the result line.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the middle two. `NaN` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Best-case time of repeated runs of the same calls: the sum over
/// calls of each call's fastest time across `runs` (one slice of call
/// times per run, in the same order). Host interference only ever adds
/// time to deterministic work, so the minimum is the estimate it
/// disturbs least; `NaN` for no runs.
pub fn sum_of_fastest<R: AsRef<[f64]>>(runs: &[R]) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for run in runs {
        let run = run.as_ref();
        if best.is_empty() {
            best = run.to_vec();
        }
        for (b, s) in best.iter_mut().zip(run) {
            *b = b.min(*s);
        }
    }
    if best.is_empty() {
        f64::NAN
    } else {
        best.iter().sum()
    }
}

/// 64-bit FNV-1a over a byte stream: a stable digest of deterministic
/// outputs that two builds can compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value` (floats render with every
    /// digit, so bitwise-equal reports give equal digests).
    pub fn update_debug(&mut self, value: &impl std::fmt::Debug) {
        self.update(format!("{value:?}").as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// True for a metric name the benchmark contract accepts: a letter or
/// digit first, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics one run reports, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// The metrics as `(name, value, unit)`, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// Names that break the contract: invalid, duplicated, or carrying
    /// a non-finite value.
    pub fn defects(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, (name, value, _)) in self.entries.iter().enumerate() {
            if !valid_metric_name(name) {
                out.push(format!("invalid metric name {name:?}"));
            }
            if self.entries[..i].iter().any(|(n, _, _)| n == name) {
                out.push(format!("duplicate metric {name}"));
            }
            if !value.is_finite() {
                out.push(format!("metric {name} is not finite"));
            }
        }
        out
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(name, value, unit)| format!("  {name:<34} {value:>18.6} {unit}\n"))
            .collect()
    }

    /// The single-line JSON result object.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong or missing.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
