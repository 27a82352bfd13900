//! Operation accounting, metric collection, summary statistics and the
//! result line the benchmark prints last.

use std::fmt::Write as _;

/// What kind of operation a counted attempt was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Build,
    Master,
    Slave,
    Predict,
    Score,
    Update,
    Tasks,
    Check,
}

impl Kind {
    const ALL: [Kind; 8] = [
        Kind::Build,
        Kind::Master,
        Kind::Slave,
        Kind::Predict,
        Kind::Score,
        Kind::Update,
        Kind::Tasks,
        Kind::Check,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Build => "build",
            Kind::Master => "master",
            Kind::Slave => "slave",
            Kind::Predict => "predict",
            Kind::Score => "score",
            Kind::Update => "update",
            Kind::Tasks => "tasks",
            Kind::Check => "check",
        }
    }
}

/// Attempted and failed operations by kind. A failed operation is counted,
/// never retried or skipped; a failed check also makes the run incorrect.
#[derive(Default)]
pub struct Ops {
    attempted: [u64; 8],
    failed: [u64; 8],
}

impl Ops {
    pub fn record(&mut self, kind: Kind, ok: bool) {
        let i = kind as usize;
        self.attempted[i] += 1;
        if !ok {
            self.failed[i] += 1;
        }
    }

    /// Count one correctness check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.record(Kind::Check, ok);
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed[Kind::Check as usize] == 0
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// `kind=attempted/failed` pairs for the kinds this run exercised.
    pub fn summary(&self) -> String {
        Kind::ALL
            .iter()
            .filter(|k| self.attempted[**k as usize] > 0)
            .map(|k| {
                let i = *k as usize;
                format!("{}={}/{}", k.name(), self.attempted[i], self.failed[i])
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Named metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = value + 0.0; // no negative zero from empty sums
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }

    /// Keep only the named metrics, in the order of `names`.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names
                .iter()
                .filter_map(|n| self.0.iter().find(|(m, _, _)| m == n).copied())
                .collect(),
        )
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// Non-finite values cannot be written as JSON numbers and mark the run
/// incorrect instead.
pub fn result_line(correct: bool, ops: &Ops, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct && finite,
        ops.attempted(),
        ops.failed()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
    }

    #[test]
    fn result_line_shape() {
        let mut ops = Ops::default();
        ops.record(Kind::Score, true);
        ops.record(Kind::Score, false);
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        let line = result_line(true, &ops, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
