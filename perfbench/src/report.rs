//! Collects metrics and prints them: a readable table with sample counts,
//! then one JSON line with exactly `correct`, `attempted`, `failed` and
//! `metrics`.

use std::fmt::Write as _;

/// Operations checked and how many failed (an `Err` or a wrong reply).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err` or a reply differing from the oracle.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us` or `GFLOP/s`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Adds a metric. A value that is not finite is reported as 0.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// Counts checked operations and failures (an `Err` or a wrong output).
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line. `correct` holds when at least one operation ran
    /// and none failed.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.push("p50_us", 12.5, "us", 10);
        r.push("bad", f64::NAN, "x", 0);
        r.tally(10, 0);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"bad\": {\"value\": 0, \"unit\": \"x\"}}}"
        );
        r.tally(1, 1);
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1"));
    }
}
