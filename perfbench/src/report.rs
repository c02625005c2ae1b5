//! The run's result: metrics, op counts and human-readable notes, and
//! the one-line JSON object the run ends with.

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or gave a wrong answer.
    pub failed: u64,
    /// Ops the system refused (shed) without attempting them.
    pub refused: u64,
    metrics: Vec<(String, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric; a later value of the same name replaces it.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Whether a metric of this name was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Records a line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every op succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines: notes, then one line per metric.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            s.push_str(&format!("# {n}\n"));
        }
        let ratio = (self.failed + self.refused) as f64 / self.attempted.max(1) as f64;
        s.push_str(&format!(
            "# failed_ratio {ratio} ({} failed and {} refused of {} attempted)\n",
            self.failed, self.refused, self.attempted
        ));
        for (name, unit, value) in &self.metrics {
            s.push_str(&format!("# {name:<34} {value:>16.6} {unit}\n"));
        }
        s
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (which JSON cannot hold) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_ms", "ms", 1.25);
        r.metric("latency_ms", "ms", 1.5);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
    }
}
