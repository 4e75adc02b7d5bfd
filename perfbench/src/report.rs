//! The result of one benchmark run: operations attempted and failed,
//! correctness checks, and named metrics with units.

use rlpm_serve::json::Value;

/// Every end-to-end metric, with its unit. A run without `--trace`
/// reports exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_rate", "sim-s/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("setup_s", "s"),
    ("max_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// Every per-layer metric, with its unit. A traced run reports exactly
/// these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.arrivals.share", "frac"),
    ("workload.arrivals.ns_per_call", "ns"),
    ("workload.jobs", "count"),
    ("governors.decide.share", "frac"),
    ("governors.decide.ns_per_call", "ns"),
    ("rlpm.decide.ns_per_call", "ns"),
    ("rlpm-hw.decide.ns_per_call", "ns"),
    ("rlpm.train.share", "frac"),
    ("soc.self.share", "frac"),
    ("soc.ns_per_epoch", "ns"),
    ("soc.epochs", "count"),
    ("soc.batch.self.share", "frac"),
    ("soc.batch.ns_per_lane_epoch", "ns"),
    ("fleet.lane_epochs", "count"),
    ("soc.idle_core_share", "frac"),
    ("serve.parse.us", "us"),
    ("serve.render.us", "us"),
    ("serve.handle_eval.ms", "ms"),
    ("serve.handle_simulate.ms", "ms"),
    ("serve.transport.ms", "ms"),
    ("serve.gen_late.ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "frac"),
    ("sched.retries", "count"),
    ("sched.quarantined", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed.share", "frac"),
];

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short stable name.
    pub name: String,
    /// `Some(true)` passed, `Some(false)` failed, `None` not applicable.
    pub passed: Option<bool>,
    /// What was compared.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations failed, failed checks included.
    pub failed: u64,
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// `(name, value, note)`; the unit comes from the metric tables.
    pub metrics: Vec<(&'static str, f64, String)>,
}

impl Report {
    /// Records one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a correctness check, which also counts as an operation.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.op(passed);
        self.checks.push(Check {
            name: name.into(),
            passed: Some(passed),
            detail: detail.into(),
        });
    }

    /// Records a check that does not apply to this run.
    pub fn skip(&mut self, name: &str, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed: None,
            detail: detail.into(),
        });
    }

    /// Records a metric; `note` carries its sample count or base.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push((name, value, note.into()));
    }

    /// Reports every metric of `table` not reported yet as zero, for the
    /// layers a workload does not cross; `note` says why.
    pub fn fill_absent(&mut self, table: &[(&'static str, &str)], note: &str) {
        for &(name, _) in table {
            if self.metrics.iter().all(|m| m.0 != name) {
                self.metric(name, 0.0, note);
            }
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed != Some(false))
    }

    /// The share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - crate::stats::share(self.failed as f64, self.attempted as f64)
    }

    /// Fails the run if the metrics are not exactly the expected table.
    pub fn verify_metric_set(&mut self, expected: &[(&str, &str)]) {
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        let ok = got == want;
        self.check(
            "metric-set",
            ok,
            format!("{} metrics reported, {} expected", got.len(), want.len()),
        );
    }

    /// Human-readable lines: every check, then every metric with its unit.
    pub fn lines(&self, units: &[(&str, &str)]) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.checks {
            let verdict = match c.passed {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "n/a",
            };
            out.push(format!("check {} {verdict} {}", c.name, c.detail));
        }
        for (name, value, note) in &self.metrics {
            let unit = unit_of(units, name);
            out.push(
                format!("metric {name} {value} {unit} {note}")
                    .trim_end()
                    .to_string(),
            );
        }
        out
    }

    /// This run's metrics as JSON members; `prefix` is prepended to
    /// every name (used when one command runs several workloads).
    pub fn metrics_json(&self, units: &[(&str, &str)], prefix: &str) -> Vec<(String, Value)> {
        self.metrics
            .iter()
            .map(|(name, value, _)| {
                // JSON has no infinity; a latency made of misses reads as
                // the largest finite number.
                let value = if value.is_finite() { *value } else { f64::MAX };
                (
                    format!("{prefix}{name}"),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::str(unit_of(units, name))),
                    ]),
                )
            })
            .collect()
    }

    /// The one-line JSON result.
    pub fn json(&self, units: &[(&str, &str)]) -> Value {
        result_json(
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(units, ""),
        )
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> Value {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::num_u64(attempted)),
        ("failed".into(), Value::num_u64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

fn unit_of<'a>(units: &[(&str, &'a str)], name: &str) -> &'a str {
    units
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_is_a_failed_operation() {
        let mut r = Report::default();
        r.op(true);
        r.op(true);
        r.check("digest", false, "a != b");
        assert_eq!((r.attempted, r.failed), (3, 1));
        assert!(!r.correct());
        assert!((r.ok_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_carries_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.op(true);
        r.metric("setup_s", 0.5, "");
        r.metric("op_p95_ms", f64::INFINITY, "");
        let json = r.json(END_TO_END);
        let keys: Vec<&str> = json
            .as_obj()
            .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p95 = json
            .get("metrics")
            .and_then(|m| m.get("op_p95_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(p95, Some(f64::MAX), "a miss renders as a finite number");
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
