//! Metric names, units and the result line.

use crate::json::{self, Json};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("closed_rps", "1/s"),
    ("threat_s", "s"),
    ("terrain_s", "s"),
    ("sim_mips", "MIPS"),
];

/// A metric or workload name: a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Named, unit-tagged values in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Append every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `(name, unit)` of every metric, in order.
    pub fn names(&self) -> Vec<(String, &'static str)> {
        self.0.iter().map(|(n, _, u)| (n.clone(), *u)).collect()
    }

    /// Every `(name, value, unit)`, in order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// Check the printed set against the declared one: same names, same
    /// units, every name and unit well formed, every value finite.
    pub fn check_against(&self, declared: &[(String, &'static str)]) -> Result<(), String> {
        let mut got = self.names();
        let mut want = declared.to_vec();
        got.sort();
        want.sort();
        if got != want {
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            return Err(format!(
                "metric set differs from the declared one: missing {missing:?}, undeclared {extra:?}"
            ));
        }
        if let Some(w) = got.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("metric {} printed twice", w[0].0));
        }
        for (name, value, unit) in &self.0 {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("malformed metric name or unit: {name} [{unit}]"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
        }
        Ok(())
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn to_json(&self) -> Json {
        json::obj(self.0.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                json::obj([
                    ("value", Json::F64(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        }))
    }
}

/// The final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let line = json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics.to_json()),
    ]);
    json::to_string(&line).expect("metrics are checked finite before printing")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for good in [
            "setup_s",
            "p99_ms.high",
            "mta_sim.run_s.mixed-16",
            "0x",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "p99 ms",
            "a/b",
            "é",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for good in ["s", "ms", "1/s", "%", "count", "MB", "MIPS", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seconds-per-request", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn end_to_end_declarations_are_well_formed() {
        for (name, unit) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        }
    }

    #[test]
    fn check_against_catches_every_kind_of_drift() {
        let declared = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("b", 2.0, "ms");
        assert!(m.check_against(&declared).is_ok());

        let mut wrong_unit = Metrics::default();
        wrong_unit.push("a", 1.0, "s");
        wrong_unit.push("b", 2.0, "s");
        assert!(wrong_unit.check_against(&declared).is_err());

        let mut missing = Metrics::default();
        missing.push("a", 1.0, "s");
        assert!(missing.check_against(&declared).is_err());

        let mut nan = Metrics::default();
        nan.push("a", f64::NAN, "s");
        nan.push("b", 2.0, "ms");
        assert!(nan.check_against(&declared).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_top_level_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }
}
