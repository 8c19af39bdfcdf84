//! The metric list a run prints, in insertion order.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered metrics of one run.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{:?}: {{\"value\": {value:?}, \"unit\": {:?}}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.25, "ms");
        m.push("b", 3.0, "count");
        assert_eq!(
            m.to_json(),
            r#"{"a_ms": {"value": 1.25, "unit": "ms"}, "b": {"value": 3.0, "unit": "count"}}"#
        );
    }
}
