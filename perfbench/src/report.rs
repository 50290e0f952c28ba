//! Output: a human-readable table (every metric with its unit and the
//! base or sample count it rests on) followed by the one-line JSON result.

use crate::stats::ErrorTally;
use lcg_obs::json::Json;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, ratio base or source, printed beside the value.
    pub basis: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, basis: String) -> Self {
        Metric {
            name,
            value,
            unit,
            basis,
        }
    }
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        let value = if m.value.is_nan() {
            "-".to_string()
        } else {
            format!("{:.6}", m.value)
        };
        println!("{:<40} {value:>16} {:<9} {}", m.name, m.unit, m.basis);
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on a non-finite metric value, which would otherwise print
/// invalid JSON.
pub fn result_line(tally: &ErrorTally, metrics: &[Metric]) -> String {
    let metrics = Json::object(metrics.iter().map(|m| {
        (
            m.name.to_string(),
            Json::object([
                ("value".to_string(), Json::F64(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]),
        )
    }));
    Json::object([
        ("correct".to_string(), Json::Bool(tally.correct())),
        ("attempted".to_string(), Json::U64(tally.attempted)),
        ("failed".to_string(), Json::U64(tally.failed)),
        ("metrics".to_string(), metrics),
    ])
    .render()
    .expect("every metric value is finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let tally = ErrorTally {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(
            &tally,
            &[Metric::new("op_ms_p50", 1.25, "ms", String::new())],
        );
        assert_eq!(
            line,
            r#"{"attempted":3,"correct":true,"failed":0,"metrics":{"op_ms_p50":{"unit":"ms","value":1.25}}}"#
        );
    }
}
