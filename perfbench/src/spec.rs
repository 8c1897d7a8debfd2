//! The benchmark's workloads and metric names and units, read from the
//! repository's `BENCHMARK.json` (built into the binary), the one place they
//! are written down. `perfbench/metrics.json` only annotates them.

use serde_json::Value;
use std::sync::OnceLock;

/// Workload names and metric names with units, in file order.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
}

fn field(entry: &Value, key: &str) -> String {
    entry[key]
        .as_str()
        .unwrap_or_else(|| panic!("BENCHMARK.json entry without {key}"))
        .to_string()
}

/// The parsed `BENCHMARK.json`.
pub fn get() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<(String, String)> {
            list(&doc, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        Spec {
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}
