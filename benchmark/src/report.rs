//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` lists the same names; a unit test holds the two
//! together. Every run prints every metric of its pass: the four
//! end-to-end metrics without tracing, all per-layer metrics with it.
//! A per-layer metric whose layer does no work in a workload reads 0
//! there (`gemm.single_ms` on `conv_wino`): that is its prediction.

use serde_json::Value;

pub const WORKLOADS: [&str; 5] = [
    "conv_wino",
    "conv_gemm",
    "net_infer",
    "serve_open",
    "cold_start",
];

/// End-to-end metrics: name, unit, whether lower is better.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("op_ms_p50", "ms", true),
    ("op_ms_tail", "ms", true),
    ("capacity_per_s", "1/s", false),
    ("setup_s", "s", true),
];

/// Per-layer metrics: name and unit, grouped by layer (crate).
pub const PER_LAYER: [(&str, &str); 58] = [
    ("machine.fma_gflops", "GFLOP/s"),
    ("machine.stream_gbps", "GB/s"),
    ("symbolic.recipes_ms", "ms"),
    ("gemm.batched_ms", "ms"),
    ("gemm.batched_gflops", "GFLOP/s"),
    ("gemm.batched_pct_peak", "%"),
    ("gemm.single_ms", "ms"),
    ("gemm.single_gflops", "GFLOP/s"),
    ("gemm.single_pct_peak", "%"),
    ("conv.raw_ms", "ms"),
    ("conv.transform_ms", "ms"),
    ("conv.transform_share", "ratio"),
    ("conv.transform_share_r5", "ratio"),
    ("conv.im2col_ms", "ms"),
    ("conv.eff_gflops", "GFLOP/s"),
    ("conv.filter_transform_ms", "ms"),
    ("conv.filter_transform_gflops", "GFLOP/s"),
    ("conv.max_rel_err", "ratio"),
    ("guard.overhead_ms", "ms"),
    ("guard.overhead_share", "ratio"),
    ("guard.demotions", "count"),
    ("exec.pass_ms_alexnet", "ms"),
    ("exec.pass_ms_nin", "ms"),
    ("exec.pass_ms_inception-v1", "ms"),
    ("exec.sum_convs_ms", "ms"),
    ("exec.overhead_ms", "ms"),
    ("exec.overhead_share", "ratio"),
    ("exec.arena_peak_bytes", "bytes"),
    ("exec.naive_bytes", "bytes"),
    ("exec.waves", "count"),
    ("exec.steps", "count"),
    ("exec.first_infer_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.batch_size_mean_r40", "count"),
    ("serve.batch_size_mean_r70", "count"),
    ("serve.batch_size_mean_r100", "count"),
    ("serve.batch_size_mean_r130", "count"),
    ("serve.req_ms_p90_r40", "ms"),
    ("serve.req_ms_p90_r70", "ms"),
    ("serve.req_ms_p90_r100", "ms"),
    ("serve.req_ms_p90_r130", "ms"),
    ("serve.rate_ok_grid_rps", "1/s"),
    ("serve.knee_rps", "1/s"),
    ("serve.saturated_rps", "1/s"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.deadline_demoted", "count"),
    ("serve.ladder_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.shutdown_ms", "ms"),
    ("harness.gen_lag_ms_p99", "ms"),
    ("harness.gen_lag_ms_max", "ms"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.failed_share", "ratio"),
];

/// What one pass of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Measured metrics by name; [`Outcome::result_line`] supplies 0
    /// for a per-layer metric the workload leaves idle.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the reader: sample counts, per-row tables, caveats.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().rev().find(|m| m.0 == name).map(|m| m.1)
    }

    fn catalogue(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        }
    }

    /// Outputs were all checked and all within tolerance, and every
    /// reported number is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// Every metric of this pass by name, with value and unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in self.catalogue() {
            let value = self.get(name).unwrap_or(0.0);
            out.push_str(&format!("  {:<32} {:>16.6} {}\n", name, value, unit));
        }
        out
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                let entry = vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("finite values serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new("conv_wino", false);
        out.attempted = 3;
        for (name, _, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let parsed: Value = serde_json::from_str(&out.result_line()).unwrap();
        let Value::Object(fields) = &parsed else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = parsed.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit"), Some(&Value::Str("ms".into())));

        // A traced pass lists every per-layer metric, idle layers at 0.
        let mut traced = Outcome::new("conv_wino", true);
        traced.attempted = 1;
        traced.set("gemm.batched_ms", 2.0);
        let parsed: Value = serde_json::from_str(&traced.result_line()).unwrap();
        let Some(Value::Object(metrics)) = parsed.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("gemm.single_ms")
                .unwrap()
                .get("value"),
            Some(&Value::Float(0.0))
        );
    }

    /// `BENCHMARK.json` sits two levels up from this file's package;
    /// the driver's contract and this catalogue must name the same
    /// things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Value::Array(items)) = spec.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|item| match item.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entries have names"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.0));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
    }
}
