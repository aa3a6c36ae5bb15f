//! Metric catalogue and the result a run prints.
//!
//! The catalogue must match `BENCHMARK.json`: every run
//! without tracing prints every [`END_TO_END`] metric, every traced run
//! every [`PER_LAYER`] metric. A layer a workload leaves idle reads 0.

use crate::Result;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Counts marked
/// `/pass` are per whole pass over the operator pool, so they repeat
/// exactly for a seed whatever the run length.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("toeplitz.generator_ms", "ms"),
    ("toeplitz.fft_setup_ms", "ms"),
    ("toeplitz.fft_residual_ms", "ms"),
    ("toeplitz.direct_residual_ms", "ms"),
    ("plan.build_us", "us"),
    ("perfmodel.flops_ratio", "ratio"),
    ("perfmodel.shard_time_ratio", "ratio"),
    ("core.factor_ms", "ms"),
    ("core.factor_gflops", "Gflop/s"),
    ("core.solve_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.refine_singular_ms", "ms"),
    ("core.refine_iters", "count/pass"),
    ("core.refine_pass_ratio.singular_scalar", "ratio"),
    ("core.refine_pass_ratio.singular_block8", "ratio"),
    ("core.refine_pass_ratio.mixed_ar1", "ratio"),
    ("core.mixed_fallbacks", "count/pass"),
    ("matrix.flops_per_op", "flop"),
    ("matrix.bytes_per_op", "B-computed"),
    ("matrix.ops_per_byte", "flop/B-computed"),
    ("matrix.peak_gflops", "Gflop/s"),
    ("matrix.rate_ratio", "ratio"),
    ("matrix.pool_outstanding", "count"),
    ("serve.hit_us", "us"),
    ("serve.content_hit_us", "us"),
    ("serve.miss_ms", "ms"),
    ("serve.local_solve_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.hits", "count/pass"),
    ("serve.factorizations", "count/pass"),
    ("serve.evictions", "count/pass"),
    ("serve.shed", "count/pass"),
    ("serve.hit_ratio", "ratio"),
    ("shard.inside_ms", "ms"),
    ("shard.caller_overhead_ms", "ms"),
    ("shard.compute_ms", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.np1_ms", "ms"),
    ("shard.speedup_np2", "ratio"),
    ("shard.vs_sequential", "ratio"),
    ("distmem.bytes_per_op", "B"),
    ("distmem.wait_ms", "ms"),
    ("probe.trace_overhead_pct", "%"),
    ("bench.self_us", "us"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.latency_samples", "count"),
    ("bench.error_rate", "ratio"),
];

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (0 for an idle layer).
    pub samples: usize,
}

/// Metric values collected during a run, emitted in catalogue order.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<&'static str, (f64, usize)>,
}

impl Values {
    /// Record `name` (must be in the catalogue being built).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.map.insert(name, (value, samples));
    }

    /// Value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|v| v.0)
    }

    /// The metrics of `catalogue` in order; names never set read 0
    /// (idle layer). Fails on a name outside the catalogue or a value
    /// that is not finite.
    pub fn finish(self, catalogue: &[(&'static str, &'static str)]) -> Result<Vec<Metric>> {
        if let Some(stray) = self
            .map
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray} is not in the catalogue"));
        }
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.map.get(name).copied().unwrap_or((0.0, 0));
                if value.is_finite() {
                    Ok(Metric {
                        name,
                        unit,
                        value,
                        samples,
                    })
                } else {
                    Err(format!("metric {name} is not finite ({value})"))
                }
            })
            .collect()
    }
}

/// What one run prints.
#[derive(Clone, Debug)]
pub struct Report {
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// `false` when an answer on a path the program certifies was wrong.
    pub correct: bool,
    /// Ops attempted in the timed phase(s).
    pub attempted: u64,
    /// Ops that failed verification, returned an error or were shed.
    pub failed: u64,
    /// The catalogue's metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
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
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric on its own line with unit and sample count, then
    /// the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {} {} {} samples={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} repeats");
        }
    }

    #[test]
    fn idle_metrics_read_zero_and_strays_fail() {
        let mut v = Values::default();
        v.set("setup_s", 0.5, 3);
        let m = v.finish(&END_TO_END).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!((m[0].value, m[0].samples), (0.5, 3));
        assert_eq!(m[1].value, 0.0);
        let mut v = Values::default();
        v.set("nope", 1.0, 1);
        assert!(v.finish(&END_TO_END).is_err());
        let mut v = Values::default();
        v.set("setup_s", f64::NAN, 1);
        assert!(v.finish(&END_TO_END).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = Report {
            lines: vec![],
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                samples: 3,
            }],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.render().ends_with(&format!("{}\n", r.json())));
    }
}
