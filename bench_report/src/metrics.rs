//! The metric glossary: every number the benchmark reports, with its unit,
//! direction, bound and the layer it belongs to.
//!
//! `BENCHMARK.json` lists the gated subset (`gated: true`): the metrics every
//! workload reports, which the regression gate compares. The rest appear in
//! the JSON report and in `--compare` only where they apply. A unit test
//! keeps `BENCHMARK.json` and this table in agreement.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, failures).
    Lower,
    /// Larger values are better (rates, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// End-to-end metrics are what a user sees; per-layer metrics explain them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Measured with tracing off.
    EndToEnd,
    /// Measured in a `--trace` run.
    PerLayer,
}

/// One glossary entry; `README.md` says what each metric measures and
/// which end-to-end metric a per-layer one should move.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`; per-layer names start with the crate.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end or per-layer.
    pub tier: Tier,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression.
    pub bound: Option<f64>,
    /// Reported on every workload and listed in `BENCHMARK.json`.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, tier: Tier::EndToEnd, bound: Some(bound), gated: false }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, tier: Tier::PerLayer, bound: None, gated: false }
}

const fn gate(def: MetricDef) -> MetricDef {
    MetricDef { gated: true, ..def }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first. The serve-only end-to-end metrics are not
/// gated because a gated metric must be measured on every workload.
pub const METRICS: &[MetricDef] = &[
    gate(e2e("setup_s", "s", Lower, 0.25)),
    gate(e2e("mine_s", "s", Lower, 0.25)),
    gate(e2e("peak_rss_mib", "MiB", Lower, 0.25)),
    e2e("mine_p50_ms", "ms", Lower, 0.10),
    e2e("mine_p99_ms", "ms", Lower, 0.10),
    e2e("append_p50_ms", "ms", Lower, 0.10),
    e2e("append_p80_ms", "ms", Lower, 0.10),
    e2e("throughput_rps", "1/s", Higher, 0.10),
    // Any increase is a regression.
    e2e("failed_frac", "ratio", Lower, 0.0),
    layer("relation.csv_parse_s", "s", Lower),
    layer("storage.ingest_s", "s", Lower),
    gate(layer("storage.page_misses", "count", Lower)),
    gate(layer("storage.page_hit_rate", "ratio", Higher)),
    layer("storage.wal_append_mean_ms", "ms", Lower),
    layer("entropy.oracle_build_s", "s", Lower),
    gate(layer("entropy.calls", "count", Lower)),
    gate(layer("entropy.misses", "count", Lower)),
    gate(layer("entropy.hit_rate", "ratio", Higher)),
    gate(layer("entropy.intersections", "count", Lower)),
    gate(layer("entropy.count_only_frac", "ratio", Higher)),
    gate(layer("entropy.cached_plis", "count", Lower)),
    layer("core.mvds_s", "s", Lower),
    layer("core.schemas_s", "s", Lower),
    layer("core.quality_s", "s", Lower),
    gate(layer("core.minsep_s", "s", Lower)),
    gate(layer("core.full_mvds_s", "s", Lower)),
    gate(layer("core.reduce_s", "s", Lower)),
    layer("core.measure_s", "s", Lower),
    gate(layer("core.lattice_nodes", "count", Lower)),
    gate(layer("core.transversals_tested", "count", Lower)),
    gate(layer("core.mvds_found", "count", Higher)),
    layer("core.independent_sets", "count", Lower),
    gate(layer("core.schemas_found", "count", Higher)),
    layer("core.mvd_yield", "ratio", Higher),
    layer("core.schema_yield", "ratio", Higher),
    layer("core.parallel_eff", "ratio", Higher),
    gate(layer("hypergraph.transversal_s", "s", Lower)),
    layer("decompose.build_s", "s", Lower),
    layer("decompose.reduce_s", "s", Lower),
    layer("decompose.bags", "count", Lower),
    layer("decompose.semijoins", "count", Lower),
    layer("serve.mine_dispatch_mean_ms", "ms", Lower),
    layer("serve.mine_dispatch_p50_ms", "ms", Lower),
    layer("serve.mine_wire_gap_p50_ms", "ms", Lower),
    layer("serve.append_dispatch_mean_ms", "ms", Lower),
    layer("serve.response_bytes_mean", "bytes", Lower),
    layer("serve.cold_mine_frac", "ratio", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.errors", "count", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Glossary entry by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics a run prints on its last line: the gated end-to-end ones, or
/// with tracing the gated per-layer ones.
pub fn gated(tier: Tier) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.gated && m.tier == tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maimon::json::Json;

    /// At most 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
            if m.tier == Tier::PerLayer {
                assert!(m.name.contains('.'), "per-layer {} names its crate", m.name);
            }
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_gated_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, tier) in [("end_to_end", Tier::EndToEnd), ("per_layer", Tier::PerLayer)] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            let want: Vec<&MetricDef> = gated(tier).collect();
            assert_eq!(listed.len(), want.len(), "{key}");
            for (entry, def) in listed.iter().zip(want) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better.as_str()));
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
            }
        }
    }

    #[test]
    fn readme_glossary_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("README.md");
        for m in METRICS {
            assert!(readme.contains(&format!("`{}`", m.name)), "README misses {}", m.name);
        }
    }
}
