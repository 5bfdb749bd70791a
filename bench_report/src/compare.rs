//! `--compare BASE HEAD`: the regression gate over two sets of runs.
//!
//! For each (workload, metric) the i-th base run is paired with the i-th
//! head run. A metric has
//!
//! * **regressed** when the head median is worse than the base median by more
//!   than the metric's bound (for `failed_frac`: by anything at all);
//! * **unresolved** when the base runs' own interquartile range is wider than
//!   the bound, unless every head run reads better than every base run;
//! * **improved** when the head wins at least 9 of every 10 pairs (ties count
//!   for neither side; at least 10 pairs) and the medians differ by more than
//!   the base runs' interquartile range;
//! * **unchanged** otherwise.

use crate::metrics::{self, Better, MetricDef, Tier};
use crate::stats::{iqr, median};
use maimon::json::Json;
use std::collections::BTreeMap;

/// The outcome for one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pair rule.
    Improved,
    /// Within the bound, no resolved gain.
    Unchanged,
    /// The base runs spread wider than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Applies the rule above to one metric's base and head samples.
pub fn verdict(def: &MetricDef, base: &[f64], head: &[f64]) -> Verdict {
    let (Some(base_med), Some(head_med)) = (median(base), median(head)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let worse_by = match def.better {
        Better::Lower => head_med - base_med,
        Better::Higher => base_med - head_med,
    };
    let allowed = def.bound.unwrap_or(0.0) * base_med.abs();
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    let spread = iqr(base).unwrap_or(f64::INFINITY);
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    if spread > allowed && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|(&b, &h)| better(h, b)).count();
    if pairs >= 10
        && wins * 10 >= pairs * 9
        && (head_med - base_med).abs() > spread
        && better(head_med, base_med)
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Run reports from a file: one report, a JSON array of them, an object
/// with a `runs` array (a full `bench_report` run), or one per line.
pub fn load_runs(text: &str) -> Result<Vec<Json>, String> {
    fn flatten(json: Json, out: &mut Vec<Json>) {
        match json {
            Json::Array(items) => items.into_iter().for_each(|j| flatten(j, out)),
            Json::Object(_) if json.get("runs").is_some() => {
                if let Some(Json::Array(runs)) = json.get("runs").cloned() {
                    runs.into_iter().for_each(|j| flatten(j, out));
                }
            }
            other => out.push(other),
        }
    }
    let mut runs = Vec::new();
    match Json::parse(text.trim()) {
        Ok(json) => flatten(json, &mut runs),
        Err(_) => {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                flatten(Json::parse(line.trim()).map_err(|e| e.to_string())?, &mut runs);
            }
        }
    }
    Ok(runs)
}

/// (workload, metric) → values, one per run in file order.
fn samples(runs: &[Json]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else { continue };
        for (name, metric) in run.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    out
}

/// One row of the comparison table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// Head median.
    pub head: f64,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the head won.
    pub wins: usize,
    /// `None` for per-layer metrics, which have no bound.
    pub verdict: Option<Verdict>,
}

/// Compares every (workload, metric) present on both sides.
pub fn compare(base: &[Json], head: &[Json]) -> Vec<Row> {
    let base = samples(base);
    let head = samples(head);
    let mut rows = Vec::new();
    for (key, b) in &base {
        let (Some(h), Some(def)) = (head.get(key), metrics::def(&key.1)) else { continue };
        let better = |x: f64, y: f64| match def.better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            base: median(b).unwrap_or(f64::NAN),
            head: median(h).unwrap_or(f64::NAN),
            pairs: b.len().min(h.len()),
            wins: b.iter().zip(h).filter(|(&x, &y)| better(y, x)).count(),
            verdict: (def.tier == Tier::EndToEnd).then(|| verdict(def, b, h)),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::def(name).unwrap()
    }

    #[test]
    fn a_clear_gain_in_nine_of_ten_pairs_is_improved() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let mut head: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        head[3] = 10.5; // one lost pair is allowed
        assert_eq!(verdict(def("mine_s"), &base, &head), Verdict::Improved);
        // Higher-is-better metrics flip the direction.
        let up: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(verdict(def("throughput_rps"), &base, &up), Verdict::Improved);
    }

    #[test]
    fn too_few_wins_or_pairs_is_not_improved() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let mut head: Vec<f64> = base.iter().map(|b| b * 0.95).collect();
        head[0] = 11.0;
        head[1] = 11.0; // 8 of 10
        assert_eq!(verdict(def("mine_s"), &base, &head), Verdict::Unchanged);
        let fewer: Vec<f64> = base[..5].iter().map(|b| b * 0.8).collect();
        assert_eq!(verdict(def("mine_s"), &base[..5], &fewer), Verdict::Unchanged);
    }

    #[test]
    fn a_median_beyond_the_bound_is_regressed() {
        // mine_p50_ms may worsen by 10%.
        let base = [10.0, 10.1, 9.9, 10.0, 10.2];
        let head = [11.5, 11.4, 11.6, 11.5, 11.3];
        assert_eq!(verdict(def("mine_p50_ms"), &base, &head), Verdict::Regressed);
        let within = [10.5, 10.4, 10.6, 10.5, 10.3];
        assert_eq!(verdict(def("mine_p50_ms"), &base, &within), Verdict::Unchanged);
        // Any increase of failed_frac regresses.
        assert_eq!(verdict(def("failed_frac"), &[0.0; 3], &[0.0, 0.01, 0.01]), Verdict::Regressed);
        assert_eq!(verdict(def("failed_frac"), &[0.0; 3], &[0.0; 3]), Verdict::Unchanged);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved() {
        let base = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0];
        let head = [10.5, 9.5, 10.2, 10.0, 9.8, 10.1, 10.3];
        assert_eq!(verdict(def("mine_s"), &base, &head), Verdict::Unresolved);
        // ...unless every head run beats every base run.
        let faster = [6.0, 5.5, 6.5, 6.2, 5.9, 6.1, 6.0];
        assert_ne!(verdict(def("mine_s"), &base, &faster), Verdict::Unresolved);
    }

    #[test]
    fn reports_load_from_arrays_run_sets_and_lines() {
        let one = r#"{"workload":"w","metrics":{"mine_s":{"value":1.0,"unit":"s"}}}"#;
        assert_eq!(load_runs(one).unwrap().len(), 1);
        assert_eq!(load_runs(&format!("[{one},{one}]")).unwrap().len(), 2);
        assert_eq!(load_runs(&format!("{{\"runs\":[{one},{one},{one}]}}")).unwrap().len(), 3);
        assert_eq!(load_runs(&format!("{one}\n{one}\n")).unwrap().len(), 2);
        let rows = compare(&load_runs(one).unwrap(), &load_runs(one).unwrap());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Some(Verdict::Unresolved), "one run has no spread");
    }
}
