//! **Figure 18** (appendix §14.1) — from minimal separators to full MVDs:
//! for each threshold, the number of minimal separators, the number of full
//! MVDs generated from them within a time budget (the paper used 30 minutes),
//! and the generation rate (full MVDs per second), on the Classification,
//! BreastCancer, Adult and Bridges shapes.
//!
//! At ε = 0 the number of full MVDs equals the number of minimal separators
//! (Lemma 5.4 / Beeri's theorem); the gap grows with ε.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig18_full_mvds`

use bench_support::{emit_json, harness_options, mining_config, secs, sweep_min_seps};
use maimon::entropy::PliEntropyOracle;
use maimon::json::Json;
use maimon::wire::ToJson;
use maimon::{get_full_mvds, RunControl, Span, Stage, StageCollector};
use std::collections::BTreeSet;
use std::time::Instant;

const DATASETS: [&str; 4] = ["Classification", "Breast-Cancer", "Adult", "Bridges"];

fn main() {
    let options = harness_options();
    let mut json_rows = Vec::new();
    println!("# Figure 18 — full MVDs generated from the minimal separators");
    println!(
        "# scale = {}, per-threshold budget = {:?} (paper: 30 min), column cap = {}",
        options.scale, options.budget, options.max_columns
    );
    let thresholds = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];

    for name in DATASETS {
        let spec = maimon_datasets::dataset_by_name(name).expect("dataset in catalog");
        let rel = {
            let full = spec.generate(options.scale.max(0.05));
            if full.arity() > options.max_columns {
                full.column_prefix(options.max_columns).expect("cap >= 2")
            } else {
                full
            }
        };
        println!("\n## {} ({} rows × {} cols at this scale)", name, rel.n_rows(), rel.arity());
        println!(
            "{:>8} {:>10} {:>12} {:>12} {:>12}",
            "eps", "min seps", "full MVDs", "time[s]", "MVDs/s"
        );
        for &epsilon in &thresholds {
            let config = mining_config(epsilon);
            let oracle = PliEntropyOracle::new(&rel, config.entropy);

            // Phase A (not timed, as in the paper): minimal separators per
            // pair, fanned out over the shared oracle.
            let sweep = sweep_min_seps(&oracle, epsilon, &config, options.budget);
            let distinct_seps = sweep.distinct();

            // Phase B (timed): full MVDs from the separators. The collector
            // extends the sweep's breakdown, so the emitted row separates
            // separator enumeration from full-MVD generation.
            let collector = StageCollector::new();
            collector.absorb(&sweep.stages);
            let started = Instant::now();
            let mut full_mvds: BTreeSet<_> = BTreeSet::new();
            'full: for pair_seps in &sweep.per_pair {
                let pair = pair_seps.pair;
                for &sep in &pair_seps.separators {
                    if started.elapsed() > options.budget {
                        break 'full;
                    }
                    let _span = Span::enter(Stage::FullMvds, Some(&collector));
                    let found = get_full_mvds(
                        &oracle,
                        sep,
                        epsilon,
                        pair,
                        config.limits.max_full_mvds_per_separator,
                        config.limits.max_lattice_nodes,
                        true,
                        &RunControl::NONE,
                    );
                    full_mvds.extend(found.mvds);
                }
            }
            let elapsed = started.elapsed().as_secs_f64().max(1e-6);
            println!(
                "{:>8} {:>10} {:>12} {:>12} {:>12.1}",
                epsilon,
                distinct_seps.len(),
                full_mvds.len(),
                secs(started.elapsed()),
                full_mvds.len() as f64 / elapsed
            );
            json_rows.push(Json::object([
                ("dataset", Json::from(name)),
                ("epsilon", Json::from(epsilon)),
                ("min_seps", Json::from(distinct_seps.len())),
                ("full_mvds", Json::from(full_mvds.len())),
                ("secs", Json::from(started.elapsed().as_secs_f64())),
                ("mvds_per_sec", Json::from(full_mvds.len() as f64 / elapsed)),
                ("stages", collector.breakdown().to_json()),
            ]));
        }
    }
    println!(
        "# Expected shape: at ε = 0 #full MVDs ≈ #minimal separators; the gap widens as ε grows,"
    );
    println!("# with generation rates of tens of full MVDs per second (paper: ~55/s for ε > 0.1).");
    emit_json("fig18_full_mvds", Json::array(json_rows));
}
