//! **Figure 14** — column scalability: runtime and number of minimal
//! separators as a function of the number of columns (a prefix of the
//! schema), for ε ∈ {0, 0.01, 0.1}, on the Entity Source, Voter State and
//! Census shapes, with a per-configuration time limit (the paper used 5
//! hours and shows several timeouts).
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig14_column_scalability`

use bench_support::{emit_json, harness_options, mining_config, secs, sweep_min_seps};
use maimon::entropy::PliEntropyOracle;
use maimon::json::Json;
use maimon::wire::ToJson;
use std::time::Instant;

fn main() {
    let options = harness_options();
    let mut json_rows = Vec::new();
    println!("# Figure 14 — minimal separators and runtime vs #columns");
    println!(
        "# scale = {}, per-configuration budget = {:?} (paper: 5 h), column cap = {}, threads = {}",
        options.scale,
        options.budget,
        options.max_columns,
        maimon::MaimonConfig::default().effective_threads()
    );
    let epsilons = [0.0, 0.01, 0.1];

    for name in ["Entity Source", "Voter State", "Census"] {
        let spec = maimon_datasets::dataset_by_name(name).expect("dataset in catalog");
        let full = spec.generate(options.scale);
        println!(
            "\n## {} ({} rows at this scale, {} cols in the original)",
            name,
            full.n_rows(),
            spec.columns
        );
        println!("{:>8} {:>8} {:>10} {:>10} {:>12}", "cols", "eps", "seps", "time[s]", "timed out");
        // Column fractions of the (capped) schema, mirroring the paper's 10 %–100 % sweep.
        let max_cols = full.arity().min(options.max_columns);
        let mut column_counts: Vec<usize> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|f| ((max_cols as f64) * f).round() as usize)
            .filter(|&c| c >= 3)
            .collect();
        column_counts.dedup();
        for &cols in &column_counts {
            let rel = full.column_prefix(cols).expect("prefix within arity");
            for &epsilon in &epsilons {
                let config = mining_config(epsilon);
                let oracle = PliEntropyOracle::new(&rel, config.entropy);
                let started = Instant::now();
                let sweep = sweep_min_seps(&oracle, epsilon, &config, options.budget);
                println!(
                    "{:>8} {:>8} {:>10} {:>10} {:>12}",
                    cols,
                    epsilon,
                    sweep.distinct().len(),
                    secs(started.elapsed()),
                    sweep.truncated
                );
                json_rows.push(Json::object([
                    ("dataset", Json::from(name)),
                    ("cols", Json::from(cols)),
                    ("epsilon", Json::from(epsilon)),
                    ("seps", Json::from(sweep.distinct().len())),
                    ("secs", Json::from(started.elapsed().as_secs_f64())),
                    ("truncated", Json::from(sweep.truncated)),
                    ("stages", sweep.stages.to_json()),
                ]));
            }
        }
    }
    println!("# Expected shape: runtime rises sharply with the column count (and with the number");
    println!("# of separators); wide configurations hit the time limit, as in the paper.");
    emit_json("fig14_column_scalability", Json::array(json_rows));
}
