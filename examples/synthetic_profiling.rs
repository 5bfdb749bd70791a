//! Profile a synthetic Metanome-shaped dataset end to end: open one
//! [`MaimonSession`] over the relation and sweep a few thresholds through
//! its staged pipeline, reporting the structural quality measures of §8.4
//! (number of relations, width, intersection width). The session shares its
//! PLI entropy oracle across the whole sweep, and each threshold runs under
//! a 30-second deadline of its own.
//!
//! Run with:
//! `cargo run --release --example synthetic_profiling [dataset] [scale]`
//! where `dataset` is a Table 2 name (default "Abalone") and `scale` a row
//! fraction in (0, 1] (default 0.05).

use maimon::{MaimonConfig, MaimonSession, MiningLimits};
use maimon_datasets::{dataset_by_name, metanome_catalog};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Abalone".to_string());
    let scale: f64 = std::env::args().nth(2).map(|s| s.parse()).transpose()?.unwrap_or(0.05);
    let spec = dataset_by_name(&name).ok_or_else(|| {
        format!(
            "unknown dataset {:?}; available: {}",
            name,
            metanome_catalog().iter().map(|d| d.name).collect::<Vec<_>>().join(", ")
        )
    })?;
    let rel = spec.generate(scale);
    println!(
        "Dataset {} (synthetic stand-in): {} rows × {} columns (scale {})",
        spec.name,
        rel.n_rows(),
        rel.arity(),
        scale
    );

    let config = MaimonConfig::builder()
        .epsilon(0.05) // default ε, used by mine_fds below
        .limits(
            MiningLimits::builder()
                .max_separators_per_pair(Some(16))
                .max_full_mvds_per_separator(Some(16))
                .max_lattice_nodes(Some(20_000))
                .build()?,
        )
        .max_schemas(Some(100))
        .build()?;
    let session = MaimonSession::new(&rel, config)?;

    println!(
        "\n{:<7} {:>8} {:>8} {:>9} {:>7} {:>6} {:>9} {:>10}",
        "ε", "seps", "MVDs", "schemas", "max m", "width", "intWidth", "time"
    );
    for &epsilon in &[0.0, 0.01, 0.1, 0.3] {
        let started = Instant::now();
        let deadline = started + Duration::from_secs(30);
        let result = session.clone().with_deadline(deadline).quality(epsilon)?;
        let max_relations =
            result.schemas.iter().map(|s| s.discovered.schema.n_relations()).max().unwrap_or(1);
        let min_width =
            result.schemas.iter().map(|s| s.discovered.schema.width()).min().unwrap_or(rel.arity());
        let min_int_width = result
            .schemas
            .iter()
            .map(|s| s.discovered.schema.intersection_width())
            .min()
            .unwrap_or(0);
        println!(
            "{:<7} {:>8} {:>8} {:>9} {:>7} {:>6} {:>9} {:>9.2?}",
            epsilon,
            result.mvds.distinct_separators().len(),
            result.mvds.mvds.len(),
            result.schemas.len(),
            max_relations,
            min_width,
            min_int_width,
            started.elapsed()
        );
    }
    let oracle = session.oracle_stats();
    println!(
        "\nShared oracle after the sweep: {} calls, {} cache hits, {} intersections (built once)",
        oracle.calls, oracle.cache_hits, oracle.intersections
    );

    println!("\nApproximate FDs (ε = 0.05, LHS ≤ 2 attributes):");
    let fds = session.mine_fds(2);
    for fd in fds.fds.iter().take(15) {
        println!("  {}", fd.display(rel.schema()));
    }
    if fds.fds.len() > 15 {
        println!("  … and {} more", fds.fds.len() - 15);
    }
    Ok(())
}
