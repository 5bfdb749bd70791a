//! Shared support code for the experiment harness binaries.
//!
//! Every binary in this crate regenerates one table or figure of the paper's
//! evaluation (see the reproduction map in PAPER.md and "Benchmarks and
//! experiment harnesses" in README.md for the full index). Because the
//! original experiments ran for hours on server hardware against
//! multi-million-row datasets, each harness accepts environment variables
//! that scale the run:
//!
//! * `MAIMON_SCALE` — fraction of the original row count to generate
//!   (default `0.002`, i.e. a few thousand rows for the largest datasets).
//! * `MAIMON_BUDGET_SECS` — per-configuration time budget in seconds
//!   (default `15`; the paper used 5 hours for Table 2 and 30 minutes for
//!   §8.4).
//! * `MAIMON_MAX_COLS` — column cap applied to the widest datasets
//!   (default `14`; the paper itself reports timeouts beyond ~30 columns).
//! * `MAIMON_THREADS` — worker count for the pair fan-out (default: the
//!   machine's available parallelism; `1` forces the sequential path). The
//!   mined results are identical for every setting — see
//!   `tests/parallel_equivalence.rs` — only wall-clock time changes.
//!
//! Set `MAIMON_SCALE=1 MAIMON_BUDGET_SECS=18000 MAIMON_MAX_COLS=64` to run at
//! the paper's full scale.

use maimon::entropy::EntropyOracle;
use maimon::relation::AttrSet;
use maimon::{fan_out_pairs, mine_min_seps, MaimonConfig, MiningLimits, RunControl};
use maimon::{StageBreakdown, StageCollector};
use std::time::Duration;

/// Scaling knobs shared by all harness binaries.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Row-count scale factor relative to the original datasets.
    pub scale: f64,
    /// Per-configuration time budget.
    pub budget: Duration,
    /// Maximum number of columns considered per dataset.
    pub max_columns: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { scale: 0.002, budget: Duration::from_secs(15), max_columns: 14 }
    }
}

/// Reads the harness options from the environment (see crate docs).
pub fn harness_options() -> HarnessOptions {
    let default = HarnessOptions::default();
    let parse_f64 = |name: &str, fallback: f64| {
        std::env::var(name).ok().and_then(|v| v.parse::<f64>().ok()).unwrap_or(fallback)
    };
    let parse_usize = |name: &str, fallback: usize| {
        std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(fallback)
    };
    HarnessOptions {
        scale: parse_f64("MAIMON_SCALE", default.scale).clamp(1e-6, 1.0),
        budget: Duration::from_secs_f64(
            parse_f64("MAIMON_BUDGET_SECS", default.budget.as_secs_f64()).max(1.0),
        ),
        max_columns: parse_usize("MAIMON_MAX_COLS", default.max_columns).clamp(2, 64),
    }
}

/// Builds the mining configuration used by the harness binaries: the given ε,
/// the pairwise-consistency optimization on, and limits derived from the
/// harness time budget.
pub fn mining_config(epsilon: f64, options: &HarnessOptions) -> MaimonConfig {
    let limits = MiningLimits::builder()
        .max_full_mvds_per_separator(Some(256))
        .max_separators_per_pair(Some(256))
        .max_lattice_nodes(Some(50_000))
        .time_budget(Some(options.budget))
        .build()
        .expect("harness limits are nonzero");
    MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(limits)
        .max_schemas(Some(2_000))
        .build()
        .expect("harness config is valid")
}

/// Minimal separators of one attribute pair, as produced by a sweep worker.
#[derive(Clone, Debug)]
pub struct PairSeparators {
    /// The attribute pair `(a, b)` with `a < b`.
    pub pair: (usize, usize),
    /// Its minimal separators (sorted, as `mine_min_seps` returns them).
    pub separators: Vec<AttrSet>,
}

/// Result of [`sweep_min_seps`].
#[derive(Clone, Debug, Default)]
pub struct MinSepSweep {
    /// Per-pair separators in canonical pair order (pairs with none omitted).
    pub per_pair: Vec<PairSeparators>,
    /// `true` if the budget or a count limit stopped the sweep early.
    pub truncated: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Busy time per pipeline stage across all workers (so with more than
    /// one thread the total can exceed wall-clock time).
    pub stages: StageBreakdown,
}

impl MinSepSweep {
    /// The distinct separators across all pairs.
    pub fn distinct(&self) -> std::collections::BTreeSet<AttrSet> {
        self.per_pair.iter().flat_map(|p| p.separators.iter().copied()).collect()
    }
}

/// Mines the minimal separators of every attribute pair on a worker pool
/// sharing `oracle` — the separator-only workload Figures 13/14/18 measure.
/// Built on `maimon::fan_out_pairs`, so outcomes are merged in pair order
/// and (for a fixed thread count, without a budget hit) deterministic.
pub fn sweep_min_seps<O: EntropyOracle + ?Sized>(
    oracle: &O,
    epsilon: f64,
    config: &MaimonConfig,
    budget: Duration,
) -> MinSepSweep {
    let n = oracle.arity();
    let pair_count = n.saturating_sub(1) * n / 2;
    let threads = config.effective_threads().min(pair_count).max(1);
    let collector = StageCollector::new();
    let ctl = RunControl::NONE.with_stages(&collector);
    let (outcomes, budget_hit) = fan_out_pairs(n, threads, Some(budget), &ctl, |pair, _index| {
        // The outer span attributes whole-pair time to `mine_min_seps`;
        // the transversal/reduce spans inside subtract their own share, so
        // the breakdown separates enumeration from entropy-oracle work.
        let _span = maimon::Span::enter(maimon::Stage::MineMinSeps, ctl.stages());
        let result = mine_min_seps(oracle, epsilon, pair, &config.limits, true, &ctl);
        (PairSeparators { pair, separators: result.separators }, result.truncated)
    });
    let mut sweep = MinSepSweep {
        threads,
        truncated: budget_hit,
        stages: collector.breakdown(),
        ..MinSepSweep::default()
    };
    for (pair_seps, truncated) in outcomes {
        sweep.truncated |= truncated;
        if !pair_seps.separators.is_empty() {
            sweep.per_pair.push(pair_seps);
        }
    }
    sweep
}

/// `true` when the `MAIMON_JSON` environment variable is set: the `fig*`
/// harness binaries then append one machine-readable JSON line per run,
/// serialized through the stable wire layer (`maimon::wire`), so the tables
/// can be consumed programmatically as well as read.
pub fn json_mode() -> bool {
    std::env::var_os("MAIMON_JSON").is_some()
}

/// Emits a machine-readable result line (`{"bin": …, "payload": …}`) when
/// [`json_mode`] is on. The line is self-delimiting: it is the only stdout
/// line starting with `{`, so `grep '^{'` extracts it from the human table.
pub fn emit_json(bin: &str, payload: maimon::json::Json) {
    if json_mode() {
        let envelope = maimon::json::Json::object([
            ("bin", maimon::json::Json::from(bin)),
            ("payload", payload),
        ]);
        println!("{}", envelope);
    }
}

/// Formats a duration as seconds with two decimals (the unit the paper's
/// tables use).
pub fn secs(duration: Duration) -> String {
    format!("{:.2}", duration.as_secs_f64())
}

/// Prints a Markdown-style separator row for a table with the given column
/// widths.
pub fn print_rule(widths: &[usize]) {
    let line: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|{}|", line.join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let options = HarnessOptions::default();
        assert!(options.scale > 0.0 && options.scale <= 1.0);
        assert!(options.budget >= Duration::from_secs(1));
        assert!(options.max_columns >= 2);
    }

    #[test]
    fn env_parsing_clamps_values() {
        std::env::set_var("MAIMON_SCALE", "7.5");
        std::env::set_var("MAIMON_BUDGET_SECS", "0");
        std::env::set_var("MAIMON_MAX_COLS", "1000");
        let options = harness_options();
        assert!(options.scale <= 1.0);
        assert!(options.budget >= Duration::from_secs(1));
        assert!(options.max_columns <= 64);
        std::env::remove_var("MAIMON_SCALE");
        std::env::remove_var("MAIMON_BUDGET_SECS");
        std::env::remove_var("MAIMON_MAX_COLS");
    }

    #[test]
    fn mining_config_uses_the_budget() {
        let options =
            HarnessOptions { budget: Duration::from_secs(3), ..HarnessOptions::default() };
        let config = mining_config(0.1, &options);
        assert_eq!(config.epsilon, 0.1);
        assert_eq!(config.limits.time_budget, Some(Duration::from_secs(3)));
        assert!(config.validate().is_ok());
    }

    #[test]
    fn secs_formats_two_decimals() {
        assert_eq!(secs(Duration::from_millis(1530)), "1.53");
    }

    #[test]
    fn sweep_matches_the_sequential_pair_loop() {
        use maimon::entropy::PliEntropyOracle;
        let rel = maimon_datasets::running_example_with_red_tuple();
        let sequential_config = MaimonConfig::with_epsilon_and_threads(0.1, 1);
        let oracle = PliEntropyOracle::new(&rel, sequential_config.entropy);
        let mut expected = Vec::new();
        for a in 0..rel.arity() {
            for b in a + 1..rel.arity() {
                let seps = mine_min_seps(
                    &oracle,
                    0.1,
                    (a, b),
                    &sequential_config.limits,
                    true,
                    &RunControl::NONE,
                )
                .separators;
                if !seps.is_empty() {
                    expected.push(((a, b), seps));
                }
            }
        }
        for threads in [1usize, 4] {
            let config = MaimonConfig::with_epsilon_and_threads(0.1, threads);
            let oracle = PliEntropyOracle::new(&rel, config.entropy);
            let sweep = sweep_min_seps(&oracle, 0.1, &config, Duration::from_secs(60));
            assert!(!sweep.truncated);
            assert!(!sweep.stages.is_zero(), "sweep must attribute stage time");
            assert!(sweep.stages.get(maimon::Stage::MineMinSeps) > Duration::ZERO);
            let got: Vec<((usize, usize), Vec<AttrSet>)> =
                sweep.per_pair.iter().map(|p| (p.pair, p.separators.clone())).collect();
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(
                sweep.distinct(),
                expected.iter().flat_map(|(_, s)| s.iter().copied()).collect()
            );
        }
    }
}
