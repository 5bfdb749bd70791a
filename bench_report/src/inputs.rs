//! Seeded workload inputs, written as CSV files into the work directory.
//!
//! The program only ever sees the generated files. Seed 0 reproduces the
//! catalog stand-ins byte for byte; another seed serves the same relation
//! with its rows in a seeded order (the small datasets, whose mining cost
//! would swing with a different generator draw) or draws a fresh planted
//! relation from the same distribution (the 1M-row dataset, large enough that
//! its cost does not).

use maimon::relation::{relation_to_csv, Relation};
use maimon_datasets::{dataset_by_name, write_planted_csv, SyntheticSpec};
use std::io::BufWriter;
use std::path::Path;

/// SplitMix64: a tiny, well-mixed generator for seeded choices.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` in stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `rel` with its rows in a seeded order; seed 0 keeps the original order.
pub fn shuffled(rel: &Relation, seed: u64) -> Relation {
    let mut order: Vec<usize> = (0..rel.n_rows()).collect();
    if seed != 0 {
        let mut rng = SplitMix64::new(seed, 1);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
    }
    rel.select_rows(&order)
}

/// Bridges stand-in (108 rows), first 10 columns.
pub fn bridges10() -> Relation {
    dataset_by_name("Bridges")
        .expect("Bridges is in the catalog")
        .generate(1.0)
        .column_prefix(10)
        .expect("Bridges has 13 columns")
}

/// Abalone stand-in (4177 × 9).
pub fn abalone() -> Relation {
    dataset_by_name("Abalone").expect("Abalone is in the catalog").generate(1.0)
}

/// Writes `rel` in a seeded row order as CSV.
pub fn write_shuffled_csv(rel: &Relation, seed: u64, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, relation_to_csv(&shuffled(rel, seed), ','))
}

/// The planted 1M × 10 specification; seed 0 is the generator's default
/// draw, the one the repository's large-ingest smoke test mines.
pub fn planted_spec(rows: usize, seed: u64) -> SyntheticSpec {
    let default = SyntheticSpec::default();
    let seed = if seed == 0 { default.seed } else { SplitMix64::new(seed, 2).next_u64() };
    SyntheticSpec { rows, seed, ..default }
}

/// Streams the planted relation to `path` without materializing it.
pub fn write_planted(spec: &SyntheticSpec, path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write_planted_csv(spec, &mut out).map_err(std::io::Error::other)?;
    std::io::Write::flush(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_catalog_order_and_others_permute_it() {
        let rel = bridges10();
        assert_eq!(rel.arity(), 10);
        let same = shuffled(&rel, 0);
        assert_eq!(relation_to_csv(&same, ','), relation_to_csv(&rel, ','));
        let a = shuffled(&rel, 7);
        assert!(a.equal_as_sets(&rel));
        assert_ne!(relation_to_csv(&a, ','), relation_to_csv(&rel, ','));
        assert_eq!(relation_to_csv(&a, ','), relation_to_csv(&shuffled(&rel, 7), ','));
    }
}
