//! Digests of mined artifacts, the benchmark's correctness gate.
//!
//! A digest covers what the program answers: the MVDs with their separator
//! keys, every schema's bags, MVD support and J bits, the quality numbers,
//! the pareto front and the decomposed store's shape. It leaves out what
//! varies with timing or thread interleaving (`elapsed`, `stages`,
//! `threads`, oracle counters) and the search counters (lattice nodes,
//! transversals tested), which an optimisation may legitimately lower
//! without changing a single output bit.

use maimon::decompose::{DecomposedInstance, ReducerStats};
use maimon::relation::AttrSet;
use maimon::{AcyclicSchema, MaimonResult, Mvd, MvdMiningResult, SchemaMiningResult};

/// Seed-0 digests per workload. `serve_mixed` has none: its final relation
/// depends on how the two clients' appends interleave, so it is checked
/// against a direct session on the rebuilt relation instead.
pub const EXPECTED_SEED0: &[(&str, &str)] = &[
    ("enum_bridges10", "b9770bfd0a7fb6c1"),
    ("quality_abalone", "64bccd6938d1aaa8"),
    ("rows_1m_paged", "5c8700a013289d2a"),
];

/// The expected seed-0 digest of `workload`, if it has one.
pub fn expected_seed0(workload: &str) -> Option<&'static str> {
    EXPECTED_SEED0.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d)
}

/// 64-bit FNV-1a over a canonical byte stream.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in (fixed width, so adjacent fields cannot alias).
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds a float in by its exact bits.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Folds a length-prefixed list of attribute sets in.
    pub fn attrsets(&mut self, sets: &[AttrSet]) {
        self.u64(sets.len() as u64);
        for set in sets {
            self.u64(set.bits());
        }
    }

    /// Folds one MVD in: key, then its sorted dependents.
    pub fn mvd(&mut self, mvd: &Mvd) {
        self.u64(mvd.key().bits());
        self.attrsets(mvd.dependents());
    }

    /// Folds `M_ε` in: the MVDs as a set and the separator map.
    pub fn mvds(&mut self, mined: &MvdMiningResult) {
        let mut mvds: Vec<&Mvd> = mined.mvds.iter().collect();
        mvds.sort();
        self.u64(mvds.len() as u64);
        for mvd in mvds {
            self.mvd(mvd);
        }
        self.u64(mined.separators.len() as u64);
        for (&(a, b), separators) in &mined.separators {
            self.u64(a as u64);
            self.u64(b as u64);
            self.attrsets(separators);
        }
        self.u64(u64::from(mined.stats.truncated));
    }

    fn schema(&mut self, schema: &AcyclicSchema, mvds: &[Mvd], j: Option<f64>) {
        self.attrsets(schema.bags());
        self.u64(mvds.len() as u64);
        for mvd in mvds {
            self.mvd(mvd);
        }
        self.f64(j.unwrap_or(f64::NAN));
    }

    /// Folds a schema enumeration in (schemas in the order they are served).
    pub fn schemas(&mut self, mined: &SchemaMiningResult) {
        self.u64(mined.schemas.len() as u64);
        for discovered in &mined.schemas {
            self.schema(&discovered.schema, &discovered.mvds, discovered.j);
        }
        self.u64(u64::from(mined.truncated));
    }

    /// Folds a full pipeline result in: `M_ε`, the ranked schemas with their
    /// quality numbers, and the pareto front.
    pub fn result(&mut self, result: &MaimonResult) {
        self.mvds(&result.mvds);
        self.u64(result.schemas.len() as u64);
        for ranked in &result.schemas {
            let d = &ranked.discovered;
            self.schema(&d.schema, &d.mvds, d.j);
            let q = &ranked.quality;
            for count in [q.n_relations, q.width, q.intersection_width] {
                self.u64(count as u64);
            }
            self.f64(q.storage_savings_pct);
            self.f64(q.spurious_tuples_pct);
            for cells in [q.original_cells, q.decomposed_cells, q.join_size] {
                self.bytes(&cells.to_le_bytes());
            }
        }
        self.u64(result.pareto.len() as u64);
        for &i in &result.pareto {
            self.u64(i as u64);
        }
        self.u64(u64::from(result.truncated));
    }

    /// Folds a decomposed store and its full reduction in: the chosen bags,
    /// per-bag tuple counts before and after, and the reducer's removals.
    pub fn store(
        &mut self,
        schema: &AcyclicSchema,
        store: &DecomposedInstance,
        reduced: &DecomposedInstance,
        reducer: &ReducerStats,
    ) {
        self.attrsets(schema.bags());
        for instance in [store, reduced] {
            self.u64(instance.n_bags() as u64);
            for bag in instance.bags() {
                self.u64(bag.attrs().bits());
                self.u64(bag.n_tuples() as u64);
            }
        }
        for count in [reducer.semijoins, reducer.bottom_up_removed, reducer.top_down_removed] {
            self.u64(count as u64);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maimon::{MaimonConfig, MaimonSession};

    fn digest_at(rel: &maimon::relation::Relation, threads: usize, eps: &[f64]) -> String {
        let config = MaimonConfig::with_epsilon_and_threads(0.0, threads);
        let session = MaimonSession::new(rel, config).unwrap();
        let mut d = Digest::default();
        for point in session.epsilon_sweep(eps.iter().copied()).unwrap() {
            d.result(&point.result);
        }
        d.hex()
    }

    #[test]
    fn digest_is_identical_for_one_and_two_threads() {
        let running = maimon_datasets::running_example_with_red_tuple();
        assert_eq!(digest_at(&running, 1, &[0.0, 0.1]), digest_at(&running, 2, &[0.0, 0.1]));
        let bridges8 = maimon_datasets::dataset_by_name("Bridges")
            .unwrap()
            .generate(1.0)
            .column_prefix(8)
            .unwrap();
        assert_eq!(digest_at(&bridges8, 1, &[0.1]), digest_at(&bridges8, 2, &[0.1]));
    }

    #[test]
    fn digest_changes_when_one_mvd_is_dropped() {
        let rel = maimon_datasets::running_example_with_red_tuple();
        let session = MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.1)).unwrap();
        let mined = session.mvds(0.1).unwrap();
        assert!(mined.mvds.len() > 1, "need an MVD to drop");
        let mut full = Digest::default();
        full.mvds(&mined);
        let mut dropped = (*mined).clone();
        dropped.mvds.pop();
        let mut less = Digest::default();
        less.mvds(&dropped);
        assert_ne!(full.hex(), less.hex());
    }

    #[test]
    fn digest_ignores_timing_fields() {
        let rel = maimon_datasets::running_example_with_red_tuple();
        let session = MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.1)).unwrap();
        let result = session.quality(0.1).unwrap();
        let mut retimed = (*result).clone();
        retimed.mvds.stats.elapsed += std::time::Duration::from_secs(3);
        retimed.mvds.stats.threads += 7;
        retimed.mvds.stats.oracle.intersections += 11;
        retimed.mvds.stats.lattice_nodes_explored += 5;
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.result(&result);
        b.result(&retimed);
        assert_eq!(a.hex(), b.hex());
    }
}
