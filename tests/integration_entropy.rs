//! Integration tests of the entropy engine against the mining layer: oracle
//! agreement on real mining workloads, Shannon-inequality sanity checks, and
//! the CSV → relation → entropy path.

use maimon::entropy::{EntropyConfig, EntropyOracle, NaiveEntropyOracle, PliEntropyOracle};
use maimon::relation::{relation_from_csv, relation_to_csv, AttrSet, CsvOptions};
use maimon::{j_mvd, Mvd};
use maimon_datasets::{dataset_by_name, nursery_with_rows, running_example};

#[test]
fn oracles_agree_on_every_subset_of_a_catalog_dataset() {
    let rel = dataset_by_name("Abalone").unwrap().generate(0.05);
    let naive = NaiveEntropyOracle::new(&rel);
    let default_pli = PliEntropyOracle::with_defaults(&rel);
    let no_precompute = PliEntropyOracle::new(&rel, EntropyConfig::no_precompute());
    let small_blocks =
        PliEntropyOracle::new(&rel, EntropyConfig { block_size: Some(3), max_cached_plis: 10_000 });
    for attrs in AttrSet::full(rel.arity()).subsets().filter(|s| s.len() <= 3) {
        let expected = naive.entropy(attrs);
        for (name, oracle) in [
            ("default", &default_pli as &dyn EntropyOracle),
            ("no_precompute", &no_precompute),
            ("small_blocks", &small_blocks),
        ] {
            let got = oracle.entropy(attrs);
            assert!(
                (expected - got).abs() < 1e-9,
                "{} oracle disagrees on {:?}: {} vs {}",
                name,
                attrs,
                expected,
                got
            );
        }
    }
}

#[test]
fn shannon_inequalities_hold_empirically_on_nursery() {
    // Monotonicity, submodularity and non-negativity of conditional mutual
    // information on real-ish data exercise the full entropy stack.
    let rel = nursery_with_rows(1500);
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let n = rel.arity();
    let sets: Vec<AttrSet> = vec![
        AttrSet::singleton(0),
        AttrSet::singleton(8),
        [0usize, 1].into_iter().collect(),
        [2usize, 3, 4].into_iter().collect(),
        [5usize, 6, 7].into_iter().collect(),
        AttrSet::full(n),
    ];
    for &x in &sets {
        for &y in &sets {
            // Monotonicity: H(X ∪ Y) ≥ H(X).
            assert!(oracle.entropy(x.union(y)) + 1e-9 >= oracle.entropy(x));
            for &z in &sets {
                // Non-negative conditional mutual information (submodularity).
                let y_rest = y.difference(x);
                let z_rest = z.difference(x).difference(y_rest);
                if y_rest.is_empty() || z_rest.is_empty() {
                    continue;
                }
                assert!(oracle.mutual_information(y_rest, z_rest, x) >= 0.0);
            }
        }
    }
}

#[test]
fn chain_rule_identity_holds() {
    // I(B; CD | A) = I(B; C | A) + I(B; D | AC)  (Eq. 4).
    let rel = nursery_with_rows(1000);
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let a = AttrSet::singleton(0);
    let b = AttrSet::singleton(1);
    let c = AttrSet::singleton(2);
    let d = AttrSet::singleton(3);
    let lhs = oracle.mutual_information(b, c.union(d), a);
    let rhs = oracle.mutual_information(b, c, a) + oracle.mutual_information(b, d, a.union(c));
    assert!((lhs - rhs).abs() < 1e-9, "chain rule violated: {} vs {}", lhs, rhs);
}

#[test]
fn csv_round_trip_preserves_entropies_and_j_measures() {
    let rel = running_example();
    let csv = relation_to_csv(&rel, ',');
    let parsed = relation_from_csv(&csv, CsvOptions::default()).unwrap();
    assert!(rel.equal_as_sets(&parsed));

    let schema = rel.schema().clone();
    let mvd = Mvd::standard(
        schema.attrs(["A", "D"]).unwrap(),
        schema.attrs(["C", "F"]).unwrap(),
        schema.attrs(["B", "E"]).unwrap(),
    )
    .unwrap();
    let original_oracle = NaiveEntropyOracle::new(&rel);
    let parsed_oracle = NaiveEntropyOracle::new(&parsed);
    assert!((j_mvd(&original_oracle, &mvd) - j_mvd(&parsed_oracle, &mvd)).abs() < 1e-12);
    for attrs in AttrSet::full(6).subsets() {
        assert!(
            (original_oracle.entropy(attrs) - parsed_oracle.entropy(attrs)).abs() < 1e-12,
            "entropy differs after CSV round trip on {:?}",
            attrs
        );
    }
}

#[test]
fn pli_cache_reuse_reduces_work_between_phases() {
    // Mining MVDs and then schemas with the same oracle reuses cached
    // entropies: the second phase must trigger almost no new intersections.
    // The first 8 Bridges columns mine to completion in well under a second
    // (191 MVDs, 2,637 schemas), so both phases run whole and the oracle
    // counts are the same on every run.
    let rel = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8).unwrap();
    let config = maimon::MaimonConfig::builder()
        .epsilon(0.05)
        .limits(maimon::MiningLimits::small())
        .build()
        .unwrap();
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let mvds = maimon::mine_mvds(&oracle, &config);
    assert!(!mvds.stats.truncated);
    let after_phase_one = oracle.stats();
    let universe = AttrSet::full(rel.arity());
    let schemas = maimon::mine_schemas(&oracle, universe, &mvds.mvds, &config);
    assert!(!schemas.truncated);
    let after_phase_two = oracle.stats();
    assert!(after_phase_two.calls > after_phase_one.calls);
    let new_intersections = after_phase_two.intersections - after_phase_one.intersections;
    assert!(
        new_intersections <= after_phase_one.intersections.max(64),
        "schema enumeration should mostly reuse cached entropies ({} new intersections)",
        new_intersections
    );
}

#[test]
fn entropy_of_keys_and_constants() {
    // On Nursery: the 8 input attributes form a key (H = log2 N); a constant
    // column would have H = 0; the class has strictly positive entropy below
    // that of the key.
    let rel = nursery_with_rows(4096);
    let oracle = PliEntropyOracle::with_defaults(&rel);
    let inputs: AttrSet = (0..8).collect();
    let h_inputs = oracle.entropy(inputs);
    assert!((h_inputs - (rel.n_rows() as f64).log2()).abs() < 1e-9);
    let class = AttrSet::singleton(8);
    let h_class = oracle.entropy(class);
    assert!(h_class > 0.0 && h_class < h_inputs);
    // Conditional entropy of the class given the inputs is zero (it is a
    // function of them).
    assert!(oracle.conditional_entropy(class, inputs).abs() < 1e-9);
}
