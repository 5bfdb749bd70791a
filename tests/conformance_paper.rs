//! Paper-conformance golden-value suite.
//!
//! Pins the implementation to ground truth taken directly from the source
//! papers rather than to its own past output:
//!
//! * the Fig. 1 running example decomposes exactly (ε = 0) into
//!   `{ABD, ACD, BDE, AF}` (Kenig et al., SIGMOD 2020, §1–2);
//! * `j_mvd` / `j_schema` match entropies computed by hand from the 4- and
//!   5-tuple instances, following the J-measure semantics of "Quantifying the
//!   Loss of Acyclic Join Dependencies" (Kenig, 2022) / §3.2 of the paper;
//! * `mine_min_seps` (Fig. 5) agrees with the exponential
//!   `minimal_separators_bruteforce` reference on small relations;
//! * the PLI-cache entropy oracle (§6.3) agrees with the naive full-scan
//!   oracle on every dataset in the Table 2 catalog.
//!
//! Every expected number below is derived in a comment from first principles
//! (group sizes → `Σ (s/n)·log₂(n/s)`), so a regression here means the
//! *semantics* drifted, not just an implementation detail.

use maimon::entropy::{EntropyOracle, NaiveEntropyOracle, PliEntropyOracle};
use maimon::relation::{random_uniform_relation, AttrSet, Relation, Schema};
use maimon::{
    j_mvd, j_schema, mine_min_seps, minimal_separators_bruteforce, schema_holds, AcyclicSchema,
    MaimonConfig, MaimonSession, MiningLimits, Mvd, RunControl, EPSILON_TOLERANCE,
};
use maimon_datasets::{metanome_catalog, running_example, running_example_with_red_tuple};

fn attrs(v: &[usize]) -> AttrSet {
    v.iter().copied().collect()
}

/// Entropy in bits of a multiset of group sizes: `Σ (s/n)·log₂(n/s)`.
/// Deliberately re-derived here (instead of calling
/// `entropy::entropy_from_group_sizes`) so the goldens are independent of the
/// crate under test.
fn h(groups: &[usize]) -> f64 {
    let n: usize = groups.iter().sum();
    groups.iter().map(|&s| (s as f64 / n as f64) * ((n as f64 / s as f64).log2())).sum()
}

/// Attribute indices of the running example: A=0, B=1, C=2, D=3, E=4, F=5.
fn fig1_bags() -> Vec<AttrSet> {
    vec![attrs(&[0, 1, 3]), attrs(&[0, 2, 3]), attrs(&[1, 3, 4]), attrs(&[0, 5])]
}

// ---------------------------------------------------------------------------
// Fig. 1: the ε = 0 pipeline recovers the paper's exact decomposition.
// ---------------------------------------------------------------------------

#[test]
fn fig1_exact_pipeline_recovers_abd_acd_bde_af() {
    // "Recovers Fig. 1" in the pipeline's own terms: (a) the ε = 0 MVD set
    // M₀ contains Fig. 1's support MVDs (full MVDs refine standard ones, so
    // the AD-keyed support appears through its full refinement), and (b)
    // BuildAcyclicSchema on that support synthesizes exactly
    // {ABD, ACD, BDE, AF}. ASMiner itself only reports schemas of *maximal*
    // compatible MVD sets (§7), which refine or rearrange Fig. 1's — those
    // are checked for exactness below.
    let rel = running_example();
    let session = MaimonSession::new(&rel, MaimonConfig::with_epsilon(0.0)).unwrap();
    let mined = session.mvds(0.0).unwrap();

    // Fig. 1's join tree is supported by BD ↠ E|ACF, AD ↠ CF|BE, A ↠ F|BCDE.
    let bd_e = Mvd::standard(attrs(&[1, 3]), attrs(&[4]), attrs(&[0, 2, 5])).unwrap();
    let ad_cf = Mvd::standard(attrs(&[0, 3]), attrs(&[2, 5]), attrs(&[1, 4])).unwrap();
    let a_f = Mvd::standard(attrs(&[0]), attrs(&[5]), attrs(&[1, 2, 3, 4])).unwrap();
    for support in [&bd_e, &ad_cf, &a_f] {
        assert!(
            mined.mvds.iter().any(|m| m == support || m.refines(support)),
            "M₀ misses Fig. 1 support MVD (key {:?})",
            support.key()
        );
    }

    // Synthesis from the support recovers the paper's schema exactly.
    let schema =
        maimon::build_acyclic_schema(AttrSet::full(6), &[bd_e.clone(), ad_cf.clone(), a_f.clone()]);
    let mut bags = schema.bags().to_vec();
    bags.sort();
    let mut expected = fig1_bags();
    expected.sort();
    assert_eq!(bags, expected, "BuildAcyclicSchema must recover {{ABD, ACD, BDE, AF}}");

    // The recovered schema is an exact decomposition: J = 0 and the join of
    // its projections reproduces R tuple-for-tuple (Lee's theorem both ways).
    let oracle = NaiveEntropyOracle::new(&rel);
    let j = j_schema(&oracle, &schema).unwrap();
    assert!(j.abs() <= EPSILON_TOLERANCE, "Fig. 1 schema must have J = 0, got {j}");
    let tree = schema.join_tree().unwrap();
    assert!(maimon::relation::satisfies_join_dependency(&rel, &tree.to_spec()).unwrap());

    // End-to-end: the full run reports only exact schemas at ε = 0, at least
    // one of them a 4-bag decomposition, and none with spurious tuples.
    let result = session.quality(0.0).unwrap();
    assert!(!result.truncated, "ε=0 run on 4 tuples must not hit any limit");
    assert!(!result.schemas.is_empty());
    assert!(result.schemas.iter().any(|s| s.discovered.schema.n_relations() == 4));
    for ranked in &result.schemas {
        let j = ranked.discovered.j.expect("BuildAcyclicSchema never yields cyclic schemas");
        assert!(j.abs() <= EPSILON_TOLERANCE, "ε=0 mining emitted an inexact schema");
        assert_eq!(ranked.quality.spurious_tuples_pct, 0.0);
        assert!(schema_holds(&oracle, &ranked.discovered.schema, 0.0));
    }
}

#[test]
fn fig1_schema_stops_holding_once_the_red_tuple_is_added() {
    let rel = running_example_with_red_tuple();
    let schema = AcyclicSchema::new(fig1_bags()).unwrap();
    let oracle = NaiveEntropyOracle::new(&rel);
    assert!(!schema_holds(&oracle, &schema, 0.0));
    // …but it ε-holds once ε exceeds its J-measure (§2: "for ε ≥ 0.151 …").
    let j = j_schema(&oracle, &schema).unwrap();
    assert!(schema_holds(&oracle, &schema, j + 1e-6));
}

// ---------------------------------------------------------------------------
// J-measure golden values, hand-computed from the tuples of Fig. 1.
// ---------------------------------------------------------------------------

#[test]
fn j_mvd_matches_hand_computed_entropies_on_the_exact_example() {
    // The 4-tuple instance. Projection group sizes, counted by hand:
    //   H(A)      : {a1,a2} → [2,2]                     = 1 bit
    //   H(AF)     : {(a1,f1),(a2,f2)} → [2,2]           = 1 bit
    //   H(BD)     : [(b1,d1)=1,(b2,d1)=1,(b2,d2)=2]     = 1.5 bits
    //   H(BDE)    : [1,1,2]                             = 1.5 bits
    //   H(ABCDE)  : all distinct → [1,1,1,1]            = 2 bits
    //   H(ABCDF)  : all distinct                        = 2 bits
    //   H(ABCDEF) : all distinct                        = 2 bits = log₂ 4
    let rel = running_example();
    let s = rel.schema().clone();

    for oracle in [
        &NaiveEntropyOracle::new(&rel) as &dyn EntropyOracle,
        &PliEntropyOracle::with_defaults(&rel) as &dyn EntropyOracle,
    ] {
        assert!((oracle.entropy(s.attrs(["A"]).unwrap()) - 1.0).abs() < 1e-12);
        assert!((oracle.entropy(s.attrs(["A", "F"]).unwrap()) - 1.0).abs() < 1e-12);
        assert!((oracle.entropy(s.attrs(["B", "D"]).unwrap()) - h(&[1, 1, 2])).abs() < 1e-12);
        assert!((oracle.entropy(AttrSet::full(6)) - 2.0).abs() < 1e-12);

        // J(A ↠ F | BCDE) = H(AF) + H(ABCDE) − H(A) − H(Ω) = 1 + 2 − 1 − 2 = 0.
        let a_f = Mvd::standard(
            s.attrs(["A"]).unwrap(),
            s.attrs(["F"]).unwrap(),
            s.attrs(["B", "C", "D", "E"]).unwrap(),
        )
        .unwrap();
        assert!(j_mvd(oracle, &a_f).abs() < 1e-12);

        // J(BD ↠ E | ACF) = H(BDE) + H(ABCDF) − H(BD) − H(Ω)
        //                 = 1.5 + 2 − 1.5 − 2 = 0.
        let bd_e = Mvd::standard(
            s.attrs(["B", "D"]).unwrap(),
            s.attrs(["E"]).unwrap(),
            s.attrs(["A", "C", "F"]).unwrap(),
        )
        .unwrap();
        assert!(j_mvd(oracle, &bd_e).abs() < 1e-12);
    }
}

#[test]
fn j_mvd_matches_hand_computed_entropies_with_the_red_tuple() {
    // The 5-tuple instance (red tuple (a1,b2,c1,d2,e2,f1) added). By hand:
    //   H(BDE)    : [(b1,d1,e1)=1,(b2,d1,e2)=1,(b2,d2,e3)=2,(b2,d2,e2)=1]
    //   H(ABCDF)  : rows 4 and 5 collide on ABCDF → [1,1,1,2]
    //   H(BD)     : [(b1,d1)=1,(b2,d1)=1,(b2,d2)=3]
    //   H(Ω)      : all 5 distinct → log₂ 5
    // J(BD ↠ E|ACF) = H(BDE) + H(ABCDF) − H(BD) − H(Ω) ≈ 0.1510 — the value
    // behind the paper's "§2 … no longer holds" claim for the BD MVD.
    let expected_j = h(&[1, 1, 2, 1]) + h(&[1, 1, 1, 2]) - h(&[1, 1, 3]) - (5f64).log2();
    assert!((expected_j - 0.151).abs() < 1e-3, "sanity: the paper reports ≈ 0.151");

    let rel = running_example_with_red_tuple();
    let s = rel.schema().clone();
    let bd_e = Mvd::standard(
        s.attrs(["B", "D"]).unwrap(),
        s.attrs(["E"]).unwrap(),
        s.attrs(["A", "C", "F"]).unwrap(),
    )
    .unwrap();

    for oracle in [
        &NaiveEntropyOracle::new(&rel) as &dyn EntropyOracle,
        &PliEntropyOracle::with_defaults(&rel) as &dyn EntropyOracle,
    ] {
        assert!((j_mvd(oracle, &bd_e) - expected_j).abs() < 1e-12);

        // The other two support MVDs of Fig. 1 still hold exactly.
        let ad = Mvd::standard(
            s.attrs(["A", "D"]).unwrap(),
            s.attrs(["C", "F"]).unwrap(),
            s.attrs(["B", "E"]).unwrap(),
        )
        .unwrap();
        let a = Mvd::standard(
            s.attrs(["A"]).unwrap(),
            s.attrs(["F"]).unwrap(),
            s.attrs(["B", "C", "D", "E"]).unwrap(),
        )
        .unwrap();
        assert!(j_mvd(oracle, &ad).abs() < 1e-12);
        assert!(j_mvd(oracle, &a).abs() < 1e-12);
    }
}

#[test]
fn j_schema_matches_hand_computed_value_on_both_instances() {
    // Lee's theorem (Eq. 6) on the Fig. 1 schema. On the exact instance every
    // term cancels: J = (2 + 2 + 1.5 + 1) − (2 + 1.5 + 1) − 2 = 0.
    // On the 5-tuple instance only the BD ↠ E|ACF support MVD is broken, so
    // J(S) must equal J(BD ↠ E|ACF) computed in the previous test.
    let exact = running_example();
    let schema = AcyclicSchema::new(fig1_bags()).unwrap();
    let oracle = NaiveEntropyOracle::new(&exact);
    assert!(j_schema(&oracle, &schema).unwrap().abs() < 1e-12);

    let red = running_example_with_red_tuple();
    let expected_j = h(&[1, 1, 2, 1]) + h(&[1, 1, 1, 2]) - h(&[1, 1, 3]) - (5f64).log2();
    let naive = NaiveEntropyOracle::new(&red);
    let j_naive = j_schema(&naive, &schema).unwrap();
    assert!((j_naive - expected_j).abs() < 1e-9, "J = {j_naive}, expected {expected_j}");
    let pli = PliEntropyOracle::with_defaults(&red);
    let j_pli = j_schema(&pli, &schema).unwrap();
    assert!((j_pli - expected_j).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Minimal separators: Fig. 5 vs the exponential reference.
// ---------------------------------------------------------------------------

#[test]
fn mined_minimal_separators_agree_with_bruteforce() {
    // The running example (both variants) plus small random relations with
    // skewed domains; ε = 0 and a lenient ε both covered. `mine_min_seps`
    // sorts its output and so does the brute force, so direct equality works.
    let mut relations: Vec<Relation> = vec![running_example(), running_example_with_red_tuple()];
    for seed in [1u64, 7, 23] {
        relations.push(random_uniform_relation(40, &[2, 3, 2, 4], seed).unwrap());
        relations.push(random_uniform_relation(25, &[3, 2, 2, 2, 3], seed ^ 0xFF).unwrap());
    }

    let limits = MiningLimits::default();
    for rel in &relations {
        let n = rel.arity();
        for epsilon in [0.0, 0.1] {
            for a in 0..n {
                for b in a + 1..n {
                    let oracle = PliEntropyOracle::with_defaults(rel);
                    let mined =
                        mine_min_seps(&oracle, epsilon, (a, b), &limits, true, &RunControl::NONE);
                    assert!(!mined.truncated, "unlimited run must not truncate");
                    let reference = minimal_separators_bruteforce(&oracle, epsilon, (a, b), true);
                    assert_eq!(
                        mined.separators,
                        reference,
                        "separator mismatch for pair ({a},{b}), ε={epsilon}, \
                         arity {n}, {} rows",
                        rel.n_rows()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entropy oracles: PLI cache vs naive full scan across the Table 2 catalog.
// ---------------------------------------------------------------------------

#[test]
fn pli_and_naive_oracles_agree_on_every_catalog_dataset() {
    let catalog = metanome_catalog();
    assert_eq!(catalog.len(), 20, "Table 2 lists 20 datasets");

    for spec in &catalog {
        // Tiny scale keeps this fast; `generate` floors at 16 rows. Cap the
        // width so the subset sweep below stays polynomial.
        let rel = spec.generate(0.001);
        let rel = if rel.arity() > 8 { rel.column_prefix(8).unwrap() } else { rel };

        let naive = NaiveEntropyOracle::new(&rel);
        let pli = PliEntropyOracle::with_defaults(&rel);
        let full = AttrSet::full(rel.arity());
        for subset in full.subsets() {
            if subset.len() > 3 && subset != full {
                continue;
            }
            let a = naive.entropy(subset);
            let b = pli.entropy(subset);
            assert!(
                (a - b).abs() <= EPSILON_TOLERANCE,
                "oracle divergence on {} subset {subset:?}: naive {a} vs pli {b}",
                spec.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-check: the two running-example constructors match the paper's tuples.
// ---------------------------------------------------------------------------

#[test]
fn running_example_datasets_match_the_paper_figure() {
    let exact = running_example();
    assert_eq!(exact.n_rows(), 4);
    assert_eq!(exact.arity(), 6);
    let red = running_example_with_red_tuple();
    assert_eq!(red.n_rows(), 5);

    // Rebuild the 4-tuple relation from the figure and require identical
    // semantics (equality as sets of tuples).
    let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
    let by_hand = Relation::from_rows(
        schema,
        &[
            vec!["a1", "b1", "c1", "d1", "e1", "f1"],
            vec!["a2", "b2", "c1", "d1", "e2", "f2"],
            vec!["a2", "b2", "c2", "d2", "e3", "f2"],
            vec!["a1", "b2", "c1", "d2", "e3", "f1"],
        ],
    )
    .unwrap();
    let lhs = NaiveEntropyOracle::new(&exact);
    let rhs = NaiveEntropyOracle::new(&by_hand);
    for subset in AttrSet::full(6).subsets() {
        assert!((lhs.entropy(subset) - rhs.entropy(subset)).abs() < 1e-12);
    }
}
