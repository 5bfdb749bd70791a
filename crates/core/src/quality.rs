//! Schema quality metrics (§8.1, §8.2, §8.4).
//!
//! For every discovered schema the paper reports:
//!
//! * **S — storage savings**: one minus the ratio between the number of cells
//!   of the decomposed instance (`Σᵢ |R[Ωᵢ]|·|Ωᵢ|`) and of the original
//!   instance (`|R|·|Ω|`), as a percentage.
//! * **E — spurious tuples**: `(|⋈ᵢ R[Ωᵢ]| − |R|) / |R|` as a percentage,
//!   computed without materializing the join (Yannakakis-style counting in
//!   the relational substrate).
//! * structural measures: number of relations, width, intersection width.
//!
//! The pareto front over (S, E) is what Fig. 10/11 highlight for Nursery.

use crate::error::MaimonError;
use crate::schema::AcyclicSchema;
use relation::{JoinCounter, Relation};

/// Quality metrics of one schema against one relation instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemaQuality {
    /// Number of relations in the schema.
    pub n_relations: usize,
    /// Largest relation (attribute count).
    pub width: usize,
    /// Largest pairwise bag intersection.
    pub intersection_width: usize,
    /// Storage savings S as a percentage in `[−∞, 100)`. Positive values mean
    /// the decomposition stores fewer cells than the original relation.
    pub storage_savings_pct: f64,
    /// Spurious tuples E as a percentage (0 for exact decompositions).
    pub spurious_tuples_pct: f64,
    /// Cells of the original relation.
    pub original_cells: u128,
    /// Cells of the decomposed instance.
    pub decomposed_cells: u128,
    /// Size of the re-joined instance `|⋈ᵢ R[Ωᵢ]|`.
    pub join_size: u128,
}

/// Computes the full quality report for one schema with a one-shot
/// [`JoinCounter`]; a pass over many schemas should share one counter
/// through [`evaluate_schema_with`].
///
/// # Errors
/// Returns an error if the schema is cyclic, does not cover the relation's
/// signature, or a projection fails.
pub fn evaluate_schema(
    rel: &Relation,
    schema: &AcyclicSchema,
) -> Result<SchemaQuality, MaimonError> {
    evaluate_schema_with(&mut JoinCounter::new(rel), schema)
}

/// [`evaluate_schema`] against the counter's relation, reusing the
/// projection labels the counter already holds. The result is the same
/// bits either way.
///
/// # Errors
/// As [`evaluate_schema`].
pub fn evaluate_schema_with(
    counter: &mut JoinCounter<'_>,
    schema: &AcyclicSchema,
) -> Result<SchemaQuality, MaimonError> {
    let rel = counter.relation();
    if !schema.covers(rel.schema().all_attrs()) {
        return Err(MaimonError::InvalidSchema(
            "schema does not cover the relation signature".into(),
        ));
    }
    let tree = schema
        .join_tree()
        .ok_or_else(|| MaimonError::InvalidSchema("cyclic schema has no join tree".into()))?;
    // The full set first: the join admits the bags and separators after it,
    // so the per-bag counts below are memo hits even under a tight budget.
    let original_distinct = counter.distinct_count(rel.schema().all_attrs())? as u128;
    let original_cells = original_distinct * rel.arity() as u128;
    let join_size = counter.join_size(&tree.to_spec())?;
    let mut decomposed_cells: u128 = 0;
    for &bag in schema.bags() {
        let count = counter.distinct_count(bag)? as u128;
        decomposed_cells += count * bag.len() as u128;
    }
    let storage_savings_pct = if original_cells == 0 {
        0.0
    } else {
        100.0 * (1.0 - decomposed_cells as f64 / original_cells as f64)
    };
    let spurious_tuples_pct = if original_distinct == 0 {
        0.0
    } else {
        100.0 * join_size.saturating_sub(original_distinct) as f64 / original_distinct as f64
    };
    Ok(SchemaQuality {
        n_relations: schema.n_relations(),
        width: schema.width(),
        intersection_width: schema.intersection_width(),
        storage_savings_pct,
        spurious_tuples_pct,
        original_cells,
        decomposed_cells,
        join_size,
    })
}

/// Computes the quality report *and* cross-checks it against the decomposed
/// store: the store's exact per-bag cell counts must reproduce
/// `decomposed_cells` (and therefore `storage_savings_pct` bit-for-bit), and
/// its count-propagation over the materialized bag tables must reproduce
/// `join_size`. The counting path (`acyclic_join_size` on the raw relation)
/// and the store path are independent implementations, so agreement here is
/// a strong end-to-end invariant; disagreement returns
/// [`MaimonError::Store`].
///
/// # Errors
/// Returns an error if [`evaluate_schema`] fails, the store cannot be built,
/// or the two implementations disagree.
pub fn evaluate_schema_checked(
    rel: &Relation,
    schema: &AcyclicSchema,
) -> Result<SchemaQuality, MaimonError> {
    let quality = evaluate_schema(rel, schema)?;
    let store = schema.decompose(rel)?;
    if store.total_cells() != quality.decomposed_cells {
        return Err(MaimonError::Store(format!(
            "store holds {} cells but the projection counts give {}",
            store.total_cells(),
            quality.decomposed_cells
        )));
    }
    if store.original_cells() != quality.original_cells {
        return Err(MaimonError::Store(format!(
            "store records {} original cells but the relation has {}",
            store.original_cells(),
            quality.original_cells
        )));
    }
    let store_join = store.reconstruction_count();
    if store_join != quality.join_size {
        return Err(MaimonError::Store(format!(
            "store reconstruction has {} tuples but acyclic_join_size counted {}",
            store_join, quality.join_size
        )));
    }
    // Same integers + same formula ⇒ the store's savings must be identical
    // (not merely close) to the quality metric's.
    if store.storage_savings_pct() != quality.storage_savings_pct {
        return Err(MaimonError::Store(format!(
            "store savings {} % != quality savings {} %",
            store.storage_savings_pct(),
            quality.storage_savings_pct
        )));
    }
    Ok(quality)
}

/// Indices of the pareto-optimal points among `(savings, spurious)` pairs:
/// a point is pareto-optimal if no other point has at least as much savings
/// *and* at most as many spurious tuples, with one inequality strict.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut front = Vec::new();
    'outer: for (i, &(savings, spurious)) in points.iter().enumerate() {
        for (j, &(other_savings, other_spurious)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = other_savings >= savings
                && other_spurious <= spurious
                && (other_savings > savings || other_spurious < spurious);
            if dominates {
                continue 'outer;
            }
        }
        front.push(i);
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{AttrSet, Relation, Schema};

    fn attrs(v: &[usize]) -> AttrSet {
        v.iter().copied().collect()
    }

    fn running_example(with_red_tuple: bool) -> Relation {
        let schema = Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap();
        let mut rows = vec![
            vec!["a1", "b1", "c1", "d1", "e1", "f1"],
            vec!["a2", "b2", "c1", "d1", "e2", "f2"],
            vec!["a2", "b2", "c2", "d2", "e3", "f2"],
            vec!["a1", "b2", "c1", "d2", "e3", "f1"],
        ];
        if with_red_tuple {
            rows.push(vec!["a1", "b2", "c1", "d2", "e2", "f1"]);
        }
        Relation::from_rows(schema, &rows).unwrap()
    }

    fn paper_schema() -> AcyclicSchema {
        AcyclicSchema::new(vec![
            attrs(&[0, 1, 3]),
            attrs(&[0, 2, 3]),
            attrs(&[1, 3, 4]),
            attrs(&[0, 5]),
        ])
        .unwrap()
    }

    #[test]
    fn exact_decomposition_has_zero_spurious_tuples() {
        let rel = running_example(false);
        let q = evaluate_schema(&rel, &paper_schema()).unwrap();
        assert_eq!(q.spurious_tuples_pct, 0.0);
        assert_eq!(q.join_size, 4);
        assert_eq!(q.n_relations, 4);
        assert_eq!(q.width, 3);
        assert_eq!(q.intersection_width, 2);
        assert_eq!(q.original_cells, 24);
        // Decomposed: ABD has 4 tuples ×3, ACD 4×3, BDE 3×3, AF 2×2 = 37 cells.
        assert_eq!(q.decomposed_cells, 37);
        assert!(q.storage_savings_pct < 0.0, "tiny example actually grows");
    }

    #[test]
    fn red_tuple_produces_twenty_percent_spurious() {
        // 5 real tuples, 1 spurious tuple in the re-join (Fig. 1): E = 20 %.
        let rel = running_example(true);
        let q = evaluate_schema(&rel, &paper_schema()).unwrap();
        assert_eq!(q.join_size, 6);
        assert!((q.spurious_tuples_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn trivial_schema_has_no_savings_and_no_spurious_tuples() {
        let rel = running_example(true);
        let schema = AcyclicSchema::trivial(AttrSet::full(6)).unwrap();
        let q = evaluate_schema(&rel, &schema).unwrap();
        assert_eq!(q.spurious_tuples_pct, 0.0);
        assert!((q.storage_savings_pct - 0.0).abs() < 1e-9);
        assert_eq!(q.n_relations, 1);
    }

    #[test]
    fn fully_decomposed_schema_maximizes_savings_and_spurious_tuples() {
        // One relation per attribute: savings are large on dense data, at the
        // price of a cross-product worth of spurious tuples (Nursery §8.1).
        let schema_obj = Schema::new(["A", "B", "C"]).unwrap();
        let mut rows = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    // Leave one combination out so the decomposition is lossy.
                    if (a, b, c) != (2, 2, 2) {
                        rows.push(vec![a.to_string(), b.to_string(), c.to_string()]);
                    }
                }
            }
        }
        let rel = Relation::from_rows(schema_obj, &rows).unwrap();
        let schema = AcyclicSchema::new(vec![attrs(&[0]), attrs(&[1]), attrs(&[2])]).unwrap();
        let q = evaluate_schema(&rel, &schema).unwrap();
        assert_eq!(q.join_size, 27);
        assert!((q.spurious_tuples_pct - 100.0 / 26.0).abs() < 1e-9);
        // 26·3 = 78 cells originally, 9 cells decomposed.
        assert_eq!(q.original_cells, 78);
        assert_eq!(q.decomposed_cells, 9);
        assert!(q.storage_savings_pct > 80.0);
    }

    #[test]
    fn schema_not_covering_signature_is_rejected() {
        let rel = running_example(false);
        let schema = AcyclicSchema::new(vec![attrs(&[0, 1])]).unwrap();
        assert!(evaluate_schema(&rel, &schema).is_err());
    }

    #[test]
    fn cyclic_schema_is_rejected() {
        let schema_obj = Schema::new(["A", "B", "C"]).unwrap();
        let rel = Relation::from_rows(schema_obj, &[vec!["1", "2", "3"]]).unwrap();
        let cyclic =
            AcyclicSchema::new(vec![attrs(&[0, 1]), attrs(&[1, 2]), attrs(&[2, 0])]).unwrap();
        assert!(evaluate_schema(&rel, &cyclic).is_err());
    }

    #[test]
    fn checked_evaluation_agrees_with_the_store() {
        for rel in [running_example(false), running_example(true)] {
            let plain = evaluate_schema(&rel, &paper_schema()).unwrap();
            let checked = evaluate_schema_checked(&rel, &paper_schema()).unwrap();
            assert_eq!(plain, checked);
        }
        // The trivial and fully-decomposed schemas exercise the single-bag
        // and empty-separator store paths.
        let rel = running_example(true);
        let trivial = AcyclicSchema::trivial(AttrSet::full(6)).unwrap();
        evaluate_schema_checked(&rel, &trivial).unwrap();
        let shredded = AcyclicSchema::new((0..6).map(AttrSet::singleton).collect()).unwrap();
        evaluate_schema_checked(&rel, &shredded).unwrap();
    }

    #[test]
    fn pareto_front_keeps_non_dominated_points() {
        // (savings, spurious): point 1 dominates point 0; points 1, 2 are on
        // the front; point 3 is dominated by 2.
        let points = [(10.0, 5.0), (20.0, 5.0), (30.0, 8.0), (25.0, 9.0)];
        let front = pareto_front(&points);
        assert_eq!(front, vec![1, 2]);
        // Duplicates are all kept (neither strictly dominates the other).
        let duplicated = [(10.0, 5.0), (10.0, 5.0)];
        assert_eq!(pareto_front(&duplicated), vec![0, 1]);
        assert!(pareto_front(&[]).is_empty());
    }
}
