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

use crate::asminer::DiscoveredSchema;
use crate::error::MaimonError;
use crate::schema::AcyclicSchema;
use relation::{AttrSet, JoinCounter, Relation};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Mutex;

/// Schemas a worker of [`measure_schemas`] claims at a time. A pass of fewer
/// than two blocks runs on the calling thread alone.
const MEASURE_BLOCK: usize = 256;

/// Quality metrics of one schema against one relation instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
/// [`JoinCounter`] (no memo budget, so it reserves no label buffers); a pass
/// over many schemas should share counters through [`measure_schemas`] or
/// [`evaluate_schema_with`].
///
/// # Errors
/// Returns an error if the schema is cyclic, does not cover the relation's
/// signature, or a projection fails.
pub fn evaluate_schema(
    rel: &Relation,
    schema: &AcyclicSchema,
) -> Result<SchemaQuality, MaimonError> {
    evaluate_schema_with(&mut JoinCounter::with_memo_budget(rel, 0), schema)
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
    check_covers(schema, rel)?;
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
    let storage_savings_pct = savings_pct(original_cells, decomposed_cells);
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

/// Refuses a schema whose bags miss an attribute of `rel`.
fn check_covers(schema: &AcyclicSchema, rel: &Relation) -> Result<(), MaimonError> {
    if schema.covers(rel.schema().all_attrs()) {
        Ok(())
    } else {
        Err(MaimonError::InvalidSchema("schema does not cover the relation signature".into()))
    }
}

/// Storage savings S as a percentage, the one formula both
/// [`evaluate_schema_with`] and [`storage_savings`] use.
fn savings_pct(original_cells: u128, decomposed_cells: u128) -> f64 {
    if original_cells == 0 {
        0.0
    } else {
        100.0 * (1.0 - decomposed_cells as f64 / original_cells as f64)
    }
}

/// Each schema's storage savings S against `rel`, in `schemas` order: the
/// `storage_savings_pct` [`measure_schemas`] reports, to the bit, without
/// the join counts that spurious tuples E need.
///
/// S needs only `|R[Ωᵢ]|` per bag, and schemas of one enumeration share
/// most of their bags, so each distinct bag is counted once per call
/// (plus the full signature once) through one counter that keeps no
/// labels between counts.
///
/// # Errors
/// Returns an error if a schema does not cover the relation's signature or
/// a projection fails.
pub fn storage_savings(
    rel: &Relation,
    schemas: &[DiscoveredSchema],
) -> Result<Vec<f64>, MaimonError> {
    let mut counter = JoinCounter::with_memo_budget(rel, 0);
    let all = rel.schema().all_attrs();
    let original_cells = counter.distinct_count(all)? as u128 * rel.arity() as u128;
    let mut counts: HashMap<AttrSet, u128> = HashMap::new();
    schemas
        .iter()
        .map(|discovered| {
            let schema = &discovered.schema;
            check_covers(schema, rel)?;
            let mut decomposed_cells: u128 = 0;
            for &bag in schema.bags() {
                let count = match counts.entry(bag) {
                    Entry::Occupied(known) => *known.get(),
                    Entry::Vacant(slot) => *slot.insert(counter.distinct_count(bag)? as u128),
                };
                decomposed_cells += count * bag.len() as u128;
            }
            Ok(savings_pct(original_cells, decomposed_cells))
        })
        .collect()
}

/// Measures every schema against `rel`, in `schemas` order, over up to
/// `threads` workers; the calling thread is one of them.
///
/// Workers claim blocks of 256 schemas in order and write each report into
/// its schema's slot; a pass of fewer than two blocks runs on the calling
/// thread alone. Each worker measures through its own [`JoinCounter`]; the
/// counters are built and dropped on the calling thread, so their label
/// memory stays in its allocator. A report is a pure function of its
/// schema, so the result is the same bits at every thread count, and an
/// error is the first one in schema order.
///
/// # Errors
/// As [`evaluate_schema`], for the first failing schema.
pub fn measure_schemas(
    rel: &Relation,
    schemas: &[DiscoveredSchema],
    threads: usize,
) -> Result<Vec<SchemaQuality>, MaimonError> {
    let workers = threads.min(schemas.len().div_ceil(MEASURE_BLOCK)).max(1);
    let mut qualities = vec![SchemaQuality::default(); schemas.len()];
    let mut counters: Vec<JoinCounter<'_>> = (0..workers).map(|_| JoinCounter::new(rel)).collect();
    let blocks = Mutex::new(
        schemas.chunks(MEASURE_BLOCK).zip(qualities.chunks_mut(MEASURE_BLOCK)).enumerate(),
    );
    // Measures claimed blocks until none is left; returns the worker's first
    // error with its schema index. A worker claims blocks in order, so that
    // is its lowest failing index.
    let work = &|counter: &mut JoinCounter<'_>| {
        let mut first_error = None;
        loop {
            // Bound first, so the lock is released before the block runs.
            let claimed =
                blocks.lock().expect("the cursor lock is never held across a panic").next();
            let Some((b, (block, out))) = claimed else { break first_error };
            for (i, (discovered, slot)) in block.iter().zip(out).enumerate() {
                match evaluate_schema_with(counter, &discovered.schema) {
                    Ok(quality) => *slot = quality,
                    Err(e) => {
                        first_error = first_error.or(Some((b * MEASURE_BLOCK + i, e)));
                        break;
                    }
                }
            }
        }
    };
    let (own, helpers) = counters.split_first_mut().expect("at least one worker");
    let first_error = std::thread::scope(|scope| {
        let helpers: Vec<_> =
            helpers.iter_mut().map(|counter| scope.spawn(move || work(counter))).collect();
        let mut errors = vec![work(own)];
        errors.extend(
            helpers.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        errors.into_iter().flatten().min_by_key(|&(index, _)| index)
    });
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(qualities),
    }
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
    fn storage_savings_match_the_full_report_bit_for_bit() {
        let schemas: Vec<DiscoveredSchema> = [
            paper_schema(),
            AcyclicSchema::trivial(AttrSet::full(6)).unwrap(),
            AcyclicSchema::new((0..6).map(AttrSet::singleton).collect()).unwrap(),
            // Shares three of its bags with the paper schema.
            AcyclicSchema::new(vec![
                attrs(&[0, 1, 3]),
                attrs(&[0, 2, 3]),
                attrs(&[1, 3, 4]),
                attrs(&[5]),
            ])
            .unwrap(),
        ]
        .into_iter()
        .map(|schema| DiscoveredSchema { schema, mvds: Vec::new(), j: None })
        .collect();
        for rel in [running_example(false), running_example(true)] {
            let savings = storage_savings(&rel, &schemas).unwrap();
            assert_eq!(savings.len(), schemas.len());
            for (s, discovered) in savings.iter().zip(&schemas) {
                let full = evaluate_schema(&rel, &discovered.schema).unwrap();
                assert_eq!(s.to_bits(), full.storage_savings_pct.to_bits());
            }
        }
        let partial = DiscoveredSchema {
            schema: AcyclicSchema::new(vec![attrs(&[0, 1])]).unwrap(),
            mvds: Vec::new(),
            j: None,
        };
        assert!(storage_savings(&running_example(false), &[partial]).is_err());
        assert!(storage_savings(&running_example(false), &[]).unwrap().is_empty());
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
