//! `ASMiner` and `BuildAcyclicSchema` (§7): the second phase of Maimon.
//!
//! Given the set `M_ε` of full ε-MVDs from the first phase, `ASMiner`
//! enumerates maximal sets of pairwise-compatible MVDs (= maximal independent
//! sets of the incompatibility graph) and synthesizes one acyclic schema from
//! each with `BuildAcyclicSchema` (Fig. 9), which repeatedly uses an MVD to
//! split the single relation that contains its key.
//!
//! Because the support of a schema with `m` relations consists of `m − 1`
//! MVDs, a schema built from ε-MVDs is only guaranteed to satisfy
//! `J(S) ≤ (m−1)·ε` (Corollary 5.2); the enumeration therefore reports each
//! schema together with its measured `J`, and callers filter by whatever
//! threshold they need.

use crate::compat::incompatibility_graph;
use crate::config::MaimonConfig;
use crate::measure::j_schema;
use crate::mvd::Mvd;
use crate::progress::{ProgressEvent, RunControl};
use crate::schema::AcyclicSchema;
use entropy::EntropyOracle;
use hypergraph::{for_each_maximal_independent_set, Control};
use obs::{Span, Stage, StageBreakdown, StageCollector};
use relation::AttrSet;
use std::collections::BTreeSet;

/// One schema produced by `ASMiner`.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscoveredSchema {
    /// The synthesized acyclic schema.
    pub schema: AcyclicSchema,
    /// The maximal pairwise-compatible MVD set it was built from.
    pub mvds: Vec<Mvd>,
    /// The measured J-measure of the schema (`None` only if the schema were
    /// cyclic, which `BuildAcyclicSchema` never produces).
    pub j: Option<f64>,
}

/// Result of the schema-enumeration phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchemaMiningResult {
    /// Discovered schemas, deduplicated, in enumeration order.
    pub schemas: Vec<DiscoveredSchema>,
    /// Number of maximal independent sets enumerated (before deduplication).
    pub independent_sets_enumerated: usize,
    /// `true` if a limit stopped the enumeration early.
    pub truncated: bool,
    /// Exclusive per-stage wall time of this phase: independent-set
    /// enumeration plus schema synthesis under [`obs::Stage::Transversal`],
    /// J-measure evaluation under [`obs::Stage::Measure`].
    pub stages: StageBreakdown,
}

/// `BuildAcyclicSchema` (Fig. 9): synthesizes an acyclic schema over
/// `universe` from a set of pairwise-compatible ε-MVDs.
///
/// MVDs are applied in ascending order of key cardinality; each one splits
/// the unique relation of the current schema containing its key (redundant
/// MVDs, which would not split anything, are skipped).
pub fn build_acyclic_schema(universe: AttrSet, mvds: &[Mvd]) -> AcyclicSchema {
    let mut queue: Vec<&Mvd> = mvds.iter().collect();
    queue.sort_by_key(|m| (m.key().len(), m.key()));
    build_in_order(universe, queue)
}

/// [`build_acyclic_schema`] over MVDs already in application order.
fn build_in_order<'a>(
    universe: AttrSet,
    queue: impl IntoIterator<Item = &'a Mvd>,
) -> AcyclicSchema {
    let mut bags: Vec<AttrSet> = vec![universe];
    for mvd in queue {
        let key = mvd.key();
        // An MVD applied to a relation containing its key splits it into
        // `key ∪ (dep ∩ target)` for each dependent meeting it; dependents
        // are disjoint from the key and from each other, so those pieces
        // are distinct and the MVD is non-redundant on `target` iff at least
        // two dependents meet it.
        let meeting =
            |target: AttrSet| mvd.dependents().iter().filter(move |d| d.intersects(target));
        // The paper argues the containing relation is unique because MVDs are
        // processed in ascending key-cardinality order; when several MVDs
        // share the same key, earlier splits can leave the key inside more
        // than one relation, so we apply the MVD to the first relation where
        // it is non-redundant (produces at least two pieces).
        let split = bags
            .iter()
            .position(|&target| key.is_subset_of(target) && meeting(target).nth(1).is_some());
        if let Some(position) = split {
            let target = bags.remove(position);
            let first_piece = bags.len();
            bags.extend(meeting(target).map(|&dep| key.union(dep.intersect(target))));
            bags[first_piece..].sort_unstable();
        }
    }
    AcyclicSchema::new(bags).expect("decomposition of a non-empty universe is non-empty")
}

/// `ASMiner` (Fig. 8): enumerates maximal pairwise-compatible subsets of
/// `mvds` and builds one acyclic schema from each.
///
/// Schemas are deduplicated (different MVD sets can synthesize the same
/// schema); enumeration stops at `config.max_schemas`.
///
/// Convenience form of [`mine_schemas_with`] without cancellation or progress
/// plumbing.
pub fn mine_schemas<O: EntropyOracle + ?Sized>(
    oracle: &O,
    universe: AttrSet,
    mvds: &[Mvd],
    config: &MaimonConfig,
) -> SchemaMiningResult {
    mine_schemas_with(oracle, universe, mvds, config, &RunControl::NONE)
}

/// [`mine_schemas`] with cancellation, deadline and progress plumbing.
///
/// When `ctl` fires mid-enumeration the schemas discovered so far are
/// returned flagged `truncated`, like the `max_schemas` path.
/// [`ProgressEvent::SchemaFound`] fires once per deduplicated schema.
pub fn mine_schemas_with<O: EntropyOracle + ?Sized>(
    oracle: &O,
    universe: AttrSet,
    mvds: &[Mvd],
    config: &MaimonConfig,
    ctl: &RunControl<'_>,
) -> SchemaMiningResult {
    let mut result = SchemaMiningResult::default();
    // Per-run stage aggregation, mirroring `mine_mvds_with`: with a
    // caller-attached collector, spans record into a local one and the
    // breakdown is stamped on the result; without one, spans stay inert.
    let collector = StageCollector::new();
    let outer_stages = ctl.stages();
    let ctl = &match outer_stages {
        Some(_) => ctl.clone().with_stages(&collector),
        None => ctl.clone(),
    };
    ctl.emit(ProgressEvent::SchemaMiningStarted { mvds: mvds.len() });
    if mvds.is_empty() {
        // No MVDs: the only schema is the trivial one.
        if let Ok(schema) = AcyclicSchema::trivial(universe) {
            let j = {
                let _span = Span::enter(Stage::Measure, ctl.stages());
                j_schema(oracle, &schema)
            };
            result.schemas.push(DiscoveredSchema { schema, mvds: Vec::new(), j });
            ctl.emit(ProgressEvent::SchemaFound { discovered: 1 });
        }
        if let Some(outer) = outer_stages {
            result.stages = collector.breakdown();
            outer.absorb(&result.stages);
        }
        ctl.emit(ProgressEvent::SchemaMiningFinished {
            schemas: result.schemas.len(),
            truncated: false,
        });
        return result;
    }

    let enumeration_span = Span::enter(Stage::Transversal, ctl.stages());
    let graph = incompatibility_graph(mvds);
    // `build_acyclic_schema` applies a set's MVDs by a stable sort on
    // (key size, key); over sets listed in ascending index order that is
    // the order of (key size, key, index), ranked here once so each visit
    // sorts plain integers and builds from borrowed MVDs.
    let mut by_rank: Vec<usize> = (0..mvds.len()).collect();
    by_rank.sort_by_key(|&i| (mvds[i].key().len(), mvds[i].key(), i));
    let mut rank = vec![0; mvds.len()];
    for (r, &i) in by_rank.iter().enumerate() {
        rank[i] = r;
    }
    let mut queue: Vec<usize> = Vec::new();
    let mut seen: BTreeSet<AcyclicSchema> = BTreeSet::new();
    let mut schemas: Vec<DiscoveredSchema> = Vec::new();
    let mut truncated = false;
    let mut enumerated = 0usize;
    for_each_maximal_independent_set(&graph, |independent| {
        enumerated += 1;
        queue.clear();
        queue.extend(independent.iter().map(|&i| rank[i]));
        queue.sort_unstable();
        let schema = build_in_order(universe, queue.iter().map(|&r| &mvds[by_rank[r]]));
        if !seen.contains(&schema) {
            seen.insert(schema.clone());
            let j = {
                let _span = Span::enter(Stage::Measure, ctl.stages());
                j_schema(oracle, &schema)
            };
            let selected = independent.iter().map(|&i| mvds[i].clone()).collect();
            schemas.push(DiscoveredSchema { schema, mvds: selected, j });
            ctl.emit(ProgressEvent::SchemaFound { discovered: schemas.len() });
        }
        if let Some(max) = config.max_schemas {
            if schemas.len() >= max {
                truncated = true;
                return Control::Stop;
            }
        }
        if ctl.should_stop() {
            truncated = true;
            return Control::Stop;
        }
        Control::Continue
    });
    drop(enumeration_span);
    result.schemas = schemas;
    result.independent_sets_enumerated = enumerated;
    result.truncated = truncated;
    if let Some(outer) = outer_stages {
        result.stages = collector.breakdown();
        outer.absorb(&result.stages);
    }
    ctl.emit(ProgressEvent::SchemaMiningFinished {
        schemas: result.schemas.len(),
        truncated: result.truncated,
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::within_epsilon;
    use crate::miner::mine_mvds;
    use entropy::NaiveEntropyOracle;
    use relation::{Relation, Schema};

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

    fn attrs(v: &[usize]) -> AttrSet {
        v.iter().copied().collect()
    }

    fn running_example_support() -> Vec<Mvd> {
        vec![
            Mvd::standard(attrs(&[1, 3]), attrs(&[4]), attrs(&[0, 2, 5])).unwrap(), // BD ↠ E|ACF
            Mvd::standard(attrs(&[0, 3]), attrs(&[2, 5]), attrs(&[1, 4])).unwrap(), // AD ↠ CF|BE
            Mvd::standard(attrs(&[0]), attrs(&[5]), attrs(&[1, 2, 3, 4])).unwrap(), // A ↠ F|BCDE
        ]
    }

    #[test]
    fn build_schema_from_running_example_support() {
        // Applying the three support MVDs must reconstruct the paper's
        // decomposition {ABD, ACD, BDE, AF} (Fig. 1).
        let schema = build_acyclic_schema(AttrSet::full(6), &running_example_support());
        let expected = AcyclicSchema::new(vec![
            attrs(&[0, 1, 3]),
            attrs(&[0, 2, 3]),
            attrs(&[1, 3, 4]),
            attrs(&[0, 5]),
        ])
        .unwrap();
        assert_eq!(schema, expected);
        assert!(schema.is_acyclic());
    }

    #[test]
    fn build_schema_with_no_mvds_is_trivial() {
        let schema = build_acyclic_schema(AttrSet::full(4), &[]);
        assert_eq!(schema, AcyclicSchema::trivial(AttrSet::full(4)).unwrap());
    }

    #[test]
    fn redundant_mvds_are_ignored() {
        // After applying A ↠ F|BCDE the MVD F ↠ ∅-ish cannot split anything;
        // use an MVD whose key is not contained in any single relation to
        // exercise the `continue` path as well.
        let a_mvd = Mvd::standard(attrs(&[0]), attrs(&[5]), attrs(&[1, 2, 3, 4])).unwrap();
        // This MVD's key {4,5} spans two relations after the first split.
        let spanning = Mvd::standard(attrs(&[4, 5]), attrs(&[0]), attrs(&[1, 2, 3])).unwrap();
        let schema = build_acyclic_schema(AttrSet::full(6), &[a_mvd.clone(), spanning]);
        let only_first = build_acyclic_schema(AttrSet::full(6), &[a_mvd]);
        assert_eq!(schema, only_first);
    }

    #[test]
    fn pieces_join_the_bag_list_in_ascending_order() {
        // The first MVD leaves {0,1,2,3} in one bag; the second splits it
        // into {0,3} and {1,2}, which enter the bag list as {1,2}, {0,3}
        // (ascending), so the third, redundant nowhere else, splits {1,2}.
        let mvd = |deps: &[&[usize]]| {
            Mvd::new(AttrSet::empty(), deps.iter().map(|d| attrs(d)).collect()).unwrap()
        };
        let mvds = [
            mvd(&[&[0, 1, 2, 3], &[4], &[5]]),
            mvd(&[&[0, 3], &[1, 2, 4], &[5]]),
            mvd(&[&[2], &[0, 1, 4], &[3, 5]]),
        ];
        let schema = build_acyclic_schema(AttrSet::full(6), &mvds);
        let expected = AcyclicSchema::new(
            [&[1][..], &[2], &[0, 3], &[4], &[5]].iter().map(|b| attrs(b)).collect(),
        )
        .unwrap();
        assert_eq!(schema, expected);
    }

    #[test]
    fn built_schemas_are_always_acyclic() {
        // Whatever compatible subset we pass, the result must be acyclic.
        let subsets: Vec<Vec<Mvd>> = vec![
            running_example_support(),
            running_example_support()[..2].to_vec(),
            running_example_support()[1..].to_vec(),
            vec![running_example_support()[2].clone()],
        ];
        for subset in subsets {
            let schema = build_acyclic_schema(AttrSet::full(6), &subset);
            assert!(schema.is_acyclic(), "cyclic schema from {:?}", subset);
            assert!(schema.covers(AttrSet::full(6)));
        }
    }

    #[test]
    fn asminer_on_exact_running_example_reaches_the_paper_schema() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let config = MaimonConfig::with_epsilon(0.0);
        let mvds = mine_mvds(&o, &config).mvds;
        let result = mine_schemas(&o, AttrSet::full(6), &mvds, &config);
        assert!(!result.schemas.is_empty());
        // All reported schemas are acyclic, cover Ω, and have a J-measure.
        for discovered in &result.schemas {
            assert!(discovered.schema.is_acyclic());
            assert!(discovered.schema.covers(AttrSet::full(6)));
            assert!(discovered.j.is_some());
        }
        // The finest schema found should decompose into at least 4 relations
        // and have J = 0 (the exact decomposition of Fig. 1 or a refinement).
        let best = result.schemas.iter().max_by_key(|d| d.schema.n_relations()).unwrap();
        assert!(best.schema.n_relations() >= 4, "{:?}", best.schema);
        assert!(within_epsilon(best.j.unwrap(), 0.0));
    }

    #[test]
    fn asminer_with_no_mvds_returns_trivial_schema() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let config = MaimonConfig::with_epsilon(0.0);
        let result = mine_schemas(&o, AttrSet::full(6), &[], &config);
        assert_eq!(result.schemas.len(), 1);
        assert_eq!(result.schemas[0].schema.n_relations(), 1);
        assert!(within_epsilon(result.schemas[0].j.unwrap(), 0.0));
    }

    #[test]
    fn max_schemas_limit_truncates() {
        let rel = running_example(true);
        let o = NaiveEntropyOracle::new(&rel);
        let mut config = MaimonConfig::with_epsilon(0.5);
        let mvds = mine_mvds(&o, &config).mvds;
        if mvds.is_empty() {
            return; // nothing to enumerate; other tests cover this case
        }
        config.max_schemas = Some(1);
        let result = mine_schemas(&o, AttrSet::full(6), &mvds, &config);
        assert_eq!(result.schemas.len(), 1);
    }

    #[test]
    fn schemas_are_deduplicated() {
        let rel = running_example(false);
        let o = NaiveEntropyOracle::new(&rel);
        let config = MaimonConfig::with_epsilon(0.0);
        let mvds = mine_mvds(&o, &config).mvds;
        let result = mine_schemas(&o, AttrSet::full(6), &mvds, &config);
        let mut seen = BTreeSet::new();
        for d in &result.schemas {
            assert!(seen.insert(d.schema.clone()), "duplicate schema {:?}", d.schema);
        }
    }
}
