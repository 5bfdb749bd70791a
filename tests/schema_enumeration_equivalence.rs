//! Schema enumeration (§7) must visit maximal independent sets, and so
//! return schemas, in exactly the order of the straightforward
//! Bron–Kerbosch it replaced: under `max_schemas` the visit order decides
//! which schemas come back.
//!
//! The reference below is that enumerator, kept verbatim apart from
//! formatting: `Vec<usize>` for `P` and `X`, adjacency probed pair by pair.
//! Two levels are checked against it:
//!
//! * graphs: random graphs on up to ~200 vertices (including 63, 64, 65,
//!   128 and 129, around the 64-vertex local phase), edge density
//!   0.05–0.95, compared run to the end and stopped after `k` sets;
//! * `ASMiner`: `mine_schemas` against a legacy visitor that clones the
//!   selected MVDs and calls `build_acyclic_schema`, on Fig. 1 and every
//!   catalog dataset, comparing schemas, order, MVDs, J bits,
//!   `independent_sets_enumerated` and `truncated`.

use maimon::entropy::PliEntropyOracle;
use maimon::hypergraph::{for_each_maximal_independent_set, Control, Graph};
use maimon::relation::{AttrSet, Relation};
use maimon::{
    build_acyclic_schema, incompatibility_graph, j_schema, mine_mvds, mine_schemas, AcyclicSchema,
    DiscoveredSchema, MaimonConfig, MiningLimits, Mvd,
};
use maimon_datasets::{metanome_catalog, running_example, running_example_with_red_tuple};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The Bron–Kerbosch enumerator as it stood before the bit-row rewrite.
fn reference_for_each_mis<F>(g: &Graph, mut visit: F) -> usize
where
    F: FnMut(&[usize]) -> Control,
{
    let n = g.n();
    if n == 0 {
        let _ = visit(&[]);
        return 1;
    }
    let compl_adjacent = |u: usize, v: usize| u != v && !g.has_edge(u, v);

    struct State<'a, F> {
        visit: &'a mut F,
        count: usize,
        stopped: bool,
    }

    fn recurse<F>(
        state: &mut State<'_, F>,
        r: &mut Vec<usize>,
        mut p: Vec<usize>,
        mut x: Vec<usize>,
        compl_adjacent: &dyn Fn(usize, usize) -> bool,
    ) where
        F: FnMut(&[usize]) -> Control,
    {
        if state.stopped {
            return;
        }
        if p.is_empty() && x.is_empty() {
            let mut sorted = r.clone();
            sorted.sort_unstable();
            state.count += 1;
            if (state.visit)(&sorted) == Control::Stop {
                state.stopped = true;
            }
            return;
        }
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| p.iter().filter(|&&v| compl_adjacent(u, v)).count())
            .expect("P ∪ X is non-empty here");
        let candidates: Vec<usize> =
            p.iter().copied().filter(|&v| !compl_adjacent(pivot, v)).collect();
        for v in candidates {
            if state.stopped {
                return;
            }
            let new_p: Vec<usize> = p.iter().copied().filter(|&u| compl_adjacent(v, u)).collect();
            let new_x: Vec<usize> = x.iter().copied().filter(|&u| compl_adjacent(v, u)).collect();
            r.push(v);
            recurse(state, r, new_p, new_x, compl_adjacent);
            r.pop();
            p.retain(|&u| u != v);
            x.push(v);
        }
    }

    let mut state = State { visit: &mut visit, count: 0, stopped: false };
    let mut r = Vec::new();
    recurse(&mut state, &mut r, (0..n).collect(), Vec::new(), &compl_adjacent);
    state.count
}

/// The sets an enumerator visited, in order, and the count it returned.
type Visits = (Vec<Vec<usize>>, usize);

/// What an enumerator visits when stopped after `limit` sets.
fn visits(
    enumerate: impl FnOnce(&mut dyn FnMut(&[usize]) -> Control) -> usize,
    limit: usize,
) -> Visits {
    let mut seen = Vec::new();
    let count = enumerate(&mut |s: &[usize]| {
        seen.push(s.to_vec());
        if seen.len() >= limit {
            Control::Stop
        } else {
            Control::Continue
        }
    });
    (seen, count)
}

/// The reference's visits, then the current enumerator's.
fn both(g: &Graph, limit: usize) -> (Visits, Visits) {
    let reference = visits(|f| reference_for_each_mis(g, f), limit);
    let current = visits(|f| for_each_maximal_independent_set(g, f), limit);
    (reference, current)
}

/// `n` vertices, each pair an edge with probability `percent`%.
fn random_graph(n: usize, percent: u64, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 100 < percent {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Visits past which a random case stops comparing: sparse graphs on
/// 200 vertices have far more maximal independent sets than a test can
/// list, so those cases compare the first `CAP` instead of the whole run.
const CAP: usize = 1_500;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn visit_sequence_matches_the_reference(
        pick in 0usize..10,
        free_n in 1usize..=200,
        percent in 5u64..=95,
        seed in 0u64..u64::MAX,
        k in 1usize..CAP,
    ) {
        let n = [63, 64, 65, 128, 129].get(pick).copied().unwrap_or(free_n);
        let g = random_graph(n, percent, seed);
        let (reference, current) = both(&g, CAP);
        prop_assert_eq!(&current.0, &reference.0, "n = {}, {}%", n, percent);
        prop_assert_eq!(current.1, reference.1);
        // Stopped after k sets (any k up to what the graph has).
        let k = 1 + (k - 1) % reference.0.len();
        let (reference, current) = both(&g, k);
        prop_assert_eq!(reference.0.len(), k);
        prop_assert_eq!(&current.0, &reference.0, "n = {}, {}%, k = {}", n, percent, k);
        prop_assert_eq!(current.1, k);
    }
}

#[test]
fn visit_sequence_matches_the_reference_run_to_the_end() {
    // Dense enough that every maximal independent set fits in the test,
    // at sizes on both sides of one and two words.
    for (n, percent) in
        [(1, 50), (2, 50), (63, 70), (64, 70), (65, 70), (128, 85), (129, 85), (200, 90)]
    {
        for seed in 1..4 {
            let g = random_graph(n, percent, seed);
            let (reference, current) = both(&g, usize::MAX);
            assert!(reference.1 < 50_000, "n = {n}: {} sets", reference.1);
            assert_eq!(current, reference, "n = {n}, {percent}%, seed {seed}");
        }
    }
    // Edge-free graphs: a single set, found at the bottom of the deepest
    // global-phase recursion.
    for n in [0, 64, 65, 300] {
        let (reference, current) = both(&Graph::new(n), usize::MAX);
        assert_eq!(current, reference, "edge-free n = {n}");
        assert_eq!(current.1, 1);
    }
}

/// `BuildAcyclicSchema` as it stood before the rewrite: a stable sort on
/// (key size, key), pieces collected through an ordered set.
fn legacy_build_acyclic_schema(universe: AttrSet, mvds: &[Mvd]) -> AcyclicSchema {
    let mut bags: Vec<AttrSet> = vec![universe];
    let mut queue: Vec<&Mvd> = mvds.iter().collect();
    queue.sort_by_key(|m| (m.key().len(), m.key()));
    for mvd in queue {
        let key = mvd.key();
        let mut application: Option<(usize, BTreeSet<AttrSet>)> = None;
        for (position, &target) in bags.iter().enumerate() {
            if !key.is_subset_of(target) {
                continue;
            }
            let mut pieces: BTreeSet<AttrSet> = BTreeSet::new();
            for &dep in mvd.dependents() {
                let piece = dep.union(key).intersect(target);
                if piece != key && !piece.is_empty() {
                    pieces.insert(piece);
                }
            }
            if pieces.len() >= 2 {
                application = Some((position, pieces));
                break;
            }
        }
        if let Some((position, pieces)) = application {
            bags.remove(position);
            bags.extend(pieces);
        }
    }
    AcyclicSchema::new(bags).expect("decomposition of a non-empty universe is non-empty")
}

/// `ASMiner` as it stood before the rewrite: clone the selected MVDs,
/// build through the legacy `build_acyclic_schema`, dedup through an
/// ordered set. Every visited set's schema is also rebuilt through the
/// current `build_acyclic_schema`, which must agree.
fn legacy_mine_schemas(
    oracle: &PliEntropyOracle,
    universe: AttrSet,
    mvds: &[Mvd],
    max_schemas: usize,
) -> (Vec<DiscoveredSchema>, usize, bool) {
    let graph = incompatibility_graph(mvds);
    let mut seen: BTreeSet<AcyclicSchema> = BTreeSet::new();
    let mut schemas = Vec::new();
    let mut truncated = false;
    let enumerated = reference_for_each_mis(&graph, |independent| {
        let selected: Vec<Mvd> = independent.iter().map(|&i| mvds[i].clone()).collect();
        let schema = legacy_build_acyclic_schema(universe, &selected);
        assert_eq!(build_acyclic_schema(universe, &selected), schema, "{selected:?}");
        if seen.insert(schema.clone()) {
            let j = j_schema(oracle, &schema);
            schemas.push(DiscoveredSchema { schema, mvds: selected, j });
        }
        if schemas.len() >= max_schemas {
            truncated = true;
            return Control::Stop;
        }
        Control::Continue
    });
    (schemas, enumerated, truncated)
}

/// Mines `M_ε` of `rel` and checks `mine_schemas` against the legacy
/// visitor; returns the number of MVDs, i.e. graph vertices.
fn assert_asminer_matches_legacy(rel: &Relation, epsilon: f64, label: &str) -> usize {
    let config = MaimonConfig::builder()
        .epsilon(epsilon)
        .limits(MiningLimits::small().to_builder().time_budget(None).build().unwrap())
        .max_schemas(Some(25))
        .threads(Some(1))
        .build()
        .unwrap();
    let oracle = PliEntropyOracle::new(rel, config.entropy);
    let mvds = mine_mvds(&oracle, &config).mvds;
    if mvds.is_empty() {
        return 0;
    }
    let universe = AttrSet::full(rel.arity());
    let current = mine_schemas(&oracle, universe, &mvds, &config);
    let (schemas, enumerated, truncated) = legacy_mine_schemas(&oracle, universe, &mvds, 25);
    assert_eq!(current.schemas.len(), schemas.len(), "{label} at ε = {epsilon}");
    for (at, (got, want)) in current.schemas.iter().zip(&schemas).enumerate() {
        assert_eq!(got.schema, want.schema, "{label} at ε = {epsilon}: schema #{at}");
        assert_eq!(got.mvds, want.mvds, "{label} at ε = {epsilon}: MVDs of schema #{at}");
        assert_eq!(
            got.j.map(f64::to_bits),
            want.j.map(f64::to_bits),
            "{label} at ε = {epsilon}: J of schema #{at}"
        );
    }
    assert_eq!(current.independent_sets_enumerated, enumerated, "{label} at ε = {epsilon}");
    assert_eq!(current.truncated, truncated, "{label} at ε = {epsilon}");
    mvds.len()
}

#[test]
fn asminer_matches_the_legacy_visitor_on_the_running_example() {
    for epsilon in [0.0, 0.1, 0.3] {
        assert_asminer_matches_legacy(&running_example(), epsilon, "Fig. 1");
        assert_asminer_matches_legacy(&running_example_with_red_tuple(), epsilon, "Fig. 1 (red)");
    }
}

#[test]
fn asminer_matches_the_legacy_visitor_on_the_catalog() {
    let mut widest = 0;
    for spec in metanome_catalog() {
        let scale = (200.0 / spec.rows as f64).min(1.0);
        let rel = spec.generate(scale);
        let rel = if rel.arity() > 8 { rel.column_prefix(8).unwrap() } else { rel };
        for epsilon in [0.05, 0.2] {
            widest = widest.max(assert_asminer_matches_legacy(&rel, epsilon, spec.name));
        }
    }
    // Some incompatibility graph must cross into the word-list phase.
    assert!(widest > 64, "largest M_ε has only {widest} MVDs");
}
