//! Maximal independent set enumeration.
//!
//! §7 of the paper reduces acyclic-schema enumeration to enumerating the
//! maximal independent sets of the MVD *incompatibility* graph, citing the
//! polynomial-delay algorithms of Johnson–Papadimitriou–Yannakakis and
//! Cohen–Kimelfeld–Sagiv. We enumerate the same family with a Bron–Kerbosch
//! traversal (with pivoting) over the complement relation — maximal
//! independent sets of `G` are exactly maximal cliques of the complement of
//! `G` — driven through a visitor so callers can stop early (the paper's
//! experiments cap enumeration with a time budget; our harness caps by count
//! and/or wall clock).

use crate::graph::{bits, Graph};

/// What the visitor wants the enumeration to do after receiving a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep enumerating.
    Continue,
    /// Stop the whole enumeration.
    Stop,
}

/// Enumerates all maximal independent sets of `g`, invoking `visit` for each
/// (vertices in ascending order). Enumeration stops early if the visitor
/// returns [`Control::Stop`]. Returns the number of sets visited.
///
/// The visit order is part of the contract, because a caller that stops
/// after `k` sets keeps exactly the first `k`: Bron–Kerbosch over the
/// complement of `g`, with `P` kept in ascending vertex order and `X` in
/// insertion order. The pivot is the *last* vertex of `P` (ascending) then
/// `X` (insertion order) with the most non-neighbours in `P`, and the
/// candidates (the pivot and its neighbours in `P`) are branched on in
/// ascending order. While `|P ∪ X| > 64` a node works on vertex lists and
/// reads adjacency from the bit rows of `g`. Once `P ∪ X` has at most 64
/// vertices it is renumbered locally — `P` first, ascending, then `X` in
/// insertion order — and the whole subtree runs on single-word masks with a
/// fixed-size `X` list, allocating nothing beyond the reused buffers that
/// hand sets to the visitor.
pub fn for_each_maximal_independent_set<F>(g: &Graph, mut visit: F) -> usize
where
    F: FnMut(&[usize]) -> Control,
{
    let n = g.n();
    if n == 0 {
        // The empty set is the unique (vacuously maximal) independent set.
        let _ = visit(&[]);
        return 1;
    }
    let mut enumerator = Enumerator {
        g,
        visit: &mut visit,
        r: Vec::new(),
        sorted: Vec::new(),
        count: 0,
        stopped: false,
    };
    enumerator.global((0..n).collect(), Vec::new());
    enumerator.count
}

/// Bron–Kerbosch state shared by both phases.
struct Enumerator<'a, F> {
    g: &'a Graph,
    visit: &'a mut F,
    /// The independent set under construction, in the order it was grown.
    r: Vec<usize>,
    /// Reused buffer that hands `r` to the visitor in ascending order.
    sorted: Vec<usize>,
    count: usize,
    stopped: bool,
}

/// A subproblem with `|P ∪ X| ≤ 64`, renumbered to local indices `0..k`.
struct LocalGraph {
    /// Global vertex of each local index.
    ids: [usize; 64],
    /// Bit `j` of `non_adjacent[i]` is set iff local vertices `i ≠ j` are
    /// not adjacent in `g`: the complement graph the enumeration runs on.
    non_adjacent: [u64; 64],
}

/// The `X` set of a local node: at most 64 local indices, in insertion order.
#[derive(Clone, Copy)]
struct LocalX {
    len: usize,
    items: [u8; 64],
}

impl LocalX {
    const EMPTY: LocalX = LocalX { len: 0, items: [0; 64] };

    fn as_slice(&self) -> &[u8] {
        &self.items[..self.len]
    }

    fn push(&mut self, v: usize) {
        self.items[self.len] = v as u8;
        self.len += 1;
    }

    /// The members in `mask`, in the same order.
    fn retain_in(&self, mask: u64) -> LocalX {
        let mut kept = LocalX::EMPTY;
        for &u in self.as_slice() {
            if mask >> u & 1 == 1 {
                kept.push(u as usize);
            }
        }
        kept
    }
}

impl<F> Enumerator<'_, F>
where
    F: FnMut(&[usize]) -> Control,
{
    fn report(&mut self) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.r);
        self.sorted.sort_unstable();
        self.count += 1;
        if (self.visit)(&self.sorted) == Control::Stop {
            self.stopped = true;
        }
    }

    /// A node with `P` ascending and `X` in insertion order, both global.
    fn global(&mut self, mut p: Vec<usize>, mut x: Vec<usize>) {
        if self.stopped {
            return;
        }
        if p.len() + x.len() <= 64 {
            return self.enter_local(&p, &x);
        }
        if p.is_empty() {
            // R is not maximal: a vertex of X extends it.
            return;
        }
        let g = self.g;
        let mut in_p = vec![0u64; g.n().div_ceil(64)];
        for &v in &p {
            in_p[v / 64] |= 1 << (v % 64);
        }
        // Pivot: vertex of P ∪ X with the most non-neighbours in P.
        let pivot = p
            .iter()
            .chain(&x)
            .copied()
            .max_by_key(|&u| {
                let neighbours_in_p: u32 =
                    g.row(u).iter().zip(&in_p).map(|(a, b)| (a & b).count_ones()).sum();
                let self_in_p = (in_p[u / 64] >> (u % 64) & 1) as usize;
                p.len() - neighbours_in_p as usize - self_in_p
            })
            .expect("P is non-empty here");
        let candidates: Vec<usize> =
            p.iter().copied().filter(|&v| v == pivot || g.has_edge(pivot, v)).collect();
        for v in candidates {
            if self.stopped {
                return;
            }
            let new_p = p.iter().copied().filter(|&u| u != v && !g.has_edge(v, u)).collect();
            let new_x = x.iter().copied().filter(|&u| !g.has_edge(v, u)).collect();
            self.r.push(v);
            self.global(new_p, new_x);
            self.r.pop();
            p.retain(|&u| u != v);
            x.push(v);
        }
    }

    /// Renumbers `P ∪ X` (at most 64 vertices) and enumerates its subtree.
    fn enter_local(&mut self, p: &[usize], x: &[usize]) {
        let mut local = LocalGraph { ids: [0; 64], non_adjacent: [0; 64] };
        let k = p.len() + x.len();
        for (slot, &v) in local.ids.iter_mut().zip(p.iter().chain(x)) {
            *slot = v;
        }
        for i in 0..k {
            let row = self.g.row(local.ids[i]);
            for j in i + 1..k {
                let v = local.ids[j];
                if row[v / 64] >> (v % 64) & 1 == 0 {
                    local.non_adjacent[i] |= 1 << j;
                    local.non_adjacent[j] |= 1 << i;
                }
            }
        }
        let p_mask = if p.len() == 64 { u64::MAX } else { (1 << p.len()) - 1 };
        let mut local_x = LocalX::EMPTY;
        for j in p.len()..k {
            local_x.push(j);
        }
        self.local(&local, p_mask, local_x);
    }

    /// [`Enumerator::global`] on one-word masks: the same pivot, candidate
    /// order and `X` order, so the sets come out in the same sequence.
    fn local(&mut self, l: &LocalGraph, mut p: u64, mut x: LocalX) {
        if self.stopped {
            return;
        }
        if p == 0 {
            if x.len == 0 {
                self.report();
            }
            return;
        }
        let mut pivot = 0;
        let mut most = 0;
        for u in bits(p).chain(x.as_slice().iter().map(|&u| u as usize)) {
            let count = (l.non_adjacent[u] & p).count_ones();
            if count >= most {
                most = count;
                pivot = u;
            }
        }
        for v in bits(p & !l.non_adjacent[pivot]) {
            if self.stopped {
                return;
            }
            self.r.push(l.ids[v]);
            self.local(l, p & l.non_adjacent[v], x.retain_in(l.non_adjacent[v]));
            self.r.pop();
            p &= !(1 << v);
            x.push(v);
        }
    }
}

/// Collects at most `limit` maximal independent sets (all of them if `limit`
/// is `None`).
pub fn maximal_independent_sets(g: &Graph, limit: Option<usize>) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    for_each_maximal_independent_set(g, |s| {
        result.push(s.to_vec());
        match limit {
            Some(l) if result.len() >= l => Control::Stop,
            _ => Control::Continue,
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets_sorted(mut sets: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        for s in &mut sets {
            s.sort_unstable();
        }
        sets.sort();
        sets
    }

    #[test]
    fn empty_graph_single_mis_of_all_vertices() {
        let g = Graph::new(4);
        let sets = maximal_independent_sets(&g, None);
        assert_eq!(sets_sorted(sets), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::new(0);
        let sets = maximal_independent_sets(&g, None);
        assert_eq!(sets, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn complete_graph_mis_are_singletons() {
        let mut g = Graph::new(4);
        for u in 0..4 {
            for v in u + 1..4 {
                g.add_edge(u, v);
            }
        }
        let sets = sets_sorted(maximal_independent_sets(&g, None));
        assert_eq!(sets, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn path_graph_mis() {
        // Path 0-1-2-3: MIS are {0,2}, {0,3}, {1,3}.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let sets = sets_sorted(maximal_independent_sets(&g, None));
        assert_eq!(sets, vec![vec![0, 2], vec![0, 3], vec![1, 3]]);
    }

    #[test]
    fn cycle_graph_mis() {
        // 5-cycle has exactly 5 maximal independent sets, each of size 2.
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        let sets = maximal_independent_sets(&g, None);
        assert_eq!(sets.len(), 5);
        for s in &sets {
            assert_eq!(s.len(), 2);
            assert!(g.is_maximal_independent_set(s));
        }
    }

    #[test]
    fn every_output_is_a_maximal_independent_set() {
        // A slightly irregular graph.
        let mut g = Graph::new(7);
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)] {
            g.add_edge(u, v);
        }
        let sets = maximal_independent_sets(&g, None);
        assert!(!sets.is_empty());
        for s in &sets {
            assert!(g.is_maximal_independent_set(s), "{:?} not maximal", s);
        }
        // No duplicates.
        let unique = sets_sorted(sets.clone());
        let mut dedup = unique.clone();
        dedup.dedup();
        assert_eq!(unique.len(), dedup.len());
    }

    #[test]
    fn enumeration_matches_brute_force_count() {
        // Brute force over all subsets for a random-ish 8-vertex graph.
        let mut g = Graph::new(8);
        for &(u, v) in &[(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (0, 7), (2, 6), (1, 5), (3, 4)] {
            g.add_edge(u, v);
        }
        let mut brute = 0usize;
        for mask in 0u32..(1 << 8) {
            let s: Vec<usize> = (0..8).filter(|&i| mask >> i & 1 == 1).collect();
            if g.is_maximal_independent_set(&s) {
                brute += 1;
            }
        }
        let sets = maximal_independent_sets(&g, None);
        assert_eq!(sets.len(), brute);
    }

    #[test]
    fn limit_stops_enumeration_early() {
        let g = Graph::new(6); // no edges: exactly one MIS anyway
        assert_eq!(maximal_independent_sets(&g, Some(1)).len(), 1);
        let mut g = Graph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        let limited = maximal_independent_sets(&g, Some(2));
        assert_eq!(limited.len(), 2);
        let visited = for_each_maximal_independent_set(&g, |_| Control::Stop);
        assert_eq!(visited, 1);
    }
}
