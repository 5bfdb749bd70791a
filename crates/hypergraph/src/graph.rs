//! A small undirected graph type used for the MVD (in)compatibility graph.

/// Undirected simple graph over vertices `0..n`, stored as bit rows: row `u`
/// is `⌈n/64⌉` `u64` words whose bit `v` is set iff `{u, v}` is an edge.
/// That is `n·⌈n/64⌉` words in total — 2.4 MB for the 4,357-vertex
/// incompatibility graph of Bridges-10 at ε = 0.1, where an `n²` byte
/// matrix would take 19 MB — and lets
/// [`for_each_maximal_independent_set`](crate::for_each_maximal_independent_set)
/// test a vertex against a whole word of candidates at once.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Graph { n, words, rows: vec![0; n * words] }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The adjacency row of `u`: bit `v % 64` of word `v / 64` is set iff
    /// `{u, v}` is an edge. Bits at positions `≥ n` are always clear.
    #[inline]
    pub(crate) fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if u == v {
            return;
        }
        self.rows[u * self.words + v / 64] |= 1 << (v % 64);
        self.rows[v * self.words + u / 64] |= 1 << (u % 64);
    }

    /// `true` if `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.rows[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Neighbors of `u`, in ascending order.
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        let row = self.row(u).iter().enumerate();
        row.flat_map(|(w, &word)| bits(word).map(move |b| w * 64 + b)).collect()
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.row(u).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum::<usize>() / 2
    }

    /// `true` if the vertex set `s` is independent (no two members adjacent).
    pub fn is_independent_set(&self, s: &[usize]) -> bool {
        for (i, &u) in s.iter().enumerate() {
            for &v in &s[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `s` is a *maximal* independent set (independent, and every
    /// other vertex is adjacent to some member).
    pub fn is_maximal_independent_set(&self, s: &[usize]) -> bool {
        if !self.is_independent_set(s) {
            return false;
        }
        // Members and their neighbours must cover every vertex.
        let mut covered = vec![0u64; self.words];
        for &u in s {
            covered[u / 64] |= 1 << (u % 64);
            for (c, &r) in covered.iter_mut().zip(self.row(u)) {
                *c |= r;
            }
        }
        covered.iter().map(|w| w.count_ones() as usize).sum::<usize>() == self.n
    }
}

/// Ascending set bits of `mask`.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            v
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(3);
        assert_eq!(g.n(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_independent_set(&[0, 1, 2]));
        assert!(g.is_maximal_independent_set(&[0, 1, 2]));
    }

    #[test]
    fn add_edge_and_query() {
        let mut g = Graph::new(4);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.neighbors(2), vec![0, 3]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    /// Every pair `{u, v}` with `u < v` whose seeded hash falls under
    /// `percent`, plus the self-loops the graph must ignore.
    fn pseudo_random_graph(n: usize, percent: u64) -> (Graph, Vec<(usize, usize)>) {
        let mut g = Graph::new(n);
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        let mut edges = Vec::new();
        for u in 0..n {
            g.add_edge(u, u);
            for v in u + 1..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (state >> 33) % 100 < percent {
                    g.add_edge(v, u);
                    edges.push((u, v));
                }
            }
        }
        (g, edges)
    }

    #[test]
    fn bit_rows_agree_with_a_naive_count_across_word_boundaries() {
        for n in [1usize, 63, 64, 65, 130] {
            let (g, edges) = pseudo_random_graph(n, 30);
            assert_eq!(g.edge_count(), edges.len(), "n = {n}");
            let mut naive: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(u, v) in &edges {
                naive[u].push(v);
                naive[v].push(u);
            }
            for u in 0..n {
                naive[u].sort_unstable();
                assert!(!g.has_edge(u, u), "self-loop kept at {u} (n = {n})");
                for v in 0..n {
                    assert_eq!(g.has_edge(u, v), g.has_edge(v, u), "asymmetric {u}-{v}");
                    assert_eq!(g.has_edge(u, v), naive[u].binary_search(&v).is_ok());
                }
                assert_eq!(g.neighbors(u), naive[u], "neighbors of {u} (n = {n})");
                assert_eq!(g.degree(u), naive[u].len(), "degree of {u} (n = {n})");
            }
        }
    }

    #[test]
    fn maximality_check_spans_every_row_word() {
        // A star centred on the last vertex of a 130-vertex graph: the
        // centre alone is maximal, the leaves without vertex 64 are not.
        let n = 130;
        let mut g = Graph::new(n);
        for v in 0..n - 1 {
            g.add_edge(n - 1, v);
        }
        assert!(g.is_maximal_independent_set(&[n - 1]));
        let leaves: Vec<usize> = (0..n - 1).collect();
        assert!(g.is_maximal_independent_set(&leaves));
        let missing: Vec<usize> = (0..n - 1).filter(|&v| v != 64).collect();
        assert!(!g.is_maximal_independent_set(&missing));
    }

    #[test]
    fn independence_checks() {
        // Path 0 - 1 - 2.
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_independent_set(&[0, 2]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_maximal_independent_set(&[0, 2]));
        assert!(g.is_maximal_independent_set(&[1]));
        assert!(!g.is_maximal_independent_set(&[0])); // 2 could be added
        assert!(g.is_independent_set(&[]));
        assert!(!g.is_maximal_independent_set(&[]));
    }
}
