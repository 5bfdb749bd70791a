//! Exact grouping keys for code vectors.
//!
//! Every stage groups rows or tuples by their dictionary codes on an
//! attribute set: the entropy engine's partitions, the quality pass's
//! distinct counts and join sizes, the decomposed store's bag projections,
//! and [`Relation`](crate::Relation)'s own `distinct`, `distinct_count` and
//! `group_sizes`. They all label through one [`Keyer`].

use std::collections::HashMap;

/// Exact dense labels for code vectors over a fixed list of columns,
/// numbered in first-insertion order: the first distinct vector gets label
/// 0, the next new one label 1, and so on.
///
/// The columns are folded in rounds. Each round folds the previous round's
/// label (below 2³², in the low word) and as many further columns as fit
/// into one mixed-radix `u64`, then maps that key to a dense label. The last
/// round's label is the result, so two code vectors get the same label
/// exactly when they agree on every column, however wide the list: a keyer
/// never overflows and needs no per-vector key fallback.
///
/// [`Keyer::insert`] and [`Keyer::get`] take one vector at a time;
/// [`Keyer::extend_labels`] labels a run of vectors given column by column,
/// one round at a time, and leaves the keyer exactly as inserting them in
/// order would. [`Keyer::reset`] re-sizes a keyer for another column list
/// and keeps its round maps and factor buffer, so a caller that labels many
/// attribute sets in turn allocates only while those buffers grow.
#[derive(Clone, Debug)]
pub struct Keyer {
    /// `(multiplier, radix)` per column, in list order; `radix` is the
    /// cardinality the column was sized for.
    factors: Vec<(u64, u64)>,
    /// The rounds in use, then spare rounds kept for their maps.
    rounds: Vec<Round>,
    /// Number of rounds in use; at least 1.
    used: usize,
    /// The capacity every round map is created with.
    capacity: usize,
}

/// One fold round: the columns `start..end` of the list and their keys.
#[derive(Clone, Debug)]
struct Round {
    start: usize,
    end: usize,
    labels: FoldKeyMap<u32>,
}

impl Keyer {
    /// A keyer over columns with the given cardinalities, in list order.
    pub fn new(cardinalities: impl IntoIterator<Item = usize>) -> Keyer {
        Keyer::with_capacity(cardinalities, 0)
    }

    /// [`Keyer::new`] with room for `capacity` labels in every round, so
    /// labelling up to `capacity` vectors does not grow its maps.
    pub fn with_capacity(cardinalities: impl IntoIterator<Item = usize>, capacity: usize) -> Keyer {
        let mut keyer = Keyer { factors: Vec::new(), rounds: Vec::new(), used: 0, capacity };
        keyer.reset(cardinalities);
        keyer
    }

    /// Forgets every label and re-sizes the keyer for columns with the given
    /// cardinalities, reusing its buffers.
    pub fn reset(&mut self, cardinalities: impl IntoIterator<Item = usize>) {
        self.factors.clear();
        self.used = 0;
        let mut radix: u64 = 1;
        for cardinality in cardinalities {
            let cardinality = cardinality.max(1) as u64;
            if radix.checked_mul(cardinality).is_none() {
                self.close_round();
                // Cardinalities stay below 2³², so a column always fits next
                // to the refolded label.
                radix = 1 << 32;
            }
            self.factors.push((radix, cardinality));
            radix *= cardinality;
        }
        self.close_round();
    }

    /// Ends the open round at the columns listed so far.
    fn close_round(&mut self) {
        let start = self.used.checked_sub(1).map_or(0, |last| self.rounds[last].end);
        if self.used == self.rounds.len() {
            let labels = FoldKeyMap::with_capacity_and_hasher(self.capacity, Default::default());
            self.rounds.push(Round { start, end: 0, labels });
        }
        let round = &mut self.rounds[self.used];
        (round.start, round.end) = (start, self.factors.len());
        round.labels.clear();
        self.used += 1;
    }

    /// The key of the vector `code(position)` in `round`, after the
    /// previous round gave `label`.
    #[inline]
    fn key(&self, round: &Round, label: u64, code: &impl Fn(usize) -> u32) -> u64 {
        (round.start..round.end).fold(label, |key, p| key + code(p) as u64 * self.factors[p].0)
    }

    /// The label of the code vector `code(position)`, assigning the next
    /// free one if it is new; the flag says whether it was.
    #[inline]
    pub fn insert(&mut self, code: impl Fn(usize) -> u32) -> (u32, bool) {
        let (mut label, mut fresh) = (0u64, false);
        for r in 0..self.used {
            let key = self.key(&self.rounds[r], label, &code);
            let labels = &mut self.rounds[r].labels;
            let next = labels.len() as u32;
            let id = *labels.entry(key).or_insert(next);
            fresh = id == next;
            label = id as u64;
        }
        (label as u32, fresh)
    }

    /// The label of the code vector `code(position)`, if it was inserted.
    #[inline]
    pub fn get(&self, code: impl Fn(usize) -> u32) -> Option<u32> {
        let mut label = 0u64;
        for round in &self.rounds[..self.used] {
            label = *round.labels.get(&self.key(round, label, &code))? as u64;
        }
        Some(label as u32)
    }

    /// Inserts the `n` code vectors `columns[position][i]`, `i < n`, in
    /// order and appends their labels to `labels`. Each round runs over
    /// every vector before the next one, in blocks: it folds the block's
    /// keys one column at a time, then maps them, so the hot loops stream
    /// one column slice or probe one map.
    ///
    /// # Panics
    /// Panics if `columns` does not hold one slice of at least `n` codes
    /// per column.
    pub fn extend_labels(&mut self, columns: &[&[u32]], n: usize, labels: &mut Vec<u32>) {
        const BLOCK: usize = 256;
        assert!(
            columns.len() == self.factors.len() && columns.iter().all(|c| c.len() >= n),
            "one slice of at least {n} codes per column"
        );
        let start = labels.len();
        labels.resize(start + n, 0);
        let labels = &mut labels[start..];
        let mut keys = [0u64; BLOCK];
        for round in &mut self.rounds[..self.used] {
            let columns = &columns[round.start..round.end];
            let factors = &self.factors[round.start..round.end];
            for (b, block) in labels.chunks_mut(BLOCK).enumerate() {
                let rows = b * BLOCK..b * BLOCK + block.len();
                let keys = &mut keys[..block.len()];
                for (key, &label) in keys.iter_mut().zip(block.iter()) {
                    *key = label as u64;
                }
                for (codes, &(m, _)) in columns.iter().zip(factors) {
                    for (key, &code) in keys.iter_mut().zip(&codes[rows.clone()]) {
                        *key += code as u64 * m;
                    }
                }
                for (label, &key) in block.iter_mut().zip(keys.iter()) {
                    let next = round.labels.len() as u32;
                    *label = *round.labels.entry(key).or_insert(next);
                }
            }
        }
    }

    /// Number of distinct labels handed out.
    pub fn len(&self) -> usize {
        self.rounds[self.used - 1].labels.len()
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while every column's cardinality still fits the radix the
    /// keyer was sized for, so the labels of vectors with larger codes stay
    /// exact. Appends never renumber dictionary codes, so a keyer over a
    /// relation's columns stays valid across an append until this fails.
    pub fn covers(&self, cardinality: impl Fn(usize) -> usize) -> bool {
        self.factors.iter().enumerate().all(|(p, &(_, radix))| cardinality(p) as u64 <= radix)
    }
}

/// Fibonacci hasher for folded `u64` keys: one multiply instead of SipHash,
/// which dominates the probe cost on the counting hot paths (entropy
/// grouping, acyclic-join counting). Folded keys need no DoS resistance.
/// Shared across the workspace so every consumer of fold keys mixes them
/// identically.
#[derive(Default)]
pub struct FoldKeyHasher {
    hash: u64,
}

impl std::hash::Hasher for FoldKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached if a key type ever stops hashing as a single u64;
        // fold the bytes so the hasher stays correct, if slower.
        for &b in bytes {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.hash = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `u64 → V` map keyed by folded keys with the Fibonacci hasher.
pub type FoldKeyMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<FoldKeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyer_refolds_past_a_u64_overflow_and_stays_exact() {
        // 12 columns of cardinality 64 need 72 bits: two rounds.
        let mut keyer = Keyer::new(std::iter::repeat_n(64, 12));
        assert_eq!(keyer.used, 2);
        let a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        b[11] = 63;
        assert_eq!(keyer.insert(|p| a[p]), (0, true));
        assert_eq!(keyer.insert(|p| b[p]), (1, true));
        assert_eq!(keyer.insert(|p| a[p]), (0, false));
        assert_eq!(keyer.insert(|p| b[p]), (1, false));
        let mut c = a.clone();
        c[0] = 5;
        assert_eq!(keyer.get(|p| c[p]), None);
        assert_eq!(keyer.insert(|p| c[p]), (2, true));
        assert_eq!(keyer.get(|p| c[p]), Some(2));
        assert_eq!(keyer.get(|p| b[p]), Some(1));
        assert_eq!(keyer.len(), 3);
        assert!(keyer.covers(|_| 64));
        assert!(!keyer.covers(|p| if p == 3 { 65 } else { 64 }));
    }

    #[test]
    fn extend_labels_matches_inserting_in_order() {
        // Two rounds over 12 columns of cardinality 64, vectors repeating
        // with period 37, fed in two runs that span several blocks; the
        // first run's slices are longer than the vectors it labels.
        let columns: Vec<Vec<u32>> =
            (0..12u32).map(|c| (0..1000u32).map(|i| (i % 37 * (c + 5)) % 64).collect()).collect();
        let slices: Vec<&[u32]> = columns.iter().map(|c| &c[..]).collect();
        let rest: Vec<&[u32]> = columns.iter().map(|c| &c[600..]).collect();
        let mut bulk = Keyer::new(std::iter::repeat_n(64, 12));
        let mut labels = vec![7];
        bulk.extend_labels(&slices, 600, &mut labels);
        bulk.extend_labels(&rest, 400, &mut labels);
        let mut one = Keyer::new(std::iter::repeat_n(64, 12));
        let expected: Vec<u32> =
            std::iter::once(7).chain((0..1000).map(|i| one.insert(|p| columns[p][i]).0)).collect();
        assert_eq!(labels, expected);
        assert_eq!((bulk.len(), one.len()), (37, 37));
        let probe: Vec<u32> = (0..12).map(|c| 63 - c).collect();
        assert_eq!(bulk.insert(|p| probe[p]), one.insert(|p| probe[p]));
    }

    #[test]
    fn reset_forgets_labels_and_resizes() {
        let mut keyer = Keyer::new(std::iter::repeat_n(64, 12));
        let a: Vec<u32> = (0..12).collect();
        keyer.insert(|p| a[p]);
        keyer.reset([3, 3]);
        assert_eq!((keyer.used, keyer.rounds.len()), (1, 2), "the spare round is kept");
        assert!(keyer.is_empty());
        assert_eq!(keyer.get(|p| a[p]), None);
        assert_eq!(keyer.insert(|p| [2, 1][p]), (0, true));
        assert_eq!(keyer.insert(|p| [1, 2][p]), (1, true));
        assert!(!keyer.covers(|_| 4));
        // No columns: every vector is the empty vector.
        keyer.reset([]);
        assert_eq!(keyer.insert(|_| unreachable!()), (0, true));
        assert_eq!(keyer.insert(|_| unreachable!()), (0, false));
    }
}
