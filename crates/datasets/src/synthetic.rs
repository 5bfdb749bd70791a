//! Synthetic relations with planted approximate acyclic structure.
//!
//! The paper evaluates Maimon on 20 real datasets from the Metanome data
//! profiling repository. Those files are not redistributed here; instead the
//! generator below produces relations with (a) the same number of rows and
//! columns as each benchmark dataset (see [`crate::catalog`]) and (b) a
//! *planted* approximate acyclic schema, so the mining algorithms encounter
//! the same qualitative structure the paper reports: MVDs that hold at small
//! ε, exact dependencies that are broken by noise, and minimal separators of
//! controllable size.
//!
//! ## Construction
//!
//! A specification names a set of *hub* attributes `K` and partitions the
//! remaining attributes into `blocks` groups `G₁ … G_b`. Rows are generated
//! by sampling a hub value and then, independently per group, one of a small
//! number of group-value variants associated with that hub value. Given the
//! hub, groups are therefore (conditionally) independent by construction, so
//! the MVD `K ↠ G₁ | … | G_b` holds approximately (exactly in the limit of
//! infinitely many rows per hub value); a `noise` fraction of rows then gets
//! one group resampled unconditionally, which injects the kind of "single
//! wrong tuple" violations the paper motivates approximation with.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrSet, Relation, RelationError, Schema};
use std::collections::HashMap;

/// Parameters of a planted-schema synthetic relation.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticSpec {
    /// Number of rows to generate.
    pub rows: usize,
    /// Number of columns (attributes), named `A`, `B`, … .
    pub columns: usize,
    /// Number of hub (separator) attributes; must be smaller than `columns`.
    pub hub_attrs: usize,
    /// Number of dependent groups the non-hub attributes are split into.
    pub blocks: usize,
    /// Number of distinct hub values.
    pub hub_domain: u32,
    /// Number of group-value variants generated per hub value and group.
    pub variants_per_hub: u32,
    /// Per-attribute domain size inside each group.
    pub group_domain: u32,
    /// Fraction of rows whose group values are resampled unconditionally.
    pub noise: f64,
    /// RNG seed; generation is deterministic per seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            rows: 1_000,
            columns: 10,
            hub_attrs: 2,
            blocks: 3,
            hub_domain: 32,
            variants_per_hub: 3,
            group_domain: 8,
            noise: 0.01,
            seed: 0xFEED,
        }
    }
}

impl SyntheticSpec {
    /// Validates the specification.
    ///
    /// # Errors
    /// Returns an error (as a `RelationError::Csv` carrier, reusing the
    /// substrate's error type) if the shape is inconsistent.
    pub fn validate(&self) -> Result<(), RelationError> {
        let invalid = |message: String| RelationError::Csv { line: 0, offset: 0, message };
        if self.columns < 2 || self.columns > AttrSet::MAX_ATTRS {
            return Err(invalid(format!("columns must be in 2..=64, got {}", self.columns)));
        }
        if self.hub_attrs >= self.columns {
            return Err(invalid("hub_attrs must leave at least one dependent attribute".into()));
        }
        if self.blocks == 0 || self.blocks > self.columns - self.hub_attrs {
            return Err(invalid(format!(
                "blocks must be in 1..={}, got {}",
                self.columns - self.hub_attrs,
                self.blocks
            )));
        }
        if self.hub_domain == 0 || self.group_domain == 0 || self.variants_per_hub == 0 {
            return Err(invalid("domains and variant counts must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(invalid(format!("noise must be in [0, 1], got {}", self.noise)));
        }
        Ok(())
    }

    /// The hub attribute set `K` (the first `hub_attrs` attributes).
    pub fn hub_set(&self) -> AttrSet {
        (0..self.hub_attrs).collect()
    }

    /// The planted dependent groups `G₁ … G_b` (contiguous slices of the
    /// non-hub attributes).
    pub fn planted_groups(&self) -> Vec<AttrSet> {
        let dependents: Vec<usize> = (self.hub_attrs..self.columns).collect();
        let per_block = dependents.len().div_ceil(self.blocks);
        dependents.chunks(per_block).map(|chunk| chunk.iter().copied().collect()).collect()
    }

    /// The planted acyclic schema `{K ∪ G₁, …, K ∪ G_b}`.
    pub fn planted_bags(&self) -> Vec<AttrSet> {
        let hub = self.hub_set();
        self.planted_groups().into_iter().map(|g| g.union(hub)).collect()
    }
}

/// Row-at-a-time generator for [`planted_acyclic_relation`]'s distribution.
///
/// The streaming interface exists for out-of-core experiments: a 10M-row
/// synthetic CSV can be written (and streamed back into its tuple bag by
/// `storage::stream_csv`) without ever materializing the full relation. The per-row RNG
/// call sequence is *identical* to the batch generator's — both delegate
/// here — so a streamed run is bit-reproducible against a batch run at the
/// same seed. Only the per-hub variant pools stay resident (a few `u32`
/// tuples per hub value and group).
pub struct PlantedRowStream {
    spec: SyntheticSpec,
    groups: Vec<AttrSet>,
    rng: StdRng,
    /// variants[group][hub_value] = list of value tuples for that group.
    variants: Vec<HashMap<u32, Vec<Vec<u32>>>>,
    emitted: usize,
}

impl PlantedRowStream {
    /// Starts a stream; validates the spec once up front.
    ///
    /// # Errors
    /// Returns an error if the specification is invalid.
    pub fn new(spec: &SyntheticSpec) -> Result<Self, RelationError> {
        spec.validate()?;
        let groups = spec.planted_groups();
        Ok(PlantedRowStream {
            spec: spec.clone(),
            variants: vec![HashMap::new(); groups.len()],
            groups,
            rng: StdRng::seed_from_u64(spec.seed),
            emitted: 0,
        })
    }

    /// The schema of the generated relation (`A`, `B`, … column names).
    ///
    /// # Errors
    /// Never fails for a validated spec; kept fallible to reuse the
    /// substrate's error type.
    pub fn schema(&self) -> Result<Schema, RelationError> {
        Schema::with_arity(self.spec.columns)
    }

    /// Fills `row` (length `spec.columns`) with the next row's dictionary
    /// codes. Returns `false` (leaving `row` untouched) once `spec.rows`
    /// rows have been emitted.
    ///
    /// # Panics
    /// Panics if `row.len() != spec.columns`.
    pub fn next_row(&mut self, row: &mut [u32]) -> bool {
        assert_eq!(row.len(), self.spec.columns, "row buffer must match the spec arity");
        if self.emitted >= self.spec.rows {
            return false;
        }
        self.emitted += 1;
        let spec = &self.spec;
        let hub_value = self.rng.gen_range(0..spec.hub_domain);
        // Hub attributes: derive each attribute's value deterministically from
        // the hub value so the hub columns are perfectly correlated with it.
        for (offset, slot) in row.iter_mut().enumerate().take(spec.hub_attrs) {
            *slot = hub_value.wrapping_mul(31).wrapping_add(offset as u32) % spec.hub_domain.max(1);
        }
        for (g, group) in self.groups.iter().enumerate() {
            let noisy = self.rng.gen_bool(spec.noise);
            let tuple: Vec<u32> = if noisy {
                group.iter().map(|_| self.rng.gen_range(0..spec.group_domain)).collect()
            } else {
                let group_len = group.len();
                let group_domain = spec.group_domain;
                let variants_per_hub = spec.variants_per_hub;
                let pool = self.variants[g].entry(hub_value).or_default();
                if pool.is_empty() {
                    for _ in 0..variants_per_hub {
                        pool.push(
                            (0..group_len).map(|_| self.rng.gen_range(0..group_domain)).collect(),
                        );
                    }
                }
                pool[self.rng.gen_range(0..pool.len())].clone()
            };
            for (attr, value) in group.iter().zip(tuple) {
                row[attr] = value;
            }
        }
        true
    }
}

/// Generates a relation according to `spec`.
///
/// # Errors
/// Returns an error if the specification is invalid.
pub fn planted_acyclic_relation(spec: &SyntheticSpec) -> Result<Relation, RelationError> {
    let mut stream = PlantedRowStream::new(spec)?;
    let schema = stream.schema()?;
    let mut columns: Vec<Vec<u32>> = vec![Vec::with_capacity(spec.rows); spec.columns];
    let mut row = vec![0u32; spec.columns];
    while stream.next_row(&mut row) {
        for (column, &value) in columns.iter_mut().zip(row.iter()) {
            column.push(value);
        }
    }
    Relation::from_code_columns(schema, columns)
}

/// Streams the generated relation to `out` as CSV — header row of attribute
/// names, then one decimal code per cell — without materializing it. Paired
/// with the streamed mount (`storage::stream_csv`) this takes a planted
/// 10M-row dataset from spec to mineable tuples without holding its rows.
/// Dictionary re-encoding on ingest permutes code numbering (codes are
/// assigned by first appearance) but not the grouping structure, so
/// entropies over the streamed tuples are bit-identical to
/// [`planted_acyclic_relation`]'s.
///
/// # Errors
/// Returns an error if the specification is invalid or a write fails.
pub fn write_planted_csv<W: std::io::Write>(
    spec: &SyntheticSpec,
    out: &mut W,
) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let mut stream = PlantedRowStream::new(spec)?;
    let schema = stream.schema()?;
    let mut line = String::new();
    for c in 0..schema.arity() {
        if c > 0 {
            line.push(',');
        }
        line.push_str(schema.name(c));
    }
    line.push('\n');
    out.write_all(line.as_bytes())?;
    let mut row = vec![0u32; spec.columns];
    while stream.next_row(&mut row) {
        line.clear();
        for (c, value) in row.iter().enumerate() {
            if c > 0 {
                line.push(',');
            }
            line.push_str(itoa_u32(*value).as_str());
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Minimal allocation-light u32 → decimal formatting for the CSV writer's
/// hot loop.
fn itoa_u32(mut v: u32) -> String {
    if v == 0 {
        return "0".to_string();
    }
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    String::from_utf8_lossy(&buf[i..]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_generates_requested_shape() {
        let spec = SyntheticSpec::default();
        let rel = planted_acyclic_relation(&spec).unwrap();
        assert_eq!(rel.n_rows(), spec.rows);
        assert_eq!(rel.arity(), spec.columns);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec { rows: 200, ..SyntheticSpec::default() };
        let a = planted_acyclic_relation(&spec).unwrap();
        let b = planted_acyclic_relation(&spec).unwrap();
        assert!(a.equal_as_sets(&b));
        let c = planted_acyclic_relation(&SyntheticSpec { seed: 99, ..spec }).unwrap();
        assert!(!a.equal_as_sets(&c));
    }

    #[test]
    fn planted_bags_cover_all_attributes_and_share_the_hub() {
        let spec =
            SyntheticSpec { columns: 11, hub_attrs: 3, blocks: 4, ..SyntheticSpec::default() };
        let bags = spec.planted_bags();
        assert_eq!(bags.len(), 4);
        let union = bags.iter().fold(AttrSet::empty(), |a, &b| a.union(b));
        assert_eq!(union, AttrSet::full(11));
        for bag in &bags {
            assert!(spec.hub_set().is_subset_of(*bag));
        }
    }

    #[test]
    fn spec_validation_catches_bad_shapes() {
        assert!(SyntheticSpec { columns: 1, ..SyntheticSpec::default() }.validate().is_err());
        assert!(SyntheticSpec { hub_attrs: 10, columns: 10, ..SyntheticSpec::default() }
            .validate()
            .is_err());
        assert!(SyntheticSpec { blocks: 0, ..SyntheticSpec::default() }.validate().is_err());
        assert!(SyntheticSpec {
            blocks: 20,
            columns: 10,
            hub_attrs: 2,
            ..SyntheticSpec::default()
        }
        .validate()
        .is_err());
        assert!(SyntheticSpec { noise: 1.5, ..SyntheticSpec::default() }.validate().is_err());
        assert!(SyntheticSpec { group_domain: 0, ..SyntheticSpec::default() }.validate().is_err());
        assert!(planted_acyclic_relation(&SyntheticSpec {
            columns: 1,
            ..SyntheticSpec::default()
        })
        .is_err());
    }

    #[test]
    fn zero_noise_data_has_low_j_for_the_planted_schema() {
        // Without noise, the empirical J of the planted MVD is small compared
        // to a random grouping of the same attributes.
        use relation::acyclic_join_size;
        let spec = SyntheticSpec {
            rows: 3_000,
            columns: 8,
            hub_attrs: 1,
            blocks: 3,
            hub_domain: 8,
            variants_per_hub: 2,
            group_domain: 6,
            noise: 0.0,
            seed: 7,
        };
        let rel = planted_acyclic_relation(&spec).unwrap();
        // The planted decomposition produces far fewer spurious tuples than a
        // decomposition ignoring the hub.
        let bags = spec.planted_bags();
        let spec_tree =
            relation::JoinTreeSpec::new(bags.clone(), (1..bags.len()).map(|i| (0, i)).collect())
                .unwrap();
        let planted_join = acyclic_join_size(&rel, &spec_tree).unwrap();
        let distinct = rel.distinct_count(AttrSet::full(8)).unwrap() as u128;
        // Sanity: the planted join is lossless-ish (< 3x blowup) while the
        // hub-free decomposition explodes.
        assert!(
            planted_join < distinct * 3,
            "planted join {} vs distinct {}",
            planted_join,
            distinct
        );
    }

    #[test]
    fn row_stream_reproduces_the_batch_generator() {
        let spec = SyntheticSpec { rows: 500, ..SyntheticSpec::default() };
        let batch = planted_acyclic_relation(&spec).unwrap();
        let mut stream = PlantedRowStream::new(&spec).unwrap();
        let mut columns: Vec<Vec<u32>> = vec![Vec::new(); spec.columns];
        let mut row = vec![0u32; spec.columns];
        let mut rows = 0usize;
        while stream.next_row(&mut row) {
            rows += 1;
            for (column, &value) in columns.iter_mut().zip(row.iter()) {
                column.push(value);
            }
        }
        assert_eq!(rows, spec.rows);
        assert!(!stream.next_row(&mut row), "stream must stay exhausted");
        let rebuilt =
            Relation::from_code_columns(stream.schema().unwrap(), columns.clone()).unwrap();
        assert!(batch.equal_as_sets(&rebuilt));
        // Row order (not just the multiset) matches: identical RNG sequence.
        for c in 0..spec.columns {
            let values: Vec<&str> = batch
                .column_codes(c)
                .iter()
                .map(|&v| batch.column_values(c)[v as usize].as_str())
                .collect();
            let rebuilt_values: Vec<&str> = rebuilt
                .column_codes(c)
                .iter()
                .map(|&v| rebuilt.column_values(c)[v as usize].as_str())
                .collect();
            assert_eq!(values, rebuilt_values, "column {c} diverges between batch and stream");
        }
    }

    #[test]
    fn streamed_csv_round_trips_through_the_csv_parser() {
        let spec = SyntheticSpec { rows: 300, columns: 6, ..SyntheticSpec::default() };
        let batch = planted_acyclic_relation(&spec).unwrap();
        let mut buf = Vec::new();
        write_planted_csv(&spec, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = relation::relation_from_csv(
            &text,
            relation::CsvOptions { dedup: false, ..relation::CsvOptions::default() },
        )
        .unwrap();
        assert_eq!(parsed.n_rows(), spec.rows);
        assert_eq!(parsed.arity(), spec.columns);
        // Dictionary numbering may differ, but the grouping structure — and
        // hence every distinct count — must match the batch relation.
        for c in 0..spec.columns {
            assert_eq!(parsed.column_cardinality(c), batch.column_cardinality(c));
        }
        for attrs in [AttrSet::full(spec.columns), spec.hub_set(), spec.planted_bags()[0]] {
            assert_eq!(parsed.distinct_count(attrs).unwrap(), batch.distinct_count(attrs).unwrap());
        }
    }

    #[test]
    fn noise_increases_group_cardinality() {
        let base = SyntheticSpec { rows: 2_000, noise: 0.0, ..SyntheticSpec::default() };
        let noisy = SyntheticSpec { noise: 0.5, ..base.clone() };
        let rel_base = planted_acyclic_relation(&base).unwrap();
        let rel_noisy = planted_acyclic_relation(&noisy).unwrap();
        let group = base.planted_groups()[0].union(base.hub_set());
        assert!(
            rel_noisy.distinct_count(group).unwrap() >= rel_base.distinct_count(group).unwrap(),
            "noise should not reduce the number of distinct group values"
        );
    }
}
