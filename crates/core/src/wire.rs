//! Stable JSON wire representations of the public result types.
//!
//! Mining results need to cross a service boundary — a REST response, a job
//! queue, a benchmark log — so every public result type maps to a [`Json`]
//! document with *stable* field names, via [`ToJson`] / [`FromJson`]. The
//! representation is versioned by [`FORMAT_VERSION`] (stamped on
//! [`MaimonResult`] envelopes) and locked down by `tests/serde_roundtrip.rs`:
//! `deserialize(serialize(x)) == x` for every type, and the exact serialized
//! bytes of fixed values are golden-tested.
//!
//! Conventions:
//!
//! * attribute sets serialize as sorted arrays of attribute indices
//!   (`[0, 3, 5]`), independent of the internal bitset layout;
//! * durations serialize as `{"secs": u64, "nanos": u32}` (exact);
//! * the huge cell counters of [`SchemaQuality`] serialize as exact JSON
//!   integers (the model is `i128`-wide);
//! * optional values serialize as `null`.
//!
//! ```
//! use maimon::wire::{FromJson, ToJson};
//! use maimon::relation::AttrSet;
//! use maimon::Mvd;
//!
//! let mvd = Mvd::standard(
//!     AttrSet::singleton(0),
//!     AttrSet::singleton(1),
//!     [2usize, 3].into_iter().collect(),
//! ).unwrap();
//! let text = mvd.to_json_string();
//! assert_eq!(text, r#"{"key":[0],"dependents":[[1],[2,3]]}"#);
//! assert_eq!(Mvd::from_json_str(&text).unwrap(), mvd);
//! ```

use crate::asminer::{DiscoveredSchema, SchemaMiningResult};
use crate::error::MaimonError;
use crate::fd::{Fd, FdMiningResult};
use crate::json::Json;
use crate::miner::{MiningStats, MvdMiningResult};
use crate::mvd::Mvd;
use crate::quality::SchemaQuality;
use crate::schema::AcyclicSchema;
use crate::session::{MaimonResult, RankedSchema};
use entropy::OracleStats;
use obs::{Stage, StageBreakdown};
use relation::AttrSet;
use std::time::Duration;

/// Version stamp of the wire format, emitted on [`MaimonResult`] envelopes as
/// `"format_version"`. Bump on any incompatible change to the field layout.
pub const FORMAT_VERSION: i64 = 1;

/// Serialize a value to its stable [`Json`] representation.
pub trait ToJson {
    /// The JSON document for this value.
    fn to_json(&self) -> Json;

    /// The compact serialized string (deterministic: field order is fixed).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Deserialize a value from its [`Json`] representation.
pub trait FromJson: Sized {
    /// Reads the value back from a JSON document.
    ///
    /// # Errors
    /// Returns [`MaimonError::Wire`] when the document does not match the
    /// expected shape.
    fn from_json(json: &Json) -> Result<Self, MaimonError>;

    /// Parses and reads the value from a JSON string.
    ///
    /// # Errors
    /// Returns [`MaimonError::Wire`] on malformed JSON or a shape mismatch.
    fn from_json_str(text: &str) -> Result<Self, MaimonError> {
        let json =
            Json::parse(text).map_err(|e| MaimonError::Wire(format!("invalid JSON: {e}")))?;
        Self::from_json(&json)
    }
}

fn wire_err<T>(message: impl Into<String>) -> Result<T, MaimonError> {
    Err(MaimonError::Wire(message.into()))
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, MaimonError> {
    json.get(key).ok_or_else(|| MaimonError::Wire(format!("missing field {key:?}")))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, MaimonError> {
    let value = field(json, key)?;
    value
        .as_i128()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not a usize")))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, MaimonError> {
    let value = field(json, key)?;
    value
        .as_i128()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not a u64")))
}

fn u128_field(json: &Json, key: &str) -> Result<u128, MaimonError> {
    let value = field(json, key)?;
    value
        .as_i128()
        .and_then(|i| u128::try_from(i).ok())
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not a u128")))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, MaimonError> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not a number")))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, MaimonError> {
    field(json, key)?
        .as_bool()
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not a boolean")))
}

fn vec_field<T: FromJson>(json: &Json, key: &str) -> Result<Vec<T>, MaimonError> {
    field(json, key)?
        .as_array()
        .ok_or_else(|| MaimonError::Wire(format!("field {key:?} is not an array")))?
        .iter()
        .map(T::from_json)
        .collect()
}

fn u128_to_json(value: u128) -> Result<Json, MaimonError> {
    match i128::try_from(value) {
        Ok(i) => Ok(Json::Int(i)),
        Err(_) => wire_err("u128 value exceeds the i128 wire range"),
    }
}

impl ToJson for AttrSet {
    fn to_json(&self) -> Json {
        Json::array(self.iter().map(Json::from))
    }
}

impl FromJson for AttrSet {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let items = match json.as_array() {
            Some(items) => items,
            None => return wire_err("attribute set is not an array"),
        };
        let mut set = AttrSet::empty();
        for item in items {
            match item.as_i128().and_then(|i| usize::try_from(i).ok()) {
                Some(attr) if attr < 64 => set.insert(attr),
                _ => return wire_err("attribute index out of range"),
            }
        }
        Ok(set)
    }
}

impl ToJson for Duration {
    fn to_json(&self) -> Json {
        Json::object([
            ("secs", Json::from(self.as_secs())),
            ("nanos", Json::from(self.subsec_nanos() as u64)),
        ])
    }
}

impl FromJson for Duration {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let secs = u64_field(json, "secs")?;
        let nanos = u64_field(json, "nanos")?;
        if nanos >= 1_000_000_000 {
            return wire_err("duration nanos out of range");
        }
        Ok(Duration::new(secs, nanos as u32))
    }
}

impl ToJson for OracleStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("calls", Json::from(self.calls)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("intersections", Json::from(self.intersections)),
            ("count_only_intersections", Json::from(self.count_only_intersections)),
            ("full_scans", Json::from(self.full_scans)),
            ("delta_refreshes", Json::from(self.delta_refreshes)),
        ])
    }
}

impl FromJson for OracleStats {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(OracleStats {
            calls: u64_field(json, "calls")?,
            cache_hits: u64_field(json, "cache_hits")?,
            intersections: u64_field(json, "intersections")?,
            // Additive field (CSR-engine PR): absent in payloads written
            // before the count-only fast path existed, so default to 0
            // rather than rejecting old documents.
            count_only_intersections: match json.get("count_only_intersections") {
                Some(_) => u64_field(json, "count_only_intersections")?,
                None => 0,
            },
            full_scans: u64_field(json, "full_scans")?,
            // Additive field: absent in payloads written before appends
            // existed; default to 0 like the above. Older payloads may also
            // carry a count of partitions an append regrouped from scratch,
            // a path that no longer exists; unknown keys are ignored.
            delta_refreshes: match json.get("delta_refreshes") {
                Some(_) => u64_field(json, "delta_refreshes")?,
                None => 0,
            },
        })
    }
}

impl ToJson for decompose::ReducerStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("semijoins", Json::from(self.semijoins)),
            ("bottom_up_removed", Json::from(self.bottom_up_removed)),
            ("top_down_removed", Json::from(self.top_down_removed)),
        ])
    }
}

impl FromJson for decompose::ReducerStats {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(decompose::ReducerStats {
            semijoins: usize_field(json, "semijoins")?,
            bottom_up_removed: usize_field(json, "bottom_up_removed")?,
            top_down_removed: usize_field(json, "top_down_removed")?,
        })
    }
}

impl ToJson for StageBreakdown {
    fn to_json(&self) -> Json {
        Json::object(self.entries().into_iter().map(|(stage, d)| (stage.name(), d.to_json())))
    }
}

impl FromJson for StageBreakdown {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        // Each stage key is individually additive: a document written before
        // a stage existed parses with that stage at zero.
        let mut breakdown = StageBreakdown::default();
        for stage in Stage::ALL {
            if let Some(value) = json.get(stage.name()) {
                breakdown.set(stage, Duration::from_json(value)?);
            }
        }
        Ok(breakdown)
    }
}

impl ToJson for MiningStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("pairs_processed", Json::from(self.pairs_processed)),
            ("separators_found", Json::from(self.separators_found)),
            ("transversals_tested", Json::from(self.transversals_tested)),
            ("lattice_nodes_explored", Json::from(self.lattice_nodes_explored)),
            ("elapsed", self.elapsed.to_json()),
            ("truncated", Json::from(self.truncated)),
            ("threads", Json::from(self.threads)),
            ("oracle", self.oracle.to_json()),
            ("stages", self.stages.to_json()),
        ])
    }
}

impl FromJson for MiningStats {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(MiningStats {
            pairs_processed: usize_field(json, "pairs_processed")?,
            separators_found: usize_field(json, "separators_found")?,
            transversals_tested: usize_field(json, "transversals_tested")?,
            lattice_nodes_explored: usize_field(json, "lattice_nodes_explored")?,
            elapsed: Duration::from_json(field(json, "elapsed")?)?,
            truncated: bool_field(json, "truncated")?,
            threads: usize_field(json, "threads")?,
            oracle: OracleStats::from_json(field(json, "oracle")?)?,
            // Additive field (telemetry PR): absent in payloads written
            // before span instrumentation existed; an all-zero breakdown.
            stages: match json.get("stages") {
                Some(value) => StageBreakdown::from_json(value)?,
                None => StageBreakdown::default(),
            },
        })
    }
}

impl ToJson for Mvd {
    fn to_json(&self) -> Json {
        Json::object([
            ("key", self.key().to_json()),
            ("dependents", Json::array(self.dependents().iter().map(ToJson::to_json))),
        ])
    }
}

impl FromJson for Mvd {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let key = AttrSet::from_json(field(json, "key")?)?;
        let dependents: Vec<AttrSet> = vec_field(json, "dependents")?;
        Mvd::new(key, dependents)
    }
}

impl ToJson for MvdMiningResult {
    fn to_json(&self) -> Json {
        let separators = self.separators.iter().map(|(&(a, b), seps)| {
            Json::object([
                ("pair", Json::array([Json::from(a), Json::from(b)])),
                ("separators", Json::array(seps.iter().map(ToJson::to_json))),
            ])
        });
        Json::object([
            ("mvds", Json::array(self.mvds.iter().map(ToJson::to_json))),
            ("separators", Json::array(separators)),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl FromJson for MvdMiningResult {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let mut result = MvdMiningResult {
            mvds: vec_field(json, "mvds")?,
            separators: Default::default(),
            stats: MiningStats::from_json(field(json, "stats")?)?,
        };
        let entries = field(json, "separators")?
            .as_array()
            .ok_or_else(|| MaimonError::Wire("separators is not an array".into()))?;
        for entry in entries {
            let pair = field(entry, "pair")?
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| MaimonError::Wire("pair is not a 2-array".into()))?;
            let a = pair[0].as_i128().and_then(|i| usize::try_from(i).ok());
            let b = pair[1].as_i128().and_then(|i| usize::try_from(i).ok());
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                _ => return wire_err("pair indices are not usizes"),
            };
            result.separators.insert((a, b), vec_field(entry, "separators")?);
        }
        Ok(result)
    }
}

impl ToJson for AcyclicSchema {
    fn to_json(&self) -> Json {
        Json::object([("bags", Json::array(self.bags().iter().map(ToJson::to_json)))])
    }
}

impl FromJson for AcyclicSchema {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        AcyclicSchema::new(vec_field(json, "bags")?)
    }
}

impl ToJson for DiscoveredSchema {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema", self.schema.to_json()),
            ("mvds", Json::array(self.mvds.iter().map(ToJson::to_json))),
            ("j", self.j.map(Json::from).unwrap_or(Json::Null)),
        ])
    }
}

impl FromJson for DiscoveredSchema {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let j = field(json, "j")?;
        Ok(DiscoveredSchema {
            schema: AcyclicSchema::from_json(field(json, "schema")?)?,
            mvds: vec_field(json, "mvds")?,
            j: if j.is_null() {
                None
            } else {
                Some(j.as_f64().ok_or_else(|| MaimonError::Wire("j is not a number".into()))?)
            },
        })
    }
}

impl ToJson for SchemaMiningResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("schemas", Json::array(self.schemas.iter().map(ToJson::to_json))),
            ("independent_sets_enumerated", Json::from(self.independent_sets_enumerated)),
            ("truncated", Json::from(self.truncated)),
            ("stages", self.stages.to_json()),
        ])
    }
}

impl FromJson for SchemaMiningResult {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(SchemaMiningResult {
            schemas: vec_field(json, "schemas")?,
            independent_sets_enumerated: usize_field(json, "independent_sets_enumerated")?,
            truncated: bool_field(json, "truncated")?,
            stages: match json.get("stages") {
                Some(value) => StageBreakdown::from_json(value)?,
                None => StageBreakdown::default(),
            },
        })
    }
}

impl ToJson for SchemaQuality {
    fn to_json(&self) -> Json {
        Json::object([
            ("n_relations", Json::from(self.n_relations)),
            ("width", Json::from(self.width)),
            ("intersection_width", Json::from(self.intersection_width)),
            ("storage_savings_pct", Json::from(self.storage_savings_pct)),
            ("spurious_tuples_pct", Json::from(self.spurious_tuples_pct)),
            ("original_cells", u128_to_json(self.original_cells).unwrap_or(Json::Null)),
            ("decomposed_cells", u128_to_json(self.decomposed_cells).unwrap_or(Json::Null)),
            ("join_size", u128_to_json(self.join_size).unwrap_or(Json::Null)),
        ])
    }
}

impl FromJson for SchemaQuality {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(SchemaQuality {
            n_relations: usize_field(json, "n_relations")?,
            width: usize_field(json, "width")?,
            intersection_width: usize_field(json, "intersection_width")?,
            storage_savings_pct: f64_field(json, "storage_savings_pct")?,
            spurious_tuples_pct: f64_field(json, "spurious_tuples_pct")?,
            original_cells: u128_field(json, "original_cells")?,
            decomposed_cells: u128_field(json, "decomposed_cells")?,
            join_size: u128_field(json, "join_size")?,
        })
    }
}

impl ToJson for RankedSchema {
    fn to_json(&self) -> Json {
        Json::object([
            ("discovered", self.discovered.to_json()),
            ("quality", self.quality.to_json()),
        ])
    }
}

impl FromJson for RankedSchema {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(RankedSchema {
            discovered: DiscoveredSchema::from_json(field(json, "discovered")?)?,
            quality: SchemaQuality::from_json(field(json, "quality")?)?,
        })
    }
}

impl ToJson for MaimonResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("format_version", Json::Int(FORMAT_VERSION as i128)),
            ("mvds", self.mvds.to_json()),
            ("schemas", Json::array(self.schemas.iter().map(ToJson::to_json))),
            ("pareto", Json::array(self.pareto.iter().map(|&i| Json::from(i)))),
            ("truncated", Json::from(self.truncated)),
        ])
    }
}

impl FromJson for MaimonResult {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let version = field(json, "format_version")?.as_i128();
        if version != Some(FORMAT_VERSION as i128) {
            return wire_err(format!(
                "unsupported format_version {version:?} (expected {FORMAT_VERSION})"
            ));
        }
        let pareto = field(json, "pareto")?
            .as_array()
            .ok_or_else(|| MaimonError::Wire("pareto is not an array".into()))?
            .iter()
            .map(|v| {
                v.as_i128()
                    .and_then(|i| usize::try_from(i).ok())
                    .ok_or_else(|| MaimonError::Wire("pareto index is not a usize".into()))
            })
            .collect::<Result<Vec<usize>, MaimonError>>()?;
        Ok(MaimonResult {
            mvds: MvdMiningResult::from_json(field(json, "mvds")?)?,
            schemas: vec_field(json, "schemas")?,
            pareto,
            truncated: bool_field(json, "truncated")?,
        })
    }
}

impl ToJson for Fd {
    fn to_json(&self) -> Json {
        Json::object([("lhs", self.lhs.to_json()), ("rhs", Json::from(self.rhs))])
    }
}

impl FromJson for Fd {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(Fd { lhs: AttrSet::from_json(field(json, "lhs")?)?, rhs: usize_field(json, "rhs")? })
    }
}

impl ToJson for FdMiningResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("fds", Json::array(self.fds.iter().map(ToJson::to_json))),
            ("candidates_tested", Json::from(self.candidates_tested)),
        ])
    }
}

impl FromJson for FdMiningResult {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        Ok(FdMiningResult {
            fds: vec_field(json, "fds")?,
            candidates_tested: usize_field(json, "candidates_tested")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrset_representation_is_sorted_indices() {
        let set: AttrSet = [5usize, 0, 3].into_iter().collect();
        assert_eq!(set.to_json_string(), "[0,3,5]");
        assert_eq!(AttrSet::from_json_str("[0,3,5]").unwrap(), set);
        assert_eq!(AttrSet::from_json_str("[]").unwrap(), AttrSet::empty());
        assert!(AttrSet::from_json_str("[64]").is_err());
        assert!(AttrSet::from_json_str("[-1]").is_err());
        assert!(AttrSet::from_json_str("{}").is_err());
    }

    #[test]
    fn duration_and_stats_round_trip_exactly() {
        let duration = Duration::new(12, 345_678_901);
        assert_eq!(duration.to_json_string(), r#"{"secs":12,"nanos":345678901}"#);
        assert_eq!(Duration::from_json_str(&duration.to_json_string()).unwrap(), duration);
        assert!(Duration::from_json_str(r#"{"secs":1,"nanos":2000000000}"#).is_err());

        let stats = OracleStats {
            calls: 10,
            cache_hits: 7,
            intersections: 3,
            count_only_intersections: 2,
            full_scans: 1,
            delta_refreshes: 4,
        };
        assert_eq!(OracleStats::from_json_str(&stats.to_json_string()).unwrap(), stats);
        // Pre-count-only documents (no `count_only_intersections` key, no
        // delta counters) still parse; the counters default to zero.
        let legacy = OracleStats::from_json_str(
            r#"{"calls":10,"cache_hits":7,"intersections":3,"full_scans":1}"#,
        )
        .unwrap();
        assert_eq!(
            legacy,
            OracleStats { count_only_intersections: 0, delta_refreshes: 0, ..stats }
        );
    }

    #[test]
    fn stage_breakdown_round_trips_and_defaults_additively() {
        let mut breakdown = StageBreakdown::default();
        breakdown.set(Stage::MineMinSeps, Duration::new(1, 500));
        breakdown.set(Stage::Measure, Duration::from_nanos(7));
        let text = breakdown.to_json_string();
        assert_eq!(StageBreakdown::from_json_str(&text).unwrap(), breakdown);
        // Every stage key is independently optional: documents written
        // before a stage existed parse with it at zero.
        let partial =
            StageBreakdown::from_json_str(r#"{"transversal":{"secs":0,"nanos":42}}"#).unwrap();
        assert_eq!(partial.transversal, Duration::from_nanos(42));
        assert_eq!(partial.mine_min_seps, Duration::ZERO);
        assert_eq!(StageBreakdown::from_json_str("{}").unwrap(), StageBreakdown::default());
    }

    #[test]
    fn quality_preserves_u128_counters() {
        let quality = SchemaQuality {
            n_relations: 4,
            width: 3,
            intersection_width: 2,
            storage_savings_pct: -54.16666666666667,
            spurious_tuples_pct: 0.0,
            original_cells: u64::MAX as u128 * 1000,
            decomposed_cells: 37,
            join_size: 4,
        };
        let back = SchemaQuality::from_json_str(&quality.to_json_string()).unwrap();
        assert_eq!(back, quality);
    }

    #[test]
    fn null_floats_are_wire_errors() {
        // Non-finite floats travel as "NaN"/"Infinity" strings, so an
        // explicit `null` in a required float field is malformed.
        let null = r#"{"n_relations":2,"width":2,"intersection_width":1,
            "storage_savings_pct":null,"spurious_tuples_pct":1.5,
            "original_cells":8,"decomposed_cells":8,"join_size":4}"#;
        assert!(matches!(SchemaQuality::from_json_str(null), Err(MaimonError::Wire(_))));
        // An absent float field is an error too, not a NaN.
        let absent = r#"{"n_relations":2,"width":2,"intersection_width":1,
            "spurious_tuples_pct":1.5,
            "original_cells":8,"decomposed_cells":8,"join_size":4}"#;
        assert!(matches!(SchemaQuality::from_json_str(absent), Err(MaimonError::Wire(_))));
    }

    #[test]
    fn shape_mismatches_are_wire_errors() {
        assert!(matches!(Mvd::from_json_str("[]"), Err(MaimonError::Wire(_))));
        assert!(matches!(Mvd::from_json_str("{\"key\":[0]}"), Err(MaimonError::Wire(_))));
        assert!(matches!(SchemaQuality::from_json_str("not json"), Err(MaimonError::Wire(_))));
        // Overlapping dependents re-run Mvd::new's validation.
        let bad = r#"{"key":[0],"dependents":[[1],[1,2]]}"#;
        assert!(Mvd::from_json_str(bad).is_err());
        // Version gate on the envelope.
        let bad_version =
            r#"{"format_version":99,"mvds":{},"schemas":[],"pareto":[],"truncated":false}"#;
        assert!(matches!(MaimonResult::from_json_str(bad_version), Err(MaimonError::Wire(_))));
    }
}
