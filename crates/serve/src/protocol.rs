//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response per line, UTF-8, over a plain TCP
//! stream. Payloads reuse the stable wire representations of
//! [`maimon::wire`] (every response envelope carries the same
//! `format_version` stamp, [`maimon::wire::FORMAT_VERSION`]), so a client
//! that can read a `MaimonResult` envelope from disk can read one off the
//! socket unchanged.
//!
//! Requests:
//!
//! ```json
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"mine","dataset":"nursery","epsilon":0.1,"timeout_ms":500,"tenant":"alice"}
//! {"op":"decompose","dataset":"nursery","epsilon":0.1,"tenant":"alice"}
//! {"op":"append","dataset":"nursery","rows":[["usual","proper","complete"]],"tenant":"alice"}
//! ```
//!
//! `timeout_ms` and `tenant` are optional everywhere they appear; a `tenant`
//! is at most [`MAX_TENANT_BYTES`] bytes, and a server tracks at most
//! `MAX_TENANTS` distinct names (later ones share one label); `epsilon`
//! must be finite and non-negative (the library contract, enforced at parse
//! time so an invalid threshold is a `bad_request`, not an `internal`).
//! `append` rows are arrays of strings, one per attribute of the registered
//! dataset, and bump the dataset's `data_version` — which every `mine`,
//! `decompose` and `stats` response echoes. Responses
//! are `{"format_version":1,"ok":true,...}` on success and
//! `{"format_version":1,"ok":false,"kind":...,"error":...}` on failure,
//! where `kind` is one of the [`ErrorKind`] labels. A deadline that expires
//! mid-mine is **not** a failure: the response is `ok` with the partial
//! result flagged `truncated`, identical to the library contract.

use maimon::json::Json;
use maimon::wire::{FromJson, ToJson, FORMAT_VERSION};
use maimon::MaimonError;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List registered datasets and their shapes.
    List,
    /// Export server/oracle/reducer counters.
    Stats,
    /// Export the process-wide metrics registry (counters, gauges and
    /// histograms with their label sets) as a JSON document; the same data
    /// the `--metrics-addr` Prometheus endpoint renders as text.
    Metrics,
    /// Mine the full pipeline (`quality(ε)`) on a registered dataset.
    Mine {
        /// Registered dataset name.
        dataset: String,
        /// Approximation threshold ε.
        epsilon: f64,
        /// Optional per-request deadline, milliseconds from receipt.
        timeout_ms: Option<u64>,
        /// Admission-control tenant label (defaults to the empty tenant).
        tenant: Option<String>,
    },
    /// Mine, pick the best schema, materialize its decomposed store and run
    /// the Yannakakis full reducer, reporting its
    /// [`maimon::decompose::ReducerStats`].
    Decompose {
        /// Registered dataset name.
        dataset: String,
        /// Approximation threshold ε.
        epsilon: f64,
        /// Optional per-request deadline, milliseconds from receipt.
        timeout_ms: Option<u64>,
        /// Admission-control tenant label (defaults to the empty tenant).
        tenant: Option<String>,
    },
    /// Append rows to a registered dataset, installing a new data version
    /// with a delta-refreshed oracle (see `MaimonSession::append_rows`).
    Append {
        /// Registered dataset name.
        dataset: String,
        /// Rows to append; each row has one string per attribute.
        rows: Vec<Vec<String>>,
        /// Admission-control tenant label (defaults to the empty tenant).
        tenant: Option<String>,
    },
}

/// Parsed `append` request fields: `(dataset, rows, tenant)`.
type AppendFields = (String, Vec<Vec<String>>, Option<String>);

/// Failure classes a response can carry, so clients can branch without
/// parsing error prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a known operation shape.
    BadRequest,
    /// The named dataset is not registered.
    NotFound,
    /// Admission control shed the request (tenant cap or queue bound);
    /// retry later.
    Overloaded,
    /// The server failed while processing (mining/store error).
    Internal,
}

impl ErrorKind {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Longest tenant name a request may carry, in bytes.
pub const MAX_TENANT_BYTES: usize = 64;

impl Request {
    fn str_field(json: &Json, key: &str) -> Result<String, MaimonError> {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| MaimonError::Wire(format!("missing or non-string field {key:?}")))
    }

    fn tenant_field(json: &Json) -> Result<Option<String>, MaimonError> {
        match json.get("tenant") {
            None => Ok(None),
            Some(j) if j.is_null() => Ok(None),
            Some(j) => match j.as_str() {
                Some(s) if s.len() <= MAX_TENANT_BYTES => Ok(Some(s.to_string())),
                Some(s) => Err(MaimonError::Wire(format!(
                    "field \"tenant\" is {} bytes, over the {MAX_TENANT_BYTES}-byte limit",
                    s.len()
                ))),
                None => Err(MaimonError::Wire("field \"tenant\" is not a string".into())),
            },
        }
    }

    fn mine_fields(json: &Json) -> Result<(String, f64, Option<u64>, Option<String>), MaimonError> {
        let dataset = Self::str_field(json, "dataset")?;
        let epsilon = json
            .get("epsilon")
            .and_then(Json::as_f64)
            .ok_or_else(|| MaimonError::Wire("missing or non-numeric field \"epsilon\"".into()))?;
        // The library rejects these thresholds too (`InvalidEpsilon`), but
        // catching them at parse time classifies the failure correctly: a
        // nonsensical request is `bad_request`, not `internal`.
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(MaimonError::Wire(format!(
                "field \"epsilon\" must be finite and non-negative, got {epsilon}"
            )));
        }
        let timeout_ms = match json.get("timeout_ms") {
            None => None,
            Some(j) if j.is_null() => None,
            Some(j) => Some(
                j.as_i128()
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or_else(|| MaimonError::Wire("field \"timeout_ms\" is not a u64".into()))?,
            ),
        };
        let tenant = Self::tenant_field(json)?;
        Ok((dataset, epsilon, timeout_ms, tenant))
    }

    fn append_fields(json: &Json) -> Result<AppendFields, MaimonError> {
        let dataset = Self::str_field(json, "dataset")?;
        let rows_json = json
            .get("rows")
            .and_then(Json::as_array)
            .ok_or_else(|| MaimonError::Wire("missing or non-array field \"rows\"".into()))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let cells = row
                .as_array()
                .ok_or_else(|| MaimonError::Wire("each appended row must be an array".into()))?;
            let mut values = Vec::with_capacity(cells.len());
            for cell in cells {
                values.push(
                    cell.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| MaimonError::Wire("row cells must be strings".into()))?,
                );
            }
            rows.push(values);
        }
        let tenant = Self::tenant_field(json)?;
        Ok((dataset, rows, tenant))
    }
}

impl FromJson for Request {
    fn from_json(json: &Json) -> Result<Self, MaimonError> {
        let op = Self::str_field(json, "op")?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "list" => Ok(Request::List),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "mine" => {
                let (dataset, epsilon, timeout_ms, tenant) = Self::mine_fields(json)?;
                Ok(Request::Mine { dataset, epsilon, timeout_ms, tenant })
            }
            "decompose" => {
                let (dataset, epsilon, timeout_ms, tenant) = Self::mine_fields(json)?;
                Ok(Request::Decompose { dataset, epsilon, timeout_ms, tenant })
            }
            "append" => {
                let (dataset, rows, tenant) = Self::append_fields(json)?;
                Ok(Request::Append { dataset, rows, tenant })
            }
            other => Err(MaimonError::Wire(format!("unknown op {other:?}"))),
        }
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        let opt_u64 = |v: &Option<u64>| match v {
            Some(ms) => Json::from(*ms),
            None => Json::Null,
        };
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::from(s.as_str()),
            None => Json::Null,
        };
        match self {
            Request::Ping => Json::object([("op", Json::from("ping"))]),
            Request::List => Json::object([("op", Json::from("list"))]),
            Request::Stats => Json::object([("op", Json::from("stats"))]),
            Request::Metrics => Json::object([("op", Json::from("metrics"))]),
            Request::Mine { dataset, epsilon, timeout_ms, tenant } => Json::object([
                ("op", Json::from("mine")),
                ("dataset", Json::from(dataset.as_str())),
                ("epsilon", Json::from(*epsilon)),
                ("timeout_ms", opt_u64(timeout_ms)),
                ("tenant", opt_str(tenant)),
            ]),
            Request::Decompose { dataset, epsilon, timeout_ms, tenant } => Json::object([
                ("op", Json::from("decompose")),
                ("dataset", Json::from(dataset.as_str())),
                ("epsilon", Json::from(*epsilon)),
                ("timeout_ms", opt_u64(timeout_ms)),
                ("tenant", opt_str(tenant)),
            ]),
            Request::Append { dataset, rows, tenant } => {
                Json::object([
                    ("op", Json::from("append")),
                    ("dataset", Json::from(dataset.as_str())),
                    (
                        "rows",
                        Json::array(rows.iter().map(|row| {
                            Json::array(row.iter().map(|cell| Json::from(cell.as_str())))
                        })),
                    ),
                    ("tenant", opt_str(tenant)),
                ])
            }
        }
    }
}

/// Builds a success envelope: `format_version` + `ok:true` + `op`, followed
/// by the operation-specific `fields`.
pub fn ok_response(op: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![
        ("format_version".to_string(), Json::Int(FORMAT_VERSION as i128)),
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::from(op)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Object(pairs)
}

/// Builds a failure envelope with a machine-readable `kind` and a human
/// `error` message.
pub fn error_response(kind: ErrorKind, message: impl Into<String>) -> Json {
    Json::object([
        ("format_version", Json::Int(FORMAT_VERSION as i128)),
        ("ok", Json::from(false)),
        ("kind", Json::from(kind.label())),
        ("error", Json::from(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            Request::List,
            Request::Stats,
            Request::Metrics,
            Request::Mine {
                dataset: "nursery".into(),
                epsilon: 0.1,
                timeout_ms: Some(250),
                tenant: Some("alice".into()),
            },
            Request::Decompose {
                dataset: "bridges".into(),
                epsilon: 0.0,
                timeout_ms: None,
                tenant: None,
            },
            Request::Append {
                dataset: "nursery".into(),
                rows: vec![
                    vec!["usual".into(), "proper".into()],
                    vec!["pretentious".into(), "improper".into()],
                ],
                tenant: Some("alice".into()),
            },
            Request::Append { dataset: "bridges".into(), rows: vec![], tenant: None },
        ] {
            let text = request.to_json_string();
            assert_eq!(Request::from_json_str(&text).unwrap(), request, "via {text}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"mine"}"#,
            r#"{"op":"mine","dataset":"x"}"#,
            r#"{"op":"mine","dataset":"x","epsilon":"much"}"#,
            r#"{"op":"mine","dataset":"x","epsilon":0.1,"timeout_ms":-1}"#,
            // Thresholds the library would reject are bad requests up front.
            r#"{"op":"mine","dataset":"x","epsilon":-0.1}"#,
            r#"{"op":"mine","dataset":"x","epsilon":1e999}"#,
            r#"{"op":"decompose","dataset":"x","epsilon":-2}"#,
            // Appends must carry well-formed rows-of-strings.
            r#"{"op":"append","dataset":"x"}"#,
            r#"{"op":"append","dataset":"x","rows":"y"}"#,
            r#"{"op":"append","dataset":"x","rows":["y"]}"#,
            r#"{"op":"append","dataset":"x","rows":[[1,2]]}"#,
            "not json",
        ] {
            assert!(Request::from_json_str(bad).is_err(), "accepted {bad:?}");
        }
        // But ε = 0 (exact mining) is valid.
        assert!(Request::from_json_str(r#"{"op":"mine","dataset":"x","epsilon":0}"#).is_ok());
    }

    #[test]
    fn envelopes_carry_the_format_version() {
        let ok = ok_response("ping", []);
        assert_eq!(ok.get("format_version").unwrap().as_i128(), Some(FORMAT_VERSION as i128));
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
        let err = error_response(ErrorKind::Overloaded, "busy");
        assert_eq!(err.get("kind").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(err.get("format_version").unwrap().as_i128(), Some(FORMAT_VERSION as i128));
    }
}
