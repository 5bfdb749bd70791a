//! The seeded client script of `serve_mixed`.
//!
//! Each of the two clients draws an endless request stream from its own
//! seeded generator: every 20th request (offset by half a period on the
//! second client, so the writes interleave) appends 8 rows drawn from the
//! dataset's own value domains; the rest mine at one of four thresholds.
//! The run's time window, not the script, decides how many are sent.

use crate::inputs::SplitMix64;
use maimon::json::Json;
use std::sync::Arc;

/// Closed-loop clients; one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;
/// Thresholds the `mine` requests pick from.
pub const EPSILONS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
/// One request in this many is an `append`.
pub const APPEND_EVERY: u64 = 20;
/// Rows per `append`.
pub const APPEND_ROWS: usize = 8;
/// The dataset name the server registers.
pub const DATASET: &str = "nursery";

/// One scripted request.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Mine the full pipeline at a threshold.
    Mine {
        /// The threshold.
        epsilon: f64,
    },
    /// Append rows (one string per attribute).
    Append {
        /// The rows.
        rows: Vec<Vec<String>>,
    },
}

impl Step {
    /// The request as one protocol line, newline included.
    pub fn line(&self, trace_id: Option<&str>) -> String {
        let mut fields =
            match self {
                Step::Mine { epsilon } => vec![
                    ("op", Json::from("mine")),
                    ("dataset", Json::from(DATASET)),
                    ("epsilon", Json::from(*epsilon)),
                ],
                Step::Append { rows } => vec![
                    ("op", Json::from("append")),
                    ("dataset", Json::from(DATASET)),
                    (
                        "rows",
                        Json::array(rows.iter().map(|row| {
                            Json::array(row.iter().map(|cell| Json::from(cell.as_str())))
                        })),
                    ),
                ],
            };
        if let Some(id) = trace_id {
            fields.push(("trace_id", Json::from(id)));
        }
        let mut line = Json::object(fields).to_string();
        line.push('\n');
        line
    }
}

/// One client's request stream.
pub struct Script {
    rng: SplitMix64,
    client: usize,
    index: u64,
    domains: Arc<Vec<Vec<String>>>,
}

impl Script {
    /// Client `client`'s stream for `seed`; appended cells are drawn from
    /// `domains` (per attribute, the values the dataset already has).
    pub fn new(seed: u64, client: usize, domains: Arc<Vec<Vec<String>>>) -> Self {
        Script { rng: SplitMix64::new(seed, 100 + client as u64), client, index: 0, domains }
    }
}

impl Iterator for Script {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let i = self.index;
        self.index += 1;
        let offset = self.client as u64 * APPEND_EVERY / CLIENTS as u64;
        Some(if (i + offset) % APPEND_EVERY == APPEND_EVERY - 1 {
            let rows = (0..APPEND_ROWS)
                .map(|_| self.domains.iter().map(|d| d[self.rng.below(d.len())].clone()).collect())
                .collect();
            Step::Append { rows }
        } else {
            Step::Mine { epsilon: EPSILONS[self.rng.below(EPSILONS.len())] }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domains() -> Arc<Vec<Vec<String>>> {
        let rel = maimon_datasets::nursery();
        Arc::new((0..rel.arity()).map(|c| rel.column_values(c).to_vec()).collect())
    }

    #[test]
    fn the_script_is_deterministic_per_seed_and_client() {
        let d = domains();
        let a: Vec<Step> = Script::new(5, 0, Arc::clone(&d)).take(200).collect();
        let b: Vec<Step> = Script::new(5, 0, Arc::clone(&d)).take(200).collect();
        assert_eq!(a, b);
        let other_seed: Vec<Step> = Script::new(6, 0, Arc::clone(&d)).take(200).collect();
        assert_ne!(a, other_seed);
        let other_client: Vec<Step> = Script::new(5, 1, d).take(200).collect();
        assert_ne!(a, other_client);
        let lines: Vec<String> = a.iter().map(|s| s.line(Some("c0-1"))).collect();
        let again: Vec<String> = b.iter().map(|s| s.line(Some("c0-1"))).collect();
        assert_eq!(lines, again);
    }

    #[test]
    fn every_twentieth_request_appends_with_clients_offset() {
        let d = domains();
        for client in 0..CLIENTS {
            let appends: Vec<usize> = Script::new(1, client, Arc::clone(&d))
                .take(100)
                .enumerate()
                .filter(|(_, s)| matches!(s, Step::Append { .. }))
                .map(|(i, _)| i)
                .collect();
            let first = if client == 0 { 19 } else { 9 };
            assert_eq!(appends, (0..5).map(|k| first + 20 * k).collect::<Vec<_>>());
        }
        let Some(Step::Append { rows }) = Script::new(1, 0, Arc::clone(&d)).nth(19) else {
            panic!("request 19 appends");
        };
        assert_eq!(rows.len(), APPEND_ROWS);
        for row in &rows {
            assert_eq!(row.len(), d.len());
            for (cell, domain) in row.iter().zip(d.iter()) {
                assert!(domain.contains(cell));
            }
        }
    }
}
