//! One workload run: its metrics, raw samples, checks and spans, and the two
//! ways it is written out — the full JSON report and the one-line summary
//! that ends a run's standard output.

use crate::metrics::{self, Tier};
use maimon::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// A named check of a run. Correctness checks decide `correct`; the others
/// (trace reconciliation) are reported for the reader to judge.
#[derive(Clone, Debug)]
pub struct Check {
    /// Short identifier.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// `true` when a failure means a wrong output.
    pub correctness: bool,
    /// What was compared.
    pub detail: String,
}

/// A span recorded by the benchmark around one call into the program.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// What was called (`core.mvds`, `serve.mine`, …).
    pub name: String,
    /// The enclosing unit: a rep (`rep-3`) or a client (`client-1`).
    pub parent: String,
    /// Request identifier shared with the server's log, when there is one.
    pub trace_id: Option<String>,
    /// Seconds since the run started.
    pub start_s: f64,
    /// Seconds since the run started.
    pub end_s: f64,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether per-layer measurement was on.
    pub trace: bool,
    /// Measurement window asked for, seconds.
    pub seconds: f64,
    /// When the run started; span times are relative to it.
    pub started: Instant,
    /// Metric values by glossary name; absent means not applicable.
    pub values: BTreeMap<&'static str, f64>,
    /// Raw per-rep or per-request samples behind the medians.
    pub raw: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted against the program.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Checks made on the outputs.
    pub checks: Vec<Check>,
    /// Digest of the mined artifacts (identical across reps).
    pub digest: Option<String>,
    /// Free-form observations (sizes, counts, refused percentiles).
    pub notes: Vec<String>,
    /// Spans kept in memory until the run ends.
    pub spans: Vec<SpanRecord>,
}

impl Run {
    /// An empty run record.
    pub fn new(workload: &'static str, seed: u64, trace: bool, seconds: f64) -> Self {
        Run {
            workload,
            seed,
            trace,
            seconds,
            started: Instant::now(),
            values: BTreeMap::new(),
            raw: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            digest: None,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets a metric value; the name must be in the glossary.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::def(name).is_some(), "{name} is not in the glossary");
        self.values.insert(name, value);
    }

    /// Sets a metric to the median of `samples`, if there are any.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(m) = crate::stats::median(samples) {
            self.set(name, m);
        }
    }

    /// Records a check; a failed correctness check counts one failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, correctness: bool, detail: String) {
        if !ok && correctness {
            self.failed += 1;
        }
        self.checks.push(Check { name: name.to_string(), ok, correctness, detail });
    }

    /// Records a span that started at `start` and ends now.
    pub fn span(&mut self, name: &str, parent: &str, trace_id: Option<String>, start: Instant) {
        let end = Instant::now();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            parent: parent.to_string(),
            trace_id,
            start_s: start.duration_since(self.started).as_secs_f64(),
            end_s: end.duration_since(self.started).as_secs_f64(),
        });
    }

    /// No failed operation and every correctness check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok || !c.correctness)
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full report: provenance, every applicable metric, raw samples,
    /// checks and notes.
    pub fn to_json(&self, provenance: &Json) -> Json {
        let metrics = Json::Object(
            metrics::METRICS
                .iter()
                .filter_map(|def| {
                    let value = if def.name == "failed_frac" {
                        Some(self.failed_frac())
                    } else {
                        self.values.get(def.name).copied()
                    };
                    value.map(|v| (def.name.to_string(), metric_json(v, def.unit)))
                })
                .collect(),
        );
        let raw = Json::Object(
            self.raw
                .iter()
                .map(|(k, v)| (k.to_string(), Json::array(v.iter().map(|&x| Json::from(x)))))
                .collect(),
        );
        let checks = Json::array(self.checks.iter().map(|c| {
            Json::object([
                ("name", Json::from(c.name.as_str())),
                ("ok", Json::from(c.ok)),
                ("correctness", Json::from(c.correctness)),
                ("detail", Json::from(c.detail.as_str())),
            ])
        }));
        let expected = crate::digest::expected_seed0(self.workload).filter(|_| self.seed == 0);
        Json::object([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("trace", Json::from(self.trace)),
            ("seconds", Json::from(self.seconds)),
            ("provenance", provenance.clone()),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("digest", self.digest.as_deref().map_or(Json::Null, Json::from)),
            ("expected_digest", expected.map_or(Json::Null, Json::from)),
            ("metrics", metrics),
            ("raw", raw),
            ("checks", checks),
            ("notes", Json::array(self.notes.iter().map(|n| Json::from(n.as_str())))),
        ])
    }

    /// The spans as a JSON document.
    pub fn spans_json(&self) -> Json {
        Json::array(self.spans.iter().map(|s| {
            Json::object([
                ("name", Json::from(s.name.as_str())),
                ("parent", Json::from(s.parent.as_str())),
                ("trace_id", s.trace_id.as_deref().map_or(Json::Null, Json::from)),
                ("start_s", Json::from(s.start_s)),
                ("end_s", Json::from(s.end_s)),
            ])
        }))
    }

    /// The summary line: the gated end-to-end metrics, or with tracing the
    /// gated per-layer ones. Fails if one is missing.
    pub fn summary_line(&self) -> Result<String, String> {
        let tier = if self.trace { Tier::PerLayer } else { Tier::EndToEnd };
        let mut fields = Vec::new();
        for def in metrics::gated(tier) {
            let value = self.values.get(def.name).ok_or_else(|| {
                format!("{}: gated metric {} was not measured", self.workload, def.name)
            })?;
            fields.push((def.name.to_string(), metric_json(*value, def.unit)));
        }
        Ok(Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(fields)),
        ])
        .to_string())
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// Host and build facts every report carries.
pub fn provenance(argv: &[String], seed: u64) -> Json {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::object([
        ("host", Json::from(host)),
        ("cpu", Json::from(cpu)),
        ("nproc", Json::from(nproc)),
        ("maimon_threads", std::env::var("MAIMON_THREADS").map_or(Json::Null, Json::from)),
        ("mining_threads", Json::from(maimon::MaimonConfig::default().effective_threads())),
        ("git_sha", Json::from(command("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::from(command("rustc", &["--version"]))),
        ("seed", Json::from(seed)),
        ("argv", Json::array(argv.iter().map(|a| Json::from(a.as_str())))),
    ])
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
