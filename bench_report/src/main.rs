//! `bench_report` command line.
//!
//! ```text
//! bench_report [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!              [--server-bin PATH] [--work-dir DIR] [--out FILE]
//! bench_report --compare BASE.json HEAD.json
//! ```
//!
//! With one workload the run happens in this process and the last stdout
//! line is its summary (`correct`, `attempted`, `failed`, `metrics`). With
//! `all` (the default) every workload runs in a child process of its own,
//! so each reports its own peak RSS, and the combined report is written to
//! `--out`. The exit code is nonzero when an output was wrong.

use bench_report::compare::{compare, load_runs, Verdict};
use bench_report::metrics::{self, Tier};
use bench_report::report::{provenance, Run};
use bench_report::{library, served, WORKLOADS};
use maimon::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage(message: &str) -> String {
    format!(
        "{message}\nusage: bench_report [--workload NAME|all] [--seed N] [--seconds S] \
         [--trace 0|1] [--server-bin PATH] [--work-dir DIR] [--out FILE]\n       \
         bench_report --compare BASE.json HEAD.json\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    // Built binaries sit together in the target directory; the work
    // directory is next to them, inside the build tree.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    let mut options = Options {
        workload: "all".into(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        server_bin: bin_dir.join("maimon-served"),
        work_dir: bin_dir.parent().unwrap_or(&bin_dir).join("bench_work"),
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|_| usage("bad --seed"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| usage("bad --seconds"))?;
                if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
                    return Err(usage("--seconds must be in (0, 3600]"));
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                }
            }
            "--server-bin" => options.server_bin = value()?.into(),
            "--work-dir" => options.work_dir = value()?.into(),
            "--out" => options.out = Some(value()?.into()),
            "--compare" => {
                let base = value()?;
                let head = value()?;
                options.compare = Some((base.into(), head.into()));
            }
            "-h" | "--help" => return Err(usage("")),
            other => return Err(usage(&format!("unknown argument {other:?}"))),
        }
    }
    if options.workload != "all" && !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(usage(&format!("unknown workload {:?}", options.workload)));
    }
    Ok(options)
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(workload: &str, metrics: &Json) {
    for def in metrics::METRICS {
        if let Some(v) = metrics.get(def.name).and_then(|m| m.get("value")).and_then(Json::as_f64) {
            println!("{workload:<16} {:<32} {v:>14.6} {}", def.name, def.unit);
        }
    }
}

/// One workload in this process.
fn run_one(options: &Options, argv: &[String]) -> Result<ExitCode, String> {
    let run_dir = options.work_dir.join(format!("{}-{}", options.workload, std::process::id()));
    let tmp = run_dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // The paged store spills to the temp directory; keep it in the build tree.
    // No other thread exists yet.
    std::env::set_var("TMPDIR", &tmp);
    let (seed, seconds, trace) = (options.seed, options.seconds, options.trace);
    let outcome = match library::Library::named(&options.workload) {
        Some(kind) => library::run(kind, seed, seconds, trace, &run_dir),
        None => served::run(seed, seconds, trace, &run_dir, &options.server_bin),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let run: Run = outcome?;

    let stem = format!("{}-seed{seed}-trace{}", run.workload, u8::from(trace));
    let out =
        options.out.clone().unwrap_or_else(|| options.work_dir.join(format!("report-{stem}.json")));
    let report = run.to_json(&provenance(argv, seed));
    write_json(&out, &report)?;
    if trace {
        write_json(&options.work_dir.join(format!("spans-{stem}.json")), &run.spans_json())?;
    }
    print_metrics(run.workload, report.get("metrics").unwrap_or(&Json::Null));
    for check in &run.checks {
        println!(
            "check {:<36} {} {}",
            check.name,
            if check.ok { "ok  " } else { "FAIL" },
            check.detail
        );
    }
    for note in &run.notes {
        println!("note {note}");
    }
    println!("report {}", out.display());
    println!("{}", run.summary_line()?);
    Ok(if run.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload, each in a child process.
fn run_all(options: &Options, argv: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let out = options.work_dir.join(format!("all-{workload}-{}.json", std::process::id()));
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string(), "--trace"])
            .arg(if options.trace { "1" } else { "0" })
            .arg("--server-bin")
            .arg(&options.server_bin)
            .arg("--work-dir")
            .arg(&options.work_dir)
            .arg("--out")
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| e.to_string())?;
        let text =
            std::fs::read_to_string(&out).map_err(|e| format!("{workload}: no report ({e})"))?;
        let _ = std::fs::remove_file(&out);
        let run = Json::parse(&text).map_err(|e| e.to_string())?;
        all_correct &= status.success() && run.get("correct").and_then(Json::as_bool) == Some(true);
        print_metrics(workload, run.get("metrics").unwrap_or(&Json::Null));
        runs.push(run);
    }
    let out = options.out.clone().unwrap_or_else(|| {
        options.work_dir.join(format!(
            "BENCH_seed{}-trace{}.json",
            options.seed,
            u8::from(options.trace)
        ))
    });
    write_json(
        &out,
        &Json::object([
            ("provenance", provenance(argv, options.seed)),
            ("runs", Json::Array(runs)),
        ]),
    )?;
    println!("report {}", out.display());
    println!("{}", Json::object([("correct", Json::from(all_correct))]));
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_compare(base: &Path, head: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| load_runs(&t))
    };
    let rows = compare(&read(base)?, &read(head)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<32} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "head", "change", "wins"
    );
    for row in &rows {
        let change = match row.base {
            0.0 if row.head == 0.0 => "0.0%".to_string(),
            0.0 => "n/a".to_string(),
            base => format!("{:.1}%", (row.head - base) / base.abs() * 100.0),
        };
        let verdict = row.verdict.map_or("(per-layer)", Verdict::as_str);
        regressed |= row.verdict == Some(Verdict::Regressed);
        let unit = metrics::def(&row.metric).map_or("", |d| d.unit);
        println!(
            "{:<16} {:<32} {:>14.6} {:>14.6} {change:>8} {:>3}/{:<3} {verdict} {unit}",
            row.workload, row.metric, row.base, row.head, row.wins, row.pairs
        );
    }
    if rows.iter().all(|r| metrics::def(&r.metric).map(|d| d.tier) != Some(Tier::EndToEnd)) {
        return Err("no end-to-end metric is present on both sides".into());
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let result = parse(&argv[1..]).and_then(|options| {
        if let Some((base, head)) = &options.compare {
            run_compare(base, head)
        } else if options.workload == "all" {
            run_all(&options, &argv)
        } else {
            run_one(&options, &argv)
        }
    });
    result.unwrap_or_else(|message| {
        eprintln!("bench_report: {message}");
        ExitCode::from(2)
    })
}
