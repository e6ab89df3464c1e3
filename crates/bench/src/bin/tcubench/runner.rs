//! Running the whole set: every workload, both passes, each in its own
//! child process (the harness re-executes itself with `--workload`), so
//! one workload's allocator state, page cache footprint and peak memory
//! cannot leak into the next one's numbers.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::workloads::{Outcome, RunArgs, RATE_PER_S};
use crate::{probe, Cli};

/// Generator lateness above this makes an open-loop run's percentiles
/// suspect (`--selfcheck` fails on it).
const MAX_LATE_P95_MS: f64 = 1.0;

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The run record of one workload pass: everything needed to read its
/// numbers later without the process that produced them.
pub fn record(name: &str, args: &RunArgs, out: &Outcome, defs: &[MetricDef]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("workload", Json::from(name)),
        (
            "pass",
            Json::from(if args.trace { "traced" } else { "end_to_end" }),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("commit", Json::from(commit())),
        ("nproc", Json::from(nproc)),
        ("simd", Json::from(probe::simd())),
        ("rate_per_s", Json::from(RATE_PER_S)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("counts", Json::Obj(out.record.clone())),
        ("metrics", out.metrics.to_json(defs)),
        ("samples", out.metrics.samples_json(defs)),
        (
            "digests",
            Json::Obj(
                out.digests
                    .iter()
                    .map(|(n, d)| {
                        (
                            n.clone(),
                            Json::obj(vec![
                                ("rows", Json::from(d.rows)),
                                ("digest", Json::from(d.hex())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One child run: its exit status, result line and record.
struct ChildRun {
    workload: &'static str,
    traced: bool,
    ok: bool,
    record: Json,
}

fn run_child(workload: &'static str, traced: bool, cli: &Cli) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args([
            "--seed",
            &cli.seed.unwrap_or(crate::verify::GOLDEN_SEED).to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = Json::Null;
    for line in stdout.lines() {
        match line.strip_prefix("RECORD ") {
            Some(json) => {
                record = Json::parse(json).map_err(|e| format!("{workload}: record: {e}"))?
            }
            // The result line repeats the metrics already printed by name.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| {
            format!(
                "{workload}: child printed no result line ({})",
                output.status
            )
        })?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildRun {
        workload,
        traced,
        ok: output.status.success() && correct,
        record,
    })
}

fn metric(run: &ChildRun, name: &str) -> Option<f64> {
    run.record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A/A comparison of two sets of runs of the same code: every end-to-end
/// metric must agree within its bound, and the open-loop generator must
/// have kept its schedule.
fn selfcheck(first: &[ChildRun], second: &[ChildRun]) -> bool {
    let mut agree = true;
    println!("selfcheck: set 1 vs set 2 (reverse order)");
    for (workload, _) in WORKLOADS {
        let find = |set: &[ChildRun], traced: bool| -> Option<usize> {
            set.iter()
                .position(|r| r.workload == workload && r.traced == traced)
        };
        let (Some(a), Some(b)) = (find(first, false), find(second, false)) else {
            continue;
        };
        for d in END_TO_END {
            let (Some(x), Some(y)) = (metric(&first[a], d.name), metric(&second[b], d.name)) else {
                continue;
            };
            let worse = match d.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let within = worse.abs() <= d.bound;
            agree &= within;
            println!(
                "  {workload:<11} {:<16} {x:>14.5} {y:>14.5} {:>+8.2}%  bound {:>4.0}%  {}",
                d.name,
                worse * 100.0,
                d.bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        for set in [first, second] {
            let late = find(set, true).and_then(|i| metric(&set[i], "gen.late_p95_ms"));
            if let Some(late) = late.filter(|l| *l > MAX_LATE_P95_MS) {
                agree = false;
                println!("  {workload:<11} gen.late_p95_ms {late:.3} exceeds {MAX_LATE_P95_MS} ms");
            }
        }
    }
    agree
}

fn golden_json(seed: u64, runs: &[ChildRun]) -> Json {
    let workloads = runs
        .iter()
        .filter(|r| !r.traced)
        .filter_map(|r| Some((r.workload.to_string(), r.record.get("digests")?.clone())))
        .collect();
    Json::obj(vec![
        ("seed", Json::from(seed)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Pretty-print with one workload / run per line group; the files are
/// committed or diffed, so stable line structure matters more than size.
fn write_pretty(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    fn pretty(v: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Json::Obj(pairs) if depth < 3 && !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::from(k.as_str()).render());
                    out.push_str(": ");
                    pretty(v, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            Json::Arr(items) if depth < 3 && !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    pretty(v, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut text = String::new();
    pretty(doc, 0, &mut text);
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, both passes; twice (second set in reverse order) under
/// `--selfcheck`.
pub fn run_all(cli: &Cli) -> ExitCode {
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    let mut all_ok = true;
    for set in 0..if cli.selfcheck { 2 } else { 1 } {
        let mut order: Vec<&'static str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        if set == 1 {
            order.reverse();
        }
        let mut runs = Vec::new();
        for workload in order {
            for traced in [false, true] {
                match run_child(workload, traced, cli) {
                    Ok(run) => {
                        all_ok &= run.ok;
                        runs.push(run);
                    }
                    Err(e) => {
                        eprintln!("tcubench: {e}");
                        all_ok = false;
                    }
                }
            }
        }
        sets.push(runs);
    }
    if cli.selfcheck && sets.len() == 2 {
        let agree = selfcheck(&sets[0], &sets[1]);
        println!("selfcheck: {}", if agree { "agree" } else { "DISAGREE" });
        all_ok &= agree;
    }
    let seed = cli.seed.unwrap_or(crate::verify::GOLDEN_SEED);
    let mut written = Ok(());
    if let Some(path) = &cli.write_golden {
        written = written.and(write_pretty(path, &golden_json(seed, &sets[0])));
    }
    if let Some(path) = &cli.out {
        let runs = sets.iter().flatten().map(|r| r.record.clone()).collect();
        let doc = Json::obj(vec![
            ("tcubench", Json::from(1u64)),
            ("runs", Json::Arr(runs)),
        ]);
        written = written.and(write_pretty(path, &doc));
    }
    if let Err(e) = written {
        eprintln!("tcubench: {e}");
        return ExitCode::from(2);
    }
    println!(
        "tcubench: {}",
        if all_ok {
            "all results verified"
        } else {
            "FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
