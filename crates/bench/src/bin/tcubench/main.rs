//! `tcubench` — one benchmark, end to end and layer by layer, over
//! TCUDB-RS: SF=1 analytics, the paper's TCU applications, TCUP serving
//! and durable ingest.  See `README.md` in this directory.
//!
//! Two ways in:
//!
//! ```text
//! # One workload, one pass (what BENCHMARK.json's command runs):
//! tcubench --workload <name> --seed <n> --seconds <s> --trace <0|1|file>
//!
//! # Every workload, both passes, each in its own child process:
//! tcubench [--seed 12] [--seconds 20] [--out run.json] [--selfcheck] [--smoke]
//! ```
//!
//! The last line of standard output of a one-workload run is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Exit code 0
//! means every result verified; 1 a verification or operation failure;
//! 2 a usage or set-up error.

mod json;
mod metrics;
mod probe;
mod procstat;
mod runner;
mod schedule;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workloads::{Outcome, RunArgs};

/// Length of a measured pass when `--seconds` is not given; the same
/// value as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace 0|1|<file>`.
    trace: Option<String>,
    out: Option<PathBuf>,
    write_golden: Option<PathBuf>,
    selfcheck: bool,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => cli.trace = Some(value()?),
            "--out" => cli.out = Some(value()?.into()),
            "--write-golden" => cli.write_golden = Some(value()?.into()),
            "--selfcheck" => cli.selfcheck = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {names:?}"));
        }
    }
    Ok(cli)
}

/// Directory next to the executable (inside the build directory, hence
/// inside the checkout) for scratch files and traces.
fn scratch_dir(kind: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
        .join(kind)
}

fn print_metrics(defs: &[MetricDef], out: &Outcome) {
    for d in defs {
        let value = out.metrics.get(d.name).unwrap_or(0.0);
        let n = out.metrics.samples(d.name);
        let tail = if d.name.ends_with("p95_ms") && n > 0 {
            let beyond = stats::samples_beyond(n as usize, 0.95);
            let weak = if stats::tail_supported(n as usize, 0.95) {
                ""
            } else {
                ", too few for a tail"
            };
            format!(" ({beyond} beyond{weak})")
        } else {
            String::new()
        };
        println!("  {:<34} {:>16.6} {:<7} n={n}{tail}", d.name, value, d.unit);
    }
}

/// Run one workload, one pass, in this process.
fn run_one(name: &str, cli: &Cli) -> ExitCode {
    let seed = cli.seed.unwrap_or(verify::GOLDEN_SEED);
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 0.3 } else { DEFAULT_SECONDS });
    let (trace, trace_path) = match cli.trace.as_deref() {
        None | Some("0") => (false, None),
        Some("1") => (
            true,
            Some(scratch_dir("tcubench-trace").join(format!("{name}.jsonl"))),
        ),
        Some(path) => (true, Some(PathBuf::from(path))),
    };
    let args = RunArgs {
        seed,
        seconds,
        trace,
        smoke: cli.smoke,
        work_dir: scratch_dir("tcubench-work").join(format!("{name}-{}", std::process::id())),
    };
    let mut tracer = Tracer::new(trace);
    let out = match workloads::run(name, &args, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tcubench: {name}: {e}");
            let _ = std::fs::remove_dir_all(&args.work_dir);
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &trace_path {
        match tracer.write_to(path) {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("tcubench: cannot write trace {}: {e}", path.display()),
        }
    }

    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let pass = if trace {
        "traced pass"
    } else {
        "end-to-end pass"
    };
    println!("workload {name}: {pass}, seed {seed}, {seconds} s");
    print_metrics(defs, &out);
    for line in &out.failures {
        println!("FAILED {line}");
    }
    println!(
        "attempted {} failed {} fail_frac {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "RECORD {}",
        runner::record(name, &args, &out, defs).render()
    );
    let correct = out.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", out.metrics.to_json(defs)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("tcubench: {e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => runner::run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "serve_tcup",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve_tcup"));
        assert_eq!(c.seed, Some(7));
        assert_eq!(c.seconds, Some(12.0));
        assert_eq!(c.trace.as_deref(), Some("1"));
        assert!(!c.smoke && !c.selfcheck);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert_eq!(cli(&[]).unwrap(), Cli::default());
    }
}
