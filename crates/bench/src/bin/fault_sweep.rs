//! The fault-injection sweep: thousands of seeded device-fault plans run
//! against the hardened lightbulb stack on both the pipelined processor
//! and the ISA spec machine, each run checked for spec satisfaction and
//! replay trace equality. `--json` emits a `bench-report/v1` record to
//! `BENCH_fault_sweep.json`.
//!
//! Every seed derives a deterministic `FaultPlan` (delayed/never-ready
//! registers, SPI wire garbage, RX stalls, dropped/truncated/corrupted
//! frames, spurious RX flags) and must be *recoverable*: the drivers'
//! bounded retries and re-initialization keep every trace inside
//! `goodHlTrace`. The sweep also self-checks determinism: the same seed
//! range swept twice (and with different shard counts) must publish
//! byte-identical counter reports.
//!
//! Per-seed panics are caught and reported without aborting the sweep.
//! Failing seeds are triaged automatically — delta-debugged to a
//! 1-minimal fault plan with a named divergence site, written as
//! `TRIAGE_fault_sweep_seed<N>.json`.
//!
//! Flags (anything else, or a value that does not parse, exits 2):
//! * `--seeds N` (default 1000), `--shards N` (default: one per hardware
//!   thread), `--json`;
//! * `--triage-dir DIR` (where triage artifacts go; default: the
//!   workspace root, next to `BENCH_fault_sweep.json`);
//! * `--triage-demo` (run a planted unrecoverable plan through the full
//!   triage path and write its artifact — the CI exercise that keeps the
//!   red-sweep workflow from rotting);
//! * `--replay-plan PATH` (re-run one plan from a `fault-plan/v1` or
//!   `triage-report/v1` file: the one-liner a triage artifact names).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use bench::{counters_json, emit_json, json_mode, render_table, workspace_root};
use lightbulb_system::devices::FaultPlan;
use lightbulb_system::integration::differential::{
    default_shards, fault_check_plan, fault_sweep, fault_sweep_with, FaultSweepConfig,
};
use lightbulb_system::integration::{build_image, triage_plan};
use obs::json::Value;

const USAGE: &str = "usage: fault_sweep [--seeds N] [--shards N] [--json] [--triage-dir DIR] \
                     | --triage-demo [--triage-dir DIR] | --replay-plan PATH";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    seeds: u64,
    shards: usize,
    triage_dir: PathBuf,
    triage_demo: bool,
    replay_plan: Option<PathBuf>,
}

/// Parses the arguments after the program name. Unknown flags, missing
/// values and values that do not parse are errors, never defaults: a
/// typo must not silently sweep a different range.
fn parse_args(args: &[String]) -> Result<Args, String> {
    fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: {text:?} is not a non-negative integer"))
    }
    let mut out = Args {
        seeds: 1000,
        shards: default_shards(),
        triage_dir: workspace_root(),
        triage_demo: false,
        replay_plan: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            // Read by `bench::json_mode`.
            "--json" => {}
            "--triage-demo" => out.triage_demo = true,
            "--seeds" => out.seeds = number(flag, value(&mut it, flag)?)?,
            "--shards" => out.shards = number(flag, value(&mut it, flag)?)?,
            "--triage-dir" => out.triage_dir = PathBuf::from(value(&mut it, flag)?),
            "--replay-plan" => out.replay_plan = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// The planted unrecoverable plan for `--triage-demo`: BYTE_TEST junk far
/// past the driver's bring-up budget (initialization can never succeed,
/// so no frame is ever delivered — a liveness failure under
/// `require_done`), buried in noise atoms the minimizer must strip.
fn demo_plan() -> FaultPlan {
    FaultPlan {
        byte_test_junk_reads: 10_000,
        spurious_rx_reads: vec![40, 90],
        wire_garbage: vec![(25, 0x5A), (130, 0xA5)],
        rx_stalls: vec![(60, 9)],
        ..FaultPlan::none()
    }
}

/// `--triage-demo`: exercise the whole red-sweep workflow on the planted
/// plan — fail, shrink, locate, write the artifact — and verify the
/// artifact round-trips. Exits nonzero if any triage promise breaks.
fn run_triage_demo(triage_dir: &Path) -> ExitCode {
    let cfg = FaultSweepConfig {
        require_done: true,
        ..FaultSweepConfig::default()
    };
    let image = build_image(&cfg.system);
    let plan = demo_plan();
    let Some(report) = triage_plan(&plan, &cfg, &image) else {
        eprintln!("triage demo: the planted plan unexpectedly passes — demo is broken");
        return ExitCode::from(2);
    };
    let original = report.original.atoms().len();
    let minimal = report.minimal.atoms().len();
    let path = triage_dir.join("TRIAGE_fault_sweep_demo.json");
    if let Err(e) = report.write_atomic(&path) {
        eprintln!("triage demo: could not write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    let table = vec![
        vec!["original atoms".to_string(), original.to_string()],
        vec!["minimal atoms".to_string(), minimal.to_string()],
        vec!["probes".to_string(), report.probes.to_string()],
        vec!["error".to_string(), report.error.to_string()],
        vec!["divergence".to_string(), report.site.description.clone()],
        vec!["artifact".to_string(), path.display().to_string()],
    ];
    print!(
        "{}",
        render_table(
            "triage demo (planted unrecoverable plan)",
            &["metric", "value"],
            &table
        )
    );
    if minimal >= original {
        eprintln!("triage demo: shrinking removed nothing ({original} -> {minimal} atoms)");
        return ExitCode::from(2);
    }
    // The artifact's repro path must work: replaying the minimal plan
    // from the file we just wrote must reproduce the failure.
    match replay_file(&path, true) {
        Ok(Some(_)) => ExitCode::SUCCESS,
        Ok(None) => {
            eprintln!("triage demo: replaying the minimal plan did not reproduce the failure");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("triage demo: replay failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Loads a plan from a `fault-plan/v1` or `triage-report/v1` document and
/// runs [`fault_check_plan`] on it once. Returns the error the plan
/// produces (`None`: the plan passes).
fn replay_file(path: &Path, quiet: bool) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // A triage report embeds the minimal plan and remembers whether the
    // failure was a liveness one (workload_incomplete needs require_done
    // to reproduce); a bare plan document replays in safety mode.
    let (plan_doc, require_done) = match doc.get("schema").and_then(Value::as_str) {
        Some("triage-report/v1") => (
            doc.get("minimal")
                .ok_or("triage report without a minimal plan")?,
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                == Some("workload_incomplete"),
        ),
        _ => (&doc, false),
    };
    let plan = FaultPlan::from_json(plan_doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let cfg = FaultSweepConfig {
        require_done,
        ..FaultSweepConfig::default()
    };
    let image = build_image(&cfg.system);
    let mut counters = obs::Counters::new();
    match fault_check_plan(&plan, &cfg, &image, &mut counters) {
        Ok(()) => {
            if !quiet {
                println!(
                    "replay: plan (seed {}, {} atoms) passes",
                    plan.seed,
                    plan.atoms().len()
                );
            }
            Ok(None)
        }
        Err(e) => {
            if !quiet {
                println!(
                    "replay: plan (seed {}, {} atoms) fails: {e}",
                    plan.seed,
                    plan.atoms().len()
                );
            }
            Ok(Some(e.to_string()))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.triage_demo {
        return run_triage_demo(&args.triage_dir);
    }
    if let Some(path) = &args.replay_plan {
        return match replay_file(path, false) {
            Ok(None) => ExitCode::SUCCESS,
            Ok(Some(_)) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let seeds = args.seeds;
    let cfg = FaultSweepConfig::default();
    let t0 = Instant::now();
    let report = fault_sweep_with(0..seeds, args.shards, &cfg, Some(&args.triage_dir));
    let secs = t0.elapsed().as_secs_f64();
    report.expect_clean("fault sweep");

    // Determinism self-check on a small prefix: same seeds, different
    // shard count, byte-identical counter report.
    let probe = seeds.min(16);
    let serial = fault_sweep(0..probe, 1, &cfg);
    let sharded = fault_sweep(0..probe, 4, &cfg);
    let strip = |c: &obs::Counters| {
        let mut out = obs::Counters::new();
        for (k, v) in c.iter() {
            if k != "core.diff.shards" {
                out.set(k, v);
            }
        }
        counters_json(&out).render()
    };
    let deterministic = strip(&serial.counters) == strip(&sharded.counters);
    assert!(deterministic, "fault sweep must be shard-count invariant");

    let injected = report.counters.get("devices.faults.injected");
    let retries = report.counters.get("driver.retries");
    let reinits = report.counters.get("driver.reinit");

    if json_mode() {
        let data = Value::obj()
            .field(
                "workload",
                Value::Str("seeded fault plans vs hardened drivers".into()),
            )
            .field("seeds", Value::UInt(seeds))
            .field("shards", Value::UInt(report.shards as u64))
            .field("conclusive", Value::UInt(report.conclusive))
            .field("failures", Value::UInt(report.failures.len() as u64))
            .field("panicked", Value::UInt(report.panicked.len() as u64))
            .field("seconds", Value::Float(secs))
            .field("seeds_per_sec", Value::Float(seeds as f64 / secs))
            .field("frames_per_run", Value::UInt(cfg.frames as u64))
            .field("quick_cycles", Value::UInt(cfg.quick_cycles))
            .field("max_cycles", Value::UInt(cfg.max_cycles))
            .field("faults_injected", Value::UInt(injected))
            .field("driver_retries", Value::UInt(retries))
            .field("driver_reinits", Value::UInt(reinits))
            .field("deterministic", Value::Bool(deterministic))
            .field(
                "triage",
                Value::Arr(report.triage.iter().map(|t| t.to_json()).collect()),
            )
            .field("counters", counters_json(&report.counters));
        emit_json("fault_sweep", data);
        return ExitCode::SUCCESS;
    }

    let table = vec![
        vec!["seeds swept".to_string(), report.total.to_string()],
        vec!["conclusive".to_string(), report.conclusive.to_string()],
        vec!["failures".to_string(), report.failures.len().to_string()],
        vec!["panicked".to_string(), report.panicked.len().to_string()],
        vec!["shards".to_string(), report.shards.to_string()],
        vec!["wall clock".to_string(), format!("{secs:.2} s")],
        vec![
            "throughput".to_string(),
            format!("{:.2} seeds/s", seeds as f64 / secs),
        ],
        vec!["faults injected".to_string(), injected.to_string()],
        vec!["driver retries".to_string(), retries.to_string()],
        vec!["driver re-inits".to_string(), reinits.to_string()],
    ];
    print!(
        "{}",
        render_table(
            "fault-injection sweep (pipelined + spec machine, per seed)",
            &["metric", "value"],
            &table
        )
    );
    println!();
    println!(
        "determinism: shard-count invariance self-check {}",
        if deterministic { "passed" } else { "FAILED" }
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn good_arguments_parse() {
        let args = parse(&["--seeds", "96", "--shards", "3", "--json"]).expect("valid");
        assert_eq!((args.seeds, args.shards), (96, 3));
        assert!(!args.triage_demo && args.replay_plan.is_none());
        let args = parse(&["--replay-plan", "t.json"]).expect("valid");
        assert_eq!(args.replay_plan, Some(PathBuf::from("t.json")));
        assert_eq!(parse(&[]).expect("valid").seeds, 1000);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let err = parse(&["--seeds", "96k"]).expect_err("unparsable value");
        assert!(err.contains("96k"), "{err}");
        let err = parse(&["--resume", "x"]).expect_err("unknown flag");
        assert!(err.contains("--resume"), "{err}");
        assert!(parse(&["--shards"]).is_err(), "missing value");
        assert!(parse(&["--seeds", "-1"]).is_err(), "negative count");
    }
}
