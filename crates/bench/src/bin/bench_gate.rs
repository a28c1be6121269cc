//! Perf-regression gate: compares a fresh `spec_throughput --json` record
//! against the committed `BENCH_spec_throughput.json` and fails when the
//! decode-cache speedup (cached vs uncached spec machine, a ratio that
//! moves with the code rather than the runner) falls more than
//! [`TOLERANCE`] below the committed one.
//!
//! Usage: `cargo run --release -p bench --bin bench_gate -- FRESH.json`
//!
//! A missing or malformed record is a failure, never a skip. To accept an
//! intended change, commit the fresh record as the new baseline.

use obs::json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Largest accepted relative drop of the speedup below the baseline.
const TOLERANCE: f64 = 0.25;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn speedup(record: &Value, path: &Path) -> Result<f64, String> {
    record
        .get("data")
        .and_then(|d| d.get("cached_vs_seed_speedup"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{}: no data.cached_vs_seed_speedup", path.display()))
}

/// The verdict for one fresh/baseline pair of speedups.
fn check(fresh: f64, base: f64) -> Result<String, String> {
    let floor = base * (1.0 - TOLERANCE);
    let line = format!(
        "decode-cache speedup {fresh:.2}x (baseline {base:.2}x, floor {floor:.2}x, \
         tolerance {:.0}%)",
        TOLERANCE * 100.0
    );
    if fresh < floor {
        Err(line)
    } else {
        Ok(line)
    }
}

fn run(fresh_path: &Path) -> Result<String, String> {
    let base_path = bench::workspace_root().join("BENCH_spec_throughput.json");
    let fresh = speedup(&load(fresh_path)?, fresh_path)?;
    let base = speedup(&load(&base_path)?, &base_path)?;
    check(fresh, base)
}

fn main() -> ExitCode {
    let Some(fresh) = std::env::args().nth(1) else {
        eprintln!("usage: bench_gate FRESH_SPEC_THROUGHPUT_JSON");
        return ExitCode::FAILURE;
    };
    match run(Path::new(&fresh)) {
        Ok(line) => {
            println!("bench_gate: ok — {line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_gate FAIL: {e}");
            eprintln!(
                "bench_gate: if intended, commit the fresh record as BENCH_spec_throughput.json"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    #[test]
    fn a_drop_past_the_tolerance_fails() {
        assert!(check(2.0, 2.0).is_ok());
        assert!(check(1.5, 2.0).is_ok());
        assert!(check(1.49, 2.0).is_err());
    }
}
