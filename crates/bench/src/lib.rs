//! Benchmark and evaluation harness: regenerates every table and figure of
//! the paper's evaluation section (§7). See EXPERIMENTS.md for the
//! experiment index and recorded results.
//!
//! Binaries (one per evaluation artifact):
//!
//! * `table1` — the verified-stack criteria matrix, with this project's
//!   column derived from what the workspace actually implements;
//! * `table2` — the parameterization-across-layers summary, checked
//!   against the real generic parameters in the crates;
//! * `table3` — trusted-code-base line counts;
//! * `table4` — implementation/checking line counts and overhead ratios
//!   per layer;
//! * `fig_perf` — the §7.2.1 latency decomposition
//!   (10× ≈ 1.4× · 1.2× · 2.1× · 2.7× in the paper), measured in
//!   simulated cycles over the same configuration grid;
//! * `verif_perf` — §7.2.2: wall-clock costs of the checking machinery;
//! * `spec_throughput` — spec-machine and pipeline simulation throughput,
//!   gated against its committed record by `bench_gate`.

use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{Board, TrafficGen};
use lightbulb_system::integration::{ProcessorKind, SystemConfig};
use lightbulb_system::processor::{Pipelined, SingleCycle};
use obs::json::Value;
use riscv_spec::MmioEventKind;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace root (this crate lives at `crates/bench`).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench is two levels below the root")
        .to_path_buf()
}

/// Line counts for one file: code vs `#[cfg(test)]` checking code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Non-blank lines outside test modules.
    pub code: u32,
    /// Non-blank lines inside `#[cfg(test)]` modules (and test files).
    pub tests: u32,
}

impl std::ops::AddAssign for Loc {
    fn add_assign(&mut self, rhs: Loc) {
        self.code += rhs.code;
        self.tests += rhs.tests;
    }
}

/// Counts lines in one Rust file, splitting at the `#[cfg(test)]` marker
/// (our convention puts the test module last in each file).
pub fn count_file(path: &Path) -> Loc {
    let Ok(text) = fs::read_to_string(path) else {
        return Loc::default();
    };
    let mut loc = Loc::default();
    let mut in_tests = false;
    for line in text.lines() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if line.trim().is_empty() {
            continue;
        }
        if in_tests {
            loc.tests += 1;
        } else {
            loc.code += 1;
        }
    }
    loc
}

/// Recursively counts a directory of Rust sources. Files under a `tests/`
/// directory count entirely as checking code.
pub fn count_dir(path: &Path) -> Loc {
    let mut total = Loc::default();
    let Ok(entries) = fs::read_dir(path) else {
        return total;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            total += count_dir(&p);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let mut loc = count_file(&p);
            if p.ancestors()
                .any(|a| a.file_name().is_some_and(|n| n == "tests"))
            {
                loc = Loc {
                    code: 0,
                    tests: loc.code + loc.tests,
                };
            }
            total += loc;
        }
    }
    total
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", line(&hdr, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))
    );
    for row in rows {
        let _ = writeln!(out, "{}", line(row, &widths));
    }
    out
}

/// True when the binary was invoked with `--json`: emit a machine-readable
/// record (via [`emit_json`]) instead of the human table.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// The machine-readable twin of [`render_table`]: each row becomes an
/// object keyed by the column headers.
pub fn table_json(headers: &[&str], rows: &[Vec<String>]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|row| {
                let mut obj = Value::obj();
                for (h, cell) in headers.iter().zip(row) {
                    obj = obj.field(h, Value::Str(cell.clone()));
                }
                obj
            })
            .collect(),
    )
}

/// A [`obs::Counters`] registry as a JSON object, name → value, in the
/// registry's (lexicographic) order.
pub fn counters_json(c: &obs::Counters) -> Value {
    Value::Obj(
        c.iter()
            .map(|(name, value)| (name.to_string(), Value::UInt(value)))
            .collect(),
    )
}

/// Wraps `data` in the `BENCH_*.json` record envelope (schema tag, bench
/// name) without printing or writing anything.
pub fn json_record(bin: &str, data: Value) -> Value {
    Value::obj()
        .field("schema", Value::Str("bench-report/v1".into()))
        .field("bench", Value::Str(bin.into()))
        .field("data", data)
}

/// Emits one bench record: prints it to stdout as a single JSON document
/// and writes it to `BENCH_<bin>.json` at the workspace root. The rendered
/// text is parsed back with [`obs::json::parse`] first — a bench must
/// never publish an invalid record.
///
/// # Panics
///
/// Panics if the rendered document fails to re-parse (an `obs::json` bug,
/// not an input error).
pub fn emit_json(bin: &str, data: Value) {
    let text = json_record(bin, data).render();
    obs::json::parse(&text).unwrap_or_else(|e| panic!("{bin}: emitted invalid JSON: {e}"));
    println!("{text}");
    let path = workspace_root().join(format!("BENCH_{bin}.json"));
    if let Err(e) = fs::write(&path, format!("{text}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// One latency measurement: packet handover → GPIO actuation.
#[derive(Clone, Copy, Debug)]
pub struct LatencyReport {
    /// Cycle at which the frame was injected (steady-state polling).
    pub injected_at: u64,
    /// Cycle of the actuating GPIO write.
    pub actuated_at: u64,
}

impl LatencyReport {
    /// The latency in simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.actuated_at - self.injected_at
    }
}

/// Warm-up budget: boot plus a few idle polls, all configurations.
const WARMUP_CYCLES: u64 = 400_000;
/// Post-injection budget.
const ACTUATION_BUDGET: u64 = 10_000_000;

/// Measures packet→actuation latency in simulated cycles for `image`
/// running on `config`'s machine, board and RAM (the measurement behind
/// `fig_perf`). The image is usually
/// [`build_image`](lightbulb_system::integration::build_image)`(config)`;
/// taking it prebuilt lets a caller measure compile options a
/// [`SystemConfig`] does not carry, such as spilling everything.
///
/// # Panics
///
/// Panics if the system fails to boot or actuate within generous budgets —
/// that would be a workspace bug, not a measurement.
pub fn packet_to_actuation_latency(
    config: &SystemConfig,
    image: &CompiledProgram,
    seed: u64,
) -> LatencyReport {
    let board = Board::new(config.spi);
    let mut gen = TrafficGen::new(seed);
    let frame = gen.command(true);

    match config.processor {
        ProcessorKind::Pipelined => {
            let mut cpu = Pipelined::new(&image.bytes(), config.ram_bytes, board, config.pipeline);
            // Boot and settle into the polling loop: run until the trace has
            // stopped growing structurally (boot done) — detectable as "no
            // new events for a while" is fragile; instead run a fixed warm-up
            // and require at least one poll to have happened.
            cpu.run(WARMUP_CYCLES);
            assert!(!cpu.mem.trace.is_empty(), "boot must produce I/O");
            let injected_at = cpu.cycle;
            cpu.mem.mmio.inject_frame(&frame);
            let target = cpu.mem.trace.len();
            let mut actuated_at = None;
            let deadline = cpu.cycle + ACTUATION_BUDGET;
            while cpu.cycle < deadline {
                cpu.step_cycle();
                if let Some(ev) = cpu.mem.trace[target..].iter().find(|e| {
                    e.event.kind == MmioEventKind::Store
                        && e.event.addr == lightbulb_system::lightbulb::layout::GPIO_OUTPUT_VAL
                }) {
                    actuated_at = Some(ev.cycle);
                    break;
                }
            }
            LatencyReport {
                injected_at,
                actuated_at: actuated_at.expect("system must actuate within budget"),
            }
        }
        ProcessorKind::SingleCycle => {
            let mut cpu = SingleCycle::new(&image.bytes(), config.ram_bytes, board);
            cpu.run(WARMUP_CYCLES);
            let injected_at = cpu.cycle;
            cpu.mem.mmio.inject_frame(&frame);
            let target = cpu.mem.trace.len();
            let mut actuated_at = None;
            let deadline = cpu.cycle + ACTUATION_BUDGET;
            while cpu.cycle < deadline {
                cpu.step();
                if let Some(ev) = cpu.mem.trace[target..].iter().find(|e| {
                    e.event.kind == MmioEventKind::Store
                        && e.event.addr == lightbulb_system::lightbulb::layout::GPIO_OUTPUT_VAL
                }) {
                    actuated_at = Some(ev.cycle);
                    break;
                }
            }
            LatencyReport {
                injected_at,
                actuated_at: actuated_at.expect("system must actuate within budget"),
            }
        }
        ProcessorKind::SpecMachine => {
            unimplemented!("latency is measured on the hardware models")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counting_splits_tests() {
        let root = workspace_root();
        let loc = count_file(&root.join("crates/riscv/src/word.rs"));
        assert!(loc.code > 50, "{loc:?}");
        assert!(loc.tests > 30, "{loc:?}");
    }

    #[test]
    fn workspace_root_is_found() {
        assert!(workspace_root().join("Cargo.toml").exists());
        assert!(workspace_root().join("DESIGN.md").exists());
    }

    #[test]
    fn json_records_round_trip() {
        let data = table_json(&["name", "value"], &[vec!["stalls".into(), "17".into()]]);
        let text = json_record("demo", data).render();
        let doc = obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("demo"));
        let rows = doc.get("data").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("value").unwrap().as_str(), Some("17"));
    }

    #[test]
    fn tables_render() {
        let t = render_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("333"));
    }
}
