//! Table 3 of the paper: the trusted code base — the specifications one
//! must read and believe (everything else is checked against them).
//!
//! In this reproduction the corresponding artifacts are the trace
//! specifications, the platform layout, the device models (which play the
//! role of the paper's HDL semantics + physical hardware), and the
//! checking substrate itself. Line counts are measured live from the
//! workspace.

use bench::{count_file, emit_json, json_mode, render_table, table_json, workspace_root};
use obs::json::Value;

fn main() {
    let root = workspace_root();
    let count = |rel: &str| count_file(&root.join(rel));

    let rows = vec![
        (
            "Lightbulb app + driver trace spec",
            "crates/lightbulb/src/spec.rs",
            "lightbulb app (27) + LAN9250 (77) + SPI (30) + outputs (10) = 144",
        ),
        (
            "Trace predicate notations",
            "crates/proglogic/src/trace.rs",
            "trace predicate notations (25)",
        ),
        (
            "Platform memory map",
            "crates/lightbulb/src/layout.rs",
            "(folded into driver specs in the paper)",
        ),
        (
            "ISA semantics (execute)",
            "crates/riscv/src/execute.rs",
            "(riscv-coq, excluded from the paper's count)",
        ),
        (
            "Hardware substrate (kami fifo)",
            "crates/kami/src/fifo.rs",
            "semantics of Kami HDL (~400), spread across",
        ),
        (
            "Hardware substrate (kami mem)",
            "crates/kami/src/mem.rs",
            "  the kami crate's primitive modules",
        ),
        (
            "Hardware substrate (kami module)",
            "crates/kami/src/module.rs",
            "",
        ),
    ];

    let mut table = Vec::new();
    let mut total = 0;
    for (name, rel, paper) in &rows {
        let loc = count(rel);
        total += loc.code;
        table.push(vec![
            name.to_string(),
            loc.code.to_string(),
            rel.to_string(),
            paper.to_string(),
        ]);
    }
    table.push(vec![
        "TOTAL (spec-role code)".into(),
        total.to_string(),
        String::new(),
        "~569".into(),
    ]);

    let headers = ["component", "LoC", "file", "paper's corresponding row"];
    if json_mode() {
        let data = Value::obj()
            .field("rows", table_json(&headers, &table))
            .field("total_spec_loc", Value::UInt(u64::from(total)));
        emit_json("table3", data);
        return;
    }
    print!(
        "{}",
        render_table(
            "Table 3: trusted code base (lines of spec-role code, measured)",
            &headers,
            &table
        )
    );
    println!();
    println!("Other TCB (paper: Verilog wrapper, Kami→Bluespec, bsc, yosys/nextpnr, Coq):");
    println!("  here: the Rust compiler and standard library, the `rand`/`proptest`");
    println!("  stand-ins, and this harness itself — the usual");
    println!("  trusted substrate of any testing-based (rather than proof-based) check.");
}
