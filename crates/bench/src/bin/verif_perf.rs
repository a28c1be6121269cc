//! §7.2.2, reproduced: how long the *verification* machinery itself takes.
//!
//! The paper reports 80 minutes of Coq plus ~2 hours of Kami refinement
//! proof checking per CI run. This binary times the corresponding
//! executable checks: the end-to-end trace check, the processor refinement
//! check, and a compiler-differential batch (serial and sharded). The
//! symbolic-execution driver proofs are timed by the `driver_proofs`
//! workload of the repository benchmark (`perfbench/`).

use std::time::Instant;

use bench::{emit_json, json_mode, render_table};
use lightbulb_system::devices::{Board, SpiConfig, TrafficGen};
use lightbulb_system::integration::differential::{
    check_compiler_differential, default_shards, parallel_sweep, DiffError,
};
use lightbulb_system::integration::progen::ProgGen;
use lightbulb_system::integration::{build_image, end_to_end_lightbulb, SystemConfig};
use lightbulb_system::processor::{check_refinement, PipelineConfig};
use obs::json::Value;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn main() {
    let mut rows = Vec::new();
    // (name, seconds, work) — the numeric twin of `rows` for `--json`.
    let mut measured: Vec<(&str, f64, String)> = Vec::new();

    // 1. End-to-end check: boot + 2 packets + trace matching.
    let mut gen = TrafficGen::new(7);
    let frames = vec![gen.command(true), gen.command(false)];
    let (report, secs) = timed(|| {
        end_to_end_lightbulb(
            &SystemConfig::default(),
            &frames,
            600_000,
            Some(&[true, false]),
        )
        .expect("end-to-end check")
    });
    rows.push(vec![
        "end-to-end (boot + 2 packets + spec match)".to_string(),
        format!("{secs:.2} s"),
        format!(
            "{} events, {} cycles",
            report.events_checked, report.run.cycles
        ),
    ]);
    measured.push((
        "end_to_end",
        secs,
        format!(
            "{} events, {} cycles",
            report.events_checked, report.run.cycles
        ),
    ));

    // 2. Processor refinement over the booted system.
    let image = build_image(&SystemConfig::default());
    let mut board = Board::new(SpiConfig::default());
    board.inject_frame(&gen.command(true));
    let (r, secs) = timed(|| {
        check_refinement(
            &image.bytes(),
            0x1_0000,
            board,
            Board::claims,
            PipelineConfig::default(),
            2_000_000,
        )
        .expect("refinement")
    });
    rows.push(vec![
        "pipelined ⊑ single-cycle (replay, 2M cycles)".to_string(),
        format!("{secs:.2} s"),
        format!("{} events matched", r.events),
    ]);
    measured.push(("refinement", secs, format!("{} events matched", r.events)));

    // 3. Compiler differential batch.
    let (n, secs) = timed(|| {
        let mut conclusive = 0;
        for seed in 0..40u64 {
            match check_compiler_differential(&ProgGen::new(seed).gen_program(), false) {
                Ok(()) => conclusive += 1,
                Err(DiffError::SourceUb(_)) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        conclusive
    });
    rows.push(vec![
        "compiler differential (40 random programs)".to_string(),
        format!("{secs:.2} s"),
        format!("{n} conclusive"),
    ]);
    measured.push(("compiler_differential", secs, format!("{n} conclusive")));

    // 3b. The same batch, sharded across every hardware thread.
    let shards = default_shards();
    let (r, secs) = timed(|| {
        let r = parallel_sweep(0..40, shards, |p| check_compiler_differential(p, false));
        r.expect_clean("verif_perf parallel differential");
        r
    });
    rows.push(vec![
        format!("compiler differential (parallel, {shards} shards)"),
        format!("{secs:.2} s"),
        format!("{} conclusive", r.conclusive),
    ]);
    measured.push((
        "compiler_differential_parallel",
        secs,
        format!("{} conclusive, {} shards", r.conclusive, r.shards),
    ));

    if json_mode() {
        let checks = Value::Arr(
            measured
                .iter()
                .map(|(name, secs, work)| {
                    Value::obj()
                        .field("check", Value::Str((*name).to_string()))
                        .field("seconds", Value::Float(*secs))
                        .field("work", Value::Str(work.clone()))
                })
                .collect(),
        );
        emit_json("verif_perf", Value::obj().field("checks", checks));
        return;
    }
    print!(
        "{}",
        render_table(
            "§7.2.2: verification performance (this machine)",
            &["check", "wall clock", "work"],
            &rows
        )
    );
    println!();
    println!("paper: ~80 min Coq build + ~2 h Kami refinement checking per CI run.");
    println!("The executable checks trade assurance for a ~3-orders-of-magnitude");
    println!("faster feedback loop — the accidental-complexity point of §7.3.");
}
