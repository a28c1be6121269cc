//! Processor refinement (§5.7): every pipelined run is a legal
//! single-cycle run, checked over random compiled programs and over the
//! lightbulb system itself.

use lightbulb_system::compiler::{compile, CompileOptions, MmioExtCompiler, NoExtCompiler};
use lightbulb_system::integration::debug_dev::DebugDevice;
use lightbulb_system::integration::progen::ProgGen;
use lightbulb_system::integration::{build_image, SystemConfig};
use lightbulb_system::processor::{check_refinement, PipelineConfig, Pipelined};
use lightbulb_system::riscv::NoMmio;

const RAM: u32 = 0x1_0000;

#[test]
fn random_compiled_programs_refine() {
    let mut checked = 0;
    for seed in 0..40u64 {
        let prog = ProgGen::new(seed).gen_program();
        let Ok(image) = compile(&prog, &MmioExtCompiler, &CompileOptions::default()) else {
            continue;
        };
        match check_refinement(
            &image.bytes(),
            RAM,
            DebugDevice::new(),
            DebugDevice::claims,
            PipelineConfig::default(),
            20_000_000,
        ) {
            Ok(report) => {
                assert!(report.impl_cycles >= report.spec_cycles);
                checked += 1;
            }
            Err(d) => panic!("seed {seed}: refinement violated: {d:?}\n{prog}"),
        }
    }
    assert!(checked >= 30, "only {checked}/40 programs checked");
}

#[test]
fn refinement_holds_without_a_btb_too() {
    for seed in 100..110u64 {
        let prog = ProgGen::new(seed).gen_program();
        let Ok(image) = compile(&prog, &MmioExtCompiler, &CompileOptions::default()) else {
            continue;
        };
        check_refinement(
            &image.bytes(),
            RAM,
            DebugDevice::new(),
            DebugDevice::claims,
            PipelineConfig {
                btb_bits: None,
                ..PipelineConfig::default()
            },
            20_000_000,
        )
        .unwrap_or_else(|d| panic!("seed {seed}: {d:?}"));
    }
}

#[test]
fn the_btb_pays_for_itself_on_nested_loops() {
    // Figure 4's predictor (§5.5): a branch-heavy workload of nested
    // counted loops finishes in fewer simulated cycles with the BTB than
    // without it. The exact counts are the ablation EXPERIMENTS.md quotes.
    use bedrock2::dsl::*;
    use bedrock2::{Function, Program};
    let main = Function::new(
        "main",
        &[],
        &["acc"],
        block([
            set("acc", lit(0)),
            set("i", lit(0)),
            while_(
                ltu(var("i"), lit(100)),
                block([
                    set("j", lit(0)),
                    while_(
                        ltu(var("j"), lit(20)),
                        block([
                            set("acc", add(var("acc"), var("j"))),
                            set("j", add(var("j"), lit(1))),
                        ]),
                    ),
                    set("i", add(var("i"), lit(1))),
                ]),
            ),
        ]),
    );
    let image = compile(
        &Program::from_functions([main]),
        &NoExtCompiler,
        &CompileOptions::default(),
    )
    .unwrap()
    .bytes();
    let cycles = |config| {
        let mut cpu = Pipelined::new(&image, RAM, NoMmio, config);
        cpu.run(10_000_000);
        assert!(cpu.halted, "workload must finish");
        cpu.cycle
    };
    let with = cycles(PipelineConfig::default());
    let without = cycles(PipelineConfig {
        btb_bits: None,
        ..PipelineConfig::default()
    });
    assert_eq!((with, without), (30241, 34336));
}

#[test]
fn the_lightbulb_system_itself_refines() {
    // The real workload: boot the full stack and check the (non-halting)
    // pipelined run against the spec core by replay.
    use lightbulb_system::devices::{Board, SpiConfig, TrafficGen};

    let image = build_image(&SystemConfig::default());
    let mut board = Board::new(SpiConfig::default());
    let mut gen = TrafficGen::new(8);
    board.inject_frame(&gen.command(true));

    let report = check_refinement(
        &image.bytes(),
        RAM,
        board,
        Board::claims,
        PipelineConfig::default(),
        2_000_000,
    )
    .expect("the shipping system must refine its spec core");
    assert!(report.events > 500, "boot plus one packet produce real I/O");
}
