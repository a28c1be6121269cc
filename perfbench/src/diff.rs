//! The `diff_programs` workload: three of the paper's inter-layer theorems,
//! checked on random Bedrock2 programs.

use crate::tracer::Tracer;
use crate::{unit_seed, Counts, Inputs, Outcome, Verdict, Workload};
use bedrock2::ast::Program;
use bedrock2_compiler::{compile, CompileOptions, CompiledProgram, MmioExtCompiler};
use integration::debug_dev::DebugDevice;
use integration::differential::run_source;
use integration::progen::ProgGen;
use integration::{check_compiler_differential, check_isa_consistency, DiffError};
use processor::{check_refinement, PipelineConfig, SingleCycle};
use riscv_spec::{Memory, MmioEvent, SpecMachine, StepOutcome};

/// Programs per check. One program takes about 3 ms, and the slowest few
/// programs of a run take 3 to 5 times that; a check of 16 programs keeps
/// `verdict_ms_tail` from resting on the few slowest programs a seed
/// happens to draw.
const BATCH: usize = 16;
/// Checks whose counts are reported (1024 programs); set-up generates
/// them. Checking them takes about 3 s untraced on a 2-CPU Xeon VM.
const COUNTED: usize = 64;
/// RAM, instruction fuel and refinement budget, as `integration`'s
/// differential checks and the refinement tests use them.
const RAM: u32 = 0x1_0000;
const MACHINE_FUEL: u64 = 40_000_000;
const REFINEMENT_CYCLES: u64 = 20_000_000;

pub struct DiffPrograms {
    batches: Inputs<Vec<Program>>,
}

impl DiffPrograms {
    pub fn setup(seed: u64) -> DiffPrograms {
        DiffPrograms {
            batches: Inputs::new(seed, COUNTED, |s| {
                (0..BATCH)
                    .map(|j| ProgGen::new(unit_seed(s, j)).gen_program())
                    .collect()
            }),
        }
    }
}

/// One program's verdict: compiler correctness without and with
/// `optimize`, ISA consistency, then refinement of the pipelined core
/// against the single-cycle core, all agreeing. A source run with
/// undefined behaviour proves nothing, so the program's checks stop there
/// as inconclusive.
fn verdict(results: &[Result<(), DiffError>]) -> Verdict {
    match results.iter().find_map(|r| r.as_ref().err()) {
        None => Verdict::Correct,
        Some(DiffError::SourceUb(_)) => Verdict::Inconclusive,
        Some(e) => Verdict::Wrong(e.to_string()),
    }
}

/// A check's verdict: wrong if any program's is, inconclusive if every
/// program's is.
fn outcome(batch: Vec<Vec<Result<(), DiffError>>>, mut counts: Counts) -> Outcome {
    let verdicts: Vec<Verdict> = batch.iter().map(|r| verdict(r)).collect();
    let conclusive = verdicts
        .iter()
        .filter(|v| !matches!(v, Verdict::Inconclusive))
        .count();
    counts.insert("core.diff.programs", batch.len() as u64);
    counts.insert("core.diff.conclusive", conclusive as u64);
    let verdict = verdicts
        .into_iter()
        .find(|v| matches!(v, Verdict::Wrong(_)))
        .unwrap_or(if conclusive == 0 {
            Verdict::Inconclusive
        } else {
            Verdict::Correct
        });
    Outcome {
        verdict,
        key: format!("{batch:?}"),
        counts,
    }
}

/// Runs `steps` in order until one reports undefined behaviour.
fn until_ub(steps: [&mut dyn FnMut() -> Result<(), DiffError>; 4]) -> Vec<Result<(), DiffError>> {
    let mut out = Vec::with_capacity(steps.len());
    for step in steps {
        let r = step();
        let ub = matches!(r, Err(DiffError::SourceUb(_)));
        out.push(r);
        if ub {
            break;
        }
    }
    out
}

fn refinement_error(d: processor::Divergence) -> DiffError {
    DiffError::MachineError(format!("refinement: {d:?}"))
}

impl Workload for DiffPrograms {
    fn counted_units(&self) -> usize {
        self.batches.counted()
    }

    fn prepare(&mut self, i: usize) {
        self.batches.prepare(i);
    }

    fn check(&self, i: usize) -> Outcome {
        let batch = self.batches.get(i).iter().map(check_program).collect();
        outcome(batch, Counts::new())
    }

    fn check_traced(&self, i: usize, tr: &Tracer) -> Outcome {
        let counts = std::cell::RefCell::new(Counts::new());
        let batch = self
            .batches
            .get(i)
            .iter()
            .map(|prog| check_program_traced(prog, tr, &counts))
            .collect();
        outcome(batch, counts.into_inner())
    }
}

/// One program through the public entry points.
fn check_program(prog: &Program) -> Vec<Result<(), DiffError>> {
    until_ub([
        &mut || check_compiler_differential(prog, false),
        &mut || check_compiler_differential(prog, true),
        &mut || check_isa_consistency(prog, false),
        &mut || {
            let image = compile(prog, &MmioExtCompiler, &CompileOptions::default())
                .map_err(|e| DiffError::CompileError(e.to_string()))?;
            check_refinement(
                &image.bytes(),
                RAM,
                DebugDevice::new(),
                DebugDevice::claims,
                PipelineConfig::default(),
                REFINEMENT_CYCLES,
            )
            .map(drop)
            .map_err(refinement_error)
        },
    ])
}

/// One program through the calls the entry points make, each inside a
/// span.
fn check_program_traced(
    prog: &Program,
    tr: &Tracer,
    counts: &std::cell::RefCell<Counts>,
) -> Vec<Result<(), DiffError>> {
    let add = |key: &'static str, n: u64| *counts.borrow_mut().entry(key).or_default() += n;
    let compile_t = |optimize: bool| {
        let opts = CompileOptions {
            optimize,
            ..CompileOptions::default()
        };
        let image = tr
            .span("compiler", || compile(prog, &MmioExtCompiler, &opts))
            .map_err(|e| DiffError::CompileError(e.to_string()))?;
        add("compiler.calls", 1);
        add("compiler.image_bytes", u64::from(image.image_size()));
        Ok::<CompiledProgram, DiffError>(image)
    };
    let spec_run = |image: &CompiledProgram| {
        let (m, outcome) = tr.span("riscv.spec", || {
            let mut m = SpecMachine::new(Memory::with_size(RAM), DebugDevice::new());
            m.load_program(0, &image.words());
            let outcome = m.run_until_ebreak(MACHINE_FUEL);
            (m, outcome)
        });
        add("riscv.spec.steps", m.instret);
        add("riscv.spec.icache_hit", m.stats.icache_hits);
        add("riscv.spec.icache_miss", m.stats.icache_misses);
        (m, outcome)
    };
    // `check_compiler_differential`: the interpreter against the
    // compiled code on the ISA spec machine.
    let compiler_differential = |optimize: bool| {
        let source = tr.span("bedrock2.interp", || run_source(prog))?;
        let image = compile_t(optimize)?;
        let machine = match spec_run(&image) {
            (m, Ok(StepOutcome::Halted { .. })) => m.trace,
            (_, Ok(StepOutcome::OutOfFuel)) => return Err(DiffError::MachineTimeout),
            (_, Err(e)) => return Err(DiffError::MachineError(e.to_string())),
        };
        compare(&source, &machine)
    };
    // `check_isa_consistency`: the spec machine against the
    // single-cycle core, on traces and registers.
    let isa_consistency = || {
        let image = compile_t(false)?;
        let m = match spec_run(&image) {
            (m, Ok(StepOutcome::Halted { .. })) => m,
            (_, Ok(StepOutcome::OutOfFuel)) => {
                return Err(DiffError::SourceUb("machine fuel exhausted".to_string()))
            }
            (_, Err(e)) => return Err(DiffError::SourceUb(e.to_string())),
        };
        let core = tr.span("processor.single_cycle", || {
            let mut core = SingleCycle::new(&image.bytes(), RAM, DebugDevice::new());
            core.run(MACHINE_FUEL);
            core
        });
        add("processor.single_cycle.cycles", core.cycle);
        if !core.halted {
            return Err(DiffError::MachineTimeout);
        }
        compare(&m.trace, &core.mem.events())?;
        match (1..32u8).find(|&r| m.regs[r as usize] != core.rf.read(r)) {
            Some(r) => Err(DiffError::TraceMismatch {
                index: usize::MAX,
                source: Some(MmioEvent::load(u32::from(r), m.regs[r as usize])),
                machine: Some(MmioEvent::load(u32::from(r), core.rf.read(r))),
            }),
            None => Ok(()),
        }
    };
    let refinement = || {
        let image = compile_t(false)?;
        tr.span("processor.refinement", || {
            check_refinement(
                &image.bytes(),
                RAM,
                DebugDevice::new(),
                DebugDevice::claims,
                PipelineConfig::default(),
                REFINEMENT_CYCLES,
            )
        })
        .map(drop)
        .map_err(refinement_error)
    };
    until_ub([
        &mut || compiler_differential(false),
        &mut || compiler_differential(true),
        &mut || isa_consistency(),
        &mut || refinement(),
    ])
}

/// The first index where two observation traces differ, as the
/// differential checks report it.
fn compare(a: &[MmioEvent], b: &[MmioEvent]) -> Result<(), DiffError> {
    match (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        Some(index) => Err(DiffError::TraceMismatch {
            index,
            source: a.get(index).copied(),
            machine: b.get(index).copied(),
        }),
        None => Ok(()),
    }
}
