//! The proof-shaped interface checks, as differential tests.
//!
//! Each function here corresponds to one proof in the paper's stack
//! (Figure 3), restated as "run both sides of the interface and compare
//! the observables":
//!
//! | paper proof                         | here                              |
//! |-------------------------------------|-----------------------------------|
//! | compiler correctness (§5.3)         | [`check_compiler_differential`]   |
//! | compiler phase 1 simulation         | `check_flattening_differential`   |
//! | optimizer soundness (our §7.2.1 baseline) | [`check_optimizer_differential`] |
//! | processor–ISA consistency (§5.8)    | [`check_isa_consistency`]         |
//! | pipelined ⊑ single-cycle (§5.7)     | re-exported `processor::refinement` |
//!
//! Source-level runs that hit undefined behavior or fuel exhaustion prove
//! nothing (the compiler promises nothing about them) and are reported as
//! [`DiffError::SourceUb`] so harnesses can discard them.

use crate::debug_dev::DebugDevice;
use crate::progen::ProgGen;
use crate::system::LightbulbRun;
use crate::system::{build_image, ProcessorKind, SystemConfig};
use bedrock2::ast::Program;
use bedrock2::semantics::Interp;
use bedrock2_compiler::{compile, CompileOptions, CompiledProgram, MmioExtCompiler};
use devices::{Board, FaultPlan, FrameFault, TrafficGen};
use lightbulb::{good_hl_trace, probe, MmioBridge};
use obs::Counters;
use processor::refinement::ReplayHandler;
use processor::{Divergence, SingleCycle};
use riscv_spec::{Memory, MmioEvent, SpecMachine, StepOutcome};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Fuel for source-level runs.
const SOURCE_FUEL: u64 = 4_000_000;
/// Instruction budget for machine-level runs.
const MACHINE_FUEL: u64 = 40_000_000;
/// RAM for machine-level runs.
const RAM: u32 = 0x1_0000;

/// A differential-check failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffError {
    /// The source run hit UB or ran out of fuel: the run is inconclusive
    /// (not a compiler bug).
    SourceUb(String),
    /// The program failed to compile.
    CompileError(String),
    /// The compiled program hit a machine error although the source ran
    /// clean — a compiler or machine bug.
    MachineError(String),
    /// The compiled program did not halt within the budget.
    MachineTimeout,
    /// The observable traces differ.
    TraceMismatch {
        /// First differing index.
        index: usize,
        /// Source-side event (if any).
        source: Option<MmioEvent>,
        /// Machine-side event (if any).
        machine: Option<MmioEvent>,
    },
    /// A run's MMIO trace fell outside the top-level trace specification —
    /// a driver-hardening bug, or a fault shape the spec does not classify.
    SpecViolation {
        /// Events matched before the trace left the specification.
        matched: usize,
        /// Total events in the trace.
        total: usize,
        /// Which machine model produced the trace.
        model: &'static str,
    },
    /// The run stayed inside the spec but the workload did not complete
    /// within the cycle budget: a liveness failure. Produced only when
    /// [`FaultSweepConfig::require_done`] is set.
    WorkloadIncomplete {
        /// Frames the board delivered before the budget ran out.
        delivered: u64,
        /// Frames the plan lets through (injected minus dropped).
        expected: u64,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::SourceUb(e) => write!(f, "source run inconclusive: {e}"),
            DiffError::CompileError(e) => write!(f, "compile error: {e}"),
            DiffError::MachineError(e) => write!(f, "machine error on clean source: {e}"),
            DiffError::MachineTimeout => write!(f, "compiled program did not halt"),
            DiffError::TraceMismatch {
                index,
                source,
                machine,
            } => write!(
                f,
                "trace mismatch at {index}: source {source:?} vs machine {machine:?}"
            ),
            DiffError::SpecViolation {
                matched,
                total,
                model,
            } => write!(
                f,
                "spec violation on the {model} model: trace leaves goodHlTrace \
                 after {matched} of {total} events"
            ),
            DiffError::WorkloadIncomplete {
                delivered,
                expected,
            } => write!(
                f,
                "workload incomplete: {delivered} of {expected} frames delivered \
                 within the cycle budget"
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// Runs `main` at the source level, returning its observation trace.
///
/// # Errors
///
/// [`DiffError::SourceUb`] when the run is inconclusive.
pub fn run_source(prog: &Program) -> Result<Vec<MmioEvent>, DiffError> {
    let mut interp = Interp::new(
        prog,
        Memory::with_size(RAM),
        MmioBridge::new(DebugDevice::new()),
    )
    .with_fuel(SOURCE_FUEL);
    interp
        .call("main", &[])
        .map_err(|e| DiffError::SourceUb(e.to_string()))?;
    Ok(interp.ext.events)
}

/// Compiles `main` and runs it on the ISA spec machine, returning the
/// observation trace.
///
/// # Errors
///
/// Compilation failures, machine errors, and timeouts.
pub fn run_compiled(prog: &Program, optimize: bool) -> Result<Vec<MmioEvent>, DiffError> {
    run_compiled_with(
        prog,
        CompileOptions {
            optimize,
            ..CompileOptions::default()
        },
    )
}

/// Like [`run_compiled`] with explicit options (used by the spill-all
/// ablation sweep).
///
/// # Errors
///
/// Compilation failures, machine errors, and timeouts.
pub fn run_compiled_with(
    prog: &Program,
    opts: CompileOptions,
) -> Result<Vec<MmioEvent>, DiffError> {
    let image = compile(prog, &MmioExtCompiler, &opts)
        .map_err(|e| DiffError::CompileError(e.to_string()))?;
    let mut m = SpecMachine::new(Memory::with_size(RAM), DebugDevice::new());
    m.load_program(0, &image.words());
    match m.run_until_ebreak(MACHINE_FUEL) {
        Ok(StepOutcome::Halted { .. }) => Ok(m.trace),
        Ok(StepOutcome::OutOfFuel) => Err(DiffError::MachineTimeout),
        Err(e) => Err(DiffError::MachineError(e.to_string())),
    }
}

fn compare(a: &[MmioEvent], b: &[MmioEvent]) -> Result<(), DiffError> {
    let n = a.len().max(b.len());
    for i in 0..n {
        if a.get(i) != b.get(i) {
            return Err(DiffError::TraceMismatch {
                index: i,
                source: a.get(i).copied(),
                machine: b.get(i).copied(),
            });
        }
    }
    Ok(())
}

/// Compiler correctness on one program: the compiled code's I/O trace on
/// the ISA spec machine equals the interpreter's.
///
/// # Errors
///
/// [`DiffError::SourceUb`] for inconclusive runs; any other variant is a
/// genuine bug.
pub fn check_compiler_differential(prog: &Program, optimize: bool) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let machine = run_compiled(prog, optimize)?;
    compare(&source, &machine)
}

/// Compiler correctness with the spill-everything ablation: the degenerate
/// no-register allocation must still be correct (it exercises every spill
/// path of the code generator).
///
/// # Errors
///
/// Like [`check_compiler_differential`].
pub fn check_spill_all_differential(prog: &Program) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let machine = run_compiled_with(
        prog,
        CompileOptions {
            spill_everything: true,
            ..CompileOptions::default()
        },
    )?;
    compare(&source, &machine)
}

/// Phase-1 (flattening) correctness on one program.
///
/// # Errors
///
/// Like [`check_compiler_differential`], at the FlatImp level.
pub fn check_flattening_differential(prog: &Program) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let flat = bedrock2_compiler::flatten::flatten_program(prog);
    let mut fi = bedrock2_compiler::flatimp::FlatInterp::new(
        &flat,
        Memory::with_size(RAM),
        MmioBridge::new(DebugDevice::new()),
    );
    fi.call("main", &[])
        .map_err(|e| DiffError::MachineError(format!("{e:?}")))?;
    let flat_events: Vec<MmioEvent> = fi
        .trace
        .iter()
        .map(|io| match io.action.as_str() {
            "MMIOREAD" => MmioEvent::load(io.args[0], io.rets[0]),
            "MMIOWRITE" => MmioEvent::store(io.args[0], io.args[1]),
            other => panic!("unexpected action {other}"),
        })
        .collect();
    compare(&source, &flat_events)
}

/// Optimizer soundness on one program: optimized and unoptimized binaries
/// produce the same trace.
///
/// # Errors
///
/// Like [`check_compiler_differential`].
pub fn check_optimizer_differential(prog: &Program) -> Result<(), DiffError> {
    let source = run_source(prog)?;
    let optimized = run_compiled(prog, true)?;
    compare(&source, &optimized)
}

/// ISA consistency (§5.8) on one program: the single-cycle Kami spec core
/// agrees with the riscv-spec machine on every observable, provided the
/// software contract holds (which the spec-machine run itself checks).
///
/// # Errors
///
/// [`DiffError::SourceUb`] when even the spec machine flags the program;
/// mismatches otherwise.
pub fn check_isa_consistency(prog: &Program, optimize: bool) -> Result<(), DiffError> {
    let opts = CompileOptions {
        optimize,
        ..CompileOptions::default()
    };
    let image = compile(prog, &MmioExtCompiler, &opts)
        .map_err(|e| DiffError::CompileError(e.to_string()))?;

    let mut m = SpecMachine::new(Memory::with_size(RAM), DebugDevice::new());
    m.load_program(0, &image.words());
    match m.run_until_ebreak(MACHINE_FUEL) {
        Ok(StepOutcome::Halted { .. }) => {}
        // Fuel exhaustion and UB are both outside the consistency
        // statement (§5.8): the run proves nothing about the cores.
        Ok(StepOutcome::OutOfFuel) => {
            return Err(DiffError::SourceUb("machine fuel exhausted".to_string()))
        }
        Err(e) => return Err(DiffError::SourceUb(e.to_string())),
    }

    let mut core = processor::SingleCycle::new(&image.bytes(), RAM, DebugDevice::new());
    core.run(MACHINE_FUEL);
    if !core.halted {
        return Err(DiffError::MachineTimeout);
    }
    compare(&m.trace, &core.mem.events())?;

    // Architectural state must agree too.
    for r in 1..32u8 {
        let (a, b) = (m.regs[r as usize], core.rf.read(r));
        if a != b {
            return Err(DiffError::TraceMismatch {
                index: usize::MAX,
                source: Some(MmioEvent::load(r as u32, a)),
                machine: Some(MmioEvent::load(r as u32, b)),
            });
        }
    }
    Ok(())
}

/// The outcome of a sharded seed sweep ([`parallel_sweep`],
/// [`resilient_sweep`]).
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Seeds swept.
    pub total: u64,
    /// Runs where both sides completed and agreed.
    pub conclusive: u64,
    /// Runs discarded as [`DiffError::SourceUb`] (outside every theorem).
    pub inconclusive: u64,
    /// Genuine disagreements, in ascending-seed order.
    pub failures: Vec<(u64, DiffError)>,
    /// Seeds whose check panicked (caught per seed; the sweep completed
    /// without them), in ascending-seed order.
    pub panicked: Vec<(u64, String)>,
    /// `core.diff.*` counters, merged from the per-shard registries in
    /// shard order (summed counters make the merge order-insensitive, so
    /// reports are identical across shard counts).
    pub counters: Counters,
    /// Shards the sweep actually used.
    pub shards: usize,
    /// First seed of the sweep.
    pub start: u64,
    /// Seeds per shard (the last shard may run fewer).
    pub chunk: u64,
    /// Shrunken counterexamples for failing seeds (filled by
    /// [`fault_sweep_with`]).
    pub triage: Vec<crate::triage::TriageSummary>,
}

impl SweepReport {
    /// Which shard a seed ran in: seeds are split into contiguous chunks,
    /// shard 0 first.
    pub fn shard_of(&self, seed: u64) -> usize {
        seed.saturating_sub(self.start)
            .checked_div(self.chunk)
            .unwrap_or(0) as usize
    }

    /// True when nothing failed and nothing panicked.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.panicked.is_empty()
    }

    /// Panics with the first failing seed — and the shard it ran in — if
    /// any: the sweep analogue of `Result::unwrap` for test harnesses.
    /// The message carries everything a reproduction needs: the one-liner
    /// seed-range repro and the triage summaries (minimal plan size +
    /// divergence site) when shrinking ran. Panicked seeds fail too — a
    /// sweep that did not classify every seed proves nothing.
    pub fn expect_clean(&self, name: &str) {
        if self.is_clean() {
            return;
        }
        let mut msg = String::new();
        if let Some((seed, e)) = self.failures.first() {
            let _ = write!(
                msg,
                "{name}: {} of {} seeds failed; first is seed {seed} in shard {}/{} \
                 (reproduce: rerun the check on seed range {seed}..{} with 1 shard): {e}",
                self.failures.len(),
                self.total,
                self.shard_of(*seed),
                self.shards,
                seed + 1,
            );
            if !self.panicked.is_empty() {
                let _ = write!(msg, "; plus {} panicked seed(s)", self.panicked.len());
            }
        } else if let Some((seed, payload)) = self.panicked.first() {
            let _ = write!(
                msg,
                "{name}: {} of {} seeds panicked; first is seed {seed} in shard {}/{}: {payload}",
                self.panicked.len(),
                self.total,
                self.shard_of(*seed),
                self.shards,
            );
        }
        for t in &self.triage {
            let _ = write!(
                msg,
                "\n  triage: seed {} shrank {} -> {} fault atoms; {}",
                t.seed, t.original_atoms, t.minimal_atoms, t.divergence
            );
        }
        panic!("{msg}");
    }
}

/// Shard count matching the host: one per available hardware thread.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweeps `seeds` through `check` on programs from the default
/// [`ProgGen`], sharded across `shards` OS threads.
///
/// Results are deterministic regardless of `shards`: seeds are split into
/// contiguous chunks, each shard reports into its own [`Counters`], and
/// shard results are merged in shard (= ascending seed) order.
pub fn parallel_sweep<C>(seeds: Range<u64>, shards: usize, check: C) -> SweepReport
where
    C: Fn(&Program) -> Result<(), DiffError> + Sync,
{
    parallel_sweep_with(
        seeds,
        shards,
        |seed| ProgGen::new(seed).gen_program(),
        check,
    )
}

/// [`parallel_sweep`] with a custom seed-to-program generator (e.g. a
/// [`ProgGen`] with a non-default `GenConfig`).
pub fn parallel_sweep_with<G, C>(
    seeds: Range<u64>,
    shards: usize,
    generate: G,
    check: C,
) -> SweepReport
where
    G: Fn(u64) -> Program + Sync,
    C: Fn(&Program) -> Result<(), DiffError> + Sync,
{
    resilient_sweep(seeds, shards, |seed, _| check(&generate(seed)))
}

/// Extracts a printable message from a caught panic payload.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The sharding engine behind every sweep: runs `check` once per seed,
/// split into contiguous chunks across OS threads. Each seed runs under
/// `catch_unwind`, so a panicking seed is recorded in
/// [`SweepReport::panicked`] and the rest of the sweep continues;
/// [`DiffError::SourceUb`] counts as inconclusive and every other error as
/// a failure.
///
/// `check` may record per-seed telemetry into the shard's [`Counters`];
/// summed counters merge order-insensitively, so reports stay identical
/// across shard counts.
pub fn resilient_sweep<C>(seeds: Range<u64>, shards: usize, check: C) -> SweepReport
where
    C: Fn(u64, &mut Counters) -> Result<(), DiffError> + Sync,
{
    let start = seeds.start;
    let all: Vec<u64> = seeds.collect();
    let shards = shards.clamp(1, all.len().max(1));
    let chunk = all.len().div_ceil(shards);

    let run_shard = |seeds: &[u64]| -> SweepReport {
        let mut part = SweepReport::default();
        for &seed in seeds {
            // The closure touches the shard's counters across the unwind
            // boundary; a panicking seed may leave partial telemetry
            // behind, which stays deterministic because the same partial
            // work happens at every shard count.
            match catch_unwind(AssertUnwindSafe(|| check(seed, &mut part.counters))) {
                Ok(Ok(())) => part.conclusive += 1,
                Ok(Err(DiffError::SourceUb(_))) => part.inconclusive += 1,
                Ok(Err(error)) => part.failures.push((seed, error)),
                Err(payload) => {
                    part.counters.add("core.diff.panicked", 1);
                    part.panicked.push((seed, panic_payload(payload)));
                }
            }
        }
        part.counters.set("core.diff.seeds", seeds.len() as u64);
        part.counters.set("core.diff.conclusive", part.conclusive);
        part.counters
            .set("core.diff.inconclusive", part.inconclusive);
        part.counters
            .set("core.diff.failures", part.failures.len() as u64);
        part
    };

    let parts: Vec<SweepReport> = if shards == 1 {
        vec![run_shard(&all)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = all
                .chunks(chunk)
                .map(|c| s.spawn(move || run_shard(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // The per-seed check is unwind-guarded, so a shard
                    // thread can only die if the engine's own bookkeeping
                    // panicked — that is a bug worth aborting on, with a
                    // message saying whose fault it is.
                    h.join()
                        .expect("sweep shard thread died outside the guarded check (engine bug)")
                })
                .collect()
        })
    };

    let mut report = SweepReport {
        total: all.len() as u64,
        shards: parts.len(),
        start,
        chunk: chunk as u64,
        ..SweepReport::default()
    };
    for part in parts {
        report.conclusive += part.conclusive;
        report.inconclusive += part.inconclusive;
        report.failures.extend(part.failures);
        report.panicked.extend(part.panicked);
        report.counters.merge(&part.counters);
    }
    report
        .counters
        .set("core.diff.shards", report.shards as u64);
    report
}

/// Configuration for [`fault_sweep`]: the system under test and the
/// per-seed workload.
#[derive(Clone, Debug)]
pub struct FaultSweepConfig {
    /// Base system configuration — driver options, SPI wire speed,
    /// pipeline shape. The sweep runs it on both the pipelined core and
    /// the ISA spec machine regardless of its `processor` field.
    pub system: SystemConfig,
    /// Command frames injected per run (alternating on/off), each subject
    /// to the plan's frame faults.
    pub frames: usize,
    /// First-pass cycle budget. Most plans finish their whole workload
    /// well within it; spec-checking cost is linear in trace length, so
    /// keeping easy runs short is what makes thousand-seed sweeps cheap.
    pub quick_cycles: u64,
    /// Full cycle budget, used only when the quick pass did not consume
    /// the workload (hard register faults and long stalls). Sized so a
    /// plan's worst case — two failed bring-up attempts plus an RX stall
    /// and re-initialization — still reaches steady state.
    pub max_cycles: u64,
    /// Additionally require the workload to *finish* (every non-dropped
    /// frame delivered, pending queue drained) within the full budget,
    /// reporting [`DiffError::WorkloadIncomplete`] otherwise. Off by
    /// default: the base sweep checks safety (spec satisfaction and
    /// refinement), and recoverable plans are calibrated for that. With
    /// it set, each check is also a liveness check: the triage demo uses
    /// it to plant a deliberate failure, and `fault_sweep --replay-plan`
    /// sets it to reproduce a `workload_incomplete` triage artifact.
    pub require_done: bool,
}

impl Default for FaultSweepConfig {
    fn default() -> FaultSweepConfig {
        FaultSweepConfig {
            system: SystemConfig::default(),
            frames: 3,
            quick_cycles: 250_000,
            max_cycles: 800_000,
            require_done: false,
        }
    }
}

/// Checks one seeded fault plan end to end (one [`fault_sweep`] unit):
///
/// 1. the **pipelined processor** runs the image against a board faulted
///    by `FaultPlan::from_seed(seed)`; its trace must stay a prefix of
///    `goodHlTrace` (the hardened drivers must classify every injected
///    fault as a recoverable-failure shape);
/// 2. the **ISA spec machine** runs against a fresh, identically faulted
///    board; the run must be UB-free and its trace must also satisfy the
///    spec (faults are interaction-keyed, so the same plan is meaningful
///    on both models even though their tick rates differ);
/// 3. the pipelined trace is **replayed** into the single-cycle spec core
///    ([`ReplayHandler`]): under the same input nondeterminism the spec
///    core must produce the identical trace, so the faulted run still
///    refines the ISA.
///
/// Driver-recovery telemetry (`devices.faults.injected`, `driver.retries`,
/// `driver.reinit`) is added to `counters`. Reproduce a sweep failure with
/// `fault_check(seed, &cfg, &build_image(&cfg.system), &mut Counters::new())`.
///
/// # Errors
///
/// [`DiffError::SpecViolation`] when a trace leaves the specification,
/// [`DiffError::MachineError`] when the spec machine flags UB, and
/// [`DiffError::TraceMismatch`] when the replay diverges.
pub fn fault_check(
    seed: u64,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    fault_check_plan(&FaultPlan::from_seed(seed), cfg, image, counters)
}

/// [`fault_check`] on an explicit plan instead of a seeded one: the unit
/// the triage minimizer probes with candidate sub-plans, and what
/// `fault_sweep --replay-plan` runs on a minimized artifact. The traffic
/// workload is still derived from `plan.seed`, so a sub-plan faces the
/// same frames its parent did.
///
/// # Errors
///
/// Like [`fault_check`], plus [`DiffError::WorkloadIncomplete`] when
/// [`FaultSweepConfig::require_done`] is set and the workload stalls.
pub fn fault_check_plan(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    counters: &mut Counters,
) -> Result<(), DiffError> {
    let seed = plan.seed;
    let mut gen = TrafficGen::new(seed);
    let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
    let spec = good_hl_trace(cfg.system.driver);

    // Frames the plan drops never reach the chip; everything else must be
    // consumed (status popped, pending queue empty) for a run to count as
    // "workload done".
    let expected_arrivals = cfg.frames as u64
        - plan
            .frame_faults
            .iter()
            .filter(|(i, f)| (*i as usize) < cfg.frames && matches!(f, FrameFault::Drop))
            .count() as u64;
    let done = |run: &LightbulbRun| {
        run.report.counters.get("board.lan9250.frames_delivered") >= expected_arrivals
            && run.report.counters.get("board.lan9250.frames_pending") == 0
    };
    // Adaptive budget: a quick pass suffices for most plans; rerun from
    // scratch with the full budget when faults kept the workload from
    // finishing. Both passes are pure functions of the seed, so results
    // stay deterministic across runs and shard counts.
    let run_on = |kind: ProcessorKind| {
        let mut sys = cfg.system;
        sys.processor = kind;
        let quick = sys.run_faulted(image, plan, &frames, cfg.quick_cycles);
        if done(&quick) || cfg.max_cycles <= cfg.quick_cycles {
            quick
        } else {
            sys.run_faulted(image, plan, &frames, cfg.max_cycles)
        }
    };

    let pipe = run_on(ProcessorKind::Pipelined);
    let activity = probe::scan(&pipe.events);
    counters.add(
        "devices.faults.injected",
        pipe.report.counters.get("devices.faults.injected"),
    );
    counters.add("driver.retries", activity.retries);
    counters.add("driver.reinit", activity.reinits);
    if !spec.matches_prefix(&pipe.events) {
        return Err(DiffError::SpecViolation {
            matched: spec.longest_matching_prefix(&pipe.events),
            total: pipe.events.len(),
            model: "pipelined",
        });
    }

    let sm = run_on(ProcessorKind::SpecMachine);
    if let Some(e) = sm.error {
        return Err(DiffError::MachineError(format!(
            "spec machine under fault plan {seed}: {e}"
        )));
    }
    if !spec.matches_prefix(&sm.events) {
        return Err(DiffError::SpecViolation {
            matched: spec.longest_matching_prefix(&sm.events),
            total: sm.events.len(),
            model: "spec machine",
        });
    }

    if cfg.require_done && (!done(&pipe) || !done(&sm)) {
        let delivered = pipe
            .report
            .counters
            .get("board.lan9250.frames_delivered")
            .min(sm.report.counters.get("board.lan9250.frames_delivered"));
        return Err(DiffError::WorkloadIncomplete {
            delivered,
            expected: expected_arrivals,
        });
    }

    replay_into_spec_core(image, cfg.system.ram_bytes, &pipe.events, cfg.max_cycles)
}

/// Replays a recorded MMIO trace into the single-cycle spec core and
/// requires it to reproduce the trace exactly (the §5.7 refinement
/// statement, applied to a faulted run whose trace we already hold).
fn replay_into_spec_core(
    image: &CompiledProgram,
    ram_bytes: u32,
    events: &[MmioEvent],
    max_cycles: u64,
) -> Result<(), DiffError> {
    let replay = ReplayHandler::new(events.to_vec(), Board::claims);
    let mut core = SingleCycle::new(&image.bytes(), ram_bytes, replay);
    // The event loop never halts: run until the core has consumed every
    // recorded event (running further would overrun the replay queue,
    // which is not a divergence) or diverges. One instruction consumes at
    // most one event, so an event-bounded block cannot overrun, and
    // divergence is sticky inside `ReplayHandler`.
    while !core.halted && core.cycle < max_cycles {
        let remaining = events.len() - core.mem.mmio.consumed();
        if remaining == 0 {
            break;
        }
        let block = (max_cycles - core.cycle).min(1024).min(remaining as u64);
        core.run_block(block);
        if core.mem.mmio.divergence().is_some() {
            break;
        }
    }
    if let Some(d) = core.mem.mmio.divergence() {
        return match d {
            Divergence::TraceMismatch {
                index,
                implementation,
                spec,
            } => Err(DiffError::TraceMismatch {
                index: *index,
                source: *implementation,
                machine: Some(*spec),
            }),
            other => Err(DiffError::MachineError(format!(
                "replay divergence: {other:?}"
            ))),
        };
    }
    let replayed = core.mem.events();
    let n = replayed.len().min(events.len());
    if let Some(i) = (0..n).find(|&i| replayed[i] != events[i]) {
        return Err(DiffError::TraceMismatch {
            index: i,
            source: Some(events[i]),
            machine: Some(replayed[i]),
        });
    }
    Ok(())
}

/// Failing seeds [`fault_sweep_with`] shrinks after the sweep.
const TRIAGED_FAILURES: usize = 3;

/// Sweeps seeded fault plans through [`fault_check`], sharded like
/// [`parallel_sweep`]. The boot image is compiled once and shared across
/// shards; each seed builds its own trace predicate (they are `Rc`-based
/// and stay thread-local). The report's counters carry the sweep's
/// aggregate fault/recovery telemetry. This is [`fault_sweep_with`]
/// without artifact files: the first few failures are still triaged into
/// [`SweepReport::triage`].
pub fn fault_sweep(seeds: Range<u64>, shards: usize, cfg: &FaultSweepConfig) -> SweepReport {
    fault_sweep_with(seeds, shards, cfg, None)
}

/// [`fault_sweep`], panic-isolated and self-triaging. After the sweep, the
/// first few failing seeds are shrunk to locally-minimal fault plans with
/// named divergence sites. Triage probes run at `cfg` itself, the budget
/// the seed failed at, so an artifact from a default-config sweep
/// reproduces under `fault_sweep --replay-plan`. Summaries land in
/// [`SweepReport::triage`] (and in [`SweepReport::expect_clean`]'s panic
/// message), full `TRIAGE_fault_sweep_seed<N>.json` reports in
/// `triage_dir` when set.
pub fn fault_sweep_with(
    seeds: Range<u64>,
    shards: usize,
    cfg: &FaultSweepConfig,
    triage_dir: Option<&Path>,
) -> SweepReport {
    let image = build_image(&cfg.system);
    let mut report = resilient_sweep(seeds, shards, |seed, counters| {
        fault_check(seed, cfg, &image, counters)
    });

    for (seed, _) in report.failures.iter().take(TRIAGED_FAILURES) {
        let Some(tr) = crate::triage::triage_seed(*seed, cfg, &image) else {
            continue;
        };
        let artifact = triage_dir.and_then(|dir| {
            let path = dir.join(format!("TRIAGE_fault_sweep_seed{seed}.json"));
            match tr.write_atomic(&path) {
                Ok(()) => Some(path.display().to_string()),
                Err(e) => {
                    eprintln!("warning: could not write {}: {e}", path.display());
                    None
                }
            }
        });
        report.triage.push(tr.summary(artifact));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed sweep shared by the in-crate smoke tests; the heavyweight
    /// sweeps live in `tests/` and the bench harness.
    fn sweep(
        check: impl Fn(&Program) -> Result<(), DiffError> + Sync,
        seeds: std::ops::Range<u64>,
    ) {
        let r = parallel_sweep(seeds, default_shards(), check);
        r.expect_clean("smoke sweep");
        assert!(
            r.conclusive * 2 >= r.total,
            "too few conclusive runs: {}/{}",
            r.conclusive,
            r.total
        );
    }

    #[test]
    fn compiler_differential_smoke() {
        sweep(|p| check_compiler_differential(p, false), 0..15);
    }

    #[test]
    fn optimizer_differential_smoke() {
        sweep(check_optimizer_differential, 100..115);
    }

    #[test]
    fn flattening_differential_smoke() {
        sweep(check_flattening_differential, 200..215);
    }

    #[test]
    fn isa_consistency_smoke() {
        sweep(|p| check_isa_consistency(p, false), 300..315);
    }

    #[test]
    fn sweep_reports_are_shard_count_invariant() {
        let serial = parallel_sweep(0..12, 1, |p| check_compiler_differential(p, false));
        let sharded = parallel_sweep(0..12, 4, |p| check_compiler_differential(p, false));
        assert_eq!(serial.total, sharded.total);
        assert_eq!(serial.conclusive, sharded.conclusive);
        assert_eq!(serial.inconclusive, sharded.inconclusive);
        let strip = |c: &Counters| {
            c.iter()
                .filter(|(k, _)| *k != "core.diff.shards")
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&serial.counters), strip(&sharded.counters));
        assert_eq!(sharded.shards, 4);
    }

    #[test]
    fn a_planted_compiler_bug_is_caught() {
        // "Compile" a different program than we interpret: the traces must
        // differ, proving the harness has teeth.
        use bedrock2::dsl::*;
        use bedrock2::Function;
        let honest = Program::from_functions([Function::new(
            "main",
            &[],
            &[],
            interact(
                &[],
                "MMIOWRITE",
                [lit(crate::debug_dev::DEBUG_BASE), lit(1)],
            ),
        )]);
        let crooked = Program::from_functions([Function::new(
            "main",
            &[],
            &[],
            interact(
                &[],
                "MMIOWRITE",
                [lit(crate::debug_dev::DEBUG_BASE), lit(2)],
            ),
        )]);
        let source = run_source(&honest).unwrap();
        let machine = run_compiled(&crooked, false).unwrap();
        assert!(compare(&source, &machine).is_err());
    }
}
