//! The `fault_sweep` and `triage` workloads, and the traced composition of
//! one fault check that both share.

use crate::tracer::Tracer;
use crate::{Counts, Inputs, Outcome, Verdict, Workload};
use bedrock2_compiler::CompiledProgram;
use devices::{Board, FaultAtom, FaultPlan, FrameFault, TrafficGen};
use integration::system::LightbulbRun;
use integration::{
    build_image, fault_check, fault_check_plan, shrink_plan, triage_plan, DiffError,
    FaultSweepConfig, ProcessorKind,
};
use lightbulb::{good_hl_trace, probe};
use obs::Counters;
use processor::refinement::ReplayHandler;
use processor::{Divergence, SingleCycle};
use riscv_spec::MmioEvent;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Plans whose counts are reported: about 4 s untraced on a 2-CPU Xeon VM.
const SWEEP_COUNTED: usize = 16;
/// Triage plans whose counts are reported.
const TRIAGE_COUNTED: usize = 4;
/// Noise atoms buried around the planted atom of each triage plan.
const TRIAGE_NOISE: usize = 3;
/// The planted liveness-killing atom: `BYTE_TEST` junk far past the
/// driver's bring-up budget, so no frame is ever delivered.
const PLANTED: FaultAtom = FaultAtom::ByteTestJunk(10_000);
/// Cycle budget of every triage probe (quick pass = full pass, so no
/// rerun). Every probe runs to its budget, so this sets the probe cost.
/// Noise-only sub-plans must finish their three frames within it: all
/// 800 from seeds 1000..1800 do, while at 150 000 one of them did not.
const TRIAGE_CYCLES: u64 = 200_000;

/// `fault_sweep`: one check is `fault_check` on one seeded plan.
pub struct FaultSweep {
    cfg: FaultSweepConfig,
    image: CompiledProgram,
    seeds: Inputs<u64>,
}

impl FaultSweep {
    pub fn setup(seed: u64) -> FaultSweep {
        let cfg = FaultSweepConfig::default();
        FaultSweep {
            image: build_image(&cfg.system),
            cfg,
            seeds: Inputs::new(seed, SWEEP_COUNTED, |s| s),
        }
    }
}

impl Workload for FaultSweep {
    fn counted_units(&self) -> usize {
        self.seeds.counted()
    }

    fn prepare(&mut self, i: usize) {
        self.seeds.prepare(i);
    }

    fn check(&self, i: usize) -> Outcome {
        let mut counters = Counters::new();
        let result = fault_check(*self.seeds.get(i), &self.cfg, &self.image, &mut counters);
        let mut counts = image_counts(&self.image);
        counts.insert(
            "devices.faults_injected",
            counters.get("devices.faults.injected"),
        );
        clean_outcome(result, counts)
    }

    fn check_traced(&self, i: usize, tr: &Tracer) -> Outcome {
        let mut counts = image_counts(&self.image);
        let plan = FaultPlan::from_seed(*self.seeds.get(i));
        let result = traced_fault_check(&plan, &self.cfg, &self.image, tr, &mut counts);
        clean_outcome(result, counts)
    }
}

/// The known answer of every sweep plan is "clean".
fn clean_outcome(result: Result<(), DiffError>, counts: Counts) -> Outcome {
    let verdict = match &result {
        Ok(()) => Verdict::Correct,
        Err(e) => Verdict::Wrong(e.to_string()),
    };
    Outcome {
        verdict,
        key: format!("{result:?}"),
        counts,
    }
}

/// The boot image is compiled once in set-up; its size is counted with
/// every pass so a compiler change that alters it shows.
fn image_counts(image: &CompiledProgram) -> Counts {
    Counts::from([
        ("compiler.calls", 1),
        ("compiler.image_bytes", u64::from(image.image_size())),
    ])
}

/// `fault_check_plan`, rebuilt from the public calls it makes, each inside
/// a span: the machine runs (`SystemConfig::run_faulted`), `probe::scan`,
/// `TracePred::matches_prefix` and the replay into `SingleCycle`. It must
/// return exactly what `fault_check_plan` returns. The work between those
/// calls is charged to `core.fault_check`.
fn traced_fault_check(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(), DiffError> {
    tr.span("core.fault_check", || {
        fault_check_calls(plan, cfg, image, tr, counts)
    })
}

fn fault_check_calls(
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(), DiffError> {
    let mut gen = TrafficGen::new(plan.seed);
    let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
    let spec = tr.span("lightbulb.spec_build", || good_hl_trace(cfg.system.driver));
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
    let run_on = |counts: &mut Counts, kind: ProcessorKind, layer: &'static str| {
        let mut sys = cfg.system;
        sys.processor = kind;
        let work = match kind {
            ProcessorKind::Pipelined => "processor.pipelined.cycles",
            _ => "riscv.spec.steps",
        };
        let quick = tr.span(layer, || {
            sys.run_faulted(image, plan, &frames, cfg.quick_cycles)
        });
        *counts.entry(work).or_default() += quick.cycles;
        if done(&quick) || cfg.max_cycles <= cfg.quick_cycles {
            return (quick, false);
        }
        *counts.entry("core.sweep.wasted_cycles").or_default() += quick.cycles;
        let full = tr.span(layer, || {
            sys.run_faulted(image, plan, &frames, cfg.max_cycles)
        });
        *counts.entry(work).or_default() += full.cycles;
        (full, true)
    };
    let within_spec = |counts: &mut Counts, events: &[MmioEvent], model: &'static str| {
        *counts.entry("proglogic.trace.events").or_default() += events.len() as u64;
        tr.span("proglogic.trace", || {
            if spec.matches_prefix(events) {
                Ok(())
            } else {
                Err(DiffError::SpecViolation {
                    matched: spec.longest_matching_prefix(events),
                    total: events.len(),
                    model,
                })
            }
        })
    };

    // The same steps in the same order as `fault_check_plan`. Device
    // counts are the pipelined run's, like the `devices.faults.injected`
    // counter `fault_check_plan` reports.
    *counts.entry("core.sweep.checks").or_default() += 1;
    let (pipe, pipe_rerun) = run_on(counts, ProcessorKind::Pipelined, "processor.pipelined");
    for (key, counter) in [
        ("devices.faults_injected", "devices.faults.injected"),
        ("devices.frames_delivered", "board.lan9250.frames_delivered"),
    ] {
        *counts.entry(key).or_default() += pipe.report.counters.get(counter);
    }
    tr.span("lightbulb.probe", || probe::scan(&pipe.events));
    within_spec(counts, &pipe.events, "pipelined")?;
    let (sm, sm_rerun) = run_on(counts, ProcessorKind::SpecMachine, "riscv.spec");
    for key in ["riscv.spec.icache_hit", "riscv.spec.icache_miss"] {
        *counts.entry(key).or_default() += sm.report.counters.get(key);
    }
    // A seed counts as rerun when either model's quick pass fell short.
    *counts.entry("core.sweep.reruns").or_default() += u64::from(pipe_rerun || sm_rerun);
    if let Some(e) = &sm.error {
        return Err(DiffError::MachineError(format!(
            "spec machine under fault plan {}: {e}",
            plan.seed
        )));
    }
    within_spec(counts, &sm.events, "spec machine")?;
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
    traced_replay(image, cfg, &pipe.events, tr, counts)
}

/// The replay step of `fault_check_plan`: the single-cycle spec core
/// must reproduce the pipelined trace under `ReplayHandler`.
fn traced_replay(
    image: &CompiledProgram,
    cfg: &FaultSweepConfig,
    events: &[MmioEvent],
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(), DiffError> {
    let max_cycles = cfg.max_cycles;
    let core = tr.span("processor.single_cycle", || {
        let replay = ReplayHandler::new(events.to_vec(), Board::claims);
        let mut core = SingleCycle::new(&image.bytes(), cfg.system.ram_bytes, replay);
        while !core.halted && core.cycle < max_cycles {
            let remaining = events.len() - core.mem.mmio.consumed();
            if remaining == 0 {
                break;
            }
            core.run_block((max_cycles - core.cycle).min(1024).min(remaining as u64));
            if core.mem.mmio.divergence().is_some() {
                break;
            }
        }
        core
    });
    *counts.entry("processor.single_cycle.cycles").or_default() += core.cycle;
    *counts.entry("core.replay.events").or_default() += core.mem.mmio.consumed() as u64;
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
    match (0..n).find(|&i| replayed[i] != events[i]) {
        Some(i) => Err(DiffError::TraceMismatch {
            index: i,
            source: Some(events[i]),
            machine: Some(replayed[i]),
        }),
        None => Ok(()),
    }
}

/// `triage`: one check is `triage_plan` on a plan with a planted
/// liveness-killing atom among seeded noise, under `require_done`.
pub struct Triage {
    cfg: FaultSweepConfig,
    image: CompiledProgram,
    plans: Inputs<FaultPlan>,
}

impl Triage {
    pub fn setup(seed: u64) -> Triage {
        let cfg = FaultSweepConfig {
            require_done: true,
            quick_cycles: TRIAGE_CYCLES,
            max_cycles: TRIAGE_CYCLES,
            ..FaultSweepConfig::default()
        };
        Triage {
            image: build_image(&cfg.system),
            cfg,
            plans: Inputs::new(seed, TRIAGE_COUNTED, planted_plan),
        }
    }
}

/// The planted atom plus the first [`TRIAGE_NOISE`] scheduled atoms of the
/// first seeded plan that has that many. Seeded plans fault at most one
/// register; the planted atom takes that slot, so the seeded register
/// fault is left out.
fn planted_plan(seed: u64) -> FaultPlan {
    (0u64..)
        .map(|attempt| FaultPlan::from_seed(seed.wrapping_add(attempt << 32)))
        .find_map(|plan| {
            let noise: Vec<FaultAtom> = plan
                .atoms()
                .into_iter()
                .filter(|a| {
                    !matches!(
                        a,
                        FaultAtom::ByteTestJunk(_)
                            | FaultAtom::HwCfgNotReady(_)
                            | FaultAtom::MacBusy(_)
                    )
                })
                .take(TRIAGE_NOISE)
                .collect();
            (noise.len() == TRIAGE_NOISE).then(|| {
                let atoms: Vec<FaultAtom> = std::iter::once(PLANTED).chain(noise).collect();
                FaultPlan::from_atoms(plan.seed, &atoms)
            })
        })
        .expect("seeded plans with three scheduled atoms are common")
}

/// The known answer: triage returns a plan that keeps the planted atom,
/// and that plan fails again when it is checked on its own.
fn triage_verdict(minimal: &FaultPlan, replay: &Result<(), DiffError>) -> Verdict {
    if !minimal.atoms().contains(&PLANTED) {
        Verdict::Wrong(format!(
            "minimal plan {:?} lost the planted atom",
            minimal.atoms()
        ))
    } else if replay.is_ok() {
        Verdict::Wrong("the minimal plan passes when replayed".to_string())
    } else {
        Verdict::Correct
    }
}

impl Workload for Triage {
    fn counted_units(&self) -> usize {
        self.plans.counted()
    }

    fn prepare(&mut self, i: usize) {
        self.plans.prepare(i);
    }

    fn check(&self, i: usize) -> Outcome {
        let plan = self.plans.get(i);
        let Some(report) = triage_plan(plan, &self.cfg, &self.image) else {
            return Outcome {
                verdict: Verdict::Wrong("the planted plan passes".to_string()),
                key: "passes".to_string(),
                counts: Counts::new(),
            };
        };
        let replay = fault_check_plan(
            &report.minimal,
            &self.cfg,
            &self.image,
            &mut Counters::new(),
        );
        Outcome {
            verdict: triage_verdict(&report.minimal, &replay),
            key: format!(
                "{:?} {:?} {} {} {replay:?}",
                report.minimal.atoms(),
                report.error,
                report.probes,
                report.site.index
            ),
            counts: Counts::from([
                ("core.triage.probes", report.probes),
                ("core.triage.atoms_before", plan.atoms().len() as u64),
                (
                    "core.triage.atoms_after",
                    report.minimal.atoms().len() as u64,
                ),
            ]),
        }
    }

    fn check_traced(&self, i: usize, tr: &Tracer) -> Outcome {
        let plan = self.plans.get(i);
        let mut counts = Counts::new();
        // A probe that panics counts as failing, as in `triage_plan`.
        let mut probe = |candidate: &FaultPlan| -> Option<DiffError> {
            catch_unwind(AssertUnwindSafe(|| {
                traced_fault_check(candidate, &self.cfg, &self.image, tr, &mut counts)
            }))
            .unwrap_or_else(|_| {
                Err(DiffError::MachineError(
                    "check panicked under this plan".to_string(),
                ))
            })
            .err()
        };
        let shrunk = tr.span("core.triage", || shrink_plan(plan, &mut probe));
        let Some((minimal, error, probes)) = shrunk else {
            return Outcome {
                verdict: Verdict::Wrong("the planted plan passes".to_string()),
                key: "passes".to_string(),
                counts,
            };
        };
        let site = traced_divergence_index(&minimal, &error, &self.cfg, &self.image, tr);
        let replay = probe(&minimal).map_or(Ok(()), Err);
        counts.insert("core.triage.probes", probes);
        counts.insert("core.triage.atoms_before", plan.atoms().len() as u64);
        counts.insert("core.triage.atoms_after", minimal.atoms().len() as u64);
        Outcome {
            verdict: triage_verdict(&minimal, &replay),
            key: format!("{:?} {error:?} {probes} {site} {replay:?}", minimal.atoms()),
            counts,
        }
    }
}

/// The divergence index `triage_plan` reports, found with the same public
/// calls: both models rerun under the minimal plan at the full budget.
fn traced_divergence_index(
    plan: &FaultPlan,
    error: &DiffError,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    tr: &Tracer,
) -> usize {
    let mut gen = TrafficGen::new(plan.seed);
    let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
    let run = |kind: ProcessorKind, layer: &'static str| {
        let mut sys = cfg.system;
        sys.processor = kind;
        tr.span(layer, || {
            catch_unwind(AssertUnwindSafe(|| {
                sys.run_faulted(image, plan, &frames, cfg.max_cycles).events
            }))
            .unwrap_or_default()
        })
    };
    let pipe = run(ProcessorKind::Pipelined, "processor.pipelined");
    let sm = run(ProcessorKind::SpecMachine, "riscv.spec");
    let first_model_mismatch = || {
        (0..pipe.len().max(sm.len()))
            .find(|&i| pipe.get(i) != sm.get(i))
            .unwrap_or(pipe.len().min(sm.len()))
    };
    match error {
        DiffError::TraceMismatch { index, .. } => *index,
        DiffError::SpecViolation { matched, .. } => *matched,
        DiffError::WorkloadIncomplete { .. } => first_model_mismatch(),
        _ => {
            let spec = tr.span("lightbulb.spec_build", || good_hl_trace(cfg.system.driver));
            tr.span("proglogic.trace", || {
                if spec.matches_prefix(&pipe) {
                    None
                } else {
                    Some(spec.longest_matching_prefix(&pipe))
                }
            })
            .unwrap_or_else(first_model_mismatch)
        }
    }
}
