//! The software-oriented specification machine (`swstep` of §5.8).
//!
//! [`SpecMachine`] is the machine model the compiler is checked against. It
//! is strict about everything the software contract is strict about:
//!
//! * fetching from outside RAM, from a misaligned pc, or from an address
//!   whose executability was revoked by a store (XAddrs, §5.6) is an error;
//! * misaligned data accesses are errors;
//! * loads/stores outside RAM go to the [`MmioHandler`] if it claims the
//!   address (word-sized, word-aligned only — `isMMIOAligned` of §6.2) and
//!   are recorded in [`SpecMachine::trace`]; otherwise they are errors.
//!
//! "Error" here is the executable stand-in for the paper's undefined
//! behavior: a verified stack must never reach one, and the differential
//! tests treat any occurrence as a failed run.

use crate::decode::decode;
use crate::execute::execute;
use crate::icache::DecodeCache;
use crate::isa::{InstrClass, Instruction, Reg};
use crate::mem::Memory;
use crate::mmio::{AccessSize, MmioEvent, MmioHandler};
use crate::primitives::{Primitives, Trap};
use crate::word;
use crate::xaddrs::XAddrs;
use obs::{Counters, Histogram};
use std::fmt;

/// Undefined behavior and traps, made explicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// pc left RAM.
    FetchOutOfRange {
        /// The pc that could not be fetched.
        addr: u32,
    },
    /// pc not 4-byte aligned.
    FetchMisaligned {
        /// The misaligned pc.
        addr: u32,
    },
    /// pc points at bytes whose executability was revoked by a store and
    /// not restored by `fence.i` (§5.6).
    FetchNonExecutable {
        /// The stale pc.
        addr: u32,
    },
    /// The fetched word does not decode.
    IllegalInstruction {
        /// pc of the undecodable word.
        addr: u32,
        /// The undecodable word.
        word: u32,
    },
    /// A jump/branch targeted a misaligned address.
    MisalignedJump {
        /// pc of the jump.
        addr: u32,
        /// The misaligned target.
        target: u32,
    },
    /// A data access was not aligned to its own width.
    MisalignedAccess {
        /// The misaligned data address.
        addr: u32,
        /// The access width.
        size: AccessSize,
    },
    /// A data access fell outside RAM and was not claimed by the MMIO
    /// handler.
    AccessFault {
        /// The faulting data address.
        addr: u32,
        /// The access width.
        size: AccessSize,
    },
    /// An MMIO access was not word-sized and word-aligned.
    MmioMisaligned {
        /// The faulting MMIO address.
        addr: u32,
        /// The access width.
        size: AccessSize,
    },
    /// `ecall` executed (no execution environment exists).
    EnvironmentCall {
        /// pc of the `ecall`.
        addr: u32,
    },
    /// `ebreak` executed (also the halt convention of test harnesses).
    Breakpoint {
        /// pc of the `ebreak`.
        addr: u32,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use MachineError::*;
        match *self {
            FetchOutOfRange { addr } => write!(f, "instruction fetch outside RAM at 0x{addr:08x}"),
            FetchMisaligned { addr } => write!(f, "misaligned instruction fetch at 0x{addr:08x}"),
            FetchNonExecutable { addr } => {
                write!(f, "fetch from non-executable (stale) address 0x{addr:08x}")
            }
            IllegalInstruction { addr, word } => {
                write!(f, "illegal instruction 0x{word:08x} at 0x{addr:08x}")
            }
            MisalignedJump { addr, target } => {
                write!(f, "misaligned jump from 0x{addr:08x} to 0x{target:08x}")
            }
            MisalignedAccess { addr, size } => {
                write!(f, "misaligned {}-byte access at 0x{addr:08x}", size.bytes())
            }
            AccessFault { addr, size } => {
                write!(f, "{}-byte access fault at 0x{addr:08x}", size.bytes())
            }
            MmioMisaligned { addr, size } => {
                write!(
                    f,
                    "non-word MMIO access ({} bytes) at 0x{addr:08x}",
                    size.bytes()
                )
            }
            EnvironmentCall { addr } => write!(f, "ecall at 0x{addr:08x}"),
            Breakpoint { addr } => write!(f, "ebreak at 0x{addr:08x}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Result of running with bounded fuel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The program reached `ebreak` (the harness halt convention) after
    /// executing this many instructions (not counting the `ebreak`).
    Halted {
        /// Retired instruction count.
        steps: u64,
    },
    /// Fuel ran out with the program still executing.
    OutOfFuel,
}

/// Execution statistics of a [`SpecMachine`], exported as `spec.*`
/// counters by [`SpecStats::counters`]. Retired-mix buckets follow
/// [`InstrClass`]; MMIO gap latencies are measured in retired
/// instructions between consecutive MMIO events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpecStats {
    /// Retired instructions per [`InstrClass::Alu`].
    pub retired_alu: u64,
    /// Retired M-extension multiplies/divides.
    pub retired_muldiv: u64,
    /// Retired loads.
    pub retired_load: u64,
    /// Retired stores.
    pub retired_store: u64,
    /// Retired conditional branches.
    pub retired_branch: u64,
    /// Retired jumps.
    pub retired_jump: u64,
    /// Retired system instructions (fences; trapping ones never retire).
    pub retired_system: u64,
    /// MMIO loads recorded in the trace.
    pub mmio_loads: u64,
    /// MMIO stores recorded in the trace.
    pub mmio_stores: u64,
    /// Fetches served by the predecoded instruction cache.
    pub icache_hits: u64,
    /// Fetches that took the full checked fetch-and-decode path (every
    /// fetch, when the cache is disabled).
    pub icache_misses: u64,
    /// Distribution of gaps between consecutive MMIO events, in retired
    /// instructions.
    pub mmio_gap: Histogram,
    last_mmio_instret: Option<u64>,
}

impl SpecStats {
    fn retire(&mut self, class: InstrClass) {
        let slot = match class {
            InstrClass::Alu => &mut self.retired_alu,
            InstrClass::MulDiv => &mut self.retired_muldiv,
            InstrClass::Load => &mut self.retired_load,
            InstrClass::Store => &mut self.retired_store,
            InstrClass::Branch => &mut self.retired_branch,
            InstrClass::Jump => &mut self.retired_jump,
            InstrClass::System => &mut self.retired_system,
        };
        *slot += 1;
    }

    /// Folds a whole block's retired-mix histogram in at once, indexed by
    /// `InstrClass as usize` (the batched twin of [`SpecStats::retire`],
    /// called once per `run_block` instead of once per instruction).
    fn retire_mix(&mut self, counts: &[u64; 7]) {
        self.retired_alu += counts[InstrClass::Alu as usize];
        self.retired_muldiv += counts[InstrClass::MulDiv as usize];
        self.retired_load += counts[InstrClass::Load as usize];
        self.retired_store += counts[InstrClass::Store as usize];
        self.retired_branch += counts[InstrClass::Branch as usize];
        self.retired_jump += counts[InstrClass::Jump as usize];
        self.retired_system += counts[InstrClass::System as usize];
    }

    fn mmio_event(&mut self, instret: u64, is_load: bool) {
        if is_load {
            self.mmio_loads += 1;
        } else {
            self.mmio_stores += 1;
        }
        if let Some(last) = self.last_mmio_instret {
            self.mmio_gap.record(instret - last);
        }
        self.last_mmio_instret = Some(instret);
    }

    /// Exports the stats as `spec.*` named counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("spec.retired.alu", self.retired_alu);
        c.set("spec.retired.muldiv", self.retired_muldiv);
        c.set("spec.retired.load", self.retired_load);
        c.set("spec.retired.store", self.retired_store);
        c.set("spec.retired.branch", self.retired_branch);
        c.set("spec.retired.jump", self.retired_jump);
        c.set("spec.retired.system", self.retired_system);
        c.set("spec.mmio.loads", self.mmio_loads);
        c.set("spec.mmio.stores", self.mmio_stores);
        c.set("spec.mmio.gap_count", self.mmio_gap.count());
        c.set("spec.mmio.gap_max", self.mmio_gap.max());
        c.set("spec.mmio.gap_mean", self.mmio_gap.mean().round() as u64);
        c.set("riscv.spec.icache_hit", self.icache_hits);
        c.set("riscv.spec.icache_miss", self.icache_misses);
        c
    }
}

/// The specification machine: registers, pc, RAM, XAddrs, MMIO, and the I/O
/// trace.
#[derive(Clone, Debug)]
pub struct SpecMachine<M> {
    /// The 32 integer registers; index 0 is forced to zero on read.
    pub regs: [u32; 32],
    /// Address of the instruction about to execute.
    pub pc: u32,
    next_pc: u32,
    /// RAM, based at address 0.
    pub mem: Memory,
    /// Executable-address set (§5.6).
    pub xaddrs: XAddrs,
    /// The external-interaction parameter (§6.2).
    pub mmio: M,
    /// Every MMIO interaction so far, oldest first.
    pub trace: Vec<MmioEvent>,
    /// Retired instruction count.
    pub instret: u64,
    /// Execution statistics (retired mix, MMIO gaps).
    pub stats: SpecStats,
    /// Predecoded instruction cache (private: its coherence with `mem` and
    /// `xaddrs` is maintained by the store path; see
    /// [`SpecMachine::flush_icache`] for out-of-band memory writes).
    icache: DecodeCache,
    /// Device ticks owed but not yet delivered — nonzero only while inside
    /// [`SpecMachine::run_block`], which flushes them before every MMIO
    /// interaction and at block exit.
    pending_ticks: u64,
}

impl<M: MmioHandler> SpecMachine<M> {
    /// Creates a machine with the given RAM and MMIO handler; pc = 0, all
    /// registers zero, all of RAM executable (the boot state of §5.6).
    pub fn new(mem: Memory, mmio: M) -> SpecMachine<M> {
        let len = mem.size();
        SpecMachine {
            regs: [0; 32],
            pc: 0,
            next_pc: 0,
            mem,
            xaddrs: XAddrs::all(len),
            mmio,
            trace: Vec::new(),
            instret: 0,
            stats: SpecStats::default(),
            icache: DecodeCache::new(len),
            pending_ticks: 0,
        }
    }

    /// Disables (or re-enables) the predecoded instruction cache, dropping
    /// its contents. With the cache off, every fetch takes the seed
    /// interpreter's checked fetch-and-decode path — the baseline the
    /// `spec_throughput` bin and the `icache_equiv` property tests compare
    /// against.
    pub fn set_icache_enabled(&mut self, enabled: bool) {
        self.icache.set_enabled(enabled);
    }

    /// Whether the predecoded instruction cache is active.
    pub fn icache_enabled(&self) -> bool {
        self.icache.enabled()
    }

    /// Drops every predecoded entry. Must be called after mutating `mem`
    /// directly (i.e. not through the machine's own store path), which the
    /// cache cannot observe; [`SpecMachine::load_program`] does this
    /// automatically.
    pub fn flush_icache(&mut self) {
        self.icache.flush();
    }

    /// Reads a register (`x0` reads as zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a register (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// Places encoded instruction words into RAM at `addr` without revoking
    /// executability (this models initializing the memory image before
    /// reset, the paper's `bytes_at (instrencode …) 0 mem0` precondition).
    ///
    /// # Panics
    ///
    /// Panics if the words do not fit in RAM.
    pub fn load_program(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.mem
                .store_u32(addr + (i as u32) * 4, *w)
                .expect("program image must fit in RAM");
        }
        // Re-imaging memory bypasses the store path, so cached decodes may
        // no longer match RAM; start cold.
        self.icache.flush();
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the first [`MachineError`] encountered; the machine state is
    /// left as of the error (partial effects of the failing instruction may
    /// have applied, as in real UB — callers must not continue stepping).
    pub fn step(&mut self) -> Result<(), MachineError> {
        let inst = self.fetch()?;
        self.next_pc = self.pc.wrapping_add(4);
        execute(self, &inst)?;
        self.pc = self.next_pc;
        self.instret += 1;
        self.stats.retire(inst.class());
        self.mmio.tick();
        Ok(())
    }

    /// Fetches the instruction at the current pc: one table load on a
    /// cache hit, the full checked fetch-and-decode on a miss.
    #[inline]
    fn fetch(&mut self) -> Result<Instruction, MachineError> {
        let pc = self.pc;
        if let Some(inst) = self.icache.get(pc) {
            // A present entry was filled from an aligned, in-range,
            // executable slot and is killed by every store into it, so only
            // executability (revocable out-of-band via the public `xaddrs`)
            // still needs re-checking — one bitmap word, since `get`
            // guarantees alignment.
            if self.xaddrs.contains_aligned_word(pc) {
                self.stats.icache_hits += 1;
                return Ok(inst);
            }
        }
        self.fetch_slow(pc)
    }

    /// The miss path: the seed interpreter's per-fetch checks, hoisted here
    /// so the hot loop pays them once per cache fill instead of once per
    /// step.
    fn fetch_slow(&mut self, pc: u32) -> Result<Instruction, MachineError> {
        if !word::is_aligned(pc, 4) {
            return Err(MachineError::FetchMisaligned { addr: pc });
        }
        if !self.mem.in_range(pc, 4) {
            return Err(MachineError::FetchOutOfRange { addr: pc });
        }
        if !self.xaddrs.contains_range(pc, 4) {
            return Err(MachineError::FetchNonExecutable { addr: pc });
        }
        let inst_word = self.mem.load_u32(pc).expect("range checked above");
        let inst = decode(inst_word);
        self.stats.icache_misses += 1;
        self.icache.fill(pc, inst);
        Ok(inst)
    }

    /// Delivers any deferred device ticks. Called before every MMIO
    /// interaction and at `run_block` exit, so a handler observes exactly
    /// as many ticks before each access as under per-step ticking.
    fn flush_ticks(&mut self) {
        if self.pending_ticks > 0 {
            let n = self.pending_ticks;
            self.pending_ticks = 0;
            self.mmio.tick_n(n);
        }
    }

    /// Runs up to `fuel` instructions in a batched hot loop: fetches come
    /// from the decode cache, device ticks are accumulated and delivered in
    /// bulk at MMIO boundaries ([`MmioHandler::tick_n`]), and the retired-
    /// mix counters are flushed once per block. Observably identical to
    /// `fuel` calls of [`SpecMachine::step`].
    ///
    /// Returns [`StepOutcome::Halted`] at `ebreak` with the number of
    /// instructions retired *by this call* (not counting the `ebreak`), or
    /// [`StepOutcome::OutOfFuel`].
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] other than [`MachineError::Breakpoint`], which
    /// is the halt convention.
    pub fn run_block(&mut self, fuel: u64) -> Result<StepOutcome, MachineError> {
        let start = self.instret;
        let mut mix = [0u64; 7];
        let mut outcome = Ok(StepOutcome::OutOfFuel);
        for _ in 0..fuel {
            let inst = match self.fetch() {
                Ok(inst) => inst,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            };
            self.next_pc = self.pc.wrapping_add(4);
            if let Err(e) = execute(self, &inst) {
                outcome = if let MachineError::Breakpoint { .. } = e {
                    Ok(StepOutcome::Halted {
                        steps: self.instret - start,
                    })
                } else {
                    Err(e)
                };
                break;
            }
            self.pc = self.next_pc;
            self.instret += 1;
            mix[inst.class() as usize] += 1;
            self.pending_ticks += 1;
        }
        self.flush_ticks();
        self.stats.retire_mix(&mix);
        outcome
    }

    /// Runs until `ebreak`, an error, or `fuel` instructions (an alias of
    /// [`SpecMachine::run_block`], kept for the harnesses' vocabulary).
    ///
    /// [`StepOutcome::Halted::steps`] counts the instructions retired *in
    /// this call*, so resuming a machine and halting again reports only the
    /// second leg.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] other than [`MachineError::Breakpoint`], which
    /// is the halt convention and reported as [`StepOutcome::Halted`].
    pub fn run_until_ebreak(&mut self, fuel: u64) -> Result<StepOutcome, MachineError> {
        self.run_block(fuel)
    }

    /// Runs exactly `n` instructions or until an error (including
    /// [`MachineError::Breakpoint`], which [`SpecMachine::run_block`] would
    /// instead report as a halt).
    ///
    /// # Errors
    ///
    /// The first [`MachineError`] encountered, with the number of
    /// successfully retired instructions recoverable from
    /// [`SpecMachine::instret`].
    pub fn run(&mut self, n: u64) -> Result<(), MachineError> {
        match self.run_block(n)? {
            StepOutcome::Halted { .. } => Err(MachineError::Breakpoint { addr: self.pc }),
            StepOutcome::OutOfFuel => Ok(()),
        }
    }

    /// Decodes the instruction at the current pc without executing it.
    pub fn current_instruction(&self) -> Option<Instruction> {
        self.mem.load_u32(self.pc).ok().map(decode)
    }
}

impl<M: MmioHandler> Primitives for SpecMachine<M> {
    type Error = MachineError;

    fn get_register(&mut self, r: Reg) -> u32 {
        self.reg(r)
    }

    fn set_register(&mut self, r: Reg, v: u32) {
        self.set_reg(r, v);
    }

    fn load(&mut self, size: AccessSize, addr: u32) -> Result<u32, MachineError> {
        let n = size.bytes();
        if self.mem.in_range(addr, n) {
            if !word::is_aligned(addr, n) {
                return Err(MachineError::MisalignedAccess { addr, size });
            }
            Ok(match size {
                AccessSize::Byte => self.mem.load_u8(addr).unwrap() as u32,
                AccessSize::Half => self.mem.load_u16(addr).unwrap() as u32,
                AccessSize::Word => self.mem.load_u32(addr).unwrap(),
            })
        } else {
            // Deliver deferred ticks before the device decides or acts, so
            // batched runs are indistinguishable from per-step ticking.
            self.flush_ticks();
            if self.mmio.is_mmio(addr, size) {
                if size != AccessSize::Word || !word::is_aligned(addr, 4) {
                    return Err(MachineError::MmioMisaligned { addr, size });
                }
                let value = self.mmio.load(addr, size);
                self.trace.push(MmioEvent::load(addr, value));
                self.stats.mmio_event(self.instret, true);
                Ok(value)
            } else {
                Err(MachineError::AccessFault { addr, size })
            }
        }
    }

    fn store(&mut self, size: AccessSize, addr: u32, value: u32) -> Result<(), MachineError> {
        let n = size.bytes();
        if self.mem.in_range(addr, n) {
            if !word::is_aligned(addr, n) {
                return Err(MachineError::MisalignedAccess { addr, size });
            }
            match size {
                AccessSize::Byte => self.mem.store_u8(addr, value as u8).unwrap(),
                AccessSize::Half => self.mem.store_u16(addr, value as u16).unwrap(),
                AccessSize::Word => self.mem.store_u32(addr, value).unwrap(),
            }
            // The store revokes executability of the touched bytes (§5.6)
            // and, with it, any predecoded instruction over them — the
            // cache staleness discipline is the XAddrs discipline.
            self.xaddrs.remove_range(addr, n);
            self.icache.invalidate_range(addr, n);
            Ok(())
        } else {
            self.flush_ticks();
            if self.mmio.is_mmio(addr, size) {
                if size != AccessSize::Word || !word::is_aligned(addr, 4) {
                    return Err(MachineError::MmioMisaligned { addr, size });
                }
                self.mmio.store(addr, size, value);
                self.trace.push(MmioEvent::store(addr, value));
                self.stats.mmio_event(self.instret, false);
                Ok(())
            } else {
                Err(MachineError::AccessFault { addr, size })
            }
        }
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn set_next_pc(&mut self, target: u32) {
        self.next_pc = target;
    }

    fn fence_i(&mut self) {
        // Resynchronize: everything in RAM becomes executable again.
        self.xaddrs.add_range(0, self.mem.size());
    }

    fn trap(&mut self, t: Trap) -> Result<(), MachineError> {
        let addr = self.pc;
        Err(match t {
            Trap::MisalignedJump { target } => MachineError::MisalignedJump { addr, target },
            Trap::EnvironmentCall => MachineError::EnvironmentCall { addr },
            Trap::Breakpoint => MachineError::Breakpoint { addr },
            Trap::IllegalInstruction { word } => MachineError::IllegalInstruction { addr, word },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::isa::Instruction as I;
    use crate::mmio::NoMmio;

    fn machine_with(words: &[I]) -> SpecMachine<NoMmio> {
        let encoded: Vec<u32> = words.iter().map(encode).collect();
        let mut m = SpecMachine::new(Memory::with_size(0x1000), NoMmio);
        m.load_program(0, &encoded);
        m
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 40,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X5,
                imm: 2,
            },
            I::Ebreak,
        ]);
        let out = m.run_until_ebreak(10).unwrap();
        assert_eq!(out, StepOutcome::Halted { steps: 2 });
        assert_eq!(m.reg(Reg::X6), 42);
    }

    #[test]
    fn halted_steps_count_this_call_not_cumulative() {
        // Regression: `Halted { steps }` used to report cumulative
        // `instret`. Halt once, rewind pc, halt again: the second call must
        // report only its own retired instructions.
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 1,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 2,
            },
            I::Ebreak,
        ]);
        assert_eq!(
            m.run_until_ebreak(10).unwrap(),
            StepOutcome::Halted { steps: 2 }
        );
        m.pc = 4; // resume over the second addi only
        assert_eq!(
            m.run_until_ebreak(10).unwrap(),
            StepOutcome::Halted { steps: 1 },
            "second call must not include the first call's instret"
        );
        assert_eq!(m.instret, 3);
    }

    #[test]
    fn icache_counts_hits_and_misses() {
        // 3-instruction loop run many times: 4 distinct slots miss once
        // (the 3 loop bodies + ebreak... loop: addi, addi, bne backward).
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 50,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: -1,
            },
            I::Bne {
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: -4,
            },
            I::Ebreak,
        ]);
        let out = m.run_until_ebreak(1000).unwrap();
        assert!(matches!(out, StepOutcome::Halted { .. }));
        assert_eq!(m.stats.icache_misses, 4, "one fill per distinct slot");
        assert_eq!(
            m.stats.icache_hits + m.stats.icache_misses,
            m.instret + 1, // the trapping ebreak fetches but does not retire
        );
    }

    #[test]
    fn disabled_icache_matches_enabled_execution() {
        let prog = [
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 5,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 0,
            },
            I::Beq {
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: 16,
            },
            I::Add {
                rd: Reg::X6,
                rs1: Reg::X6,
                rs2: Reg::X5,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: -1,
            },
            I::Jal {
                rd: Reg::X0,
                offset: -12,
            },
            I::Ebreak,
        ];
        let mut cached = machine_with(&prog);
        let mut uncached = machine_with(&prog);
        uncached.set_icache_enabled(false);
        assert_eq!(
            cached.run_until_ebreak(100).unwrap(),
            uncached.run_until_ebreak(100).unwrap()
        );
        assert_eq!(cached.regs, uncached.regs);
        assert_eq!(cached.pc, uncached.pc);
        assert_eq!(cached.instret, uncached.instret);
        assert_eq!(uncached.stats.icache_hits, 0);
        assert!(cached.stats.icache_hits > 0);
    }

    #[test]
    fn self_modifying_store_kills_cached_decode() {
        // Warm the cache over a nop slot, overwrite it with an ebreak,
        // fence.i, and loop back into it: the machine must execute the NEW
        // instruction, not the predecoded stale one.
        let ebreak_word = encode(&I::Ebreak);
        let hi = ebreak_word.wrapping_add(0x800) >> 12;
        let lo = crate::word::sign_extend(ebreak_word & 0xFFF, 12) as i32;
        let mut m = machine_with(&[
            // 0: jump over the patch slot to warm nothing yet
            I::Addi {
                rd: Reg::X7,
                rs1: Reg::X0,
                imm: 1,
            },
            // 4: the slot that gets patched (first pass: nop)
            I::NOP,
            // 8: first pass? then patch and loop back
            I::Beq {
                rs1: Reg::X7,
                rs2: Reg::X0,
                offset: 20, // second pass: skip to final ebreak at 28
            },
            I::Lui {
                rd: Reg::X5,
                imm20: hi,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: lo,
            },
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 4, // patch slot 4 with ebreak
            },
            I::FenceI,
            // 28: set x7=0 and jump back to the patched slot
            I::Addi {
                rd: Reg::X7,
                rs1: Reg::X0,
                imm: 0,
            },
            I::Jal {
                rd: Reg::X0,
                offset: -28, // back to address 4
            },
        ]);
        let out = m.run_until_ebreak(50).unwrap();
        assert!(
            matches!(out, StepOutcome::Halted { .. }),
            "patched ebreak must execute: stale cached nop would loop to fuel ({out:?})"
        );
        assert_eq!(m.pc, 4, "halted at the patched slot");
    }

    #[test]
    fn batched_ticks_match_per_step_ticks() {
        // A device whose loads expose its tick count: run_block's deferred
        // tick delivery must be invisible.
        #[derive(Default)]
        struct Clock {
            ticks: u64,
            batched: u64,
        }
        impl MmioHandler for Clock {
            fn is_mmio(&self, addr: u32, _s: AccessSize) -> bool {
                addr >= 0x1000_0000
            }
            fn load(&mut self, _a: u32, _s: AccessSize) -> u32 {
                self.ticks as u32
            }
            fn store(&mut self, _a: u32, _s: AccessSize, _v: u32) {}
            fn tick(&mut self) {
                self.ticks += 1;
            }
            fn tick_n(&mut self, n: u64) {
                self.ticks += n;
                self.batched += 1;
            }
        }
        let prog = [
            I::Lui {
                rd: Reg::X5,
                imm20: 0x10000,
            },
            I::NOP,
            I::NOP,
            I::Lw {
                rd: Reg::X6,
                rs1: Reg::X5,
                offset: 0,
            },
            I::NOP,
            I::Lw {
                rd: Reg::X7,
                rs1: Reg::X5,
                offset: 0,
            },
            I::Ebreak,
        ];
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let mut stepped = SpecMachine::new(Memory::with_size(0x1000), Clock::default());
        stepped.load_program(0, &words);
        while stepped.step().is_ok() {}

        let mut blocked = SpecMachine::new(Memory::with_size(0x1000), Clock::default());
        blocked.load_program(0, &words);
        blocked.run_until_ebreak(100).unwrap();

        assert_eq!(stepped.reg(Reg::X6), blocked.reg(Reg::X6));
        assert_eq!(stepped.reg(Reg::X7), blocked.reg(Reg::X7));
        assert_eq!(stepped.mmio.ticks, blocked.mmio.ticks);
        assert_eq!(stepped.trace, blocked.trace);
        assert!(blocked.mmio.batched > 0, "block path must batch ticks");
    }

    #[test]
    fn x0_is_immutable() {
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X0,
                rs1: Reg::X0,
                imm: 99,
            },
            I::Ebreak,
        ]);
        m.run_until_ebreak(10).unwrap();
        assert_eq!(m.reg(Reg::X0), 0);
    }

    #[test]
    fn loop_with_branch() {
        // x5 = 5; x6 = 0; while (x5 != 0) { x6 += x5; x5 -= 1; }
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: 5,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 0,
            },
            I::Beq {
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: 16,
            },
            I::Add {
                rd: Reg::X6,
                rs1: Reg::X6,
                rs2: Reg::X5,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: -1,
            },
            I::Jal {
                rd: Reg::X0,
                offset: -12,
            },
            I::Ebreak,
        ]);
        m.run_until_ebreak(100).unwrap();
        assert_eq!(m.reg(Reg::X6), 15);
    }

    #[test]
    fn function_call_and_return() {
        // jal x1, +12 ; ebreak ; <pad> ; addi x10,x0,7 ; jalr x0, 0(x1)
        let mut m = machine_with(&[
            I::Jal {
                rd: Reg::X1,
                offset: 12,
            },
            I::Ebreak,
            I::NOP,
            I::Addi {
                rd: Reg::X10,
                rs1: Reg::X0,
                imm: 7,
            },
            I::Jalr {
                rd: Reg::X0,
                rs1: Reg::X1,
                offset: 0,
            },
        ]);
        m.run_until_ebreak(10).unwrap();
        assert_eq!(m.reg(Reg::X10), 7);
        assert_eq!(m.reg(Reg::X1), 4); // return address
    }

    #[test]
    fn memory_roundtrip_and_sign_extension() {
        let mut m = machine_with(&[
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X0,
                imm: -1,
            },
            I::Sb {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 0x100,
            },
            I::Lb {
                rd: Reg::X6,
                rs1: Reg::X0,
                offset: 0x100,
            },
            I::Lbu {
                rd: Reg::X7,
                rs1: Reg::X0,
                offset: 0x100,
            },
            I::Ebreak,
        ]);
        m.run_until_ebreak(10).unwrap();
        assert_eq!(m.reg(Reg::X6), u32::MAX);
        assert_eq!(m.reg(Reg::X7), 0xFF);
    }

    #[test]
    fn stale_instruction_fetch_is_ub() {
        // Store over the *next* instruction, then fall into it.
        let mut m = machine_with(&[
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X0,
                offset: 4,
            },
            I::Ebreak, // overwritten by the store; fetching it is now UB
        ]);
        m.step().unwrap();
        assert_eq!(m.step(), Err(MachineError::FetchNonExecutable { addr: 4 }));
    }

    #[test]
    fn fence_i_makes_modified_code_runnable() {
        // Store an ebreak over instruction slot 3, fence.i, run into it.
        let ebreak_word = encode(&I::Ebreak) as i32;
        assert!((0..2048).contains(&(ebreak_word & 0xFFF)));
        // Build: lui x5, %hi(ebreak); addi x5, x5, %lo; sw x5, 12(x0); fence.i; <slot>
        let hi = ((ebreak_word as u32).wrapping_add(0x800)) >> 12;
        let lo = (ebreak_word as u32 & 0xFFF) as i32;
        let lo = if lo >= 2048 { lo - 4096 } else { lo };
        let mut m = machine_with(&[
            I::Lui {
                rd: Reg::X5,
                imm20: hi,
            },
            I::Addi {
                rd: Reg::X5,
                rs1: Reg::X5,
                imm: lo,
            },
            I::Sw {
                rs1: Reg::X0,
                rs2: Reg::X5,
                offset: 16,
            },
            I::FenceI,
            I::NOP, // slot 16 — overwritten with ebreak
        ]);
        let out = m.run_until_ebreak(10).unwrap();
        assert!(matches!(out, StepOutcome::Halted { .. }));
    }

    #[test]
    fn misaligned_access_is_ub() {
        let mut m = machine_with(&[I::Lw {
            rd: Reg::X5,
            rs1: Reg::X0,
            offset: 0x101,
        }]);
        assert_eq!(
            m.step(),
            Err(MachineError::MisalignedAccess {
                addr: 0x101,
                size: AccessSize::Word
            })
        );
    }

    #[test]
    fn non_ram_non_mmio_access_is_ub() {
        let words = [encode(&I::Lw {
            rd: Reg::X5,
            rs1: Reg::X0,
            offset: 0x7FC,
        })];
        let mut m = SpecMachine::new(Memory::with_size(0x400), NoMmio);
        m.load_program(0, &words);
        assert!(matches!(m.step(), Err(MachineError::AccessFault { .. })));
    }

    #[test]
    fn illegal_instruction_reported_with_pc() {
        let mut m = SpecMachine::new(Memory::with_size(0x100), NoMmio);
        m.mem.store_u32(0, 0xFFFF_FFFF).unwrap();
        assert_eq!(
            m.step(),
            Err(MachineError::IllegalInstruction {
                addr: 0,
                word: 0xFFFF_FFFF
            })
        );
    }

    #[test]
    fn pc_leaving_ram_is_ub() {
        let mut m = machine_with(&[I::Jal {
            rd: Reg::X0,
            offset: 0x2000,
        }]);
        m.step().unwrap();
        assert_eq!(
            m.step(),
            Err(MachineError::FetchOutOfRange { addr: 0x2000 })
        );
    }

    #[test]
    fn mmio_trace_recording() {
        #[derive(Default)]
        struct Echo {
            last: u32,
        }
        impl MmioHandler for Echo {
            fn is_mmio(&self, addr: u32, _s: AccessSize) -> bool {
                (0x1000_0000..0x1000_1000).contains(&addr)
            }
            fn load(&mut self, _addr: u32, _s: AccessSize) -> u32 {
                self.last
            }
            fn store(&mut self, _addr: u32, _s: AccessSize, v: u32) {
                self.last = v;
            }
        }
        // lui x5, 0x10000; addi x6, x0, 7; sw x6, 0(x5); lw x7, 0(x5); ebreak
        let prog = [
            I::Lui {
                rd: Reg::X5,
                imm20: 0x10000,
            },
            I::Addi {
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 7,
            },
            I::Sw {
                rs1: Reg::X5,
                rs2: Reg::X6,
                offset: 0,
            },
            I::Lw {
                rd: Reg::X7,
                rs1: Reg::X5,
                offset: 0,
            },
            I::Ebreak,
        ];
        let words: Vec<u32> = prog.iter().map(encode).collect();
        let mut m = SpecMachine::new(Memory::with_size(0x1000), Echo::default());
        m.load_program(0, &words);
        m.run_until_ebreak(10).unwrap();
        assert_eq!(m.reg(Reg::X7), 7);
        assert_eq!(
            m.trace,
            vec![
                MmioEvent::store(0x1000_0000, 7),
                MmioEvent::load(0x1000_0000, 7)
            ]
        );
    }

    #[test]
    fn byte_mmio_access_is_ub() {
        struct Always;
        impl MmioHandler for Always {
            fn is_mmio(&self, _a: u32, _s: AccessSize) -> bool {
                true
            }
            fn load(&mut self, _a: u32, _s: AccessSize) -> u32 {
                0
            }
            fn store(&mut self, _a: u32, _s: AccessSize, _v: u32) {}
        }
        let prog = [I::Sb {
            rs1: Reg::X0,
            rs2: Reg::X0,
            offset: 0x7FF,
        }];
        let words: Vec<u32> = prog.iter().map(encode).collect();
        // RAM of 0x400 so 0x7FF is outside RAM -> goes to MMIO, but byte-sized.
        let mut m = SpecMachine::new(Memory::with_size(0x400), Always);
        m.load_program(0, &words);
        assert!(matches!(m.step(), Err(MachineError::MmioMisaligned { .. })));
    }
}
