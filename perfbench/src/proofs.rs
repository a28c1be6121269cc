//! The `driver_proofs` workload: the symbolic-execution proofs of the real
//! driver code, with two negative controls.

use crate::tracer::Tracer;
use crate::{unit_seed, Counts, Inputs, Outcome, Verdict, Workload};
use bedrock2::ast::{Program, Stmt};
use bedrock2::dsl::{interact, lit, var};
use bedrock2::Function;
use lightbulb::{lan9250_driver, layout, spi_driver};
use proglogic::symexec::{Invariant, MmioExtSpec, SymExec, VcError, VcReport};
use proglogic::{Formula, Term};
use std::rc::Rc;

/// Suites whose counts are reported. One suite takes about 0.4 s on a
/// 2-CPU Xeon VM.
const COUNTED: usize = 4;

/// The proofs, as `crates/lightbulb/tests/driver_verification.rs` states
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proof {
    /// `spi_put` meets the MMIO contract for every byte.
    SpiPut,
    /// `spi_put` without timeouts still meets it.
    SpiPutNoTimeout,
    /// `spi_get` returns a byte on every path.
    SpiGetByte,
    /// `spi_get`'s error flag is 0 or 1.
    SpiGetErrFlag,
    /// `lan_tryrecv` is memory-safe for every frame length.
    LanTryrecv,
    /// Negative control: an MMIO write to an unchecked address.
    UnguardedWrite,
    /// Negative control: `lan_tryrecv` with its length guard removed.
    LanTryrecvNoGuard,
}

const PROOFS: [Proof; 7] = [
    Proof::SpiPut,
    Proof::SpiPutNoTimeout,
    Proof::SpiGetByte,
    Proof::SpiGetErrFlag,
    Proof::LanTryrecv,
    Proof::UnguardedWrite,
    Proof::LanTryrecvNoGuard,
];

pub struct DriverProofs {
    spi_put: Program,
    spi_put_no_timeout: Program,
    spi_get: Program,
    lan: Program,
    lan_no_guard: Program,
    unguarded: Program,
    /// One proof order per unit, drawn from the unit's seed.
    orders: Inputs<[Proof; 7]>,
}

impl DriverProofs {
    pub fn setup(seed: u64) -> DriverProofs {
        let mut lan_fns = spi_driver::functions(true);
        lan_fns.extend(lan9250_driver::functions(true, false));
        let lan = Program::from_functions(lan_fns);
        let mut lan_no_guard = lan.clone();
        let f = lan_no_guard
            .functions
            .get_mut("lan_tryrecv")
            .expect("the LAN9250 driver defines lan_tryrecv");
        f.body = strip_guard(&f.body);
        let unguarded = Function::new(
            "evil",
            &["a"],
            &[],
            interact(&[], "MMIOWRITE", [var("a"), lit(1)]),
        );
        DriverProofs {
            spi_put: Program::from_functions([spi_driver::spi_put(true)]),
            spi_put_no_timeout: Program::from_functions([spi_driver::spi_put(false)]),
            spi_get: Program::from_functions([spi_driver::spi_get(true)]),
            lan,
            lan_no_guard,
            unguarded: Program::from_functions([unguarded]),
            orders: Inputs::new(seed, COUNTED, shuffled),
        }
    }

    fn prove(&self, proof: Proof) -> Result<VcReport, VcError> {
        let ext = || MmioExtSpec {
            ranges: layout::mmio_ranges(),
        };
        let trivial = |havoc: &[&str]| Invariant {
            havoc: havoc.iter().map(|s| s.to_string()).collect(),
            holds: Rc::new(|_| vec![]),
        };
        match proof {
            Proof::SpiPut | Proof::SpiPutNoTimeout => {
                let (p, havoc): (_, &[&str]) = if proof == Proof::SpiPut {
                    (&self.spi_put, &["v", "i"])
                } else {
                    (&self.spi_put_no_timeout, &["v"])
                };
                let mut se = SymExec::new(p, ext());
                se.set_invariant(0, trivial(havoc));
                se.check_function("spi_put", |st| vec![st.fresh("b")], |_, _| vec![])
            }
            Proof::SpiGetByte | Proof::SpiGetErrFlag => {
                let (ret, bound) = if proof == Proof::SpiGetByte {
                    (0, 256)
                } else {
                    (1, 2)
                };
                let mut se = SymExec::new(&self.spi_get, ext());
                se.set_invariant(0, trivial(&["v", "i"]));
                se.check_function(
                    "spi_get",
                    |_| vec![],
                    |_, rets| vec![Formula::ltu(&rets[ret], &Term::constant(bound))],
                )
            }
            Proof::LanTryrecv | Proof::LanTryrecvNoGuard => {
                let p = if proof == Proof::LanTryrecv {
                    &self.lan
                } else {
                    &self.lan_no_guard
                };
                let mut se = SymExec::new(p, ext());
                se.auto_invariants = true;
                se.check_function(
                    "lan_tryrecv",
                    |st| vec![st.add_region("buf", layout::RX_BUFFER_BYTES)],
                    |_, rets| vec![Formula::ltu(&rets[1], &Term::constant(4))],
                )
            }
            Proof::UnguardedWrite => SymExec::new(&self.unguarded, ext()).check_function(
                "evil",
                |st| vec![st.fresh("a")],
                |_, _| vec![],
            ),
        }
    }
}

/// Compares one proof's result with its known answer, as the driver
/// verification tests do.
fn known_answer(proof: Proof, result: &Result<VcReport, VcError>) -> Result<(), String> {
    let ok = match (proof, result) {
        (Proof::SpiPut, Ok(r)) => r.obligations >= 4 && r.paths >= 2,
        (Proof::LanTryrecv, Ok(r)) => r.paths >= 4 && r.obligations > 50,
        (Proof::SpiPutNoTimeout | Proof::SpiGetByte | Proof::SpiGetErrFlag, Ok(_)) => true,
        (Proof::UnguardedWrite, Err(VcError::ProofFailed { .. })) => true,
        (Proof::LanTryrecvNoGuard, Err(VcError::ProofFailed { context, .. })) => {
            context.contains("bounds")
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{proof:?}: {result:?}"))
    }
}

impl DriverProofs {
    fn run(&self, i: usize, prove: impl Fn(Proof) -> Result<VcReport, VcError>) -> Outcome {
        let mut counts = Counts::new();
        let mut wrong = Vec::new();
        let mut key = String::new();
        for &proof in self.orders.get(i) {
            let result = prove(proof);
            if let Ok(r) = &result {
                *counts.entry("proglogic.symexec.obligations").or_default() += r.obligations as u64;
                *counts.entry("proglogic.symexec.paths").or_default() += r.paths as u64;
            }
            if let Err(e) = known_answer(proof, &result) {
                wrong.push(e);
            }
            key += &format!("{proof:?}={:?};", result.map(|r| (r.obligations, r.paths)));
        }
        Outcome {
            verdict: if wrong.is_empty() {
                Verdict::Correct
            } else {
                Verdict::Wrong(wrong.join("; "))
            },
            key,
            counts,
        }
    }
}

impl Workload for DriverProofs {
    fn counted_units(&self) -> usize {
        self.orders.counted()
    }

    fn prepare(&mut self, i: usize) {
        self.orders.prepare(i);
    }

    fn check(&self, i: usize) -> Outcome {
        self.run(i, |proof| self.prove(proof))
    }

    fn check_traced(&self, i: usize, tr: &Tracer) -> Outcome {
        self.run(i, |proof| {
            tr.span("proglogic.symexec", || self.prove(proof))
        })
    }
}

/// The seven proofs in an order drawn from `seed` (Fisher–Yates).
fn shuffled(seed: u64) -> [Proof; 7] {
    let mut order = PROOFS;
    for i in (1..order.len()).rev() {
        let j = (unit_seed(seed, i) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Replaces `lan_tryrecv`'s length guard (the conditional whose then-arm
/// discards frames outside 43..=1520 bytes) by its else-arm, so every
/// frame is copied: the buffer overrun the paper's first prototype had.
fn strip_guard(s: &Stmt) -> Stmt {
    match s {
        Stmt::If(c, t, e) => {
            if format!("{c:?}").contains("1520") {
                (**e).clone()
            } else {
                Stmt::If(
                    c.clone(),
                    Box::new(strip_guard(t)),
                    Box::new(strip_guard(e)),
                )
            }
        }
        Stmt::Block(ss) => Stmt::Block(ss.iter().map(strip_guard).collect()),
        Stmt::While(c, b) => Stmt::While(c.clone(), Box::new(strip_guard(b))),
        Stmt::Stackalloc(x, n, b) => Stmt::Stackalloc(x.clone(), *n, Box::new(strip_guard(b))),
        other => other.clone(),
    }
}
