//! Program-logic verification of the real driver code (§4.1, §6.1): the
//! symbolic executor discharges, for the actual `spi_put`/`spi_get`
//! sources, the MMIO external-call preconditions (`vcextern`) — address in
//! range, word aligned — for **all** inputs, not just tested ones. This is
//! the fragment of the paper's driver proofs our prover can carry; the
//! rest of the stack is covered differentially.
//!
//! Each proof's `(obligations, paths)` is pinned exactly, and each negative
//! control's failing context too: a change to the executor or the solver
//! that alters what the real drivers generate or prove shows up here.

use bedrock2::Program;
use lightbulb::layout;
use lightbulb::spi_driver;
use proglogic::symexec::{Invariant, MmioExtSpec, SymExec, VcError};
use proglogic::{Formula, Term};
use std::rc::Rc;

fn mmio_spec() -> MmioExtSpec {
    MmioExtSpec {
        ranges: layout::mmio_ranges(),
    }
}

fn trivial_invariant(havoc: &[&str]) -> Invariant {
    Invariant {
        havoc: havoc.iter().map(|s| s.to_string()).collect(),
        holds: Rc::new(|_| vec![]),
    }
}

#[test]
fn spi_put_mmio_accesses_verify_for_all_inputs() {
    // spi_put(b): every MMIOREAD/MMIOWRITE it performs must hit a legal
    // word-aligned platform address, whatever b is. The polling loop gets
    // the trivial invariant with its modified locals havoced.
    let p = Program::from_functions([spi_driver::spi_put(true)]);
    let mut se = SymExec::new(&p, mmio_spec());
    se.set_invariant(0, trivial_invariant(&["v", "i"]));
    let report = se
        .check_function("spi_put", |st| vec![st.fresh("b")], |_st, _rets| vec![])
        .expect("spi_put must satisfy the MMIO contract");
    // Reads and the write each carry obligations; err and ok paths both
    // explored.
    assert_eq!((report.obligations, report.paths), (6, 2));
}

#[test]
fn spi_get_result_is_a_byte() {
    // spi_get() -> (r, err): besides the MMIO contract, on every path the
    // result r fits in a byte — the guarantee the LAN9250 driver's word
    // reassembly (b0 | b1<<8 | …) silently relies on.
    let p = Program::from_functions([spi_driver::spi_get(true)]);
    let mut se = SymExec::new(&p, mmio_spec());
    se.set_invariant(0, trivial_invariant(&["v", "i"]));
    let report = se
        .check_function(
            "spi_get",
            |_st| vec![],
            |_st, rets| vec![Formula::ltu(&rets[0], &Term::constant(256))],
        )
        .expect("spi_get returns a byte on every path");
    assert_eq!((report.obligations, report.paths), (5, 1));
}

#[test]
fn spi_get_error_flag_is_boolean() {
    let p = Program::from_functions([spi_driver::spi_get(true)]);
    let mut se = SymExec::new(&p, mmio_spec());
    se.set_invariant(0, trivial_invariant(&["v", "i"]));
    let report = se
        .check_function(
            "spi_get",
            |_st| vec![],
            |_st, rets| vec![Formula::ltu(&rets[1], &Term::constant(2))],
        )
        .expect("err is 0 or 1");
    assert_eq!((report.obligations, report.paths), (5, 1));
}

#[test]
fn an_unguarded_mmio_access_would_fail_verification() {
    // Negative control for the harness: a driver writing to an arbitrary
    // address must be rejected by the same machinery.
    use bedrock2::dsl::*;
    use bedrock2::Function;
    let evil = Function::new(
        "evil",
        &["a"],
        &[],
        interact(&[], "MMIOWRITE", [var("a"), lit(1)]),
    );
    let p = Program::from_functions([evil]);
    let se = SymExec::new(&p, mmio_spec());
    let err = se.check_function("evil", |st| vec![st.fresh("a")], |_, _| vec![]);
    match err {
        Err(VcError::ProofFailed { context, .. }) => {
            assert_eq!(context, "precondition of MMIOWRITE")
        }
        other => panic!("the unguarded write must be unprovable: {other:?}"),
    }
}

#[test]
fn the_no_timeout_variant_fails_only_for_want_of_an_invariant_budget() {
    // Without timeouts the polling loop is unbounded; with the trivial
    // invariant it still verifies (the invariant machinery does not need
    // termination for the safety obligations).
    let p = Program::from_functions([spi_driver::spi_put(false)]);
    let mut se = SymExec::new(&p, mmio_spec());
    se.set_invariant(0, trivial_invariant(&["v"]));
    let report = se
        .check_function("spi_put", |st| vec![st.fresh("b")], |_, _| vec![])
        .expect("safety holds even for the non-total variant");
    assert_eq!((report.obligations, report.paths), (6, 1));
}

/// The headline driver proof (§3's buffer-overrun story, as a ∀ check):
/// `lan_tryrecv` is memory-safe for **every** frame length the device
/// could report — the symbolic executor explores the length guard both
/// ways, proves every buffer access in bounds and aligned (including the
/// symbolic-index stores `buf + 4·i` of the copy loop, using the loop
/// condition `i < n` and the guard `43 ≤ len ≤ 1520`), and proves every
/// MMIO access within the platform ranges.
#[test]
fn lan_tryrecv_is_memory_safe_for_all_frame_lengths() {
    let mut fns = lightbulb::spi_driver::functions(true);
    fns.extend(lightbulb::lan9250_driver::functions(true, false));
    let p = Program::from_functions(fns);
    let mut se = SymExec::new(&p, mmio_spec());
    se.auto_invariants = true;
    let report = se
        .check_function(
            "lan_tryrecv",
            |st| vec![st.add_region("buf", lightbulb::layout::RX_BUFFER_BYTES)],
            |_st, rets| {
                // The result code is one of 0..=3 on every path.
                vec![proglogic::Formula::ltu(
                    &rets[1],
                    &proglogic::Term::constant(4),
                )]
            },
        )
        .expect("lan_tryrecv must be safe for all frame lengths");
    // Guard and error paths all explored; MMIO and buffer obligations
    // discharged on each.
    assert_eq!((report.obligations, report.paths), (6499, 387));
}

/// Negative control — the exact bug class the paper's first prototype had
/// ("a large frame overrunning a statically allocated buffer in the
/// driver"): remove the length guard and verification must fail on the
/// copy loop's bounds obligation, just as the paper reports "an
/// unprovable Coq goal during the development of our Ethernet driver".
#[test]
fn removing_the_length_guard_is_caught() {
    use bedrock2::ast::Stmt;

    fn strip_guard(s: &Stmt) -> Stmt {
        match s {
            // The guard is the `if (len < MIN) | (MAX < len)` branch whose
            // then-arm discards the frame: replace the whole conditional
            // with its else-arm (always copy — the overrun).
            Stmt::If(c, t, e) => {
                let is_guard = format!("{c:?}").contains("1520");
                if is_guard {
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

    let mut fns = lightbulb::spi_driver::functions(true);
    fns.extend(lightbulb::lan9250_driver::functions(true, false));
    let mut p = Program::from_functions(fns);
    let buggy = {
        let f = p.functions.get_mut("lan_tryrecv").unwrap();
        f.body = strip_guard(&f.body);
        p
    };
    let mut se = SymExec::new(&buggy, mmio_spec());
    se.auto_invariants = true;
    let err = se.check_function(
        "lan_tryrecv",
        |st| vec![st.add_region("buf", lightbulb::layout::RX_BUFFER_BYTES)],
        |_, _| vec![],
    );
    match err {
        Err(VcError::ProofFailed { context, .. }) => {
            assert_eq!(context, "bounds of symbolic access into 'buf'")
        }
        other => panic!("the overrun must be unprovable: {other:?}"),
    }
}
