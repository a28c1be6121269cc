//! The lightbulb application (the `lightbulb` source file of §5.1): an
//! infinite loop that polls the network card for packets, validates them,
//! and switches the lightbulb.
//!
//! Validation is deliberately simple and lax, like the paper's: frame
//! length bounds (enforced in the driver), EtherType = IPv4, IP protocol =
//! UDP, and the configured destination port. Anything else — "no matter
//! how maliciously malformed at any layer" — falls through without
//! touching the GPIO.

use crate::layout;
use bedrock2::ast::{Function, Program};
use bedrock2::dsl::*;

/// Options selecting which variant of the stack to build — the §7.2.1
/// configuration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverOptions {
    /// Bounded polling loops that report errors instead of hanging (the
    /// verified configuration; disabling reproduces the paper's unverified
    /// prototype, 1.2× faster).
    pub timeouts: bool,
    /// FE310-style SPI pipelining (disabled in the verified configuration,
    /// 1.4× slower).
    pub pipelined_spi: bool,
}

impl Default for DriverOptions {
    /// The verified configuration: timeouts on, pipelining off.
    fn default() -> DriverOptions {
        DriverOptions {
            timeouts: true,
            pipelined_spi: false,
        }
    }
}

/// `lightbulb_init()`: enable the GPIO output and bring up the Ethernet
/// controller, with bounded retries if the chip is slow to answer.
pub fn lightbulb_init() -> Function {
    let body = block([
        interact(
            &[],
            "MMIOWRITE",
            [lit(layout::GPIO_OUTPUT_EN), lit(layout::LIGHTBULB_MASK)],
        ),
        call(&["err"], "lan_init_retry", []),
    ]);
    Function::new("lightbulb_init", &[], &["err"], body)
}

/// `lightbulb_loop()`: one event-loop iteration.
///
/// On a persistent RX failure (`code` 3: SPI exchanges timing out) the
/// loop degrades gracefully — the bulb keeps its last commanded state (no
/// GPIO access on this path) and the driver re-enters the bounded
/// bring-up sequence via `lan_recover` before the next poll.
pub fn lightbulb_loop() -> Function {
    let body = stackalloc(
        "buf",
        layout::RX_BUFFER_BYTES,
        block([
            call(&["len", "code"], "lan_tryrecv", [var("buf")]),
            when(
                eq(var("code"), lit(3)),
                block([call(&["e"], "lan_recover", [])]),
            ),
            when(
                eq(var("code"), lit(0)),
                block([
                    set(
                        "ethertype",
                        or(
                            slu(load1(add(var("buf"), lit(12))), lit(8)),
                            load1(add(var("buf"), lit(13))),
                        ),
                    ),
                    set("proto", load1(add(var("buf"), lit(23)))),
                    set(
                        "port",
                        or(
                            slu(load1(add(var("buf"), lit(36))), lit(8)),
                            load1(add(var("buf"), lit(37))),
                        ),
                    ),
                    set(
                        "ok",
                        and(
                            and(eq(var("ethertype"), lit(0x0800)), eq(var("proto"), lit(17))),
                            eq(var("port"), lit(layout::LIGHTBULB_PORT)),
                        ),
                    ),
                    when(
                        var("ok"),
                        block([
                            set("cmd", load1(add(var("buf"), lit(layout::CMD_BYTE_OFFSET)))),
                            interact(&["v"], "MMIOREAD", [lit(layout::GPIO_OUTPUT_VAL)]),
                            if_(
                                and(var("cmd"), lit(1)),
                                set("v2", or(var("v"), lit(layout::LIGHTBULB_MASK))),
                                set("v2", and(var("v"), lit(!layout::LIGHTBULB_MASK))),
                            ),
                            interact(&[], "MMIOWRITE", [lit(layout::GPIO_OUTPUT_VAL), var("v2")]),
                        ]),
                    ),
                ]),
            ),
        ]),
    );
    Function::new("lightbulb_loop", &[], &[], body)
}

/// The complete lightbulb program: SPI driver, LAN9250 driver, and
/// application, in the selected configuration.
pub fn lightbulb_program(opts: DriverOptions) -> Program {
    let mut fns = crate::spi_driver::functions(opts.timeouts);
    fns.extend(crate::lan9250_driver::functions(
        opts.timeouts,
        opts.pipelined_spi,
    ));
    fns.push(lightbulb_init());
    fns.push(lightbulb_loop());
    Program::from_functions(fns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::MmioBridge;
    use bedrock2::semantics::Interp;
    use devices::workload::{Malformation, TrafficGen};
    use devices::Board;
    use riscv_spec::Memory;

    fn booted_interp(p: &Program) -> Interp<'_, MmioBridge<Board>> {
        let mut i = Interp::new(
            p,
            Memory::with_size(0x1_0000),
            MmioBridge::new(Board::default()),
        );
        let out = i
            .call("lightbulb_init", &[])
            .expect("lightbulb_init is UB-free on a healthy board");
        assert_eq!(out, vec![0], "init must succeed");
        i
    }

    #[test]
    fn program_is_well_formed() {
        for opts in [
            DriverOptions::default(),
            DriverOptions {
                timeouts: false,
                pipelined_spi: true,
            },
        ] {
            assert!(lightbulb_program(opts).check().is_empty());
        }
    }

    #[test]
    fn valid_commands_switch_the_lightbulb() {
        let p = lightbulb_program(DriverOptions::default());
        let mut i = booted_interp(&p);
        let mut gen = TrafficGen::new(11);
        for on in [true, false, true] {
            i.ext.dev.inject_frame(&gen.command(on));
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop is UB-free");
            assert_eq!(i.ext.dev.lightbulb_on(), on);
        }
    }

    #[test]
    fn polling_with_no_traffic_does_nothing() {
        let p = lightbulb_program(DriverOptions::default());
        let mut i = booted_interp(&p);
        for _ in 0..3 {
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop is UB-free");
        }
        assert!(!i.ext.dev.lightbulb_on());
        assert!(i.ext.dev.gpio.writes.is_empty());
    }

    #[test]
    fn every_malformation_is_ignored() {
        let p = lightbulb_program(DriverOptions::default());
        let mut i = booted_interp(&p);
        let mut gen = TrafficGen::new(23);
        // Turn it on first so we'd notice an accidental turn-off too.
        i.ext.dev.inject_frame(&gen.command(true));
        i.call("lightbulb_loop", &[])
            .expect("lightbulb_loop is UB-free");
        assert!(i.ext.dev.lightbulb_on());
        let writes_before = i.ext.dev.gpio.writes.len();
        for kind in Malformation::ALL {
            i.ext.dev.inject_frame(&gen.malformed(kind));
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop is UB-free");
            assert!(
                i.ext.dev.lightbulb_on(),
                "{kind:?} must not switch the bulb"
            );
        }
        assert_eq!(
            i.ext.dev.gpio.writes.len(),
            writes_before,
            "malformed traffic must cause no GPIO writes at all"
        );
    }

    #[test]
    fn giant_frames_never_overrun_the_buffer() {
        // The interpreter turns any out-of-bounds store into a Ub error,
        // so simply *finishing* this run is the overrun check.
        let p = lightbulb_program(DriverOptions::default());
        let mut i = booted_interp(&p);
        let mut gen = TrafficGen::new(29);
        for _ in 0..5 {
            i.ext
                .dev
                .inject_frame(&gen.malformed(Malformation::GiantFrame));
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop is UB-free");
        }
        assert_eq!(i.ext.dev.spi.slave.frames_discarded, 5);
    }

    #[test]
    fn pipelined_driver_behaves_identically() {
        let p = lightbulb_program(DriverOptions {
            timeouts: true,
            pipelined_spi: true,
        });
        let mut i = booted_interp(&p);
        let mut gen = TrafficGen::new(31);
        i.ext.dev.inject_frame(&gen.command(true));
        i.call("lightbulb_loop", &[])
            .expect("lightbulb_loop is UB-free");
        assert!(i.ext.dev.lightbulb_on());
        i.ext
            .dev
            .inject_frame(&gen.malformed(Malformation::WrongPort));
        i.call("lightbulb_loop", &[])
            .expect("lightbulb_loop is UB-free");
        assert!(i.ext.dev.lightbulb_on());
    }

    #[test]
    fn pipelined_and_interleaved_agree_on_behavior() {
        // At interpreter granularity device time advances one tick per MMIO
        // call, so both drivers are SPI-throughput-bound and take the same
        // wall time; the 1.4× of §7.2.1 appears at the cycle-accurate level
        // (`fig_perf`'s SPI-pipelining factor). Here we check the two
        // schedules are genuinely different on the wire yet behaviorally
        // identical.
        let mut ticks = Vec::new();
        let mut events = Vec::new();
        for pipelined_spi in [false, true] {
            let p = lightbulb_program(DriverOptions {
                timeouts: true,
                pipelined_spi,
            });
            let mut i = booted_interp(&p);
            let mut gen = TrafficGen::new(37);
            let t0 = i.ext.dev.ticks;
            let e0 = i.ext.events.len();
            i.ext.dev.inject_frame(&gen.command(true));
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop is UB-free");
            assert!(i.ext.dev.lightbulb_on());
            ticks.push(i.ext.dev.ticks - t0);
            events.push(i.ext.events[e0..].to_vec());
        }
        assert!(
            ticks[1] <= ticks[0],
            "pipelining must not be slower: {ticks:?}"
        );
        assert_ne!(events[0], events[1], "the wire schedules must differ");
    }
}
