//! The §7.2.1 performance decomposition: the paper reports the verified
//! system 10× slower than the unverified gcc+FE310 prototype, factored as
//!
//! ```text
//! 10× ≈ (1.4× SPI pipelining · 1.2× timeouts) · 2.1× compiler · 2.7× core
//! ```
//!
//! This binary regenerates the decomposition in *simulated cycles* of
//! packet-handover → GPIO-actuation latency, walking the same
//! configuration grid: each factor toggles exactly one design choice,
//! ending at the "unverified prototype analogue" (pipelined SPI driver, no
//! timeouts, optimizing compiler, idealized 1-IPC core). Absolute numbers
//! differ from the paper's testbed; the claim being reproduced is the
//! *shape*: every factor ≥ 1 and a several-fold product.

use bench::{emit_json, json_mode, packet_to_actuation_latency, render_table};
use lightbulb_system::compiler::{compile, CompileOptions, Entry, MmioExtCompiler};
use lightbulb_system::integration::{build_image, ProcessorKind, SystemConfig};
use lightbulb_system::lightbulb::{lightbulb_program, DriverOptions};
use obs::json::Value;

fn main() {
    let verified = SystemConfig::default();
    let spi_pipelined = SystemConfig {
        driver: DriverOptions {
            timeouts: true,
            pipelined_spi: true,
        },
        ..verified
    };
    let no_timeouts = SystemConfig {
        driver: DriverOptions {
            timeouts: false,
            pipelined_spi: true,
        },
        ..verified
    };
    let optimized = SystemConfig {
        optimize: true,
        ..no_timeouts
    };
    let fast_core = SystemConfig {
        processor: ProcessorKind::SingleCycle,
        ..optimized
    };

    let configs = [
        ("A: verified system (paper's shipping config)", verified),
        ("B: + SPI pipelining", spi_pipelined),
        ("C: + no timeout counters", no_timeouts),
        ("D: + optimizing compiler", optimized),
        ("E: + idealized 1-IPC core (FE310 stand-in)", fast_core),
    ];

    eprintln!("measuring packet→actuation latency (5 configurations)…");
    let lat: Vec<u64> = configs
        .iter()
        .map(|(name, c)| {
            let l = packet_to_actuation_latency(c, &build_image(c), 1234).cycles();
            eprintln!("  {name}: {l} cycles");
            l
        })
        .collect();

    let paper = [1.4, 1.2, 2.1, 2.7];
    let names = [
        "SPI pipelining",
        "timeout logic",
        "compiler optimizations",
        "processor",
    ];
    let mut rows = Vec::new();
    let mut product = 1.0;
    for i in 0..4 {
        let f = lat[i] as f64 / lat[i + 1] as f64;
        product *= f;
        rows.push(vec![
            names[i].to_string(),
            format!("{:.2}×", paper[i]),
            format!("{f:.2}×"),
            format!("{} → {}", lat[i], lat[i + 1]),
        ]);
    }
    rows.push(vec![
        "TOTAL".to_string(),
        "≈10×".to_string(),
        format!("{product:.2}×"),
        format!("{} → {}", lat[0], lat[4]),
    ]);

    if json_mode() {
        // The decomposition is the figure; the ablation and SPI sweep are
        // narrative extras, skipped in the machine-readable record.
        let factors = Value::Arr(
            (0..4)
                .map(|i| {
                    Value::obj()
                        .field("factor", Value::Str(names[i].to_string()))
                        .field("paper", Value::Float(paper[i]))
                        .field("measured", Value::Float(lat[i] as f64 / lat[i + 1] as f64))
                        .field("cycles_before", Value::UInt(lat[i]))
                        .field("cycles_after", Value::UInt(lat[i + 1]))
                })
                .collect(),
        );
        let grid = Value::Arr(
            configs
                .iter()
                .zip(&lat)
                .map(|((name, _), l)| {
                    Value::obj()
                        .field("config", Value::Str(name.to_string()))
                        .field("latency_cycles", Value::UInt(*l))
                })
                .collect(),
        );
        let data = Value::obj()
            .field("configs", grid)
            .field("factors", factors)
            .field("total_measured", Value::Float(product))
            .field("total_paper", Value::Float(10.0));
        emit_json("fig_perf", data);
        return;
    }

    println!();
    print!(
        "{}",
        render_table(
            "§7.2.1: latency decomposition, verified vs unverified-prototype analogue",
            &["factor", "paper", "measured", "cycles"],
            &rows
        )
    );
    println!();
    println!("shape check: every factor should be ≥ ~1 and the product several-fold.");
    println!("(absolute values are simulated cycles; the paper measured 5.5 ms vs");
    println!("0.55 ms on a 12 MHz FPGA and a 320 MHz-class FE310.)");

    // Design-choice ablation: what does the register allocator buy? The
    // paper implemented it as one of its few optimizations (§7.2); the
    // spill-everything mode removes it.
    eprintln!("\nmeasuring the register-allocation ablation…");
    let spill_all = compile(
        &lightbulb_program(verified.driver),
        &MmioExtCompiler,
        &CompileOptions {
            stack_top: verified.ram_bytes,
            stack_size: Some(verified.ram_bytes / 4),
            entry: Entry::EventLoop {
                init: Some("lightbulb_init".to_string()),
                step: "lightbulb_loop".to_string(),
            },
            optimize: false,
            spill_everything: true,
        },
    )
    .expect("spill-all image compiles");
    let spill_latency = packet_to_actuation_latency(&verified, &spill_all, 1234).cycles();
    println!();
    println!(
        "register-allocation ablation: {} cycles with regalloc vs {} spilling \
         everything ({:.2}× — what the allocator buys)",
        lat[0],
        spill_latency,
        spill_latency as f64 / lat[0] as f64
    );

    // Second observation of §7.2.1: "the vast majority of the running time
    // is spent transferring incoming packet data … over SPI". Sweep the
    // SPI wire speed: if the system is SPI-bound, latency tracks it.
    eprintln!("\nsweeping SPI wire speed (cycles per byte)…");
    let mut rows = Vec::new();
    let mut prev: Option<u64> = None;
    for cpb in [2u32, 8, 32, 128] {
        let cfg = SystemConfig {
            spi: lightbulb_system::devices::SpiConfig {
                cycles_per_byte: cpb,
            },
            ..verified
        };
        let l = packet_to_actuation_latency(&cfg, &build_image(&cfg), 99).cycles();
        let growth = prev.map_or("—".to_string(), |p| {
            format!("{:.2}×", l as f64 / p as f64)
        });
        prev = Some(l);
        rows.push(vec![format!("{cpb}"), l.to_string(), growth]);
    }
    println!();
    print!(
        "{}",
        render_table(
            "§7.2.1: SPI-boundedness — latency vs SPI cycles/byte (verified config)",
            &["SPI cycles/byte", "latency (cycles)", "growth"],
            &rows
        )
    );
    println!();
    println!("shape check: at high SPI cost the latency grows with the wire speed,");
    println!("confirming the packet transfer dominates (the paper's observation).");
}
