//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fault_sweep|diff_programs|driver_proofs|triage> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, closed loop: the next check starts when the
//! previous verdict returns. Every verdict is compared with its known
//! answer. With `--trace 0` each check calls the workload's public entry
//! point and the run reports the end-to-end metrics; with `--trace 1` each
//! check also runs as a composition of the per-layer public calls, each
//! inside a span, and the run reports the per-layer metrics. The last line
//! of standard output is the result object; the line before it records
//! the run's context. See `perfbench/README.md`.

mod diff;
mod fault;
mod proofs;
mod tracer;

use obs::json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::{LayerTimes, Tracer};

/// Deterministic counts of one check, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// A check's verdict against its known answer.
#[derive(Debug)]
pub enum Verdict {
    /// The verdict is the known answer.
    Correct,
    /// The input lies outside what the check can decide (a source program
    /// with undefined behaviour). Not a failure.
    Inconclusive,
    /// The verdict differs from the known answer.
    Wrong(String),
}

/// What one check returned.
pub struct Outcome {
    pub verdict: Verdict,
    /// The full verdict, rendered: the traced composition must produce the
    /// same string as the untraced entry point.
    pub key: String,
    pub counts: Counts,
}

/// A workload: one input per unit, made from the unit's seed, checked one
/// unit at a time.
pub trait Workload {
    /// The leading units whose inputs set-up makes and whose counts are
    /// reported. Every run checks at least these, so the reported counts
    /// are fixed by the seed.
    fn counted_units(&self) -> usize;
    /// Makes unit `i`'s input ready, outside the timed check.
    fn prepare(&mut self, i: usize);
    /// Checks unit `i` through the public entry point.
    fn check(&self, i: usize) -> Outcome;
    /// Checks unit `i` as a composition of the per-layer public calls, each
    /// inside a span of `tr`.
    fn check_traced(&self, i: usize, tr: &Tracer) -> Outcome;
}

/// A workload's inputs, one per unit, made from the unit's seed. Set-up
/// makes the counted units' inputs; each later one is made just before its
/// check, untimed. No input repeats within a run, so the run's mix of
/// inputs, and with it the median and tail, varies little between seeds.
pub struct Inputs<T> {
    seed: u64,
    make: fn(u64) -> T,
    counted: Vec<T>,
    later: Option<(usize, T)>,
}

impl<T> Inputs<T> {
    pub fn new(seed: u64, counted: usize, make: fn(u64) -> T) -> Inputs<T> {
        Inputs {
            seed,
            make,
            counted: (0..counted).map(|i| make(unit_seed(seed, i))).collect(),
            later: None,
        }
    }

    pub fn counted(&self) -> usize {
        self.counted.len()
    }

    pub fn prepare(&mut self, i: usize) {
        if i >= self.counted.len() && self.later.as_ref().map(|(j, _)| *j) != Some(i) {
            self.later = Some((i, (self.make)(unit_seed(self.seed, i))));
        }
    }

    pub fn get(&self, i: usize) -> &T {
        match &self.later {
            _ if i < self.counted.len() => &self.counted[i],
            Some((j, input)) if *j == i => input,
            _ => panic!("the input of unit {i} was not prepared"),
        }
    }
}

/// The seed of unit `i` of a run seeded with `seed` (SplitMix64).
pub fn unit_seed(seed: u64, i: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(seed) ^ i as u64)
}

const WORKLOADS: [&str; 4] = ["fault_sweep", "diff_programs", "driver_proofs", "triage"];

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "fault_sweep" => Box::new(fault::FaultSweep::setup(seed)),
        "diff_programs" => Box::new(diff::DiffPrograms::setup(seed)),
        "driver_proofs" => Box::new(proofs::DriverProofs::setup(seed)),
        "triage" => Box::new(fault::Triage::setup(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Set-up runs this many times before the first check.
const SETUP_REPEATS: usize = 5;
/// Between checks, set-up runs again while the loop has spent less than
/// this share of its time on it. `setup_s` is the median of every set-up,
/// so it samples the host over the whole run, as the check times do. A
/// set-up takes 0.1 to 50 ms, and the host's speed changes within a
/// fraction of a second, so back-to-back repeats sample one moment only.
const SETUP_SHARE: f64 = 0.05;
/// The leading units checked once each, untimed, before the closed loop,
/// with a peak-RSS reading around each.
const MEMORY_UNITS: usize = 3;
/// `verdict_ms_tail` is the highest percentile with this many samples
/// beyond it.
const TAIL_BEYOND: usize = 10;

/// Layers timed by spans, with their per-layer metric names.
const LAYERS: [(&str, &str); 12] = [
    ("compiler", "compiler.busy_s"),
    ("bedrock2.interp", "bedrock2.interp.busy_s"),
    ("riscv.spec", "riscv.spec.busy_s"),
    ("processor.pipelined", "processor.pipelined.busy_s"),
    ("processor.single_cycle", "processor.single_cycle.busy_s"),
    ("processor.refinement", "processor.refinement.busy_s"),
    ("proglogic.trace", "proglogic.trace.busy_s"),
    ("proglogic.symexec", "proglogic.symexec.busy_s"),
    ("lightbulb.spec_build", "lightbulb.spec_build_s"),
    ("lightbulb.probe", "lightbulb.probe_s"),
    ("core.fault_check", "core.fault_check.busy_s"),
    ("core.triage", "core.triage.busy_s"),
];

/// Deterministic counts, reported as totals over the counted units.
const COUNTS: [&str; 16] = [
    "compiler.calls",
    "compiler.image_bytes",
    "riscv.spec.steps",
    "processor.pipelined.cycles",
    "processor.single_cycle.cycles",
    "core.replay.events",
    "devices.faults_injected",
    "devices.frames_delivered",
    "proglogic.trace.events",
    "proglogic.symexec.obligations",
    "proglogic.symexec.paths",
    "core.sweep.wasted_cycles",
    "core.triage.probes",
    "core.triage.atoms_before",
    "core.triage.atoms_after",
    "core.diff.programs",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fault_sweep|diff_programs|driver_proofs|triage> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Everything a run measured.
#[derive(Default)]
struct Tally {
    /// Units whose counts are reported.
    counted_units: usize,
    /// Timed checks of the closed loop.
    checks: u64,
    /// Untimed checks before the loop.
    warm_checks: u64,
    wrong: u64,
    panicked: u64,
    inconclusive: u64,
    traced_mismatch: u64,
    count_guard: u64,
    /// Failed checks: any of the above except `inconclusive`.
    failed: u64,
    /// Set-up times in s.
    setup_s: Vec<f64>,
    /// Untraced check times in ms.
    plain_ms: Vec<f64>,
    /// Peak RSS in MiB during each untimed check before the loop.
    rss_mb: Vec<f64>,
    /// Traced runs: traced check times in ms.
    traced_ms: Vec<f64>,
    /// Traced runs: traced minus untraced time of each unit, in ms.
    overhead_ms: Vec<f64>,
    /// Traced runs: span self times and glue over all checks.
    layer_ns: LayerTimes,
    glue_ns: u64,
    /// Counts summed over every timed check.
    run_counts: Counts,
    /// Counts summed over the timed checks of the counted units.
    counted_counts: Counts,
    /// Counts of each unit's first check, the traced composition's where
    /// it ran. A later traced check of the unit must repeat them exactly,
    /// a later untraced check every count it reports.
    first_counts: BTreeMap<usize, Counts>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (Option<T>, f64) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Whether every count in `part` has the same value in `whole`.
fn agree(part: &Counts, whole: &Counts) -> bool {
    part.iter().all(|(k, v)| whole.get(k) == Some(v))
}

impl Tally {
    /// Records the times of one timed check: the entry point's and, in a
    /// traced run, the traced composition's with its layer self times.
    fn time(&mut self, plain_ms: f64, traced: Option<(f64, LayerTimes)>) {
        self.plain_ms.push(plain_ms);
        if let Some((ms, layers)) = traced {
            self.traced_ms.push(ms);
            self.overhead_ms.push(ms - plain_ms);
            let self_ns: u64 = layers.values().sum();
            self.glue_ns += ((ms * 1e6) as u64).saturating_sub(self_ns);
            for (layer, ns) in layers {
                *self.layer_ns.entry(layer).or_default() += ns;
            }
        }
    }

    /// Checks and records the outcome of one check of `unit`: the entry
    /// point's and, when it ran, the traced composition's.
    fn record(
        &mut self,
        unit: usize,
        plain: Option<Outcome>,
        traced: Option<Option<Outcome>>,
        timed: bool,
    ) {
        if timed {
            self.checks += 1;
        } else {
            self.warm_checks += 1;
        }
        let is_traced = traced.is_some();
        let mut outcomes = vec![plain];
        outcomes.extend(traced);
        if outcomes.iter().any(Option::is_none) {
            self.panicked += 1;
            self.failed += 1;
            return;
        }
        let outcomes: Vec<Outcome> = outcomes.into_iter().flatten().collect();
        let mut failed = false;
        match &outcomes[0].verdict {
            Verdict::Correct => {}
            Verdict::Inconclusive => self.inconclusive += 1,
            Verdict::Wrong(why) => {
                if self.wrong < 5 {
                    eprintln!("perfbench: wrong verdict on unit {unit}: {why}");
                }
                self.wrong += 1;
                failed = true;
            }
        }
        // The counts of the richest composition stand for the check; every
        // count the untraced entry point also reports must agree with it.
        let counts = &outcomes[outcomes.len() - 1].counts;
        if let [plain, traced] = &outcomes[..] {
            if plain.key != traced.key || !agree(&plain.counts, &traced.counts) {
                eprintln!(
                    "perfbench: traced composition disagrees on unit {unit}:\n  \
                     entry point: {} {:?}\n  traced:      {} {:?}",
                    plain.key, plain.counts, traced.key, traced.counts
                );
                self.traced_mismatch += 1;
                failed = true;
            }
        }
        match self.first_counts.get(&unit) {
            Some(first) => {
                let repeats = if is_traced {
                    first == counts
                } else {
                    agree(counts, first)
                };
                if !repeats {
                    eprintln!(
                        "perfbench: counts of unit {unit} changed: {first:?} then {counts:?}"
                    );
                    self.count_guard += 1;
                    failed = true;
                }
            }
            None => {
                self.first_counts.insert(unit, counts.clone());
            }
        }
        if timed {
            for (k, v) in counts {
                *self.run_counts.entry(k).or_default() += v;
                if unit < self.counted_units {
                    *self.counted_counts.entry(k).or_default() += v;
                }
            }
        }
        self.failed += u64::from(failed);
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest sample with [`TAIL_BEYOND`] samples above it, the
/// percentile it stands at, and the samples above it. When that sample
/// would lie below the median, the maximum.
fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n >= 2 * TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (v[rank - 1], 100.0 * rank as f64 / n as f64, TAIL_BEYOND)
    } else {
        (v.last().copied().unwrap_or(0.0), 100.0, 0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

extern "C" {
    /// glibc: returns the heap memory the allocator holds free to the
    /// operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a new peak-RSS reading: freed heap memory goes back to the OS
/// and the high-water mark drops to the current RSS (Linux 4.0+), so the
/// next [`peak_rss_mb`] covers only what follows. Without the trim, memory
/// a large check freed would stay resident and count for later checks.
/// The check after a trim faults its working memory back in, so only the
/// untimed checks before the loop take a reading.
fn restart_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; it only releases pages the allocator holds free.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`restart_peak_rss`], in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
        })
        .unwrap_or(head)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj()
        .field("value", Value::Float(value))
        .field("unit", Value::Str(unit.to_string()))
}

fn end_to_end(tally: &Tally) -> Vec<(&'static str, Value)> {
    let busy_s = tally.plain_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("checks_per_s", metric(tally.checks as f64 / busy_s, "1/s")),
        ("verdict_ms_p50", metric(median(&tally.plain_ms), "ms")),
        ("verdict_ms_tail", metric(tail(&tally.plain_ms).0, "ms")),
        ("setup_s", metric(median(&tally.setup_s), "s")),
        ("peak_rss_mb", metric(median(&tally.rss_mb), "MiB")),
    ]
}

fn per_layer(tally: &Tally) -> Vec<(&'static str, Value)> {
    let n = tally.checks as f64;
    let busy_ns = |layer: &str| tally.layer_ns.get(layer).copied().unwrap_or(0) as f64;
    let run = |key: &str| tally.run_counts.get(key).copied().unwrap_or(0) as f64;
    let counted_total = |key: &str| tally.counted_counts.get(key).copied().unwrap_or(0) as f64;
    let mut out = vec![
        (
            "harness.unit_s",
            metric(tally.traced_ms.iter().sum::<f64>() / 1e3 / n, "s/check"),
        ),
        (
            "harness.glue_s",
            metric(tally.glue_ns as f64 / 1e9 / n, "s/check"),
        ),
        (
            "harness.trace_overhead_ms",
            metric(median(&tally.overhead_ms), "ms"),
        ),
    ];
    for (layer, name) in LAYERS {
        out.push((name, metric(busy_ns(layer) / 1e9 / n, "s/check")));
    }
    for key in COUNTS {
        out.push((key, metric(counted_total(key), "count")));
    }
    for (name, layer, count) in [
        ("riscv.spec.ns_per_step", "riscv.spec", "riscv.spec.steps"),
        (
            "processor.pipelined.ns_per_cycle",
            "processor.pipelined",
            "processor.pipelined.cycles",
        ),
        (
            "proglogic.trace.ns_per_event",
            "proglogic.trace",
            "proglogic.trace.events",
        ),
        (
            "proglogic.symexec.ns_per_obligation",
            "proglogic.symexec",
            "proglogic.symexec.obligations",
        ),
    ] {
        out.push((name, metric(ratio(busy_ns(layer), run(count)), "ns")));
    }
    let hits = counted_total("riscv.spec.icache_hit");
    out.push((
        "riscv.spec.icache_hit_ratio",
        metric(
            ratio(hits, hits + counted_total("riscv.spec.icache_miss")),
            "ratio",
        ),
    ));
    out.push((
        "core.sweep.rerun_ratio",
        metric(
            ratio(
                counted_total("core.sweep.reruns"),
                counted_total("core.sweep.checks"),
            ),
            "ratio",
        ),
    ));
    out.push((
        "core.diff.conclusive_ratio",
        metric(
            ratio(
                counted_total("core.diff.conclusive"),
                counted_total("core.diff.programs"),
            ),
            "ratio",
        ),
    ));
    out
}

fn counts_value(counts: &Counts) -> Value {
    Value::Obj(
        counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect(),
    )
}

/// The quartiles of the per-unit tracing overhead. It is resolved when
/// the middle half of the units lies on one side of zero; otherwise the
/// overhead is smaller than the run can tell from the units' own noise.
fn trace_overhead(overhead_ms: &[f64]) -> Value {
    let mut v = overhead_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v.get(((v.len() as f64 - 1.0) * q).round() as usize).copied();
    let (q1, q3) = (at(0.25).unwrap_or(0.0), at(0.75).unwrap_or(0.0));
    Value::obj()
        .field("units", Value::UInt(v.len() as u64))
        .field("median_ms", Value::Float(median(&v)))
        .field("q1_ms", Value::Float(q1))
        .field("q3_ms", Value::Float(q3))
        .field("resolved", Value::Bool(q1 > 0.0 || q3 < 0.0))
}

/// Each layer's share of the traced check time, glue included.
fn layer_shares(tally: &Tally) -> Value {
    let total: f64 = tally.traced_ms.iter().sum::<f64>() * 1e6;
    let mut shares: Vec<(&str, f64)> = tally
        .layer_ns
        .iter()
        .map(|(layer, ns)| (*layer, *ns as f64))
        .chain([("harness.glue", tally.glue_ns as f64)])
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    Value::Obj(
        shares
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), Value::Float(ratio(ns, total))))
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set-up: image compile and input generation. The first copy is the
    // one checked; each later copy is dropped outside the timed region.
    let mut tally = Tally::default();
    let time_setup = |tally: &mut Tally| {
        let t = Instant::now();
        let w = setup(&args.workload, args.seed);
        let s = t.elapsed().as_secs_f64();
        tally.setup_s.push(s);
        (w, s)
    };
    let (mut w, _) = time_setup(&mut tally);
    for _ in 1..SETUP_REPEATS {
        time_setup(&mut tally);
    }
    tally.counted_units = w.counted_units();

    // Warm-up, untimed: the first units are checked once each through the
    // entry point, so lazy set-up and first-touch costs are not check
    // time, and each check gives a peak-RSS reading. The first unit also
    // runs through the traced composition, so every run records the full
    // counts of one unit; the loop's checks of these units must repeat
    // their counts.
    let tr = Tracer::default();
    let warm_units = if args.trace {
        1
    } else {
        MEMORY_UNITS.min(tally.counted_units)
    };
    for unit in 0..warm_units {
        w.prepare(unit);
        restart_peak_rss();
        let plain = catch_unwind(AssertUnwindSafe(|| w.check(unit))).ok();
        tally.rss_mb.push(peak_rss_mb());
        let traced = (unit == 0).then(|| {
            let t = catch_unwind(AssertUnwindSafe(|| w.check_traced(unit, &tr))).ok();
            tr.take();
            t
        });
        tally.record(unit, plain, traced, false);
    }
    let unit0_counts = tally.first_counts.get(&0).cloned().unwrap_or_default();

    // Closed loop over the units, for the given time and at least the
    // counted units. In an untraced run set-up also runs between checks,
    // within its share of the loop's time.
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut loop_setup_s = 0.0;
    let mut i = 0usize;
    while i < tally.counted_units || start.elapsed() < budget {
        let unit = i;
        w.prepare(unit);
        let plain = || timed(|| w.check(unit));
        let traced = || {
            let (outcome, ms) = timed(|| w.check_traced(unit, &tr));
            (outcome, ms, tr.take())
        };
        if !args.trace {
            let (outcome, ms) = plain();
            tally.time(ms, None);
            tally.record(unit, outcome, None, true);
            while loop_setup_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
                loop_setup_s += time_setup(&mut tally).1;
            }
        } else {
            let ((p, p_ms), (t, t_ms, layers)) = if i.is_multiple_of(2) {
                let p = plain();
                (p, traced())
            } else {
                let t = traced();
                (plain(), t)
            };
            tally.time(p_ms, Some((t_ms, layers)));
            tally.record(unit, p, Some(t), true);
        }
        i += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();

    let attempted = tally.checks + tally.warm_checks;
    let error_rate = ratio(tally.failed as f64, attempted as f64);
    let (tail_ms, tail_pct, tail_beyond) = tail(&tally.plain_ms);
    let seeds = (0..32)
        .map(|u| Value::UInt(unit_seed(args.seed, u)))
        .collect();
    let mut context = Value::obj()
        .field("workload", Value::Str(args.workload.clone()))
        .field("seed", Value::UInt(args.seed))
        .field("seconds", Value::Float(args.seconds))
        .field("trace", Value::Bool(args.trace))
        .field(
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .field("rustc", Value::Str(env!("PERFBENCH_RUSTC").to_string()))
        .field("commit", Value::Str(commit()))
        .field("counted_units", Value::UInt(tally.counted_units as u64))
        .field("unit_seeds", Value::Arr(seeds))
        .field("checks", Value::UInt(tally.checks))
        .field("warm_checks", Value::UInt(tally.warm_checks))
        .field("loop_s", Value::Float(loop_s))
        .field("inconclusive", Value::UInt(tally.inconclusive))
        .field("wrong", Value::UInt(tally.wrong))
        .field("panicked", Value::UInt(tally.panicked))
        .field("traced_mismatch", Value::UInt(tally.traced_mismatch))
        .field("count_guard_failures", Value::UInt(tally.count_guard))
        .field("error_rate", Value::Float(error_rate))
        .field(
            "verdict_ms_tail",
            Value::obj()
                .field("percentile", Value::Float(tail_pct))
                .field("samples", Value::UInt(tally.plain_ms.len() as u64))
                .field("beyond", Value::UInt(tail_beyond as u64))
                .field("value_ms", Value::Float(tail_ms)),
        )
        .field("setup_repeats", Value::UInt(tally.setup_s.len() as u64))
        .field("memory_units", Value::UInt(tally.rss_mb.len() as u64))
        .field(
            "peak_rss_mb_max",
            Value::Float(tally.rss_mb.iter().copied().fold(0.0, f64::max)),
        )
        .field("counts", counts_value(&tally.counted_counts))
        .field("unit0_counts", counts_value(&unit0_counts));
    if args.trace {
        context = context
            .field("layer_shares", layer_shares(&tally))
            .field("traced_ms_p50", Value::Float(median(&tally.traced_ms)))
            .field("untraced_ms_p50", Value::Float(median(&tally.plain_ms)))
            .field("trace_overhead", trace_overhead(&tally.overhead_ms));
    }
    println!("{}", Value::obj().field("context", context).render());

    let metrics = if args.trace {
        per_layer(&tally)
    } else {
        end_to_end(&tally)
    };
    let result = Value::obj()
        .field("correct", Value::Bool(tally.failed == 0))
        .field("attempted", Value::UInt(attempted))
        .field("failed", Value::UInt(tally.failed))
        .field(
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        );
    println!("{}", result.render());
    if tally.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
