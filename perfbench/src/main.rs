//! End-to-end benchmark of the repository's three pipelines — join
//! optimisation, equilibrium certification and payment simulation — with
//! a traced mode that splits each pipeline's time by layer.
//!
//! ```text
//! lcg-perfbench --workload <join|certify|pay|pay_faults> --seed <n> --seconds <s> --trace <0|1>
//! lcg-perfbench --record <workload>    # print golden outputs
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod certify;
mod golden;
mod join;
mod pay;
mod report;
mod stats;
mod trace;

use golden::Goldens;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use report::Metric;
use stats::{ErrorTally, Ratio};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: lcg-perfbench --workload <join|certify|pay|pay_faults> \
--seed <n> --seconds <s> --trace <0|1>\n       lcg-perfbench --record <workload>";

/// Set-up is timed in batches, each building and dropping the inputs
/// `k` times: `k` doubles until one batch lasts `SETUP_BATCH_SECONDS`
/// (at most `SETUP_MAX_BATCH` builds), then `SETUP_BATCHES` batches of
/// that size are timed. `setup_s` is the median batch time ÷ `k`, so
/// set-ups of a few microseconds are measured over milliseconds of work.
const SETUP_BATCHES: usize = 15;
const SETUP_BATCH_SECONDS: f64 = 0.03;
const SETUP_MAX_BATCH: usize = 1 << 16;

/// Worker cap: results are identical at any worker count, and two keeps
/// the benchmark small on shared machines.
const MAX_WORKERS: usize = 2;

/// One workload: a catalog of instances, each of which runs a fixed
/// sequence of ops. A pass visits every instance once, in an order drawn
/// from the run's seed, so every pass does the same work.
pub trait Workload {
    fn instances(&self) -> usize;

    /// Runs, times and checks every op of catalog instance `i`.
    fn run_instance(&mut self, i: usize, run: &mut Run);

    /// How the catalog and each op's seed are derived, for the report.
    fn derivation(&self) -> String;
}

/// Per-run bookkeeping shared by the workloads.
pub struct Run {
    goldens: Goldens,
    /// `Some` under `--record`: golden lines are collected, not checked.
    recorded: Option<Vec<String>>,
    pub tracer: Option<Tracer>,
    op_ms: Vec<f64>,
    pub payments: u64,
    tally: ErrorTally,
    /// End of the timed region; `None` under `--record`, which runs every
    /// op once.
    deadline: Option<Instant>,
}

impl Run {
    /// Whether the timed region is over. Workloads whose ops are
    /// interchangeable check this between ops; the others run every op of
    /// an instance that has started.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Runs one op: `untraced` with observability off, timed. In a
    /// traced run `traced`, the same op on its own copy of any state, also
    /// runs with observability on. Returns the untraced output, its time
    /// in ms and, when tracing, the traced output.
    pub fn op<R, T>(
        &mut self,
        untraced: impl FnOnce() -> R,
        traced: impl FnOnce() -> T,
    ) -> (R, f64, Option<T>) {
        match self.tracer.as_mut() {
            Some(t) => {
                let (r, ms, out) = t.pair(untraced, traced);
                (r, ms, Some(out))
            }
            None => {
                let (r, ms) = timed(untraced);
                (r, ms, None)
            }
        }
    }

    /// Books one op: its untraced time, its canonical output (compared
    /// with the golden line for `key`) and the workload's own checks.
    pub fn finish_op(&mut self, key: &str, ms: f64, output: &str, checks_ok: bool) {
        self.op_ms.push(ms);
        let golden_ok = match &mut self.recorded {
            Some(lines) => {
                lines.push(golden::line(key, output));
                true
            }
            None => self.goldens.matches(key, output),
        };
        if !golden_ok {
            eprintln!("op {key}: output differs from its golden line: {output}");
        }
        if !checks_ok {
            eprintln!("op {key}: output check failed");
        }
        self.tally.record(golden_ok && checks_ok);
    }
}

/// Turning observability on must not change an op's output; a traced
/// run checks this on every op.
pub fn same_when_traced(untraced: &str, traced: &str) -> bool {
    let same = untraced == traced;
    if !same {
        eprintln!("traced output {traced} differs from untraced output {untraced}");
    }
    same
}

/// Runs `op` and returns its output with its wall time in ms.
pub fn timed<R>(op: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (None, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Name::parse(value()?)?),
            "--record" => {
                workload = Some(Name::parse(value()?)?);
                record = true;
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if record {
        return Ok(Args {
            workload,
            seed: 0,
            seconds: 0.0,
            trace: false,
            record,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        record,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Name {
    Join,
    Certify,
    Pay,
    PayFaults,
}

impl Name {
    const ALL: [Name; 4] = [Name::Join, Name::Certify, Name::Pay, Name::PayFaults];

    fn parse(name: &str) -> Result<Name, String> {
        Name::ALL
            .into_iter()
            .find(|w| w.label() == name)
            .ok_or_else(|| format!("unknown workload {name}"))
    }

    fn label(self) -> &'static str {
        match self {
            Name::Join => "join",
            Name::Certify => "certify",
            Name::Pay => "pay",
            Name::PayFaults => "pay_faults",
        }
    }

    /// Builds every input the workload's ops use.
    fn setup(self) -> Box<dyn Workload> {
        match self {
            Name::Join => Box::new(join::Join::setup()),
            Name::Certify => Box::new(certify::Certify::setup()),
            Name::Pay => Box::new(pay::Pay::setup(false)),
            Name::PayFaults => Box::new(pay::Pay::setup(true)),
        }
    }

    fn goldens(self) -> &'static str {
        match self {
            Name::Join => include_str!("../golden/join.txt"),
            Name::Certify => include_str!("../golden/certify.txt"),
            Name::Pay => include_str!("../golden/pay.txt"),
            Name::PayFaults => include_str!("../golden/pay_faults.txt"),
        }
    }
}

/// Wall time in s of `k` set-ups, each dropped as soon as it is built.
fn setup_batch_s(build: &impl Fn() -> Box<dyn Workload>, k: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..k {
        drop(std::hint::black_box(build()));
    }
    start.elapsed().as_secs_f64()
}

/// The batch size: `k` doubles from 1 until `batch_s(k)` lasts at least
/// `SETUP_BATCH_SECONDS`, or reaches `SETUP_MAX_BATCH`.
fn setup_batch_size(mut batch_s: impl FnMut(usize) -> f64) -> usize {
    let mut k = 1;
    while k < SETUP_MAX_BATCH && batch_s(k) < SETUP_BATCH_SECONDS {
        k *= 2;
    }
    k
}

/// Set-up times: the per-set-up time of each timed batch in s, and the
/// number of set-ups in a batch.
struct SetupTimes {
    per_setup_s: Vec<f64>,
    batch: usize,
}

/// Builds the inputs the run uses, then times the set-up in batches.
fn measure_setup(build: impl Fn() -> Box<dyn Workload>) -> (Box<dyn Workload>, SetupTimes) {
    let workload = build();
    let batch = setup_batch_size(|k| setup_batch_s(&build, k));
    let per_setup_s = (0..SETUP_BATCHES)
        .map(|_| setup_batch_s(&build, batch) / batch as f64)
        .collect();
    (workload, SetupTimes { per_setup_s, batch })
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn end_to_end(run: &Run, setup: &SetupTimes) -> (Vec<Metric>, Vec<Metric>) {
    let n = run.op_ms.len();
    let op_s: f64 = run.op_ms.iter().sum::<f64>() / 1e3;
    let ops_per_s = Ratio::new(n as f64, op_s);
    let json = vec![
        Metric::new(
            "setup_s",
            stats::median(&setup.per_setup_s).expect("at least one set-up batch"),
            "s",
            format!(
                "median of {} batches of {} set-ups, per set-up",
                setup.per_setup_s.len(),
                setup.batch
            ),
        ),
        Metric::new(
            "ops_per_s",
            ops_per_s.value(),
            "1/s",
            format!("{n} ops in {op_s:.3} s of op time"),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM".into()),
    ];
    let mut extra = vec![Metric::new(
        "op_ms_p50",
        stats::median(&run.op_ms).expect("at least one op"),
        "ms",
        format!("n={n}"),
    )];
    if run.payments > 0 {
        let r = Ratio::new(run.payments as f64, op_s);
        extra.push(Metric::new(
            "payments_per_s",
            r.value(),
            "1/s",
            format!("{} payments in {op_s:.3} s of op time", run.payments),
        ));
    }
    let p90 = if stats::percentile_is_reportable(0.9, n) {
        Metric::new(
            "op_ms_p90",
            stats::percentile(&run.op_ms, 0.9).expect("ops"),
            "ms",
            format!("n={n}"),
        )
    } else {
        Metric::new(
            "op_ms_p90",
            f64::NAN,
            "ms",
            format!("not reported: n={n} < 100"),
        )
    };
    extra.push(p90);
    let errors = run.tally.error_rate();
    extra.push(Metric::new(
        "error_rate",
        errors.value(),
        "ratio",
        format!("failed ops / attempted ops = {}", errors.base()),
    ));
    (json, extra)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    lcg_obs::set_enabled(false);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = hardware_threads.min(MAX_WORKERS);
    lcg_parallel::set_max_threads(workers);

    let mut run = Run {
        goldens: Goldens::default(),
        recorded: args.record.then(Vec::new),
        tracer: args.trace.then(Tracer::default),
        op_ms: Vec::new(),
        payments: 0,
        tally: ErrorTally::default(),
        deadline: None,
    };

    // Set-up: inputs are built outside the timed region, several times.
    let build = || args.workload.setup();
    let (mut workload, setup) = match run.tracer.as_mut() {
        _ if args.record => (
            build(),
            SetupTimes {
                per_setup_s: Vec::new(),
                batch: 0,
            },
        ),
        Some(t) => t.probe(|| measure_setup(build)),
        None => measure_setup(build),
    };
    if !args.record {
        run.goldens = match Goldens::parse(args.workload.goldens()) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("golden file for {}: {e}", args.workload.label());
                return ExitCode::from(1);
            }
        };
    }

    // Timed region: catalog instances, pass after pass, until `--seconds`
    // have elapsed. The clock is checked between instances, so every
    // instance that starts runs all of its ops.
    let mut order: Vec<usize> = (0..workload.instances()).collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let start = Instant::now();
    run.deadline = (!args.record).then(|| start + Duration::from_secs_f64(args.seconds));
    let mut visits = 0u64;
    'passes: loop {
        if !args.record {
            order.shuffle(&mut rng);
        }
        for &i in &order {
            workload.run_instance(i, &mut run);
            visits += 1;
            if run.expired() {
                break 'passes;
            }
        }
        if args.record {
            break;
        }
    }

    if let Some(lines) = &run.recorded {
        println!(
            "# golden outputs of workload {}, one op a line",
            args.workload.label()
        );
        for line in lines {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "workload={} seed={} seconds={} trace={} instances_run={visits} wall_s={:.3}",
        args.workload.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        start.elapsed().as_secs_f64()
    );
    println!("hardware_threads={hardware_threads} workers={workers}");
    println!(
        "order: each pass over the {} catalog instances is shuffled by StdRng::seed_from_u64({})",
        workload.instances(),
        args.seed
    );
    println!("derivation: {}", workload.derivation());
    let (e2e, extra) = end_to_end(&run, &setup);
    report::print_table("end-to-end", &e2e);
    report::print_table("end-to-end (report only)", &extra);
    let metrics = match &run.tracer {
        Some(t) => {
            let layers = t.per_layer(workers);
            report::print_table("per-layer (traced run)", &layers);
            layers
        }
        None => e2e,
    };
    println!("{}", report::result_line(&run.tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "pay",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Name::Pay, 7, 10.0, true)
        );
        assert!(parse_args(&strings(&["--record", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "pay", "--seed", "7"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "pay",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "pay",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--record", "join"])).unwrap().record);
    }

    #[test]
    fn a_perturbed_golden_output_is_counted_as_an_error() {
        let mut run = Run {
            goldens: Goldens::parse("certify/star20 eq=true devs=- candidates=20971500").unwrap(),
            recorded: None,
            tracer: None,
            op_ms: Vec::new(),
            payments: 0,
            tally: ErrorTally::default(),
            deadline: None,
        };
        run.finish_op(
            "certify/star20",
            1.0,
            "eq=true devs=- candidates=20971500",
            true,
        );
        run.finish_op(
            "certify/star20",
            1.0,
            "eq=true devs=- candidates=20971499",
            true,
        );
        run.finish_op(
            "certify/star20",
            1.0,
            "eq=true devs=- candidates=20971500",
            false,
        );
        run.finish_op(
            "certify/unknown",
            1.0,
            "eq=true devs=- candidates=20971500",
            true,
        );
        assert_eq!(
            run.tally,
            ErrorTally {
                attempted: 4,
                failed: 3
            }
        );
        assert_eq!(run.tally.error_rate().base(), "3/4");
        assert!(!run.tally.correct());
    }

    #[test]
    fn setup_batches_double_until_they_last_long_enough() {
        let mut tried = Vec::new();
        let k = setup_batch_size(|k| {
            tried.push(k);
            k as f64 * 0.004
        });
        assert_eq!((k, tried), (8, vec![1, 2, 4, 8]));
        assert_eq!(setup_batch_size(|_| 1.0), 1);
        assert_eq!(setup_batch_size(|_| 0.0), SETUP_MAX_BATCH);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let run = Run {
            goldens: Goldens::default(),
            recorded: None,
            tracer: None,
            op_ms: vec![1.0],
            payments: 0,
            tally: ErrorTally::default(),
            deadline: None,
        };
        let setup = SetupTimes {
            per_setup_s: vec![0.1],
            batch: 1,
        };
        let (e2e, _) = end_to_end(&run, &setup);
        let layers = Tracer::default().per_layer(1);
        for m in e2e.iter().chain(&layers) {
            assert!(
                spec.contains(&format!("\"name\": \"{}\"", m.name)),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        assert_eq!(
            spec.matches("\"name\":").count(),
            e2e.len() + layers.len() + 4,
            "BENCHMARK.json lists 4 workloads plus exactly the emitted metrics"
        );
    }
}
