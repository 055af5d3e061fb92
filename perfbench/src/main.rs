//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <device_overload|fleet_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one run sets the workload up several times, runs its
//! pass for `--seconds` of wall time with one simulation thread, checks
//! every output, and prints the end-to-end metrics. With `--trace 1` it
//! runs the per-layer ledger instead: spans around every layer call,
//! written as Chrome trace-event JSON under `.bench_out/`, and the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod ledger;
mod measure;
mod paper;
mod serving;
mod tracer;

use cambricon_llm::serve::{SchedulePolicy, ServeReport, SpanMode};
use measure::{fastest, median, part, peak_rss_mb, time, timed_passes, Passes};
use std::fmt::Write as _;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["device_overload", "fleet_open"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Wall seconds the timed phase lasts.
    pub seconds: f64,
    /// Whether to run the traced per-layer ledger.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One invocation's result: operations checked, and metrics in order.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts the timed passes of a phase and their failed checks.
    pub fn passes(&mut self, p: &Passes) {
        self.attempted += p.walls.len() as u64;
        self.failed += p.failed;
        if p.failed > 0 {
            eprintln!("check failed: {} timed passes differed", p.failed);
        }
    }

    /// Records a metric. A non-finite value is a failed check.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(&name, value.is_finite());
        self.metrics
            .push((name, if value.is_finite() { value } else { -1.0 }, unit));
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Stack of the thread the benchmark runs on (the main thread's default).
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Set-ups timed after each pass: about a millisecond each, against a
/// pass of 0.2-0.7 s.
const SETUPS_PER_PASS: usize = 4;

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// What a timed run hands back: the set-up's product, the first pass's
/// output, the wall time of every set-up, the pass timings and the peak
/// memory they reached.
struct Run<S, R> {
    state: S,
    first: R,
    setup_walls: Vec<f64>,
    passes: Passes,
    peak_rss_mb: f64,
}

/// Sets the workload up, then alternates timed passes with
/// [`SETUPS_PER_PASS`] further set-ups, each timed on its own, for
/// `seconds`. Every pass's output must equal the first pass's, and the
/// first must be `sound`; every set-up must compute the same key.
/// `setup_s` is the fastest of all set-ups, sampled across the run as
/// the passes are: the set-up is deterministic work of about a
/// millisecond, and host contention only ever adds to it (the median
/// of one run's set-ups ranged over 1.4-2.1 ms between runs of the same
/// code, the fastest over 1.20-1.31 ms).
fn timed_run<S, K: PartialEq, R: PartialEq>(
    out: &mut Outcome,
    seconds: f64,
    setup: impl Fn() -> (S, K),
    pass: impl Fn(&S, &mut Vec<f64>) -> R,
    sound: impl Fn(&R) -> bool,
) -> Run<S, R> {
    let (wall, (state, key)) = time(&setup);
    let mut setup_walls = vec![wall];
    let mut setups_agree = true;
    let mut first = None;
    let passes = timed_passes(
        seconds,
        MIN_PASSES,
        |parts| same_as_first(&mut first, pass(&state, parts), &sound),
        || {
            for _ in 0..SETUPS_PER_PASS {
                let (wall, (_, again)) = time(&setup);
                setup_walls.push(wall);
                setups_agree &= again == key;
            }
        },
    );
    out.check("every set-up computed the same", setups_agree);
    out.passes(&passes);
    Run {
        state,
        first: first.expect("at least one pass"),
        setup_walls,
        passes,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// A pass's output compared with the first pass's.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, now: T, sound: impl Fn(&T) -> bool) -> bool {
    match first {
        Some(f) => *f == now,
        None => {
            let ok = sound(&now);
            *first = Some(now);
            ok
        }
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
fn end_to_end<S, R>(
    out: &mut Outcome,
    run: &Run<S, R>,
    service: (f64, f64, f64),
    fidelity: &paper::Fidelity,
) {
    let (tok_s, ttft_p50, ttft_p99) = service;
    let passes = &run.passes;
    out.metric("setup_s", fastest(&run.setup_walls), "s");
    out.metric("peak_rss_mb", run.peak_rss_mb, "MB");
    out.metric("pass_s", passes.best_parts_s(), "s");
    out.metric("sim_tok_s", tok_s, "tok/sim-s");
    out.metric("sim_ttft_p50_s", ttft_p50, "sim-s");
    out.metric("sim_ttft_p99_s", ttft_p99, "sim-s");
    out.metric("paper_err_pct", fidelity.tuning_pct, "%");
    out.metric("paper_err_heldout_pct", fidelity.heldout_pct, "%");
    let walls = &passes.walls;
    eprintln!(
        "{} timed passes: median {:.4} s, fastest {:.4} s, slowest {:.4} s, fastest parts summed {:.4} s; \
         {} set-ups, median {:.3} ms, fastest {:.3} ms; calibration kernel median {:.3} ms",
        walls.len(),
        median(walls),
        fastest(walls),
        walls.iter().copied().fold(0.0, f64::max),
        passes.best_parts_s(),
        run.setup_walls.len(),
        median(&run.setup_walls) * 1e3,
        fastest(&run.setup_walls) * 1e3,
        median(&passes.calib_ms),
    );
}

fn service_of(r: &ServeReport) -> (f64, f64, f64) {
    (r.tokens_per_sec, r.ttft_p50_s, r.ttft_p99_s)
}

/// Checks and prints a fidelity evaluation.
fn checked(out: &mut Outcome, f: paper::Fidelity) -> paper::Fidelity {
    out.check("fidelity values finite, rows aligned", f.is_sound());
    eprintln!(
        "paper fidelity: tuning {:.3}% over {} values, held-out {:.3}% over {} values",
        f.tuning_pct, f.counts.0, f.heldout_pct, f.counts.1
    );
    f
}

fn device_overload(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let run = timed_run(
        &mut out,
        args.seconds,
        || {
            let engine = serving::overload_engine(SpanMode::default());
            let first = serving::cold_first_token(&engine, serving::OVERLOAD_PROMPT);
            ((engine, serving::overload_trace()), first)
        },
        |(engine, trace), parts| serving::overload_pass(engine, trace, |_, run| part(parts, run)),
        |(fcfs, rr)| {
            fcfs.requests_served == serving::OVERLOAD_CLIENTS
                && rr.requests_served == serving::OVERLOAD_CLIENTS
        },
    );
    let (_, trace) = &run.state;
    let (fcfs, rr) = &run.first;
    let per_op = serving::overload_engine(SpanMode::PerOp);
    out.check(
        "PerOp FCFS report equals the timed report",
        per_op.run(trace, SchedulePolicy::Fcfs) == *fcfs,
    );
    out.check(
        "PerOp RR report equals the timed report",
        per_op.run(trace, SchedulePolicy::RoundRobin) == *rr,
    );
    let fidelity = checked(&mut out, paper::fidelity());
    end_to_end(&mut out, &run, service_of(rr), &fidelity);
    out
}

fn fleet_open(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let run = timed_run(
        &mut out,
        args.seconds,
        || {
            let inputs = serving::FleetInputs::generate(args.seed);
            let trace = inputs.trace(serving::FLEET_RATE);
            let fleets = serving::Fleets::new(&inputs, 1);
            let first =
                serving::cold_first_token(fleets.clean.device(), inputs.shapes[0].prompt_len);
            let key = (inputs.shapes.clone(), first);
            ((inputs, trace, fleets), key)
        },
        |(_, trace, fleets), parts| serving::fleet_pass(fleets, trace, |_, run| part(parts, run)),
        |reports| {
            reports
                .iter()
                .all(|r| r.requests_served + r.kv_rejections as usize == serving::FLEET_REQUESTS)
        },
    );
    let (inputs, trace, _) = &run.state;
    let two = serving::Fleets::new(inputs, 2);
    for (r, report) in serving::FLEET_POLICIES.iter().zip(&run.first) {
        out.check(
            &format!("{} fleet report at 2 threads equals 1 thread", r.0),
            two.run(trace, r) == *report,
        );
    }
    let cb = &run.first[2];
    let fidelity = checked(&mut out, paper::fidelity());
    end_to_end(
        &mut out,
        &run,
        (cb.tokens_per_sec, cb.ttft_p50_s, cb.ttft_p99_s),
        &fidelity,
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The work runs on a spawned thread (the main thread only waits):
    // a spawned thread's stack is page-aligned, whereas the main thread's
    // starts at a random offset within its page in every process. With
    // the work on the main thread, address randomization moved the
    // fastest cold-pricing set-up by up to 37% between runs of the same
    // code; on a spawned thread, by up to 9%.
    let worker = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || {
            if args.trace {
                ledger::run(&args)
            } else {
                match args.workload.as_str() {
                    "device_overload" => device_overload(&args),
                    _ => fleet_open(&args),
                }
            }
        })
        .expect("spawn the benchmark thread");
    let out = worker.join().expect("benchmark thread panicked");
    println!("{}", out.json());
}
