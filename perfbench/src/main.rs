//! The repository's benchmark: the paper's pipelines driven as a closed
//! loop (one process, one client, the next request only after the
//! previous one completes), every answer checked against an independent
//! oracle outside the timed region.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fpt_solvers --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` the per-layer
//! metrics of a traced run (see `METRICS.md`). The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod fpt;
mod rng;
mod serving;
mod thm45;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Mode, Tracer};

/// One request's result as the runner sees it.
pub struct Outcome {
    /// Index into [`Workload::KINDS`].
    pub kind: usize,
    /// Atoms of the input structure the request processed.
    pub atoms: usize,
    /// Latency of the call region (oracle checks excluded).
    pub nanos: u64,
    /// The oracle accepted the answer.
    pub ok: bool,
}

pub trait Workload: Sized {
    /// Request kinds, in the order of the `kind1`..`kind3` metric slots.
    const KINDS: [&'static str; 3];
    /// Requests between two repeated set-ups, about 250 ms of requests.
    /// The set-ups are spread evenly over the whole run, like the
    /// requests, and `setup_s` is the median of all of them. They fall
    /// at the same places in every run, so they do not make the peak RSS
    /// depend on the host's speed.
    const SETUP_EVERY: usize;
    /// Input generation, compilation, session creation: `setup_s`.
    fn setup(seed: u64, t: &mut Tracer) -> Self;
    /// Oracle answers, computed without the code under test (untimed).
    fn prepare_oracle(&mut self);
    /// Requests in one pass over the generated inputs.
    fn pass_len(&self) -> usize;
    /// Issues request `i` of the pass and checks its answer.
    fn request(&mut self, i: usize, t: &mut Tracer) -> Outcome;
}

/// Adds the semi-naive kernel's exact counters to the trace.
pub fn count_eval_stats(t: &mut Tracer, stats: &mdtw_datalog::EvalStats) {
    t.count("datalog.index_probes", stats.index_probes);
    t.count("datalog.tuples_considered", stats.tuples_considered);
    t.count("datalog.full_scans", stats.full_scans);
    t.count("datalog.firings", stats.firings);
    t.count("datalog.facts", stats.facts);
    t.count("datalog.negative_checks", stats.negative_checks);
    t.count("datalog.plan_cache_hits", stats.plan_cache_hits);
    t.count("datalog.strata", stats.strata);
}

/// Per-layer times taken per request from the traced segment:
/// (metric, span).
const LAYER_TIMES: [(&str, &str); 15] = [
    ("schema.encode_ms", "schema.encode"),
    ("graph.encode_ms", "graph.encode"),
    ("decomp.min_fill_ms", "decomp.min_fill"),
    ("decomp.min_degree_ms", "decomp.min_degree"),
    ("decomp.tuple_td_ms", "decomp.tuple_td"),
    ("decomp.encode_tuple_td_ms", "decomp.encode_tuple_td"),
    ("decomp.nice_ms", "decomp.nice"),
    ("core.primality_up_ms", "core.primality_up"),
    ("core.primality_down_ms", "core.primality_down"),
    ("core.three_col_dp_ms", "core.three_col_dp"),
    ("core.three_col_witness_ms", "core.three_col_witness"),
    ("datalog.ground_ms", "datalog.ground"),
    ("datalog.horn_solve_ms", "datalog.horn_solve"),
    ("datalog.eval_ms", "datalog.eval"),
    ("incremental.apply_ms", "incremental.apply"),
];

/// Per-layer times taken per set-up: (metric, span).
const SETUP_TIMES: [(&str, &str); 2] = [
    ("mso.compile_ms", "mso.compile"),
    ("incremental.materialize_ms", "incremental.materialize"),
];

/// Exact counters, summed over the set-up and the first pass after it.
const COUNTS: [&str; 20] = [
    "decomp.nice_nodes",
    "decomp.tau_td_atoms",
    "core.primality_up_states",
    "core.primality_down_states",
    "core.three_col_states",
    "mso.compiled_rules",
    "datalog.guard_instantiations",
    "datalog.ground_rules",
    "datalog.ground_atoms",
    "datalog.index_probes",
    "datalog.tuples_considered",
    "datalog.full_scans",
    "datalog.firings",
    "datalog.facts",
    "datalog.negative_checks",
    "datalog.plan_cache_hits",
    "datalog.strata",
    "incremental.overdeleted",
    "incremental.rederived",
    "incremental.fell_back",
];

/// Ratios of exact counters: (metric, numerator, denominator).
const RATIOS: [(&str, &str, &str); 3] = [
    (
        "datalog.facts_per_considered",
        "datalog.facts",
        "datalog.tuples_considered",
    ),
    (
        "datalog.plan_cache_hit_ratio",
        "datalog.plan_cache_hits",
        "datalog.strata",
    ),
    (
        "incremental.rederive_ratio",
        "incremental.rederived",
        "incremental.overdeleted",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fpt_solvers|thm45_tau_td|datalog_serving> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "fpt_solvers" => run::<fpt::FptSolvers>(&args),
        "thm45_tau_td" => run::<thm45::Thm45>(&args),
        "datalog_serving" => run::<serving::DatalogServing>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.print();
}

/// Requests of a measured segment. Every pass issues the same requests,
/// so throughput is taken from the median pass, which shrugs off the
/// seconds-long slow phases of a shared host.
#[derive(Default)]
struct Samples {
    /// (kind, latency) of every request.
    nanos: Vec<(usize, u64)>,
    /// Busy (in-request) seconds of each pass.
    pass_s: Vec<f64>,
    /// Input atoms processed by one pass.
    pass_atoms: usize,
}

impl Samples {
    fn median_pass_s(&self) -> f64 {
        median(&mut self.pass_s.clone())
    }

    /// Requests per second of busy time, in the median pass.
    fn ops_per_s(&self) -> f64 {
        (self.nanos.len() / self.pass_s.len()) as f64 / self.median_pass_s()
    }
}

struct Tally {
    attempted: usize,
    failed: usize,
}

/// One pass over the workload's requests.
fn pass<W: Workload>(
    w: &mut W,
    t: &mut Tracer,
    tally: &mut Tally,
    setups: &mut Setups,
    samples: &mut Samples,
) {
    let (mut busy, mut atoms) = (0u64, 0usize);
    for i in 0..w.pass_len() {
        setups.before_request::<W>();
        let out = w.request(i, t);
        tally.attempted += 1;
        if !out.ok {
            tally.failed += 1;
            eprintln!(
                "perfbench: wrong answer: {} request {i}",
                W::KINDS[out.kind]
            );
        }
        samples.nanos.push((out.kind, out.nanos));
        busy += out.nanos;
        atoms += out.atoms;
    }
    samples.pass_s.push(busy as f64 / 1e9);
    samples.pass_atoms = atoms;
}

/// Set-up times of a run.
struct Setups {
    seed: u64,
    mode: Mode,
    /// Seconds of every set-up.
    secs: Vec<f64>,
    /// Self time per span name, summed over the set-ups.
    span_ms: BTreeMap<&'static str, f64>,
    /// Requests issued so far, warm-up pass included.
    requests: usize,
}

impl Setups {
    /// One timed set-up, traced as `mode`.
    fn run<W: Workload>(&mut self) -> (W, Tracer) {
        let mut t = Tracer::new(self.mode);
        let start = Instant::now();
        let w = W::setup(self.seed, &mut t);
        self.secs.push(start.elapsed().as_secs_f64());
        for (name, ms) in t.self_ms() {
            *self.span_ms.entry(name).or_default() += ms;
        }
        (w, t)
    }

    /// Before every [`Workload::SETUP_EVERY`]-th request, a set-up that
    /// is dropped at once.
    fn before_request<W: Workload>(&mut self) {
        if self.requests > 0 && self.requests.is_multiple_of(W::SETUP_EVERY) {
            drop(self.run::<W>());
        }
        self.requests += 1;
    }

    /// Mean self time of the span `name` per set-up, in ms.
    fn mean_ms(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0) / self.secs.len() as f64
    }
}

/// Rounds of passes until `seconds` of wall time have gone by. A round
/// makes one pass per tracer, in turn. Returns the samples of each
/// tracer.
fn measure<W: Workload>(
    w: &mut W,
    tracers: &mut [Tracer],
    tally: &mut Tally,
    setups: &mut Setups,
    seconds: f64,
) -> Vec<Samples> {
    let mut samples: Vec<Samples> = tracers.iter().map(|_| Samples::default()).collect();
    let start = Instant::now();
    while samples[0].pass_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for (t, s) in tracers.iter_mut().zip(&mut samples) {
            pass(w, t, tally, setups, s);
        }
    }
    samples
}

struct Report {
    lines: Vec<String>,
    correct: bool,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank] as f64
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<W: Workload>(args: &Args) -> Report {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut report = Report {
        lines: vec![format!(
            "perfbench workload={} seed={} trace={} host_cpus={cpus}",
            args.workload, args.seed, args.trace as u8
        )],
        correct: true,
        tally: Tally {
            attempted: 0,
            failed: 0,
        },
        metrics: Vec::new(),
    };
    let tally = &mut report.tally;
    let mut setups = Setups {
        seed: args.seed,
        mode: if args.trace {
            Mode::Traced
        } else {
            Mode::Entry
        },
        secs: Vec::new(),
        span_ms: BTreeMap::new(),
        requests: 0,
    };
    let (mut w, mut t) = setups.run::<W>();
    w.prepare_oracle();
    // Warm-up pass; in traced runs it is also the counting pass.
    pass(&mut w, &mut t, tally, &mut setups, &mut Samples::default());
    let counts = t.counts().clone();
    if args.trace {
        // Untraced and traced passes alternate, both calling the same
        // steps, so the host's drift falls on both alike.
        let mut tracers = [Tracer::new(Mode::Steps), Tracer::new(Mode::Traced)];
        let samples = measure(&mut w, &mut tracers, tally, &mut setups, args.seconds);
        let [_, t] = tracers;
        let (untraced, traced) = (&samples[0], &samples[1]);
        report.lines.push(format!(
            "traced segment: {} requests in {} passes, alternating with {} untraced passes",
            traced.nanos.len(),
            traced.pass_s.len(),
            untraced.pass_s.len(),
        ));
        let self_ms = t.self_ms();
        let per_request = traced.nanos.len() as f64;
        for (metric, span) in LAYER_TIMES {
            report.metric(
                metric,
                self_ms.get(span).copied().unwrap_or(0.0) / per_request,
                "ms",
            );
        }
        for (metric, span) in SETUP_TIMES {
            report.metric(metric, setups.mean_ms(span), "ms");
        }
        let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
        for name in COUNTS {
            report.metric(name, count(name), "count");
        }
        for (metric, num, den) in RATIOS {
            let d = count(den);
            report.metric(metric, if d > 0.0 { count(num) / d } else { 0.0 }, "ratio");
        }
        report.metric("trace.ops_per_s_untraced", untraced.ops_per_s(), "1/s");
        report.metric("trace.ops_per_s_traced", traced.ops_per_s(), "1/s");
        // Each untraced pass over the traced pass right after it, so that
        // drift slower than two passes cancels.
        let mut ratios: Vec<f64> = untraced
            .pass_s
            .iter()
            .zip(&traced.pass_s)
            .map(|(u, t)| u / t)
            .collect();
        report.metric("trace.ops_ratio", median(&mut ratios), "ratio");
        let path = std::path::PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match t.write_jsonl(&path) {
            Ok(()) => report
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let mut tracers = [Tracer::new(Mode::Entry)];
        let s = &measure(&mut w, &mut tracers, tally, &mut setups, args.seconds)[0];
        let mut all: Vec<u64> = s.nanos.iter().map(|&(_, n)| n).collect();
        all.sort_unstable();
        report.lines.push(format!(
            "closed loop, 1 client: {} requests in {} passes; median pass {:.6} s busy; {} set-ups",
            all.len(),
            s.pass_s.len(),
            s.median_pass_s(),
            setups.secs.len()
        ));
        report.metric("setup_s", median(&mut setups.secs), "s");
        report.metric("ops_per_s", s.ops_per_s(), "1/s");
        report.metric(
            "atoms_per_s",
            s.pass_atoms as f64 / s.median_pass_s(),
            "1/s",
        );
        report.metric("latency_p50_ms", percentile(&all, 0.5) / 1e6, "ms");
        report.metric("latency_p90_ms", percentile(&all, 0.9) / 1e6, "ms");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        for (k, kind) in W::KINDS.iter().enumerate() {
            let mut lat: Vec<u64> = s
                .nanos
                .iter()
                .filter(|&&(kk, _)| kk == k)
                .map(|&(_, n)| n)
                .collect();
            lat.sort_unstable();
            report.lines.push(format!(
                "kind{} = {kind}: {} samples, {kind}_p50_ms = {:.6}",
                k + 1,
                lat.len(),
                percentile(&lat, 0.5) / 1e6
            ));
            report.metric(
                &format!("kind{}_p50_ms", k + 1),
                percentile(&lat, 0.5) / 1e6,
                "ms",
            );
        }
    }
    let (failed, attempted) = (report.tally.failed, report.tally.attempted);
    report.lines.push(format!(
        "failed_frac = {} ({failed} of {attempted} attempted)",
        failed as f64 / attempted as f64
    ));
    report.correct &= failed == 0;
    report
}
