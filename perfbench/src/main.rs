//! The derive → serve benchmark.
//!
//! ```text
//! perfbench --workload <derive_dag|derive_ensemble|serve_read|serve_ingest>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Each workload builds its inputs from the seed, runs a fixed,
//! deterministic set-up several times (input generation, catalog build, a
//! fixed warm-up; `setup_s` is their median), then a fixed schedule of work
//! sized by `--seconds`, and checks every output. The last line of stdout
//! is one JSON object: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced run whose spans
//! are written to `--spans`.

mod derive;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;
use trace::Recorder;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <derive_dag|derive_ensemble|serve_read|serve_ingest> \
--seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DeriveDag,
    DeriveEnsemble,
    ServeRead,
    ServeIngest,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "derive_dag" => Self::DeriveDag,
            "derive_ensemble" => Self::DeriveEnsemble,
            "serve_read" => Self::ServeRead,
            "serve_ingest" => Self::ServeIngest,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::DeriveDag => "derive_dag",
            Self::DeriveEnsemble => "derive_ensemble",
            Self::ServeRead => "serve_read",
            Self::ServeIngest => "serve_ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// The workload's metrics under their workload-specific names
    /// (`read_qps`, `derive_kl`, ...), printed on a `# workload-metrics` line.
    named: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            attempted,
            failed,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn setup(&mut self, times: &[Duration]) {
        let times = sorted(times.to_vec());
        self.metric("setup_s", median(&times).as_secs_f64(), "s");
    }

    /// `ok_frac` and `peak_rss_mb`, once the counts are final.
    pub fn finish_common(&mut self) {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("ok_frac", ok, "fraction");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Element at quantile `q` of an ascending slice (nearest rank).
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

/// Median of an ascending slice; the mean of the middle two when even.
pub fn median(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Untraced/traced pairs of the workload's own phase in a traced run.
const TRACE_ROUNDS: usize = 3;

/// The traced run. The workload's own phase runs `TRACE_ROUNDS` times
/// untraced and traced, alternating, for the tracing overhead and the
/// stage-sum check; then every layer's traced phase and probes run once,
/// so each run reports every per-layer metric.
fn traced(args: &Args) -> Report {
    let rec = Recorder::new();
    let derive_input = derive::Input::generate(args.seed);
    let catalog = serve::catalog();
    let single = derive::single_probe(&derive_input, &rec);
    // One run of the workload's own phase: its wall time (for concurrent
    // clients, their mean loop time) and, when traced, its root spans.
    let own = |rec: Option<&Recorder>, round: u64| -> (Duration, Vec<usize>) {
        let engine = match args.workload {
            Workload::DeriveDag => derive::Engine::Dag,
            Workload::DeriveEnsemble => derive::Engine::Ensemble,
            Workload::ServeRead => {
                let phase = serve::read_phase(&catalog, args.seed, rec);
                return (phase.wall, phase.roots);
            }
            Workload::ServeIngest => {
                let phase = serve::ingest_phase(&catalog, args.seed, rec);
                return (phase.run.wall, phase.run.root.into_iter().collect());
            }
        };
        match rec {
            None => (timed(|| derive::derive(&derive_input, engine)), Vec::new()),
            Some(rec) => {
                let root = derive::traced(&derive_input, engine, rec, single, round).root;
                let span = rec.span(root);
                (span.end - span.start, vec![root])
            }
        }
    };
    let (mut untraced, mut traced, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..TRACE_ROUNDS as u64 {
        untraced.push(own(None, round).0);
        let (wall, r) = own(Some(&rec), round);
        traced.push(wall);
        roots.push(r);
    }

    let spans = rec.spans();
    let stage_sums: Vec<Duration> = roots
        .iter()
        .map(|r| {
            let layers = trace::layer_times(&spans, &trace::subtree(&spans, r));
            layers.values().map(|l| l.self_time).sum::<Duration>() / r.len() as u32
        })
        .collect();
    let all_roots: Vec<usize> = roots.concat();
    let layers = trace::layer_times(&spans, &trace::subtree(&spans, &all_roots));
    let (untraced, traced, stage_sum) = (
        median(&sorted(untraced)),
        median(&sorted(traced)),
        median(&sorted(stage_sums)),
    );
    let overhead_ms = (traced.as_secs_f64() - untraced.as_secs_f64()) * 1e3;
    let share = stage_sum.as_secs_f64() / untraced.as_secs_f64();

    let mut report = Report::new(0, 0);
    derive::layers(&derive_input, &rec, single, &mut report);
    serve::layers(&catalog, args.seed, &rec, &mut report);

    report.note(format!(
        "{:<40} {:>6} {:>12} {:>12}",
        "own-phase layer, per traced round", "spans", "total ms", "self ms"
    ));
    let rounds = TRACE_ROUNDS as f64;
    for (name, t) in &layers {
        report.note(format!(
            "{name:<40} {:>6} {:>12.3} {:>12.3}",
            t.spans / TRACE_ROUNDS,
            t.total.as_secs_f64() * 1e3 / rounds,
            t.self_time.as_secs_f64() * 1e3 / rounds
        ));
    }
    report.note(format!(
        "medians of {TRACE_ROUNDS} rounds: stage self times {:.3} ms per root = {:.1}% of the untraced wall {:.3} ms; traced wall {:.3} ms; tracing overhead {overhead_ms:.3} ms",
        stage_sum.as_secs_f64() * 1e3,
        share * 100.0,
        untraced.as_secs_f64() * 1e3,
        traced.as_secs_f64() * 1e3,
    ));
    report.metric("bench.trace_overhead_ms", overhead_ms, "ms");
    report.metric("bench.stage_sum_share", share, "fraction");
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_json(path, &rec.spans()) {
            report.note(format!("could not write spans to {}: {e}", path.display()));
            report.failed += 1;
        }
    }
    report
}

pub fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort();
    v
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = std::time::Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = if args.trace {
        traced(&args)
    } else {
        match args.workload {
            Workload::DeriveDag => derive::run(derive::Engine::Dag, args.seed, args.seconds),
            Workload::DeriveEnsemble => {
                derive::run(derive::Engine::Ensemble, args.seed, args.seconds)
            }
            Workload::ServeRead => serve::run_read(args.seed, args.seconds),
            Workload::ServeIngest => serve::run_ingest(args.seed, args.seconds),
        }
    };
    println!(
        "# {} seed {} seconds {} trace {} host_cores {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores()
    );
    for line in &report.notes {
        println!("# {line}");
    }
    if !report.named.is_empty() {
        let fields: Vec<String> = report
            .named
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!("# workload-metrics {{{}}}", fields.join(", "));
    }
    println!("{}", report.json());
}
