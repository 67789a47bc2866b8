//! `gd-perfbench` — the repository benchmark: fault-campaign throughput
//! on four workloads, end to end with tracing off, and per layer in a
//! separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2_sweeps --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Run it from the repository root: the references are `results/*.txt`.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human summary goes
//! to standard error. The exit code is non-zero when any output differs
//! from its reference or any campaign fails. See `perfbench/README.md`
//! for the workloads, the metrics and the run conditions.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use workloads::{Bench, Output, Workload};

/// Fresh child processes that repeat the set-up calls in every run; with
/// the run's own set-up they give `setup_s` as a median.
const SETUP_PROBES: usize = 15;

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
/// `failed_frac` is not among them: it is 0 at a correct commit, so the
/// result line carries it as `failed` over `attempted` instead.
const E2E_METRICS: [(&str, &str); 4] =
    [("campaign_s", "s"), ("faults_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Batches whose mean campaign times give `campaign_s` as a median (see
/// [`stats::batched_median`]); runs of at most this many campaigns report
/// the plain median.
const CAMPAIGN_BATCHES: usize = 10;

/// Scratch directory, relative to the repository root, for stores and
/// trace files.
const WORK_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: gd-perfbench --workload <fig2_sweeps|defense_scan|multifault_pairs|\
static_audit> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line of a measuring run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Run(Args),
    /// Internal: make the workload's set-up calls in this fresh process
    /// and print their wall time in seconds.
    SetupProbe(Workload),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("`{flag}` wants a number"));
        let workload_named = || Workload::parse(value).ok_or(format!("unknown workload `{value}`"));
        match flag.as_str() {
            "--workload" => workload = Some(workload_named()?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("`--trace` wants 0 or 1".into()),
            },
            "--setup-probe" => return Ok(Mode::SetupProbe(workload_named()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// One metric of the result line.
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    /// Campaigns (or passes) attempted.
    pub attempted: u64,
    /// Campaigns that returned an error or whose output differs.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets an end-to-end metric, with its unit from [`E2E_METRICS`].
    fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = E2E_METRICS
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("end-to-end metric is listed in E2E_METRICS");
        self.metrics.insert(name.to_owned(), Metric { value, unit });
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set-up wall times: this process's own, then one per fresh child.
fn setup_samples(workload: Workload, own: Duration) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut samples = vec![own.as_secs_f64()];
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", workload.name()])
            .output()
            .map_err(|e| format!("spawning set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs =
            text.trim().parse::<f64>().ok().filter(|_| out.status.success()).ok_or_else(|| {
                format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr))
            })?;
        samples.push(secs);
    }
    Ok(samples)
}

/// Counts one campaign as attempted, and as failed when it returned an
/// error or its output differs from the reference. Returns the output of
/// a campaign that passed.
fn account(report: &mut Report, outcome: Result<Output, String>) -> Option<Output> {
    report.attempted += 1;
    match outcome {
        Ok(out) => Some(out),
        Err(e) => {
            report.failed += 1;
            eprintln!("gd-perfbench: campaign {} failed: {e}", report.attempted);
            None
        }
    }
}

/// Runs untraced campaigns back to back until the next one would end
/// after `seconds`; at least one runs.
fn measure(bench: &mut Bench, seconds: u64, report: &mut Report) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut faults = 0u64;
    loop {
        let typical = stats::median(&walls).unwrap_or(0.0);
        if report.attempted > 0 && start.elapsed().as_secs_f64() + typical > budget.as_secs_f64() {
            break;
        }
        let outcome = bench.campaign().and_then(|out| bench.check(&out).map(|()| out));
        if let Some(out) = account(report, outcome) {
            walls.push(out.wall.as_secs_f64());
            faults += out.faults;
        }
    }
    let median = stats::median(&walls).unwrap_or(0.0);
    let batched = stats::batched_median(&walls, CAMPAIGN_BATCHES).unwrap_or(0.0);
    let per_campaign = faults.checked_div(walls.len() as u64).unwrap_or(0);
    let rate = if batched > 0.0 { per_campaign as f64 / batched } else { 0.0 };
    report.put("campaign_s", batched);
    report.put("faults_per_s", rate);
    let tail = match stats::tail_percentile(&walls) {
        Some((pct, v)) => format!("p{pct} {v:.6} s"),
        None => format!("no percentile has {} samples beyond it", stats::TAIL_MIN_BEYOND),
    };
    report.notes.push(format!(
        "campaign_s: {batched:.6} s, the median of {} batch means over {} campaigns \
         (plain median {median:.6}, min {:.6}, max {:.6}); {tail}; faults per campaign {}",
        walls.len().min(CAMPAIGN_BATCHES),
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        per_campaign,
    ));
}

fn run(args: &Args, root: &Path) -> Result<Report, String> {
    if std::env::var_os("GD_CHAOS").is_some() {
        return Err("GD_CHAOS is set; the benchmark runs without fault injection".into());
    }
    let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let work_dir: PathBuf = root.join(WORK_DIR);
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let mut bench = Bench::new(args.workload, args.seed, workers, root, work_dir.clone())?;

    let t = Instant::now();
    args.workload.setup_calls();
    let own_setup = t.elapsed();

    let mut report =
        Report { attempted: 0, failed: 0, metrics: BTreeMap::new(), notes: Vec::new() };
    report.notes.push(format!(
        "workload {} seed {} for {} s; {workers} workers; fresh process; GD_CHAOS unset; \
         default engine watchdog",
        args.workload.name(),
        args.seed,
        args.seconds,
    ));
    if args.trace {
        trace::run(&mut bench, args.seconds, &work_dir, args.seed, &mut report)?;
    } else {
        measure(&mut bench, args.seconds, &mut report);
        let setup = setup_samples(args.workload, own_setup)?;
        let setup_s = stats::median(&setup).unwrap_or(0.0);
        report.put("setup_s", setup_s);
        report.notes.push(format!("setup_s: median of {} fresh processes", setup.len()));
        report.put("peak_rss_mb", peak_rss_mb()?);
        report.notes.push(format!(
            "failed_frac: {} ({} of {} campaigns)",
            stats::failed_frac(report.failed, report.attempted),
            report.failed,
            report.attempted,
        ));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Mode::SetupProbe(workload)) => {
            let t = Instant::now();
            workload.setup_calls();
            println!("{}", t.elapsed().as_secs_f64());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Run(args)) => args,
        Err(e) => {
            eprintln!("gd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    match run(&args, root) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("gd-perfbench: {note}");
            }
            for (name, m) in &report.metrics {
                eprintln!("gd-perfbench: {name} = {} {}", m.value, m.unit);
            }
            println!("{}", report.to_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let mode = parse_args(&argv("--workload static_audit --seed 7 --seconds 3 --trace 1"));
        assert_eq!(
            mode,
            Ok(Mode::Run(Args {
                workload: Workload::StaticAudit,
                seed: 7,
                seconds: 3,
                trace: true
            }))
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fig2_sweeps --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fig2_sweeps --seed 1 --seconds 1")).is_err());
    }

    fn empty_report() -> Report {
        Report { attempted: 0, failed: 0, metrics: BTreeMap::new(), notes: Vec::new() }
    }

    /// The repository root, where the references live.
    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn a_corrupted_output_counts_as_failed() {
        let dir = std::env::temp_dir();
        let mut bench = Bench::new(Workload::StaticAudit, 0, 2, &root(), dir).unwrap();
        let read = |name: &str| std::fs::read_to_string(root().join("results").join(name)).unwrap();
        let good = Output {
            texts: vec![read("cfg_boot.txt"), read("cfg_ingest.txt")],
            faults: 6307,
            wall: Duration::from_millis(50),
            shards: Vec::new(),
        };
        let mut corrupted = good.clone();
        corrupted.texts[1].replace_range(0..1, "#");
        let mut report = empty_report();
        for out in [good.clone(), corrupted, good] {
            let checked = bench.check(&out).map(|()| out);
            account(&mut report, checked);
        }
        account(&mut report, Err("engine error".into()));
        assert_eq!((report.attempted, report.failed), (4, 2));
        assert_eq!(stats::failed_frac(report.failed, report.attempted), 0.5);
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
        let doc = gd_campaign::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let layers: Vec<(String, String)> =
            trace::LAYER_METRICS.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(listed("per_layer"), layers);
        let e2e: Vec<(String, String)> =
            E2E_METRICS.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_counts_failures() {
        let mut r = Report { attempted: 4, failed: 0, metrics: BTreeMap::new(), notes: Vec::new() };
        r.metrics.insert("campaign_s".into(), Metric { value: 0.8125, unit: "s" });
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"campaign_s\": {\"value\": 0.8125, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.to_json().starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
    }
}
