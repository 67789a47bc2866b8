//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! A traced run makes iterations until `--seconds` is spent (at least
//! one). An iteration runs one untraced campaign, then the campaign
//! again through the same entry with the engine's progress callbacks
//! recorded, then the layer passes:
//!
//! - engine workloads run every `shards::run_shard` of `shard_plan` on
//!   the pinned workers, timing each, and render the results with
//!   `shards::render`; `defense_scan` instead walks each cell's grid
//!   through `run_attack` (the one place the benchmark repeats program
//!   logic, `defense::run_cell`'s loop) to read every attempt's pipeline
//!   counters;
//! - `static_audit` re-analyzes every configuration and re-runs the
//!   agreement sweeps.
//!
//! Every output of an iteration must equal the untraced campaign's. A
//! time metric of a layer the workload does not exercise comes from
//! [`probes`], a small fixed input per layer, so every run reports every
//! metric; counts of such layers are 0. Counts must repeat exactly
//! across iterations. Spans stay in memory and are written to a JSON
//! file when the run ends.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gd_bench::cfg_report;
use gd_campaign::defense::{budget_for, hardened_device, Attack, DefenseCell};
use gd_campaign::shards::{render, run_shard, shard_plan, ShardResult, ShardWork};
use gd_campaign::{CampaignSpec, Engine};
use gd_chipwhisperer::{
    full_grid, run_attack, AttackOutcome, AttackSpec, Device, FaultModel, GlitchParams,
    SuccessCheck,
};
use gd_faultsim::{boot_campaign, halfword_slots, prune_model, Registry, SCOPE_FUNCS};
use gd_glitch_emu::{branch_case, sweep_case_with, PerturbRunner};
use glitch_resistor::Defenses;

use crate::workloads::{shard_faults, Bench, Workload, TABLE6_ATTACKS};
use crate::{stats, Metric, Report};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 46] = [
    ("campaign.shards", "count"),
    ("campaign.shard_ms.p50", "ms"),
    ("campaign.shard_ms.max", "ms"),
    ("campaign.tail_ms", "ms"),
    ("campaign.render_ms", "ms"),
    ("campaign.store_bytes", "B"),
    ("campaign.store_files", "count"),
    ("campaign.cache_hit_ms", "ms"),
    ("exec.idle_frac", "frac"),
    ("exec.chunks", "count"),
    ("exec.serial_fallbacks", "count"),
    ("glitch_emu.trials", "count"),
    ("glitch_emu.trial_ns", "ns"),
    ("emu.predecode_us", "us"),
    ("glitch_emu.runner_us", "us"),
    ("cw.attempts", "count"),
    ("cw.attempts_simulated", "count"),
    ("cw.attempt_us", "us"),
    ("cw.boot_us", "us"),
    ("cw.budget_ms", "ms"),
    ("pipeline.cycles", "count"),
    ("pipeline.retired", "count"),
    ("pipeline.pretrigger_frac", "frac"),
    ("pipeline.ns_per_cycle", "ns"),
    ("harden.compile_ms", "ms"),
    ("faultsim.enumerated.o1", "count"),
    ("faultsim.enumerated.o2", "count"),
    ("faultsim.pruned.o1", "count"),
    ("faultsim.pruned.o2", "count"),
    ("faultsim.simulated.o1", "count"),
    ("faultsim.simulated.o2", "count"),
    ("faultsim.prune_ms", "ms"),
    ("faultsim.runner_us", "us"),
    ("faultsim.replayed_steps", "count"),
    ("faultsim.trial_ns.o1", "ns"),
    ("faultsim.trial_ns.o2", "ns"),
    ("ingest.ms", "ms"),
    ("cfg.recover_ms", "ms"),
    ("cfg.blocks", "count"),
    ("cfg.rounds", "count"),
    ("cfg.fixpoint_iterations", "count"),
    ("cfg.agreement_ms", "ms"),
    ("cfg.instances", "count"),
    ("cfg.unsound", "count"),
    ("trace.campaign_s", "s"),
    ("trace.overhead_ms", "ms"),
];

/// Table VI defense sets in the column order of `shards::shard_plan`
/// (its `Table6Cell::defense` indexes this order).
const TABLE6_DEFENSES: [Defenses; 2] = [Defenses::ALL, Defenses::ALL_EXCEPT_DELAY];

/// Simulated attempts, trials and boots the probes time.
const PROBE_ATTEMPTS: usize = 64;
const PROBE_TRIALS: usize = 256;
const PROBE_BOOTS: usize = 16;

/// One recorded span. Times are microseconds since the run started.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    campaign: u32,
}

/// In-memory span store, shared by the fan-out workers.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id.
    fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        campaign: u32,
    ) -> usize {
        let span = Span {
            name: name.to_owned(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            campaign,
        };
        let mut spans = self.spans.lock().expect("span store lock is never poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children can
    /// name it as their parent in between.
    fn open(&self, name: &str, parent: Option<usize>, campaign: u32) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, campaign)
    }

    fn close(&self, id: usize) -> Duration {
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span store lock is never poisoned");
        spans[id].end_us = self.us(end);
        Duration::from_secs_f64((spans[id].end_us - spans[id].start_us).max(0.0) / 1e6)
    }

    /// Times `f` as a span.
    fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        campaign: u32,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, campaign);
        let r = f();
        (r, self.close(id))
    }

    /// Writes the spans and the run's counts as JSON.
    fn write(&self, path: &Path, header: &str, counts: &BTreeMap<&str, u64>) -> Result<(), String> {
        let spans = self.spans.lock().expect("span store lock is never poisoned");
        let mut out = format!("{{{header}, \"counts\": {{");
        let counts: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&counts.join(", "));
        out.push_str("}, \"spans\": [\n");
        let lines: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                     \"parent\": {parent}, \"campaign\": {}}}",
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.start_us,
                    s.end_us,
                    s.campaign
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_unit_ns(total: Duration, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e9 / units as f64
    }
}

/// The current value of a `gd_exec` counter.
fn exec_counter(name: &str) -> u64 {
    gd_obs::counter(name, "", &[]).get()
}

/// What one traced iteration measured.
#[derive(Default)]
struct Iteration {
    times: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    /// Output sets, each of which must equal the untraced campaign's.
    outputs: Vec<Vec<String>>,
    campaign: Duration,
}

/// The traced run. See the module docs.
///
/// # Errors
///
/// Fails when the untraced reference campaign cannot run or the trace
/// cannot be written.
pub fn run(
    bench: &mut Bench,
    seconds: u64,
    work_dir: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let start = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut untraced_s: Vec<f64> = Vec::new();
    let budget = Duration::from_secs(seconds);
    loop {
        let id = iterations.len() as u32 + 1;
        report.attempted += 1;
        let untraced = bench.campaign()?;
        untraced_s.push(untraced.wall.as_secs_f64());
        let it = gd_exec::with_threads(bench.workers, || iteration(bench, &tracer, id))?;
        let mut problems = disagreements(&untraced.texts, &it, iterations.first());
        if let Err(e) = bench.check(&untraced) {
            problems.push(format!("untraced campaign: {e}"));
        }
        if !problems.is_empty() {
            report.failed += 1;
            eprintln!("gd-perfbench: iteration {id}: {}", problems.join("; "));
        }
        iterations.push(it);
        let per_iteration = start.elapsed().as_secs_f64() / iterations.len() as f64;
        if start.elapsed().as_secs_f64() + per_iteration > budget.as_secs_f64() {
            break;
        }
    }

    let mut values = gd_exec::with_threads(bench.workers, || probes(bench, &tracer))?;
    let names: Vec<&'static str> =
        iterations.iter().flat_map(|it| it.times.keys().copied()).collect();
    for name in names {
        let samples: Vec<f64> =
            iterations.iter().filter_map(|it| it.times.get(name).copied()).collect();
        values.insert(name, stats::median(&samples).unwrap_or(0.0));
    }
    let traced: Vec<f64> = iterations.iter().map(|it| it.campaign.as_secs_f64()).collect();
    let traced_s = stats::median(&traced).unwrap_or(0.0);
    let untraced_s = stats::median(&untraced_s).unwrap_or(0.0);
    values.insert("trace.campaign_s", traced_s);
    values.insert("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    let counts = iterations.first().map(|it| it.counts.clone()).unwrap_or_default();
    for (name, unit) in LAYER_METRICS {
        let value = match unit {
            "count" | "B" => counts.get(name).copied().unwrap_or(0) as f64,
            _ => values.get(name).copied().unwrap_or(0.0),
        };
        report.metrics.insert(name.to_owned(), Metric { value, unit });
    }
    report.notes.push(format!(
        "traced run: {} iteration(s), each an untraced then a traced campaign; medians \
         {untraced_s:.6} s untraced, {traced_s:.6} s traced",
        iterations.len(),
    ));

    let path = work_dir.join(format!("trace-{}-{seed}.json", bench.workload.name()));
    let header = format!("\"workload\": \"{}\", \"seed\": {seed}", bench.workload.name());
    tracer.write(&path, &header, &counts)?;
    report.notes.push(format!("spans written to {}", path.display()));
    Ok(())
}

/// How a traced iteration disagrees with its untraced campaign (every
/// output set must equal the untraced texts) or with the first
/// iteration (counts of simulated work must repeat exactly).
fn disagreements(untraced: &[String], it: &Iteration, first: Option<&Iteration>) -> Vec<String> {
    let mut problems = Vec::new();
    if it.outputs.is_empty() || it.outputs.iter().any(|texts| texts != untraced) {
        problems.push("traced outputs differ from the untraced campaign's".to_owned());
    }
    if first.is_some_and(|first| first.counts != it.counts) {
        problems.push("simulated-statistic counts changed between iterations".to_owned());
    }
    problems
}

/// One traced iteration of the bench's workload.
fn iteration(bench: &mut Bench, tracer: &Tracer, id: u32) -> Result<Iteration, String> {
    match bench.workload {
        Workload::StaticAudit => audit_iteration(bench, tracer, id),
        _ => engine_iteration(bench, tracer, id),
    }
}

/// The engine campaign again, through `run_with`, then the shard pass.
fn engine_iteration(bench: &mut Bench, tracer: &Tracer, id: u32) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let spec = bench.spec().clone();
    let store = (bench.workload == Workload::MultifaultPairs).then(|| bench.fresh_store());
    let engine = match &store {
        Some(dir) => Engine::with_store(dir),
        None => Engine::ephemeral(),
    };
    let chunks = exec_counter("gd_exec_chunks_executed_total");
    let serial = exec_counter("gd_exec_serial_fallbacks_total");
    let events: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let root = tracer.open("campaign", None, id);
    let result = engine.run_with(&spec, &|_, _| {
        events.lock().expect("event lock is never poisoned").push(Instant::now());
    });
    let end = Instant::now();
    it.campaign = tracer.close(root);
    let result = result.map_err(|e| e.to_string())?;
    it.counts.insert("exec.chunks", exec_counter("gd_exec_chunks_executed_total") - chunks);
    it.counts
        .insert("exec.serial_fallbacks", exec_counter("gd_exec_serial_fallbacks_total") - serial);
    let events = events.into_inner().expect("event lock is never poisoned");
    if let (Some(&first), Some(&last)) = (events.first(), events.last()) {
        tracer.record("engine.fanout", first, last, Some(root), id);
        tracer.record("engine.tail", last, end, Some(root), id);
        it.times.insert("campaign.tail_ms", ms(end - last));
    }
    it.outputs.push(vec![result.text]);

    if let Some(dir) = &store {
        let (bytes, files) = dir_size(dir)?;
        it.counts.insert("campaign.store_bytes", bytes);
        it.counts.insert("campaign.store_files", files);
        let (hit, took) =
            tracer.span("engine.cache_hit", None, id, || Engine::with_store(dir).run(&spec));
        it.times.insert("campaign.cache_hit_ms", ms(took));
        it.outputs.push(vec![hit.map_err(|e| e.to_string())?.text]);
        fs::remove_dir_all(dir).map_err(|e| format!("removing store {}: {e}", dir.display()))?;
    }

    shard_pass(bench, &spec, tracer, id, &mut it)?;
    Ok(it)
}

/// Per-shard measurements of the shard pass.
#[derive(Default, Clone, Copy)]
struct Walk {
    simulated: u64,
    attempt: Duration,
    cycles: u64,
    retired: u64,
    pretrigger: u64,
    compile: Duration,
}

/// Runs every shard of the plan on the pinned workers, timing each, and
/// renders the results.
fn shard_pass(
    bench: &Bench,
    spec: &CampaignSpec,
    tracer: &Tracer,
    id: u32,
    it: &mut Iteration,
) -> Result<(), String> {
    let plan = shard_plan(spec);
    let model = spec.model.model();
    let pass = tracer.open("shard_pass", None, id);
    let t = Instant::now();
    let done: Vec<(ShardResult, Duration, Walk)> = gd_exec::par_map(&plan, |work| {
        let start = Instant::now();
        let (result, walk) = match *work {
            ShardWork::Table6Cell { target, attack, defense } => {
                table6_walk(&model, target, TABLE6_ATTACKS[attack], TABLE6_DEFENSES[defense])
            }
            _ => (run_shard(spec, work), Walk::default()),
        };
        let end = Instant::now();
        tracer.record(&format!("shard {}", work.label()), start, end, Some(pass), id);
        (result, end - start, walk)
    });
    let fanout = t.elapsed();
    tracer.close(pass);

    let busy: Duration = done.iter().map(|(_, d, _)| *d).sum();
    let mut shard_ms: Vec<f64> = done.iter().map(|(_, d, _)| ms(*d)).collect();
    shard_ms.sort_by(f64::total_cmp);
    it.counts.insert("campaign.shards", plan.len() as u64);
    it.times.insert("campaign.shard_ms.p50", stats::median(&shard_ms).unwrap_or(0.0));
    it.times.insert("campaign.shard_ms.max", shard_ms.last().copied().unwrap_or(0.0));
    let capacity = bench.workers as f64 * fanout.as_secs_f64();
    it.times.insert("exec.idle_frac", 1.0 - busy.as_secs_f64() / capacity);

    match bench.workload {
        Workload::Fig2Sweeps => {
            let trials: u64 = done.iter().map(|(r, _, _)| shard_faults(r)).sum();
            it.counts.insert("glitch_emu.trials", trials);
            it.times.insert("glitch_emu.trial_ns", per_unit_ns(busy, trials));
        }
        Workload::DefenseScan => {
            let mut w = Walk::default();
            let mut compile_ms = Vec::new();
            for (_, _, s) in &done {
                w.simulated += s.simulated;
                w.attempt += s.attempt;
                w.cycles += s.cycles;
                w.retired += s.retired;
                w.pretrigger += s.pretrigger;
                compile_ms.push(ms(s.compile));
            }
            let attempts: u64 = done.iter().map(|(r, _, _)| shard_faults(r)).sum();
            it.counts.insert("cw.attempts", attempts);
            it.counts.insert("cw.attempts_simulated", w.simulated);
            it.counts.insert("pipeline.cycles", w.cycles);
            it.counts.insert("pipeline.retired", w.retired);
            it.times.insert("cw.attempt_us", per_unit_ns(w.attempt, w.simulated) / 1e3);
            it.times.insert("pipeline.ns_per_cycle", per_unit_ns(w.attempt, w.cycles));
            it.times
                .insert("pipeline.pretrigger_frac", w.pretrigger as f64 / w.cycles.max(1) as f64);
            it.times.insert("harden.compile_ms", stats::median(&compile_ms).unwrap_or(0.0));
        }
        Workload::MultifaultPairs => {
            // Order-1 model shards, then order-2 pair buckets.
            let orders = [
                (false, ["faultsim.enumerated.o1", "faultsim.pruned.o1", "faultsim.simulated.o1"]),
                (true, ["faultsim.enumerated.o2", "faultsim.pruned.o2", "faultsim.simulated.o2"]),
            ];
            for (pairs, [enumerated_name, pruned_name, simulated_name]) in orders {
                let (mut enumerated, mut pruned, mut simulated) = (0, 0, 0);
                let mut order_busy = Duration::ZERO;
                for (work, (result, d, _)) in plan.iter().zip(&done) {
                    if matches!(work, ShardWork::MultifaultPairs { .. }) != pairs {
                        continue;
                    }
                    if let ShardResult::Multifault {
                        enumerated: e, pruned: p, simulated: s, ..
                    } = result
                    {
                        enumerated += e;
                        pruned += p;
                        simulated += s;
                        order_busy += *d;
                    }
                }
                it.counts.insert(enumerated_name, enumerated);
                it.counts.insert(pruned_name, pruned);
                it.counts.insert(simulated_name, simulated);
                let trial_name =
                    if pairs { "faultsim.trial_ns.o2" } else { "faultsim.trial_ns.o1" };
                it.times.insert(trial_name, per_unit_ns(order_busy, simulated));
            }
            it.counts.insert("faultsim.replayed_steps", boot_campaign().runner().replayed());
        }
        Workload::StaticAudit => unreachable!("static_audit has no shard plan"),
    }

    let pairs: Vec<(ShardWork, ShardResult)> =
        plan.iter().copied().zip(done.into_iter().map(|(r, _, _)| r)).collect();
    let (text, took) = tracer.span("render", None, id, || render(spec, &pairs));
    it.times.insert("campaign.render_ms", ms(took));
    it.outputs.push(vec![text?]);
    Ok(())
}

/// One Table VI cell as `shards::run_shard` computes it — harden, then
/// `defense::run_cell`'s grid walk — with every attempt's pipeline
/// counters read.
fn table6_walk(
    model: &FaultModel,
    target: usize,
    attack: Attack,
    defenses: Defenses,
) -> (ShardResult, Walk) {
    let mut walk = Walk::default();
    let (_, module) = gd_firmware::table6_targets().swap_remove(target);
    let t = Instant::now();
    let device = hardened_device(&module, defenses);
    walk.compile = t.elapsed();
    let spec = AttackSpec {
        success: SuccessCheck::HaltWithR0(gd_firmware::SUCCESS_MARKER),
        max_cycles: budget_for(&device),
    };
    let grid = full_grid();
    let mut cell = DefenseCell::default();
    let mut nvm: Vec<u8> = Vec::new();
    let mut boot = 0u64;
    for (start, repeat) in attack.shapes() {
        for &(width, offset) in &grid {
            boot += 1;
            cell.total += 1;
            if model.severity(width, offset) == 0.0 {
                continue;
            }
            let params = GlitchParams { ext_offset: start, repeat, width, offset };
            let t = Instant::now();
            let attempt = run_attack(&device, model, params, boot, &spec, Some(&mut nvm));
            walk.attempt += t.elapsed();
            walk.simulated += 1;
            walk.cycles += attempt.pipe.cycle();
            walk.retired += attempt.pipe.retired();
            walk.pretrigger += attempt.pipe.trigger_cycle().unwrap_or(0);
            match attempt.outcome {
                AttackOutcome::Success => cell.successes += 1,
                AttackOutcome::Detected => cell.detections += 1,
                AttackOutcome::Crash | AttackOutcome::Reset => cell.crashes += 1,
                AttackOutcome::NoEffect => {}
            }
        }
    }
    (ShardResult::Defense(cell), walk)
}

/// The audit pass again, then every configuration's analysis and the
/// agreement sweeps timed on their own.
fn audit_iteration(bench: &mut Bench, tracer: &Tracer, id: u32) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let chunks = exec_counter("gd_exec_chunks_executed_total");
    let serial = exec_counter("gd_exec_serial_fallbacks_total");
    let busy = exec_counter("gd_exec_worker_busy_us_total");
    let root = tracer.open("campaign", None, id);
    let (boot, _) = tracer.span("cfg_report.full_report", Some(root), id, cfg_report::full_report);
    let (ingest, _) =
        tracer.span("cfg_report.ingest_report", Some(root), id, cfg_report::ingest_report);
    it.campaign = tracer.close(root);
    it.outputs.push(vec![boot, ingest]);
    it.counts.insert("exec.chunks", exec_counter("gd_exec_chunks_executed_total") - chunks);
    it.counts
        .insert("exec.serial_fallbacks", exec_counter("gd_exec_serial_fallbacks_total") - serial);
    let busy_s = (exec_counter("gd_exec_worker_busy_us_total") - busy) as f64 / 1e6;
    it.times.insert(
        "exec.idle_frac",
        1.0 - busy_s / (bench.workers as f64 * it.campaign.as_secs_f64()),
    );

    let mut compile_ms = Vec::new();
    let (mut blocks, mut rounds, mut iters) = (0u64, 0u64, 0u64);
    let mut count_graph = |g: &gd_cfg::Cfg| {
        blocks += g.blocks.len() as u64;
        rounds += g.rounds;
        iters += g.fixpoint_iterations;
    };
    for (name, defenses) in gd_bench::overhead::configurations() {
        let (a, took) = tracer
            .span(&format!("analyze_boot {name}"), None, id, || cfg_report::analyze_boot(defenses));
        compile_ms.push(ms(took));
        count_graph(&a.g);
    }
    count_graph(&cfg_report::analyze_ingest(&cfg_report::ingest_demo()).g);
    it.counts.insert("cfg.blocks", blocks);
    it.counts.insert("cfg.rounds", rounds);
    it.counts.insert("cfg.fixpoint_iterations", iters);
    it.times.insert("harden.compile_ms", stats::median(&compile_ms).unwrap_or(0.0));

    let sweep = tracer.open("agreement", None, id);
    let agreements = [
        cfg_report::boot_agreement("None", Defenses::NONE),
        cfg_report::boot_agreement("All", Defenses::ALL),
        cfg_report::ingest_agreement(),
    ];
    it.times.insert("cfg.agreement_ms", ms(tracer.close(sweep)));
    it.counts.insert("cfg.instances", agreements.iter().map(|a| a.total.total()).sum());
    it.counts.insert("cfg.unsound", agreements.iter().map(|a| a.total.unsound).sum());
    Ok(it)
}

/// Total bytes and file count under `dir`.
fn dir_size(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = 0;
    let mut files = 0;
    let entries = fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let meta = entry.metadata().map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        if meta.is_dir() {
            let (b, f) = dir_size(&entry.path())?;
            bytes += b;
            files += f;
        } else {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// Times each layer's public calls on a small fixed input: the first
/// Figure 2 shard through a store-backed engine and again from its
/// cache; one branch case's predecode, runner and sweep; one hardened
/// Table VI device's compile, budget, boots and first simulated
/// attempts; the boot campaign's pruning, runner and first trials; the
/// demo dump's ingestion and the boot image's CFG recovery; the ingest
/// agreement sweep.
fn probes(bench: &mut Bench, tracer: &Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let probe = tracer.open("probes", None, 0);

    // gd-campaign: one shard, one store.
    let mut spec = CampaignSpec::fig2();
    spec.shards = Some((0, 1));
    spec.threads = Some(bench.workers as u32);
    let dir = bench.fresh_store();
    let last: Mutex<Option<Instant>> = Mutex::new(None);
    let first = Engine::with_store(&dir).run_with(&spec, &|_, _| {
        *last.lock().expect("event lock is never poisoned") = Some(Instant::now());
    });
    let end = Instant::now();
    let first = first.map_err(|e| e.to_string())?;
    if let Some(last) = last.into_inner().expect("event lock is never poisoned") {
        m.insert("campaign.tail_ms", ms(end - last));
    }
    let t = Instant::now();
    let hit = Engine::with_store(&dir).run(&spec).map_err(|e| e.to_string())?;
    m.insert("campaign.cache_hit_ms", ms(t.elapsed()));
    fs::remove_dir_all(&dir).map_err(|e| format!("removing store {}: {e}", dir.display()))?;
    let work = shard_plan(&spec)[0];
    let t = Instant::now();
    let shard = run_shard(&spec, &work);
    let shard_ms = ms(t.elapsed());
    m.insert("campaign.shard_ms.p50", shard_ms);
    m.insert("campaign.shard_ms.max", shard_ms);
    let t = Instant::now();
    let text = render(&spec, &[(work, shard)])?;
    m.insert("campaign.render_ms", ms(t.elapsed()));
    if text != first.text || hit.text != first.text {
        return Err("probe: one-shard Figure 2 outputs disagree".into());
    }

    // gd-glitch-emu and gd-emu: one branch case, one worker.
    let (_, direction, cfg) = gd_campaign::fig2::panel_configs()[0];
    let case = branch_case(gd_thumb::Cond::ALL[0]);
    let t = Instant::now();
    let image = case.predecode(cfg);
    m.insert("emu.predecode_us", t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    std::hint::black_box(PerturbRunner::with_image(&case, cfg, image.clone()));
    m.insert("glitch_emu.runner_us", t.elapsed().as_secs_f64() * 1e6);
    let t = Instant::now();
    let sweep = gd_exec::with_threads(1, || sweep_case_with(&case, &image, direction, cfg));
    let trials: u64 = sweep.per_k.iter().map(|t| t.total()).sum();
    m.insert("glitch_emu.trial_ns", per_unit_ns(t.elapsed(), trials));

    // gd-chipwhisperer, gd-pipeline, glitch-resistor: one hardened device.
    let (_, module) = gd_firmware::table6_targets().swap_remove(0);
    let t = Instant::now();
    let device = hardened_device(&module, Defenses::ALL);
    m.insert("harden.compile_ms", ms(t.elapsed()));
    let t = Instant::now();
    let max_cycles = budget_for(&device);
    m.insert("cw.budget_ms", ms(t.elapsed()));
    let t = Instant::now();
    for _ in 0..PROBE_BOOTS {
        std::hint::black_box(device.boot());
    }
    m.insert("cw.boot_us", t.elapsed().as_secs_f64() * 1e6 / PROBE_BOOTS as f64);
    let (took, cycles, pretrigger) = probe_attempts(&device, max_cycles);
    m.insert("cw.attempt_us", per_unit_ns(took, PROBE_ATTEMPTS as u64) / 1e3);
    m.insert("pipeline.ns_per_cycle", per_unit_ns(took, cycles));
    m.insert("pipeline.pretrigger_frac", pretrigger as f64 / cycles.max(1) as f64);

    // gd-faultsim: the boot campaign's pruning, runner and trials.
    let campaign = boot_campaign();
    let slots = halfword_slots(&campaign.image, &SCOPE_FUNCS);
    let t = Instant::now();
    for (i, model) in Registry::standard().models().iter().enumerate() {
        std::hint::black_box(prune_model(i, model.as_ref(), &campaign.sites, slots, campaign.cfg));
    }
    m.insert("faultsim.prune_ms", ms(t.elapsed()));
    let t = Instant::now();
    let mut runner = campaign.runner();
    m.insert("faultsim.runner_us", t.elapsed().as_secs_f64() * 1e6);
    let simulated = |model: usize| {
        campaign.per_model[model].classes.iter().filter(|c| c.outcome.is_none()).map(|c| c.rep())
    };
    let singles: Vec<_> = simulated(0).take(PROBE_TRIALS).collect();
    let t = Instant::now();
    for f in &singles {
        std::hint::black_box(runner.run(&[*f]));
    }
    m.insert("faultsim.trial_ns.o1", per_unit_ns(t.elapsed(), singles.len() as u64));
    let pairs: Vec<_> =
        singles.iter().zip(simulated(3).skip(1)).filter(|(a, b)| a.site != b.site).collect();
    let t = Instant::now();
    for (a, b) in &pairs {
        std::hint::black_box(runner.run(&[**a, *b]));
    }
    m.insert("faultsim.trial_ns.o2", per_unit_ns(t.elapsed(), pairs.len() as u64));

    // gd-ingest, gd-cfg: the demo dump and the boot image.
    let blob =
        fs::read("testdata/ingest_demo.bin").map_err(|e| format!("reading demo dump: {e}"))?;
    let t = Instant::now();
    gd_ingest::ingest_bin(&blob, gd_ingest::testimg::DEMO_BASE).map_err(|e| e.to_string())?;
    m.insert("ingest.ms", ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(gd_cfg::recover(&campaign.image, campaign.cfg));
    m.insert("cfg.recover_ms", ms(t.elapsed()));
    let t = Instant::now();
    std::hint::black_box(cfg_report::ingest_agreement());
    m.insert("cfg.agreement_ms", ms(t.elapsed()));

    tracer.close(probe);
    Ok(m)
}

/// The first [`PROBE_ATTEMPTS`] simulated attempts of a Single-glitch
/// walk: wall time, cycles and pre-trigger cycles.
fn probe_attempts(device: &Device, max_cycles: u64) -> (Duration, u64, u64) {
    let model = FaultModel::default();
    let spec =
        AttackSpec { success: SuccessCheck::HaltWithR0(gd_firmware::SUCCESS_MARKER), max_cycles };
    let mut nvm = Vec::new();
    let (mut took, mut cycles, mut pretrigger) = (Duration::ZERO, 0, 0);
    let grid = full_grid();
    let live = grid.iter().filter(|&&(w, o)| model.severity(w, o) != 0.0);
    for (boot, &(width, offset)) in live.take(PROBE_ATTEMPTS).enumerate() {
        let params = GlitchParams { ext_offset: 0, repeat: 1, width, offset };
        let t = Instant::now();
        let attempt = run_attack(device, &model, params, boot as u64 + 1, &spec, Some(&mut nvm));
        took += t.elapsed();
        cycles += attempt.pipe.cycle();
        pretrigger += attempt.pipe.trigger_cycle().unwrap_or(0);
    }
    (took, cycles, pretrigger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_outputs_are_equal() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut bench =
            Bench::new(Workload::StaticAudit, 0, 2, &root, std::env::temp_dir()).unwrap();
        let untraced = bench.campaign().unwrap();
        let tracer = Tracer::new();
        let first = audit_iteration(&mut bench, &tracer, 1).unwrap();
        assert_eq!(disagreements(&untraced.texts, &first, None), Vec::<String>::new());
        assert_eq!(first.counts.get("cfg.instances"), Some(&6307));
        assert_eq!(first.counts.get("cfg.unsound"), Some(&0));

        let second = audit_iteration(&mut bench, &tracer, 2).unwrap();
        assert!(disagreements(&untraced.texts, &second, Some(&first)).is_empty());

        let mut corrupted = Iteration { counts: second.counts.clone(), ..Iteration::default() };
        let mut texts = untraced.texts.clone();
        texts[0].push('\n');
        corrupted.outputs.push(texts);
        assert_eq!(disagreements(&untraced.texts, &corrupted, Some(&first)).len(), 1);

        let mut drifted = Iteration { outputs: second.outputs.clone(), ..Iteration::default() };
        drifted.counts = second.counts.clone();
        *drifted.counts.get_mut("cfg.blocks").unwrap() += 1;
        assert_eq!(disagreements(&untraced.texts, &drifted, Some(&first)).len(), 1);
    }
}
