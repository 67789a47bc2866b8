//! The four benchmark workloads: their set-up calls, one campaign each,
//! and the check of every campaign's output against its reference.
//!
//! Every campaign goes through the public entry the golden binaries use,
//! `Engine::run(&CampaignSpec::…)`, except `static_audit`, whose golden
//! binary (`gd-cfg`) calls `cfg_report::full_report()` and
//! `cfg_report::ingest_report()` directly.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gd_bench::cfg_report;
use gd_campaign::defense::Attack;
use gd_campaign::shards::ShardResult;
use gd_campaign::{CampaignSpec, Engine};
use gd_chipwhisperer::{full_grid, FaultModel};

/// Table VI attack shapes in the row order of `shards::shard_plan`
/// (its `Table6Cell::attack` indexes this order).
pub const TABLE6_ATTACKS: [Attack; 3] = [Attack::Single, Attack::Long, Attack::Window10];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated Figure 2 campaigns, each on a fresh ephemeral engine.
    Fig2Sweeps,
    /// Repeated Table VI campaigns under the seed's fault landscape.
    DefenseScan,
    /// Repeated multifault campaigns, each on a fresh empty store.
    MultifaultPairs,
    /// Repeated CFG/lint agreement passes over boot and the ingest demo.
    StaticAudit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Sweeps,
        Workload::DefenseScan,
        Workload::MultifaultPairs,
        Workload::StaticAudit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Sweeps => "fig2_sweeps",
            Workload::DefenseScan => "defense_scan",
            Workload::MultifaultPairs => "multifault_pairs",
            Workload::StaticAudit => "static_audit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The public set-up calls a fresh process makes before its first
    /// campaign. Their wall time is `setup_s`.
    ///
    /// - `fig2_sweeps`, `defense_scan`: `Engine::ephemeral()`, whose
    ///   first call registers the engine, chaos, fault-sim and executor
    ///   metric families and reads the chaos schedule.
    /// - `multifault_pairs`: the same, plus `gd_faultsim::boot_campaign()`
    ///   (compile `firmware::boot`, walk the scoped sites, prune all six
    ///   fault models).
    /// - `static_audit`: `cfg_report::ingest_demo()` (read and ingest the
    ///   committed demo dump) and `Engine::ephemeral()`.
    pub fn setup_calls(self) {
        std::hint::black_box(Engine::ephemeral());
        match self {
            Workload::Fig2Sweeps | Workload::DefenseScan => {}
            Workload::MultifaultPairs => {
                std::hint::black_box(gd_faultsim::boot_campaign());
            }
            Workload::StaticAudit => {
                std::hint::black_box(cfg_report::ingest_demo());
            }
        }
    }
}

/// The outputs of one campaign and the work it classified.
#[derive(Debug, Clone)]
pub struct Output {
    /// Report texts, compared byte for byte against the reference.
    pub texts: Vec<String>,
    /// Fault instances classified (pruned and out-of-region included).
    pub faults: u64,
    /// Wall time from the call into the program to its return.
    pub wall: Duration,
    /// Engine shard results (empty for `static_audit`).
    pub shards: Vec<ShardResult>,
}

/// One workload's state across the campaigns of a run.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The campaign spec (`None` for `static_audit`).
    spec: Option<CampaignSpec>,
    /// Worker count every fan-out is pinned to.
    pub workers: usize,
    /// Expected texts: the goldens, or for `defense_scan` at a seed
    /// other than 0 the first campaign's output.
    reference: Option<Vec<String>>,
    /// Directory for the stores of `multifault_pairs`.
    work_dir: PathBuf,
    stores: u32,
}

/// The fault-landscape seed `defense_scan` runs under: the published
/// landscape at benchmark seed 0, a different chip for every other seed.
fn landscape_seed(seed: u64) -> u64 {
    FaultModel::default().seed ^ seed
}

/// Planned attempts of one Table VI cell: every shape × the full grid.
fn table6_planned(attack: usize) -> u64 {
    (TABLE6_ATTACKS[attack].shapes().len() * full_grid().len()) as u64
}

fn golden(root: &Path, name: &str) -> Result<String, String> {
    let path = root.join("results").join(name);
    fs::read_to_string(&path).map_err(|e| format!("reading reference {}: {e}", path.display()))
}

impl Bench {
    /// Reads the references and builds the campaign spec. Makes no
    /// set-up call into the program.
    ///
    /// # Errors
    ///
    /// Fails when a golden file cannot be read.
    pub fn new(
        workload: Workload,
        seed: u64,
        workers: usize,
        root: &Path,
        work_dir: PathBuf,
    ) -> Result<Bench, String> {
        let pinned = |mut spec: CampaignSpec| {
            spec.threads = Some(workers as u32);
            Some(spec)
        };
        let (spec, reference) = match workload {
            Workload::Fig2Sweeps => (pinned(CampaignSpec::fig2()), vec![golden(root, "fig2.txt")?]),
            Workload::DefenseScan => {
                let mut spec = CampaignSpec::table6();
                spec.model.seed = landscape_seed(seed);
                let reference =
                    if seed == 0 { vec![golden(root, "table6.txt")?] } else { Vec::new() };
                (pinned(spec), reference)
            }
            Workload::MultifaultPairs => {
                (pinned(CampaignSpec::multifault()), vec![golden(root, "multifault_boot.txt")?])
            }
            Workload::StaticAudit => {
                (None, vec![golden(root, "cfg_boot.txt")?, golden(root, "cfg_ingest.txt")?])
            }
        };
        let reference = (!reference.is_empty()).then_some(reference);
        Ok(Bench { workload, spec, workers, reference, work_dir, stores: 0 })
    }

    /// The spec of an engine workload.
    ///
    /// # Panics
    ///
    /// Panics for `static_audit`, which has no campaign spec.
    pub fn spec(&self) -> &CampaignSpec {
        self.spec.as_ref().expect("engine workloads carry a spec")
    }

    /// A fresh, not yet existing store directory.
    pub fn fresh_store(&mut self) -> PathBuf {
        self.stores += 1;
        self.work_dir.join(format!("store-{}-{}", std::process::id(), self.stores))
    }

    /// Runs one campaign untraced.
    ///
    /// # Errors
    ///
    /// Returns the engine's error as text.
    pub fn campaign(&mut self) -> Result<Output, String> {
        match self.workload {
            Workload::Fig2Sweeps | Workload::DefenseScan => {
                let engine = Engine::ephemeral();
                let t = Instant::now();
                let result = engine.run(self.spec()).map_err(|e| e.to_string())?;
                Ok(engine_output(result, t.elapsed()))
            }
            Workload::MultifaultPairs => {
                let dir = self.fresh_store();
                let engine = Engine::with_store(&dir);
                let t = Instant::now();
                let result = engine.run(self.spec());
                let wall = t.elapsed();
                let removed = fs::remove_dir_all(&dir);
                let result = result.map_err(|e| e.to_string())?;
                removed.map_err(|e| format!("removing store {}: {e}", dir.display()))?;
                Ok(engine_output(result, wall))
            }
            Workload::StaticAudit => Ok(gd_exec::with_threads(self.workers, || {
                let t = Instant::now();
                let texts = vec![cfg_report::full_report(), cfg_report::ingest_report()];
                let wall = t.elapsed();
                let faults = texts.iter().map(|t| agreement_instances(t)).sum();
                Output { texts, faults, wall, shards: Vec::new() }
            })),
        }
    }

    /// Checks one campaign's output against the reference. At a
    /// `defense_scan` seed other than 0 the first output passing the
    /// cell-total check becomes the reference for the rest of the run.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check(&mut self, out: &Output) -> Result<(), String> {
        if self.workload == Workload::DefenseScan {
            check_table6_totals(self.spec(), &out.shards)?;
        }
        match &self.reference {
            Some(want) => {
                if want.len() != out.texts.len() {
                    return Err(format!("{} outputs, expected {}", out.texts.len(), want.len()));
                }
                for (i, (got, want)) in out.texts.iter().zip(want).enumerate() {
                    if got != want {
                        return Err(format!("output {i} differs from its reference"));
                    }
                }
                Ok(())
            }
            None => {
                self.reference = Some(out.texts.clone());
                Ok(())
            }
        }
    }
}

fn engine_output(result: gd_campaign::CampaignResult, wall: Duration) -> Output {
    let faults = result.shards.iter().map(shard_faults).sum();
    Output { texts: vec![result.text], faults, wall, shards: result.shards }
}

/// Fault instances one shard classified: every mask of a sweep, every
/// grid attempt of a Table VI cell (out-of-region ones included), every
/// enumerated multifault candidate or pair (pruned ones included).
pub fn shard_faults(shard: &ShardResult) -> u64 {
    match shard {
        ShardResult::Sweep(s) => s.per_k.iter().map(|t| t.total()).sum(),
        ShardResult::Defense(cell) => cell.total,
        ShardResult::Multifault { enumerated, .. } => *enumerated,
        ShardResult::Cell { cell, .. } => cell.attempts,
        ShardResult::Multi { cell, .. } => cell.attempts,
    }
}

/// Every Table VI cell must have made exactly its planned attempts.
fn check_table6_totals(spec: &CampaignSpec, shards: &[ShardResult]) -> Result<(), String> {
    let plan = gd_campaign::shards::shard_plan(spec);
    if plan.len() != shards.len() {
        return Err(format!("{} Table VI cells, planned {}", shards.len(), plan.len()));
    }
    for (work, shard) in plan.iter().zip(shards) {
        let (gd_campaign::shards::ShardWork::Table6Cell { attack, .. }, ShardResult::Defense(cell)) =
            (work, shard)
        else {
            return Err(format!("shard {} is not a Table VI cell", work.label()));
        };
        let planned = table6_planned(*attack);
        if cell.total != planned {
            return Err(format!("{}: Total {} != planned {planned}", work.label(), cell.total));
        }
    }
    Ok(())
}

/// Agreement instances in a rendered `gd-cfg` report: the last column of
/// every confusion table's `total` row.
fn agreement_instances(report: &str) -> u64 {
    report
        .lines()
        .filter(|l| l.starts_with("total "))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig2"), None);
    }

    #[test]
    fn seed_zero_is_the_published_landscape() {
        assert_eq!(landscape_seed(0), FaultModel::default().seed);
        assert_ne!(landscape_seed(1), landscape_seed(0));
    }

    #[test]
    fn table6_cells_plan_the_published_attempts() {
        let per_target: u64 = (0..3).map(table6_planned).sum::<u64>() * 2;
        assert_eq!(per_target * 2, 1_254_528);
    }

    #[test]
    fn agreement_rows_are_summed() {
        let text = "routine s+d+\nmain 1 2 3\ntotal            41   1286      0    254    1581\n\
                    GL0301 3\ntotal             0   4055      0    331    4386\n";
        assert_eq!(agreement_instances(text), 5967);
    }
}
