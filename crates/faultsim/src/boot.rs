//! The representative multi-fault campaign over `firmware::boot`:
//! shared enumeration/pruning state and the first/second-order shard
//! executors the campaign engine dispatches.

use std::sync::OnceLock;

use gd_backend::FirmwareImage;
use gd_emu::Config;
use gd_glitch_emu::{Outcome, Tally};

use crate::metrics;
use crate::model::{FaultInstance, Registry, SiteInfo};
use crate::prune::{halfword_slots, prune_model, sites, FaultClass, ModelClasses};
use crate::runner::MultiFaultRunner;

/// The scoped routines: everything `main` runs after `hal_init`, so the
/// per-trial snapshot replays the whole HAL bring-up exactly once.
pub const SCOPE_FUNCS: [&str; 3] = ["crc_mix", "check_tick", "report"];

/// Registry indices whose pruned representatives form the second-order
/// pair space (single-bit transient flips × transient skips).
pub const O2_MODELS: [usize; 2] = [0, 3];

/// Fixed bucket count for second-order shards: pair `i` belongs to
/// bucket `i % O2_BUCKETS`, so the shard plan needs no enumeration and
/// the bucket partition is independent of worker count.
pub const O2_BUCKETS: u32 = 8;

/// Pruning and simulation counters for one shard or campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfStats {
    /// Raw candidates (or candidate pairs) in the unpruned space.
    pub enumerated: u64,
    /// Candidates removed before simulation.
    pub pruned: u64,
    /// Trials actually simulated.
    pub simulated: u64,
}

impl MfStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &MfStats) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        self.simulated += other.simulated;
    }

    /// Pruned fraction of the enumerated space, in milli-units
    /// (0..=1000) — integral so goldens and trajectories stay exact.
    pub fn pruned_ratio_milli(&self) -> u64 {
        if self.enumerated == 0 {
            0
        } else {
            self.pruned * 1000 / self.enumerated
        }
    }
}

/// The shared, immutable campaign state: compiled image, instruction
/// walk, and pruned classes per registry model. Built once per process.
#[derive(Debug)]
pub struct BootCampaign {
    /// The compiled (unhardened) boot image.
    pub image: FirmwareImage,
    /// Emulator configuration the campaign runs under.
    pub cfg: Config,
    /// Instruction-start sites of [`SCOPE_FUNCS`].
    pub sites: Vec<SiteInfo>,
    /// Pruned classes, aligned with [`Registry::standard`] order.
    pub per_model: Vec<ModelClasses>,
}

impl BootCampaign {
    fn build() -> BootCampaign {
        let image = gd_backend::compile(&gd_firmware::boot(), "main").expect("boot compiles");
        let cfg = Config::default();
        let scope_sites = sites(&image, cfg, &SCOPE_FUNCS);
        let slots = halfword_slots(&image, &SCOPE_FUNCS);
        let registry = Registry::standard();
        let per_model = registry
            .models()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mc = prune_model(i, m.as_ref(), &scope_sites, slots, cfg);
                metrics::candidates(mc.name).add(mc.enumerated);
                metrics::pruned(mc.name).add(mc.pruned());
                mc
            })
            .collect();
        BootCampaign { image, cfg, sites: scope_sites, per_model }
    }

    /// Scoped address ranges for the runner's snapshot point.
    pub fn scope_ranges(&self) -> Vec<(u32, u32)> {
        SCOPE_FUNCS
            .iter()
            .map(|name| {
                let e = self.image.extent(name).expect("scoped routine exists");
                (e.base, e.end)
            })
            .collect()
    }

    /// A trial runner over this campaign's image and scope.
    pub fn runner(&self) -> MultiFaultRunner {
        MultiFaultRunner::new(&self.image, self.cfg, &self.scope_ranges())
    }

    /// First-order stats for one model.
    pub fn order1_stats(&self, model: usize) -> MfStats {
        let mc = &self.per_model[model];
        MfStats { enumerated: mc.enumerated, pruned: mc.pruned(), simulated: mc.simulated }
    }
}

/// The process-wide campaign state (enumeration and pruning run once;
/// every shard of every engine worker reuses it).
pub fn boot_campaign() -> &'static BootCampaign {
    static CAMPAIGN: OnceLock<BootCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(BootCampaign::build)
}

/// Executes the first-order campaign for one registry model: one
/// simulated trial per canonical class, tally weighted by class size —
/// identical, by the pruning equivalence, to simulating the whole space.
pub fn order1_shard(model: usize) -> (Tally, MfStats) {
    let campaign = boot_campaign();
    let mc = &campaign.per_model[model];
    let mut runner = campaign.runner();
    let mut tally = Tally::default();
    let mut simulated = 0u64;
    for class in &mc.classes {
        let outcome = match class.outcome {
            Some(o) => o,
            None => {
                simulated += 1;
                runner.run(&[class.rep()])
            }
        };
        tally.record_n(outcome, class.weight());
    }
    // Candidates the walk never visited (pools, padding, mid-instruction
    // halfwords) never fire with fetch-stage injection: No Effect.
    tally.record_n(
        Outcome::NoEffect,
        mc.enumerated - mc.classes.iter().map(FaultClass::weight).sum::<u64>(),
    );
    debug_assert_eq!(tally.total(), mc.enumerated);
    metrics::simulated(mc.name).add(simulated);
    metrics::record_tally(mc.name, &tally);
    (tally, MfStats { enumerated: mc.enumerated, pruned: mc.pruned(), simulated })
}

/// One second-order pair-space member: a canonical representative with
/// its class weight and its first-order outcome.
#[derive(Debug, Clone, Copy)]
struct O2Rep {
    fault: FaultInstance,
    weight: u64,
    /// First-order outcome of the representative. For statically-pruned
    /// classes this doubles as the pair shortcut: pairing a No-Effect
    /// fault with `g` yields `g`'s own first-order outcome.
    o1: Outcome,
    is_static: bool,
}

/// The second-order representative list: pruned classes of
/// [`O2_MODELS`], each annotated with its first-order outcome (computed
/// once; pairs with a statically No-Effect member resolve to the other
/// member's outcome without simulation).
fn order2_reps() -> &'static Vec<O2Rep> {
    static REPS: OnceLock<Vec<O2Rep>> = OnceLock::new();
    REPS.get_or_init(|| {
        let campaign = boot_campaign();
        let mut runner = campaign.runner();
        let mut reps = Vec::new();
        for &model in &O2_MODELS {
            for class in &campaign.per_model[model].classes {
                let (o1, is_static) = match class.outcome {
                    Some(o) => (o, true),
                    None => (runner.run(&[class.rep()]), false),
                };
                reps.push(O2Rep { fault: class.rep(), weight: class.weight(), o1, is_static });
            }
        }
        reps
    })
}

/// Executes one bucket of the second-order campaign: every unordered
/// pair of distinct-site representatives whose linear index falls in
/// `bucket` (mod [`O2_BUCKETS`]).
///
/// Pair outcomes: both members No Effect → No Effect; one member No
/// Effect → the other member's first-order outcome (a No-Effect fault
/// is indistinguishable from no fault at all); otherwise both faults
/// are armed in one simulated trial. Weights multiply, so the tallies
/// equal the unpruned pair space's.
pub fn order2_shard(bucket: u32) -> (Tally, MfStats) {
    order2_shard_on(&mut boot_campaign().runner(), bucket)
}

/// [`order2_shard`] on a caller-provided runner (from
/// [`BootCampaign::runner`]), so the caller can read its trial-loop
/// counters afterwards.
pub fn order2_shard_on(runner: &mut MultiFaultRunner, bucket: u32) -> (Tally, MfStats) {
    let reps = order2_reps();
    let mut tally = Tally::default();
    let mut stats = MfStats::default();
    let mut index = 0u64;
    for a in 0..reps.len() {
        for b in (a + 1)..reps.len() {
            let (ra, rb) = (reps[a], reps[b]);
            if ra.fault.site == rb.fault.site {
                continue; // one fetch, one fault: same-site pairs are undefined
            }
            let mine = index % u64::from(O2_BUCKETS) == u64::from(bucket);
            index += 1;
            if !mine {
                continue;
            }
            let weight = ra.weight * rb.weight;
            stats.enumerated += weight;
            let outcome = match (ra.is_static, rb.is_static) {
                (true, true) => Outcome::NoEffect,
                (true, false) => rb.o1,
                (false, true) => ra.o1,
                (false, false) => {
                    stats.simulated += 1;
                    runner.run(&[ra.fault, rb.fault])
                }
            };
            tally.record_n(outcome, weight);
        }
    }
    stats.pruned = stats.enumerated - stats.simulated;
    metrics::simulated(metrics::PAIRS_LABEL).add(stats.simulated);
    metrics::candidates(metrics::PAIRS_LABEL).add(stats.enumerated);
    metrics::pruned(metrics::PAIRS_LABEL).add(stats.pruned);
    metrics::record_tally(metrics::PAIRS_LABEL, &tally);
    (tally, stats)
}
