//! The multi-fault trial loop: one booted emulator, one snapshot taken
//! at the first scoped fetch, predecoded dispatch everywhere else — the
//! `PerturbRunner` pattern generalized to N fetch-stage injections per
//! trial.

use gd_backend::FirmwareImage;
use gd_emu::{Config, Emu, PredecodedImage, Snapshot, StepOutcome, StopReason};
use gd_firmware::BOOT_MARKER;
use gd_glitch_emu::Outcome;
use gd_thumb::Reg;

use crate::model::FaultInstance;

/// Step budget per trial, from reset. `firmware::boot` completes in
/// a few hundred steps; the headroom bounds glitched runs that land in
/// the HAL's wait loops without slowing honest trials.
pub const MF_TRIAL_STEPS: u64 = 4096;

/// The value `firmware::boot`'s impossible path reports — seeing it on
/// the uart means the glitch reached code that no unfaulted execution
/// reaches.
pub const COMPROMISE_VALUE: u32 = 0xC0DE;

/// Replays `firmware::boot` under sets of armed fault injections and
/// classifies each trial.
///
/// Construction boots the image once and advances to the first fetch
/// inside any scoped range — execution before that point cannot observe
/// a fault at a scoped site, so it is identical for every trial and
/// paid once. Each trial restores the snapshot (dropping the previous
/// trial's injections), arms the set, invalidates the injected sites in
/// a working copy of the micro-op table (injections apply on the live
/// fallback path only), runs with a compromise watch on the uart
/// store, and heals the table from a pristine copy.
#[derive(Debug)]
pub struct MultiFaultRunner {
    emu: Emu,
    snap: Snapshot,
    image: PredecodedImage,
    pristine: PredecodedImage,
    budget: u64,
    uart: u32,
}

impl MultiFaultRunner {
    /// Boots `image` and snapshots at the first fetch within `scope`
    /// (half-open address ranges). Falls back to the reset state if no
    /// scoped fetch happens within the budget.
    pub fn new(image: &FirmwareImage, cfg: Config, scope: &[(u32, u32)]) -> MultiFaultRunner {
        let mut emu = image.boot_emu();
        emu.cfg = cfg;
        let pristine = PredecodedImage::from_bytes(image.text_base, &image.text, cfg);
        let in_scope = |pc: u32| scope.iter().any(|&(lo, hi)| pc >= lo && pc < hi);
        let mut clean = true;
        while !in_scope(emu.pc()) && emu.steps() < MF_TRIAL_STEPS {
            match emu.step_predecoded(&pristine) {
                Ok(StepOutcome::Step(_)) => {}
                _ => {
                    clean = false;
                    break;
                }
            }
        }
        if !clean {
            emu = image.boot_emu();
            emu.cfg = cfg;
        }
        let budget = MF_TRIAL_STEPS - emu.steps();
        let snap = emu.snapshot();
        let uart = image.symbol("uart_out");
        MultiFaultRunner { emu, snap, image: pristine.clone(), pristine, budget, uart }
    }

    /// Steps already replayed into the snapshot (per-trial budget is
    /// [`MF_TRIAL_STEPS`] minus this).
    pub fn replayed(&self) -> u64 {
        MF_TRIAL_STEPS - self.budget
    }

    /// Bytes the per-trial snapshot restores have copied back so far
    /// ([`gd_emu::Memory::restored_bytes`]).
    pub fn restored_bytes(&self) -> u64 {
        self.emu.mem.restored_bytes()
    }

    /// Runs one trial with `faults` armed and classifies it.
    ///
    /// Classification extends the Figure 2 taxonomy to the boot
    /// firmware: *Success* when the impossible path's
    /// [`COMPROMISE_VALUE`] is stored to the uart at any point (the
    /// final uart value is overwritten by the normal report, so the
    /// store itself is watched), *No Effect* for a clean stop returning
    /// [`BOOT_MARKER`], fault classes via
    /// [`Outcome::from_fault`], *Failed* otherwise (wrong marker, wrong
    /// stop, stuck).
    pub fn run(&mut self, faults: &[FaultInstance]) -> Outcome {
        self.emu.restore(&self.snap);
        for f in faults {
            self.emu.inject(f.injection());
            self.image.invalidate_range(f.site, 2);
        }
        let mut compromised = false;
        let mut stopped = None;
        let mut fault = None;
        for _ in 0..self.budget {
            match self.emu.step_predecoded(&self.image) {
                Ok(StepOutcome::Step(s)) => {
                    if s.store == Some((self.uart, COMPROMISE_VALUE)) {
                        compromised = true;
                    }
                }
                Ok(StepOutcome::Stop { reason, .. }) => {
                    stopped = Some(reason);
                    break;
                }
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
        }
        for f in faults {
            self.image.heal_range(&self.pristine, f.site, 2);
        }
        if compromised {
            return Outcome::Success;
        }
        match (stopped, fault) {
            (Some(StopReason::Bkpt(_)), _) if self.emu.cpu.reg(Reg::R0) == BOOT_MARKER => {
                Outcome::NoEffect
            }
            (Some(_), _) => Outcome::Failed,
            (None, Some(f)) => Outcome::from_fault(&f),
            (None, None) => Outcome::Failed, // step budget exhausted
        }
    }
}

/// What the unfaulted execution of an image does within the trial
/// budget — the reference a [`DivergenceRunner`] classifies against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Baseline {
    /// Clean stop with this reason and final `r0`.
    Stop(StopReason, u32),
    /// The unfaulted run never stops inside the budget (spin loop).
    Spin,
}

/// [`MultiFaultRunner`] generalized to firmware the compiler did not
/// produce: ingested third-party images have no `uart_out` symbol and no
/// [`BOOT_MARKER`] convention, so trials classify by *divergence from
/// the unfaulted baseline* instead.
///
/// Construction boots the image, advances to the first scoped fetch,
/// snapshots, and replays one unfaulted trial to record the baseline.
/// Each faulted trial then classifies as:
///
/// - *Success* when the optional `(address, value)` store watch fires —
///   the glitch drove a store no honest run performs;
/// - *No Effect* for a clean stop matching the baseline stop reason and
///   final `r0` (or, for a spinning baseline, exhausting the budget at
///   some scoped PC);
/// - fault classes via [`Outcome::from_fault`];
/// - *Failed* otherwise (diverged stop, wrong `r0`, stuck when the
///   baseline finished).
#[derive(Debug)]
pub struct DivergenceRunner {
    emu: Emu,
    snap: Snapshot,
    image: PredecodedImage,
    pristine: PredecodedImage,
    budget: u64,
    watch: Option<(u32, u32)>,
    baseline: Baseline,
}

impl DivergenceRunner {
    /// Boots `image`, snapshots at the first fetch within `scope`, and
    /// records the unfaulted baseline. `watch` is the compromise oracle:
    /// a `(address, value)` store that only glitched control flow can
    /// reach.
    pub fn new(
        image: &FirmwareImage,
        cfg: Config,
        scope: &[(u32, u32)],
        watch: Option<(u32, u32)>,
    ) -> DivergenceRunner {
        let mut emu = image.boot_emu();
        emu.cfg = cfg;
        let pristine = PredecodedImage::from_bytes(image.text_base, &image.text, cfg);
        let in_scope = |pc: u32| scope.iter().any(|&(lo, hi)| pc >= lo && pc < hi);
        let mut clean = true;
        while !in_scope(emu.pc()) && emu.steps() < MF_TRIAL_STEPS {
            match emu.step_predecoded(&pristine) {
                Ok(StepOutcome::Step(_)) => {}
                _ => {
                    clean = false;
                    break;
                }
            }
        }
        if !clean {
            emu = image.boot_emu();
            emu.cfg = cfg;
        }
        let budget = MF_TRIAL_STEPS - emu.steps();
        let snap = emu.snapshot();

        // One unfaulted replay pins the baseline the trials diverge from.
        let mut baseline = Baseline::Spin;
        for _ in 0..budget {
            match emu.step_predecoded(&pristine) {
                Ok(StepOutcome::Step(_)) => {}
                Ok(StepOutcome::Stop { reason, .. }) => {
                    baseline = Baseline::Stop(reason, emu.cpu.reg(Reg::R0));
                    break;
                }
                Err(f) => panic!("unfaulted baseline faults: {f:?}"),
            }
        }
        emu.restore(&snap);
        DivergenceRunner { emu, snap, image: pristine.clone(), pristine, budget, watch, baseline }
    }

    /// Steps already replayed into the snapshot.
    pub fn replayed(&self) -> u64 {
        MF_TRIAL_STEPS - self.budget
    }

    /// Runs one trial with `faults` armed and classifies it against the
    /// baseline.
    pub fn run(&mut self, faults: &[FaultInstance]) -> Outcome {
        self.emu.restore(&self.snap);
        for f in faults {
            self.emu.inject(f.injection());
            self.image.invalidate_range(f.site, 2);
        }
        let mut compromised = false;
        let mut stopped = None;
        let mut fault = None;
        for _ in 0..self.budget {
            match self.emu.step_predecoded(&self.image) {
                Ok(StepOutcome::Step(s)) => {
                    if self.watch.is_some() && s.store == self.watch {
                        compromised = true;
                    }
                }
                Ok(StepOutcome::Stop { reason, .. }) => {
                    stopped = Some(reason);
                    break;
                }
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
        }
        for f in faults {
            self.image.heal_range(&self.pristine, f.site, 2);
        }
        if compromised {
            return Outcome::Success;
        }
        match (stopped, fault, self.baseline) {
            (Some(reason), _, Baseline::Stop(base, r0))
                if reason == base && self.emu.cpu.reg(Reg::R0) == r0 =>
            {
                Outcome::NoEffect
            }
            (Some(_), _, _) => Outcome::Failed,
            (None, Some(f), _) => Outcome::from_fault(&f),
            (None, None, Baseline::Spin) => Outcome::NoEffect,
            (None, None, _) => Outcome::Failed, // budget exhausted, baseline finished
        }
    }
}
