//! Attack execution and parameter-space scans: the drivers behind the
//! paper's Tables I (single glitch), II (multi-glitch), and III (long
//! glitch).

use std::collections::BTreeMap;

use gd_emu::StopReason;
use gd_pipeline::{Pipeline, RunEnd, Window};
use gd_thumb::Reg;

use crate::device::Device;
use crate::model::{FaultModel, GlitchParams};

/// How an attempt decides it "won".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessCheck {
    /// Execution stopped at `bkpt #n` (§V assembly targets mark the
    /// loop-exit path this way).
    Bkpt(u8),
    /// Execution halted at the final `bkpt #0` with `r0` equal to this
    /// marker (§VII compiled firmware returns a success code from `main`).
    HaltWithR0(u32),
}

/// Everything needed to judge one glitch attempt.
#[derive(Debug, Clone, Copy)]
pub struct AttackSpec {
    /// Success criterion.
    pub success: SuccessCheck,
    /// Cycle budget per attempt (a still-spinning loop is *no effect*).
    pub max_cycles: u64,
}

/// Outcome of one glitch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// The guarded code was reached: the glitch worked.
    Success,
    /// The firmware detected the glitch (GlitchResistor's `gr_detected`).
    Detected,
    /// The firmware is still looping / behaved normally.
    NoEffect,
    /// The core crashed (hard fault of any kind).
    Crash,
    /// The glitch browned the core out.
    Reset,
}

/// One finished attempt, with the pipeline for post-mortem inspection.
#[derive(Debug)]
pub struct Attempt {
    /// Classified outcome.
    pub outcome: AttackOutcome,
    /// The device state after the attempt.
    pub pipe: Pipeline,
}

/// Runs one glitch attempt against a fresh boot of `device`.
///
/// `boot` both seeds per-attempt mask noise and, when `nvm` is provided,
/// threads the non-volatile state (delay seed) from attempt to attempt.
/// This is the one-shot form; loops over many attempts use a [`Rig`],
/// which reboots by restoring a snapshot and gives identical results.
pub fn run_attack(
    device: &Device,
    model: &FaultModel,
    params: GlitchParams,
    boot: u64,
    spec: &AttackSpec,
    nvm: Option<&mut Vec<u8>>,
) -> Attempt {
    let mut pipe = device.boot_with_nvm(carried(&nvm));
    let outcome = attack(device, &mut pipe, model, params, boot, spec, nvm);
    Attempt { outcome, pipe }
}

/// A reusable attack bench for one device: a single pipeline rebooted
/// before every attempt by restoring the device's cached power-on
/// snapshot, so an attempt's reset costs what the previous attempt wrote
/// instead of a full boot.
#[derive(Debug)]
pub struct Rig<'d> {
    device: &'d Device,
    pipe: Pipeline,
}

impl<'d> Rig<'d> {
    /// A rig for `device`, powered on.
    pub fn new(device: &'d Device) -> Rig<'d> {
        Rig { device, pipe: device.power_on() }
    }

    /// Runs one attempt exactly as [`run_attack`] would, on a reboot of
    /// this rig's pipeline.
    pub fn attack(
        &mut self,
        model: &FaultModel,
        params: GlitchParams,
        boot: u64,
        spec: &AttackSpec,
        nvm: Option<&mut Vec<u8>>,
    ) -> AttackOutcome {
        self.device.reboot(&mut self.pipe, carried(&nvm));
        attack(self.device, &mut self.pipe, model, params, boot, spec, nvm)
    }

    /// The device state after the latest attempt, for post-mortems.
    pub fn pipe(&self) -> &Pipeline {
        &self.pipe
    }
}

/// The NVM contents an attempt boots with: the carried-over state, or
/// fresh NVM before the first attempt has stored any.
fn carried<'a>(nvm: &'a Option<&mut Vec<u8>>) -> Option<&'a [u8]> {
    nvm.as_deref().map(Vec::as_slice).filter(|state| !state.is_empty())
}

/// Runs one attempt on a freshly (re)booted `pipe`, saves its NVM into
/// `nvm`, and classifies it.
fn attack(
    device: &Device,
    pipe: &mut Pipeline,
    model: &FaultModel,
    params: GlitchParams,
    boot: u64,
    spec: &AttackSpec,
    nvm: Option<&mut Vec<u8>>,
) -> AttackOutcome {
    let mut injector = model.injector(params, boot);
    let end = pipe.run_with(spec.max_cycles, |w: &Window| injector(w));
    if let Some(state) = nvm {
        state.clear();
        state.extend_from_slice(Device::nvm(pipe));
    }
    let detected = device
        .detect_flag()
        .and_then(|addr| pipe.emu.mem.peek(addr, 4).ok())
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) != 0)
        .unwrap_or(false);
    match end {
        RunEnd::Stop { reason: StopReason::Bkpt(n), .. } => match spec.success {
            SuccessCheck::Bkpt(want) if n == want => AttackOutcome::Success,
            SuccessCheck::HaltWithR0(marker) if n == 0 && pipe.emu.cpu.reg(Reg::R0) == marker => {
                AttackOutcome::Success
            }
            _ if detected => AttackOutcome::Detected,
            _ => AttackOutcome::NoEffect,
        },
        RunEnd::Stop { .. } => {
            if detected {
                AttackOutcome::Detected
            } else {
                AttackOutcome::Crash
            }
        }
        RunEnd::Fault(_) => AttackOutcome::Crash,
        RunEnd::Reset => AttackOutcome::Reset,
        RunEnd::CycleLimit => {
            if detected {
                AttackOutcome::Detected
            } else {
                AttackOutcome::NoEffect
            }
        }
    }
}

/// Counts per outcome, plus the Table I-style post-mortem histogram of a
/// chosen register among successes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Attempts made.
    pub attempts: u64,
    /// Successful glitches.
    pub successes: u64,
    /// Detected attempts (hardened firmware only).
    pub detections: u64,
    /// Crashes (faults).
    pub crashes: u64,
    /// Brown-out resets.
    pub resets: u64,
    /// Comparator-register value → count, among successes.
    pub post_mortem: BTreeMap<u32, u64>,
}

impl CellCounts {
    fn record(&mut self, outcome: AttackOutcome, reg: Option<u32>) {
        self.attempts += 1;
        match outcome {
            AttackOutcome::Success => {
                self.successes += 1;
                if let Some(v) = reg {
                    *self.post_mortem.entry(v).or_default() += 1;
                }
            }
            AttackOutcome::Detected => self.detections += 1,
            AttackOutcome::Crash => self.crashes += 1,
            AttackOutcome::Reset => self.resets += 1,
            AttackOutcome::NoEffect => {}
        }
    }

    /// Success rate in percent.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            100.0 * self.successes as f64 / self.attempts as f64
        }
    }

    /// Detections / (detections + successes) — the paper's detection rate.
    pub fn detection_rate(&self) -> f64 {
        let denom = self.detections + self.successes;
        if denom == 0 {
            0.0
        } else {
            100.0 * self.detections as f64 / denom as f64
        }
    }

    /// Merges another cell.
    pub fn merge(&mut self, other: &CellCounts) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.detections += other.detections;
        self.crashes += other.crashes;
        self.resets += other.resets;
        for (k, v) in &other.post_mortem {
            *self.post_mortem.entry(*k).or_default() += v;
        }
    }
}

/// The full ±49% × ±49% grid of (width, offset) pairs — 9,801 points,
/// exactly the paper's per-cycle scan.
pub fn full_grid() -> Vec<(i8, i8)> {
    let mut grid = Vec::with_capacity(99 * 99);
    for width in -49i8..=49 {
        for offset in -49i8..=49 {
            grid.push((width, offset));
        }
    }
    grid
}

/// Scans the full grid at each glitch cycle in `cycles`, single glitches.
/// `post_reg` selects the register recorded in success post-mortems.
pub fn scan_single(
    device: &Device,
    model: &FaultModel,
    cycles: core::ops::Range<u32>,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    scan_grid(device, model, cycles, 1, spec, post_reg)
}

/// Grid points per worker chunk: one full width row of the 99×99 scan.
/// In-region attempts each boot the device, so a row is tens of
/// microseconds at minimum — coarse enough to amortize dispatch, fine
/// enough to split a scan across any worker count.
const GRID_CHUNK: usize = 99;

/// Scans the grid with a repeated (long) glitch of `repeat` cycles
/// starting at each cycle in `starts`.
///
/// The width×offset grid at each start cycle is fanned out across
/// [`gd_exec`] workers. Every attempt seeds its per-boot noise from a
/// *position-derived* boot counter (`start_index × grid + point_index`),
/// reproducing the serial implementation's sequential numbering exactly,
/// so the parallel scan is bit-for-bit identical to [`scan_grid_serial`]
/// at any `GD_THREADS`. Campaigns that thread NVM state between attempts
/// carry cross-attempt dependencies and deliberately do **not** route
/// through here (see `defense`/`search` callers).
pub fn scan_grid(
    device: &Device,
    model: &FaultModel,
    starts: core::ops::Range<u32>,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    starts
        .enumerate()
        .map(|(start_idx, start)| {
            (start, scan_cell(device, model, start, start_idx as u64, repeat, spec, post_reg))
        })
        .collect()
}

/// Scans the full 99×99 grid for **one** start cycle of a larger scan.
///
/// `start_index` is the cell's position within that larger scan: per-boot
/// noise is seeded from `start_index × 9801 + point_index`, reproducing
/// the sequential boot numbering of a serial multi-cycle scan exactly.
/// [`scan_grid`] is simply this function mapped over its start range, so
/// a distributed driver (the campaign engine shards at cell granularity)
/// produces bytes identical to the monolithic scan.
pub fn scan_cell(
    device: &Device,
    model: &FaultModel,
    start: u32,
    start_index: u64,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> CellCounts {
    let grid = full_grid();
    let boot_base = start_index * grid.len() as u64;
    let partials = gd_exec::par_map_chunks(&grid, GRID_CHUNK, |chunk| {
        let mut cell = CellCounts::default();
        let mut rig = None;
        for (j, &(width, offset)) in chunk.items.iter().enumerate() {
            let boot = boot_base + (chunk.start + j) as u64 + 1;
            // Out-of-region points cannot fault: count them as clean
            // attempts without booting (a 20× scan speedup).
            if model.severity(width, offset) == 0.0 {
                cell.record(AttackOutcome::NoEffect, None);
                continue;
            }
            let params = GlitchParams { ext_offset: start, repeat, width, offset };
            let rig = rig.get_or_insert_with(|| Rig::new(device));
            let outcome = rig.attack(model, params, boot, spec, None);
            cell.record(outcome, post_reg.map(|r| rig.pipe().emu.cpu.reg(r)));
        }
        cell
    });
    let mut cell = CellCounts::default();
    for partial in &partials {
        cell.merge(partial);
    }
    cell
}

/// The serial reference implementation of [`scan_grid`] — kept for the
/// differential tests that pin the parallel scan to it byte for byte.
pub fn scan_grid_serial(
    device: &Device,
    model: &FaultModel,
    starts: core::ops::Range<u32>,
    repeat: u32,
    spec: &AttackSpec,
    post_reg: Option<Reg>,
) -> Vec<(u32, CellCounts)> {
    let grid = full_grid();
    let mut rig = Rig::new(device);
    let mut out = Vec::new();
    let mut boot = 0u64;
    for start in starts {
        let mut cell = CellCounts::default();
        for &(width, offset) in &grid {
            boot += 1;
            if model.severity(width, offset) == 0.0 {
                cell.record(AttackOutcome::NoEffect, None);
                continue;
            }
            let params = GlitchParams { ext_offset: start, repeat, width, offset };
            let outcome = rig.attack(model, params, boot, spec, None);
            cell.record(outcome, post_reg.map(|r| rig.pipe().emu.cpu.reg(r)));
        }
        out.push((start, cell));
    }
    out
}

/// The multi-glitch experiment (§V-C, Table II): the firmware raises the
/// trigger twice (two identical loops); the same glitch parameters apply
/// after each trigger. *Partial* means the first loop was escaped but not
/// the second; *full* means both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiCell {
    /// Attempts made.
    pub attempts: u64,
    /// First glitch succeeded, second failed.
    pub partial: u64,
    /// Both glitches succeeded.
    pub full: u64,
}

impl MultiCell {
    /// Merges another cell (counts are additive).
    pub fn merge(&mut self, other: &MultiCell) {
        self.attempts += other.attempts;
        self.partial += other.partial;
        self.full += other.full;
    }
}

/// Runs the multi-glitch scan. The firmware must raise the trigger before
/// each loop; reaching the second trigger proves the first glitch worked.
///
/// Parallelized like [`scan_grid`]: the grid fans out across workers
/// with position-derived boot numbering, and per-chunk cells merge in
/// input order, so output matches the serial loop exactly.
pub fn scan_multi(
    device: &Device,
    model: &FaultModel,
    cycles: core::ops::Range<u32>,
    spec: &AttackSpec,
) -> Vec<(u32, MultiCell)> {
    cycles
        .enumerate()
        .map(|(cycle_idx, cycle)| {
            (cycle, scan_multi_cell(device, model, cycle, cycle_idx as u64, spec))
        })
        .collect()
}

/// One cell of a multi-glitch scan, with the same position-derived boot
/// numbering contract as [`scan_cell`]: `cycle_index` is the cell's
/// position within the enclosing scan.
pub fn scan_multi_cell(
    device: &Device,
    model: &FaultModel,
    cycle: u32,
    cycle_index: u64,
    spec: &AttackSpec,
) -> MultiCell {
    let grid = full_grid();
    let boot_base = cycle_index * grid.len() as u64;
    let partials = gd_exec::par_map_chunks(&grid, GRID_CHUNK, |chunk| {
        let mut cell = MultiCell { attempts: 0, partial: 0, full: 0 };
        let mut rig = None;
        for (j, &(width, offset)) in chunk.items.iter().enumerate() {
            let boot = boot_base + (chunk.start + j) as u64 + 1;
            cell.attempts += 1;
            if model.severity(width, offset) == 0.0 {
                continue;
            }
            let params = GlitchParams::single(cycle, width, offset);
            let rig = rig.get_or_insert_with(|| Rig::new(device));
            let outcome = rig.attack(model, params, boot, spec, None);
            let triggers = rig.pipe().trigger_cycles().len();
            match outcome {
                AttackOutcome::Success => cell.full += 1,
                _ if triggers >= 2 => cell.partial += 1,
                _ => {}
            }
        }
        cell
    });
    let mut cell = MultiCell { attempts: 0, partial: 0, full: 0 };
    for partial in &partials {
        cell.merge(partial);
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;

    fn quick_spec() -> AttackSpec {
        AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 600 }
    }

    #[test]
    fn unglitched_loop_never_exits() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        // (0, 0) is outside the violation region.
        let attempt =
            run_attack(&dev, &model, GlitchParams::single(0, 0, 0), 1, &quick_spec(), None);
        assert_eq!(attempt.outcome, AttackOutcome::NoEffect);
    }

    #[test]
    fn some_grid_point_succeeds_against_while_not_a() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let scans = scan_single(&dev, &model, 4..6, &quick_spec(), Some(Reg::R3));
        let total: u64 = scans.iter().map(|(_, c)| c.successes).sum();
        assert!(total > 0, "the cmp/branch cycles must be glitchable");
        for (_, cell) in &scans {
            assert_eq!(cell.attempts, 9801);
        }
    }

    #[test]
    fn post_mortem_histogram_populated_on_success() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let scans = scan_single(&dev, &model, 2..4, &quick_spec(), Some(Reg::R3));
        let hist: u64 = scans.iter().flat_map(|(_, c)| c.post_mortem.values()).sum();
        let succ: u64 = scans.iter().map(|(_, c)| c.successes).sum();
        assert_eq!(hist, succ, "each success records the comparator register");
    }

    /// The tentpole guarantee on the rig side: the parallel grid scan —
    /// position-derived boot numbering included — reproduces the serial
    /// scan exactly, post-mortem histograms and all.
    #[test]
    fn parallel_scan_matches_serial() {
        let dev = Device::from_asm(targets::WHILE_NOT_A).unwrap();
        let model = FaultModel::default();
        let par = scan_grid(&dev, &model, 3..6, 1, &quick_spec(), Some(Reg::R3));
        let ser = scan_grid_serial(&dev, &model, 3..6, 1, &quick_spec(), Some(Reg::R3));
        assert_eq!(par, ser);
    }

    /// Same guarantee for the multi-glitch scan, against an inline serial
    /// re-derivation (the production serial path no longer exists).
    #[test]
    fn parallel_multi_scan_matches_serial() {
        let dev = Device::from_asm(&targets::while_not_a_doubled()).unwrap();
        let model = FaultModel::default();
        let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 1_200 };
        let par = scan_multi(&dev, &model, 4..6, &spec);

        let grid = full_grid();
        let mut ser = Vec::new();
        let mut boot = 0u64;
        for cycle in 4..6u32 {
            let mut cell = MultiCell::default();
            for &(width, offset) in &grid {
                boot += 1;
                cell.attempts += 1;
                if model.severity(width, offset) == 0.0 {
                    continue;
                }
                let params = GlitchParams::single(cycle, width, offset);
                let attempt = run_attack(&dev, &model, params, boot, &spec, None);
                let triggers = attempt.pipe.trigger_cycles().len();
                match attempt.outcome {
                    AttackOutcome::Success => cell.full += 1,
                    _ if triggers >= 2 => cell.partial += 1,
                    _ => {}
                }
            }
            ser.push((cycle, cell));
        }
        assert_eq!(par, ser);
    }

    #[test]
    fn cell_counts_rates() {
        let mut c = CellCounts::default();
        c.record(AttackOutcome::Success, Some(8));
        c.record(AttackOutcome::Detected, None);
        c.record(AttackOutcome::Detected, None);
        c.record(AttackOutcome::NoEffect, None);
        assert_eq!(c.attempts, 4);
        assert!((c.success_rate() - 25.0).abs() < 1e-9);
        assert!((c.detection_rate() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.post_mortem[&8], 1);
    }
}
