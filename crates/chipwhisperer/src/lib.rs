//! # gd-chipwhisperer — a clock-glitch injection simulator
//!
//! The hardware-substitution layer for the real-world experiments of
//! *Glitching Demystified* (DSN 2021, §V): a ChipWhisperer-style clock
//! glitcher driving an STM32F0-class 3-stage core. The physical rig is
//! replaced by a calibrated [`FaultModel`] over the [`gd_pipeline`]
//! simulator; everything else — the 99×99 (width, offset) scans, the
//! per-cycle targeting from a GPIO trigger, multi-glitch and long-glitch
//! drivers, and the §V-B parameter-tuning search — matches the paper's
//! methodology and is fully deterministic.
//!
//! ```
//! use gd_chipwhisperer::{
//!     run_attack, AttackSpec, Device, FaultModel, GlitchParams, SuccessCheck,
//! };
//!
//! let device = Device::from_asm(gd_chipwhisperer::targets::WHILE_NOT_A)?;
//! let model = FaultModel::default();
//! let spec = AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 500 };
//! // A glitch outside the violation region does nothing.
//! let attempt = run_attack(&device, &model, GlitchParams::single(4, 0, 0), 1, &spec, None);
//! assert_eq!(attempt.outcome, gd_chipwhisperer::AttackOutcome::NoEffect);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod device;
mod model;
mod rng;
mod scan;
mod search;
pub mod targets;

pub use device::Device;
pub use model::{FaultModel, GlitchParams, TriggerMode, RESIDUE_POOL};
pub use rng::{hash_words, splitmix64, Rng};
pub use scan::{
    full_grid, run_attack, scan_cell, scan_grid, scan_grid_serial, scan_multi, scan_multi_cell,
    scan_single, AttackOutcome, AttackSpec, Attempt, CellCounts, MultiCell, Rig, SuccessCheck,
};
pub use search::{find_reliable_params, SearchReport, SECONDS_PER_ATTEMPT};
