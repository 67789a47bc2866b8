//! The device under attack: firmware plus the standard board memory map,
//! bootable afresh or rebooted by restoring a cached power-on snapshot,
//! with non-volatile memory that survives resets (the delay defense's
//! seed lives there).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use gd_backend::{layout, FirmwareImage};
use gd_emu::{Emu, Perms, PredecodedImage, Snapshot};
use gd_pipeline::Pipeline;
use gd_thumb::asm::{assemble, AsmError};

/// A bootable target.
#[derive(Debug, Clone)]
pub struct Device {
    /// Code, based at the flash base.
    pub text: Vec<u8>,
    /// Initialized data records.
    pub data: Vec<(u32, Vec<u8>)>,
    /// Entry point.
    pub entry: u32,
    /// Initial stack pointer.
    pub sp: u32,
    /// Symbols (labels / functions / globals).
    pub symbols: BTreeMap<String, u32>,
    /// Micro-op table for the flash image, built on first boot and shared
    /// by every subsequent boot (flash contents are identical per boot).
    predecode: OnceLock<Arc<PredecodedImage>>,
    /// Whether boots attach the table; disabled for interpreter-path
    /// baselines in benchmarks.
    predecode_enabled: bool,
    /// The emulator right after a fresh boot with fresh NVM, captured on
    /// first use; [`Device::reboot`] restores it instead of rebuilding
    /// the memory map.
    power_on: OnceLock<Arc<Snapshot>>,
}

impl Device {
    /// Assembles a §V-style bare-metal snippet at the flash base.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn from_asm(src: &str) -> Result<Device, AsmError> {
        let prog = assemble(src, layout::FLASH_BASE)?;
        Ok(Device {
            text: prog.code,
            data: Vec::new(),
            entry: layout::FLASH_BASE,
            sp: layout::STACK_TOP,
            symbols: prog.symbols,
            predecode: OnceLock::new(),
            predecode_enabled: true,
            power_on: OnceLock::new(),
        })
    }

    /// Wraps a compiled firmware image (§VII targets).
    pub fn from_image(image: &FirmwareImage) -> Device {
        Device {
            text: image.text.clone(),
            data: image.data.clone(),
            entry: image.entry,
            sp: layout::STACK_TOP,
            symbols: image.symbols.clone(),
            predecode: OnceLock::new(),
            predecode_enabled: true,
            power_on: OnceLock::new(),
        }
    }

    /// Enables or disables predecoded dispatch on future boots.
    ///
    /// On by default; benchmarks switch it off to time the pure
    /// interpreter path. The scan results are identical either way (the
    /// table mirrors live decode), only the speed differs.
    pub fn set_predecode_enabled(&mut self, enabled: bool) {
        self.predecode_enabled = enabled;
    }

    /// Address of the detection flag, when the firmware has one.
    pub fn detect_flag(&self) -> Option<u32> {
        self.symbols.get("__gr_detect_flag").copied()
    }

    /// Boots a fresh pipeline (power-on state).
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the standard memory map.
    pub fn boot(&self) -> Pipeline {
        self.boot_with_nvm(None)
    }

    /// Boots with the given non-volatile memory contents (carried over
    /// from the previous attempt), or fresh NVM when `None`.
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the standard memory map.
    pub fn boot_with_nvm(&self, nvm: Option<&[u8]>) -> Pipeline {
        let mut emu = Emu::new();
        emu.mem.map("flash", layout::FLASH_BASE, layout::FLASH_SIZE, Perms::RX).expect("fresh map");
        emu.mem.map("nvm", layout::NVM_BASE, layout::NVM_SIZE, Perms::RW).expect("fresh map");
        emu.mem.map("sram", layout::SRAM_BASE, layout::SRAM_SIZE, Perms::RW).expect("fresh map");
        emu.mem
            .map("shadow", layout::SHADOW_BASE, layout::SHADOW_SIZE, Perms::RW)
            .expect("fresh map");
        emu.mem.map("gpio", layout::GPIO_BASE, layout::GPIO_SIZE, Perms::RW).expect("fresh map");
        emu.mem
            .map("periph", layout::PERIPH_BASE, layout::PERIPH_SIZE, Perms::RW)
            .expect("fresh map");
        emu.mem.map("scs", layout::SCS_BASE, layout::SCS_SIZE, Perms::RW).expect("fresh map");
        // Physical SRAM powers up holding garbage; deterministic noise here
        // so wild loads (corrupted addresses) read realistic junk instead
        // of convenient zeros. Firmware data records overwrite their part.
        emu.mem.load(layout::SRAM_BASE, sram_garbage()).expect("sram mapped");
        emu.mem.load(layout::FLASH_BASE, &self.text).expect("firmware fits flash");
        for (addr, bytes) in &self.data {
            emu.mem.load(*addr, bytes).expect("data fits its region");
        }
        if let Some(nvm) = nvm {
            emu.mem.load(layout::NVM_BASE, nvm).expect("nvm snapshot fits");
        }
        emu.set_pc(self.entry);
        emu.cpu.set_sp(self.sp);
        self.pipeline(emu)
    }

    /// A pipeline in power-on state with fresh NVM, stamped out of the
    /// cached power-on snapshot; reboot it between attempts with
    /// [`Device::reboot`].
    pub(crate) fn power_on(&self) -> Pipeline {
        self.pipeline(Emu::from_snapshot(self.power_on_snapshot()))
    }

    /// Reboots a pipeline made by [`Device::power_on`]: restores the
    /// power-on snapshot, loads `nvm` when given (fresh NVM otherwise),
    /// and resets the pipeline's counters. The result is byte-for-byte
    /// the state [`Device::boot_with_nvm`] builds, at a cost proportional
    /// to what the previous attempt wrote rather than to the memory map.
    ///
    /// # Panics
    ///
    /// Panics if `pipe` does not have this device's memory map.
    pub(crate) fn reboot(&self, pipe: &mut Pipeline, nvm: Option<&[u8]>) {
        pipe.emu.restore(self.power_on_snapshot());
        if let Some(nvm) = nvm {
            pipe.emu.mem.load(layout::NVM_BASE, nvm).expect("nvm snapshot fits");
        }
        pipe.reset();
    }

    fn power_on_snapshot(&self) -> &Snapshot {
        self.power_on.get_or_init(|| Arc::new(self.boot().emu.snapshot()))
    }

    /// Wraps a freshly booted emulator, attaching the shared micro-op
    /// table when predecoding is enabled.
    fn pipeline(&self, emu: Emu) -> Pipeline {
        let mut pipe = Pipeline::new(emu);
        if self.predecode_enabled {
            // Flash bytes (text + flash-resident data records) are the
            // same every boot, so the table from the first boot serves
            // all later ones.
            let image = self.predecode.get_or_init(|| {
                let flash = pipe.emu.mem.region_at(layout::FLASH_BASE).expect("flash mapped");
                Arc::new(PredecodedImage::from_region(flash, pipe.emu.cfg))
            });
            pipe.set_predecode(Arc::clone(image));
        }
        pipe
    }

    /// The NVM region's contents, to carry into the next boot.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline was not booted from a [`Device`].
    pub fn nvm(pipe: &Pipeline) -> &[u8] {
        pipe.emu.mem.region_at(layout::NVM_BASE).expect("nvm region mapped").data()
    }
}

/// The deterministic SRAM power-on pattern, generated once per process —
/// every boot reads the same fixed-seed stream, so caching it is
/// bit-identical to regenerating it.
fn sram_garbage() -> &'static [u8] {
    static GARBAGE: OnceLock<Vec<u8>> = OnceLock::new();
    GARBAGE.get_or_init(|| {
        let mut rng = crate::rng::Rng::new(0x5AA5_0FF0);
        (0..layout::SRAM_SIZE).map(|_| rng.next_u64() as u8).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gd_pipeline::RunEnd;

    #[test]
    fn asm_device_boots_and_runs() {
        let dev = Device::from_asm("movs r0, #7\nbkpt #1\n").unwrap();
        let mut pipe = dev.boot();
        let end = pipe.run(100);
        assert!(matches!(end, RunEnd::Stop { reason: gd_emu::StopReason::Bkpt(1), .. }));
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R0), 7);
    }

    #[test]
    fn nvm_survives_across_boots() {
        let src = "
            ldr r0, =0x0800F000
            ldr r1, [r0]
            adds r1, #1
            str r1, [r0]
            mov r2, r1
            bkpt #1
        ";
        let dev = Device::from_asm(src).unwrap();
        let mut pipe = dev.boot();
        pipe.run(1_000_000);
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R2), 1);
        let nvm = Device::nvm(&pipe).to_vec();
        let mut pipe = dev.boot_with_nvm(Some(&nvm));
        pipe.run(1_000_000);
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R2), 2, "seed persisted");
    }

    #[test]
    fn image_device_round_trip() {
        let m = gd_ir::parse_module(
            "fn @main() -> i32 {\nentry:\n  %1 = add i32 1, 2\n  ret i32 %1\n}\n",
        )
        .unwrap();
        let image = gd_backend::compile(&m, "main").unwrap();
        let dev = Device::from_image(&image);
        let mut pipe = dev.boot();
        let end = pipe.run(10_000);
        assert!(matches!(end, RunEnd::Stop { reason: gd_emu::StopReason::Bkpt(0), .. }));
        assert_eq!(pipe.emu.cpu.reg(gd_thumb::Reg::R0), 3);
    }
}
