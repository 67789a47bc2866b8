//! Differential tests pinning the predecoded dispatch path to the live
//! interpreter: the micro-op table must agree with `Emu::decode` on every
//! one of the 65,536 first-halfword patterns, and snapshot/restore must
//! reproduce fresh-boot behavior exactly.

use gd_emu::{
    Config, Emu, Fault, Perms, PredecodedImage, RunOutcome, Slot, StopReason, DIRTY_BLOCK,
};
use gd_thumb::is_32bit_prefix;

const BASE: u32 = 0x0800_0000;
/// A benign second halfword: pairs with every 32-bit prefix the ARMv6-M
/// subset defines (BL needs hw2 top bits 11x1; 0xF800 gives a valid BL
/// with several prefixes and an undefined pattern with the rest — both
/// sides of the comparison see the same bytes either way).
const HW2: u16 = 0xF800;

fn emu_with(hw: u16, cfg: Config) -> Emu {
    let mut emu = Emu::with_config(cfg);
    emu.mem.map("flash", BASE, 0x10, Perms::RX).expect("fresh map");
    emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
    emu.mem.load(BASE + 2, &HW2.to_le_bytes()).expect("mapped");
    emu
}

/// Every halfword pattern: the table's slot must mirror what live decode
/// returns for the same bytes, under both configurations.
#[test]
fn predecode_matches_live_decode_for_all_halfwords() {
    for cfg in [
        Config { zero_is_invalid: false, ..Config::default() },
        Config { zero_is_invalid: true, ..Config::default() },
    ] {
        let mut emu = emu_with(0, cfg);
        for hw in 0..=u16::MAX {
            emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
            let mut bytes = hw.to_le_bytes().to_vec();
            bytes.extend_from_slice(&HW2.to_le_bytes());
            let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
            let live = emu.decode(BASE, hw);
            match image.slot(BASE).expect("covered") {
                Slot::Instr { instr, size } => {
                    assert_eq!(live, Ok((instr, size)), "hw={hw:#06x} cfg={cfg:?}");
                }
                Slot::Undefined { hw: shw, hw2 } => {
                    assert_eq!(
                        live,
                        Err(Fault::Undefined { addr: BASE, hw: shw, hw2 }),
                        "hw={hw:#06x} cfg={cfg:?}"
                    );
                }
                Slot::Incomplete { .. } | Slot::Live => {
                    panic!("hw={hw:#06x}: second halfword was available")
                }
            }
        }
    }
}

/// The same exhaustive sweep with the Thumb-2 wide subset enabled: the
/// table and live decode must agree on every first halfword under
/// `Config { wide: true }` too.
#[test]
fn predecode_matches_live_decode_for_all_halfwords_wide() {
    let cfg = Config { wide: true, ..Config::default() };
    let mut emu = emu_with(0, cfg);
    for hw in 0..=u16::MAX {
        emu.mem.load(BASE, &hw.to_le_bytes()).expect("mapped");
        let mut bytes = hw.to_le_bytes().to_vec();
        bytes.extend_from_slice(&HW2.to_le_bytes());
        let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
        let live = emu.decode(BASE, hw);
        match image.slot(BASE).expect("covered") {
            Slot::Instr { instr, size } => assert_eq!(live, Ok((instr, size)), "hw={hw:#06x}"),
            Slot::Undefined { hw: shw, hw2 } => {
                assert_eq!(live, Err(Fault::Undefined { addr: BASE, hw: shw, hw2 }), "hw={hw:#06x}")
            }
            Slot::Incomplete { .. } | Slot::Live => {
                panic!("hw={hw:#06x}: second halfword was available")
            }
        }
    }
}

/// One representative prefix per wide-encoding group, swept against every
/// possible second halfword: the predecode table and `Emu::decode` must
/// classify each pair identically under both configurations.
#[test]
fn predecode_matches_live_decode_for_all_second_halfwords() {
    // Groups: BL/B.W/BCond.W/BLX (0xF000, 0xF400), modified-immediate DP
    // (0xF04F, 0xF1B1), plain-binary MOVW/MOVT (0xF24A, 0xF2C2), wide
    // load/store (0xF8D3, 0xF8DF, 0xF8C2), and the all-undefined 0b11101
    // group (0xE800).
    const PREFIXES: [u16; 10] =
        [0xE800, 0xF000, 0xF04F, 0xF1B1, 0xF24A, 0xF2C2, 0xF400, 0xF8C2, 0xF8D3, 0xF8DF];
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        let mut emu = emu_with(0, cfg);
        for hw1 in PREFIXES {
            assert!(is_32bit_prefix(hw1));
            emu.mem.load(BASE, &hw1.to_le_bytes()).expect("mapped");
            for hw2 in 0..=u16::MAX {
                emu.mem.load(BASE + 2, &hw2.to_le_bytes()).expect("mapped");
                let mut bytes = hw1.to_le_bytes().to_vec();
                bytes.extend_from_slice(&hw2.to_le_bytes());
                let image = PredecodedImage::from_bytes(BASE, &bytes, cfg);
                let live = emu.decode(BASE, hw1);
                match image.slot(BASE).expect("covered") {
                    Slot::Instr { instr, size } => assert_eq!(
                        live,
                        Ok((instr, size)),
                        "hw1={hw1:#06x} hw2={hw2:#06x} cfg={cfg:?}"
                    ),
                    Slot::Undefined { hw: shw, hw2: shw2 } => assert_eq!(
                        live,
                        Err(Fault::Undefined { addr: BASE, hw: shw, hw2: shw2 }),
                        "hw1={hw1:#06x} hw2={hw2:#06x} cfg={cfg:?}"
                    ),
                    Slot::Incomplete { .. } | Slot::Live => {
                        panic!("hw1={hw1:#06x} hw2={hw2:#06x}: second halfword was available")
                    }
                }
            }
        }
    }
}

/// A 32-bit prefix whose second halfword lies outside the image must
/// become `Slot::Incomplete` — not `Slot::Undefined` (the image cannot
/// know the full encoding) and not plain `Slot::Live` (which would
/// conflate "image ends mid-encoding" with "slot invalidated by a
/// perturbation"). Only a live fetch can tell "fetch fault at addr + 2"
/// from "undefined 32-bit pattern".
#[test]
fn prefix_at_image_edge_defers_to_live_decode() {
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        for hw in 0..=u16::MAX {
            if !is_32bit_prefix(hw) {
                continue;
            }
            let image = PredecodedImage::from_bytes(BASE, &hw.to_le_bytes(), cfg);
            assert_eq!(image.slot(BASE), Some(Slot::Incomplete { hw }), "hw={hw:#06x}");
        }
    }
}

/// Image-end boundary, end to end: dispatching through a predecoded image
/// whose final halfword is a 32-bit prefix falls back to the live path
/// and raises a fetch fault at `addr + 2` when nothing is mapped there —
/// not an undefined-instruction fault.
#[test]
fn prefix_in_final_halfword_faults_at_next_fetch() {
    for cfg in [Config::default(), Config { wide: true, ..Config::default() }] {
        // Flash is exactly 4 bytes: `movs r0, #1` then a bare BL prefix.
        let code = [0x01, 0x20, 0x00, 0xF0];
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", BASE, 4, Perms::RX).expect("fresh map");
        emu.mem.load(BASE, &code).expect("fits");
        emu.set_pc(BASE);
        let image = PredecodedImage::from_bytes(BASE, &code, cfg);
        assert_eq!(image.slot(BASE + 2), Some(Slot::Incomplete { hw: 0xF000 }));
        match emu.run_predecoded(10, &image) {
            RunOutcome::Fault { fault: Fault::Mem(m), .. } => {
                assert_eq!(m.addr, BASE + 4, "cfg={cfg:?}");
            }
            other => panic!("expected fetch fault past the image end, got {other:?}"),
        }
    }
}

/// The fetch-fault case the decode rework split out: a prefix at the end
/// of mapped memory faults at `addr + 2` with a memory fault, not an
/// undefined-instruction fault.
#[test]
fn prefix_fetch_fault_is_distinct_from_undefined() {
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x10, Perms::RX).expect("fresh map");
    let last = BASE + 0xE;
    emu.mem.load(last, &0xF000u16.to_le_bytes()).expect("mapped");
    match emu.decode(last, 0xF000) {
        Err(Fault::Mem(m)) => assert_eq!(m.addr, last + 2),
        other => panic!("expected fetch fault, got {other:?}"),
    }
    // The same prefix mid-image with an undefined second halfword is an
    // undefined-instruction fault carrying both halfwords.
    emu.mem.load(BASE, &[0x00, 0xF0, 0x00, 0x00]).expect("mapped");
    match emu.decode(BASE, 0xF000) {
        Err(Fault::Undefined { hw: 0xF000, hw2: Some(0), .. }) => {}
        other => panic!("expected undefined, got {other:?}"),
    }
}

/// run_predecoded over an unperturbed image behaves exactly like run.
#[test]
fn predecoded_run_matches_interpreter_run() {
    let src = "movs r0, #7\nadds r0, #35\nstr r0, [r1]\nldr r2, [r1]\nbkpt #9\n";
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let boot = |cfg: Config| {
        let mut emu = Emu::with_config(cfg);
        emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
        emu.mem.map("sram", 0x2000_0000, 0x100, Perms::RW).expect("fresh map");
        emu.mem.load(BASE, &prog.code).expect("fits");
        emu.set_pc(BASE);
        emu.cpu.set_reg(gd_thumb::Reg::R1, 0x2000_0010);
        emu
    };
    let cfg = Config::default();
    let mut live = boot(cfg);
    let live_out = live.run(100);
    let mut fast = boot(cfg);
    let image = PredecodedImage::from_region(fast.mem.region_at(BASE).expect("mapped"), cfg);
    let fast_out = fast.run_predecoded(100, &image);
    assert_eq!(live_out, fast_out);
    assert!(matches!(fast_out, RunOutcome::Stop { reason: StopReason::Bkpt(9), .. }));
    assert_eq!(live.cpu, fast.cpu);
    assert_eq!(live.steps(), fast.steps());
}

/// Snapshot → run (with stores) → restore reproduces the snapshot state,
/// and the restore copies back only the block the store dirtied.
#[test]
fn snapshot_restore_round_trips() {
    let src = "movs r0, #1\nstr r0, [r1]\nbkpt #0\n";
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    emu.mem.map("sram", 0x2000_0000, 0x100, Perms::RW).expect("fresh map");
    emu.mem.load(BASE, &prog.code).expect("fits");
    emu.set_pc(BASE);
    emu.cpu.set_reg(gd_thumb::Reg::R1, 0x2000_0020);

    let snap = emu.snapshot();
    let first = emu.run(100);
    assert_eq!(emu.mem.read32(0x2000_0020).expect("mapped"), 1);
    let stores = emu.mem.write_epoch();
    assert!(stores > 0, "the store advanced the write epoch");

    emu.restore(&snap);
    assert_eq!(emu.pc(), BASE);
    assert_eq!(emu.steps(), 0);
    assert_eq!(emu.mem.read32(0x2000_0020).expect("mapped"), 0, "store rolled back");
    assert_eq!(emu.mem.restored_bytes(), DIRTY_BLOCK as u64, "one dirty block copied");
    assert_eq!(emu.mem.write_epoch(), stores, "restore does not wind the store counter back");
    let second = emu.run(100);
    assert_eq!(first, second, "replay from snapshot is bit-identical");

    // A restore with nothing written since copies nothing.
    emu.restore(&snap);
    let copied = emu.mem.restored_bytes();
    emu.restore(&snap);
    assert_eq!(emu.mem.restored_bytes(), copied);
    assert_eq!(emu.run(100), first);
}

/// Loader writes are logged like stores: restore rolls a poke back even
/// when the emulated program stored nothing, so memory equals the
/// snapshot exactly after every restore.
#[test]
fn loader_writes_are_rolled_back() {
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    let snap = emu.snapshot();
    emu.mem.load(BASE + 0x40, &[0xAA, 0xBB]).expect("mapped");
    emu.restore(&snap);
    assert_eq!(emu.mem.peek(BASE + 0x40, 2).expect("mapped"), vec![0, 0]);
    assert_eq!(emu.mem.restored_bytes(), DIRTY_BLOCK as u64);
}

/// Loader writes are host-side access, not emulated stores: they never
/// advance the store counter.
#[test]
fn loader_writes_do_not_dirty_the_epoch() {
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    let before = emu.mem.write_epoch();
    emu.mem.load(BASE, &[0xAA, 0xBB]).expect("mapped");
    assert_eq!(emu.mem.write_epoch(), before);
}

/// An emulator stamped out of a snapshot runs like the original, and its
/// first restore is already proportional to what it wrote.
#[test]
fn from_snapshot_clones_state_and_restores_incrementally() {
    let src = "movs r0, #1\nstr r0, [r1]\nbkpt #0\n";
    let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
    let mut emu = Emu::new();
    emu.mem.map("flash", BASE, 0x100, Perms::RX).expect("fresh map");
    emu.mem.map("sram", 0x2000_0000, 0x1000, Perms::RW).expect("fresh map");
    emu.mem.load(BASE, &prog.code).expect("fits");
    emu.set_pc(BASE);
    emu.cpu.set_reg(gd_thumb::Reg::R1, 0x2000_0020);
    let snap = emu.snapshot();

    let mut copy = Emu::from_snapshot(&snap);
    assert_eq!(copy.run(100), emu.run(100));
    assert_eq!(copy.cpu, emu.cpu);
    copy.restore(&snap);
    assert_eq!(copy.mem.restored_bytes(), DIRTY_BLOCK as u64);
    assert_eq!(copy.mem.read32(0x2000_0020).expect("mapped"), 0);
}

/// The chunked loader writes across region boundaries exactly like the
/// old per-byte loop, and faults at the first unmapped byte.
#[test]
fn load_spans_regions_and_faults_on_gap() {
    let mut emu = Emu::new();
    emu.mem.map("lo", 0x1000, 4, Perms::RW).expect("fresh map");
    emu.mem.map("hi", 0x1004, 4, Perms::RW).expect("fresh map");
    emu.mem.load(0x1002, &[1, 2, 3, 4]).expect("spans the boundary");
    assert_eq!(emu.mem.peek(0x1002, 4).expect("mapped"), vec![1, 2, 3, 4]);
    let fault = emu.mem.load(0x1006, &[9, 9, 9]).expect_err("runs off the map");
    assert_eq!(fault.addr, 0x1008);
    assert_eq!(emu.mem.peek(0x1006, 2).expect("mapped"), vec![9, 9], "prefix written");
}
