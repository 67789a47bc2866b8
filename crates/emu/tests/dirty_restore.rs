//! Property test for the dirty-block restore contract: after any mix of
//! emulated stores, loader writes, snapshots and restores, memory equals
//! the restored snapshot byte for byte, and each restore copies exactly
//! the blocks written since the snapshot the log is relative to (the
//! whole map for any other snapshot).

use std::collections::BTreeSet;

use gd_emu::{MemSnapshot, Memory, Perms, DIRTY_BLOCK};
use gd_exec::check::{self, Rng};

/// Adjacent regions, one read-only and sizes that are not multiples of
/// the block size, so loads straddle regions and blocks end short.
const LAYOUT: [(&str, u32, u32, Perms); 3] = [
    ("flash", 0x1000, 0x100, Perms::RX),
    ("sram", 0x1100, 0x1A0, Perms::RW),
    ("periph", 0x12A0, 0x44, Perms::RW),
];
const START: u32 = 0x1000;
const END: u32 = 0x12E4;

fn fresh() -> Memory {
    let mut mem = Memory::new();
    for (name, base, size, perms) in LAYOUT {
        mem.map(name, base, size, perms).expect("disjoint layout");
    }
    mem
}

fn contents(mem: &Memory) -> Vec<Vec<u8>> {
    mem.regions().iter().map(|r| r.data().to_vec()).collect()
}

/// The full-copy reference: plain byte vectors per region.
struct Reference {
    bytes: Vec<Vec<u8>>,
}

impl Reference {
    fn locate(addr: u32) -> Option<(usize, usize)> {
        LAYOUT.iter().enumerate().find_map(|(i, &(_, base, size, _))| {
            (addr >= base && addr < base + size).then(|| (i, (addr - base) as usize))
        })
    }

    fn put(&mut self, addr: u32, bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut touched = Vec::new();
        for (k, &b) in bytes.iter().enumerate() {
            let (region, off) = Self::locate(addr + k as u32).expect("checked in range");
            self.bytes[region][off] = b;
            touched.push((region, off / DIRTY_BLOCK));
        }
        touched
    }
}

/// Bytes a restore copies when it rolls back exactly `blocks`.
fn block_bytes(blocks: &BTreeSet<(usize, usize)>) -> u64 {
    blocks
        .iter()
        .map(|&(region, block)| {
            let size = LAYOUT[region].2 as usize;
            (size - block * DIRTY_BLOCK).min(DIRTY_BLOCK) as u64
        })
        .sum()
}

const MAP_BYTES: u64 = 0x100 + 0x1A0 + 0x44;

fn random_store(rng: &mut Rng, mem: &mut Memory, reference: &mut Reference) -> Vec<(usize, usize)> {
    let width = *rng.choose(&[1u32, 2, 4]);
    let addr = (START + rng.range(0, u64::from(END - START)) as u32) & !(width - 1);
    let value = rng.u32();
    let result = match width {
        1 => mem.write8(addr, value as u8),
        2 => mem.write16(addr, value as u16),
        _ => mem.write32(addr, value),
    };
    let writable = LAYOUT
        .iter()
        .any(|&(_, base, size, perms)| perms.write && addr >= base && addr + width <= base + size);
    assert_eq!(result.is_ok(), writable, "store of width {width} at {addr:#x}");
    if result.is_ok() {
        reference.put(addr, &value.to_le_bytes()[..width as usize])
    } else {
        Vec::new()
    }
}

#[test]
fn restore_matches_a_full_copy_reference() {
    check::cases(300, "dirty-block restore equals full copy", |rng| {
        let mut mem = fresh();
        let mut reference = Reference { bytes: contents(&mem) };
        // Snapshots A and B with their reference contents.
        let mut snaps: [Option<(MemSnapshot, Vec<Vec<u8>>)>; 2] = [None, None];
        // Which snapshot the log is relative to, and what it has logged.
        let mut base: Option<usize> = None;
        let mut written: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut trace = Vec::new();
        for _ in 0..rng.usize(1, 60) {
            match rng.usize(0, 10) {
                0..=3 => {
                    trace.push("store");
                    written.extend(random_store(rng, &mut mem, &mut reference));
                }
                4..=5 => {
                    let addr = START + rng.range(0, u64::from(END - START)) as u32;
                    let len = rng.usize(1, 150).min((END - addr) as usize);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.u8()).collect();
                    trace.push("load");
                    mem.load(addr, &bytes).expect("in range");
                    written.extend(reference.put(addr, &bytes));
                }
                6 => {
                    let which = rng.usize(0, 2);
                    trace.push(if which == 0 { "snapshot A" } else { "snapshot B" });
                    snaps[which] = Some((mem.snapshot(), reference.bytes.clone()));
                    base = Some(which);
                    written.clear();
                }
                7 => {
                    // Stamp a new memory out of a snapshot, when one exists.
                    let which = rng.usize(0, 2);
                    if let Some((snap, bytes)) = &snaps[which] {
                        trace.push("from_snapshot");
                        mem = Memory::from_snapshot(snap);
                        reference.bytes = bytes.clone();
                        base = Some(which);
                        written.clear();
                    }
                }
                _ => {
                    let which = rng.usize(0, 2);
                    if let Some((snap, bytes)) = &snaps[which] {
                        trace.push(if which == 0 { "restore A" } else { "restore B" });
                        let before = mem.restored_bytes();
                        mem.restore(snap);
                        let expect =
                            if base == Some(which) { block_bytes(&written) } else { MAP_BYTES };
                        assert_eq!(
                            mem.restored_bytes() - before,
                            expect,
                            "restore cost after {trace:?}"
                        );
                        reference.bytes = bytes.clone();
                        base = Some(which);
                        written.clear();
                    }
                }
            }
            assert!(contents(&mem) == reference.bytes, "memory diverged after {trace:?}");
        }
    });
}

/// Two snapshots of one memory taken around a restore share every
/// observable counter; the log still tells them apart.
#[test]
fn snapshots_sharing_a_store_count_are_told_apart() {
    let mut mem = fresh();
    mem.write32(0x1100, 1).expect("sram");
    let a = mem.snapshot();
    mem.write32(0x1180, 2).expect("sram");
    let b = mem.snapshot();
    mem.restore(&a);
    assert_eq!(mem.read32(0x1180).expect("sram"), 0);
    let stores = mem.write_epoch();
    mem.restore(&b);
    assert_eq!(mem.write_epoch(), stores);
    assert_eq!(mem.read32(0x1180).expect("sram"), 2, "B is not mistaken for A");
}
