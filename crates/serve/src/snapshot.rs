//! State snapshots: full serialization of a machine's auxiliary
//! structure, so recovery costs O(snapshot + journal tail) instead of
//! O(history).
//!
//! ```text
//! snapshot := "DYNS" version:u16
//!             program:str n:u32 seq:u64
//!             nconsts:u16 (name:str value:u32)*
//!             nrels:u16  (name:str arity:u8 count:u64 elem:u32{arity}*)*
//!             crc:u32                     # CRC-32 of all preceding bytes
//! ```
//!
//! Relations are stored as tuple lists: restore inserts each list into
//! the bitmaps of [`Structure::empty`], so a restored structure equals
//! the original. Snapshots are written to a temp file, fsynced, and
//! renamed into place — a crash mid-snapshot leaves the previous
//! snapshot intact, never a half-written current one.
//!
//! Every lookup on the restore path goes through the `try_` structure
//! accessors: a corrupt snapshot (unknown relation, bad arity, element
//! outside the universe) surfaces as a [`ServeError`], never a panic.
//! The stored `n` must equal the universe the caller expects, and is
//! checked against the program's size budget before anything is
//! allocated, so a CRC-valid file of another or an absurd size is
//! refused, not built.

use crate::codec::{crc32, Reader, Writer};
use crate::error::ServeError;
use dynfo_core::{DynFoMachine, DynFoProgram};
use dynfo_logic::{Elem, Structure, Tuple};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"DYNS";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// The path of the snapshot taken at sequence `seq` under `dir`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:020}.snap"))
}

/// Parse a snapshot file name back to its sequence number.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    rest.parse().ok()
}

/// Serialize `machine`'s state (as of request sequence `seq`) to bytes.
pub fn encode_snapshot(machine: &DynFoMachine, seq: u64) -> Vec<u8> {
    let state = machine.state();
    let vocab = state.vocab();
    let mut w = Writer::new();
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u16(SNAPSHOT_VERSION);
    w.put_str(machine.program().name());
    w.put_u32(state.size());
    w.put_u64(seq);
    w.put_u16(vocab.num_constants() as u16);
    for (id, name) in vocab.constants() {
        w.put_str(name.as_str());
        w.put_u32(state.constant(id));
    }
    w.put_u16(vocab.num_relations() as u16);
    for (id, sym) in vocab.relations() {
        let rel = state.relation(id);
        w.put_str(sym.name.as_str());
        w.put_u8(sym.arity as u8);
        w.put_u64(rel.len() as u64);
        for t in rel.iter() {
            for &e in t.as_slice() {
                w.put_u32(e);
            }
        }
    }
    let crc = crc32(w.as_bytes());
    w.put_u32(crc);
    w.into_bytes()
}

/// Write a snapshot atomically: temp file → fsync → rename into place.
/// Returns the final path.
pub fn write_snapshot(dir: &Path, machine: &DynFoMachine, seq: u64) -> Result<PathBuf, ServeError> {
    let bytes = encode_snapshot(machine, seq);
    let tmp = dir.join(format!(".tmp-snap-{seq:020}"));
    let final_path = snapshot_path(dir, seq);
    let mut f = std::fs::File::create(&tmp).map_err(|e| ServeError::io(&tmp, e))?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| ServeError::io(&tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, &final_path).map_err(|e| ServeError::io(&final_path, e))?;
    Ok(final_path)
}

/// Decode and validate a snapshot against `program` over universe
/// size `n`, rebuilding the machine it captured. Returns the machine
/// and the sequence number the snapshot was taken at. A snapshot of
/// another universe size is [`ServeError::Corrupt`].
pub fn decode_snapshot(
    bytes: &[u8],
    program: &DynFoProgram,
    n: Elem,
) -> Result<(DynFoMachine, u64), ServeError> {
    if bytes.len() < 4 + 2 + 4 {
        return Err(ServeError::Corrupt("snapshot file too short".to_string()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(ServeError::Corrupt("snapshot CRC mismatch".to_string()));
    }
    let mut r = Reader::new(body);
    let magic = r.get_bytes(4, "snapshot magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(ServeError::Corrupt("not a snapshot (bad magic)".to_string()));
    }
    let version = r.get_u16("snapshot version")?;
    if version != SNAPSHOT_VERSION {
        return Err(ServeError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let name = r.get_str("program name")?;
    if name != program.name() {
        return Err(ServeError::Corrupt(format!(
            "snapshot is for program {name}, expected {}",
            program.name()
        )));
    }
    let stored_n = r.get_u32("universe size")?;
    if stored_n != n {
        return Err(ServeError::Corrupt(format!(
            "snapshot is over n = {stored_n}, expected n = {n}"
        )));
    }
    program.check_size(n)?;
    let seq = r.get_u64("sequence number")?;

    let vocab = program.aux_vocab();
    let mut state = Structure::empty(Arc::clone(vocab), n);

    let nconsts = r.get_u16("constant count")? as usize;
    if nconsts != vocab.num_constants() {
        return Err(ServeError::Corrupt(format!(
            "snapshot has {nconsts} constants, program has {}",
            vocab.num_constants()
        )));
    }
    for _ in 0..nconsts {
        let cname = r.get_str("constant name")?.to_string();
        let value = r.get_u32("constant value")?;
        state
            .try_set_const(&cname, value)
            .map_err(ServeError::Corrupt)?;
    }

    let nrels = r.get_u16("relation count")? as usize;
    if nrels != vocab.num_relations() {
        return Err(ServeError::Corrupt(format!(
            "snapshot has {nrels} relations, program has {}",
            vocab.num_relations()
        )));
    }
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for _ in 0..nrels {
        let rname = r.get_str("relation name")?.to_string();
        if !seen.insert(rname.clone()) {
            return Err(ServeError::Corrupt(format!(
                "duplicate relation {rname} in snapshot"
            )));
        }
        let arity = r.get_u8("relation arity")? as usize;
        let count = r.get_u64("tuple count")?;
        let declared = state
            .try_rel(&rname)
            .map(|rel| rel.arity())
            .ok_or_else(|| {
                ServeError::Corrupt(format!("snapshot names unknown relation {rname}"))
            })?;
        if arity != declared {
            return Err(ServeError::Corrupt(format!(
                "relation {rname} has arity {declared}, snapshot says {arity}"
            )));
        }
        let mut buf = vec![0u32; arity];
        for _ in 0..count {
            for slot in buf.iter_mut() {
                *slot = r.get_u32("tuple element")?;
            }
            if let Some(&bad) = buf.iter().find(|&&e| e >= n) {
                return Err(ServeError::Corrupt(format!(
                    "relation {rname} tuple element {bad} outside universe of size {n}"
                )));
            }
            let rel = state.try_rel_mut(&rname).expect("checked above");
            rel.insert(Tuple::from_slice(&buf));
        }
    }
    if !r.is_exhausted() {
        return Err(ServeError::Corrupt(format!(
            "{} trailing bytes after snapshot body",
            r.remaining()
        )));
    }

    let machine = DynFoMachine::from_state(program.clone(), state)?;
    Ok((machine, seq))
}

/// Read and decode the snapshot file at `path` (see
/// [`decode_snapshot`]).
pub fn read_snapshot(
    path: &Path,
    program: &DynFoProgram,
    n: Elem,
) -> Result<(DynFoMachine, u64), ServeError> {
    let bytes = std::fs::read(path).map_err(|e| ServeError::io(path, e))?;
    decode_snapshot(&bytes, program, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use dynfo_core::programs::reach_u;
    use dynfo_core::{MachineError, Request};

    fn populated_machine() -> DynFoMachine {
        let mut m = DynFoMachine::new(reach_u::program(), 8);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (5, 6)] {
            m.apply(&Request::ins("E", [a, b])).unwrap();
        }
        m.apply(&Request::del("E", [3, 4])).unwrap();
        m
    }

    #[test]
    fn snapshot_round_trips_state_and_seq() {
        let m = populated_machine();
        let bytes = encode_snapshot(&m, 5);
        let (restored, seq) = decode_snapshot(&bytes, &reach_u::program(), 8).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(restored.state(), m.state());
        assert_eq!(restored.n(), m.n());
    }

    #[test]
    fn restored_machine_answers_like_the_original() {
        let m = populated_machine();
        let bytes = encode_snapshot(&m, 5);
        let (mut restored, _) = decode_snapshot(&bytes, &reach_u::program(), 8).unwrap();
        let mut original = m;
        for x in 0..8u32 {
            for y in 0..8u32 {
                assert_eq!(
                    restored.query_named("connected", &[x, y]).unwrap(),
                    original.query_named("connected", &[x, y]).unwrap(),
                    "connected({x},{y}) diverged after restore"
                );
            }
        }
    }

    #[test]
    fn atomic_write_lands_final_file_only() {
        let dir = scratch_dir("snap-atomic");
        let m = populated_machine();
        let path = write_snapshot(&dir, &m, 5).unwrap();
        assert_eq!(path, snapshot_path(&dir, 5));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "no temp files left: {names:?}");
        assert_eq!(parse_snapshot_name(&names[0]), Some(5));
        let (restored, seq) = read_snapshot(&path, &reach_u::program(), 8).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(restored.state(), populated_machine().state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_anywhere_are_caught() {
        let m = populated_machine();
        let bytes = encode_snapshot(&m, 5);
        let program = reach_u::program();
        // Flip one byte at a spread of offsets; every flip must yield an
        // error (mostly the CRC; a flip inside the CRC itself also
        // mismatches), never a panic or a silently different machine.
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(
                decode_snapshot(&bad, &program, 8).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    /// `bytes` with the stored universe size replaced by `n` and the
    /// CRC recomputed, so only the size check can refuse it.
    fn with_stored_n(bytes: &[u8], n: u32) -> Vec<u8> {
        // magic (4), version (2), name length (2), name, then n.
        let name_len = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        let at = 8 + name_len;
        let mut out = bytes[..bytes.len() - 4].to_vec();
        out[at..at + 4].copy_from_slice(&n.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn another_universe_is_rejected() {
        let bytes = encode_snapshot(&populated_machine(), 5);
        match decode_snapshot(&bytes, &reach_u::program(), 16) {
            Err(ServeError::Corrupt(why)) => assert!(why.contains("n = 8"), "{why}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_huge_stored_universe_is_rejected_before_allocating() {
        // A CRC-valid snapshot claiming n = u32::MAX: REACH_u's ternary
        // relation there would be 2⁹⁶ bits. The caller expecting that n
        // gets the budget error; anyone else the mismatch.
        let program = reach_u::program();
        let huge = with_stored_n(&encode_snapshot(&populated_machine(), 5), u32::MAX);
        match decode_snapshot(&huge, &program, u32::MAX) {
            Err(ServeError::Machine(MachineError::TooLarge { bits, budget })) => {
                assert!(bits > budget)
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(matches!(decode_snapshot(&huge, &program, 8), Err(ServeError::Corrupt(_))));
        // The rewrite itself is sound: n = 8 decodes back.
        let same = with_stored_n(&huge, 8);
        assert!(decode_snapshot(&same, &program, 8).is_ok());
    }

    #[test]
    fn wrong_program_is_rejected() {
        let m = populated_machine();
        let bytes = encode_snapshot(&m, 5);
        let other = dynfo_core::programs::parity::program();
        match decode_snapshot(&bytes, &other, 8) {
            Err(ServeError::Corrupt(why)) => assert!(why.contains("program")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_is_a_decode_error() {
        let m = populated_machine();
        let bytes = encode_snapshot(&m, 5);
        for keep in [0, 3, 10, bytes.len() / 2, bytes.len() - 5] {
            assert!(
                decode_snapshot(&bytes[..keep], &reach_u::program(), 8).is_err(),
                "prefix of {keep} bytes decoded"
            );
        }
    }
}
