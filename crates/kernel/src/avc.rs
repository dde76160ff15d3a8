//! Access-vector cache (AVC) for MAC decisions.
//!
//! Modeled on the SELinux/TrustedBSD AVC: the kernel memoizes *allow*
//! verdicts from the policy stack so the hot path (`namei`'s per-component
//! `Lookup` checks, per-`read` interposition, pipe/socket data-path checks)
//! stops paying a virtual call into every registered policy for decisions
//! that cannot have changed. Entries are keyed by [`ObjId`], so vnode,
//! pipe, and socket vectors all share one cache and one epoch discipline.
//!
//! Safety rules, in order of importance:
//!
//! * **Denials are never cached.** A denied operation always re-consults
//!   the policies, so privilege propagation or a debug auto-grant is picked
//!   up immediately and no denial can outlive a grant.
//! * **Allow verdicts are epoch-validated.** Each entry records the
//!   combined epoch (policy registry attach/detach epoch + the sum of every
//!   policy's [`crate::mac::MacPolicy::cache_epoch`]) at insert time; any
//!   authority-shrinking event bumps an epoch and every older entry turns
//!   stale.
//! * **Only name- and address-free operation classes are cached.**
//!   `CreateFile(name)`, `RenameTo(name)`, `Connect(addr)` etc. bypass the
//!   cache entirely: they are checks where a policy may legitimately care
//!   about the operand, not just the object.
//! * The cache is consulted at all only when **every** registered policy
//!   opted in via `decisions_cacheable`.
//!
//! A subject that every policy leaves unrestricted never reaches this
//! cache: the subject verdict memoized with its process
//! ([`crate::process::SubjectVerdict`]) answers its checks first, so only
//! confined subjects record entries here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};

use shill_vfs::sync::Mutex;

use crate::mac::{PipeOp, SocketOp, VnodeOp};
use crate::types::{ObjId, Pid};

/// Soft bound on cached verdicts before a wholesale purge.
const DEFAULT_CAPACITY: usize = 8192;

/// Operand-free operation classes eligible for caching — the analogue of
/// SELinux access-vector permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvcClass {
    Lookup,
    Read,
    Write,
    Exec,
    Stat,
    ReadDir,
    ReadSymlink,
    PathLookup,
    Chdir,
    PipeRead,
    PipeWrite,
    PipeStat,
    SockSend,
    SockRecv,
}

/// Map a vnode operation to its cacheable class; `None` means the operation
/// must always reach the policies (mutations and name-dependent checks).
pub fn avc_class(op: &VnodeOp<'_>) -> Option<AvcClass> {
    match op {
        VnodeOp::Lookup(_) => Some(AvcClass::Lookup),
        VnodeOp::Read => Some(AvcClass::Read),
        VnodeOp::Write => Some(AvcClass::Write),
        VnodeOp::Exec => Some(AvcClass::Exec),
        VnodeOp::Stat => Some(AvcClass::Stat),
        VnodeOp::ReadDir => Some(AvcClass::ReadDir),
        VnodeOp::ReadSymlink => Some(AvcClass::ReadSymlink),
        VnodeOp::PathLookup => Some(AvcClass::PathLookup),
        VnodeOp::Chdir => Some(AvcClass::Chdir),
        _ => None,
    }
}

/// Map a pipe operation to its cacheable class. All pipe operations are
/// operand-free, so every one caches.
pub fn avc_pipe_class(op: PipeOp) -> Option<AvcClass> {
    match op {
        PipeOp::Read => Some(AvcClass::PipeRead),
        PipeOp::Write => Some(AvcClass::PipeWrite),
        PipeOp::Stat => Some(AvcClass::PipeStat),
    }
}

/// Map a socket operation to its cacheable class; `None` for lifecycle and
/// address-carrying checks (`Create`, `Bind`, `Connect`, `Listen`,
/// `Accept`), which always reach the policies.
pub fn avc_socket_class(op: &SocketOp) -> Option<AvcClass> {
    match op {
        SocketOp::Send => Some(AvcClass::SockSend),
        SocketOp::Recv => Some(AvcClass::SockRecv),
        _ => None,
    }
}

/// Hasher for the cache's keys: pids, object ids and class tags are small
/// integers the kernel allocates, never strings a caller picks, so an
/// FxHash-style rotate-xor-multiply mix spreads them at a few instructions
/// per word instead of SipHash's rounds on every probe.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Initial room in a subject's own map: a short-lived sandbox records a
/// handful of verdicts, and one allocation should hold them.
const SUBJECT_CAPACITY: usize = 8;

/// Cached allow verdicts, indexed by subject first so that a subject's
/// exit drops its own verdicts without scanning anyone else's.
#[derive(Debug, Default)]
struct Vectors {
    /// subject → (object, class) → combined epoch at which the allow was
    /// recorded. Presence at the current epoch means "allowed".
    by_subject: IdMap<Pid, IdMap<(ObjId, AvcClass), u64>>,
    /// Entries across all subjects.
    len: usize,
}

/// The access-vector cache. Interior-mutable (lock + atomic) because MAC
/// checks run behind `&Kernel` on read-path syscalls, possibly from several
/// session threads at once.
#[derive(Debug, Default)]
pub struct Avc {
    entries: Mutex<Vectors>,
    enabled: AtomicBool,
}

impl Avc {
    pub fn new() -> Avc {
        Avc {
            entries: Mutex::new(Vectors::default()),
            enabled: AtomicBool::new(true),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the cache. Disabling flushes; the return value is
    /// the number of live verdicts that flush dropped (0 for an enable, a
    /// disabled→disabled transition, or an already-empty cache), so callers
    /// can count only flushes that actually did work.
    pub fn set_enabled(&self, enabled: bool) -> usize {
        let dropped = if self.enabled() && !enabled {
            self.flush()
        } else {
            0
        };
        self.enabled.store(enabled, Ordering::Relaxed);
        dropped
    }

    /// Probe for a still-valid allow verdict. Stale entries are dropped.
    pub fn probe(&self, pid: Pid, obj: ObjId, class: AvcClass, epoch: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut guard = self.entries.lock();
        let Vectors { by_subject, len } = &mut *guard;
        let Some(vectors) = by_subject.get_mut(&pid) else {
            return false;
        };
        match vectors.get(&(obj, class)) {
            Some(e) if *e == epoch => true,
            Some(_) => {
                vectors.remove(&(obj, class));
                *len -= 1;
                false
            }
            None => false,
        }
    }

    /// Record an allow verdict at the given combined epoch.
    pub fn record(&self, pid: Pid, obj: ObjId, class: AvcClass, epoch: u64) {
        if !self.enabled() {
            return;
        }
        let mut guard = self.entries.lock();
        let Vectors { by_subject, len } = &mut *guard;
        if *len >= DEFAULT_CAPACITY {
            // Evict stale epochs first; purge wholesale as a last resort.
            by_subject.retain(|_, vectors| {
                vectors.retain(|_, e| *e == epoch);
                !vectors.is_empty()
            });
            *len = by_subject.values().map(IdMap::len).sum();
            if *len >= DEFAULT_CAPACITY {
                by_subject.clear();
                *len = 0;
            }
        }
        if by_subject
            .entry(pid)
            .or_insert_with(|| {
                IdMap::with_capacity_and_hasher(SUBJECT_CAPACITY, Default::default())
            })
            .insert((obj, class), epoch)
            .is_none()
        {
            *len += 1;
        }
    }

    /// Drop every cached verdict; returns how many were live.
    pub fn flush(&self) -> usize {
        let mut guard = self.entries.lock();
        let dropped = guard.len;
        *guard = Vectors::default();
        dropped
    }

    /// Drop verdicts for one subject (process exit): its own index entry,
    /// whatever else is cached.
    pub fn drop_pid(&self, pid: Pid) {
        let mut guard = self.entries.lock();
        if let Some(vectors) = guard.by_subject.remove(&pid) {
            guard.len -= vectors.len();
        }
    }

    /// Drop verdicts for one object (vnode reclaimed, pipe/socket closed).
    pub fn drop_obj(&self, obj: ObjId) {
        let mut guard = self.entries.lock();
        let Vectors { by_subject, len } = &mut *guard;
        for vectors in by_subject.values_mut() {
            let before = vectors.len();
            vectors.retain(|(o, _), _| *o != obj);
            *len -= before - vectors.len();
        }
    }

    /// Live cached verdicts (tests/diagnostics).
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PipeId, SockDomain, SockId};
    use shill_vfs::NodeId;

    fn vn(n: u64) -> ObjId {
        ObjId::Vnode(NodeId(n))
    }

    #[test]
    fn probe_record_roundtrip() {
        let avc = Avc::new();
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert!(avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        // Different class, pid, or object: separate vectors.
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Write, 0));
        assert!(!avc.probe(Pid(2), vn(5), AvcClass::Read, 0));
        assert!(!avc.probe(Pid(1), vn(6), AvcClass::Read, 0));
    }

    #[test]
    fn pipe_and_socket_vectors_are_distinct_objects() {
        let avc = Avc::new();
        avc.record(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0);
        avc.record(Pid(1), ObjId::Socket(SockId(5)), AvcClass::SockSend, 0);
        assert!(avc.probe(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0));
        assert!(avc.probe(Pid(1), ObjId::Socket(SockId(5)), AvcClass::SockSend, 0));
        // A vnode with the same raw id is a different key entirely.
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.drop_obj(ObjId::Pipe(PipeId(5)));
        assert!(!avc.probe(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0));
        assert_eq!(avc.entry_count(), 1);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 1));
        // The stale entry was dropped eagerly.
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn targeted_drops() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.record(Pid(2), vn(5), AvcClass::Read, 0);
        avc.record(Pid(1), vn(6), AvcClass::Stat, 0);
        avc.drop_pid(Pid(1));
        assert_eq!(avc.entry_count(), 1);
        avc.drop_obj(vn(5));
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn capacity_eviction_and_drops_keep_the_count_exact() {
        let avc = Avc::new();
        let half = (DEFAULT_CAPACITY / 2) as u64;
        for n in 0..half {
            avc.record(Pid(1), vn(n), AvcClass::Read, 0);
            avc.record(Pid(2), vn(n), AvcClass::Stat, 1);
        }
        assert_eq!(avc.entry_count(), DEFAULT_CAPACITY);
        // Full at epoch 1: pid 1's epoch-0 half is evicted, pid 2 kept.
        avc.record(Pid(3), vn(0), AvcClass::Read, 1);
        assert_eq!(avc.entry_count(), half as usize + 1);
        assert!(!avc.probe(Pid(1), vn(0), AvcClass::Read, 0));
        assert!(avc.probe(Pid(2), vn(7), AvcClass::Stat, 1));
        avc.drop_obj(vn(7));
        assert_eq!(avc.entry_count(), half as usize);
        avc.drop_pid(Pid(2));
        assert_eq!(avc.entry_count(), 1);
        assert!(avc.probe(Pid(3), vn(0), AvcClass::Read, 1));
        // Full with every entry live: the wholesale purge.
        for n in 0..DEFAULT_CAPACITY as u64 {
            avc.record(Pid(4), vn(n), AvcClass::Lookup, 1);
        }
        assert_eq!(avc.entry_count(), 1);
        assert_eq!(avc.flush(), 1);
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn disabled_avc_is_inert() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.set_enabled(false);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert_eq!(avc.entry_count(), 0, "disable flushed and stays empty");
    }

    #[test]
    fn operand_carrying_ops_have_no_class() {
        assert_eq!(avc_class(&VnodeOp::CreateFile("x")), None);
        assert_eq!(avc_class(&VnodeOp::UnlinkFile("x")), None);
        assert_eq!(avc_class(&VnodeOp::RenameTo("x")), None);
        assert_eq!(avc_class(&VnodeOp::Chmod), None);
        assert_eq!(avc_class(&VnodeOp::Truncate), None);
        assert_eq!(avc_class(&VnodeOp::Lookup("x")), Some(AvcClass::Lookup));
        assert_eq!(avc_pipe_class(PipeOp::Read), Some(AvcClass::PipeRead));
        assert_eq!(avc_pipe_class(PipeOp::Write), Some(AvcClass::PipeWrite));
        assert_eq!(avc_socket_class(&SocketOp::Send), Some(AvcClass::SockSend));
        assert_eq!(avc_socket_class(&SocketOp::Recv), Some(AvcClass::SockRecv));
        assert_eq!(avc_socket_class(&SocketOp::Create(SockDomain::Inet)), None);
        assert_eq!(avc_socket_class(&SocketOp::Listen), None);
        assert_eq!(avc_socket_class(&SocketOp::Accept), None);
    }
}
