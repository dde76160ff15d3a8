//! The subject-level verdict in front of the AVC ("every loaded policy
//! leaves pid P unrestricted at combined epoch E"), checked against stub
//! policies written here from the `MacPolicy` contract alone — they share
//! no code with the SHILL sandbox policy.
//!
//! * A policy that does not override `subject_unrestricted` sees every
//!   check it saw before the memo existed.
//! * An answer that flips without an epoch bump is never re-asked; a bump
//!   makes the kernel ask again, on the sequential path and inside a
//!   batched submission alike.
//! * With the AVC off, the memo is off too: every check reaches the policy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use shill_kernel::{
    BatchEntry, Kernel, MacCtx, MacPolicy, OpenFlags, Pid, SyscallBatch, VnodeOp, SYSCTL_AVC,
};
use shill_vfs::{Cred, Errno, Gid, Mode, NodeId, SysResult, Uid};

/// Counters every stub keeps.
#[derive(Default)]
struct Seen {
    /// `vnode_check` calls.
    checks: AtomicU64,
    /// `vnode_check` calls for a `CreateDir` operation.
    create_dirs: AtomicU64,
    /// `vnode_post_lookup` calls.
    post_lookups: AtomicU64,
    /// `subject_unrestricted` calls.
    asked: AtomicU64,
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Cacheable, allows everything except directories named `deny*`, and
/// does not override `subject_unrestricted`.
#[derive(Default)]
struct Plain {
    seen: Seen,
}

impl MacPolicy for Plain {
    fn name(&self) -> &str {
        "plain"
    }

    fn decisions_cacheable(&self) -> bool {
        true
    }

    fn vnode_check(&self, _ctx: MacCtx, _node: NodeId, op: &VnodeOp<'_>) -> SysResult<()> {
        self.seen.checks.fetch_add(1, Ordering::Relaxed);
        if let VnodeOp::CreateDir(name) = op {
            self.seen.create_dirs.fetch_add(1, Ordering::Relaxed);
            if name.starts_with("deny") {
                return Err(Errno::EACCES);
            }
        }
        Ok(())
    }

    fn vnode_post_lookup(&self, _ctx: MacCtx, _dir: NodeId, _name: &str, _child: NodeId) {
        self.seen.post_lookups.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cacheable, opts in, and answers `subject_unrestricted` from `free`,
/// which the tests flip with or without an epoch bump. While `free` is
/// false every vnode check is denied.
struct Flipping {
    seen: Seen,
    free: AtomicBool,
    epoch: AtomicU64,
}

impl Flipping {
    fn new(free: bool) -> Flipping {
        Flipping {
            seen: Seen::default(),
            free: AtomicBool::new(free),
            epoch: AtomicU64::new(0),
        }
    }

    /// Change the answer without telling the kernel (breaks the contract
    /// on purpose when it restricts).
    fn flip(&self, free: bool) {
        self.free.store(free, Ordering::Relaxed);
    }

    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

impl MacPolicy for Flipping {
    fn name(&self) -> &str {
        "flipping"
    }

    fn decisions_cacheable(&self) -> bool {
        true
    }

    fn cache_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn subject_unrestricted(&self, _pid: Pid) -> bool {
        self.seen.asked.fetch_add(1, Ordering::Relaxed);
        self.free.load(Ordering::Relaxed)
    }

    fn vnode_check(&self, _ctx: MacCtx, _node: NodeId, _op: &VnodeOp<'_>) -> SysResult<()> {
        self.seen.checks.fetch_add(1, Ordering::Relaxed);
        if self.free.load(Ordering::Relaxed) {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    fn vnode_post_lookup(&self, _ctx: MacCtx, _dir: NodeId, _name: &str, _child: NodeId) {
        self.seen.post_lookups.fetch_add(1, Ordering::Relaxed);
    }
}

const FILE: &str = "/data/sub/f";

fn setup(policy: Arc<dyn MacPolicy>) -> (Kernel, Pid) {
    let mut k = Kernel::new();
    k.fs.put_file(FILE, b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.register_policy(policy);
    let pid = k.spawn_user(Cred::ROOT);
    (k, pid)
}

fn stat_batch(k: &mut Kernel, pid: Pid, n: usize) -> Vec<SysResult<()>> {
    let batch = SyscallBatch::new(
        (0..n)
            .map(|_| BatchEntry::Stat {
                dirfd: None,
                path: FILE.to_string(),
                follow: true,
            })
            .collect(),
    );
    k.submit_batch(pid, &batch)
        .unwrap()
        .into_iter()
        .map(|r| r.map(|_| ()))
        .collect()
}

fn read_byte(k: &mut Kernel, pid: Pid) -> SysResult<()> {
    let fd = k.open(pid, FILE, OpenFlags::RDONLY, Mode(0))?;
    k.read(pid, fd, 1)?;
    k.close(pid, fd)
}

/// Stats, reads and mkdirs, with repeats so the AVC has hits to give.
fn workload(k: &mut Kernel, pid: Pid, tag: &str) -> Vec<SysResult<()>> {
    let mut out = Vec::new();
    for i in 0..4 {
        out.push(k.fstatat(pid, None, FILE, true).map(|_| ()));
        out.push(read_byte(k, pid));
        out.push(
            k.mkdirat(pid, None, &format!("/data/{tag}{i}"), Mode::DIR_DEFAULT)
                .map(|_| ()),
        );
    }
    out.push(
        k.mkdirat(pid, None, "/data/deny", Mode::DIR_DEFAULT)
            .map(|_| ()),
    );
    out
}

#[test]
fn policy_without_opt_in_sees_every_check() {
    let plain = Arc::new(Plain::default());
    let (mut k, pid) = setup(plain.clone());
    k.stats.reset();
    let on = workload(&mut k, pid, "d");
    let snap = k.stats.snapshot();

    // Every check that reached the stub is one the kernel counted as
    // reaching the policies, and every mkdir's name-carrying check
    // reached it (no AVC class, and no subject verdict stands in).
    assert_eq!(get(&plain.seen.checks), snap.mac_vnode_checks);
    assert_eq!(get(&plain.seen.create_dirs), 5);
    assert_eq!(
        on.last(),
        Some(&Err(Errno::EACCES)),
        "the stub's veto holds"
    );
    assert!(get(&plain.seen.post_lookups) > 0, "post hooks still run");
    // The kernel memoized the default answer: restricted.
    assert_eq!(k.subject_verdict(pid), Some(false));

    // As before the memo: with one policy, AVC hits plus policy-reaching
    // checks account for exactly the checks the AVC-off run makes.
    let off_policy = Arc::new(Plain::default());
    let (mut k_off, pid_off) = setup(off_policy.clone());
    k_off.set_cache_enabled(true, false);
    k_off.stats.reset();
    let off = workload(&mut k_off, pid_off, "d");
    let off_snap = k_off.stats.snapshot();
    assert_eq!(on, off, "identical verdicts with the AVC on and off");
    assert_eq!(off_snap.avc_hits, 0);
    assert_eq!(get(&off_policy.seen.checks), off_snap.mac_vnode_checks);
    assert_eq!(
        snap.avc_hits + snap.mac_vnode_checks,
        off_snap.mac_vnode_checks
    );
    assert!(snap.avc_hits > 0 && snap.mac_vnode_checks > 0);
}

#[test]
fn flipped_answer_is_not_reasked_until_the_epoch_moves() {
    let stub = Arc::new(Flipping::new(true));
    let (mut k, pid) = setup(stub.clone());

    k.fstatat(pid, None, FILE, true).unwrap();
    assert_eq!(get(&stub.seen.asked), 1, "asked once, then memoized");
    assert_eq!(get(&stub.seen.checks), 0, "a free subject skips the checks");
    assert_eq!(get(&stub.seen.post_lookups), 0, "and the post hooks");
    assert_eq!(k.subject_verdict(pid), Some(true));

    // Restrict without a bump: the contract is broken, and the kernel
    // honours the memo rather than asking again.
    stub.flip(false);
    for _ in 0..5 {
        k.fstatat(pid, None, FILE, true).unwrap();
    }
    assert_eq!(get(&stub.seen.asked), 1);
    assert_eq!(get(&stub.seen.checks), 0);

    // A bump voids the memo: asked again, and the checks reach the stub.
    stub.bump();
    assert_eq!(k.subject_verdict(pid), None);
    assert_eq!(k.fstatat(pid, None, FILE, true).unwrap_err(), Errno::EACCES);
    assert_eq!(get(&stub.seen.asked), 2);
    assert!(get(&stub.seen.checks) > 0);
    assert_eq!(k.subject_verdict(pid), Some(false));

    // Growing authority back needs no bump; the restricted memo only
    // costs the full path until the next one.
    stub.flip(true);
    k.fstatat(pid, None, FILE, true).unwrap();
    assert_eq!(get(&stub.seen.asked), 2);
    stub.bump();
    let checks = get(&stub.seen.checks);
    k.fstatat(pid, None, FILE, true).unwrap();
    assert_eq!(get(&stub.seen.asked), 3);
    assert_eq!(get(&stub.seen.checks), checks);
}

#[test]
fn flipped_answer_is_not_reasked_inside_a_batch_until_the_epoch_moves() {
    let stub = Arc::new(Flipping::new(true));
    let (mut k, pid) = setup(stub.clone());

    assert_eq!(stat_batch(&mut k, pid, 4), vec![Ok(()); 4]);
    assert_eq!(
        get(&stub.seen.asked),
        1,
        "once per submission, not per entry"
    );
    assert_eq!(get(&stub.seen.checks), 0);
    // The batch wrote its memo back to the process.
    assert_eq!(k.subject_verdict(pid), Some(true));

    stub.flip(false);
    assert_eq!(stat_batch(&mut k, pid, 4), vec![Ok(()); 4]);
    k.fstatat(pid, None, FILE, true).unwrap();
    assert_eq!(get(&stub.seen.asked), 1, "no bump, no new question");
    assert_eq!(get(&stub.seen.checks), 0);

    stub.bump();
    assert_eq!(
        stat_batch(&mut k, pid, 4),
        vec![Err(Errno::EACCES); 4],
        "after the bump every entry reaches the stub"
    );
    assert_eq!(get(&stub.seen.asked), 2);
    assert!(get(&stub.seen.checks) >= 4);
    assert_eq!(k.subject_verdict(pid), Some(false));
    // The sequential path reuses the batch's answer.
    assert_eq!(k.fstatat(pid, None, FILE, true).unwrap_err(), Errno::EACCES);
    assert_eq!(get(&stub.seen.asked), 2);
}

#[test]
fn avc_off_sends_every_check_to_an_opted_in_policy() {
    let stub = Arc::new(Flipping::new(true));
    let (mut k, pid) = setup(stub.clone());
    k.sysctl_write(pid, SYSCTL_AVC, "0").unwrap();
    k.stats.reset();
    for _ in 0..5 {
        k.fstatat(pid, None, FILE, true).unwrap();
    }
    assert_eq!(stat_batch(&mut k, pid, 3), vec![Ok(()); 3]);
    let snap = k.stats.snapshot();
    assert_eq!(get(&stub.seen.asked), 0, "the memo is off with the AVC");
    assert_eq!(snap.avc_hits, 0);
    // Four components per stat ("/", "data", "sub", "f"), all checked.
    assert_eq!(snap.mac_vnode_checks, 8 * 4);
    assert_eq!(get(&stub.seen.checks), snap.mac_vnode_checks);
    assert!(get(&stub.seen.post_lookups) > 0);
    assert_eq!(k.subject_verdict(pid), None);
}
