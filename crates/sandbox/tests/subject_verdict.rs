//! The kernel memoizes "every policy leaves this process unrestricted"
//! with the process, validated against the combined cache epoch. These
//! regressions pin the two ways a stale "unrestricted" could leak into a
//! confined subject: a pid that is reused by a fresh session, and a
//! process that is confined after it was warmed as unrestricted.

use std::sync::Arc;

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_kernel::{BatchEntry, Kernel, OpenFlags, Pid, SyscallBatch};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec, ShillPolicy};
use shill_vfs::{Cred, Errno, Gid, Mode, SysResult, Uid};

const SECRET: &str = "/data/secret";

fn kernel(policy: &Arc<ShillPolicy>) -> Kernel {
    let mut k = Kernel::new();
    k.register_policy(policy.clone());
    k.fs.put_file(SECRET, b"s", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k
}

fn read_secret(k: &mut Kernel, pid: Pid) -> SysResult<Vec<u8>> {
    let fd = k.open(pid, SECRET, OpenFlags::RDONLY, Mode(0))?;
    let data = k.read(pid, fd, 16)?;
    k.close(pid, fd)?;
    Ok(data)
}

fn read_secret_batched(k: &mut Kernel, pid: Pid) -> SysResult<Vec<u8>> {
    let batch = SyscallBatch::single(BatchEntry::ReadFile {
        dirfd: None,
        path: SECRET.to_string(),
    });
    match k.submit_batch(pid, &batch)?.remove(0)? {
        shill_kernel::BatchOut::Data(d) => Ok(d),
        other => panic!("unexpected batch output {other:?}"),
    }
}

/// Grants to walk to `/data` (and, with `read`, to read the secret).
fn spec(k: &Kernel, read: bool) -> SandboxSpec {
    let lookup = || CapPrivs::of(PrivSet::of(&[Priv::Lookup]));
    let mut grants = vec![
        Grant::vnode(k.fs.root(), lookup()),
        Grant::vnode(k.fs.resolve_abs("/data").unwrap(), lookup()),
    ];
    if read {
        grants.push(Grant::vnode(
            k.fs.resolve_abs(SECRET).unwrap(),
            CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat])),
        ));
    }
    SandboxSpec {
        grants,
        ..Default::default()
    }
}

/// Two kernels with one policy module number their processes the same
/// way, so the second kernel's sandbox reuses, in the policy's pid-keyed
/// tables, the pid of the first one's reaped sandbox. Whatever the first
/// pid was allowed — as a free subject before its session was entered, and
/// with a read grant after — the new session holds no read grant and must
/// be refused at once, sequentially and batched.
#[test]
fn reused_pid_in_a_fresh_session_is_denied_what_the_session_lacks() {
    let policy = ShillPolicy::new();
    let mut a = kernel(&policy);
    let user_a = a.spawn_user(Cred::ROOT);
    // Warm the pid-to-be as an unrestricted process first.
    let warm = a.fork(user_a).unwrap();
    assert_eq!(read_secret(&mut a, warm).unwrap(), b"s");
    assert_eq!(a.subject_verdict(warm), Some(true));
    a.exit(warm, 0);
    a.waitpid(user_a, warm).unwrap();
    let spec_a = spec(&a, true);
    let old = setup_sandbox(&mut a, &policy, user_a, &spec_a).unwrap();
    assert_eq!(read_secret(&mut a, old.child).unwrap(), b"s");
    assert_eq!(read_secret_batched(&mut a, old.child).unwrap(), b"s");
    a.exit(old.child, 0);
    a.waitpid(user_a, old.child).unwrap();

    let mut b = kernel(&policy);
    let user_b = b.spawn_user(Cred::ROOT);
    // The same pid sequence as on `a`: one warm-up fork, then the sandbox.
    let warm_b = b.fork(user_b).unwrap();
    assert_eq!(warm_b, warm);
    assert_eq!(read_secret(&mut b, warm_b).unwrap(), b"s");
    b.exit(warm_b, 0);
    b.waitpid(user_b, warm_b).unwrap();
    let spec_b = spec(&b, false);
    let new = setup_sandbox(&mut b, &policy, user_b, &spec_b).unwrap();
    assert_eq!(new.child, old.child, "the pid is reused");
    assert_ne!(new.session, old.session);
    assert_eq!(read_secret(&mut b, new.child).unwrap_err(), Errno::EACCES);
    assert_eq!(
        read_secret_batched(&mut b, new.child).unwrap_err(),
        Errno::EACCES
    );
    assert_eq!(b.subject_verdict(new.child), Some(false));
}

/// A process with a cached "unrestricted" verdict — from the sequential
/// path and from a batched submission — that is then given a session and
/// entered is confined from its very next check.
#[test]
fn process_warmed_unrestricted_is_denied_right_after_enter() {
    for batched_warmup in [false, true] {
        let policy = ShillPolicy::new();
        let mut k = kernel(&policy);
        let user = k.spawn_user(Cred::ROOT);
        let child = k.fork(user).unwrap();
        let warmed = if batched_warmup {
            read_secret_batched(&mut k, child)
        } else {
            read_secret(&mut k, child)
        };
        assert_eq!(warmed.unwrap(), b"s");
        assert_eq!(k.subject_verdict(child), Some(true));

        let session = policy.shill_init(child).unwrap();
        let walk = spec(&k, false);
        for g in &walk.grants {
            policy
                .shill_grant(user, session, g.obj, Arc::clone(&g.privs))
                .unwrap();
        }
        // Still un-entered: unrestricted, and the memo still answers.
        assert_eq!(read_secret(&mut k, child).unwrap(), b"s");
        policy.shill_enter(child).unwrap();
        assert_eq!(k.subject_verdict(child), None, "enter voided the memo");

        assert_eq!(read_secret(&mut k, child).unwrap_err(), Errno::EACCES);
        assert_eq!(
            read_secret_batched(&mut k, child).unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(k.subject_verdict(child), Some(false));
        // The parent stays unrestricted.
        assert_eq!(read_secret(&mut k, user).unwrap(), b"s");
    }
}
