//! Edge cases of the syscall surface: symlink handling in the path walker,
//! rename semantics, cwd bookkeeping, and descriptor lifetime.

use shill_kernel::{Fd, Kernel, OpenFlags, Pid};
use shill_vfs::{Cred, Errno, Gid, Mode, Uid};

fn setup() -> (Kernel, Pid) {
    let mut k = Kernel::new();
    let pid = k.spawn_user(Cred::ROOT);
    (k, pid)
}

#[test]
fn symlink_loop_detected_in_walker() {
    let (mut k, pid) = setup();
    k.symlinkat(pid, "/b", None, "/a").unwrap();
    k.symlinkat(pid, "/a", None, "/b").unwrap();
    assert_eq!(
        k.open(pid, "/a", OpenFlags::RDONLY, Mode(0)).unwrap_err(),
        Errno::ELOOP
    );
}

#[test]
fn symlink_chain_resolves_within_budget() {
    let (mut k, pid) = setup();
    k.fs.put_file("/real.txt", b"content", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let mut prev = "/real.txt".to_string();
    for i in 0..10 {
        let link = format!("/link{i}");
        k.symlinkat(pid, &prev, None, &link).unwrap();
        prev = link;
    }
    let fd = k.open(pid, &prev, OpenFlags::RDONLY, Mode(0)).unwrap();
    assert_eq!(k.read(pid, fd, 100).unwrap(), b"content");
}

#[test]
fn relative_symlinks_resolve_from_their_directory() {
    let (mut k, pid) = setup();
    k.fs.put_file("/dir/target.txt", b"T", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.symlinkat(pid, "target.txt", None, "/dir/alias").unwrap();
    let fd = k
        .open(pid, "/dir/alias", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    assert_eq!(k.read(pid, fd, 10).unwrap(), b"T");
}

#[test]
fn symlinks_in_the_middle_of_paths_follow_even_with_nofollow() {
    let (mut k, pid) = setup();
    k.fs.put_file("/real/dir/f.txt", b"F", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.symlinkat(pid, "/real", None, "/sym").unwrap();
    let mut flags = OpenFlags::RDONLY;
    flags.nofollow = true; // only applies to the *final* component
    let fd = k.open(pid, "/sym/dir/f.txt", flags, Mode(0)).unwrap();
    assert_eq!(k.read(pid, fd, 10).unwrap(), b"F");
}

#[test]
fn walking_through_a_file_is_enotdir() {
    let (mut k, pid) = setup();
    k.fs.put_file("/plain.txt", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert_eq!(
        k.open(pid, "/plain.txt/child", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        Errno::ENOTDIR
    );
}

#[test]
fn rename_between_directories_via_syscall() {
    let (mut k, pid) = setup();
    k.fs.put_file("/src/f.txt", b"move me", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.mkdir_p("/dst", Mode(0o755), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.renameat(pid, None, "/src/f.txt", None, "/dst/g.txt")
        .unwrap();
    let fd = k
        .open(pid, "/dst/g.txt", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    assert_eq!(k.read(pid, fd, 10).unwrap(), b"move me");
    assert_eq!(
        k.open(pid, "/src/f.txt", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        Errno::ENOENT
    );
}

#[test]
fn getcwd_tracks_chdir_and_fchdir() {
    let (mut k, pid) = setup();
    k.fs.mkdir_p("/deep/er/est", Mode(0o755), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.chdir(pid, "/deep/er").unwrap();
    assert_eq!(k.getcwd(pid).unwrap(), "/deep/er");
    let fd = k.open(pid, "est", OpenFlags::dir(), Mode(0)).unwrap();
    k.fchdir(pid, fd).unwrap();
    assert_eq!(k.getcwd(pid).unwrap(), "/deep/er/est");
    // Relative opens resolve against the new cwd.
    k.fs.put_file("/deep/er/est/x", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert!(k.open(pid, "x", OpenFlags::RDONLY, Mode(0)).is_ok());
}

#[test]
fn chdir_to_file_is_enotdir() {
    let (mut k, pid) = setup();
    k.fs.put_file("/f", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert_eq!(k.chdir(pid, "/f").unwrap_err(), Errno::ENOTDIR);
}

#[test]
fn unlinked_open_file_remains_readable_via_fd() {
    let (mut k, pid) = setup();
    k.fs.put_file(
        "/tmp/data",
        b"still here",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let fd = k
        .open(pid, "/tmp/data", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    k.unlinkat(pid, None, "/tmp/data", false).unwrap();
    assert_eq!(k.read(pid, fd, 100).unwrap(), b"still here");
    // After close, the node is reclaimed.
    let node = k.process(pid).unwrap().fd_node(fd).unwrap();
    k.close(pid, fd).unwrap();
    assert!(!k.fs.exists(node));
}

#[test]
fn exclusive_create_detects_existing() {
    let (mut k, pid) = setup();
    let mut flags = OpenFlags::creat_trunc_w();
    flags.exclusive = true;
    assert!(k.open(pid, "/tmp/x", flags, Mode(0o644)).is_ok());
    assert_eq!(
        k.open(pid, "/tmp/x", flags, Mode(0o644)).unwrap_err(),
        Errno::EEXIST
    );
}

#[test]
fn directory_opens_reject_write() {
    let (mut k, pid) = setup();
    assert_eq!(
        k.open(pid, "/tmp", OpenFlags::wronly(), Mode(0))
            .unwrap_err(),
        Errno::EISDIR
    );
    let mut fl = OpenFlags::RDONLY;
    fl.directory = true;
    k.fs.put_file("/tmp/f", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert_eq!(
        k.open(pid, "/tmp/f", fl, Mode(0)).unwrap_err(),
        Errno::ENOTDIR
    );
}

#[test]
fn stdio_transfer_survives_exec_roundtrip() {
    let (mut k, pid) = setup();
    k.register_exec(
        "greeter",
        std::sync::Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
            k.append_fd(pid, Fd::STDOUT, b"hi from child")
                .map(|_| 0)
                .unwrap_or(1)
        }),
    );
    k.fs.put_file(
        "/bin/greeter",
        b"#!SIMBIN greeter\n",
        Mode(0o755),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let (r, w) = k.pipe(pid).unwrap();
    let child = k.fork(pid).unwrap();
    k.transfer_fd(pid, w, child, Fd::STDOUT).unwrap();
    let st = k
        .exec_at(child, None, "/bin/greeter", &["greeter".into()])
        .unwrap();
    k.exit(child, st);
    k.waitpid(pid, child).unwrap();
    k.close(pid, w).unwrap();
    assert_eq!(k.read(pid, r, 100).unwrap(), b"hi from child");
    // The child's exit closed its copy; pipe EOF after draining.
    assert_eq!(k.read(pid, r, 100).unwrap(), b"");
}

#[test]
fn transfer_fd_onto_an_open_descriptor_releases_it() {
    // `dup2` semantics: the descriptor displaced at the target number is
    // closed, so its pipe write end does not outlive every real writer.
    let (mut k, pid) = setup();
    k.fs.put_file("/tmp/log", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let (r, w) = k.pipe(pid).unwrap();
    k.transfer_fd(pid, w, pid, Fd::STDOUT).unwrap();
    let child = k.fork(pid).unwrap();
    let log = k
        .open(pid, "/tmp/log", OpenFlags::wronly(), Mode(0))
        .unwrap();
    k.transfer_fd(pid, log, child, Fd::STDOUT).unwrap();
    k.exit(child, 0);
    k.waitpid(pid, child).unwrap();
    k.close(pid, w).unwrap();
    k.close(pid, Fd::STDOUT).unwrap();
    assert_eq!(k.read(pid, r, 100).unwrap(), b"", "every write end closed");
    // Transferring a descriptor onto itself is a no-op, as for `dup2`.
    k.transfer_fd(pid, log, pid, log).unwrap();
    assert!(k.fd_object(pid, log).is_ok());
}

#[test]
fn spawn_starts_with_no_descriptors_and_fork_inherits_them() {
    let (mut k, pid) = setup();
    let (r, w) = k.pipe(pid).unwrap();
    let forks = k.stats.snapshot().forks;
    let forked = k.fork(pid).unwrap();
    let spawned = k.spawn(pid).unwrap();
    assert_eq!(k.stats.snapshot().forks, forks + 2);
    let fds = |k: &Kernel, p: Pid| {
        let mut v: Vec<Fd> = k.process(p).unwrap().fds.keys().copied().collect();
        v.sort_by_key(|fd| fd.0);
        v
    };
    assert_eq!(fds(&k, forked), vec![r, w]);
    assert!(fds(&k, spawned).is_empty());
    assert_eq!(k.read(spawned, r, 1).unwrap_err(), Errno::EBADF);
    // Both are children of `pid`, with its credentials and cwd.
    for c in [forked, spawned] {
        let p = k.process(c).unwrap();
        assert_eq!((p.ppid, p.cred, p.cwd), (pid, Cred::ROOT, k.fs.root()));
    }
    assert_eq!(k.process(pid).unwrap().children, vec![forked, spawned]);
}

#[test]
fn stats_count_mac_checks_only_with_policy() {
    let (mut k, pid) = setup();
    k.fs.put_file("/tmp/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let fd = k.open(pid, "/tmp/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.read(pid, fd, 1).unwrap();
    assert_eq!(
        k.stats.snapshot().mac_vnode_checks,
        0,
        "no policy registered"
    );
    k.register_policy(std::sync::Arc::new(shill_kernel::NullPolicy));
    let fd2 = k.open(pid, "/tmp/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.read(pid, fd2, 1).unwrap();
    assert!(k.stats.snapshot().mac_vnode_checks > 0);
}

#[test]
fn deep_relative_paths_via_dirfd() {
    let (mut k, pid) = setup();
    k.fs.put_file(
        "/a/b/c/d/e.txt",
        b"deep",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let dirfd = k.open(pid, "/a/b", OpenFlags::dir(), Mode(0)).unwrap();
    let fd = k
        .openat(pid, Some(dirfd), "c/d/e.txt", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    assert_eq!(k.read(pid, fd, 10).unwrap(), b"deep");
    let st = k.fstatat(pid, Some(dirfd), "c/d", true).unwrap();
    assert!(st.ftype.is_dir());
}
