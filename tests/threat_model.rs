//! Threat-model tests: the paper's concrete security claims, asserted.
//!
//! From §1 (the grading example): "grade will not read any other student's
//! submission; grade will not communicate over the network (as it has no
//! capability for network access); grade will not corrupt the test suite
//! nor write any files other than the grade log and subdirectories it
//! creates within the working directory."

use shill::prelude::*;
use shill::scenarios::GRADING_SHILL_CAP;

fn grading_runtime(students: usize) -> ShillRuntime {
    let mut k = shill::setup::standard_kernel();
    shill::binaries::grading_workload(&mut k, students, 2);
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script("grading.cap", GRADING_SHILL_CAP);
    rt
}

const GRADING_AMBIENT: &str = r#"#lang shill/ambient
require shill/native;
require "grading.cap";
root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "ocamlc", open_dir("/usr/local/lib/ocaml"));
subs = open_dir("/course/submissions");
tests = open_dir("/course/tests");
work = open_dir("/course/work");
grades = open_dir("/course/grades");
grade_all(subs, tests, work, grades, wallet)
"#;

fn grade_of(rt: &mut ShillRuntime, i: usize) -> String {
    let n = rt
        .kernel()
        .fs
        .resolve_abs(&format!("/course/grades/student{i:03}.grade"))
        .expect("grade file");
    String::from_utf8(rt.kernel().fs.read(n, 0, 500).unwrap()).unwrap()
}

#[test]
fn cheater_cannot_read_peer_submission() {
    // student000 is the read-cheater: its program tries to read
    // student002's main.ml at test-run time and print it to stdout (which
    // would corrupt its own output and change its grade — or worse, leak).
    let mut rt = grading_runtime(6);
    rt.run("main", GRADING_AMBIENT).expect("grading");
    // The cheater's answer is otherwise correct. If the readfile had
    // SUCCEEDED, the leaked content would prefix its output and every diff
    // would fail → score 0. The sandbox denies the read, so it scores full.
    let g = grade_of(&mut rt, 0);
    assert_eq!(
        g.trim(),
        "score 2/2",
        "cheater read was denied, solution still graded: {g}"
    );
}

#[test]
fn cheater_cannot_forge_grade_file() {
    // student001 tries to `writefile` its own grade file during the test
    // run. The run sandbox has no capability for the grades directory.
    let mut rt = grading_runtime(6);
    rt.run("main", GRADING_AMBIENT).expect("grading");
    let g = grade_of(&mut rt, 1);
    assert!(!g.contains("999"), "forged grade must not appear: {g}");
    assert_eq!(g.trim(), "score 2/2");
}

#[test]
fn submissions_cannot_touch_network() {
    // A submission that "phones home": ocamlrun has no socket syscalls in
    // its repertoire, but even a binary that tried would need the session
    // to hold a socket-factory capability — the grading script grants none.
    // Check at the MAC level: a process in the grading sandbox session
    // cannot create a socket.
    let mut k = shill::setup::standard_kernel();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let sb = shill::sandbox::setup_sandbox(
        &mut k,
        &policy,
        user,
        &shill::sandbox::SandboxSpec::default(),
    )
    .unwrap();
    assert_eq!(
        k.socket(sb.child, shill::kernel::SockDomain::Inet)
            .unwrap_err(),
        shill::vfs::Errno::EACCES
    );
}

#[test]
fn test_suite_stays_intact() {
    let mut rt = grading_runtime(6);
    let before: Vec<u8> = {
        let n = rt
            .kernel()
            .fs
            .resolve_abs("/course/tests/expected1")
            .unwrap();
        rt.kernel().fs.read(n, 0, 1000).unwrap()
    };
    rt.run("main", GRADING_AMBIENT).expect("grading");
    let after: Vec<u8> = {
        let n = rt
            .kernel()
            .fs
            .resolve_abs("/course/tests/expected1")
            .unwrap();
        rt.kernel().fs.read(n, 0, 1000).unwrap()
    };
    assert_eq!(before, after, "test suite must be unmodified");
}

#[test]
fn grade_files_are_append_only_for_the_script() {
    // The grades contract is `+create_file with {+append, +path, +stat}`:
    // a grading script that tried to *read back* or *truncate* a grade
    // file it created violates its contract.
    let mut k = shill::setup::standard_kernel();
    shill::binaries::grading_workload(&mut k, 2, 1);
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script(
        "nosy.cap",
        r#"#lang shill/cap
provide nosy : {grades : dir(+create_file with {+append, +path, +stat})} -> void;
nosy = fun(grades) {
  g = create_file(grades, "x.grade");
  append(g, "score 1\n");
  read(g);
}
"#,
    );
    let err = rt
        .run(
            "main",
            "#lang shill/ambient\nrequire \"nosy.cap\";\nnosy(open_dir(\"/course/grades\"));",
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => assert!(v.message.contains("+read"), "{v}"),
        other => panic!("{other}"),
    }
}

#[test]
fn sandboxed_binaries_cannot_unload_the_policy_module() {
    // §2.3: "no sandboxed executable has a capability to unload kernel
    // modules, including the module that enforces the MAC policy."
    let mut k = shill::setup::standard_kernel();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let root_user = k.spawn_user(Cred::ROOT);
    let sb = shill::sandbox::setup_sandbox(
        &mut k,
        &policy,
        root_user,
        &shill::sandbox::SandboxSpec::default(),
    )
    .unwrap();
    assert_eq!(
        k.kldunload(sb.child, "shill").unwrap_err(),
        shill::vfs::Errno::EACCES
    );
    assert!(k.has_policy("shill"));
    // Outside a sandbox, root CAN unload it (it is a normal module).
    assert!(k.kldunload(root_user, "shill").is_ok());
    assert!(!k.has_policy("shill"));
}

#[test]
fn dac_still_applies_inside_sandboxes() {
    // §2.3: MAC is enforced IN ADDITION to DAC. A sandbox granted +read on
    // a file the *user* cannot read still cannot read it.
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file(
        "/secret/root-only.txt",
        b"s",
        Mode(0o600),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::user(100));
    let node = k.fs.resolve_abs("/secret/root-only.txt").unwrap();
    let secret_dir = k.fs.resolve_abs("/secret").unwrap();
    let root = k.fs.root();
    let spec = shill::sandbox::SandboxSpec {
        grants: vec![
            shill::sandbox::Grant::vnode(root, shill::cap::CapPrivs::full()),
            shill::sandbox::Grant::vnode(secret_dir, shill::cap::CapPrivs::full()),
            shill::sandbox::Grant::vnode(node, shill::cap::CapPrivs::full()),
        ],
        ..Default::default()
    };
    let sb = shill::sandbox::setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    assert_eq!(
        k.open(
            sb.child,
            "/secret/root-only.txt",
            OpenFlags::RDONLY,
            Mode(0)
        )
        .unwrap_err(),
        shill::vfs::Errno::EACCES,
        "DAC denies even though MAC grants"
    );
}

#[test]
fn capability_safe_scripts_cannot_import_ambient_scripts() {
    let mut rt = shill::setup::standard_runtime();
    rt.add_script("amb", "#lang shill/ambient\nx = open_dir(\"/\");");
    rt.add_script(
        "trick.cap",
        "#lang shill/cap\nrequire \"amb\";\nprovide f : {} -> any;\nf = fun() { 1 };",
    );
    let err = rt
        .run("main", "#lang shill/ambient\nrequire \"trick.cap\";\nf();")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("capability-safe"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn sandbox_cannot_escape_via_dotdot() {
    // A sandboxed process with privileges under /jail only: ".." lookups
    // are permitted, but no privileges propagate upward, so reaching
    // anything outside fails.
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file("/jail/inner.txt", b"in", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.put_file("/outside.txt", b"out", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let jail = k.fs.resolve_abs("/jail").unwrap();
    let root = k.fs.root();
    // Traversal-only root (what a native wallet grants) + full on the jail.
    let lookup_only =
        shill::cap::CapPrivs::of(shill::cap::PrivSet::of(&[shill::cap::Priv::Lookup]))
            .with_modifier(
                shill::cap::Priv::Lookup,
                shill::cap::CapPrivs::of(shill::cap::PrivSet::of(&[shill::cap::Priv::Lookup])),
            );
    let spec = shill::sandbox::SandboxSpec {
        grants: vec![
            shill::sandbox::Grant::vnode(root, lookup_only),
            shill::sandbox::Grant::vnode(jail, shill::cap::CapPrivs::full()),
        ],
        ..Default::default()
    };
    let sb = shill::sandbox::setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    k.chdir(sb.child, "/jail").unwrap();
    // Inside works:
    assert!(k
        .open(sb.child, "inner.txt", OpenFlags::RDONLY, Mode(0))
        .is_ok());
    // Escape fails: the ".." lookup itself is allowed (+lookup on /jail),
    // but no privileges propagate upward (§3.2.2), and the traversal-only
    // root conveys +lookup — never +read — so the final open is denied.
    assert_eq!(
        k.open(sb.child, "../outside.txt", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        shill::vfs::Errno::EACCES
    );
}

/// Descriptor numbers `fdprobe` scans: beyond every number the runtime in
/// [`probe_after_opening`] allocates.
const PROBE_FDS: u32 = 1024;

/// Register `fdprobe`: a binary that reports its own descriptor table —
/// the open descriptor numbers, then whether every number from 3 below
/// [`PROBE_FDS`] answers `EBADF`.
fn install_fd_probe(k: &mut Kernel) {
    k.register_exec(
        "fdprobe",
        std::sync::Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
            let mut open: Vec<u32> = match k.process(pid) {
                Ok(p) => p.fds.keys().map(|fd| fd.0).collect(),
                Err(_) => return 1,
            };
            open.sort_unstable();
            let closed =
                (3..PROBE_FDS).all(|n| k.read(pid, Fd(n), 1) == Err(shill::vfs::Errno::EBADF));
            let report = format!("open {open:?} closed-above-stdio {closed}\n");
            k.write(pid, Fd::STDOUT, report.as_bytes()).map_or(1, |_| 0)
        }),
    );
    k.fs.put_file(
        "/bin/fdprobe",
        b"#!SIMBIN fdprobe\n",
        Mode(0o755),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
}

/// Open `held` file capabilities in the runtime, then run `fdprobe` in a
/// sandbox with only `stdout` wired, and return its report.
fn probe_after_opening(held: usize) -> String {
    let mut k = shill::setup::standard_kernel();
    install_fd_probe(&mut k);
    for i in 0..held {
        k.fs.put_file(
            &format!("/held/f{i}"),
            b"h",
            Mode(0o644),
            Uid(100),
            Gid(100),
        )
        .unwrap();
    }
    k.fs.put_file("/home/u/probe.out", b"", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::user(100));
    let mut script = String::from("#lang shill/ambient\n");
    for i in 0..held {
        script.push_str(&format!("c{i} = open_file(\"/held/f{i}\");\n"));
    }
    script.push_str(
        "probe = open_file(\"/bin/fdprobe\");\nout = open_file(\"/home/u/probe.out\");\nexec(probe, [\"fdprobe\"], stdout = out)\n",
    );
    let status = rt.run_ok(&script);
    assert!(matches!(status, Value::Num(0)), "probe exit: {status:?}");
    let pid = rt.pid();
    let fds = &rt.kernel().process(pid).unwrap().fds;
    assert!(fds.len() > held, "the runtime held every capability");
    assert!(
        fds.keys().all(|fd| fd.0 < PROBE_FDS),
        "the probe scans them all"
    );
    let out = rt.kernel().fs.resolve_abs("/home/u/probe.out").unwrap();
    String::from_utf8(rt.kernel().fs.read(out, 0, 4096).unwrap()).unwrap()
}

#[test]
fn sandbox_holds_only_its_wired_stdio() {
    // A sandbox starts with an empty descriptor table: its capabilities
    // arrive as session grants, never as descriptors inherited from the
    // runtime, however many the runtime holds.
    let bare = probe_after_opening(0);
    assert_eq!(bare, "open [1] closed-above-stdio true\n");
    assert_eq!(probe_after_opening(500), bare);
}

#[test]
fn nested_sandbox_gets_a_child_session_and_cannot_amplify() {
    let mut k = shill::setup::standard_kernel();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    policy.enable_logging(true);
    let user = k.spawn_user(Cred::ROOT);
    let tmp = k.fs.resolve_abs("/tmp").unwrap();
    let lookup = shill::cap::CapPrivs::of(shill::cap::PrivSet::of(&[shill::cap::Priv::Lookup]));
    let tmp_spec = |privs: &shill::cap::CapPrivs| shill::sandbox::SandboxSpec {
        grants: vec![shill::sandbox::Grant::vnode(tmp, privs.clone())],
        ..Default::default()
    };
    let outer = shill::sandbox::setup_sandbox(&mut k, &policy, user, &tmp_spec(&lookup)).unwrap();

    let inner = shill::sandbox::setup_sandbox(&mut k, &policy, outer.child, &tmp_spec(&lookup))
        .expect("attenuated grant from inside a session");
    assert_eq!(policy.session_of(inner.child), Some(inner.session));
    assert_ne!(inner.session, outer.session);
    assert!(policy.log_events().iter().any(|e| matches!(
        e,
        shill::sandbox::LogEvent::SessionCreated { session, parent }
            if *session == inner.session && *parent == Some(outer.session)
    )));

    let err = shill::sandbox::setup_sandbox(
        &mut k,
        &policy,
        outer.child,
        &tmp_spec(&shill::cap::CapPrivs::full()),
    )
    .map(|sb| sb.child)
    .unwrap_err();
    assert_eq!(err, shill::vfs::Errno::EACCES);
}
