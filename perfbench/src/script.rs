//! The two script workloads, `find-fine` and `package-pipeline`, and the
//! loop that times them.
//!
//! A task builds a fresh kernel holding the generated inputs (untimed; the
//! kernel cannot be reused because the runtime takes ownership of it),
//! then times `ShillRuntime::new` + `add_script` and each `run` — one run
//! per request. Output checks run between requests and are not timed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shill::core::{RuntimeConfig, ShillRuntime, Value};
use shill::kernel::{Fd, Kernel, OpenFlags, Pid, TracePlane, TraceSite};
use shill::scenarios::{direct_exec, FIND_SHILL_CAP, PACKAGE_CAP, POLY_FIND_CAP};
use shill::vfs::{Cred, Gid, Mode, Uid};

use crate::gen::{self, FindTree, Package};
use crate::ledger::{span_ns, stats_delta, Ledger};
use crate::stats::{median, ratio, samples_needed, Tally, Verdict};
use crate::{covers, ms, us, Deadline, E2e, TRACE_SPEC, WARM_UP_TASKS};

/// One script workload: its inputs, its requests, and its checks.
pub trait Workload {
    /// Modules registered with `add_script` at runtime start.
    fn modules(&self) -> &'static [(&'static str, &'static str)];
    /// A standard kernel holding this workload's generated inputs.
    fn prepare(&self) -> Kernel;
    /// The ambient scripts a task runs, one per request.
    fn sources(&self) -> &[String];
    /// Is a request's script result the expected one?
    fn result_ok(&self, v: &Value) -> bool;
    /// Run request `i` directly, without SHILL (the paper's Baseline
    /// configuration); returns the exit status, 0 on success.
    fn baseline(&self, k: &mut Kernel, user: Pid, i: usize) -> i32;
    /// Does the kernel hold what request `i` must leave behind?
    fn check(&self, k: &Kernel, i: usize) -> bool;
}

fn standard_kernel_with(files: &[(String, Vec<u8>)]) -> Kernel {
    let mut k = shill::setup::standard_kernel();
    for (path, data) in files {
        k.fs.put_file(path, data, Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .expect("generated input file");
    }
    k
}

fn file_bytes(k: &Kernel, path: &str) -> Option<Vec<u8>> {
    let n = k.fs.resolve_abs(path).ok()?;
    k.fs.read(n, 0, usize::MAX >> 1).ok()
}

/// Regular files below `dir`, relative to it, sorted.
fn files_under(k: &Kernel, dir: &str) -> Option<Vec<String>> {
    fn walk(k: &Kernel, node: shill::vfs::NodeId, rel: &str, out: &mut Vec<String>) -> Option<()> {
        for name in k.fs.readdir(node).ok()? {
            let child = k.fs.lookup(node, &name).ok()?;
            let path = if rel.is_empty() {
                name
            } else {
                format!("{rel}/{name}")
            };
            let v = k.fs.node(child).ok()?;
            if v.is_dir() {
                walk(k, child, &path, out)?;
            } else if v.is_file() {
                out.push(path);
            }
        }
        Some(())
    }
    let mut out = Vec::new();
    walk(k, k.fs.resolve_abs(dir).ok()?, "", &mut out)?;
    out.sort();
    Some(out)
}

/// Figure 5's polymorphic `find`, one `grep` sandbox per `.c` file, run
/// once per top-level subtree.
pub struct FindFine {
    tree: FindTree,
    sources: Vec<String>,
}

fn find_out(i: usize) -> String {
    format!("/tmp/matches-{i}.txt")
}

impl FindFine {
    pub fn new(seed: u64) -> FindFine {
        let tree = gen::find_tree(seed);
        let sources = tree
            .subtrees
            .iter()
            .enumerate()
            .map(|(i, root)| {
                format!(
                    r#"#lang shill/ambient
require shill/native;
require "task.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib", pipe_factory);
find_fine(open_dir("{root}"), open_file("{}"), wallet)
"#,
                    find_out(i)
                )
            })
            .collect();
        FindFine { tree, sources }
    }
}

impl Workload for FindFine {
    fn modules(&self) -> &'static [(&'static str, &'static str)] {
        &[("find.cap", POLY_FIND_CAP), ("task.cap", FIND_SHILL_CAP)]
    }

    fn prepare(&self) -> Kernel {
        let mut k = standard_kernel_with(&self.tree.files);
        for i in 0..self.sources.len() {
            k.fs.put_file(&find_out(i), b"", Mode(0o666), Uid::ROOT, Gid::WHEEL)
                .expect("match file");
        }
        k
    }

    fn sources(&self) -> &[String] {
        &self.sources
    }

    fn result_ok(&self, v: &Value) -> bool {
        matches!(v, Value::Void)
    }

    fn baseline(&self, k: &mut Kernel, user: Pid, i: usize) -> i32 {
        let child = k.fork(user).expect("fork");
        let Ok(out) = k.open(child, &find_out(i), OpenFlags::creat_trunc_w(), Mode(0o644)) else {
            return -1;
        };
        if k.transfer_fd(child, out, child, Fd::STDOUT).is_err() {
            return -1;
        }
        let argv: Vec<String> = [
            "/usr/bin/find",
            &self.tree.subtrees[i],
            "-name",
            "*.c",
            "-exec",
        ]
        .into_iter()
        .chain(["/usr/bin/grep", "-H", gen::FIND_PATTERN, "{}", ";"])
        .map(String::from)
        .collect();
        let st = k.exec_at(child, None, &argv[0], &argv).unwrap_or(-1);
        k.exit(child, st);
        k.waitpid(user, child).unwrap_or(-1)
    }

    fn check(&self, k: &Kernel, i: usize) -> bool {
        let Some(out) = file_bytes(k, &find_out(i)) else {
            return false;
        };
        let mut lines: Vec<String> = String::from_utf8_lossy(&out)
            .lines()
            .map(String::from)
            .collect();
        lines.sort();
        lines == self.tree.expected[i]
    }
}

/// The package manager: download → untar → configure → make → install →
/// uninstall, one coarse sandbox per step, one request per step.
pub struct PackagePipeline {
    pkg: Package,
    sources: Vec<String>,
}

const PKG_PROLOGUE: &str = r#"#lang shill/ambient
require shill/native;
require "package.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin:/usr/local/sbin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/cc"));
wallet_add_dep(wallet, "gmake", open_file("/bin/mkdir"));
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/install"));
wallet_add_dep(wallet, "gmake", open_file("/bin/rm"));
wallet_add_dep(wallet, "gmake", open_file("/lib/libelf.so"));
builddir = open_dir("/build");
"#;

/// Per step: the SHILL call and the Baseline command line.
const PKG_STEPS: [(&str, &[&str]); 6] = [
    (
        "st = download(builddir, socket_factory, wallet);",
        &[
            "/usr/local/bin/curl",
            "-o",
            "/build/emacs-24.tar",
            "http://mirror.gnu.org/emacs-24.tar",
        ],
    ),
    (
        r#"st = unpack(open_file("/build/emacs-24.tar"), builddir, wallet);"#,
        &["/usr/bin/tar", "-xf", "/build/emacs-24.tar", "-C", "/build"],
    ),
    (
        r#"st = configure_pkg(open_dir("/build/emacs-24"), wallet);"#,
        &[
            "/usr/local/bin/configure",
            "--prefix=/opt/emacs",
            "--srcdir=/build/emacs-24",
        ],
    ),
    (
        r#"st = make_pkg(open_dir("/build/emacs-24"), wallet);"#,
        &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "all"],
    ),
    (
        r#"st = install_pkg(open_dir("/build/emacs-24"), open_dir("/opt/emacs"), wallet);"#,
        &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "install"],
    ),
    (
        r#"st = uninstall_pkg(open_dir("/build/emacs-24"), open_dir("/opt/emacs"), wallet);"#,
        &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "uninstall"],
    ),
];

const PKG_PREFIX: &str = "/opt/emacs";

impl PackagePipeline {
    pub fn new(seed: u64) -> PackagePipeline {
        let sources = PKG_STEPS
            .iter()
            .map(|(call, _)| format!("{PKG_PROLOGUE}{call}\nst"))
            .collect();
        PackagePipeline {
            pkg: gen::package(seed),
            sources,
        }
    }
}

impl Workload for PackagePipeline {
    fn modules(&self) -> &'static [(&'static str, &'static str)] {
        &[("package.cap", PACKAGE_CAP)]
    }

    fn prepare(&self) -> Kernel {
        let mut k = shill::setup::standard_kernel();
        let tarball = self.pkg.tarball.clone();
        k.net.register_remote(
            shill::binaries::emacs_mirror_addr(),
            Box::new(move |req| {
                if req.starts_with(b"GET /emacs-24.tar") {
                    tarball.clone()
                } else {
                    b"404".to_vec()
                }
            }),
        );
        for dir in ["/build", PKG_PREFIX] {
            k.fs.mkdir_p(dir, Mode(0o777), Uid::ROOT, Gid::WHEEL)
                .expect("package directory");
        }
        k
    }

    fn sources(&self) -> &[String] {
        &self.sources
    }

    fn result_ok(&self, v: &Value) -> bool {
        matches!(v, Value::Num(0))
    }

    fn baseline(&self, k: &mut Kernel, user: Pid, i: usize) -> i32 {
        direct_exec(k, user, PKG_STEPS[i].1)
    }

    fn check(&self, k: &Kernel, i: usize) -> bool {
        let src = |name: &str| format!("/build/emacs-24/{name}");
        let c_files = |dir: &str| {
            files_under(k, dir).map(|fs| {
                fs.into_iter()
                    .filter(|f| f.ends_with(".c"))
                    .collect::<Vec<_>>()
            })
        };
        match i {
            0 => file_bytes(k, "/build/emacs-24.tar").as_ref() == Some(&self.pkg.tarball),
            1 => c_files(&src("src")).as_ref() == Some(&self.pkg.sources),
            2 => file_bytes(k, &src("Makefile")).is_some_and(|m| !m.is_empty()),
            3 => files_under(k, &src("obj")).as_ref() == Some(&self.pkg.objects),
            4 => files_under(k, PKG_PREFIX).as_ref() == Some(&self.pkg.install_manifest),
            _ => files_under(k, PKG_PREFIX).is_some_and(|f| f.is_empty()),
        }
    }
}

/// One timed task.
struct TaskRun {
    verdict: Verdict,
    /// `ShillRuntime::new` + `add_script` (zero for Baseline).
    startup: Duration,
    /// One span per request.
    requests: Vec<Duration>,
    /// Wall time from runtime start to the last result, checks excluded.
    wall: Duration,
}

impl TaskRun {
    fn total(&self) -> Duration {
        self.startup + self.requests.iter().sum::<Duration>()
    }
}

/// Run one SHILL task on a prepared kernel. With `ledger`, the kernel's
/// trace plane is armed and the task's layers are booked into it.
fn shill_task(w: &dyn Workload, mut k: Kernel, ledger: Option<&mut Ledger>) -> (TaskRun, bool) {
    let traced = ledger.is_some();
    if traced {
        k.set_trace_plane(Some(Arc::new(
            TracePlane::parse(TRACE_SPEC).expect("trace spec"),
        )));
    }
    let before = k.stats_snapshot();
    let mut checked = true;
    let wall = Instant::now();
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    for (name, src) in w.modules() {
        rt.add_script(name, src);
    }
    let startup = wall.elapsed();
    let mut requests = Vec::with_capacity(w.sources().len());
    let mut unchecked = Duration::ZERO;
    for (i, src) in w.sources().iter().enumerate() {
        let t = Instant::now();
        let r = rt.run("task", src);
        requests.push(t.elapsed());
        let c = Instant::now();
        checked &= matches!(&r, Ok(v) if w.result_ok(v)) && w.check(rt.kernel(), i);
        unchecked += c.elapsed();
    }
    let run = TaskRun {
        verdict: if checked { Verdict::Ok } else { Verdict::Wrong },
        startup,
        requests,
        wall: wall.elapsed().saturating_sub(unchecked),
    };
    let mut accounted = true;
    if let Some(l) = ledger {
        let p = rt.profile();
        let telemetry = rt.kernel().telemetry();
        let d = stats_delta(&before, &telemetry.stats);
        let runs: Duration = run.requests.iter().sum();
        // The layers must account for the task: runtime start, sandbox
        // setup and sandboxed execution fit inside the spans timed here,
        // and what is left of the runs is interpreter eval and contracts.
        let eval = runs.checked_sub(p.sandbox_setup + p.sandboxed_exec);
        accounted = eval.is_some() && d["trace_dropped"] == 0 && d["faults_injected"] == 0;
        l.push("core.startup_ms", ms(startup));
        l.push("core.eval_ms", ms(eval.unwrap_or_default()));
        l.push("contracts.applications", p.contract_applications as f64);
        l.push("contracts.guard_checks", p.guard_checks as f64);
        l.push("sandbox.count", p.sandboxes as f64);
        l.push(
            "sandbox.setup_us_per",
            ratio(us(p.sandbox_setup), p.sandboxes as f64),
        );
        l.push("sandbox.exec_ms", ms(p.sandboxed_exec));
        let policy = rt.policy.as_ref().expect("runtime with policy").stats();
        l.push("sandbox.epoch_bumps", policy.epoch_bumps as f64);
        let stripe_ns = span_ns(&telemetry.events, TraceSite::Stripe).iter().sum();
        l.kernel(&d, &Default::default(), &telemetry.hists, stripe_ns, 1.0);
    }
    (run, accounted)
}

fn baseline_task(w: &dyn Workload, mut k: Kernel) -> TaskRun {
    let user = k.spawn_user(Cred::ROOT);
    let mut checked = true;
    let mut requests = Vec::new();
    let wall = Instant::now();
    for i in 0..w.sources().len() {
        let t = Instant::now();
        let st = w.baseline(&mut k, user, i);
        requests.push(t.elapsed());
        checked &= st == 0 && w.check(&k, i);
    }
    TaskRun {
        verdict: if checked { Verdict::Ok } else { Verdict::Wrong },
        startup: Duration::ZERO,
        requests,
        wall: wall.elapsed(),
    }
}

/// A task that panicked inside the program counts as refused.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn refused() -> TaskRun {
    TaskRun {
        verdict: Verdict::Refused,
        startup: Duration::ZERO,
        requests: Vec::new(),
        wall: Duration::ZERO,
    }
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: &dyn Workload, deadline: &Deadline) -> E2e {
    let mut e = E2e::default();
    // Every task's input build is one set-up sample.
    let task = |e: &mut E2e| {
        let t = Instant::now();
        let k = w.prepare();
        e.setup_s.push(t.elapsed().as_secs_f64());
        let run = guarded(|| shill_task(w, k, None).0).unwrap_or_else(refused);
        e.tally.record(run.verdict);
        run
    };
    for _ in 0..WARM_UP_TASKS {
        task(&mut e);
    }
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    while deadline.more(
        start,
        e.task_ms.len() >= samples_needed(0.90) && e.req_us.len() >= samples_needed(0.99),
    ) {
        let run = task(&mut e);
        if run.verdict == Verdict::Refused {
            continue;
        }
        busy += run.total();
        e.task_ms.push(ms(run.total()));
        e.open_us.push(us(run.startup));
        e.req_us.extend(run.requests.iter().map(|d| us(*d)));
        e.note_rss(RSS_AFTER_TASKS);
    }
    e.req_per_s = ratio(e.req_us.len() as f64, busy.as_secs_f64());
    e
}

/// Tasks after which `peak_rss_mb` is read: memory is compared at equal
/// work, not equal time (each runtime leaks some memory today, so the
/// reading would otherwise follow throughput).
const RSS_AFTER_TASKS: usize = 100;

/// The traced run: per-layer metrics. Untraced, traced and Baseline tasks
/// alternate so `trace_overhead_x` and `paper.overhead_x` compare tasks
/// taken under the same machine conditions.
pub fn trace(w: &dyn Workload, deadline: &Deadline) -> (Ledger, Tally, bool) {
    let mut ledger = Ledger::default();
    let mut tally = Tally::default();
    let mut accounted = true;
    let (mut plain, mut traced, mut base) = (Vec::new(), Vec::new(), Vec::new());
    // Traced task time, and the wall time it must account for.
    let (mut parts, mut walls) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    while deadline.more(start, base.len() >= 5) {
        for (kind, times) in [(0, &mut plain), (1, &mut traced), (2, &mut base)] {
            let k = w.prepare();
            let run = guarded(|| match kind {
                0 => shill_task(w, k, None).0,
                1 => {
                    let (run, ok) = shill_task(w, k, Some(&mut ledger));
                    accounted &= ok;
                    parts += run.total();
                    walls += run.wall;
                    run
                }
                _ => baseline_task(w, k),
            })
            .unwrap_or_else(refused);
            tally.record(run.verdict);
            if run.verdict != Verdict::Refused {
                times.push(ms(run.total()));
            }
        }
    }
    // Runtime start and the run spans cover the traced tasks' wall time.
    accounted &= covers(parts, walls);
    ledger.push("trace_overhead_x", ratio(median(&traced), median(&plain)));
    ledger.push("paper.overhead_x", ratio(median(&plain), median(&base)));
    (ledger, tally, accounted)
}
