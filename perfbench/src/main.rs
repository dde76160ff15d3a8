//! The repository's benchmark: three seeded workloads, end-to-end metrics
//! from an untraced run and a per-layer ledger from a traced one.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload find-fine|package-pipeline|tenant-rpc \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! seed and the machine (cores, build profile, commit). See
//! `perfbench/README.md` for what each workload and metric means.

mod gen;
mod ledger;
mod script;
mod stats;
mod tenant;

use std::time::{Duration, Instant};

use stats::{median, Tally};

/// The trace plane the traced run arms: every site, and a ring large
/// enough for one task's events between drains (checked: `trace_dropped`
/// must stay 0).
pub const TRACE_SPEC: &str = "sites=all;cap=4000000";

/// A seed kept out of tuning: a later claim must also hold on it.
pub const HOLDOUT_SEED: u64 = 20_141_006;

/// Untimed tasks before timing starts.
pub const WARM_UP_TASKS: usize = 3;

/// The longest a run may take, whatever `--seconds` asks, so it ends well
/// within three minutes even while it waits for enough samples.
const HARD_CAP: Duration = Duration::from_secs(150);

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Do the timed parts account for the wall time they sit in? Summed over
/// the traced run, they must cover at least 95% of it (and never more),
/// so a rare preemption between two spans cannot fail the run.
pub fn covers(parts: Duration, wall: Duration) -> bool {
    parts <= wall + Duration::from_micros(1) && parts.as_secs_f64() >= 0.95 * wall.as_secs_f64()
}

/// When a measuring loop stops: after `--seconds`, or later if it still
/// lacks the samples its highest percentile needs (never past the cap).
pub struct Deadline {
    seconds: Duration,
    cap: Duration,
}

impl Deadline {
    pub fn more(&self, start: Instant, enough: bool) -> bool {
        let t = start.elapsed();
        t < self.seconds || (!enough && t < self.cap)
    }

    pub fn halved(&self) -> Deadline {
        Deadline {
            seconds: self.seconds / 2,
            cap: self.cap / 2,
        }
    }
}

/// Samples behind the end-to-end metrics of one untraced run.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub task_ms: Vec<f64>,
    pub req_us: Vec<f64>,
    pub open_us: Vec<f64>,
    pub req_per_s: f64,
    pub tally: Tally,
    /// `VmHWM` after a fixed number of tasks (see [`E2e::note_rss`]).
    pub peak_rss_mb: Option<f64>,
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl E2e {
    /// Read peak memory once the run has timed `tasks` tasks.
    pub fn note_rss(&mut self, tasks: usize) {
        if self.task_ms.len() == tasks {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }

    /// The end-to-end metrics, and whether every percentile had the
    /// samples it needs.
    fn metrics(&self) -> (Vec<(&'static str, f64, &'static str)>, bool) {
        let mut enough = true;
        let mut tail = |xs: &[f64], q: f64| {
            stats::tail(xs, q).unwrap_or_else(|| {
                enough = false;
                xs.iter().copied().fold(0.0, f64::max)
            })
        };
        let m = vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("task_ms_p50", median(&self.task_ms), "ms"),
            ("task_ms_p90", tail(&self.task_ms, 0.90), "ms"),
            ("req_us_p50", median(&self.req_us), "us"),
            ("req_us_p99", tail(&self.req_us, 0.99), "us"),
            ("session_open_us_p50", median(&self.open_us), "us"),
            ("session_open_us_p90", tail(&self.open_us, 0.90), "us"),
            ("req_per_s", self.req_per_s, "1/s"),
            ("failed_ratio", self.tally.failed_ratio(), "ratio"),
            (
                "peak_rss_mb",
                self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
                "MB",
            ),
        ];
        (m, enough)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, 120),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["find-fine", "package-pipeline", "tenant-rpc"].contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (find-fine, package-pipeline, tenant-rpc)",
            a.workload
        ));
    }
    Ok(a)
}

/// Pin the process to the CPU it is running on; threads started later
/// inherit the mask. With the client and the server's threads free to sit
/// on different CPUs, `tenant-rpc` latency doubles whenever the other CPU
/// happens to be idle (a cross-CPU wake-up), so the result would measure
/// the neighbours' load rather than the program. Returns the CPU.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only reports the
    // calling thread's CPU.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, laid out
    // as glibc's cpu_set_t, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where no git metadata exists.
fn source_fnv() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("src".as_ref(), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The checkout's commit; "none" outside a git work tree (a plain
/// checkout must not report the commit of some enclosing repository).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn json_metrics(ms: &[(&str, f64, &str)]) -> String {
    ms.iter()
        .map(|(n, v, u)| {
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Counted before pinning, which narrows the affinity mask to one CPU.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_to_current_cpu();
    let deadline = Deadline {
        seconds: Duration::from_secs(args.seconds),
        cap: HARD_CAP.max(Duration::from_secs(args.seconds)),
    };
    let (metrics, tally, correct) = if args.trace {
        let (ledger, tally, accounted) = match args.workload.as_str() {
            "find-fine" => script::trace(&script::FindFine::new(args.seed), &deadline),
            "package-pipeline" => {
                script::trace(&script::PackagePipeline::new(args.seed), &deadline)
            }
            _ => tenant::trace(args.seed, &deadline),
        };
        if !accounted {
            eprintln!("perfbench: the traced run's layer accounting did not add up");
        }
        (ledger.finish(), tally, accounted && tally.failed() == 0)
    } else {
        let e = match args.workload.as_str() {
            "find-fine" => script::measure(&script::FindFine::new(args.seed), &deadline),
            "package-pipeline" => {
                script::measure(&script::PackagePipeline::new(args.seed), &deadline)
            }
            _ => tenant::measure(args.seed, &deadline),
        };
        let (m, enough) = e.metrics();
        if !enough {
            eprintln!("perfbench: too few samples for the reported tail percentiles");
        }
        (m, e.tally, enough && e.tally.failed() == 0)
    };
    if tally.failed() > 0 {
        eprintln!(
            "perfbench: {} of {} checked operations failed ({} refused, {} wrong)",
            tally.failed(),
            tally.attempted,
            tally.refused,
            tally.wrong
        );
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"holdout_seed\": {HOLDOUT_SEED}, \"trace\": {}, \"cores\": {cores}, \"pinned_cpu\": {}, \"profile\": \"{profile}\", \"commit\": \"{}\", \"source_fnv\": \"{}\", \"refused\": {}, \"wrong\": {}}}}}",
        args.workload,
        args.seed,
        args.trace as u8,
        cpu.map_or("null".to_string(), |c| c.to_string()),
        commit(),
        source_fnv(),
        tally.refused,
        tally.wrong
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        json_metrics(&metrics)
    );
}
