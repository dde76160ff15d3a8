//! The per-layer ledger of the traced run: every per-layer metric by name,
//! filled from the counters and histograms the program already exposes
//! (`StatsSnapshot`, `Telemetry`, `Profile`, `PolicyStats`,
//! `TenantCountersSnapshot`) and from spans the benchmark times around its
//! own calls into each layer.

use std::collections::BTreeMap;

use shill::kernel::{
    HistSnapshot, SiteHistsSnapshot, StatsSnapshot, TraceEvent, TraceKind, TraceSite,
};

use crate::stats::{median, ratio};

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer a workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.startup_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("contracts.applications", "count"),
    ("contracts.guard_checks", "count"),
    ("sandbox.count", "count"),
    ("sandbox.setup_us_per", "us"),
    ("sandbox.exec_ms", "ms"),
    ("sandbox.epoch_bumps", "count"),
    ("kernel.avc_hit_ratio", "ratio"),
    ("kernel.avc_flushes", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.mac_vnode_checks", "count"),
    ("kernel.charge_calls", "count"),
    ("kernel.mac_ctx_setups", "count"),
    ("kernel.forks", "count"),
    ("kernel.execs", "count"),
    ("kernel.syscall_ns_sum", "ns"),
    ("kernel.mac_ns_sum", "ns"),
    ("kernel.batch_ns_sum", "ns"),
    ("kernel.wave_ns_sum", "ns"),
    ("vfs.lookups", "count"),
    ("vfs.dcache_hit_ratio", "ratio"),
    ("vfs.dir_scans", "count"),
    ("vfs.dcache_neg_hits", "count"),
    ("executor.pool_steals", "count"),
    ("executor.sched_waves", "count"),
    ("executor.stripe_contention", "count"),
    ("executor.stripe_ns_sum", "ns"),
    ("server.auth_us_p50", "us"),
    ("server.accept_wait_us_p50", "us"),
    ("server.dispatch_us_p50", "us"),
    ("server.dispatch_us_p99", "us"),
    ("server.wire_us_p50", "us"),
    ("server.frames_err", "count"),
    ("server.backpressure", "count"),
    ("server.quota_trips", "count"),
    ("paper.overhead_x", "x"),
    ("trace_overhead_x", "x"),
];

/// Per-layer samples; each metric reports the median of its samples.
#[derive(Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Counter deltas between two kernel snapshots, by counter name.
pub fn stats_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> BTreeMap<&'static str, u64> {
    before
        .fields()
        .into_iter()
        .zip(after.fields())
        .map(|((name, b), (_, a))| (name, a.saturating_sub(b)))
        .collect()
}

/// Summed durations of the `End` events of one trace site, in ns.
pub fn span_ns(events: &[TraceEvent], site: TraceSite) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.site == site && e.kind == TraceKind::End)
        .map(|e| e.dur_ns as f64)
        .collect()
}

impl Ledger {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// Book the kernel, vfs and executor layers from one traced interval:
    /// counter deltas `d`, the site histograms at its start and end, and
    /// the summed stripe-lock wait spans, normalised per `per` units of
    /// work (tasks or frames).
    pub fn kernel(
        &mut self,
        d: &BTreeMap<&'static str, u64>,
        h0: &SiteHistsSnapshot,
        h1: &SiteHistsSnapshot,
        stripe_ns: f64,
        per: f64,
    ) {
        let c = |n: &str| d.get(n).copied().unwrap_or(0) as f64;
        let n = |v: f64| ratio(v, per);
        self.push(
            "kernel.avc_hit_ratio",
            ratio(c("avc_hits"), c("avc_hits") + c("avc_misses")),
        );
        self.push(
            "vfs.dcache_hit_ratio",
            ratio(c("dcache_hits"), c("dcache_hits") + c("dcache_misses")),
        );
        for (metric, counter) in [
            ("kernel.avc_flushes", "avc_flushes"),
            ("kernel.syscalls", "syscalls"),
            ("kernel.mac_vnode_checks", "mac_vnode_checks"),
            ("kernel.charge_calls", "charge_calls"),
            ("kernel.mac_ctx_setups", "mac_ctx_setups"),
            ("kernel.forks", "forks"),
            ("kernel.execs", "execs"),
            ("vfs.lookups", "lookups"),
            ("vfs.dir_scans", "dir_scans"),
            ("vfs.dcache_neg_hits", "dcache_neg_hits"),
            ("executor.pool_steals", "pool_steals"),
            ("executor.sched_waves", "sched_waves"),
            ("executor.stripe_contention", "policy_stripe_contention"),
        ] {
            self.push(metric, n(c(counter)));
        }
        let sum = |a: &HistSnapshot, b: &HistSnapshot| n(b.sum_ns.saturating_sub(a.sum_ns) as f64);
        self.push("kernel.syscall_ns_sum", sum(&h0.syscall, &h1.syscall));
        self.push("kernel.mac_ns_sum", sum(&h0.mac, &h1.mac));
        self.push("kernel.batch_ns_sum", sum(&h0.batch, &h1.batch));
        self.push("kernel.wave_ns_sum", sum(&h0.wave, &h1.wave));
        self.push("executor.stripe_ns_sum", n(stripe_ns));
    }

    /// Every per-layer metric: the median of its samples, 0 if the
    /// workload never exercised it.
    pub fn finish(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self.samples.get(name).map(|s| median(s)).unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }
}
