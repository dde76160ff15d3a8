//! The `tenant-rpc` workload: one closed-loop client connection drives an
//! in-process server (default 2 shards, 2 pool workers) over its Unix
//! socket. Each session is a seeded think time, then connect + `auth`, a
//! seeded mix of frames inside `/srv/<tenant>`, then `bye`; sessions
//! rotate tenants.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shill::kernel::TraceSite;
use shill::server::{Client, Server, ServerConfig, ServerCore, StaticTokens, TenantSpec};

use crate::gen::{self, TENANTS};
use crate::ledger::{span_ns, stats_delta, Ledger};
use crate::stats::{median, ratio, samples_needed, tail, Tally, Verdict};
use crate::{covers, us, Deadline, E2e, TRACE_SPEC, WARM_UP_TASKS};

/// A server socket path, relative to the working directory (the
/// checkout) so the path stays short and inside it.
fn socket_path(role: &str) -> PathBuf {
    PathBuf::from(format!(".perfbench-{}-{role}.sock", std::process::id()))
}

/// One set-up round: build and start a server. Only this is timed; the
/// warm-up sessions that follow are not.
fn start_server(seed: u64, traced: bool, sock: &Path, e: &mut E2e) -> Server {
    let t = Instant::now();
    let cfg = ServerConfig {
        tenants: (0..TENANTS)
            .map(|t| TenantSpec::new(gen::tenant_name(t)))
            .collect(),
        trace_spec: traced.then(|| TRACE_SPEC.to_string()),
        ..Default::default()
    };
    let tokens =
        StaticTokens::new((0..TENANTS).map(|t| (gen::tenant_name(t), gen::tenant_secret(seed, t))));
    let server = Server::start_with_unix(ServerCore::new(cfg, Box::new(tokens)), sock)
        .expect("bind the benchmark socket");
    e.setup_s.push(t.elapsed().as_secs_f64());
    server
}

/// One timed session.
struct SessionRun {
    tally: Tally,
    connect: Duration,
    /// Connect plus `auth` until its reply.
    open: Duration,
    /// The data frames between `auth` and `bye`.
    frames: Vec<Duration>,
    bye: Duration,
    /// Connect until the `bye` reply.
    total: Duration,
}

fn verdict(
    reply: &Result<String, shill::server::FrameError>,
    expect: impl FnOnce(&str) -> bool,
) -> Verdict {
    match reply {
        Ok(r) if expect(r) => Verdict::Ok,
        Ok(r) if r.starts_with("ok") => Verdict::Wrong,
        _ => Verdict::Refused,
    }
}

fn session(sock: &Path, seed: u64, i: u64) -> SessionRun {
    let s = gen::session(seed, i);
    let mut run = SessionRun {
        tally: Tally::default(),
        connect: Duration::ZERO,
        open: Duration::ZERO,
        frames: Vec::with_capacity(s.frames.len()),
        bye: Duration::ZERO,
        total: Duration::ZERO,
    };
    let (tenant, secret) = (
        gen::tenant_name(s.tenant),
        gen::tenant_secret(seed, s.tenant),
    );
    std::thread::sleep(s.think);
    let t0 = Instant::now();
    let Ok(mut c) = Client::connect_unix(sock) else {
        // Nothing was answered: auth, every frame and bye are refused.
        for _ in 0..s.frames.len() + 2 {
            run.tally.record(Verdict::Refused);
        }
        return run;
    };
    run.connect = t0.elapsed();
    let auth = c.auth(&tenant, &secret);
    run.open = t0.elapsed();
    let authed = verdict(&auth, |r| r.starts_with("ok "));
    run.tally.record(authed);
    for f in &s.frames {
        if authed != Verdict::Ok {
            run.tally.record(Verdict::Refused);
            continue;
        }
        let t = Instant::now();
        let reply = c.req(&f.line);
        run.frames.push(t.elapsed());
        run.tally.record(verdict(&reply, |r| r == f.expect));
    }
    let t = Instant::now();
    let bye = c.req("bye");
    run.bye = t.elapsed();
    run.total = t0.elapsed();
    run.tally.record(verdict(&bye, |r| r == "ok bye"));
    run
}

/// The measured server, started and warmed up.
fn serve(seed: u64, traced: bool, e: &mut E2e) -> Server {
    let sock = socket_path("main");
    let server = start_server(seed, traced, &sock, e);
    for i in 0..WARM_UP_TASKS {
        e.tally.add(session(&sock, seed, u64::MAX - i as u64).tally);
    }
    server
}

/// Sessions run until the deadline; returns the next session index. Once
/// a second a spare server is started and stopped beside the measured
/// one, so `setup_s` is a median over the whole run.
fn drive(
    seed: u64,
    traced: bool,
    first: u64,
    deadline: &Deadline,
    e: &mut E2e,
    mut each: impl FnMut(&SessionRun),
) -> u64 {
    let sock = socket_path("main");
    let start = Instant::now();
    let mut next_setup = Duration::ZERO;
    let mut busy = Duration::ZERO;
    let mut frames = 0usize;
    let mut i = first;
    while deadline.more(
        start,
        e.task_ms.len() >= samples_needed(0.90) && e.req_us.len() >= samples_needed(0.99),
    ) {
        if start.elapsed() >= next_setup {
            next_setup += Duration::from_secs(1);
            start_server(seed, traced, &socket_path("spare"), e).shutdown();
        }
        let run = session(&sock, seed, i);
        i += 1;
        e.tally.add(run.tally);
        each(&run);
        if run.tally.failed() > 0 {
            continue;
        }
        busy += run.total;
        frames += run.frames.len() + 2;
        e.task_ms.push(run.total.as_secs_f64() * 1e3);
        e.open_us.push(us(run.open));
        e.req_us.extend(run.frames.iter().map(|d| us(*d)));
        e.note_rss(RSS_AFTER_SESSIONS);
    }
    e.req_per_s = ratio(frames as f64, busy.as_secs_f64());
    i
}

/// Sessions after which `peak_rss_mb` is read: memory is compared at
/// equal work, not equal time (finished connection handlers are kept
/// until shutdown today, so the reading would otherwise follow
/// throughput).
const RSS_AFTER_SESSIONS: usize = 1000;

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, deadline: &Deadline) -> E2e {
    let mut e = E2e::default();
    let server = serve(seed, false, &mut e);
    drive(seed, false, 0, deadline, &mut e, |_| {});
    server.shutdown();
    e
}

/// The traced run: half the time on an untraced server, half on a server
/// with every trace site armed, then the per-layer ledger.
pub fn trace(seed: u64, deadline: &Deadline) -> (Ledger, Tally, bool) {
    let half = deadline.halved();
    let mut plain = E2e::default();
    let server = serve(seed, false, &mut plain);
    let next = drive(seed, false, 0, &half, &mut plain, |_| {});
    server.shutdown();

    let mut traced = E2e::default();
    let server = serve(seed, true, &mut traced);
    let core = server.core();
    let tenants = || -> [u64; 3] {
        (0..TENANTS)
            .filter_map(|t| core.tenant_counters(&gen::tenant_name(t)))
            .fold([0; 3], |a, c| {
                [
                    a[0] + c.frames_err,
                    a[1] + c.backpressure,
                    a[2] + c.quota_trips,
                ]
            })
    };
    let t0 = core.shards().telemetry();
    let (policy0, tenants0) = (core.policy().stats(), tenants());
    let mut ledger = Ledger::default();
    let mut accounted = true;
    let (mut auth_us, mut dispatch_ns, mut stripe_ns) = (Vec::new(), Vec::new(), 0.0);
    let mut accept_wait_us = Vec::new();
    let mut frames = 0u64;
    // Connect + auth + frames + bye, and the session time they must cover.
    let (mut parts, mut totals) = (Duration::ZERO, Duration::ZERO);
    drive(seed, true, next, &half, &mut traced, |run| {
        // The session's spans: drained after `bye`, so they are this
        // session's alone (the client is the only one).
        let t = core.shards().telemetry();
        let auth = span_ns(&t.events, TraceSite::Auth);
        let dispatch = span_ns(&t.events, TraceSite::Dispatch);
        stripe_ns += span_ns(&t.events, TraceSite::Stripe).iter().sum::<f64>();
        frames += run.tally.attempted;
        if run.tally.failed() > 0 {
            return;
        }
        // One auth span and one dispatch span per data frame, or the
        // spans are not this session's.
        accounted &= auth.len() == 1 && dispatch.len() == run.frames.len();
        if let [a] = auth[..] {
            auth_us.push(a / 1e3);
            accept_wait_us.push(us(run.open) - us(run.connect) - a / 1e3);
        }
        dispatch_ns.extend(dispatch);
        parts += run.open + run.frames.iter().sum::<Duration>() + run.bye;
        totals += run.total;
    });
    let t1 = core.shards().telemetry();
    let d = stats_delta(&t0.stats, &t1.stats);
    accounted &= d["trace_dropped"] == 0 && d["faults_injected"] == 0 && covers(parts, totals);
    let per = frames as f64;
    ledger.kernel(&d, &t0.hists, &t1.hists, stripe_ns, per);
    let policy1 = core.policy().stats();
    ledger.push(
        "sandbox.count",
        ratio(
            (policy1.sessions_created - policy0.sessions_created) as f64,
            per,
        ),
    );
    ledger.push(
        "sandbox.epoch_bumps",
        ratio((policy1.epoch_bumps - policy0.epoch_bumps) as f64, per),
    );
    let tenants1 = tenants();
    for (k, name) in [
        "server.frames_err",
        "server.backpressure",
        "server.quota_trips",
    ]
    .into_iter()
    .enumerate()
    {
        ledger.push(name, ratio((tenants1[k] - tenants0[k]) as f64, per));
    }
    let dispatch_us: Vec<f64> = dispatch_ns.iter().map(|n| n / 1e3).collect();
    let dispatch_p50 = median(&dispatch_us);
    ledger.push("server.auth_us_p50", median(&auth_us));
    ledger.push("server.accept_wait_us_p50", median(&accept_wait_us));
    ledger.push("server.dispatch_us_p50", dispatch_p50);
    ledger.push(
        "server.dispatch_us_p99",
        tail(&dispatch_us, 0.99).unwrap_or(0.0),
    );
    ledger.push("server.wire_us_p50", median(&traced.req_us) - dispatch_p50);
    ledger.push(
        "trace_overhead_x",
        ratio(median(&traced.req_us), median(&plain.req_us)),
    );
    server.shutdown();
    let mut tally = plain.tally;
    tally.add(traced.tally);
    (ledger, tally, accounted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill::server::FrameError;

    #[test]
    fn refusals_and_wrong_answers_are_told_apart() {
        let expect = |r: &str| r == "ok 5";
        assert_eq!(verdict(&Ok("ok 5".into()), expect), Verdict::Ok);
        assert_eq!(verdict(&Ok("ok 6".into()), expect), Verdict::Wrong);
        assert_eq!(
            verdict(&Ok("err EAGAIN quota".into()), expect),
            Verdict::Refused
        );
        assert_eq!(verdict(&Err(FrameError::Closed), expect), Verdict::Refused);
        let mut t = Tally::default();
        for r in [
            Ok("ok 5".into()),
            Ok("ok 6".into()),
            Ok("err EACCES x".into()),
        ] {
            t.record(verdict(&r, expect));
        }
        assert_eq!((t.attempted, t.refused, t.wrong, t.failed()), (3, 1, 1, 2));
    }
}
