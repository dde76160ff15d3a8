//! Protocol-level tests of the multi-tenant server front-end (ISSUE 10).
//!
//! Everything here speaks the real wire protocol over loopback TCP (or a
//! Unix socket): malformed, truncated and oversized frames get typed
//! errors and never wedge the server; the auth gate refuses and then
//! admits; the charge-meter quota surfaces as a catchable `EAGAIN`-class
//! error rather than a kill; graceful drain answers every in-flight
//! frame and refuses the rest with `ECANCELED`; and tenant isolation is
//! enforced by the MAC policy (`EACCES`), not by string comparison in
//! the front-end. The socket edge shuts down promptly with no client
//! ever connected and reuses its handler threads across sessions.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use shill::kernel::Ulimits;
use shill::server::{
    read_frame, write_frame, Client, Server, ServerConfig, ServerCore, StaticTokens, TenantQuota,
    TenantSpec,
};

fn config(tenants: Vec<TenantSpec>) -> ServerConfig {
    ServerConfig {
        tenants,
        ..Default::default()
    }
}

fn two_tenant_server() -> Server {
    let core = ServerCore::new(
        config(vec![TenantSpec::new("alice"), TenantSpec::new("bob")]),
        Box::new(StaticTokens::new([("alice", "sesame"), ("bob", "hunter2")])),
    );
    Server::start(core).unwrap()
}

/// Wait (bounded) for a gauge read to settle — handler teardown runs on
/// its own thread after the client side observes the close.
fn eventually(mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Run `f` on its own thread and fail (rather than hang) if it has not
/// finished within `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|e| panic!("not finished within {limit:?}: {e}"))
}

#[test]
fn shutdown_is_prompt_when_no_client_ever_connected() {
    let server = two_tenant_server();
    within(Duration::from_secs(1), move || server.shutdown());

    let path = std::env::temp_dir().join(format!(
        "shill-server-idle-shutdown-{}.sock",
        std::process::id()
    ));
    let core = ServerCore::new(
        config(vec![TenantSpec::new("alice")]),
        Box::new(StaticTokens::new([("alice", "sesame")])),
    );
    let server = Server::start_with_unix(core, &path).unwrap();
    within(Duration::from_secs(1), move || server.shutdown());
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn sequential_sessions_reuse_handler_threads() {
    let server = two_tenant_server();
    let core = server.core();
    let addr = server.tcp_addr();
    let server = within(Duration::from_secs(60), move || {
        for i in 0..200 {
            let mut s = TcpStream::connect(addr).unwrap();
            // A frame is two writes: without NODELAY each request waits
            // out the peer's delayed ACK.
            s.set_nodelay(true).unwrap();
            let mut req = |line: &str| {
                write_frame(&mut s, line.as_bytes()).unwrap();
                String::from_utf8(read_frame(&mut s, 64 * 1024).unwrap()).unwrap()
            };
            assert!(req("auth alice sesame").starts_with("ok "));
            assert_eq!(req(&format!("write /srv/alice/s{i}.txt hi")), "ok 2");
            assert_eq!(req("bye"), "ok bye");
            // The server hangs up once the handler is free again, so the
            // next session finds it idle whatever the scheduling.
            assert!(read_frame(&mut s, 64 * 1024).is_err());
        }
        server
    });
    assert_eq!(
        server.handler_threads(),
        1,
        "200 sequential sessions must share one handler thread"
    );
    server.shutdown();
    let counters = core.tenant_counters("alice").unwrap();
    assert_eq!((counters.sessions_opened, counters.open_sessions), (200, 0));
}

#[test]
fn concurrent_clients_are_all_served_and_leak_nothing() {
    const CLIENTS: usize = 32;
    let server = two_tenant_server();
    let core = server.core();
    let addr = server.tcp_addr();
    // Every client holds its session open until all have authenticated,
    // so the server really has 32 live connections at once.
    let all_in = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let all_in = Arc::clone(&all_in);
            std::thread::spawn(move || {
                let (tenant, secret) = if i % 2 == 0 {
                    ("alice", "sesame")
                } else {
                    ("bob", "hunter2")
                };
                let mut c = Client::connect_tcp(addr).unwrap();
                assert!(c.auth(tenant, secret).unwrap().starts_with("ok "));
                all_in.wait();
                let path = format!("/srv/{tenant}/c{i}.txt");
                assert_eq!(c.req(&format!("write {path} hello")).unwrap(), "ok 5");
                assert_eq!(c.req(&format!("read {path}")).unwrap(), "ok hello");
                assert_eq!(c.req("bye").unwrap(), "ok bye");
            })
        })
        .collect();
    within(Duration::from_secs(60), move || {
        for c in clients {
            c.join().unwrap();
        }
    });
    // One handler per live connection: never fewer (a queued connection
    // would stall the barrier), never more.
    assert_eq!(server.handler_threads(), CLIENTS);
    server.shutdown();
    for tenant in ["alice", "bob"] {
        let counters = core.tenant_counters(tenant).unwrap();
        assert_eq!(counters.sessions_opened, CLIENTS as u64 / 2, "{tenant}");
        assert_eq!(counters.open_sessions, 0, "{tenant}");
    }
    assert_eq!(core.policy().label_entries(), 0, "no label residue");
}

#[test]
fn malformed_frames_get_einval_and_do_not_wedge_the_connection() {
    let server = two_tenant_server();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    for bad in ["warp 9", "read", "auth alice", "ping extra", ""] {
        assert_eq!(
            c.req(bad).unwrap(),
            "err EINVAL malformed request",
            "{bad:?}"
        );
    }
    // Non-UTF-8 payloads are malformed too.
    assert_eq!(
        c.req_bytes(&[0xFF, 0xFE, 0xFD]).unwrap(),
        "err EINVAL malformed request"
    );
    // The connection still works afterwards.
    assert_eq!(c.req("ping").unwrap(), "ok pong");
    server.shutdown();
}

#[test]
fn oversized_frames_are_refused_with_efbig_and_the_connection_closes() {
    let core = ServerCore::new(
        ServerConfig {
            max_frame: 256,
            ..config(vec![TenantSpec::new("alice")])
        },
        Box::new(StaticTokens::new([("alice", "sesame")])),
    );
    let server = Server::start(core).unwrap();
    let mut s = TcpStream::connect(server.tcp_addr()).unwrap();
    let huge = vec![b'x'; 4096];
    write_frame(&mut s, &huge).unwrap();
    let reply = read_frame(&mut s, 64 * 1024).unwrap();
    let text = String::from_utf8(reply).unwrap();
    assert!(
        text.starts_with("err EFBIG "),
        "oversized must be typed: {text}"
    );
    // Past the prefix the stream is out of sync, so the server hangs up:
    // the next read sees EOF.
    assert!(read_frame(&mut s, 64 * 1024).is_err());
    server.shutdown();
}

#[test]
fn truncated_frames_drop_the_connection_without_leaking_the_session() {
    let server = two_tenant_server();
    let core = server.core();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
    // Claim an 8-byte payload, deliver 3, hang up mid-frame.
    let mut s = TcpStream::connect(server.tcp_addr()).unwrap();
    s.write_all(&8u32.to_be_bytes()).unwrap();
    s.write_all(b"pin").unwrap();
    drop(s);
    // The authenticated connection also vanishes without `bye`.
    drop(c);
    assert!(
        eventually(|| core.tenant_counters("alice").unwrap().open_sessions == 0),
        "session must be reclaimed after the client vanishes"
    );
    assert_eq!(core.policy().label_entries(), 0, "no label residue");
    server.shutdown();
}

#[test]
fn auth_failure_then_success_on_the_same_connection() {
    let server = two_tenant_server();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    // Unauthenticated I/O is refused.
    assert!(c
        .req("read /srv/alice/seed.txt")
        .unwrap()
        .starts_with("err EACCES"));
    // Wrong secret, unknown tenant: EACCES, connection stays up.
    assert!(c.auth("alice", "wrong").unwrap().starts_with("err EACCES "));
    assert!(c.auth("eve", "x").unwrap().starts_with("err EACCES "));
    // Then the right secret works and confers authority.
    assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
    assert_eq!(c.req("read /srv/alice/seed.txt").unwrap(), "ok seed\n");
    // Re-auth on an authenticated connection is malformed.
    assert!(c.auth("alice", "sesame").unwrap().starts_with("err EINVAL"));
    let counters = server.core().tenant_counters("alice").unwrap();
    assert_eq!(counters.sessions_opened, 1);
    assert_eq!(counters.sessions_refused, 1);
    server.shutdown();
}

#[test]
fn quota_exhaustion_is_a_catchable_eagain_not_a_kill() {
    // A tick budget big enough for the sandbox choreography plus a few
    // frames, small enough to exhaust quickly.
    let core = ServerCore::new(
        config(vec![TenantSpec::new("alice").with_quota(TenantQuota {
            ulimits: Ulimits {
                max_cpu_ticks: 40,
                ..Default::default()
            },
            ..Default::default()
        })]),
        Box::new(StaticTokens::new([("alice", "sesame")])),
    );
    let server = Server::start(core).unwrap();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
    let mut tripped = false;
    for _ in 0..100 {
        let r = c.req("read /srv/alice/seed.txt").unwrap();
        if r.starts_with("err EAGAIN ") {
            tripped = true;
            break;
        }
        assert_eq!(r, "ok seed\n");
    }
    assert!(tripped, "the charge meter must eventually answer EAGAIN");
    // Catchable, not fatal: the session is alive, further kernel work
    // keeps answering EAGAIN, and kernel-free frames still succeed.
    assert!(c
        .req("read /srv/alice/seed.txt")
        .unwrap()
        .starts_with("err EAGAIN "));
    assert_eq!(c.req("ping").unwrap(), "ok pong");
    assert!(
        server.core().tenant_counters("alice").unwrap().quota_trips >= 2,
        "quota trips must be counted"
    );
    server.shutdown();
}

#[test]
fn graceful_drain_answers_every_pipelined_frame_and_refuses_later_ones() {
    let server = two_tenant_server();
    let core = server.core();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));

    // Pipeline a burst of frames without reading any reply, so a batch is
    // genuinely in flight when the drain begins.
    let mut s = TcpStream::connect(server.tcp_addr()).unwrap();
    write_frame(&mut s, b"auth bob hunter2").unwrap();
    const BURST: usize = 32;
    for i in 0..BURST {
        write_frame(
            &mut s,
            format!("write /srv/bob/f{i}.txt payload-{i}").as_bytes(),
        )
        .unwrap();
    }

    let drainer = {
        let core = core.clone();
        std::thread::spawn(move || core.drain())
    };

    // Zero lost completions: the auth reply plus one reply per pipelined
    // frame, each either served (`ok`) or refused by the drain gate
    // (`err ECANCELED`) — nothing dropped, nothing else.
    let auth_reply = read_frame(&mut s, 64 * 1024).unwrap();
    assert!(auth_reply.starts_with(b"ok ") || auth_reply.starts_with(b"err ECANCELED"));
    let mut served = 0;
    let mut refused = 0;
    for i in 0..BURST {
        let reply = String::from_utf8(read_frame(&mut s, 64 * 1024).unwrap()).unwrap();
        if reply == format!("ok {}", format!("payload-{i}").len()) {
            served += 1;
        } else if reply.starts_with("err ECANCELED ") {
            refused += 1;
        } else if auth_reply.starts_with(b"err") && reply.starts_with("err EACCES ") {
            // The whole burst raced behind a refused auth.
            refused += 1;
        } else {
            panic!("frame {i}: unexpected reply {reply:?}");
        }
    }
    assert_eq!(served + refused, BURST, "every frame must be answered");

    drainer.join().unwrap();
    // After drain() returns, new frames are refused with ECANCELED...
    assert!(c.req("ping").unwrap().starts_with("err ECANCELED "));
    // ...and new sessions too.
    let mut c2 = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(c2
        .auth("alice", "sesame")
        .unwrap()
        .starts_with("err ECANCELED "));
    server.shutdown();
}

#[test]
fn tenants_cannot_reach_each_other_over_the_wire() {
    let server = two_tenant_server();
    let mut alice = Client::connect_tcp(server.tcp_addr()).unwrap();
    let mut bob = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(alice.auth("alice", "sesame").unwrap().starts_with("ok "));
    assert!(bob.auth("bob", "hunter2").unwrap().starts_with("ok "));
    assert_eq!(
        alice.req("write /srv/alice/secret.txt ssh").unwrap(),
        "ok 3"
    );
    // Bob's session holds no capability on Alice's subtree: the MAC
    // policy answers EACCES for reads, writes, and copies out. (The
    // probes target the seed file, which exists on every shard — the MAC
    // check is post-lookup, so a path that resolves to nothing on bob's
    // shard would answer ENOENT before any privilege is consulted.)
    for probe in [
        "read /srv/alice/seed.txt",
        "stat /srv/alice/seed.txt",
        "write /srv/alice/seed.txt gotcha",
        "copy /srv/alice/seed.txt /srv/bob/stolen.txt",
    ] {
        let reply = bob.req(probe).unwrap();
        assert!(
            reply.starts_with("err EACCES "),
            "{probe} must be denied, got {reply:?}"
        );
    }
    // And the denial is capability-shaped, not path-string-shaped: Bob's
    // own subtree works fine.
    assert_eq!(
        bob.req("copy /srv/bob/seed.txt /srv/bob/c.txt").unwrap(),
        "ok 5"
    );
    server.shutdown();
}

#[test]
fn copy_and_sync_round_trip_with_telemetry() {
    let server = two_tenant_server();
    let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
    assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
    assert_eq!(
        c.req("copy /srv/alice/seed.txt /srv/alice/copy.txt")
            .unwrap(),
        "ok 5"
    );
    assert_eq!(c.req("read /srv/alice/copy.txt").unwrap(), "ok seed\n");
    assert_eq!(c.req("sync").unwrap(), "ok synced");
    let telemetry = c.req("telemetry").unwrap();
    assert!(telemetry.starts_with("ok "));
    assert!(telemetry.contains("shill_tenant_frames_ok{tenant=\"alice\"}"));
    server.shutdown();
}
