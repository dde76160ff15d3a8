//! Socket front-end: accept loops, reused handler threads, and a small
//! blocking [`Client`].
//!
//! [`Server::start`] binds a loopback TCP listener (and optionally a Unix
//! socket) and serves frames until [`Server::shutdown`]. Each listener has
//! an accepter thread blocked in `accept`, so a connection is picked up
//! the moment it arrives. Each accepted connection is an `accept` trace
//! instant and goes to a handler thread: an idle one if any is waiting,
//! otherwise a new one. A handler speaks the [`crate::proto`] grammar,
//! owns at most one session per connection, and always closes that
//! session before it takes the next connection — a client that vanishes
//! mid-stream leaks nothing. Handlers are kept for reuse, so their number
//! follows the peak count of concurrent connections, not the total.
//!
//! Handlers read with a short timeout so an idle connection never wedges
//! shutdown: a timeout at a frame boundary just polls the stop flag,
//! while a timeout *mid-frame* keeps waiting for the rest of the frame
//! (slow writers are fine; only a stopped server gives up on them).
//! Shutdown wakes each blocked accepter by connecting to its listener
//! once.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use shill_kernel::TraceSite;

use crate::core::{ServerCore, SessionHandle};
use crate::proto::{err_payload, ok_payload, read_frame, write_frame, FrameError, Request};

const READ_TICK: Duration = Duration::from_millis(25);
/// Pause after an `accept` error other than an interrupt or an aborted
/// connection (see [`spawn_accepter`]).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// A running server: one accepter thread per listener plus a set of
/// handler threads, each serving one connection at a time and reused
/// across connections.
pub struct Server {
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accepters: Vec<JoinHandle<()>>,
    handoff: Arc<Handoff>,
    tcp_addr: SocketAddr,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Serve on an ephemeral loopback TCP port.
    pub fn start(core: ServerCore) -> std::io::Result<Server> {
        Server::start_inner(core, None)
    }

    /// Serve on loopback TCP *and* a Unix socket at `path`.
    pub fn start_with_unix(core: ServerCore, path: &Path) -> std::io::Result<Server> {
        Server::start_inner(core, Some(path.to_path_buf()))
    }

    fn start_inner(core: ServerCore, unix_path: Option<PathBuf>) -> std::io::Result<Server> {
        let core = Arc::new(core);
        let stop = Arc::new(AtomicBool::new(false));
        let handoff = Arc::new(Handoff::default());
        let mut accepters = Vec::new();

        let tcp = TcpListener::bind("127.0.0.1:0")?;
        let tcp_addr = tcp.local_addr()?;
        accepters.push(spawn_accepter(
            Arc::clone(&core),
            Arc::clone(&stop),
            Arc::clone(&handoff),
            move || {
                let (s, _) = tcp.accept()?;
                let _ = s.set_read_timeout(Some(READ_TICK));
                // A frame is two small writes (prefix, payload): without
                // NODELAY, Nagle holds the second until the peer's
                // delayed ACK — tens of ms per request.
                let _ = s.set_nodelay(true);
                Ok((Box::new(s) as Box<dyn Stream>, "tcp"))
            },
        ));

        if let Some(path) = &unix_path {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let unix = UnixListener::bind(path)?;
            accepters.push(spawn_accepter(
                Arc::clone(&core),
                Arc::clone(&stop),
                Arc::clone(&handoff),
                move || {
                    let (s, _) = unix.accept()?;
                    let _ = s.set_read_timeout(Some(READ_TICK));
                    Ok((Box::new(s) as Box<dyn Stream>, "unix"))
                },
            ));
        }

        Ok(Server {
            core,
            stop,
            accepters,
            handoff,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (ephemeral port).
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The engine (stats, telemetry, drain state).
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// How many handler threads this server has started so far. Handlers
    /// are reused, so this is bounded by the peak number of concurrent
    /// connections, not by the total.
    pub fn handler_threads(&self) -> usize {
        self.handoff.lock().handlers.len()
    }

    /// Graceful drain: refuse new frames and sessions, wait for every
    /// in-flight frame to complete and be delivered. Connections stay up
    /// (their next frame gets `err ECANCELED`).
    pub fn drain(&self) {
        self.core.drain();
    }

    /// Stop accepting, wake every accepter and handler, and join all
    /// threads. Open sessions are closed by their handlers on the way out.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each accepter is blocked in `accept`: one connection to its own
        // listener wakes it, and it sees `stop`. The waking connections
        // stay open until the accepters are joined.
        let _tcp_wake = TcpStream::connect(self.tcp_addr);
        let _unix_wake = self.unix_path.as_deref().map(UnixStream::connect);
        for h in self.accepters {
            let _ = h.join();
        }
        let handlers = {
            let mut state = self.handoff.lock();
            self.handoff.ready.notify_all();
            std::mem::take(&mut state.handlers)
        };
        for h in handlers {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Hands accepted streams from the accepters to handler threads.
#[derive(Default)]
struct Handoff {
    state: Mutex<HandoffState>,
    /// Signalled when a stream is queued for an idle handler, and on
    /// shutdown.
    ready: Condvar,
}

#[derive(Default)]
struct HandoffState {
    /// Accepted streams, each promised to an idle handler.
    queue: VecDeque<Box<dyn Stream>>,
    /// Handlers between connections, waiting on `ready`.
    idle: usize,
    /// Every handler started; joined at shutdown.
    handlers: Vec<JoinHandle<()>>,
}

const POISONED: &str = "no code panics while holding the hand-off lock";

impl Handoff {
    fn lock(&self) -> std::sync::MutexGuard<'_, HandoffState> {
        self.state.lock().expect(POISONED)
    }

    /// Give `stream` to an idle handler not yet promised a stream, or
    /// start a new handler with it.
    fn give(
        self: &Arc<Self>,
        stream: Box<dyn Stream>,
        core: &Arc<ServerCore>,
        stop: &Arc<AtomicBool>,
    ) {
        let mut state = self.lock();
        if state.idle > state.queue.len() {
            state.queue.push_back(stream);
            self.ready.notify_one();
            return;
        }
        let (handoff, core, stop) = (Arc::clone(self), Arc::clone(core), Arc::clone(stop));
        let spawned = thread::Builder::new().spawn(move || {
            let mut next = Some(stream);
            while let Some(mut stream) = next {
                handle_conn(&core, &mut *stream, &stop);
                next = handoff.take(stream, &stop);
            }
        });
        // If the OS refuses a thread, the stream is dropped with the
        // closure: that client sees a hang-up and the server carries on.
        if let Ok(h) = spawned {
            state.handlers.push(h);
        }
    }

    /// Hang up `finished`, then wait idle for the next stream; `None`
    /// once the server stops.
    fn take(&self, finished: Box<dyn Stream>, stop: &AtomicBool) -> Option<Box<dyn Stream>> {
        let mut state = self.lock();
        state.idle += 1;
        // Close only once counted idle: a client that waits for the
        // hang-up before reconnecting always finds this handler free.
        drop(finished);
        let next = loop {
            if stop.load(Ordering::SeqCst) {
                break None;
            }
            if let Some(stream) = state.queue.pop_front() {
                break Some(stream);
            }
            state = self.ready.wait(state).expect(POISONED);
        };
        state.idle -= 1;
        next
    }
}

fn spawn_accepter(
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    handoff: Arc<Handoff>,
    mut accept: impl FnMut() -> std::io::Result<(Box<dyn Stream>, &'static str)> + Send + 'static,
) -> JoinHandle<()> {
    thread::spawn(move || loop {
        let accepted = accept();
        // Shutdown wakes this thread with a connection of its own, which
        // is dropped here (as is any client that raced it).
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let (stream, tag) = match accepted {
            Ok(a) => a,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            // Anything else (EMFILE, ENFILE, ENOBUFS, ...) tends to
            // persist and would fail again at once, spinning a core:
            // pause before retrying. Only this error path sleeps.
            Err(_) => {
                thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if let Some(plane) = core.trace() {
            plane.instant(TraceSite::Accept, 0, 0, tag);
        }
        handoff.give(stream, &core, &stop);
    })
}

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// Read one frame, tolerating read-timeout ticks. A timeout with zero
/// bytes consumed polls `stop` and keeps waiting; a timeout mid-frame
/// waits for the rest unless the server stopped. `Ok(None)` means "the
/// server is stopping and the connection is at a frame boundary".
fn read_frame_ticking(
    r: &mut impl Read,
    max: usize,
    stop: &AtomicBool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return if got == 0 {
                        Ok(None)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
            }
            Err(_) => return Err(FrameError::Truncated),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(FrameError::Truncated);
                }
            }
            Err(_) => return Err(FrameError::Truncated),
        }
    }
    Ok(Some(payload))
}

fn handle_conn(core: &ServerCore, mut stream: &mut dyn Stream, stop: &AtomicBool) {
    let max = core.max_frame();
    let mut session: Option<SessionHandle> = None;
    loop {
        let payload = match read_frame_ticking(&mut stream, max, stop) {
            Ok(Some(p)) => p,
            // Stop at a frame boundary, clean close, or truncation: the
            // conversation is over either way.
            Ok(None) | Err(FrameError::Closed) | Err(FrameError::Truncated) => break,
            Err(FrameError::Oversized(n)) => {
                // The stream is out of sync past the prefix — answer and
                // hang up.
                let _ = write_frame(
                    &mut stream,
                    &err_payload("EFBIG", &format!("frame of {n} bytes exceeds {max}")),
                );
                break;
            }
        };
        let Some(req) = Request::parse(&payload) else {
            let _ = write_frame(&mut stream, &err_payload("EINVAL", "malformed request"));
            continue;
        };
        let reply = match (&req, &session) {
            (Request::Auth { tenant, secret }, None) => match core.open_session(tenant, secret) {
                Ok(h) => {
                    let sid = h.session.to_string();
                    session = Some(h);
                    ok_payload(sid.as_bytes())
                }
                Err(e) => err_payload(e.errno_name(), &e.detail()),
            },
            (Request::Auth { .. }, Some(_)) => err_payload("EINVAL", "already authenticated"),
            (Request::Bye, _) => {
                let _ = write_frame(&mut stream, &ok_payload(b"bye"));
                break;
            }
            (Request::Ping, None) => ok_payload(b"pong"),
            (_, None) => err_payload("EACCES", "authenticate first"),
            (_, Some(h)) => match core.dispatch(h, &req) {
                Ok(data) => ok_payload(&data),
                Err(e) => err_payload(e.errno_name(), &e.detail()),
            },
        };
        if write_frame(&mut stream, &reply).is_err() {
            break;
        }
    }
    if let Some(h) = session.take() {
        core.close_session(h);
    }
}

/// A blocking protocol client for tests, the load-generator bench, and
/// the CI smoke.
pub struct Client {
    stream: Box<dyn Stream>,
    max_frame: usize,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: Box::new(stream),
            max_frame: crate::proto::MAX_FRAME_DEFAULT,
        })
    }

    /// Connect over a Unix socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: Box::new(UnixStream::connect(path)?),
            max_frame: crate::proto::MAX_FRAME_DEFAULT,
        })
    }

    /// Send one request line, return the response payload as text.
    pub fn req(&mut self, line: &str) -> Result<String, FrameError> {
        self.req_bytes(line.as_bytes())
    }

    /// Send one raw request payload, return the response payload as text.
    pub fn req_bytes(&mut self, payload: &[u8]) -> Result<String, FrameError> {
        write_frame(&mut self.stream, payload).map_err(|_| FrameError::Truncated)?;
        let reply = read_frame(&mut self.stream, self.max_frame)?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// Authenticate; returns the full `ok <session>` / `err ...` response.
    pub fn auth(&mut self, tenant: &str, secret: &str) -> Result<String, FrameError> {
        self.req(&format!("auth {tenant} {secret}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::StaticTokens;
    use crate::core::{ServerConfig, TenantSpec};

    fn serve() -> Server {
        let core = ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice"), TenantSpec::new("bob")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame"), ("bob", "hunter2")])),
        );
        Server::start(core).unwrap()
    }

    #[test]
    fn tcp_round_trip_auth_then_io() {
        let server = serve();
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert_eq!(c.req("ping").unwrap(), "ok pong");
        assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
        assert_eq!(c.req("write /srv/alice/x.txt hi").unwrap(), "ok 2");
        assert_eq!(c.req("read /srv/alice/x.txt").unwrap(), "ok hi");
        assert_eq!(c.req("stat /srv/alice/x.txt").unwrap(), "ok size=2");
        assert_eq!(c.req("bye").unwrap(), "ok bye");
        let core = server.core();
        server.shutdown();
        assert_eq!(
            core.tenant_counters("alice").unwrap().open_sessions,
            0,
            "handler must close the session"
        );
    }

    #[test]
    fn unix_socket_speaks_the_same_protocol() {
        let path =
            std::env::temp_dir().join(format!("shill-server-test-{}.sock", std::process::id()));
        let core = ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame")])),
        );
        let server = Server::start_with_unix(core, &path).unwrap();
        let mut c = Client::connect_unix(&path).unwrap();
        assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
        assert_eq!(c.req("sync").unwrap(), "ok synced");
        drop(c);
        server.shutdown();
        assert!(!path.exists(), "socket file must be removed on shutdown");
    }

    #[test]
    fn vanished_client_leaks_no_session() {
        let server = serve();
        let core = server.core();
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert!(c.auth("bob", "hunter2").unwrap().starts_with("ok "));
        drop(c); // hang up without `bye`
        server.shutdown();
        assert_eq!(core.tenant_counters("bob").unwrap().open_sessions, 0);
        assert_eq!(core.policy().label_entries(), 0);
    }

    /// Wait (bounded) until `n` handlers sit idle in the hand-off.
    fn idle_handlers(server: &Server, n: usize) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if server.handoff.lock().idle == n {
                return true;
            }
            thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn vanished_client_on_a_reused_handler_leaks_no_session() {
        let server = serve();
        let core = server.core();
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
        assert_eq!(c.req("bye").unwrap(), "ok bye");
        drop(c);
        assert!(idle_handlers(&server, 1), "the handler must go idle");

        // The next connection lands on the same handler, which must close
        // this session too when the client hangs up without `bye`.
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert!(c.auth("bob", "hunter2").unwrap().starts_with("ok "));
        assert_eq!(c.req("write /srv/bob/x.txt hi").unwrap(), "ok 2");
        assert_eq!(server.handler_threads(), 1, "the handler must be reused");
        drop(c);
        assert!(idle_handlers(&server, 1), "the handler must go idle again");
        assert_eq!(core.tenant_counters("bob").unwrap().open_sessions, 0);
        assert_eq!(core.policy().label_entries(), 0);
        assert_eq!(server.handler_threads(), 1);
        server.shutdown();
    }
}
