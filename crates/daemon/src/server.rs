//! The daemon proper: a TCP acceptor, and per-connection threads that
//! frame, admit, execute and reply.
//!
//! Threading model — two roles, no per-request hand-off between them:
//!
//! * **acceptor** — one thread on `TcpListener::accept`, enforcing the
//!   connection cap (over-limit connects get a typed `Overloaded`
//!   reply and a close, never a silent drop),
//! * **connection threads** — one per live client, owning the socket.
//!   A connection is strictly request → reply, so the thread that
//!   framed a request would be blocked until its reply anyway: it
//!   passes the admission gate, runs the reader work itself,
//!   releases its permit and only then writes the reply.
//!
//! Admission is the load-shedding contract: at most `workers` requests
//! execute at once however many connections are open, at most
//! `queue_depth` park behind them, and one more is refused
//! **immediately** with the typed `Overloaded` reply — a saturated
//! daemon answers every frame promptly and never accumulates an
//! unbounded backlog. A peer that stops reading its reply holds no
//! permit, so it costs its own thread for the write timeout and never
//! a slot; a request whose peer hung up while it was parked is not run.

use crate::any::AnyReader;
use crate::error::Result;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameRead, RegionSpec, Reply, Request, MAX_REQUEST_FRAME,
};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::Shape;
use eblcio_obs::{self as obs, Counter, Histogram, Timed};
use eblcio_store::Region;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Construction-time knobs for a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Requests executing reader work at once, however many
    /// connections are open (0 = machine parallelism).
    pub workers: usize,
    /// Requests parked behind the executing ones (at least 1); one
    /// more than this is the typed `Overloaded` reply.
    pub queue_depth: usize,
    /// Live connections accepted at once; the next connect is answered
    /// `Overloaded` and closed.
    pub max_connections: usize,
    /// How long a peer may stall **inside** a frame before the
    /// connection is closed as torn. Idle time *between* frames is
    /// unlimited.
    pub read_timeout: Duration,
    /// Enables the test-only `TestDelay` opcode (deterministic slot
    /// occupation for overload tests). Off for real serving.
    pub test_ops: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            max_connections: 1024,
            read_timeout: Duration::from_secs(5),
            test_ops: false,
        }
    }
}

/// The admission gate: `running` requests hold a [`Permit`], `waiting`
/// ones are parked on `freed` until a permit drops or the gate closes.
struct Admission {
    state: Mutex<Gate>,
    freed: Condvar,
    workers: usize,
    queue_depth: usize,
}

#[derive(Default)]
struct Gate {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// Why [`Admission::enter`] turned a request away.
enum Refused {
    Full,
    Closed,
}

/// One of the `workers` execution slots, released on drop.
struct Permit<'a> {
    gate: &'a Admission,
    /// Whether the request was parked before it got the slot.
    waited: bool,
}

impl Admission {
    fn new(workers: usize, queue_depth: usize) -> Self {
        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(2, |n| n.get()),
            n => n,
        };
        Self {
            state: Mutex::default(),
            freed: Condvar::new(),
            workers,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Takes a slot now, parks for one if the backlog has room, or
    /// refuses on the spot.
    fn enter(&self) -> std::result::Result<Permit<'_>, Refused> {
        let mut g = self.state.lock();
        let mut waited = false;
        while !g.closed && g.running >= self.workers {
            if !waited {
                if g.waiting >= self.queue_depth {
                    return Err(Refused::Full);
                }
                g.waiting += 1;
                waited = true;
            }
            self.freed.wait(&mut g);
        }
        g.waiting -= usize::from(waited);
        if g.closed {
            return Err(Refused::Closed);
        }
        g.running += 1;
        Ok(Permit { gate: self, waited })
    }

    /// Refuses every later request and wakes the parked ones to be
    /// refused; running requests finish normally.
    fn close(&self) {
        self.state.lock().closed = true;
        self.freed.notify_all();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().running -= 1;
        self.gate.freed.notify_one();
    }
}

/// State shared by every thread the daemon owns.
struct Shared {
    reader: AnyReader,
    config: DaemonConfig,
    shutdown: AtomicBool,
    gate: Admission,
    conns: Conns,
    /// `eblcio_daemon_*` metrics, registered into the reader's
    /// registry so one `Metrics` frame exposes both layers.
    connections_total: Arc<Counter>,
    requests_total: Arc<Counter>,
    overloaded_total: Arc<Counter>,
    malformed_total: Arc<Counter>,
    admission_wait_ns: Arc<Histogram>,
    service_ns: Arc<Histogram>,
}

/// Registry of live connections, for prompt shutdown: the daemon
/// shuts each registered socket down, which unblocks its thread's
/// read immediately instead of waiting out a poll interval.
#[derive(Default)]
struct Conns {
    streams: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    active: AtomicUsize,
    next_id: AtomicU64,
}

/// A running serve daemon. Dropping it shuts it down (idempotent with
/// an explicit [`Daemon::shutdown`]).
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `reader` until [`Daemon::shutdown`] or drop.
    pub fn start(reader: AnyReader, config: DaemonConfig, addr: impl ToSocketAddrs) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = reader.metrics().clone();
        let shared = Arc::new(Shared {
            reader,
            shutdown: AtomicBool::new(false),
            gate: Admission::new(config.workers, config.queue_depth),
            conns: Conns::default(),
            config,
            connections_total: registry.counter("eblcio_daemon_connections_total"),
            requests_total: registry.counter("eblcio_daemon_requests_total"),
            overloaded_total: registry.counter("eblcio_daemon_overloaded_total"),
            malformed_total: registry.counter("eblcio_daemon_malformed_total"),
            admission_wait_ns: registry.histogram("eblcio_daemon_admission_wait_ns"),
            service_ns: registry.histogram("eblcio_daemon_service_ns"),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("eblcio-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Self { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live client connections right now.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.active.load(Ordering::Relaxed)
    }

    /// Stops accepting, lets executing requests finish, refuses parked
    /// ones, closes every connection, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Order matters: close the gate (parked requests wake to the
        // shutdown reply), wake the acceptor with a throwaway connect,
        // then unblock connection reads by shutting their sockets.
        self.shared.gate.close();
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for (_, s) in self.shared.conns.streams.lock().drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = self.shared.conns.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let (config, conns, shutdown) = (&shared.config, &shared.conns, &shared.shutdown);
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.connections_total.inc();
        // Reap finished connection threads so the handle list tracks
        // live connections, not connection history.
        {
            let mut handles = conns.handles.lock();
            let mut live = Vec::with_capacity(handles.len());
            for h in handles.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    live.push(h);
                }
            }
            *handles = live;
        }
        let _ = stream.set_write_timeout(Some(config.read_timeout));
        // Replies are written as one small frame each; Nagle would add
        // a delayed-ACK round trip to every exchange.
        let _ = stream.set_nodelay(true);
        if conns.active.load(Ordering::SeqCst) >= config.max_connections {
            shared.overloaded_total.inc();
            let reply = error(ErrorCode::Overloaded, "connection limit reached");
            let _ = write_frame(&mut stream, &reply.encode());
            continue;
        }
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let id = conns.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            conns.streams.lock().insert(id, clone);
        }
        conns.active.fetch_add(1, Ordering::SeqCst);
        let spawned = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("eblcio-conn-{id}"))
                .spawn(move || {
                    connection_loop(&mut stream, &shared);
                    shared.conns.streams.lock().remove(&id);
                    shared.conns.active.fetch_sub(1, Ordering::SeqCst);
                })
        };
        match spawned {
            Ok(handle) => conns.handles.lock().push(handle),
            Err(_) => {
                // Spawn failure: roll the bookkeeping back and shed the
                // connection like any other overload.
                conns.streams.lock().remove(&id);
                conns.active.fetch_sub(1, Ordering::SeqCst);
                shared.overloaded_total.inc();
            }
        }
    }
}

/// Serves one connection until close, torn frame, or shutdown.
fn connection_loop(stream: &mut TcpStream, shared: &Shared) {
    loop {
        let frame = read_frame(stream, MAX_REQUEST_FRAME, || {
            !shared.shutdown.load(Ordering::SeqCst)
        });
        let payload = match frame {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Closed) => return,
            Ok(FrameRead::TooLarge(declared)) => {
                let why = format!("request frame declares {declared} bytes");
                let _ = write_frame(stream, &error(ErrorCode::FrameTooLarge, why).encode());
                return;
            }
            // Torn frame or dead socket: nothing sensible to reply to.
            Err(_) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.malformed_total.inc();
                let reply = error(ErrorCode::Malformed, e.to_string());
                let _ = write_frame(stream, &reply.encode());
                // A peer that frames garbage gets a clean close, not a
                // resync guess.
                return;
            }
        };
        shared.requests_total.inc();
        let admitted = {
            let _t = Timed::new(&shared.admission_wait_ns);
            shared.gate.enter()
        };
        let reply = match admitted {
            // The permit lives for this arm only (reader work, reply
            // encoding): whoever stalls the write below holds no slot.
            Ok(permit) => {
                if permit.waited && peer_hung_up(stream) {
                    return;
                }
                let _t = Timed::new(&shared.service_ns);
                execute(shared, request).encode()
            }
            Err(Refused::Full) => {
                shared.overloaded_total.inc();
                error(ErrorCode::Overloaded, "request queue full, try later").encode()
            }
            Err(Refused::Closed) => error(ErrorCode::Overloaded, "daemon shutting down").encode(),
        };
        if write_frame(stream, &reply).is_err() {
            return;
        }
    }
}

/// Whether the peer closed its end while its request was parked — a
/// non-blocking `peek`: `Ok(0)` is end of stream, an error other than
/// "nothing to read yet" a dead socket. A socket that cannot be put
/// back in blocking mode is given up the same way.
fn peer_hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() != ErrorKind::WouldBlock,
    };
    gone | stream.set_nonblocking(false).is_err()
}

/// Validates a wire region against the served shape. Everything that
/// would make [`Region::new`] or the reader panic is caught here and
/// named, so a hostile request can only ever earn a `BadRequest`.
fn region_for(spec: &RegionSpec, shape: Shape) -> std::result::Result<Region, &'static str> {
    if spec.origin.len() != spec.extent.len() {
        return Err("origin/extent rank mismatch");
    }
    let rank = spec.origin.len();
    if rank != shape.rank() {
        return Err("region rank does not match array rank");
    }
    let mut origin = [0usize; MAX_RANK];
    let mut extent = [0usize; MAX_RANK];
    for d in 0..rank {
        let o = usize::try_from(spec.origin[d]).map_err(|_| "region origin overflows")?;
        let e = usize::try_from(spec.extent[d]).map_err(|_| "region extent overflows")?;
        if e == 0 {
            return Err("region extent is zero");
        }
        let end = o.checked_add(e).ok_or("region end overflows")?;
        if end > shape.dims()[d] {
            return Err("region exceeds array bounds");
        }
        origin[d] = o;
        extent[d] = e;
    }
    Ok(Region::new(&origin[..rank], &extent[..rank]))
}

/// Runs one request against the reader, on the connection thread that
/// holds a [`Permit`] for it. Every failure is a typed error reply.
fn execute(shared: &Shared, request: Request) -> Reply {
    let reader = &shared.reader;
    match request {
        Request::ReadRegion(spec) => match region_for(&spec, reader.shape()) {
            Ok(region) => match reader.read_region_data(&region) {
                Ok(data) => Reply::Data(data),
                Err(e) => server_error(e),
            },
            Err(why) => bad_request(why),
        },
        Request::ReadChunk { index } => {
            let i = usize::try_from(index).ok().filter(|&i| i < reader.n_chunks());
            match i {
                Some(i) => match reader.read_chunk_data(i) {
                    Ok(data) => Reply::Data(data),
                    Err(e) => server_error(e),
                },
                None => bad_request("chunk index out of range"),
            }
        }
        Request::Prefetch(spec) => match region_for(&spec, reader.shape()) {
            Ok(region) => {
                reader.prefetch_region(&region);
                Reply::Ack
            }
            Err(why) => bad_request(why),
        },
        Request::Batch(specs) => {
            let mut items = Vec::with_capacity(specs.len());
            for spec in &specs {
                match region_for(spec, reader.shape()) {
                    Ok(region) => match reader.read_region_data(&region) {
                        Ok(data) => items.push(data),
                        Err(e) => return server_error(e),
                    },
                    Err(why) => return bad_request(why),
                }
            }
            Reply::Batch(items)
        }
        Request::Stats => Reply::Stats(reader.stats()),
        Request::Metrics => Reply::Text(obs::prometheus(reader.metrics())),
        Request::TestDelay { millis } => {
            if shared.config.test_ops {
                std::thread::sleep(Duration::from_millis(u64::from(millis)));
                Reply::Ack
            } else {
                bad_request("test opcodes are disabled")
            }
        }
    }
}

fn error(code: ErrorCode, message: impl Into<String>) -> Reply {
    Reply::Error { code, message: message.into() }
}

fn bad_request(why: &str) -> Reply {
    error(ErrorCode::BadRequest, why)
}

fn server_error(e: eblcio_codec::CodecError) -> Reply {
    error(ErrorCode::Server, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks until exactly `n` requests are parked in the gate.
    fn wait_parked(gate: &Admission, n: usize) {
        while gate.state.lock().waiting != n {
            std::thread::yield_now();
        }
    }

    /// Enters, reports whether the request was parked first (`None` =
    /// refused) and releases the slot at once.
    fn enter_and_leave(gate: &Admission) -> Option<bool> {
        gate.enter().ok().map(|permit| permit.waited)
    }

    #[test]
    fn admission_is_bounded_and_immediate() {
        let gate = Admission::new(1, 2);
        let running = gate.enter().ok().expect("a fresh gate has a free slot");
        assert!(!running.waited);
        std::thread::scope(|s| {
            let parked: Vec<_> = (0..2).map(|_| s.spawn(|| enter_and_leave(&gate))).collect();
            wait_parked(&gate, 2);
            // Slot and backlog both full: refused without blocking.
            assert!(matches!(gate.enter(), Err(Refused::Full)));
            drop(running);
            for h in parked {
                assert_eq!(h.join().unwrap(), Some(true));
            }
        });
        // Draining readmits, and an idle gate admits without parking.
        assert_eq!(enter_and_leave(&gate), Some(false));
        let g = gate.state.lock();
        assert_eq!((g.running, g.waiting), (0, 0));
    }

    #[test]
    fn close_wakes_waiters_with_the_shutdown_refusal() {
        let gate = Admission::new(1, 4);
        let running = gate.enter().ok().expect("a fresh gate has a free slot");
        std::thread::scope(|s| {
            let parked = s.spawn(|| gate.enter().err());
            wait_parked(&gate, 1);
            gate.close();
            assert!(matches!(parked.join().unwrap(), Some(Refused::Closed)));
        });
        assert_eq!(gate.state.lock().waiting, 0);
        // The running request finishes normally; nothing enters after it,
        // free slot or not.
        drop(running);
        assert_eq!(gate.state.lock().running, 0);
        assert!(matches!(gate.enter(), Err(Refused::Closed)));
    }

    #[test]
    fn queue_depth_zero_still_admits_one() {
        let gate = Admission::new(1, 0);
        let running = gate.enter().ok().expect("a fresh gate has a free slot");
        std::thread::scope(|s| {
            let parked = s.spawn(|| enter_and_leave(&gate));
            wait_parked(&gate, 1);
            assert!(matches!(gate.enter(), Err(Refused::Full)));
            drop(running);
            assert_eq!(parked.join().unwrap(), Some(true));
        });
    }

    #[test]
    fn concurrent_enters_never_exceed_workers() {
        const THREADS: usize = 8;
        const PER: usize = 200;
        const WORKERS: usize = 3;
        // 8 threads on 3 slots and a backlog of 2: running, parking and
        // refusal are all reachable.
        let gate = Admission::new(WORKERS, 2);
        let (inside, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (admitted, refused) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER {
                        match gate.enter() {
                            Ok(_permit) => {
                                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::yield_now();
                                inside.fetch_sub(1, Ordering::SeqCst);
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= WORKERS, "more requests ran than slots");
        // Every enter got exactly one answer, and every permit came back.
        assert_eq!(admitted.into_inner() + refused.into_inner(), THREADS * PER);
        let g = gate.state.lock();
        assert_eq!((g.running, g.waiting, g.closed), (0, 0, false));
    }
}
