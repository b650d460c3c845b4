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
//! # The life of a reply
//!
//! Each connection thread owns one `FrameBuf` for as long as the
//! connection lives, and that buffer *is* every frame the thread
//! sends. For a `Data`-bearing reply (`ReadRegion`, `ReadChunk` — the
//! region its chunk covers — and every item of a `Batch`) the thread
//! validates the geometry, computes the frame length from it —
//! refusing, before the reader is touched, a reply that would exceed
//! [`MAX_REPLY_FRAME`] — writes
//! `len | opcode | dtype | rank | dims | nbytes` in front and has the
//! region engine scatter the samples **as little-endian bytes directly
//! into the tail**. Nothing is materialised on the way: no typed array,
//! no `ArrayData`, no second buffer. Small replies (`Ack`, `Stats`,
//! `Text`, `Error`) are encoded into the same buffer. The permit is
//! released, then the whole frame leaves in one `write_all`.
//!
//! The buffer only grows, and in place — starting the next frame does
//! not clear or re-zero it — so a steady stream of same-sized reads
//! allocates nothing here. After the write, a buffer whose allocation
//! exceeds `RETAIN_FRAME_BYTES` (2 MiB) is dropped, so an idle
//! connection cannot pin the memory of one large reply: the daemon
//! retains at most `max_connections × RETAIN_FRAME_BYTES` between
//! requests.
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
    data_header_len, put_data_header, read_frame, ErrorCode, FrameBuf, FrameRead, RegionSpec,
    Reply, Request, MAX_REPLY_FRAME, MAX_REQUEST_FRAME, OP_BATCH_REPLY, OP_DATA,
};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::Shape;
use eblcio_obs::{self as obs, Counter, Phase};
use eblcio_store::Region;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
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

/// Largest frame-buffer allocation a connection keeps between requests.
/// Two 1 MiB-class replies fit, so the common read loop never
/// reallocates; anything bigger is handed back after it is sent, which
/// bounds what idle connections hold to
/// `max_connections × RETAIN_FRAME_BYTES`.
const RETAIN_FRAME_BYTES: usize = 2 << 20;

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
    admission_wait: Phase,
    service: Phase,
    /// The one `write_all` per reply, timed after the permit is gone.
    reply_write: Phase,
    reply_bytes_total: Arc<Counter>,
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
            admission_wait: Phase::new(registry.histogram("eblcio_daemon_admission_wait_ns")),
            service: Phase::new(registry.histogram("eblcio_daemon_service_ns")),
            reply_write: Phase::new(registry.histogram("eblcio_daemon_reply_write_ns")),
            reply_bytes_total: registry.counter("eblcio_daemon_reply_bytes_total"),
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
            let mut frame = FrameBuf::default();
            set_reply(&mut frame, &error(ErrorCode::Overloaded, "connection limit reached"));
            let _ = send(&mut stream, &mut frame, shared);
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
    // Every reply this connection sends is built in, and written from,
    // this one buffer (see the module docs).
    let mut frame = FrameBuf::default();
    loop {
        let read = read_frame(stream, MAX_REQUEST_FRAME, || {
            !shared.shutdown.load(Ordering::SeqCst)
        });
        let payload = match read {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Closed) => return,
            Ok(FrameRead::TooLarge(declared)) => {
                let why = format!("request frame declares {declared} bytes");
                set_reply(&mut frame, &error(ErrorCode::FrameTooLarge, why));
                let _ = send(stream, &mut frame, shared);
                return;
            }
            // Torn frame or dead socket: nothing sensible to reply to.
            Err(_) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.malformed_total.inc();
                set_reply(&mut frame, &error(ErrorCode::Malformed, e.to_string()));
                let _ = send(stream, &mut frame, shared);
                // A peer that frames garbage gets a clean close, not a
                // resync guess.
                return;
            }
        };
        shared.requests_total.inc();
        let t = shared.admission_wait.start();
        let admitted = shared.gate.enter();
        t.finish();
        match admitted {
            // The permit lives for this arm only (reader work, reply
            // assembly): whoever stalls the write below holds no slot.
            Ok(permit) => {
                if permit.waited && peer_hung_up(stream) {
                    return;
                }
                let t = shared.service.start();
                if let Err(refusal) = execute(shared, request, &mut frame) {
                    set_reply(&mut frame, &refusal);
                }
                t.finish();
            }
            Err(Refused::Full) => {
                shared.overloaded_total.inc();
                set_reply(&mut frame, &error(ErrorCode::Overloaded, "request queue full, try later"));
            }
            Err(Refused::Closed) => {
                set_reply(&mut frame, &error(ErrorCode::Overloaded, "daemon shutting down"));
            }
        }
        if send(stream, &mut frame, shared).is_err() {
            return;
        }
    }
}

/// Makes `frame` hold exactly `reply` (whatever was being built in it
/// is abandoned — nothing has reached the socket before [`send`]).
fn set_reply(frame: &mut FrameBuf, reply: &Reply) {
    frame.begin_frame();
    reply.encode_into(frame);
}

/// Sends the frame built in `frame` — the one `write_all` of a reply —
/// then gives the buffer back if it grew past [`RETAIN_FRAME_BYTES`].
fn send(stream: &mut TcpStream, frame: &mut FrameBuf, shared: &Shared) -> std::io::Result<()> {
    let bytes = frame.finish_frame()?;
    let t = shared.reply_write.start();
    let written = stream.write_all(bytes);
    t.finish();
    written?;
    shared.reply_bytes_total.add(bytes.len() as u64);
    recycle(frame);
    Ok(())
}

/// Drops an allocation above [`RETAIN_FRAME_BYTES`]; keeps a smaller one
/// for the next reply.
fn recycle(frame: &mut FrameBuf) {
    if frame.capacity() > RETAIN_FRAME_BYTES {
        *frame = FrameBuf::default();
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

/// Whether a reply frame got built; `Err` is the typed error reply to
/// send in its place.
type Served = std::result::Result<(), Reply>;

/// Runs one request against the reader, on the connection thread that
/// holds a [`Permit`] for it, leaving the reply frame in `frame`. Every
/// failure comes back as the typed error reply to send instead.
fn execute(shared: &Shared, request: Request, frame: &mut FrameBuf) -> Served {
    let reader = &shared.reader;
    let region_of = |spec: &RegionSpec| region_for(spec, reader.shape()).map_err(bad_request);
    match request {
        Request::ReadRegion(spec) => {
            let region = region_of(&spec)?;
            begin_data_reply(frame, OP_DATA, data_body_len(reader, region.shape()))?;
            put_region(reader, frame, &region)?;
        }
        Request::ReadChunk { index } => {
            let i = usize::try_from(index).ok().filter(|&i| i < reader.n_chunks());
            let i = i.ok_or_else(|| bad_request("chunk index out of range"))?;
            let region = reader.chunk_region(i);
            begin_data_reply(frame, OP_DATA, data_body_len(reader, region.shape()))?;
            put_region(reader, frame, &region)?;
        }
        Request::Prefetch(spec) => {
            reader.prefetch_region(&region_of(&spec)?);
            set_reply(frame, &Reply::Ack);
        }
        Request::Batch(specs) => {
            let mut regions = Vec::with_capacity(specs.len());
            for spec in &specs {
                regions.push(region_of(spec)?);
            }
            let body = regions.iter().try_fold(4usize, |sum, region| {
                sum.checked_add(data_body_len(reader, region.shape())?)
            });
            begin_data_reply(frame, OP_BATCH_REPLY, body)?;
            frame.put_count(regions.len());
            for region in &regions {
                put_region(reader, frame, region)?;
            }
        }
        Request::Stats => set_reply(frame, &Reply::Stats(reader.stats())),
        Request::Metrics => set_reply(frame, &Reply::Text(obs::prometheus(reader.metrics()))),
        Request::TestDelay { millis } => {
            if !shared.config.test_ops {
                return Err(bad_request("test opcodes are disabled"));
            }
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
            set_reply(frame, &Reply::Ack);
        }
    }
    Ok(())
}

/// Starts a `Data`-bearing reply whose body after the opcode will be
/// `body_len` bytes — known from validated geometry alone, so a reply
/// the client would refuse (over [`MAX_REPLY_FRAME`], or too long to
/// compute) is refused here, before any sample is assembled.
fn begin_data_reply(frame: &mut FrameBuf, op: u8, body_len: Option<usize>) -> Served {
    if body_len.is_none_or(|n| n >= MAX_REPLY_FRAME) {
        let why = format!("reply would exceed the {MAX_REPLY_FRAME}-byte frame cap");
        return Err(error(ErrorCode::BadRequest, why));
    }
    frame.begin_frame();
    frame.push(op);
    Ok(())
}

/// Wire bytes of the `Data` body (header + samples) carrying an array
/// of `shape`.
fn data_body_len(reader: &AnyReader, shape: Shape) -> Option<usize> {
    let nbytes = shape.len().checked_mul(reader.sample_bytes())?;
    data_header_len(shape.rank()).checked_add(nbytes)
}

/// Appends one `Data` body: the header for `region`, then its samples,
/// which the region engine assembles in place in the frame's tail.
fn put_region(reader: &AnyReader, frame: &mut FrameBuf, region: &Region) -> Served {
    let nbytes = region.len() * reader.sample_bytes();
    put_data_header(frame, reader.dtype(), region.extent().iter().map(|&d| d as u64), nbytes);
    reader.read_region_le_into(region, frame.grow(nbytes)).map_err(server_error)
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

    /// Builds a `Data`-sized frame of `n` sample bytes; returns where
    /// the finished frame lives.
    fn build_frame(frame: &mut FrameBuf, n: usize) -> *const u8 {
        frame.begin_frame();
        frame.push(OP_DATA);
        frame.grow(n).fill(7);
        frame.finish_frame().expect("a frame under 4 GiB").as_ptr()
    }

    #[test]
    fn the_frame_buffer_is_reused_up_to_the_retain_limit_and_dropped_above_it() {
        let mut frame = FrameBuf::default();
        // Under the limit: kept, and the next reply of that size is
        // built in the same allocation.
        let first = build_frame(&mut frame, RETAIN_FRAME_BYTES / 2);
        recycle(&mut frame);
        let kept = frame.capacity();
        assert!((RETAIN_FRAME_BYTES / 2..=RETAIN_FRAME_BYTES).contains(&kept), "{kept}");
        assert_eq!(build_frame(&mut frame, RETAIN_FRAME_BYTES / 2), first);
        assert_eq!(frame.capacity(), kept);
        // Over it: handed back once sent, so an idle connection holds
        // nothing.
        build_frame(&mut frame, RETAIN_FRAME_BYTES + 1);
        recycle(&mut frame);
        assert_eq!(frame.capacity(), 0);
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
