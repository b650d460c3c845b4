//! Adversarial wire-protocol tests: arbitrary bytes, torn frames,
//! oversized declared lengths, and truncated payloads must all land as
//! typed errors or clean closes — never a panic, never a hang, and
//! never a wedged daemon for the *next* client.

use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_daemon::protocol::{read_frame, write_frame, FrameRead};
use eblcio_daemon::{
    read_reply, AnyReader, ArrayData, Daemon, DaemonClient, DaemonConfig, DaemonError, ErrorCode,
    RegionSpec, Reply, Request, MAX_REPLY_FRAME, MAX_REQUEST_FRAME,
};
use eblcio_data::{NdArray, Shape};
use eblcio_serve::ReaderConfig;
use eblcio_store::ChunkedStore;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

std::thread_local! {
    /// Largest single allocation this thread has requested since the
    /// cell was last zeroed (per thread, so tests running beside each
    /// other do not see one another).
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size in [`PEAK_ALLOC`].
struct PeakTracking;

fn note(size: usize) {
    let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(size)));
}

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: PeakTracking = PeakTracking;

fn start_daemon() -> Daemon {
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| (i[0] + 2 * i[1]) as f32 * 0.5);
    let codec = CompressorId::Sz3.instance();
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Absolute(1e-2), Shape::d2(16, 16), 2)
            .unwrap();
    let reader = AnyReader::open(&stream, ReaderConfig::default()).unwrap();
    let config = DaemonConfig {
        // Short stall allowance so torn-frame tests finish quickly.
        read_timeout: Duration::from_millis(300),
        ..DaemonConfig::default()
    };
    Daemon::start(reader, config, "127.0.0.1:0").unwrap()
}

/// Reads the next reply frame off a raw socket.
fn next_reply(stream: &mut TcpStream) -> Option<Reply> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match read_frame(stream, MAX_REPLY_FRAME, || true) {
        Ok(FrameRead::Frame(p)) => Some(Reply::decode(&p).unwrap()),
        _ => None,
    }
}

/// After any adversarial exchange, a fresh client must still be served
/// correctly — the daemon survived.
fn assert_daemon_healthy(daemon: &Daemon) {
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let data = client.read_region(&RegionSpec::new(&[0, 0], &[16, 16])).unwrap();
    assert_eq!(data.bytes.len(), 16 * 16 * 4);
}

/// A peer that delivers its bytes 1–7 at a time.
struct Dribble<'a> {
    bytes: &'a [u8],
    state: u64,
}

impl Read for Dribble<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let n = (1 + (self.state >> 33) as usize % 7).min(out.len()).min(self.bytes.len());
        let (head, tail) = self.bytes.split_at(n);
        out[..n].copy_from_slice(head);
        self.bytes = tail;
        Ok(n)
    }
}

/// Reply payloads worth throwing at a decoder: raw noise, and `Data` /
/// `Batch` frames that start out valid and then have one thing forged —
/// a `u64` field (dims, `nbytes`), a byte (opcode, dtype, rank, count),
/// a truncation, trailing bytes, or dims and `nbytes` inflated together.
fn arb_reply_payload() -> impl Strategy<Value = Vec<u8>> {
    let forged = (
        proptest::collection::vec(any::<u64>(), 7..8),
        proptest::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(f, extra)| {
            let dtype = (f[0] % 2) as u8;
            let dims: Vec<u64> = (0..1 + f[1] % 3).map(|d| 1 + (f[2] >> (8 * d)) % 4).collect();
            let nbytes = dims.iter().product::<u64>() * [4, 8][dtype as usize];
            let data = ArrayData {
                dtype,
                dims,
                bytes: (0..nbytes).map(|i| i as u8).collect(),
            };
            let rank = data.dims.len();
            let first_dim = data.dims[0];
            let reply = match f[3] % 4 {
                0 => Reply::Batch(vec![data.clone(), data]),
                _ => Reply::Data(data),
            };
            let mut payload = reply.encode();
            let at = f[5] as usize % payload.len().min(40);
            match f[4] % 6 {
                0 => {}
                1 => {
                    for (b, v) in payload[at..].iter_mut().zip(f[6].to_le_bytes()) {
                        *b = v;
                    }
                }
                2 => payload[at] = f[6] as u8,
                3 => payload.truncate(f[5] as usize % (payload.len() + 1)),
                4 => payload.extend_from_slice(&extra),
                // The consistent lie: a first dimension and an `nbytes`
                // that agree with each other, about samples that were
                // never sent.
                _ => {
                    let grow = 2 + f[6] % (1 << 24);
                    let header = payload.len() - nbytes as usize - 8 * (rank + 1);
                    payload[header..header + 8].copy_from_slice(&(first_dim * grow).to_le_bytes());
                    payload[header + 8 * rank..header + 8 * rank + 8]
                        .copy_from_slice(&(nbytes * grow).to_le_bytes());
                }
            }
            payload
        });
    prop_oneof![proptest::collection::vec(any::<u8>(), 0..256), forged]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The client's streaming reply reader is `Reply::decode` behind a
    /// socket: fed `len | payload` a few bytes at a time it returns
    /// exactly what the slice decoder returns for the payload — equal
    /// values, errors on the same inputs, never a panic — and a forged
    /// header never makes it allocate beyond a small multiple of the
    /// frame it was actually sent (a `Data` body's samples: never more
    /// than the frame holds).
    #[test]
    fn the_streaming_reply_reader_is_reply_decode_behind_a_socket(
        payload in arb_reply_payload(),
        pace in any::<u64>(),
    ) {
        let want = Reply::decode(&payload);
        let wire = [&(payload.len() as u32).to_le_bytes()[..], &payload].concat();

        let mut peer = Dribble { bytes: &wire, state: pace };
        PEAK_ALLOC.with(|peak| peak.set(0));
        let got = read_reply(&mut peer, MAX_REPLY_FRAME);
        let peak = PEAK_ALLOC.with(Cell::get);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got, want);
                prop_assert!(peer.bytes.is_empty(), "an accepted frame is consumed whole");
            }
            (Err(_), Err(_)) => {}
            _ => panic!("stream reader said {got:?}, slice decoder said {want:?}"),
        }
        // The widest legitimate expansions: 56 B of `ArrayData` per 18 B
        // batch item, 3 B of U+FFFD per invalid byte of an error message.
        prop_assert!(peak <= 4 * payload.len() + 64, "{peak} B allocated for a {} B frame", payload.len());
        if let Ok(Reply::Data(data)) = &got {
            prop_assert!(peak <= payload.len().max(8 * data.dims.len()));
        }

        // One byte over the cap is refused from the prefix alone.
        if let Some(cap) = payload.len().checked_sub(1) {
            let mut peer = Dribble { bytes: &wire, state: pace };
            PEAK_ALLOC.with(|peak| peak.set(0));
            let refused = read_reply(&mut peer, cap);
            prop_assert_eq!(PEAK_ALLOC.with(Cell::get), 0);
            prop_assert!(matches!(refused, Err(DaemonError::FrameTooLarge { .. })), "{refused:?}");
        }
    }

    /// Request decode is total: arbitrary payload bytes either decode
    /// or return a typed error — no panics, and a successful decode
    /// re-encodes to the same bytes (the format is canonical).
    #[test]
    fn arbitrary_payloads_never_panic_the_request_decoder(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Ok(req) = Request::decode(&payload) {
            prop_assert_eq!(req.encode(), payload);
        }
    }

    /// Same totality for the reply decoder (a hostile *server* cannot
    /// panic a client either).
    #[test]
    fn arbitrary_payloads_never_panic_the_reply_decoder(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Reply::decode(&payload);
    }

    /// Round-trip for structurally valid requests with extreme
    /// coordinate values.
    #[test]
    fn extreme_regions_roundtrip(
        origin in proptest::collection::vec(any::<u64>(), 1..5),
        extent_seed in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let rank = origin.len().min(extent_seed.len());
        let spec = RegionSpec::new(&origin[..rank], &extent_seed[..rank]);
        let req = Request::ReadRegion(spec);
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }
}

#[test]
fn garbage_opcode_earns_malformed_then_clean_close() {
    let daemon = start_daemon();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    write_frame(&mut raw, &[0xAB, 1, 2, 3]).unwrap();
    match next_reply(&mut raw) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // The server closes after malformed framing: next read is EOF.
    assert!(next_reply(&mut raw).is_none());
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn trailing_bytes_after_a_valid_body_are_malformed() {
    let daemon = start_daemon();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut payload = Request::Stats.encode();
    payload.extend_from_slice(b"extra");
    write_frame(&mut raw, &payload).unwrap();
    match next_reply(&mut raw) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn oversized_declared_length_is_refused_before_allocation() {
    let daemon = start_daemon();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    // Header claims ~4 GiB; the server must answer without buffering it.
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    match next_reply(&mut raw) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(next_reply(&mut raw).is_none());
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn torn_header_then_close_is_a_clean_drop() {
    let daemon = start_daemon();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    raw.write_all(&[7, 0]).unwrap(); // 2 of 4 header bytes
    raw.flush().unwrap();
    drop(raw);
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn truncated_payload_then_stall_times_out_instead_of_wedging() {
    let daemon = start_daemon();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    // Promise 100 bytes, deliver 10, then stall without closing.
    raw.write_all(&100u32.to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 10]).unwrap();
    raw.flush().unwrap();
    // The server's in-frame stall allowance (300 ms here) expires and
    // it drops the connection; a healthy client is unaffected either
    // way, which is the property under test.
    std::thread::sleep(Duration::from_millis(600));
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn a_swarm_of_hostile_connects_does_not_take_the_daemon_down() {
    let daemon = start_daemon();
    let addr = daemon.local_addr();
    std::thread::scope(|s| {
        for t in 0..24usize {
            s.spawn(move || {
                let Ok(mut raw) = TcpStream::connect(addr) else {
                    return;
                };
                match t % 4 {
                    // Garbage frame.
                    0 => {
                        let _ = write_frame(&mut raw, &[0xFF; 16]);
                        let _ = next_reply(&mut raw);
                    }
                    // Oversized header.
                    1 => {
                        let _ = raw.write_all(&u32::MAX.to_le_bytes());
                        let _ = next_reply(&mut raw);
                    }
                    // Torn header, instant close.
                    2 => {
                        let _ = raw.write_all(&[1]);
                    }
                    // Valid request, close without reading the reply.
                    _ => {
                        let _ = write_frame(&mut raw, &Request::Metrics.encode());
                    }
                }
            });
        }
        // Honest clients interleaved with the swarm still get served.
        for _ in 0..4 {
            s.spawn(move || {
                let mut client = DaemonClient::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(10))).unwrap();
                let data =
                    client.read_region(&RegionSpec::new(&[8, 8], &[16, 16])).unwrap();
                assert_eq!(data.bytes.len(), 16 * 16 * 4);
            });
        }
    });
    assert_daemon_healthy(&daemon);
    daemon.shutdown();
}

#[test]
fn client_surfaces_typed_remote_errors() {
    let daemon = start_daemon();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let err = client
        .read_region(&RegionSpec::new(&[0, 0, 0], &[1, 1, 1]))
        .unwrap_err();
    match err {
        DaemonError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("rank"), "message should name the problem: {message}");
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    daemon.shutdown();
}

/// A client that met a framing error stops there: the bytes left on the
/// socket are not a frame boundary, so reading on would parse garbage
/// as a length prefix. The connection is shut and says so.
#[test]
fn a_framing_error_closes_the_client_instead_of_desyncing_it() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hostile = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert!(matches!(
            read_frame(&mut peer, MAX_REQUEST_FRAME, || true),
            Ok(FrameRead::Frame(_))
        ));
        // A header one byte over the cap, followed by what a client
        // that read on would take for a well-formed `Ack` frame.
        peer.write_all(&(MAX_REPLY_FRAME as u32 + 1).to_le_bytes()).unwrap();
        peer.write_all(&[1, 0, 0, 0, 0x82]).unwrap();
        // The client hangs up instead of sending its next request.
        assert!(matches!(peer.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    });

    let mut client = DaemonClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    match client.stats() {
        Err(DaemonError::FrameTooLarge { declared, max }) => {
            assert_eq!((declared, max), (MAX_REPLY_FRAME as u64 + 1, MAX_REPLY_FRAME as u64));
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(matches!(client.stats(), Err(DaemonError::ConnectionClosed)));
    assert!(matches!(
        client.read_region(&RegionSpec::new(&[0, 0], &[1, 1])),
        Err(DaemonError::ConnectionClosed)
    ));
    hostile.join().unwrap();
}
