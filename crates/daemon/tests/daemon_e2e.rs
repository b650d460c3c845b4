//! End-to-end daemon tests: a real `TcpListener` on loopback, real
//! client connections, and the serve-path invariants the protocol
//! promises — bit-equal data, typed errors for every bad request, an
//! `Overloaded` reply (never a hang) when admission refuses work, and
//! no slot spent on a peer that hung up or stopped reading.

use eblcio_codec::{CodecError, CompressorId, ErrorBound};
use eblcio_daemon::protocol::{read_frame, write_frame, FrameRead};
use eblcio_daemon::{
    AnyReader, ArrayData, Daemon, DaemonClient, DaemonConfig, DaemonError, ErrorCode, RegionSpec,
    Reply, Request, MAX_REPLY_FRAME,
};
use eblcio_data::{Element, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig, ReaderStats};
use eblcio_store::{ChunkedStore, Region};
use eblcio_obs::MetricsRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 32×32 f32 field stored as four 16×16 chunks.
fn four_chunk_stream() -> Vec<u8> {
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| {
        (i[0] as f32 * 0.23).sin() * 40.0 + (i[1] as f32 * 0.31).cos() * 15.0
    });
    let codec = CompressorId::Sz3.instance();
    ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 2)
        .unwrap()
}

/// A 40×40 field of `T` stored as 16×16 chunks: a 3×3 grid whose
/// chunk 4 is interior and whose last row and column are clipped.
fn nine_chunk_stream<T: Element>() -> Vec<u8> {
    let data = NdArray::<T>::from_fn(Shape::d2(40, 40), |i| {
        T::from_f64((i[0] as f64 * 0.19).sin() * 30.0 + (i[1] as f64 * 0.27).cos() * 11.0)
    });
    let codec = CompressorId::Sz3.instance();
    ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(16, 16), 2)
        .unwrap()
}

fn start_daemon(config: DaemonConfig) -> (Daemon, Vec<u8>) {
    let stream = four_chunk_stream();
    let (daemon, _) = start_daemon_over(&stream, config);
    (daemon, stream)
}

/// Serves `stream` and also hands back the reader's registry: the
/// daemon's own histograms in it are how the tests below observe that
/// a request has passed the gate, without sleeping and hoping.
fn start_daemon_over(stream: &[u8], config: DaemonConfig) -> (Daemon, Arc<MetricsRegistry>) {
    let reader = AnyReader::open(stream, ReaderConfig::default()).unwrap();
    let registry = reader.metrics().clone();
    let daemon = Daemon::start(reader, config, "127.0.0.1:0").unwrap();
    (daemon, registry)
}

/// Polls `done` until it holds, failing the test after `limit`.
fn wait_until(what: &str, limit: Duration, done: impl Fn() -> bool) {
    let deadline = Instant::now() + limit;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn served_region_reads_are_bit_equal_to_direct_reads() {
    let (daemon, stream) = start_daemon(DaemonConfig::default());
    let direct = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    for region in [
        Region::new(&[0, 0], &[32, 32]),
        Region::new(&[5, 7], &[20, 18]),
        Region::new(&[16, 16], &[16, 16]),
        Region::new(&[31, 0], &[1, 32]),
    ] {
        let want = direct.read_region(&region).unwrap();
        let got = client.read_region(&RegionSpec::from(&region)).unwrap();
        assert_eq!(got.dtype, 0);
        assert_eq!(got.dims, vec![region.extent()[0] as u64, region.extent()[1] as u64]);
        assert_eq!(
            got.as_f32().unwrap(),
            want.as_slice(),
            "served samples must be bit-equal to an in-process read"
        );
    }

    // Whole chunks too.
    for i in 0..4u64 {
        let want = direct.read_region(&direct.store().grid().chunk_region(i as usize)).unwrap();
        let got = client.read_chunk(i).unwrap();
        assert_eq!(got.as_f32().unwrap(), want.as_slice());
    }
    daemon.shutdown();

    // A chunk read is a region read of the chunk's box: the same reply
    // bytes and the same work in the stats, on an interior and a
    // clipped edge chunk, in both dtypes, with and without a cache.
    // Each chunk is read twice, so a cache's second read is a hit.
    let work = |s: ReaderStats| {
        [s.requests, s.chunks_requested, s.cache_hits, s.cache_misses, s.decodes, s.partial_decodes]
    };
    // The work one request adds, from the stats before and after it.
    let delta = |client: &mut DaemonClient, request: &mut dyn FnMut(&mut DaemonClient) -> ArrayData| {
        let before = work(client.stats().unwrap());
        let reply = request(client);
        let after = work(client.stats().unwrap());
        (reply, std::array::from_fn::<u64, 6, _>(|k| after[k] - before[k]))
    };
    for stream in [nine_chunk_stream::<f32>(), nine_chunk_stream::<f64>()] {
        let store = ChunkedStore::open(&stream).unwrap();
        for capacity_bytes in [CacheConfig::default().capacity_bytes, 0] {
            let config = ReaderConfig { cache: CacheConfig { capacity_bytes }, threads: 2 };
            let serve = || {
                let reader = AnyReader::open(&stream, config).unwrap();
                let daemon = Daemon::start(reader, DaemonConfig::default(), "127.0.0.1:0").unwrap();
                let client = DaemonClient::connect(daemon.local_addr()).unwrap();
                (daemon, client)
            };
            let (by_chunk, mut chunk_client) = serve();
            let (by_region, mut region_client) = serve();
            for i in [4usize, 8, 4, 8] {
                let what = format!("chunk {i}, dtype {}, cache {capacity_bytes}", store.dtype());
                let region = store.grid().chunk_region(i);
                let (got, chunk_work) =
                    delta(&mut chunk_client, &mut |c| c.read_chunk(i as u64).unwrap());
                let (want, region_work) = delta(&mut region_client, &mut |c| {
                    c.read_region(&RegionSpec::from(&region)).unwrap()
                });
                assert_eq!(got, want, "{what}");
                let extent: Vec<u64> = region.extent().iter().map(|&e| e as u64).collect();
                assert_eq!(got.dims, extent, "{what}");
                assert_eq!(chunk_work, region_work, "{what}");
                assert_eq!(chunk_work[..2], [1, 1], "{what}");
                if capacity_bytes == 0 {
                    assert_eq!(chunk_work[4..], [1, 0], "{what}: a whole chunk decodes whole");
                }
            }
            by_chunk.shutdown();
            by_region.shutdown();
        }
    }
}

#[test]
fn batched_regions_come_back_in_request_order() {
    let (daemon, stream) = start_daemon(DaemonConfig::default());
    let direct = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let regions: Vec<Region> = (0..4)
        .map(|i| Region::new(&[(i / 2) * 16, (i % 2) * 16], &[16, 16]))
        .collect();
    let specs: Vec<RegionSpec> = regions.iter().map(RegionSpec::from).collect();
    let items = client.batch(&specs).unwrap();
    assert_eq!(items.len(), regions.len());
    for (item, region) in items.iter().zip(&regions) {
        let want = direct.read_region(region).unwrap();
        assert_eq!(item.as_f32().unwrap(), want.as_slice());
    }
    daemon.shutdown();
}

#[test]
fn stats_and_metrics_frames_reflect_served_work() {
    let (daemon, _) = start_daemon(DaemonConfig::default());
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let before = client.stats().unwrap();
    client
        .read_region(&RegionSpec::new(&[0, 0], &[32, 32]))
        .unwrap();
    client.prefetch(&RegionSpec::new(&[0, 0], &[16, 16])).unwrap();
    let after = client.stats().unwrap();
    assert_eq!(after.requests, before.requests + 1);
    assert!(after.cache_misses > before.cache_misses);

    let exposition = client.metrics().unwrap();
    assert!(exposition.contains("# TYPE eblcio_serve_cache_hits_total counter"));
    assert!(
        exposition.contains("# TYPE eblcio_daemon_requests_total counter"),
        "daemon counters must ride in the reader's registry:\n{exposition}"
    );
    // The reply leaves in one write, timed and counted where it does.
    assert!(exposition.contains("# TYPE eblcio_daemon_reply_write_ns histogram"));
    assert!(exposition.contains("# TYPE eblcio_daemon_reply_bytes_total counter"));
    // Every daemon counter the protocol promises is present.
    for name in [
        "eblcio_daemon_connections_total",
        "eblcio_daemon_overloaded_total",
        "eblcio_daemon_malformed_total",
    ] {
        assert!(exposition.contains(name), "missing {name}");
    }
    daemon.shutdown();
}

#[test]
fn bad_requests_get_typed_errors_and_the_connection_survives() {
    let (daemon, _) = start_daemon(DaemonConfig::default());
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let expect_bad = |r: Result<_, DaemonError>| match r {
        Err(DaemonError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    };

    // Out of bounds, rank mismatch, zero extent, absurd chunk index,
    // and the gated test opcode — each a typed reply, none fatal.
    expect_bad(client.read_region(&RegionSpec::new(&[0, 0], &[33, 32])).map(|_| ()));
    expect_bad(client.read_region(&RegionSpec::new(&[0], &[32])).map(|_| ()));
    expect_bad(client.read_region(&RegionSpec::new(&[0, 0], &[0, 4])).map(|_| ()));
    expect_bad(client.read_region(&RegionSpec::new(&[u64::MAX, 0], &[1, 1])).map(|_| ()));
    expect_bad(client.read_chunk(4).map(|_| ()));
    expect_bad(client.read_chunk(u64::MAX).map(|_| ()));
    expect_bad(client.test_delay(1));

    // The connection is still good for real work afterwards.
    let data = client.read_region(&RegionSpec::new(&[0, 0], &[16, 16])).unwrap();
    assert_eq!(data.bytes.len(), 16 * 16 * 4);
    daemon.shutdown();
}

/// The admission contract: with one worker occupied and a queue of
/// one filled, the next request is answered `Overloaded` immediately —
/// not queued, not hung.
#[test]
fn saturation_returns_typed_overloaded_immediately() {
    let (daemon, _) = start_daemon(DaemonConfig {
        workers: 1,
        queue_depth: 1,
        test_ops: true,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();

    // Occupy the worker, then fill the queue slot — staggered, so the
    // first slow request is already on the worker when the second is
    // admitted to the queue.
    let mut busy = Vec::new();
    for _ in 0..2 {
        busy.push(std::thread::spawn(move || {
            let mut c = DaemonClient::connect(addr).unwrap();
            c.test_delay(1500)
        }));
        std::thread::sleep(Duration::from_millis(250));
    }

    let mut probe = DaemonClient::connect(addr).unwrap();
    let start = Instant::now();
    let err = probe.stats().unwrap_err();
    let latency = start.elapsed();
    assert!(
        err.is_overloaded(),
        "saturated daemon must reply Overloaded, got {err:?}"
    );
    assert!(
        latency < Duration::from_millis(500),
        "overload reply must be immediate, took {latency:?}"
    );

    // The slow requests complete normally — shedding is per-request.
    for h in busy {
        h.join().unwrap().unwrap();
    }
    // And once drained, the same connection serves again.
    probe.stats().unwrap();
    daemon.shutdown();
}

#[test]
fn connection_limit_is_shed_with_a_typed_reply() {
    let (daemon, _) = start_daemon(DaemonConfig {
        max_connections: 2,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let mut a = DaemonClient::connect(addr).unwrap();
    let mut b = DaemonClient::connect(addr).unwrap();
    // Prove both are registered (their conn threads are live).
    a.stats().unwrap();
    b.stats().unwrap();

    // The third connect is accepted at the TCP level, answered with a
    // typed Overloaded frame, and closed — read it without writing.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match eblcio_daemon::protocol::read_frame(&mut raw, eblcio_daemon::MAX_REPLY_FRAME, || true)
        .unwrap()
    {
        eblcio_daemon::protocol::FrameRead::Frame(p) => {
            match eblcio_daemon::Reply::decode(&p).unwrap() {
                eblcio_daemon::Reply::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Overloaded)
                }
                other => panic!("expected Overloaded error, got {other:?}"),
            }
        }
        other => panic!("expected a frame, got {other:?}"),
    }

    // Dropping one client frees a slot for a newcomer.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = loop {
        let mut c = DaemonClient::connect(addr).unwrap();
        match c.stats() {
            Ok(_) => break c,
            // The freed slot appears once the server reaps the closed
            // connection; retry until then.
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50))
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    };
    c.metrics().unwrap();
    let _ = b;
    daemon.shutdown();
}

#[test]
fn many_concurrent_clients_all_read_correct_data() {
    let (daemon, stream) = start_daemon(DaemonConfig::default());
    let direct = ArrayReader::<f32>::open(&stream, ReaderConfig::default()).unwrap();
    let addr = daemon.local_addr();

    let regions: Vec<Region> = (0..4)
        .map(|i| Region::new(&[(i / 2) * 16, (i % 2) * 16], &[16, 16]))
        .collect();
    let expected: Vec<Vec<f32>> = regions
        .iter()
        .map(|r| direct.read_region(r).unwrap().as_slice().to_vec())
        .collect();

    std::thread::scope(|s| {
        for t in 0..32usize {
            let regions = &regions;
            let expected = &expected;
            s.spawn(move || {
                let mut client = DaemonClient::connect(addr).unwrap();
                for round in 0..4 {
                    let i = (t + round) % regions.len();
                    let got = client.read_region(&RegionSpec::from(&regions[i])).unwrap();
                    assert_eq!(got.as_f32().unwrap(), expected[i]);
                }
            });
        }
    });
    daemon.shutdown();
}

#[test]
fn shutdown_is_prompt_even_with_idle_connections() {
    let (daemon, _) = start_daemon(DaemonConfig::default());
    let addr = daemon.local_addr();
    // Park idle connections the daemon must unblock itself from.
    let mut idle = Vec::new();
    for _ in 0..4 {
        let mut c = DaemonClient::connect(addr).unwrap();
        c.stats().unwrap();
        idle.push(c);
    }
    let start = Instant::now();
    daemon.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must not wait out idle connections, took {:?}",
        start.elapsed()
    );
    // Idle clients now see a closed connection, not a hang.
    let mut c = idle.pop().unwrap();
    c.set_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(c.stats().is_err());
}

/// A request that had to park is not run once its peer is gone: the
/// thread that would run it is the connection's own, and it looks at
/// its socket before spending the slot.
#[test]
fn a_parked_request_whose_peer_hung_up_is_not_served() {
    let (daemon, registry) = start_daemon_over(
        &four_chunk_stream(),
        DaemonConfig {
            workers: 1,
            queue_depth: 2,
            test_ops: true,
            ..DaemonConfig::default()
        },
    );
    let addr = daemon.local_addr();
    let admitted = registry.histogram("eblcio_daemon_admission_wait_ns");
    let mut probe = DaemonClient::connect(addr).unwrap();
    let before = probe.stats().unwrap();

    // Occupy the only slot, and wait until the delay really holds it.
    let passed_gate = admitted.count();
    let busy = std::thread::spawn(move || {
        let mut c = DaemonClient::connect(addr).unwrap();
        c.test_delay(400)
    });
    wait_until("the delay holds the slot", Duration::from_secs(10), || {
        admitted.count() > passed_gate
    });

    // A whole ReadRegion frame, then a hang-up: the request parks
    // behind the delay with nobody left to read its reply.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let frame = Request::ReadRegion(RegionSpec::new(&[0, 0], &[32, 32])).encode();
    write_frame(&mut raw, &frame).unwrap();
    drop(raw);

    busy.join().unwrap().unwrap();
    wait_until("only the probe is connected", Duration::from_secs(10), || {
        daemon.active_connections() == 1
    });
    let after = probe.stats().unwrap();
    assert_eq!(after.requests, before.requests, "the orphaned read reached the reader");
    assert_eq!(after.cache_misses, before.cache_misses);
    daemon.shutdown();
}

/// A peer that stops reading a large reply costs its own connection
/// thread for the write timeout and never an execution slot: with one
/// slot, another client is served at full speed meanwhile.
#[test]
fn a_slow_reader_costs_a_connection_never_a_slot() {
    const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
    // 2048 × 2048 f32 = 16 MiB decoded, asked for four times in one
    // batch: a 64 MiB reply is more than loopback socket buffers hold
    // (Linux grows an unread receive queue to `tcp_rmem[2]`, 32 MiB
    // where this was written), so the unread reply stalls its writer.
    let data = NdArray::<f32>::from_fn(Shape::d2(2048, 2048), |i| {
        (i[0] as f32 * 0.011).sin() * 30.0 + (i[1] as f32 * 0.007).cos() * 12.0
    });
    let codec = CompressorId::Szx.instance();
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), Shape::d2(256, 2048), 2)
            .unwrap();
    let (daemon, registry) = start_daemon_over(
        &stream,
        DaemonConfig {
            workers: 1,
            read_timeout: WRITE_TIMEOUT,
            ..DaemonConfig::default()
        },
    );
    let addr = daemon.local_addr();
    let served = registry.histogram("eblcio_daemon_service_ns");

    // Client A asks for the whole array and never reads a byte.
    let mut a = std::net::TcpStream::connect(addr).unwrap();
    let whole = RegionSpec::new(&[0, 0], &[2048, 2048]);
    let frame = Request::Batch(vec![whole; 4]).encode();
    write_frame(&mut a, &frame).unwrap();
    wait_until("A's request has been executed", Duration::from_secs(60), || {
        served.count() == 1
    });

    // A is now stuck writing 64 MiB nobody reads. B's reads go through
    // the single slot without waiting out A's write timeout.
    let mut b = DaemonClient::connect(addr).unwrap();
    let start = Instant::now();
    for row in 0..8u64 {
        let got = b.read_region(&RegionSpec::new(&[row * 256, 0], &[16, 16])).unwrap();
        assert_eq!(got.bytes.len(), 16 * 16 * 4);
    }
    let took = start.elapsed();
    assert!(took < WRITE_TIMEOUT, "B was held up behind A's unread reply: {took:?}");
    assert_eq!(daemon.active_connections(), 2, "A should still be stalled in its write");

    // The write timeout, not A, ends A's connection — after a few
    // periods, since each send that moves a little more restarts it.
    wait_until("A's connection is dropped", WRITE_TIMEOUT * 15, || {
        daemon.active_connections() == 1
    });
    b.stats().unwrap();
    drop(a);
    daemon.shutdown();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Sends one request over a raw socket and returns the reply frame's
/// payload exactly as the server wrote it.
fn raw_exchange(raw: &mut std::net::TcpStream, request: &Request) -> Vec<u8> {
    write_frame(raw, &request.encode()).unwrap();
    match read_frame(raw, MAX_REPLY_FRAME, || true).unwrap() {
        FrameRead::Frame(p) => p,
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// The wire format did not move by a byte when the reply path stopped
/// going through `Reply::encode`: the payloads below were recorded from
/// `Reply::Data(reader.read_{region,chunk}_data(..)).encode()` at the
/// commit before the server began assembling frames in place, over this
/// exact store (an 8×8 f32 ramp in 4×4 SZx chunks — integers and halves
/// only, so no libm in the data).
#[test]
fn served_frames_are_byte_identical_to_the_recorded_ones() {
    const REGION_3_2_2X3: &str = "8100020200000000000000030000000000000018000000000000000000204100002841\
                                  00003041000060410000684100007041";
    const CHUNK_3: &str = "81000204000000000000000400000000000000400000000000000000007041000078410000804100008441\
                           0000984100009c410000a0410000a4410000b8410000bc410000c0410000c4410000d8410000dc410000e0\
                           410000e441";
    let data = NdArray::<f32>::from_fn(Shape::d2(8, 8), |i| (i[0] * 8 + i[1]) as f32 * 0.5 - 3.0);
    let codec = CompressorId::Szx.instance();
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Absolute(1e-3), Shape::d2(4, 4), 1)
            .unwrap();
    let (daemon, _) = start_daemon_over(&stream, DaemonConfig::default());
    let mut raw = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let spec = RegionSpec::new(&[3, 2], &[2, 3]);
    let region = raw_exchange(&mut raw, &Request::ReadRegion(spec.clone()));
    assert_eq!(hex(&region), REGION_3_2_2X3);
    let chunk = raw_exchange(&mut raw, &Request::ReadChunk { index: 3 });
    assert_eq!(hex(&chunk), CHUNK_3);
    // A batch is its count followed by the same `Data` bodies.
    let batch = raw_exchange(&mut raw, &Request::Batch(vec![spec.clone(), spec]));
    let body = &region[1..];
    assert_eq!(batch, [&[0x85, 2, 0, 0, 0][..], body, body].concat());
    // And the allocating encoder still writes the same bytes.
    for payload in [&region, &chunk, &batch] {
        assert_eq!(&Reply::decode(payload).unwrap().encode(), payload);
    }
    daemon.shutdown();
}

/// The reply cap is enforced where the reply would be built: a batch
/// whose frame the client would refuse is turned down from its geometry
/// alone, before the reader assembles a single sample.
#[test]
fn a_reply_over_the_frame_cap_is_refused_before_any_sample_is_assembled() {
    let data = NdArray::<f32>::from_fn(Shape::d2(512, 512), |i| (i[0] + i[1]) as f32 * 0.125);
    let codec = CompressorId::Szx.instance();
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Absolute(1e-3), Shape::d2(128, 512), 2)
            .unwrap();
    let (daemon, _) = start_daemon_over(&stream, DaemonConfig::default());
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let whole = RegionSpec::new(&[0, 0], &[512, 512]);
    let before = client.stats().unwrap();

    // 300 × 1 MiB > the 256 MiB cap.
    let start = Instant::now();
    match client.batch(&vec![whole.clone(); 300]) {
        Err(DaemonError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("reply would exceed"), "{message}");
        }
        other => panic!("expected BadRequest, got {:?}", other.map(|v| v.len())),
    }
    assert!(start.elapsed() < Duration::from_secs(2), "refusal took {:?}", start.elapsed());
    let after = client.stats().unwrap();
    assert_eq!(after.requests, before.requests, "the refused batch reached the reader");
    assert_eq!(after.chunks_requested, before.chunks_requested);

    // The same connection serves what does fit.
    assert_eq!(client.read_region(&whole).unwrap().bytes.len(), 512 * 512 * 4);
    assert_eq!(client.batch(&[whole.clone(), whole]).unwrap().len(), 2);
    daemon.shutdown();
}

/// `read_region_into` delivers the same samples as `read_region`, into
/// the caller's array; a buffer of the wrong shape is refused before
/// anything is sent, one of the wrong dtype before any sample is
/// written (and, the samples being left unread, costs the connection).
#[test]
fn read_region_into_fills_the_callers_array_or_fails_typed() {
    let (daemon, _) = start_daemon(DaemonConfig::default());
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let spec = RegionSpec::new(&[5, 7], &[20, 18]);
    let want = client.read_region(&spec).unwrap().as_f32().unwrap();
    let mut out = NdArray::<f32>::from_fn(Shape::d2(20, 18), |_| f32::NAN);
    client.read_region_into(&spec, &mut out).unwrap();
    assert_eq!(out.as_slice(), want);

    // Typed server errors pass through and leave the connection usable.
    let mut off = NdArray::<f32>::zeros(Shape::d2(2, 2));
    match client.read_region_into(&RegionSpec::new(&[31, 31], &[2, 2]), &mut off) {
        Err(DaemonError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Wrong shape: caught locally, nothing sent, nothing written.
    let mut small = NdArray::<f32>::from_fn(Shape::d2(20, 17), |_| -1.0);
    match client.read_region_into(&spec, &mut small) {
        Err(DaemonError::Codec(CodecError::Corrupt { .. })) => {}
        other => panic!("expected a buffer-shape error, got {other:?}"),
    }
    assert!(small.as_slice().iter().all(|&v| v == -1.0));
    client.read_region_into(&spec, &mut out).unwrap();

    // Wrong dtype: known only from the reply header.
    let mut wide = NdArray::<f64>::from_fn(Shape::d2(20, 18), |_| -1.0);
    match client.read_region_into(&spec, &mut wide) {
        Err(DaemonError::Codec(CodecError::DtypeMismatch { expected, got })) => {
            assert_eq!((expected, got), ("f32", "f64"));
        }
        other => panic!("expected DtypeMismatch, got {other:?}"),
    }
    assert!(wide.as_slice().iter().all(|&v| v == -1.0));
    assert!(matches!(client.stats(), Err(DaemonError::ConnectionClosed)));
    daemon.shutdown();
}
