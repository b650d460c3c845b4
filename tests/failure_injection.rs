//! Failure-injection tests: corrupted and truncated streams must fail
//! loudly, and degraded storage must degrade gracefully.

use eblcio::prelude::*;
use eblcio_energy::CpuGeneration;
use eblcio_pfs::{IoRequest, IoToolKind, PfsSim};

fn stream_for(id: CompressorId) -> (Dataset, Vec<u8>) {
    let data = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
    let codec = id.instance();
    let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap();
    (data, stream)
}

#[test]
fn truncated_streams_rejected_for_every_codec() {
    for id in CompressorId::ALL {
        let (_, stream) = stream_for(id);
        let codec = id.instance();
        for frac in [0usize, 1, 4, 9] {
            let cut = stream.len() * frac / 10;
            assert!(
                decompress::<f32>(codec.as_ref(), &stream[..cut]).is_err(),
                "{} accepted a {frac}0% prefix",
                id.name()
            );
        }
        // One byte short must also fail.
        assert!(decompress::<f32>(codec.as_ref(), &stream[..stream.len() - 1]).is_err());
    }
}

#[test]
fn payload_corruption_detected_by_checksum() {
    for id in CompressorId::ALL {
        let (_, stream) = stream_for(id);
        let codec = id.instance();
        // Flip a byte well inside the payload region.
        let mut bad = stream.clone();
        let pos = stream.len() - stream.len() / 4 - 1;
        bad[pos] ^= 0xff;
        assert!(
            decompress::<f32>(codec.as_ref(), &bad).is_err(),
            "{} accepted corrupted payload",
            id.name()
        );
    }
}

#[test]
fn cross_codec_streams_rejected() {
    let ids = CompressorId::ALL;
    let streams: Vec<Vec<u8>> = ids.iter().map(|&id| stream_for(id).1).collect();
    for (i, &id) in ids.iter().enumerate() {
        let codec = id.instance();
        for (j, s) in streams.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                decompress::<f32>(codec.as_ref(), s).is_err(),
                "{} accepted a {} stream",
                id.name(),
                ids[j].name()
            );
        }
    }
}

#[test]
fn garbage_input_rejected() {
    let codec = CompressorId::Sz2.instance();
    assert!(decompress::<f32>(codec.as_ref(), b"").is_err());
    assert!(decompress::<f32>(codec.as_ref(), b"not a stream at all").is_err());
    let mut zeros = vec![0u8; 1024];
    assert!(decompress::<f32>(codec.as_ref(), &zeros).is_err());
    zeros[..4].copy_from_slice(b"EBLC");
    assert!(decompress::<f32>(codec.as_ref(), &zeros).is_err());
}

#[test]
fn nan_and_inf_inputs_rejected_by_every_codec() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut arr = NdArray::<f32>::zeros(Shape::d2(16, 16));
        arr.as_mut_slice()[100] = bad;
        let data = Dataset::F32(arr);
        for id in CompressorId::ALL {
            let codec = id.instance();
            assert!(
                compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).is_err(),
                "{} accepted {bad}",
                id.name()
            );
        }
    }
}

#[test]
fn corrupt_containers_rejected_by_both_tools() {
    use eblcio_pfs::format::DataObject;
    for tool in IoToolKind::ALL {
        let obj = DataObject::opaque("x", vec![1, 2, 3, 4]);
        let img = tool.serialize(std::slice::from_ref(&obj));
        // Magic corruption.
        let mut bad = img.clone();
        bad[0] ^= 0x40;
        assert!(tool.deserialize(&bad).is_err(), "{}", tool.name());
        // Truncations.
        for cut in [0, 1, img.len() / 2, img.len() - 1] {
            assert!(tool.deserialize(&img[..cut]).is_err(), "{} cut {cut}", tool.name());
        }
    }
}

#[test]
fn degraded_pfs_slows_but_still_functions() {
    let profile = CpuGeneration::Skylake8160.profile();
    let req = IoRequest {
        payload_bytes: 1 << 26,
        meta_bytes: 0,
        ops: 1,
        efficiency: 0.9,
    };
    let healthy = PfsSim::new(8, 1.0);
    let mut degraded = PfsSim::new(8, 1.0);
    degraded.degrade(6);
    let h = healthy.write(&req, &profile);
    let d = degraded.write(&req, &profile);
    assert!(d.seconds.value() > 2.0 * h.seconds.value());
    assert!(d.cpu_energy.value() > 2.0 * h.cpu_energy.value());
    // Still produces a valid, finite measurement.
    assert!(d.seconds.value().is_finite());
    assert!(d.bandwidth_bps > 0.0);
}

/// The OpenMP-mode container — an `EBCS` store of one dimension-0 slab
/// per thread — refuses a wrong element type, truncations and trailing
/// bytes.
#[test]
fn parallel_container_rejects_mixed_and_truncated() {
    let data = DatasetSpec::new(DatasetKind::Cesm, Scale::Tiny).generate();
    let data = data.as_f32();
    let mut slab = data.shape().dims().to_vec();
    slab[0] = slab[0].div_ceil(4);
    let sz3 = CompressorId::Sz3.instance();
    let stream = ChunkedStore::write(
        sz3.as_ref(),
        data,
        ErrorBound::Relative(1e-3),
        Shape::new(&slab),
        4,
    )
    .unwrap();
    let read = |s: &[u8]| ChunkedStore::open(s).and_then(|st| st.read_full::<f32>(4));
    assert_eq!(read(&stream).unwrap().shape(), data.shape());
    // Wrong dtype.
    let store = ChunkedStore::open(&stream).unwrap();
    assert!(matches!(store.read_full::<f64>(4), Err(CodecError::DtypeMismatch { .. })));
    // Truncated in the manifest, in a slab and before the last byte.
    for cut in [0, 8, stream.len() / 3, stream.len() - 2] {
        assert!(read(&stream[..cut]).is_err(), "cut {cut}");
    }
    // Trailing garbage.
    let mut padded = stream.clone();
    padded.extend_from_slice(b"junk");
    assert!(ChunkedStore::open(&padded).is_err());
}
