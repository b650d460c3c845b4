//! The dtype seam, end to end: every container that records a dtype
//! tag turns a wrong-`T` read into a typed `DtypeMismatch` before any
//! codec stage runs. (Its own test binary: it reads the process-global
//! decode clocks, which concurrent tests would tick.)

use eblcio::prelude::*;

#[test]
fn wrong_element_type_is_a_typed_mismatch_on_every_container_and_decodes_nothing() {
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 24), |i| {
        (i[0] as f32 * 0.3).sin() * 9.0 + i[1] as f32 * 0.25
    });
    let stages = ["szx", "shuffle4", "lz"];
    let chain = ChainSpec::parse(&stages.join("+")).unwrap().build().unwrap();
    let bound = ErrorBound::Relative(1e-3);
    let eblc = compress(&chain, &data, bound).unwrap();
    let ebcs = ChunkedStore::write(&chain, &data, bound, Shape::d2(16, 12), 2).unwrap();
    let store = ChunkedStore::open(&ebcs).unwrap();
    let region = Region::new(&[4, 4], &[8, 8]);

    let decodes = || -> u64 {
        stages
            .iter()
            .map(|s| eblcio::obs::global().histogram(&format!("eblcio_codec_{s}_decode_ns")).count())
            .sum()
    };
    let before = decodes();
    let wrong: [(&str, CodecError); 6] = [
        ("EBLC", decompress::<f64>(&chain, &eblc).unwrap_err()),
        ("EBLC region", decompress_region::<f64>(&chain, &eblc, &[0, 0], &[2, 2]).unwrap_err()),
        ("ChunkedStore full", store.read_full::<f64>(2).unwrap_err()),
        ("ChunkedStore chunk", store.decode_chunk::<f64>(&chain, 0).unwrap_err()),
        ("ChunkedStore region", store.read_region::<f64>(&region).unwrap_err()),
        (
            "ArrayReader",
            ArrayReader::<f64>::over(ChunkedStore::open(&ebcs).unwrap(), ReaderConfig::default())
                .err()
                .expect("an f64 reader over an f32 store"),
        ),
    ];
    for (container, err) in wrong {
        assert_eq!(
            err,
            CodecError::DtypeMismatch { expected: "f32", got: "f64" },
            "{container}"
        );
    }
    assert_eq!(decodes(), before, "a refused read must not reach a codec stage");

    // The right `T` reads the same containers.
    let whole: NdArray<f32> = decompress(&chain, &eblc).unwrap();
    assert_eq!(store.read_full::<f32>(2).unwrap().shape(), whole.shape());
    let reader = ArrayReader::<f32>::over(store, ReaderConfig::default()).unwrap();
    assert_eq!(reader.read_region(&region).unwrap().shape(), region.shape());
    assert!(decodes() > before);
}
