//! # eblcio
//!
//! Facade crate for the reproduction of *"To Compress or Not To
//! Compress: Energy Trade-Offs and Benefits of Lossy Compressed I/O"*
//! (Wilkins et al., IPDPS 2025).
//!
//! The workspace implements, from scratch in Rust, everything the paper's
//! empirical study rests on:
//!
//! * [`codec`] — the five error-bounded lossy compressors (SZ2, SZ3,
//!   ZFP, QoZ, SZx) as composable codec chains (array stage + byte
//!   stages, serializable [`ChainSpec`](codec::ChainSpec)s)
//!   plus the Figure 1 lossless baselines,
//! * [`data`] — SDRBench-analog data sets and quality metrics,
//! * [`energy`] — RAPL-style energy measurement and CPU power models,
//! * [`pfs`] — a Lustre-like parallel file system simulator with
//!   HDF5-lite and NetCDF-lite writers,
//! * [`cluster`] — the multi-node MPI-style compression + write harness,
//! * [`core`] — the §III benefit framework (Eqs. 3–5), campaign runner,
//!   and the "to compress or not" advisor,
//! * [`store`] — the chunked compressed array container (zarr-style
//!   chunk grid + manifest) with partial region reads, per-chunk codec
//!   chains (mixed and adaptive stores), `EBSH` shard packing for
//!   large chunk counts, and *mutable* stores
//!   ([`MutableStore`](store::MutableStore)): copy-on-write chunk
//!   updates published as crash-consistent manifest generations, with
//!   time travel and compaction — all routed through pluggable
//!   [`Storage`](store::Storage) backends (filesystem, memory, and a
//!   simulated object store with a request/byte cost model),
//! * [`serve`] — the concurrent read-serving subsystem: shared
//!   [`ArrayReader`](serve::ArrayReader) handles with a decoded-chunk
//!   LRU cache, single-flight decode, parallel region assembly,
//!   prefetch, and generation-aware `refresh()` with per-chunk cache
//!   invalidation,
//! * [`daemon`] — the `eblcio serve` network daemon: a length-prefixed
//!   binary protocol over TCP ([`Daemon`](daemon::Daemon) /
//!   [`DaemonClient`](daemon::DaemonClient)) serving region and chunk
//!   reads on each connection's own thread behind one bounded
//!   admission gate (typed `Overloaded` replies under saturation, never
//!   a hang), with a
//!   `metrics` frame exposing the Prometheus exposition.
//!
//! ## Quickstart
//!
//! ```
//! use eblcio::prelude::*;
//!
//! // A small NYX-like cosmology field.
//! let data = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
//!
//! // Compress with SZ3 at a 1e-3 value-range relative bound. The five
//! // paper codecs are preset codec chains behind the Compressor trait.
//! let codec = CompressorId::Sz3.instance();
//! let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(1e-3)).unwrap();
//!
//! // The bound is honoured and the ratio is large on smooth data
//! // (asking for `f64` here would be a typed `DtypeMismatch`).
//! let back: NdArray<f32> = decompress(codec.as_ref(), &stream).unwrap();
//! assert!(max_rel_error(data.as_f32(), &back) <= 1e-3);
//! assert!(data.nbytes() / stream.len() > 10);
//!
//! // Chains compose: swap SZ3's LZ backend for a Blosc-style
//! // shuffle+LZ pipeline with the `array[+byte…]` grammar. Streams are
//! // self-describing, so the generic decoder routes by header alone.
//! let chain = ChainSpec::parse("sz3+shuffle4+lz").unwrap().build().unwrap();
//! let stream = compress_dataset(&chain, &data, ErrorBound::Relative(1e-3)).unwrap();
//! let back = decompress_any(&stream).unwrap();
//! assert!(max_rel_error(data.as_f32(), back.as_f32()) <= 1e-3);
//! ```

#![forbid(unsafe_code)]

pub use eblcio_cluster as cluster;
pub use eblcio_codec as codec;
pub use eblcio_core as core;
pub use eblcio_daemon as daemon;
pub use eblcio_data as data;
pub use eblcio_energy as energy;
pub use eblcio_obs as obs;
pub use eblcio_pfs as pfs;
pub use eblcio_serve as serve;
pub use eblcio_store as store;

pub mod inspect;

/// Commonly used items, importable with `use eblcio::prelude::*;`.
pub mod prelude {
    pub use eblcio_codec::{
        compress, compress_dataset, compress_parallel, compress_view, decompress, decompress_any,
        decompress_parallel, decompress_region, parallel_stream_info, ByteStageSpec, ChainSpec,
        CodecChain, Compressor, CompressorId, ErrorBound,
    };
    pub use eblcio_data::{
        compression_ratio, dispatch_dtype, max_rel_error, psnr, ArrayView, Dataset, DatasetKind,
        DatasetSpec, DatasetView, Element, NdArray, QualityReport, Shape,
    };
    pub use eblcio_data::generators::Scale;
    pub use eblcio_daemon::{
        AnyReader, Daemon, DaemonClient, DaemonConfig, DaemonError, RegionSpec,
    };
    pub use eblcio_serve::{
        ArrayReader, CacheConfig, PrefetchPolicy, ReaderConfig, ReaderStats, RefreshStats,
    };
    pub use eblcio_codec::CodecError;
    pub use eblcio_store::{
        named_backend, ByteRange, ChunkedStore, FaultPlan, FaultyStorage, FilesystemStorage,
        MemoryStorage, MeteredStorage, MutableStore, ObjectCostModel, ObjectStoreStats, Region,
        SimulatedObjectStorage, Storage, StoreWriter,
    };
    pub use eblcio_obs::{MetricsRegistry, Stopwatch};
}
