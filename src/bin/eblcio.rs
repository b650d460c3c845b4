//! `eblcio` — command-line front end for the EBLC codecs.
//!
//! ```text
//! eblcio compress   --codec sz3 --eps 1e-3 --dtype f32 --dims 512x512x512 in.raw out.eblc
//! eblcio compress   --chain sz3+shuffle4+lz --eps 1e-3 --dims 64x64 in.raw out.eblc
//! eblcio compress   --codec szx --eps 1e-3 --dims 64x64 --chunk 16x16 --shard 4 in.raw out.ebcs
//! eblcio compress   --codec szx --eps 1e-3 --dims 64x64 --chunk 16x16 --mutable in.raw out.ebms
//! eblcio decompress in.eblc out.raw
//! eblcio inspect    [--json] in.eblc    # EBLC/EBLP streams, EBCS stores, EBMS mutable files
//! eblcio query      out.ebcs --origin 0x0 --extent 16x16 --repeat 8 --clients 4
//! eblcio serve      out.ebcs --addr 127.0.0.1:7979 --workers 8 --queue-depth 64
//! eblcio update     out.ebms --origin 0x0 --extent 16x16 region.raw
//! eblcio compact    out.ebms
//! eblcio demo       [dataset]           # synthesize, compress with all codecs, report
//! ```
//!
//! Raw files are flat little-endian sample arrays (the layout SDRBench
//! distributes); compressed files are self-describing `EBLC` streams or
//! `EBCS` chunked stores (`--chunk` switches compress to store output,
//! `--shard` additionally packs chunks into `EBSH` shard objects,
//! `--mutable` wraps the store as generation 1 of an `EBMS` mutable
//! file). `--chain` accepts the stage grammar `array[+byte…]` (`sz3`,
//! `sz3+raw`, `szx+fpc4`, `sz2+shuffle4+lz`). `query` serves repeated
//! region reads through an `ArrayReader` and reports throughput plus
//! cache behaviour; it serves the current generation of `EBMS` files.
//! `serve` exposes the same reader over TCP (the `eblcio_daemon`
//! length-prefixed protocol): each connection's thread answers its own
//! `read_region`/`read_chunk`/`prefetch`/`stats` frames plus a
//! `metrics` frame carrying the Prometheus exposition; at most
//! `--workers` requests execute at once and `--queue-depth` wait behind
//! them, and when both are full it replies with a typed `Overloaded`
//! error instead of queueing unboundedly.
//! `update` writes a region through re-compression (copy-on-write: a
//! new generation is published, old generations stay readable) and
//! `compact` reclaims the dead bytes updates strand.
//!
//! Each subcommand accepts exactly the flags in its [`COMMANDS`] entry;
//! any other `--flag` is a usage error (exit 2) that names it.
//!
//! `compress`, `inspect`, `query`, `serve`, and `update` additionally
//! accept `--backend <fs|memory|object|object-fs>`: store objects are then
//! read and written through the named `Storage` backend (file name as
//! the object key, file directory as the backend root). The `object*`
//! backends simulate an object store — requests, transferred bytes,
//! simulated latency, and a dollar bill are reported after the command.
//! In-place `update` through a backend publishes via the backing write
//! path (append + root flip), the same protocol the fault-injection
//! suites cut byte-by-byte.
//!
//! `query --metrics` (or `EBLCIO_METRICS=1`) turns the telemetry layer
//! on: per-pass p50/p99 request latency columns, the full
//! `eblcio_obs` percentile report for the reader and the process-wide
//! registry, and a Prometheus text exposition. With telemetry on,
//! `--backend` storage is additionally wrapped in [`MeteredStorage`]
//! so per-op latency/byte histograms ride along, and
//! `EBLCIO_OBS_DUMP=<path>` writes the flight recorder's recent span
//! events as JSON lines. `inspect --json` appends a `metrics` block to
//! its document when telemetry is enabled.

use eblcio::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match Args::parse(command, &argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match (command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  eblcio compress --codec <sz2|sz3|zfp|qoz|szx> | --chain <spec> \
     --eps <rel> --dtype <f32|f64> --dims <AxBxC> \
     [--chunk <AxBxC> [--shard <chunks> | --mutable]] <in.raw> <out.eblc|out.ebcs|out.ebms>\n  \
     eblcio decompress <in.eblc> <out.raw>\n  \
     eblcio inspect [--json] <in.eblc|in.eblp|in.ebcs|in.ebms>\n  \
     eblcio query <in.ebcs|in.ebms> --origin <AxBxC> --extent <AxBxC> \
     [--repeat <n>] [--clients <n>] [--threads <n>] [--cache-mb <n>] \
     [--prefetch <chunks>] [--metrics]\n  \
     eblcio serve <in.ebcs|in.ebms> [--addr <host:port>] [--workers <n>] \
     [--queue-depth <n>] [--max-conns <n>] [--cache-mb <n>] [--threads <n>] \
     [--prefetch <chunks>] [--test-ops]\n  \
     eblcio update <store.ebms> --origin <AxBxC> --extent <AxBxC> \
     <region.raw> [--out <path>]\n  \
     eblcio compact <store.ebms> [--out <path>]\n  \
     eblcio demo [cesm|hacc|nyx|s3d]\n\n\
     compress/inspect/query/serve/update accept --backend \
     <fs|memory|object|object-fs> to route store I/O through a \
     storage backend (object backends print a simulated bill)\n\
     query --metrics (or EBLCIO_METRICS=1) prints percentile \
     tables and a Prometheus exposition from the telemetry layer\n\
     serve runs at most --workers requests at once (0 = one per \
     core) with --queue-depth more waiting; beyond that a request \
     is answered with a typed Overloaded error\n\
     chain spec grammar: array[+byte...], e.g. sz3, sz3+raw, \
     szx+fpc4, sz2+shuffle4+lz";

type CliResult = Result<(), String>;

/// A `--backend` selection: the [`Storage`] the command reads and
/// writes store objects through. The object key is the file name; the
/// backend root is the file's directory. Volatile backends (`memory`,
/// `object`) are seeded from the on-disk file before reads and flushed
/// back after writes, so every command stays functional on them — the
/// point is exercising (and, for simulated object stores, *billing*)
/// the backend I/O path, not losing data.
struct CliBackend {
    storage: std::sync::Arc<dyn Storage>,
    /// Typed handle for the cost report when the backend simulates an
    /// object store.
    sim: Option<std::sync::Arc<SimulatedObjectStorage>>,
    /// Whether the backend's objects die with the process.
    volatile: bool,
    key: String,
    path: String,
}

/// Splits a CLI file path into (backend root directory, object key).
fn backend_root_key(path: &str) -> Result<(std::path::PathBuf, String), String> {
    let p = std::path::Path::new(path);
    let key = p
        .file_name()
        .ok_or_else(|| format!("{path}: not a file path"))?
        .to_string_lossy()
        .into_owned();
    let root = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    Ok((root, key))
}

/// Resolves `--backend <fs|memory|object|object-fs>` for the store at
/// `path`; `None` when the flag is absent (commands then use plain
/// `std::fs`, exactly as before the storage layer existed).
fn cli_backend(args: &Args, path: &str) -> Result<Option<CliBackend>, String> {
    let Some(name) = args.flag("--backend") else {
        return Ok(None);
    };
    use std::sync::Arc;
    let (root, key) = backend_root_key(path)?;
    let err = |e: CodecError| e.to_string();
    let (storage, sim, volatile): (
        Arc<dyn Storage>,
        Option<Arc<SimulatedObjectStorage>>,
        bool,
    ) = match name {
        "fs" => (Arc::new(FilesystemStorage::create(&root).map_err(err)?), None, false),
        "memory" | "mem" => (Arc::new(MemoryStorage::new()), None, true),
        "object" => {
            let sim = Arc::new(SimulatedObjectStorage::in_memory(ObjectCostModel::default()));
            (sim.clone(), Some(sim), true)
        }
        "object-fs" => {
            let sim = Arc::new(SimulatedObjectStorage::over(
                Arc::new(FilesystemStorage::create(&root).map_err(err)?),
                ObjectCostModel::default(),
            ));
            (sim.clone(), Some(sim), false)
        }
        other => {
            return Err(format!(
                "unknown --backend '{other}' (expected fs|memory|object|object-fs)"
            ))
        }
    };
    // With telemetry on, every backend gains per-op latency and byte
    // histograms (`eblcio_storage_*` in the process registry) on top of
    // whatever it already reports — the simulated bill keeps flowing
    // from the `sim` handle underneath the decorator.
    let storage: Arc<dyn Storage> = if eblcio::obs::enabled() {
        Arc::new(MeteredStorage::over(storage))
    } else {
        storage
    };
    Ok(Some(CliBackend { storage, sim, volatile, key, path: path.to_string() }))
}

impl CliBackend {
    /// Makes the object readable: volatile backends are seeded from the
    /// on-disk file (below the simulator, so seeding is never billed).
    fn seed(&self) -> Result<(), String> {
        if !self.volatile {
            return Ok(());
        }
        let bytes = std::fs::read(&self.path).map_err(|e| format!("{}: {e}", self.path))?;
        let target = match &self.sim {
            Some(sim) => sim.inner().clone(),
            None => self.storage.clone(),
        };
        target.set(&self.key, &bytes).map_err(|e| e.to_string())
    }

    /// Reads the whole object through the backend (one billed GET on a
    /// simulated object store).
    fn read(&self) -> Result<std::sync::Arc<[u8]>, String> {
        self.seed()?;
        self.storage.get(&self.key).map_err(|e| e.to_string())
    }

    /// Writes an object under `path`'s file name through the backend;
    /// volatile backends additionally flush to the real file so the
    /// output survives the process.
    fn write(&self, path: &str, bytes: &[u8]) -> Result<(), String> {
        let (_, key) = backend_root_key(path)?;
        self.storage.set(&key, bytes).map_err(|e| e.to_string())?;
        if self.volatile {
            write_replace(path, bytes)?;
        }
        Ok(())
    }

    /// Prints the simulated object-store bill, when there is one.
    fn finish(&self) {
        if let Some(sim) = &self.sim {
            let s = sim.stats();
            println!(
                "\nobject store: {} GET, {} PUT, {} DELETE, {} LIST — \
                 {:.2} MB down, {:.2} MB up, {:.1} ms simulated, ${:.6}",
                s.get_requests,
                s.put_requests,
                s.delete_requests,
                s.list_requests,
                s.bytes_downloaded as f64 / 1e6,
                s.bytes_uploaded as f64 / 1e6,
                s.simulated_seconds * 1e3,
                s.cost_usd,
            );
        }
    }
}

/// One flag a subcommand accepts: its spelling, and whether it takes a
/// value (the next argument) or is a bare switch.
type FlagSpec = (&'static str, bool);

const BACKEND: FlagSpec = ("--backend", true);

/// A subcommand: its name, the only flags it accepts, and its body.
struct Command {
    name: &'static str,
    flags: &'static [FlagSpec],
    run: fn(&Args) -> CliResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "compress",
        flags: &[
            ("--codec", true),
            ("--chain", true),
            ("--eps", true),
            ("--dtype", true),
            ("--dims", true),
            ("--chunk", true),
            ("--shard", true),
            ("--mutable", false),
            BACKEND,
        ],
        run: cmd_compress,
    },
    Command { name: "decompress", flags: &[], run: cmd_decompress },
    Command { name: "inspect", flags: &[("--json", false), BACKEND], run: cmd_inspect },
    Command {
        name: "query",
        flags: &[
            ("--origin", true),
            ("--extent", true),
            ("--repeat", true),
            ("--clients", true),
            ("--threads", true),
            ("--cache-mb", true),
            ("--prefetch", true),
            ("--metrics", false),
            BACKEND,
        ],
        run: cmd_query,
    },
    Command {
        name: "serve",
        flags: &[
            ("--addr", true),
            ("--workers", true),
            ("--queue-depth", true),
            ("--max-conns", true),
            ("--cache-mb", true),
            ("--threads", true),
            ("--prefetch", true),
            ("--test-ops", false),
            BACKEND,
        ],
        run: cmd_serve,
    },
    Command {
        name: "update",
        flags: &[("--origin", true), ("--extent", true), ("--out", true), BACKEND],
        run: cmd_update,
    },
    Command { name: "compact", flags: &[("--out", true)], run: cmd_compact },
    Command { name: "demo", flags: &[], run: cmd_demo },
];

/// A subcommand's arguments, split by the flags it accepts.
struct Args<'a> {
    accepted: &'static [FlagSpec],
    flags: Vec<(&'a str, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits `argv` into flags (with their values) and positionals;
    /// `Err` names the first `--x` the command does not accept, or the
    /// value flag that ends the line.
    fn parse(command: &Command, argv: &'a [String]) -> Result<Self, String> {
        let mut args = Args { accepted: command.flags, flags: Vec::new(), positional: Vec::new() };
        let mut argv = argv.iter().map(String::as_str);
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg);
                continue;
            }
            let Some((_, takes_value)) = command.flags.iter().find(|(name, _)| *name == arg) else {
                let accepted: Vec<&str> = command.flags.iter().map(|(name, _)| *name).collect();
                let accepted =
                    if accepted.is_empty() { "none".into() } else { accepted.join(", ") };
                return Err(format!(
                    "unknown flag {arg} for {} (accepted: {accepted})",
                    command.name
                ));
            };
            let value = match takes_value {
                true => Some(argv.next().ok_or_else(|| format!("flag {arg} needs a value"))?),
                false => None,
            };
            args.flags.push((arg, value));
        }
        Ok(args)
    }

    fn find(&self, name: &str, takes_value: bool) -> Option<Option<&'a str>> {
        debug_assert!(self.accepted.contains(&(name, takes_value)), "{name}: not in the flag list");
        self.flags.iter().find(|(flag, _)| *flag == name).map(|(_, value)| *value)
    }

    /// The value of value flag `name` (the first, if repeated).
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.find(name, true).flatten()
    }

    /// Whether the bare switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.find(name, false).is_some()
    }
}

/// Resolves `--chain` (stage grammar) or `--codec` (preset name) to a
/// chain spec; `--chain` wins when both are given.
fn parse_chain(args: &Args) -> Result<ChainSpec, String> {
    if let Some(spec) = args.flag("--chain") {
        return ChainSpec::parse(spec);
    }
    let codec = args.flag("--codec").ok_or("missing --codec or --chain")?;
    match codec.to_ascii_lowercase().as_str() {
        s @ ("sz2" | "sz3" | "zfp" | "qoz" | "szx") => ChainSpec::parse(s),
        other => Err(format!("unknown codec '{other}'")),
    }
}

fn parse_dims(s: &str) -> Result<Shape, String> {
    let dims: Result<Vec<usize>, _> = s.split('x').map(str::parse).collect();
    let dims = dims.map_err(|e| format!("bad --dims '{s}': {e}"))?;
    if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
        return Err(format!("--dims must be 1-4 positive sizes, got '{s}'"));
    }
    Ok(Shape::new(&dims))
}

/// Parses `AxBxC` coordinates that may legitimately be zero (origins).
fn parse_coords(s: &str, what: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = s.split('x').map(str::parse).collect();
    let dims = dims.map_err(|e| format!("bad {what} '{s}': {e}"))?;
    if dims.is_empty() || dims.len() > 4 {
        return Err(format!("{what} must have 1-4 components, got '{s}'"));
    }
    Ok(dims)
}

/// `(name, bytes per sample)` of the element type a container dtype
/// tag names.
fn dtype_info(tag: u8) -> Result<(&'static str, usize), String> {
    dispatch_dtype!(E = tag => (E::NAME, E::BYTES)).ok_or_else(|| unknown_dtype(tag))
}

fn unknown_dtype(tag: u8) -> String {
    format!("unknown dtype tag {tag}")
}

/// Compresses one typed array to a monolithic stream, a chunked store,
/// or a sharded store depending on the flags.
fn build_stream<T: Element>(
    spec: &ChainSpec,
    arr: &NdArray<T>,
    eps: f64,
    chunk: Option<Shape>,
    shard: Option<usize>,
) -> Result<Vec<u8>, String> {
    let codec = spec.build_boxed().map_err(|e| e.to_string())?;
    let bound = ErrorBound::Relative(eps);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match (chunk, shard) {
        (None, _) => compress(codec.as_ref(), arr, bound).map_err(|e| e.to_string()),
        (Some(c), None) => ChunkedStore::write(codec.as_ref(), arr, bound, c, threads)
            .map_err(|e| e.to_string()),
        (Some(c), Some(s)) => {
            ChunkedStore::write_sharded(codec.as_ref(), arr, bound, c, s, threads)
                .map_err(|e| e.to_string())
        }
    }
}

fn cmd_compress(args: &Args) -> CliResult {
    let mutable = args.has("--mutable");
    let spec = parse_chain(args)?;
    let eps: f64 = args.flag("--eps")
        .ok_or("missing --eps")?
        .parse()
        .map_err(|e| format!("bad --eps: {e}"))?;
    let dtype = args.flag("--dtype").unwrap_or("f32");
    let shape = parse_dims(args.flag("--dims").ok_or("missing --dims")?)?;
    let chunk = args.flag("--chunk").map(parse_dims).transpose()?;
    let shard: Option<usize> = args.flag("--shard")
        .map(|s| s.parse().map_err(|e| format!("bad --shard: {e}")))
        .transpose()?;
    if shard.is_some() && chunk.is_none() {
        return Err("--shard requires --chunk (sharding packs store chunks)".into());
    }
    if mutable && chunk.is_none() {
        return Err("--mutable requires --chunk (mutable stores are chunked)".into());
    }
    if mutable && shard.is_some() {
        return Err("--mutable stores address chunks individually; drop --shard".into());
    }
    let [input, output] = args.positional.as_slice() else {
        return Err("expected <in.raw> <out.eblc>".into());
    };

    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let t0 = std::time::Instant::now();
    let tag = match dtype {
        "f32" => f32::DTYPE,
        "f64" => f64::DTYPE,
        other => return Err(format!("--dtype must be f32 or f64, got '{other}'")),
    };
    let data = Dataset::from_le_bytes(tag, shape, &bytes)
        .ok_or_else(|| format!("{input}: size does not match {shape} {dtype}"))?;
    let stream =
        dispatch_dtype!(Dataset(arr) = &data => build_stream(&spec, arr, eps, chunk, shard))?;
    let stream = if mutable {
        MutableStore::import(&stream)
            .map_err(|e| e.to_string())?
            .as_bytes()
            .to_vec()
    } else {
        stream
    };
    let dt = t0.elapsed().as_secs_f64();
    match cli_backend(args, output)? {
        Some(backend) => {
            backend.write(output, &stream)?;
            backend.finish();
        }
        None => std::fs::write(output, &stream).map_err(|e| format!("{output}: {e}"))?,
    }
    let layout = match (chunk, shard) {
        _ if mutable => format!("mutable store, {} chunks, generation 1", chunk.unwrap()),
        (None, _) => "stream".to_string(),
        (Some(c), None) => format!("store, {c} chunks"),
        (Some(c), Some(s)) => format!("store, {c} chunks, {s}/shard"),
    };
    println!(
        "{input} ({} B) -> {output} ({} B): chain {}, {layout}, CR {:.2}x, {:.1} MB/s, eps {eps:e}",
        bytes.len(),
        stream.len(),
        spec.label(),
        bytes.len() as f64 / stream.len() as f64,
        bytes.len() as f64 / 1e6 / dt
    );
    Ok(())
}

fn cmd_decompress(args: &Args) -> CliResult {
    let [input, output] = args.positional.as_slice() else {
        return Err("expected <in.eblc> <out.raw>".into());
    };
    let stream = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let data = decompress_any(&stream).map_err(|e| e.to_string())?;
    let raw = data.to_le_bytes();
    std::fs::write(output, &raw).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{input} -> {output}: shape {}, {} samples, {} B",
        data.shape(),
        data.len(),
        raw.len()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    let json = args.has("--json");
    let [input] = args.positional.as_slice() else {
        return Err("expected <in.eblc|in.eblp|in.ebcs|in.ebms>".into());
    };
    let backend = cli_backend(args, input)?;
    let stream: Vec<u8> = match &backend {
        Some(b) => b.read()?.to_vec(),
        None => std::fs::read(input).map_err(|e| format!("{input}: {e}"))?,
    };
    let result = if json {
        let doc = eblcio::inspect::inspect_json(&stream)?;
        let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        println!("{text}");
        Ok(())
    } else {
        use eblcio::inspect::Container;
        match eblcio::inspect::sniff(&stream) {
            Container::Ebcs => inspect_store(input, &stream),
            Container::Ebms => inspect_mutable(input, &stream),
            Container::Eblp => inspect_parallel(input, &stream),
            Container::Eblc => inspect_stream(input, &stream),
        }
    };
    if let Some(b) = &backend {
        b.finish();
    }
    result
}

fn inspect_stream(input: &str, stream: &[u8]) -> CliResult {
    let (h, payload) =
        eblcio::codec::header::read_stream(stream).map_err(|e| e.to_string())?;
    println!("file:      {input}");
    println!("container: EBLC v{}", stream[4]);
    println!("chain:     {}", h.chain.label());
    let (dtype, sample_bytes) = dtype_info(h.dtype)?;
    println!("dtype:     {dtype}");
    println!("shape:     {}", h.shape);
    println!("abs bound: {:e}", h.abs_bound);
    println!("payload:   {} B (stream {} B)", payload.len(), stream.len());
    let raw = h.shape.len() * sample_bytes;
    println!("ratio:     {:.2}x vs raw", raw as f64 / stream.len() as f64);
    Ok(())
}

/// Prints an `EBLP` parallel container from its header alone.
fn inspect_parallel(input: &str, stream: &[u8]) -> CliResult {
    let info = eblcio::codec::parallel_stream_info(stream).map_err(|e| e.to_string())?;
    println!("file:      {input}");
    println!("container: EBLP (parallel slabs)");
    println!("chain:     {}", info.chain.label());
    let (dtype, sample_bytes) = dtype_info(info.dtype)?;
    println!("dtype:     {dtype}");
    println!("shape:     {}", info.shape);
    println!("abs bound: {:e}", info.abs_bound);
    println!("chunks:    {}", info.n_chunks);
    println!("stream:    {} B", stream.len());
    let raw = info.shape.len() * sample_bytes;
    println!("ratio:     {:.2}x vs raw", raw as f64 / stream.len() as f64);
    Ok(())
}

/// Prints an `EBMS` mutable store file: generation history first, then
/// the current generation rendered like any store.
fn inspect_mutable(input: &str, stream: &[u8]) -> CliResult {
    let store =
        MutableStore::open_arc(std::sync::Arc::from(stream)).map_err(|e| e.to_string())?;
    println!("file:       {input}");
    println!("container:  EBMS v{} (mutable store)", stream[4]);
    println!("file bytes: {}", stream.len());
    println!(
        "reclaimable: {} B (compact to reclaim)",
        store.reclaimable_bytes().map_err(|e| e.to_string())?
    );
    println!("\n{:>10} {:>8} {:>10} {:>14} {:>12}", "generation", "parent", "manifest_B", "chunks_written", "live_bytes");
    for g in store.history().map_err(|e| e.to_string())? {
        println!(
            "{:>10} {:>8} {:>10} {:>14} {:>12}",
            g.generation, g.parent, g.manifest_len, g.chunks_written, g.live_bytes
        );
    }
    println!("\ncurrent generation:");
    print_store(&store.current().map_err(|e| e.to_string())?, stream.len())
}

fn inspect_store(input: &str, stream: &[u8]) -> CliResult {
    let store = ChunkedStore::open(stream).map_err(|e| e.to_string())?;
    println!("file:       {input}");
    println!("container:  EBCS v{} (chunked store)", stream[4]);
    print_store(&store, stream.len())
}

fn print_store(store: &ChunkedStore, stream_len: usize) -> CliResult {
    let (dtype, sample_bytes) = dtype_info(store.dtype())?;
    println!("dtype:      {dtype}");
    println!("shape:      {}", store.shape());
    println!(
        "grid:       {} chunks of {} (counts {:?})",
        store.n_chunks(),
        store.chunk_shape(),
        store.grid().counts()
    );
    println!("abs bound:  {:e}", store.abs_bound());
    let chain_list: Vec<String> = store.chains().iter().map(|c| c.label()).collect();
    println!("chains:     {}", chain_list.join(", "));
    println!("manifest:   {} B", store.manifest_len());
    if let Some(table) = store.sharding() {
        println!(
            "sharding:   {} EBSH shards ({} B index total)",
            table.n_shards(),
            table.index_lens.iter().sum::<u64>()
        );
    }
    if store.generation() > 0 {
        println!("generation: {}", store.generation());
    }
    let raw = store.shape().len() * sample_bytes;
    println!("ratio:      {:.2}x vs raw", raw as f64 / stream_len as f64);
    println!(
        "\n{:>6} {:<18} {:>10} {:>11}  chain",
        "chunk",
        "origin",
        "bytes",
        if store.generation() > 0 { "born_gen" } else { "shard:slot" }
    );
    // Sizes come from the manifest index — inspection must not read
    // (or CRC-verify) payload bytes just to list metadata.
    for (i, len) in store.chunk_lens().into_iter().enumerate() {
        let region = store.grid().chunk_region(i);
        let placement = match (store.sharding(), store.generation()) {
            (Some(t), _) => format!("{}:{}", t.chunk_slots[i].shard, t.chunk_slots[i].slot),
            (None, g) if g > 0 => store.chunk_born_gen(i).to_string(),
            _ => "-".to_string(),
        };
        println!(
            "{:>6} {:<18} {:>10} {:>11}  {}",
            i,
            format!("{:?}", region.origin()),
            len,
            placement,
            store.chunk_chain(i).label()
        );
    }
    Ok(())
}

fn cmd_query(args: &Args) -> CliResult {
    // The env knob `EBLCIO_METRICS=1` is the non-flag spelling of the
    // same switch.
    if args.has("--metrics") {
        eblcio::obs::set_enabled(true);
    }
    let metrics = eblcio::obs::enabled();
    let [input] = args.positional.as_slice() else {
        return Err("expected <in.ebcs>".into());
    };
    let origin = parse_coords(args.flag("--origin").ok_or("missing --origin")?, "--origin")?;
    let extent = parse_coords(args.flag("--extent").ok_or("missing --extent")?, "--extent")?;
    if extent.contains(&0) {
        return Err("--extent components must be positive".into());
    }
    if origin.len() != extent.len() {
        return Err("--origin and --extent must have the same rank".into());
    }
    let parse_opt = |name: &str, default: usize| -> Result<usize, String> {
        args.flag(name)
            .map(|s| s.parse().map_err(|e| format!("bad {name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let repeat = parse_opt("--repeat", 4)?.max(1);
    let clients = parse_opt("--clients", 1)?.max(1);
    let threads = parse_opt("--threads", 0)?;
    let cache_mb = parse_opt("--cache-mb", 256)?;
    let prefetch = parse_opt("--prefetch", 0)?;

    let backend = cli_backend(args, input)?;
    let stream: std::sync::Arc<[u8]> = match &backend {
        Some(b) => b.read()?,
        None => std::fs::read(input)
            .map_err(|e| format!("{input}: {e}"))?
            .into(),
    };
    // `query` serves static EBCS streams and the current generation of
    // EBMS mutable files identically.
    let store = ChunkedStore::open_arc(stream).map_err(|e| e.to_string())?;
    let region = Region::new(&origin, &extent);
    if !region.fits_in(store.shape()) {
        return Err(format!(
            "region {origin:?}+{extent:?} does not fit in store shape {}",
            store.shape()
        ));
    }
    let config = ReaderConfig {
        cache: CacheConfig::with_capacity_mib(cache_mb),
        threads,
        prefetch: if prefetch == 0 {
            PrefetchPolicy::None
        } else {
            PrefetchPolicy::Sequential { depth: prefetch }
        },
    };
    println!(
        "query: {input}, shape {}, {} chunks{}{}, region {origin:?}+{extent:?}",
        store.shape(),
        store.n_chunks(),
        match store.sharding() {
            Some(t) => format!(" in {} shards", t.n_shards()),
            None => String::new(),
        },
        if store.generation() > 0 {
            format!(", generation {}", store.generation())
        } else {
            String::new()
        },
    );
    let store_dtype = store.dtype();
    let result = dispatch_dtype!(E = store_dtype =>
        run_query::<E>(store, &region, repeat, clients, config, metrics))
    .unwrap_or_else(|| Err(unknown_dtype(store_dtype)));
    if let Some(b) = &backend {
        b.finish();
    }
    result
}

/// `serve <in.ebcs|in.ebms>`: runs the network daemon over the store's
/// current generation until killed. The bound address is printed on a
/// `serving ... on <addr>` line so scripts (and the CI job) can target
/// an ephemeral port.
fn cmd_serve(args: &Args) -> CliResult {
    let test_ops = args.has("--test-ops");
    let [input] = args.positional.as_slice() else {
        return Err("expected <in.ebcs|in.ebms>".into());
    };
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7979");
    let parse_opt = |name: &str, default: usize| -> Result<usize, String> {
        args.flag(name)
            .map(|s| s.parse().map_err(|e| format!("bad {name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let workers = parse_opt("--workers", 0)?;
    let queue_depth = parse_opt("--queue-depth", 64)?.max(1);
    let max_conns = parse_opt("--max-conns", 1024)?.max(1);
    let cache_mb = parse_opt("--cache-mb", 256)?;
    let threads = parse_opt("--threads", 0)?;
    let prefetch = parse_opt("--prefetch", 0)?;

    let reader_config = ReaderConfig {
        cache: CacheConfig::with_capacity_mib(cache_mb),
        threads,
        prefetch: if prefetch == 0 {
            PrefetchPolicy::None
        } else {
            PrefetchPolicy::Sequential { depth: prefetch }
        },
    };
    let backend = cli_backend(args, input)?;
    let store = match &backend {
        Some(b) => {
            b.seed()?;
            ChunkedStore::open_from(b.storage.as_ref(), &b.key)
        }
        None => {
            let bytes: std::sync::Arc<[u8]> = std::fs::read(input)
                .map_err(|e| format!("{input}: {e}"))?
                .into();
            ChunkedStore::open_arc(bytes)
        }
    }
    .map_err(|e| e.to_string())?;
    let reader =
        eblcio::daemon::AnyReader::over(store, reader_config).map_err(|e| e.to_string())?;

    let shape = reader.shape();
    let n_chunks = reader.n_chunks();
    let (dtype, _) = dtype_info(reader.dtype())?;
    let daemon_config = eblcio::daemon::DaemonConfig {
        workers,
        queue_depth,
        max_connections: max_conns,
        test_ops,
        ..eblcio::daemon::DaemonConfig::default()
    };
    let daemon = eblcio::daemon::Daemon::start(reader, daemon_config, addr)
        .map_err(|e| e.to_string())?;
    println!("serving {input} on {}", daemon.local_addr());
    println!(
        "  {dtype} {shape}, {n_chunks} chunks — workers {}, queue {queue_depth}, \
         max {max_conns} connections, cache {cache_mb} MiB{}",
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
        if test_ops { ", test ops ON" } else { "" },
    );
    // Foreground server: runs until the process is killed. (The daemon
    // threads own all the work; this thread just keeps them alive.)
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
    }
}

/// Issues `repeat` passes of the region read, each pass fanned out
/// across `clients` concurrent client threads sharing one reader, and
/// reports per-pass wall time plus the reader's cache counters. With
/// `metrics` on, each pass also reports the p50/p99 of that pass's
/// per-request latency histogram (snapshot deltas isolate the pass),
/// and the run ends with the full percentile report and a Prometheus
/// exposition of both the reader's registry and the process registry.
fn run_query<T: Element>(
    store: ChunkedStore,
    region: &Region,
    repeat: usize,
    clients: usize,
    config: ReaderConfig,
    metrics: bool,
) -> CliResult {
    let reader = ArrayReader::<T>::over(store, config).map_err(|e| e.to_string())?;
    let region_bytes = region.len() * std::mem::size_of::<T>();
    let request_ns = reader.metrics().histogram("eblcio_serve_request_ns");
    if metrics {
        println!(
            "{:>5} {:>10} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "pass", "ms", "MB/s", "hits", "misses", "decodes", "p50_ms", "p99_ms"
        );
    } else {
        println!(
            "{:>5} {:>10} {:>12} {:>8} {:>8} {:>8}",
            "pass", "ms", "MB/s", "hits", "misses", "decodes"
        );
    }
    for pass in 0..repeat {
        let before = request_ns.snapshot();
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| -> CliResult {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let reader = &reader;
                    s.spawn(move || reader.read_region(region))
                })
                .collect();
            for h in handles {
                h.join()
                    .map_err(|_| "client thread panicked".to_string())?
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let dt = t0.elapsed().as_secs_f64();
        let stats = reader.stats();
        if metrics {
            let pass_hist = request_ns.snapshot().delta_from(&before);
            println!(
                "{:>5} {:>10.2} {:>12.1} {:>8} {:>8} {:>8} {:>10.3} {:>10.3}",
                pass,
                dt * 1e3,
                (region_bytes * clients) as f64 / 1e6 / dt,
                stats.cache_hits,
                stats.cache_misses,
                stats.decodes,
                pass_hist.value_at_quantile(0.5) as f64 / 1e6,
                pass_hist.value_at_quantile(0.99) as f64 / 1e6,
            );
        } else {
            println!(
                "{:>5} {:>10.2} {:>12.1} {:>8} {:>8} {:>8}",
                pass,
                dt * 1e3,
                (region_bytes * clients) as f64 / 1e6 / dt,
                stats.cache_hits,
                stats.cache_misses,
                stats.decodes
            );
        }
    }
    let stats = reader.stats();
    println!(
        "\nserved {} requests ({} chunk lookups): {:.1}% hit rate, {} decodes \
         ({:.2} MB decoded), {} prefetched, {} evictions, {:.1} ms busy",
        stats.requests,
        stats.chunks_requested,
        stats.hit_rate() * 100.0,
        stats.decodes,
        stats.decoded_bytes as f64 / 1e6,
        stats.prefetched,
        stats.evictions,
        stats.wall_seconds * 1e3,
    );
    if metrics {
        println!("\n-- reader metrics --");
        print!("{}", eblcio::obs::report(reader.metrics()));
        println!("\n-- process metrics (codec/store/storage) --");
        print!("{}", eblcio::obs::report(eblcio::obs::global()));
        println!("\n-- prometheus exposition --");
        print!("{}", eblcio::obs::prometheus(reader.metrics()));
        print!("{}", eblcio::obs::prometheus(eblcio::obs::global()));
        dump_flight_recorder()?;
    }
    Ok(())
}

/// Writes the flight recorder's retained span events as JSON lines to
/// `$EBLCIO_OBS_DUMP`, when set — the CLI is a sanctioned filesystem
/// sink, so postmortem dumps stay inside the storage-boundary rule.
fn dump_flight_recorder() -> CliResult {
    let Ok(path) = std::env::var("EBLCIO_OBS_DUMP") else {
        return Ok(());
    };
    if path.is_empty() {
        return Ok(());
    }
    let events = eblcio::obs::events_jsonl(eblcio::obs::flight_recorder());
    std::fs::write(&path, &events).map_err(|e| format!("{path}: {e}"))?;
    println!("\nflight recorder: {} events -> {path}", events.lines().count());
    Ok(())
}

/// Replaces `path` atomically: write a sibling temp file, then rename
/// it over the target. A crash or full disk mid-write must never
/// destroy an existing store file — that would defeat the store's own
/// crash-consistent publish protocol at the filesystem layer.
fn write_replace(path: &str, bytes: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))
}

/// `update <store.ebms> --origin <AxB> --extent <AxB> <region.raw>`:
/// writes a raw little-endian region through re-compression and
/// publishes it as a new generation (copy-on-write — old generations
/// stay readable until `compact`). A plain `EBCS` input is imported
/// into a mutable store first.
fn cmd_update(args: &Args) -> CliResult {
    let [input, data_path] = args.positional.as_slice() else {
        return Err("expected <store.ebms> <region.raw>".into());
    };
    let origin = parse_coords(args.flag("--origin").ok_or("missing --origin")?, "--origin")?;
    let extent = parse_coords(args.flag("--extent").ok_or("missing --extent")?, "--extent")?;
    if extent.contains(&0) {
        return Err("--extent components must be positive".into());
    }
    if origin.len() != extent.len() {
        return Err("--origin and --extent must have the same rank".into());
    }
    let out = args.flag("--out").unwrap_or(input);

    let backend = cli_backend(args, input)?;
    if backend.is_some() && out != *input && backend_root_key(out)?.0 != backend_root_key(input)?.0
    {
        return Err("--backend with --out requires the output in the store's directory".into());
    }
    let mut store = match &backend {
        Some(b) => {
            // In-place updates attach the backend as backing storage,
            // so the publish itself goes through the crash-safe
            // append + root-flip write path (billed as read-modify-
            // write on simulated object stores). `--out` elsewhere
            // updates a detached copy and writes the result once.
            let in_place = out == *input;
            b.seed()?;
            // Sniff the container via a ranged GET; the full object is
            // fetched exactly once, by whichever open follows.
            let head = b
                .storage
                .get_range(&b.key, ByteRange::Bounded { offset: 0, len: 4 })
                .map_err(|e| format!("{input}: {e}"))?;
            if head == eblcio::store::manifest::MAGIC[..] {
                println!("{input}: EBCS stream — importing as mutable store generation 1");
                let bytes = b.storage.get(&b.key).map_err(|e| e.to_string())?;
                if in_place {
                    MutableStore::import_on(b.storage.clone(), &b.key, &bytes)
                } else {
                    MutableStore::import(&bytes)
                }
            } else if in_place {
                MutableStore::open_on(b.storage.clone(), &b.key)
            } else {
                b.storage
                    .get(&b.key)
                    .and_then(MutableStore::open_arc)
            }
            .map_err(|e| e.to_string())?
        }
        None => {
            let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
            if bytes.get(..4) == Some(&eblcio::store::manifest::MAGIC[..]) {
                println!("{input}: EBCS stream — importing as mutable store generation 1");
                MutableStore::import(&bytes).map_err(|e| e.to_string())?
            } else {
                MutableStore::open(bytes).map_err(|e| e.to_string())?
            }
        }
    };
    let current = store.current().map_err(|e| e.to_string())?;
    let region = Region::new(&origin, &extent);
    if !region.fits_in(current.shape()) {
        return Err(format!(
            "region {origin:?}+{extent:?} does not fit in store shape {}",
            current.shape()
        ));
    }
    let raw = std::fs::read(data_path).map_err(|e| format!("{data_path}: {e}"))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (dtype, _) = dtype_info(current.dtype())?;
    let patch = Dataset::from_le_bytes(current.dtype(), region.shape(), &raw)
        .ok_or_else(|| format!("{data_path}: size does not match {} {dtype}", region.shape()))?;
    let stats = dispatch_dtype!(Dataset(arr) = &patch => store.update_region(&region, arr, threads))
        .map_err(|e| e.to_string())?;
    match &backend {
        Some(b) => {
            if out != *input {
                // Detached output: one whole-object write.
                b.write(out, store.as_bytes())?;
            } else if b.volatile {
                // The backing already holds the publish; make it
                // durable on disk too.
                write_replace(out, store.as_bytes())?;
            }
            // In-place on a persistent backend: the publish was
            // written through chunk-for-chunk already.
        }
        None => write_replace(out, store.as_bytes())?,
    }
    println!(
        "{out}: published generation {} — {}/{} chunks rewritten, {} B objects + {} B manifest \
         appended, {} B now dead (file {} B)",
        stats.generation,
        stats.chunks_written,
        stats.chunks_total,
        stats.object_bytes,
        stats.manifest_bytes,
        stats.replaced_bytes,
        stats.file_bytes,
    );
    if let Some(b) = &backend {
        b.finish();
    }
    Ok(())
}

/// `compact <store.ebms>`: rewrites the file down to the current
/// generation's live set, reclaiming dead bytes (and severing
/// time-travel history).
fn cmd_compact(args: &Args) -> CliResult {
    let [input] = args.positional.as_slice() else {
        return Err("expected <store.ebms>".into());
    };
    let out = args.flag("--out").unwrap_or(input);
    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let mut store = MutableStore::open(bytes).map_err(|e| e.to_string())?;
    let stats = store.compact().map_err(|e| e.to_string())?;
    write_replace(out, store.as_bytes())?;
    println!(
        "{out}: compacted to generation {} — {} B -> {} B ({} B reclaimed)",
        stats.generation, stats.before_bytes, stats.after_bytes, stats.reclaimed_bytes,
    );
    Ok(())
}

fn cmd_demo(args: &Args) -> CliResult {
    let kind = match args.positional.first().copied().unwrap_or("nyx") {
        "cesm" => DatasetKind::Cesm,
        "hacc" => DatasetKind::Hacc,
        "nyx" => DatasetKind::Nyx,
        "s3d" => DatasetKind::S3d,
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let data = DatasetSpec::new(kind, Scale::Tiny).generate();
    println!(
        "demo: {} analog, shape {}, {} B raw\n",
        kind.name(),
        data.shape(),
        data.nbytes()
    );
    println!("{:<6} {:>10} {:>9} {:>10}", "codec", "CR", "PSNR_dB", "maxrelerr");
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(1e-3))
            .map_err(|e| e.to_string())?;
        let (psnr_db, err) = dispatch_dtype!(Dataset(a) = &data => {
            let b = decompress(codec.as_ref(), &stream).map_err(|e| e.to_string())?;
            (psnr(a, &b), max_rel_error(a, &b))
        });
        println!(
            "{:<6} {:>10.2} {:>9.2} {:>10.2e}",
            id.name(),
            data.nbytes() as f64 / stream.len() as f64,
            psnr_db,
            err
        );
    }
    Ok(())
}
