//! `eblcio` — command-line front end for the EBLC codecs.
//!
//! ```text
//! eblcio compress   --codec sz3 --eps 1e-3 --dtype f32 --dims 512x512x512 in.raw out.eblc
//! eblcio compress   --chain sz3+shuffle4+lz --eps 1e-3 --dims 64x64 in.raw out.eblc
//! eblcio compress   --codec szx --eps 1e-3 --dims 64x64 --chunk 16x16 --shard 4 in.raw out.ebcs
//! eblcio compress   --codec szx --eps 1e-3 --dims 64x64 --chunk 16x16 --mutable in.raw out.ebms
//! eblcio decompress in.eblc out.raw
//! eblcio inspect    [--json] <in.eblc|in.ebcs|in.ebms>
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
//! Each subcommand accepts exactly the flags in its [`COMMANDS`] entry,
//! which is also what the usage text is printed from (required flags
//! bare, the rest in brackets); any other `--flag` is a usage error
//! (exit 2) that names it.
//!
//! Every subcommand but `demo` reaches its store file — the compressed
//! stream or store it reads, writes or updates — through a `Storage`
//! backend, and only through one: `--backend <fs|memory|object|object-fs>`,
//! `fs` when the flag is absent and for `decompress` and `compact`, which
//! take no `--backend` ([`StoreFile`]). The file name is the object key
//! and the file's directory the backend root; an output file is opened
//! only once its bytes are ready, so a failed run creates nothing. The
//! `object*` backends simulate an object store — requests, transferred
//! bytes, simulated latency, and a dollar bill are reported after the
//! command.
//! An in-place `update` publishes through the backend's append + root
//! flip, the same protocol the fault-injection suites cut byte by byte,
//! and an in-place `compact` replaces the object with one atomic `set`.
//! Raw sample files (`in.raw`, `out.raw`, `region.raw`) are plain files.
//!
//! `query --metrics` (or `EBLCIO_METRICS=1`) turns the telemetry layer
//! on: per-pass p50/p99 request latency columns, the full
//! `eblcio_obs` percentile report for the reader and the process-wide
//! registry, and a Prometheus text exposition. With telemetry on,
//! the backend is additionally wrapped in [`MeteredStorage`]
//! so per-op latency/byte histograms ride along, and
//! `EBLCIO_OBS_DUMP=<path>` writes the flight recorder's recent span
//! events as JSON lines. `inspect --json` appends a `metrics` block to
//! its document when telemetry is enabled.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use eblcio::prelude::*;
use eblcio::inspect::dtype_info;
use eblcio::store::NamedBackend;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!("{}", usage());
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

/// The usage text: one line per [`COMMANDS`] entry — its synopsis, its
/// other flags in brackets, its positionals — then the notes.
fn usage() -> String {
    let mut text = String::from("usage:");
    for command in COMMANDS {
        text += &format!("\n  eblcio {}", command.name);
        if !command.synopsis.is_empty() {
            text += &format!(" {}", command.synopsis);
        }
        let in_synopsis = |flag: &str| command.synopsis.split([' ', '[', ']']).any(|w| w == flag);
        for (flag, value) in command.flags.iter().filter(|(flag, _)| !in_synopsis(flag)) {
            match value {
                Some(value) => text += &format!(" [{flag} {value}]"),
                None => text += &format!(" [{flag}]"),
            }
        }
        text += &format!(" {}", command.args);
    }
    text + "\n\n\
     a store file is read and written through --backend (fs when \
     absent, and for decompress and compact); object backends print \
     a simulated bill\n\
     query --metrics (or EBLCIO_METRICS=1) prints percentile \
     tables and a Prometheus exposition from the telemetry layer\n\
     serve runs at most --workers requests at once (0 = one per \
     core) with --queue-depth more waiting; beyond that a request \
     is answered with a typed Overloaded error\n\
     chain spec grammar: array[+byte...], e.g. sz3, sz3+raw, \
     szx+fpc4, sz2+shuffle4+lz"
}

type CliResult = Result<(), String>;

/// The store file a command reads or writes, reached as one object of
/// a [`named_backend`] (`--backend`; `fs` when the flag is absent, and
/// for `decompress` and `compact`, which take none): the backend is
/// rooted at the file's directory and the file name is the key.
///
/// `memory` and `object` lose their objects with the process, so they
/// sit in front of the file: [`StoreFile::input`] seeds the object from
/// it (below the simulator, so seeding is never billed) and
/// [`StoreFile::flush`] writes results back. The point of them is
/// exercising — and, for the simulated object stores, billing — the
/// backend path, not losing data.
struct StoreFile {
    backend: NamedBackend,
    /// The file behind a volatile backend.
    disk: Option<FilesystemStorage>,
    key: String,
    path: String,
}

/// Splits a store file path into (backend root directory, object key).
fn root_and_key(path: &str) -> Result<(&std::path::Path, String), String> {
    let p = std::path::Path::new(path);
    let key = p
        .file_name()
        .ok_or_else(|| format!("{path}: not a file path"))?
        .to_string_lossy()
        .into_owned();
    let root = match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    Ok((root, key))
}

impl StoreFile {
    /// The store file at `path` on the backend `name`; the file's
    /// directory is created if missing.
    fn open(name: &str, path: &str) -> Result<Self, String> {
        let (root, key) = root_and_key(path)?;
        let mut backend = named_backend(name, root).map_err(|e| e.to_string())?;
        let disk = match backend.unbilled().kind() {
            "memory" => Some(FilesystemStorage::create(root).map_err(|e| e.to_string())?),
            _ => None,
        };
        // With telemetry on, every backend gains per-op latency and byte
        // histograms (`eblcio_storage_*` in the process registry) on top
        // of whatever it already reports — the simulated bill keeps
        // flowing from the `sim` handle underneath the decorator.
        if eblcio::obs::enabled() {
            backend.storage = Arc::new(MeteredStorage::over(backend.storage));
        }
        Ok(Self { backend, disk, key, path: path.to_string() })
    }

    /// The store file at `path`, to be written. Commands open it only
    /// once the bytes are ready, so a failed run creates nothing.
    fn output(name: &str, path: &str) -> Result<Self, String> {
        // A store file is replaced by renaming a sibling over it, which
        // would swap a device or a pipe (`/dev/stdout`) for a plain file.
        if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
            return Err(format!("{path}: not a regular file; store files are replaced whole"));
        }
        Self::open(name, path)
    }

    /// The store file at `path`, to be read (a volatile backend is
    /// seeded from it).
    fn input(name: &str, path: &str) -> Result<Self, String> {
        // A missing directory holds no object; opening a backend there
        // would create it, and a read must leave nothing behind.
        let (root, key) = root_and_key(path)?;
        if !root.is_dir() {
            return Err(format!("{path}: {}", CodecError::NoSuchKey { key }));
        }
        let file = Self::open(name, path)?;
        if let Some(disk) = &file.disk {
            let bytes = disk.get(&file.key).map_err(|e| file.err(e))?;
            file.backend.unbilled().set(&file.key, &bytes).map_err(|e| file.err(e))?;
        }
        Ok(file)
    }

    fn err(&self, e: CodecError) -> String {
        format!("{}: {e}", self.path)
    }

    fn storage(&self) -> &Arc<dyn Storage> {
        &self.backend.storage
    }

    /// Reads the whole object (one billed GET on a simulated object
    /// store).
    fn get(&self) -> Result<Arc<[u8]>, String> {
        self.storage().get(&self.key).map_err(|e| self.err(e))
    }

    /// Replaces the object with `bytes` — atomically, on `fs` — and
    /// flushes it.
    fn put(&self, bytes: &[u8]) -> CliResult {
        self.storage().set(&self.key, bytes).map_err(|e| self.err(e))?;
        self.flush(bytes)
    }

    /// Writes `bytes` to the file behind a volatile backend; a no-op
    /// where the backend is the file itself.
    fn flush(&self, bytes: &[u8]) -> CliResult {
        match &self.disk {
            Some(disk) => disk.set(&self.key, bytes).map_err(|e| self.err(e)),
            None => Ok(()),
        }
    }

    /// Opens the mutable store in the file. `attached` keeps the
    /// backend, so a publish or a compaction writes through to it;
    /// otherwise the store is a detached copy.
    fn mutable(&self, attached: bool) -> Result<MutableStore, String> {
        match attached {
            true => MutableStore::open_on(self.storage().clone(), &self.key),
            false => self.storage().get(&self.key).and_then(MutableStore::open_arc),
        }
        .map_err(|e| self.err(e))
    }

    /// Prints the simulated object-store bill, when there is one.
    fn finish(&self) {
        if let Some(sim) = &self.backend.sim {
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

/// One flag a subcommand accepts: its spelling, and the placeholder of
/// its value (the next argument) — `None` for a bare switch.
type FlagSpec = (&'static str, Option<&'static str>);

const BACKEND: FlagSpec = ("--backend", Some("<fs|memory|object|object-fs>"));
const ORIGIN: FlagSpec = ("--origin", Some("<AxBxC>"));
const EXTENT: FlagSpec = ("--extent", Some("<AxBxC>"));
const OUT: FlagSpec = ("--out", Some("<path>"));
const CACHE_MB: FlagSpec = ("--cache-mb", Some("<n>"));
const THREADS: FlagSpec = ("--threads", Some("<n>"));
const PREFETCH: FlagSpec = ("--prefetch", Some("<chunks>"));

/// A subcommand: its name, the flags its usage line spells out, its
/// positional arguments as the usage text shows them, the only flags it
/// accepts, and its body.
struct Command {
    name: &'static str,
    /// The required flags, and the optional ones that only go together
    /// (`--shard` and `--mutable` need `--chunk`); the usage text shows
    /// every other flag of `flags` in brackets after it.
    synopsis: &'static str,
    args: &'static str,
    flags: &'static [FlagSpec],
    run: fn(&Args) -> CliResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "compress",
        synopsis: "--codec <sz2|sz3|zfp|qoz|szx> | --chain <spec> --eps <rel> --dims <AxBxC> \
                   [--chunk <AxBxC> [--shard <chunks> | --mutable]]",
        args: "<in.raw> <out.eblc|out.ebcs|out.ebms>",
        flags: &[
            ("--codec", Some("<sz2|sz3|zfp|qoz|szx>")),
            ("--chain", Some("<spec>")),
            ("--eps", Some("<rel>")),
            ("--dtype", Some("<f32|f64>")),
            ("--dims", Some("<AxBxC>")),
            ("--chunk", Some("<AxBxC>")),
            ("--shard", Some("<chunks>")),
            ("--mutable", None),
            BACKEND,
        ],
        run: cmd_compress,
    },
    Command {
        name: "decompress",
        synopsis: "",
        args: "<in.eblc> <out.raw>",
        flags: &[],
        run: cmd_decompress,
    },
    Command {
        name: "inspect",
        synopsis: "",
        args: "<in.eblc|in.ebcs|in.ebms>",
        flags: &[("--json", None), BACKEND],
        run: cmd_inspect,
    },
    Command {
        name: "query",
        synopsis: "--origin <AxBxC> --extent <AxBxC>",
        args: "<in.ebcs|in.ebms>",
        flags: &[
            ORIGIN,
            EXTENT,
            ("--repeat", Some("<n>")),
            ("--clients", Some("<n>")),
            THREADS,
            CACHE_MB,
            PREFETCH,
            ("--metrics", None),
            BACKEND,
        ],
        run: cmd_query,
    },
    Command {
        name: "serve",
        synopsis: "",
        args: "<in.ebcs|in.ebms>",
        flags: &[
            ("--addr", Some("<host:port>")),
            ("--workers", Some("<n>")),
            ("--queue-depth", Some("<n>")),
            ("--max-conns", Some("<n>")),
            CACHE_MB,
            THREADS,
            PREFETCH,
            BACKEND,
        ],
        run: cmd_serve,
    },
    Command {
        name: "update",
        synopsis: "--origin <AxBxC> --extent <AxBxC>",
        args: "<store.ebms|store.ebcs> <region.raw>",
        flags: &[ORIGIN, EXTENT, OUT, BACKEND],
        run: cmd_update,
    },
    Command {
        name: "compact",
        synopsis: "",
        args: "<store.ebms>",
        flags: &[OUT],
        run: cmd_compact,
    },
    Command {
        name: "demo",
        synopsis: "",
        args: "[cesm|hacc|nyx|s3d]",
        flags: &[],
        run: cmd_demo,
    },
];

/// A subcommand's arguments, split by the flags it accepts.
struct Args<'a> {
    command: &'static Command,
    flags: Vec<(&'a str, Option<&'a str>)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits `argv` into flags (with their values) and positionals;
    /// `Err` names the first `--x` the command does not accept, or the
    /// value flag that ends the line.
    fn parse(command: &'static Command, argv: &'a [String]) -> Result<Self, String> {
        let mut args = Args { command, flags: Vec::new(), positional: Vec::new() };
        let mut argv = argv.iter().map(String::as_str);
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg);
                continue;
            }
            let Some((_, value)) = command.flags.iter().find(|(name, _)| *name == arg) else {
                let accepted: Vec<&str> = command.flags.iter().map(|(name, _)| *name).collect();
                let accepted =
                    if accepted.is_empty() { "none".into() } else { accepted.join(", ") };
                return Err(format!(
                    "unknown flag {arg} for {} (accepted: {accepted})",
                    command.name
                ));
            };
            let value = match value {
                Some(_) => Some(argv.next().ok_or_else(|| format!("flag {arg} needs a value"))?),
                None => None,
            };
            args.flags.push((arg, value));
        }
        Ok(args)
    }

    /// The positional arguments, when there are exactly `N`.
    fn positional<const N: usize>(&self) -> Result<[&'a str; N], String> {
        self.positional
            .as_slice()
            .try_into()
            .map_err(|_| format!("expected {}", self.command.args))
    }

    fn find(&self, name: &str, takes_value: bool) -> Option<Option<&'a str>> {
        debug_assert!(
            self.command.flags.iter().any(|(flag, value)| *flag == name
                && value.is_some() == takes_value),
            "{name}: not in the flag list"
        );
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

    /// The backend `--backend` names, `fs` when absent.
    fn backend(&self) -> &'a str {
        self.flag("--backend").unwrap_or("fs")
    }

    /// The count value flag `name` parses to, or `default` when absent.
    fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        self.flag(name)
            .map(|s| s.parse().map_err(|e| format!("bad {name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    }
}

/// The `--origin` / `--extent` box of `query` and `update`.
fn box_flags(args: &Args) -> Result<(Vec<usize>, Vec<usize>), String> {
    let origin = parse_coords(args.flag("--origin").ok_or("missing --origin")?, "--origin")?;
    let extent = parse_coords(args.flag("--extent").ok_or("missing --extent")?, "--extent")?;
    if extent.contains(&0) {
        return Err("--extent components must be positive".into());
    }
    if origin.len() != extent.len() {
        return Err("--origin and --extent must have the same rank".into());
    }
    Ok((origin, extent))
}

/// The reader `query` and `serve` open: `--cache-mb`, `--threads` and
/// `--prefetch`.
fn reader_config(args: &Args) -> Result<ReaderConfig, String> {
    let cache_mb = args.count("--cache-mb", 256)?;
    let threads = args.count("--threads", 0)?;
    let prefetch = args.count("--prefetch", 0)?;
    Ok(ReaderConfig {
        cache: CacheConfig::with_capacity_mib(cache_mb),
        threads,
        prefetch: if prefetch == 0 {
            PrefetchPolicy::None
        } else {
            PrefetchPolicy::Sequential { depth: prefetch }
        },
    })
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
    let [input, output] = args.positional()?;

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
    let file = StoreFile::output(args.backend(), output)?;
    file.put(&stream)?;
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
    file.finish();
    Ok(())
}

fn cmd_decompress(args: &Args) -> CliResult {
    let [input, output] = args.positional()?;
    let file = StoreFile::input("fs", input)?;
    let data = decompress_any(&file.get()?).map_err(|e| file.err(e))?;
    let raw = data.to_le_bytes();
    std::fs::write(output, &raw).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{input} -> {output}: shape {}, {} samples, {} B",
        data.shape(),
        data.len(),
        raw.len()
    );
    file.finish();
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    let json = args.has("--json");
    let [input] = args.positional()?;
    let file = StoreFile::input(args.backend(), input)?;
    let stream = file.get()?;
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
            Container::Eblc => inspect_stream(input, &stream),
        }
    };
    file.finish();
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

/// Prints an `EBMS` mutable store file: generation history first, then
/// the current generation rendered like any store.
fn inspect_mutable(input: &str, stream: &Arc<[u8]>) -> CliResult {
    let store = MutableStore::open_arc(stream.clone()).map_err(|e| e.to_string())?;
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
    let [input] = args.positional()?;
    let (origin, extent) = box_flags(args)?;
    let repeat = args.count("--repeat", 4)?.max(1);
    let clients = args.count("--clients", 1)?.max(1);
    let config = reader_config(args)?;

    let file = StoreFile::input(args.backend(), input)?;
    // `query` serves static EBCS streams and the current generation of
    // EBMS mutable files identically.
    let store = ChunkedStore::open_arc(file.get()?).map_err(|e| file.err(e))?;
    let region = Region::new(&origin, &extent);
    if !region.fits_in(store.shape()) {
        return Err(format!(
            "region {origin:?}+{extent:?} does not fit in store shape {}",
            store.shape()
        ));
    }
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
    .unwrap_or_else(|| dtype_info(store_dtype).map(drop));
    file.finish();
    result
}

/// `serve <in.ebcs|in.ebms>`: runs the network daemon over the store's
/// current generation until killed. The bound address is printed on a
/// `serving ... on <addr>` line so scripts (and the CI job) can target
/// an ephemeral port.
fn cmd_serve(args: &Args) -> CliResult {
    let [input] = args.positional()?;
    let addr = args.flag("--addr").unwrap_or("127.0.0.1:7979");
    let workers = args.count("--workers", 0)?;
    let queue_depth = args.count("--queue-depth", 64)?.max(1);
    let max_conns = args.count("--max-conns", 1024)?.max(1);
    let reader_config = reader_config(args)?;
    let cache_mb = reader_config.cache.capacity_bytes >> 20;

    let file = StoreFile::input(args.backend(), input)?;
    let store = ChunkedStore::open_arc(file.get()?).map_err(|e| file.err(e))?;
    let reader =
        eblcio::daemon::AnyReader::over(store, reader_config).map_err(|e| e.to_string())?;

    let shape = reader.shape();
    let n_chunks = reader.n_chunks();
    let (dtype, _) = dtype_info(reader.dtype())?;
    let daemon_config = eblcio::daemon::DaemonConfig {
        workers,
        queue_depth,
        max_connections: max_conns,
        ..eblcio::daemon::DaemonConfig::default()
    };
    let daemon = eblcio::daemon::Daemon::start(reader, daemon_config, addr)
        .map_err(|e| e.to_string())?;
    println!("serving {input} on {}", daemon.local_addr());
    println!(
        "  {dtype} {shape}, {n_chunks} chunks — workers {}, queue {queue_depth}, \
         max {max_conns} connections, cache {cache_mb} MiB",
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
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

/// The path `update` and `compact` write: `--out` when it names another
/// file (the input is then only read), else `None` — the command works
/// in place.
fn out_path<'a>(args: &Args<'a>, input: &str) -> Option<&'a str> {
    args.flag("--out").filter(|out| *out != input)
}

/// `update <store.ebms> --origin <AxB> --extent <AxB> <region.raw>`:
/// writes a raw little-endian region through re-compression and
/// publishes it as a new generation (copy-on-write — old generations
/// stay readable until `compact`). A plain `EBCS` input is imported
/// into a mutable store first.
fn cmd_update(args: &Args) -> CliResult {
    let [input, data_path] = args.positional()?;
    let (origin, extent) = box_flags(args)?;
    let file = StoreFile::input(args.backend(), input)?;
    let out_path = out_path(args, input);

    // Sniff the container via a ranged GET; the whole object is fetched
    // exactly once, by whichever open follows.
    let head = file
        .storage()
        .get_range(&file.key, ByteRange::Bounded { offset: 0, len: 4 })
        .map_err(|e| file.err(e))?;
    let import = head == eblcio::store::manifest::MAGIC[..];
    // An in-place update of a mutable store attaches the backend, so the
    // publish goes through the crash-safe append + root-flip write path
    // (billed as read-modify-write on simulated object stores). Anything
    // else — an import, or `--out` elsewhere — updates a detached copy
    // and writes the result with one atomic `set`.
    let attached = out_path.is_none() && !import;
    let mut store = if import {
        println!("{input}: EBCS stream — importing as mutable store generation 1");
        MutableStore::import(&file.get()?).map_err(|e| file.err(e))?
    } else {
        file.mutable(attached)?
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
    let out = out_path.map(|path| StoreFile::output(args.backend(), path)).transpose()?;
    let target = out.as_ref().unwrap_or(&file);
    match attached {
        true => file.flush(store.as_bytes())?,
        false => target.put(store.as_bytes())?,
    }
    println!(
        "{}: published generation {} — {}/{} chunks rewritten, {} B objects + {} B manifest \
         appended, {} B now dead (file {} B)",
        target.path,
        stats.generation,
        stats.chunks_written,
        stats.chunks_total,
        stats.object_bytes,
        stats.manifest_bytes,
        stats.replaced_bytes,
        stats.file_bytes,
    );
    file.finish();
    out.iter().for_each(StoreFile::finish);
    Ok(())
}

/// `compact <store.ebms>`: rewrites the file down to the current
/// generation's live set, reclaiming dead bytes (and severing
/// time-travel history). In place, the store is attached to its `fs`
/// backend and the compaction replaces the file with one atomic `set`.
fn cmd_compact(args: &Args) -> CliResult {
    let [input] = args.positional()?;
    let file = StoreFile::input("fs", input)?;
    let out_path = out_path(args, input);
    let mut store = file.mutable(out_path.is_none())?;
    let stats = store.compact().map_err(|e| file.err(e))?;
    let out = out_path.map(|path| StoreFile::output("fs", path)).transpose()?;
    if let Some(out) = &out {
        out.put(store.as_bytes())?;
    }
    let target = out.as_ref().unwrap_or(&file);
    println!(
        "{}: compacted to generation {} — {} B -> {} B ({} B reclaimed)",
        target.path, stats.generation, stats.before_bytes, stats.after_bytes, stats.reclaimed_bytes,
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
