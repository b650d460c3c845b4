//! Integration tests for the `eblcio` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_eblcio")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eblcio-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write_ramp_f32(path: &PathBuf, n: usize) -> Vec<u8> {
    let bytes: Vec<u8> = (0..n)
        .flat_map(|i| ((i as f32 * 0.01).sin() * 10.0).to_le_bytes())
        .collect();
    std::fs::write(path, &bytes).unwrap();
    bytes
}

#[test]
fn compress_inspect_decompress_roundtrip() {
    let input = tmp("in.raw");
    let compressed = tmp("out.eblc");
    let output = tmp("out.raw");
    let raw = write_ramp_f32(&input, 4096);

    let st = Command::new(bin())
        .args([
            "compress",
            "--codec",
            "sz3",
            "--eps",
            "1e-3",
            "--dtype",
            "f32",
            "--dims",
            "64x64",
        ])
        .arg(&input)
        .arg(&compressed)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("CR"), "{stdout}");

    let st = Command::new(bin()).arg("inspect").arg(&compressed).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("SZ3") && stdout.contains("64x64"), "{stdout}");

    let st = Command::new(bin())
        .arg("decompress")
        .arg(&compressed)
        .arg(&output)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));

    // Reconstructed raw obeys the bound.
    let back = std::fs::read(&output).unwrap();
    assert_eq!(back.len(), raw.len());
    let orig: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let recon: Vec<f32> = back
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let range = 20.0f32;
    for (a, b) in orig.iter().zip(&recon) {
        assert!((a - b).abs() <= 1e-3 * range * 1.01, "{a} vs {b}");
    }
}

#[test]
fn bad_usage_reports_errors() {
    // No args: the usage text shows required flags bare, the rest in
    // brackets, and what only goes with `--chunk` nested inside it.
    let st = Command::new(bin()).output().unwrap();
    assert_eq!(st.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&st.stderr);
    let line = |name: &str| {
        let prefix = format!("eblcio {name} ");
        usage.lines().find(|l| l.trim_start().starts_with(&prefix)).unwrap().to_string()
    };
    assert!(
        line("query").contains(" --origin <AxBxC> --extent <AxBxC> [--repeat <n>]"),
        "{usage}"
    );
    assert!(line("update").contains(" --origin <AxBxC> --extent <AxBxC> [--out <path>]"));
    let compress = line("compress");
    assert!(
        compress.contains(" --eps <rel> --dims <AxBxC> [--chunk <AxBxC> [--shard <chunks> | --mutable]]"),
        "{compress}"
    );
    assert_eq!(compress.matches("--shard").count(), 1, "{compress}");
    assert!(!line("compact").contains("--backend") && !line("decompress").contains("--backend"));

    // Wrong dims for the file size.
    let input = tmp("short.raw");
    write_ramp_f32(&input, 16);
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-2", "--dtype", "f32", "--dims", "999",
        ])
        .arg(&input)
        .arg(tmp("never.eblc"))
        .output()
        .unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("size does not match"));

    // Unknown codec.
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "lzma", "--eps", "1e-2", "--dtype", "f32", "--dims", "16",
        ])
        .arg(&input)
        .arg(tmp("never2.eblc"))
        .output()
        .unwrap();
    assert!(!st.status.success());

    // Decompressing garbage.
    let garbage = tmp("garbage.eblc");
    std::fs::write(&garbage, b"junk").unwrap();
    let st = Command::new(bin())
        .arg("decompress")
        .arg(&garbage)
        .arg(tmp("never.raw"))
        .output()
        .unwrap();
    assert!(!st.status.success());
}

#[test]
fn compress_with_chain_spec_roundtrips() {
    let input = tmp("chain_in.raw");
    let compressed = tmp("chain_out.eblc");
    let output = tmp("chain_out.raw");
    let raw = write_ramp_f32(&input, 4096);

    let st = Command::new(bin())
        .args([
            "compress",
            "--chain",
            "sz3+shuffle4+lz",
            "--eps",
            "1e-3",
            "--dims",
            "64x64",
        ])
        .arg(&input)
        .arg(&compressed)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    assert!(
        String::from_utf8_lossy(&st.stdout).contains("sz3+shuffle4+lz"),
        "stdout should echo the chain"
    );

    // inspect prints the chain grammar for non-preset chains.
    let st = Command::new(bin()).arg("inspect").arg(&compressed).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("sz3+shuffle4+lz") && stdout.contains("EBLC v2"), "{stdout}");

    // decompress routes through the registry without being told the chain.
    let st = Command::new(bin())
        .arg("decompress")
        .arg(&compressed)
        .arg(&output)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    assert_eq!(std::fs::read(&output).unwrap().len(), raw.len());

    // Unknown chains are rejected with a parse error.
    let st = Command::new(bin())
        .args([
            "compress", "--chain", "sz3+zstd", "--eps", "1e-3", "--dims", "64x64",
        ])
        .arg(&input)
        .arg(tmp("never3.eblc"))
        .output()
        .unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("unknown byte stage"));
}

#[test]
fn inspect_understands_store_files() {
    use eblcio::prelude::*;

    // Write a mixed-codec store with the library, inspect it with the CLI.
    let data = NdArray::<f32>::from_fn(Shape::d2(32, 32), |i| {
        (i[0] as f32 * 0.3).sin() * 20.0 + i[1] as f32
    });
    let chains = vec![
        ChainSpec::parse("sz3").unwrap(),
        ChainSpec::parse("szx").unwrap(),
    ];
    let stream = eblcio::store::ChunkedStore::write_mixed(
        &chains,
        &[0, 1, 0, 1],
        &data,
        ErrorBound::Relative(1e-3),
        Shape::d2(16, 16),
        1,
    )
    .unwrap();
    let path = tmp("mixed.ebcs");
    std::fs::write(&path, &stream).unwrap();

    let st = Command::new(bin()).arg("inspect").arg(&path).output().unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("EBCS"), "{stdout}");
    assert!(stdout.contains("4 chunks"), "{stdout}");
    assert!(stdout.contains("SZ3") && stdout.contains("SZx"), "{stdout}");
    // Per-chunk rows show each chunk's chain.
    assert!(stdout.lines().filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit())).count() >= 4, "{stdout}");
}

#[test]
fn demo_runs_for_all_datasets() {
    for ds in ["cesm", "hacc", "nyx", "s3d"] {
        let st = Command::new(bin()).args(["demo", ds]).output().unwrap();
        assert!(st.status.success(), "demo {ds}");
        let stdout = String::from_utf8_lossy(&st.stdout);
        for codec in ["SZ2", "SZ3", "ZFP", "QoZ", "SZx"] {
            assert!(stdout.contains(codec), "demo {ds} missing {codec}");
        }
    }
}

#[test]
fn compress_to_sharded_store_query_and_json_inspect() {
    let input = tmp("store_in.raw");
    let store_path = tmp("store_out.ebcs");
    write_ramp_f32(&input, 4096);

    // Compress straight to a sharded EBCS store.
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-3", "--dtype", "f32", "--dims", "64x64",
            "--chunk", "16x16", "--shard", "4",
        ])
        .arg(&input)
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("4/shard"), "{stdout}");

    // Human inspect shows the shard table.
    let st = Command::new(bin()).arg("inspect").arg(&store_path).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("EBCS v3"), "{stdout}");
    assert!(stdout.contains("EBSH shards"), "{stdout}");

    // JSON inspect parses and carries the sharding section.
    let st = Command::new(bin())
        .args(["inspect", "--json"])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = String::from_utf8_lossy(&st.stdout);
    let doc: serde::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(doc.get("container").unwrap().as_str(), Some("EBCS"));
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(3.0));
    assert_eq!(
        doc.get("sharding").unwrap().get("n_shards").unwrap().as_f64(),
        Some(4.0)
    );
    assert_eq!(doc.get("chunks").unwrap().as_seq().unwrap().len(), 16);

    // Serve repeated overlapping region reads through `query`.
    let st = Command::new(bin())
        .arg("query")
        .arg(&store_path)
        .args([
            "--origin", "8x8", "--extent", "32x32", "--repeat", "3", "--clients", "2",
            "--cache-mb", "64",
        ])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("hit rate"), "{stdout}");
    assert!(stdout.contains("decodes"), "{stdout}");

    // A region outside the array is a clean error.
    let st = Command::new(bin())
        .arg("query")
        .arg(&store_path)
        .args(["--origin", "60x60", "--extent", "32x32"])
        .output()
        .unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("does not fit"));

    // So is one whose `origin + extent` overflows (it used to wrap
    // past the bounds check and panic inside the reader).
    let st = Command::new(bin())
        .arg("query")
        .arg(&store_path)
        .args(["--origin", "18446744073709551615x0", "--extent", "2x1"])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(1), "{}", String::from_utf8_lossy(&st.stderr));
    assert!(String::from_utf8_lossy(&st.stderr).contains("does not fit"));

    // A reader wider than any thread pool is refused before it starts
    // a thread.
    for threads in ["1025", "18446744073709551615"] {
        let st = Command::new(bin())
            .arg("query")
            .arg(&store_path)
            .args(["--origin", "8x8", "--extent", "4x4", "--threads", threads])
            .output()
            .unwrap();
        assert_eq!(st.status.code(), Some(1), "{}", String::from_utf8_lossy(&st.stderr));
        assert!(String::from_utf8_lossy(&st.stderr).contains("at most 1024"), "{threads}");
    }
}

#[test]
fn json_inspect_covers_streams_too() {
    let input = tmp("json_in.raw");
    let compressed = tmp("json_out.eblc");
    write_ramp_f32(&input, 4096);
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "sz3", "--eps", "1e-3", "--dtype", "f32", "--dims", "64x64",
        ])
        .arg(&input)
        .arg(&compressed)
        .output()
        .unwrap();
    assert!(st.status.success());
    let st = Command::new(bin())
        .args(["inspect", "--json"])
        .arg(&compressed)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = String::from_utf8_lossy(&st.stdout);
    let doc: serde::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(doc.get("container").unwrap().as_str(), Some("EBLC"));
    assert_eq!(doc.get("chain").unwrap().as_str(), Some("SZ3"));
    let dims: Vec<f64> = doc
        .get("shape")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(dims, vec![64.0, 64.0]);
}

/// Fig. 10's OpenMP mode writes an `EBCS` store of one dimension-0
/// slab per thread, which the CLI never writes itself: both inspect
/// modes report a library-written one, refuse it cut short or with
/// trailing bytes, and refuse a file with the magic of the retired
/// slab container (`EBL` + `P`) with a typed error rather than a panic.
#[test]
fn inspect_reads_parallel_containers_in_both_modes() {
    use eblcio::codec::{CompressorId, ErrorBound};
    use eblcio::data::{NdArray, Shape};
    use eblcio::store::ChunkedStore;

    let data = NdArray::<f32>::from_fn(Shape::d2(64, 48), |i| {
        (i[0] as f32 * 0.1).sin() * 5.0 + i[1] as f32 * 0.02
    });
    let codec = CompressorId::Szx.instance();
    let slabs = Shape::d2(16, 48);
    let stream =
        ChunkedStore::write(codec.as_ref(), &data, ErrorBound::Relative(1e-3), slabs, 4).unwrap();
    let path = tmp("slabs.ebcs");
    std::fs::write(&path, &stream).unwrap();

    let st = Command::new(bin()).arg("inspect").arg(&path).output().unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = String::from_utf8_lossy(&st.stdout);
    for want in ["EBCS", "SZx", "f32", "64x48", "4 chunks of 16x48"] {
        assert!(text.contains(want), "no {want:?} in\n{text}");
    }

    let st = Command::new(bin()).args(["inspect", "--json"]).arg(&path).output().unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = String::from_utf8_lossy(&st.stdout);
    let doc: serde::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(doc.get("container").unwrap().as_str(), Some("EBCS"));
    assert_eq!(doc.get("chunks").unwrap().as_seq().unwrap().len(), 4);

    let mut padded = stream.clone();
    padded.extend_from_slice(b"junk");
    let mut retired = b"EBL".to_vec();
    retired.push(b'P');
    retired.extend_from_slice(&stream[4..]);
    for (name, bytes, why) in [
        ("cut", &stream[..stream.len() - 1], ""),
        ("padded", &padded[..], ""),
        ("retired", &retired[..], "bad magic"),
    ] {
        let bad = tmp(&format!("slabs_{name}.ebcs"));
        std::fs::write(&bad, bytes).unwrap();
        for json in [false, true] {
            let mut cmd = Command::new(bin());
            cmd.arg("inspect");
            if json {
                cmd.arg("--json");
            }
            let st = cmd.arg(&bad).output().unwrap();
            let err = String::from_utf8_lossy(&st.stderr);
            assert_eq!(st.status.code(), Some(1), "{name} json={json}: {err}");
            assert!(err.starts_with("error: ") && err.contains(why), "{name}: {err}");
            assert!(!err.contains("panicked"), "{name}: {err}");
        }
    }
}

/// The full mutable-store lifecycle through the CLI:
/// compress --mutable → update → query (served from the new
/// generation) → compact → inspect --json.
#[test]
fn mutable_store_update_query_compact_lifecycle() {
    let input = tmp("mut_in.raw");
    let store_path = tmp("mut_store.ebms");
    let patch_path = tmp("mut_patch.raw");
    write_ramp_f32(&input, 4096);

    // Compress straight to a mutable EBMS file.
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-3", "--dtype", "f32", "--dims", "64x64",
            "--chunk", "16x16", "--mutable",
        ])
        .arg(&input)
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("mutable store"), "{stdout}");
    assert!(stdout.contains("generation 1"), "{stdout}");

    // Update one chunk's region with constant 5.0 samples.
    let patch: Vec<u8> = (0..16 * 16).flat_map(|_| 5.0f32.to_le_bytes()).collect();
    std::fs::write(&patch_path, &patch).unwrap();
    let st = Command::new(bin())
        .arg("update")
        .arg(&store_path)
        .args(["--origin", "0x0", "--extent", "16x16"])
        .arg(&patch_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("published generation 2"), "{stdout}");
    assert!(stdout.contains("1/16 chunks rewritten"), "{stdout}");

    // Query serves the current (updated) generation.
    let st = Command::new(bin())
        .arg("query")
        .arg(&store_path)
        .args(["--origin", "0x0", "--extent", "32x32", "--repeat", "2", "--clients", "2"])
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("generation 2"), "{stdout}");
    assert!(stdout.contains("hit rate"), "{stdout}");

    // Human inspect shows history; compact reclaims the dead chunk.
    let st = Command::new(bin()).arg("inspect").arg(&store_path).output().unwrap();
    assert!(st.status.success());
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("EBMS"), "{stdout}");
    assert!(stdout.contains("reclaimable"), "{stdout}");

    let st = Command::new(bin()).arg("compact").arg(&store_path).output().unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("compacted to generation 3"), "{stdout}");
    assert!(stdout.contains("reclaimed"), "{stdout}");

    // JSON inspect of the compacted file: single generation, no
    // reclaimable bytes, current doc is v4.
    let st = Command::new(bin())
        .args(["inspect", "--json"])
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let text = String::from_utf8_lossy(&st.stdout);
    let doc: serde::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(doc.get("container").unwrap().as_str(), Some("EBMS"));
    assert_eq!(doc.get("generation").unwrap().as_f64(), Some(3.0));
    assert_eq!(doc.get("reclaimable_bytes").unwrap().as_f64(), Some(0.0));
    assert_eq!(doc.get("generations").unwrap().as_seq().unwrap().len(), 1);
    let current = doc.get("current").unwrap();
    assert_eq!(current.get("version").unwrap().as_f64(), Some(4.0));

    // Updating a plain EBCS store auto-imports it as mutable.
    let plain = tmp("mut_plain.ebcs");
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-3", "--dtype", "f32", "--dims", "64x64",
            "--chunk", "16x16",
        ])
        .arg(&input)
        .arg(&plain)
        .output()
        .unwrap();
    assert!(st.status.success());
    let st = Command::new(bin())
        .arg("update")
        .arg(&plain)
        .args(["--origin", "16x16", "--extent", "16x16"])
        .arg(&patch_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("importing"), "{stdout}");
    assert!(stdout.contains("published generation 2"), "{stdout}");

    // --mutable without --chunk, and --mutable with --shard, are
    // argument errors.
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-3", "--dims", "64x64", "--mutable",
        ])
        .arg(&input)
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("--mutable requires --chunk"));
}

/// A flag the subcommand never reads used to be skipped silently —
/// `--chnk` wrote a monolithic stream where a store was asked for. Each
/// subcommand now accepts only the flags in its list: anything else is
/// exit 2, names the flag, and leaves no output behind.
#[test]
fn unknown_flags_are_usage_errors() {
    let input = tmp("flags.raw");
    write_ramp_f32(&input, 4096);
    let store = tmp("flags.ebcs");
    let mutable = tmp("flags.ebms");
    let compress = |extra: &[&str], out: &PathBuf| {
        Command::new(bin())
            .args(["compress", "--codec", "szx", "--eps", "1e-3", "--dims", "64x64"])
            .args(extra)
            .arg(&input)
            .arg(out)
            .output()
            .unwrap()
    };
    assert!(compress(&["--chunk", "16x16"], &store).status.success());
    assert!(compress(&["--chunk", "16x16", "--mutable"], &mutable).status.success());

    let rejected = |st: std::process::Output, flag: &str, command: &str| {
        let stderr = String::from_utf8_lossy(&st.stderr);
        assert_eq!(st.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag} for {command}")), "{stderr}");
        assert!(stderr.contains("accepted:"), "{stderr}");
    };
    let typo = tmp("flags_typo.ebcs");
    rejected(compress(&["--chnk", "16x16"], &typo), "--chnk", "compress");
    assert!(!typo.exists(), "a rejected compress must not write anything");
    let query = Command::new(bin())
        .arg("query")
        .arg(&store)
        .args(["--origin", "0x0", "--extent", "8x8", "--repat", "9"])
        .output()
        .unwrap();
    rejected(query, "--repat", "query");
    let compact = Command::new(bin())
        .arg("compact")
        .arg(&mutable)
        .args(["--backend", "object"])
        .output()
        .unwrap();
    rejected(compact, "--backend", "compact");
    // `demo` synthesizes its data and has no store file to reach.
    let demo = Command::new(bin()).args(["demo", "--backend", "object"]).output().unwrap();
    rejected(demo, "--backend", "demo");
    let inspect = Command::new(bin()).args(["inspect", "--metrics"]).arg(&store).output().unwrap();
    rejected(inspect, "--metrics", "inspect");
    // The reader has no sequential prefetcher, so no flag sets one.
    for (command, extra) in [("query", &["--origin", "0x0", "--extent", "8x8"][..]), ("serve", &[])] {
        let st = Command::new(bin())
            .arg(command)
            .arg(&store)
            .args(extra)
            .args(["--prefetch", "1"])
            .output()
            .unwrap();
        rejected(st, "--prefetch", command);
    }

    // A value flag that ends the line is an error too, not a default.
    let st = Command::new(bin())
        .arg("query")
        .arg(&store)
        .args(["--origin", "0x0", "--extent", "8x8", "--repeat"])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&st.stderr).contains("--repeat needs a value"));
}

/// Runs `cmd`, asserts it succeeded, and returns its stdout.
fn run_ok(cmd: &mut Command) -> String {
    let st = cmd.output().unwrap();
    assert!(st.status.success(), "{cmd:?}: {}", String::from_utf8_lossy(&st.stderr));
    String::from_utf8_lossy(&st.stdout).into_owned()
}

const COMPRESS_SZX: [&str; 7] = ["compress", "--codec", "szx", "--eps", "1e-3", "--dims", "64x64"];

/// Writes the 16x16 patch of 5.0 samples `update` writes in these tests.
fn write_patch(path: &PathBuf) {
    std::fs::write(path, (0..256).flat_map(|_| 5.0f32.to_le_bytes()).collect::<Vec<u8>>())
        .unwrap();
}

/// Every subcommand but `demo` reaches its store file through one
/// `Storage`, `fs` when `--backend` is absent: the same command lines on
/// every backend leave byte-identical files, and the simulated object
/// stores bill every command that takes `--backend`.
#[test]
fn every_store_command_goes_through_the_named_backend() {
    let input = tmp("through_in.raw");
    let patch = tmp("through_patch.raw");
    write_ramp_f32(&input, 4096);
    write_patch(&patch);
    // `decompress` and `compact` take no `--backend`; they use `fs`.
    let takes_backend = |name: &str| !matches!(name, "decompress" | "compact");
    let lifecycle = |backend: Option<&str>| {
        let dir = tmp(&format!("through_{}", backend.unwrap_or("default")));
        let (stream, raw, store) = (dir.join("s.eblc"), dir.join("s.raw"), dir.join("m.ebms"));
        let flags: Vec<&str> = backend.map(|b| vec!["--backend", b]).unwrap_or_default();
        let eblcio = |name: &str| {
            let mut cmd = Command::new(bin());
            cmd.arg(name);
            if takes_backend(name) {
                cmd.args(&flags);
            }
            cmd
        };
        let boxed = ["--origin", "8x8", "--extent", "16x16"];
        let outs = [
            (
                "compress",
                run_ok(eblcio(COMPRESS_SZX[0]).args(&COMPRESS_SZX[1..]).arg(&input).arg(&stream)),
            ),
            ("decompress", run_ok(eblcio("decompress").arg(&stream).arg(&raw))),
            ("inspect", run_ok(eblcio("inspect").arg(&stream))),
            (
                "compress",
                run_ok(
                    eblcio(COMPRESS_SZX[0])
                        .args(&COMPRESS_SZX[1..])
                        .args(["--chunk", "16x16", "--mutable"])
                        .arg(&input)
                        .arg(&store),
                ),
            ),
            ("update", run_ok(eblcio("update").arg(&store).args(boxed).arg(&patch))),
            ("query", run_ok(eblcio("query").arg(&store).args(boxed))),
            ("compact", run_ok(eblcio("compact").arg(&store))),
            ("inspect", run_ok(eblcio("inspect").arg("--json").arg(&store))),
        ];
        let files: Vec<Vec<u8>> =
            [&stream, &raw, &store].iter().map(|p| std::fs::read(p).unwrap()).collect();
        (files, outs)
    };

    let (expected, _) = lifecycle(None);
    for backend in ["fs", "memory", "object", "object-fs"] {
        let (files, outs) = lifecycle(Some(backend));
        assert!(files == expected, "--backend {backend} wrote different bytes");
        for (name, out) in &outs {
            let billed = backend.starts_with("object") && takes_backend(name);
            assert_eq!(out.contains("object store:"), billed, "{name} --backend {backend}:\n{out}");
        }
    }
}

/// `update` (on any backend) and `compact` write `--out` anywhere: an
/// in-place run (written through the backend) and an `--out` run (a
/// detached copy, written once) leave the same bytes, and the `--out`
/// run leaves its input as it was.
#[test]
fn out_files_land_anywhere_with_the_bytes_of_an_in_place_run() {
    let input = tmp("out_in.raw");
    let patch = tmp("out_patch.raw");
    let original = tmp("out_store.ebms");
    write_ramp_f32(&input, 4096);
    write_patch(&patch);
    run_ok(
        Command::new(bin())
            .args(COMPRESS_SZX)
            .args(["--chunk", "16x16", "--mutable"])
            .arg(&input)
            .arg(&original),
    );
    let before = std::fs::read(&original).unwrap();

    for backend in ["fs", "object"] {
        let in_place = tmp(&format!("out_in_place_{backend}.ebms"));
        std::fs::write(&in_place, &before).unwrap();
        let elsewhere = tmp(&format!("out_elsewhere_{backend}")).join("nested").join("u.ebms");
        let compacted = elsewhere.with_file_name("c.ebms");
        let update = |store: &PathBuf| {
            let mut cmd = Command::new(bin());
            cmd.args(["update", "--backend", backend, "--origin", "0x0", "--extent", "16x16"])
                .arg(store)
                .arg(&patch);
            cmd
        };
        run_ok(&mut update(&in_place));
        run_ok(update(&original).arg("--out").arg(&elsewhere));
        assert_eq!(std::fs::read(&original).unwrap(), before, "{backend}: --out touched the input");
        assert_eq!(std::fs::read(&elsewhere).unwrap(), std::fs::read(&in_place).unwrap());

        run_ok(Command::new(bin()).arg("compact").arg(&in_place));
        run_ok(Command::new(bin()).arg("compact").arg(&elsewhere).arg("--out").arg(&compacted));
        assert_eq!(std::fs::read(&compacted).unwrap(), std::fs::read(&in_place).unwrap());
    }
}

/// A failed run leaves no directory behind where its store file was to
/// be: a `compress` or `update --out` that fails before it has bytes to
/// write, or a read of a file in a directory that does not exist.
#[test]
fn a_failed_run_in_a_missing_directory_creates_nothing() {
    let input = tmp("nowrite_in.raw");
    let store = tmp("nowrite.ebms");
    write_ramp_f32(&input, 4096);
    run_ok(
        Command::new(bin())
            .args(COMPRESS_SZX)
            .args(["--chunk", "16x16", "--mutable"])
            .arg(&input)
            .arg(&store),
    );
    let missing = tmp("nowrite_missing");
    for backend in ["fs", "memory", "object", "object-fs"] {
        // The input holds 64x64 samples, not 64x65.
        let compress = Command::new(bin())
            .args(["compress", "--codec", "szx", "--eps", "1e-3", "--dims", "64x65"])
            .args(["--backend", backend])
            .arg(&input)
            .arg(missing.join("s.eblc"))
            .output()
            .unwrap();
        assert_eq!(compress.status.code(), Some(1), "{backend}");
        assert!(String::from_utf8_lossy(&compress.stderr).contains("size does not match"));
        // The region does not fit in the 64x64 store.
        let update = Command::new(bin())
            .args(["update", "--backend", backend, "--origin", "60x60", "--extent", "16x16"])
            .arg(&store)
            .arg(&input)
            .arg("--out")
            .arg(missing.join("u.ebms"))
            .output()
            .unwrap();
        assert_eq!(update.status.code(), Some(1), "{backend}");
        assert!(String::from_utf8_lossy(&update.stderr).contains("does not fit"), "{backend}");
        // There is no store file to read.
        let inspect = Command::new(bin())
            .args(["inspect", "--backend", backend])
            .arg(missing.join("x.eblc"))
            .output()
            .unwrap();
        assert_eq!(inspect.status.code(), Some(1), "{backend}");
        assert!(String::from_utf8_lossy(&inspect.stderr).contains("no object stored"));
        assert!(!missing.exists(), "{backend}: a failed run created {missing:?}");
    }
}

/// A failed in-place `update` of a plain `EBCS` store leaves the file as
/// it was: the import is written only together with the update.
#[test]
fn a_failed_update_does_not_import_the_store() {
    let input = tmp("noimport_in.raw");
    let patch = tmp("noimport_patch.raw");
    let store = tmp("noimport.ebcs");
    write_ramp_f32(&input, 4096);
    write_patch(&patch);
    run_ok(
        Command::new(bin()).args(COMPRESS_SZX).args(["--chunk", "16x16"]).arg(&input).arg(&store),
    );
    let before = std::fs::read(&store).unwrap();
    for backend in [None, Some("fs"), Some("object-fs")] {
        let st = Command::new(bin())
            .arg("update")
            .arg(&store)
            .args(["--origin", "60x60", "--extent", "16x16"])
            .arg(&patch)
            .args(backend.map(|b| ["--backend", b]).into_iter().flatten())
            .output()
            .unwrap();
        assert_eq!(st.status.code(), Some(1), "{backend:?}");
        assert!(String::from_utf8_lossy(&st.stderr).contains("does not fit"), "{backend:?}");
        assert_eq!(std::fs::read(&store).unwrap(), before, "{backend:?}: the file changed");
    }
}

/// Kills the spawned `eblcio serve` child when the test ends, pass or
/// fail.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_process_answers_region_stats_and_metrics_over_tcp() {
    use eblcio::daemon::{DaemonClient, RegionSpec};
    use eblcio::serve::{ArrayReader, ReaderConfig};
    use eblcio::store::Region;
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let input = tmp("serve_in.raw");
    let store_path = tmp("serve.ebcs");
    write_ramp_f32(&input, 4096);
    let st = Command::new(bin())
        .args([
            "compress", "--codec", "szx", "--eps", "1e-3", "--dtype", "f32", "--dims", "64x64",
            "--chunk", "16x16", "--shard", "4",
        ])
        .arg(&input)
        .arg(&store_path)
        .output()
        .unwrap();
    assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));

    let mut child = KillOnDrop(
        Command::new(bin())
            .arg("serve")
            .arg(&store_path)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // The first stdout line is `serving <store> on <addr>`; an early
    // exit closes the pipe and yields an empty line instead of a hang.
    // The pipe stays open to the end of the test so the child's later
    // prints cannot fail.
    let mut stdout = BufReader::new(child.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim_end()
        .strip_prefix("serving ")
        .and_then(|rest| rest.rsplit_once(" on "))
        .map(|(_, addr)| addr)
        .unwrap_or_else(|| panic!("no `serving … on <addr>` line, got {line:?}"));

    let mut client = DaemonClient::connect(addr).unwrap();
    client.set_timeout(Some(std::time::Duration::from_secs(30))).unwrap();

    // Over the wire and in process decode the same file to the same bits.
    let served = client.read_region(&RegionSpec::new(&[8, 8], &[32, 32])).unwrap();
    let stream = std::fs::read(&store_path).unwrap();
    let local = ArrayReader::<f32>::open(&stream, ReaderConfig::default())
        .unwrap()
        .read_region(&Region::new(&[8, 8], &[32, 32]))
        .unwrap();
    assert_eq!(served.dims, [32, 32]);
    assert_eq!(served.dtype, 0);
    let local_bytes: Vec<u8> = local.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(served.bytes, local_bytes);

    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 1);
    assert!(stats.decodes > 0);

    let metrics = client.metrics().unwrap();
    assert!(
        metrics.lines().any(|l| l == "# TYPE eblcio_daemon_requests_total counter"),
        "{metrics}"
    );
    for counter in [
        "eblcio_daemon_requests_total",
        "eblcio_daemon_connections_total",
        "eblcio_daemon_reply_bytes_total",
    ] {
        let value = metrics
            .lines()
            .find_map(|l| l.strip_prefix(counter)?.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{counter} <n>` sample line in\n{metrics}"));
        assert!(value >= 1, "{counter} = {value}");
    }
    // Gate wait, slot time and the reply's one write are measured where
    // they happen, on the connection thread: the region read and the
    // stats call above have each left one sample in all three.
    for hist in [
        "eblcio_daemon_admission_wait_ns",
        "eblcio_daemon_service_ns",
        "eblcio_daemon_reply_write_ns",
    ] {
        let ty = format!("# TYPE {hist} histogram");
        assert!(metrics.lines().any(|l| l == ty), "no `{ty}` line in\n{metrics}");
        let count = metrics
            .lines()
            .find_map(|l| l.strip_prefix(hist)?.strip_prefix("_count")?.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{hist}_count <n>` line in\n{metrics}"));
        assert!(count >= 2, "{hist}_count = {count}");
    }
}

/// Every `eblcio <sub> … --flag` line in README.md's code blocks uses
/// only flags the binary's usage text lists for `<sub>`, so a renamed
/// or dropped flag cannot leave a stale example behind.
#[test]
fn readme_examples_use_only_flags_the_usage_lists() {
    let out = Command::new(bin()).output().unwrap();
    let usage = String::from_utf8(out.stderr).unwrap();
    // `sub`'s usage line's flags; `None` when the usage has no such line.
    let flags_of = |sub: &str| -> Option<Vec<&str>> {
        let line = usage.lines().find(|l| l.split_whitespace().take(2).eq(["eblcio", sub]))?;
        Some(line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).filter(|w| w.starts_with("--")).collect())
    };
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let (mut in_block, mut joined, mut checked) = (false, String::new(), 0);
    for line in readme.lines() {
        if line.trim_start().starts_with("```") {
            in_block = !in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        match line.strip_suffix('\\') {
            Some(head) => {
                joined.push_str(head);
                continue;
            }
            None => joined.push_str(line),
        }
        // A command line: `eblcio <sub> …`, after any `VAR=value`s.
        let command = std::mem::take(&mut joined);
        let mut words = command.split_whitespace().skip_while(|w| w.contains('='));
        let (Some("eblcio"), Some(sub)) = (words.next(), words.next()) else {
            continue;
        };
        let listed = flags_of(sub).unwrap_or_else(|| panic!("README runs `eblcio {sub}`, which the usage lacks: {command}"));
        for flag in words.take_while(|&w| w != "#").filter(|w| w.starts_with("--")) {
            let flag = flag.split('=').next().unwrap_or(flag);
            assert!(listed.contains(&flag), "README passes `{flag}` to `eblcio {sub}`, which its usage does not list: {command}");
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} README command lines found");
}
