//! The metric tables (the single source `BENCHMARK.json` is checked
//! against), the one-line result the driver reads, and the result
//! document with run metadata that `compare` reads.

use crate::harness::{Metrics, Outcome};
use eblcio_energy::rapl::RaplMeter;
use serde::Value;
use std::path::Path;

/// Measured window when `--seconds` is not given; equals `run_seconds`
/// in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "dump_write",
        "S3D-like f64 field through each of the five codecs, write_sharded then Storage::set: codec encode does ~95% of the work; serve and daemon do none",
    ),
    (
        "cold_region_read",
        "open_from + one non-aligned 1/8-volume read on an uncached reader over a billed object store: codec decode, store open and storage GET do the work; cache and daemon none",
    ),
    (
        "warm_serve",
        "T DaemonClient connections reading 1 MiB boxes from a fully cached SZ3 store: daemon, wire and serve assembly do all the work; codec and storage none",
    ),
    (
        "update_while_serving",
        "update_region, refresh, one invalidated and one cached read, periodic compact on a mutable SZx store: writes beside reads through the same store/serve code",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the stack sees, with the share
/// of the baseline median by which it may worsen before `compare` (and
/// the driver) call it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Bounds are at least three times the widest quartile spread seen over
/// ten seeds in a quiet phase of the reference sandbox (a shared 2-core
/// VM), workload by workload: 4.7 % for the rates (`warm_serve`), 7.0 %
/// for p95 (`cold_region_read`), 6.2 % for peak RSS
/// (`update_while_serving`: allocator arenas of short-lived pool
/// threads), 0.4 % for the counts. The timed ones are wider still,
/// because that machine also has phases of minutes in which every run is
/// 5–15 % slower, which nothing measured inside a run can take out.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "throughput_mbps",
        unit: "MB/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "joules_per_gb",
        unit: "J/GB",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "stored_bytes_per_raw_byte",
        unit: "B/B",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "psnr_db",
        unit: "dB",
        better: Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// Lower-case codec suffixes, in `CompressorId::ALL` order.
pub const CODECS: [&str; 5] = ["sz2", "sz3", "zfp", "qoz", "szx"];

/// `(name, unit, direction)` of every per-layer metric a traced run
/// prints; `{c}` expands to the five codec suffixes. The end-to-end
/// metric and workload each one should move is tabulated in README.md.
const PER_LAYER_TEMPLATE: &[(&str, &str, Better)] = &[
    ("codec.encode_mbps.{c}", "MB/s", Higher),
    ("codec.decode_mbps.{c}", "MB/s", Higher),
    ("codec.encode_mbps_hacc.{c}", "MB/s", Higher),
    ("codec.cr.{c}", "ratio", Higher),
    ("codec.region_decode_mbps.zfp", "MB/s", Higher),
    ("codec.region_decode_mbps.szx", "MB/s", Higher),
    ("codec.array_stage_encode_s", "s", Lower),
    ("codec.byte_stage_encode_s", "s", Lower),
    ("codec.array_stage_decode_s", "s", Lower),
    ("codec.byte_stage_decode_s", "s", Lower),
    ("store.write_self_s", "s", Lower),
    ("store.open_s", "s", Lower),
    ("store.read_region_self_s", "s", Lower),
    ("store.update_self_s", "s", Lower),
    ("store.publish_s", "s", Lower),
    ("store.compact_s", "s", Lower),
    ("store.compact_bytes_rewritten", "B", Lower),
    ("store.append_bytes_per_update", "B", Lower),
    ("store.dead_bytes", "B", Lower),
    ("store.manifest_bytes", "B", Lower),
    ("store.write_amplification", "ratio", Lower),
    ("storage.set_s", "s", Lower),
    ("storage.get_s", "s", Lower),
    ("storage.get_calls_per_op", "count", Lower),
    ("storage.get_range_calls_per_op", "count", Lower),
    ("storage.get_bytes_per_op", "B", Lower),
    ("storage.set_bytes_per_op", "B", Lower),
    ("storage.billed_seconds_per_op", "s", Lower),
    ("storage.billed_usd_per_op", "USD", Lower),
    ("storage.failed_ops", "count", Lower),
    ("serve.hit_rate", "ratio", Higher),
    ("serve.decodes_per_op", "count", Lower),
    ("serve.partial_decodes_per_op", "count", Higher),
    ("serve.decoded_bytes_per_delivered_byte", "ratio", Lower),
    ("serve.evictions", "count", Lower),
    ("serve.flight_waits", "count", Lower),
    ("serve.invalidations_per_refresh", "count", Lower),
    ("serve.refresh_s", "s", Lower),
    ("serve.assemble_self_s", "s", Lower),
    ("serve.warm_region_mbps", "MB/s", Higher),
    ("serve.warm_region_memcpy_fraction", "ratio", Higher),
    ("serve.allocs_per_warm_op", "count", Lower),
    ("daemon.wire_self_s", "s", Lower),
    ("daemon.reply_encode_s", "s", Lower),
    ("daemon.reply_decode_s", "s", Lower),
    ("daemon.small_rtt_us", "us", Lower),
    ("daemon.loopback_fraction", "ratio", Higher),
    ("daemon.allocs_per_op", "count", Lower),
    ("daemon.requests_total", "count", Higher),
    ("daemon.overloaded", "count", Lower),
    ("daemon.errors", "count", Lower),
    ("energy.compute_joules_per_gb", "J/GB", Lower),
    ("energy.io_joules_per_gb", "J/GB", Lower),
    ("energy.rapl_available", "count", Higher),
    ("energy.rapl_joules_per_gb", "J/GB", Lower),
    ("core.energy_ratio_vs_original.{c}", "ratio", Lower),
    ("ceiling.memcpy_mbps", "MB/s", Higher),
    ("ceiling.loopback_mbps", "MB/s", Higher),
    ("ceiling.fs_write_mbps", "MB/s", Higher),
    ("ceiling.fs_read_mbps", "MB/s", Higher),
    ("client.op_p99_ms", "ms", Lower),
    ("client.op_max_ms", "ms", Lower),
    ("client.samples", "count", Higher),
    ("client.window_spread", "ratio", Lower),
    ("trace.spans", "count", Higher),
    ("trace.overhead_fraction", "ratio", Lower),
    ("trace.ladder_min_self_fraction", "ratio", Higher),
    ("trace.primary_layer_share", "ratio", Higher),
];

/// The expanded per-layer table.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for &(name, unit, better) in PER_LAYER_TEMPLATE {
        if name.contains("{c}") {
            out.extend(
                CODECS
                    .iter()
                    .map(|c| (name.replace("{c}", c), unit, better)),
            );
        } else {
            out.push((name.to_string(), unit, better));
        }
    }
    out
}

/// Every per-layer metric at 0: a layer a workload bypasses reports
/// zero work, which is the evidence that it was bypassed.
pub fn per_layer_zeros() -> Metrics {
    per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, (0.0, u)))
        .collect()
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_value(metrics: &Metrics) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(k, (v, u))| {
                (
                    k.clone(),
                    map(vec![
                        ("value", Value::F64(*v)),
                        ("unit", Value::Str(u.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Keeps the metrics the contract asks of this kind of run, in table
/// order; a missing one is a harness bug reported as an error.
pub fn contract_metrics(outcome: &Outcome, trace: bool) -> Result<Metrics, String> {
    let names: Vec<String> = if trace {
        per_layer().into_iter().map(|(n, _, _)| n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_string()).collect()
    };
    names
        .into_iter()
        .map(|n| match outcome.metrics.get(&n) {
            Some(&(v, u)) if v.is_finite() => Ok((n, (v, u))),
            Some(&(v, _)) => Err(format!("metric {n} is not finite: {v}")),
            None => Err(format!("metric {n} was not measured")),
        })
        .collect()
}

/// The single line the driver parses: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn contract_line(outcome: &Outcome, metrics: &Metrics) -> String {
    let doc = map(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

/// Facts about the run a reader needs to judge whether two result
/// files are comparable.
pub struct Meta {
    pub seed: u64,
    pub seconds: f64,
    pub t: usize,
    pub quick: bool,
}

fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Size of the last-level cache of cpu0 as sysfs prints it ("unknown"
/// where sysfs has no cache directory, as in some sandboxes).
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn meta_value(meta: &Meta) -> Value {
    map(vec![
        ("git_commit", Value::Str(git_commit())),
        ("seed", Value::U64(meta.seed)),
        ("run_seconds", Value::F64(meta.seconds)),
        ("T", Value::U64(meta.t as u64)),
        ("nproc", Value::U64(crate::harness::nproc() as u64)),
        ("llc_size", Value::Str(llc_size())),
        (
            "energy_source",
            Value::Str(
                if RaplMeter::discover().is_some() {
                    "rapl"
                } else {
                    "modelled"
                }
                .into(),
            ),
        ),
        ("quick", Value::Bool(meta.quick)),
    ])
}

/// One workload's entry in a result document.
pub fn run_value(workload: &str, trace: bool, outcome: &Outcome) -> Value {
    map(vec![
        ("workload", Value::Str(workload.to_string())),
        ("trace", Value::Bool(trace)),
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        (
            "failures",
            Value::Seq(outcome.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("window_ops", Value::U64(outcome.window_ops)),
        ("window_wall_s", Value::F64(outcome.window_wall_s)),
        ("metrics", metrics_value(&outcome.metrics)),
    ])
}

/// The result document: metadata plus one entry per workload run.
/// `--quick` documents are marked non-comparable; `compare` refuses them.
pub fn document(meta: &Meta, runs: Vec<Value>) -> String {
    let doc = map(vec![
        ("schema", Value::Str("eblcio-benchmark/1".into())),
        ("comparable", Value::Bool(!meta.quick)),
        ("meta", meta_value(meta)),
        ("runs", Value::Seq(runs)),
    ]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_seq)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = benchmark_json();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        for (w, (_, why)) in doc
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(why));
        }
        let e2e = doc.get("end_to_end").and_then(Value::as_seq).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_seq).unwrap();
        let table = per_layer();
        assert_eq!(layers.len(), table.len());
        for (j, (name, unit, better)) in layers.iter().zip(&table) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(name.as_str()));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(*unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let table = per_layer();
        assert!(table.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in table
            .iter()
            .map(|(n, u, _)| (n.as_str(), *u))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "-")))
        {
            assert!(ok_name(n), "{n}");
            assert!(ok_unit(u), "{u}");
            assert!(seen.insert(n.to_string()), "{n} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in &END_TO_END {
            o.put(m.name, 1.5, m.unit);
        }
        o.put("client.samples", 3.0, "count");
        let line = contract_line(&o, &contract_metrics(&o, false).unwrap());
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().as_map().unwrap().len(),
            END_TO_END.len()
        );
        assert!(
            contract_metrics(&o, true).is_err(),
            "per-layer metrics were never measured"
        );
    }
}
