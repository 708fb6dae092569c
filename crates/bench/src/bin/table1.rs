//! Regenerates Table I: per-benchmark detail with #PI, #FF, the exact BDD
//! diameters (d_F, d_B) and Time / k_fp / j_fp for each engine, including
//! the racing portfolio.
//!
//! Run with `cargo run -p itpseq-bench --bin table1 --release`.
//!
//! Options:
//!
//! * `--suite full|mid|industrial|smoke` — benchmark selection (default
//!   `full`; `smoke` is the fast subset CI reruns on every push),
//! * `--json PATH` — additionally write the records as machine-readable
//!   JSON (schema `itpseq-table1/v7`, which adds the fixpoint-layer
//!   counters `fixpoint_checks` and `fixpoint_time_ms` on top of v6's
//!   fault-isolation counters),
//!   the artifact CI uploads,
//! * `--chaos SEED` — arm a deterministic fault plan per run, derived
//!   from `SEED` and the run index ([`mc::FaultPlan::seeded`]): each run
//!   gets one pseudo-random injected fault, which may cost its verdict
//!   (reported `inconclusive` with a machine-readable reason) but must
//!   never crash the process or flip a conclusive answer,
//! * `--mem-mb N` — per-run memory budget in MiB; a run over budget
//!   stops with reason `memlimit`, surfaced exactly like a timeout,
//! * `--trace PATH` — record engine telemetry for every run into one
//!   `itpseq-trace/v1` JSONL stream,
//! * `--chrome-trace PATH` — the same telemetry as a Chrome trace-event
//!   file (load in Perfetto or `chrome://tracing`),
//! * `--report PATH` — the span-tree analysis of the recorded telemetry
//!   (schema `itpseq-report/v1`: per-track span aggregates, counter
//!   rates, portfolio wasted work),
//! * `--folded PATH` — the telemetry as inferno-compatible collapsed
//!   stacks (pipe through `inferno-flamegraph` for an SVG),
//! * `--certify` / `--cert-dir DIR` — write per-benchmark certificate
//!   bundles (`<name>.aag` + `<name>.certs.json`, schema
//!   `itpseq-cert/v1`) for the independent checker
//!   (`cargo run --bin certify`); `--certify` defaults the directory to
//!   `certs`.

use itpseq_bench::{
    cert_file_stem, experiment_options, records_to_json, run_engine, suite_by_name, with_capture,
    write_cert_bundle, RunRecord, TraceCapture, TracePaths,
};
use mc::{CertRecord, Engine};
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: table1 [--suite full|mid|industrial|smoke] [--json PATH] \
         [--trace PATH] [--chrome-trace PATH] [--report PATH] [--folded PATH] \
         [--certify] [--cert-dir DIR] [--chaos SEED] [--mem-mb N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut suite_name = "full".to_string();
    let mut json_path: Option<String> = None;
    let mut trace = TracePaths::default();
    let mut cert_dir: Option<PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut mem_mb: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--suite" => suite_name = args.next().unwrap_or_else(|| usage()),
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace.jsonl = Some(args.next().unwrap_or_else(|| usage())),
            "--chrome-trace" => trace.chrome = Some(args.next().unwrap_or_else(|| usage())),
            "--report" => trace.report = Some(args.next().unwrap_or_else(|| usage())),
            "--folded" => trace.folded = Some(args.next().unwrap_or_else(|| usage())),
            "--certify" => {
                cert_dir.get_or_insert_with(|| PathBuf::from("certs"));
            }
            "--cert-dir" => cert_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--chaos" => {
                chaos_seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--mem-mb" => {
                mem_mb = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ => usage(),
        }
    }
    let suite = suite_by_name(&suite_name).unwrap_or_else(|| usage());

    let capture = TraceCapture::new(trace);
    let mut options = with_capture(experiment_options(), capture.as_ref());
    if let Some(seed) = chaos_seed {
        eprintln!("table1: chaos mode, fault plan seed {seed}");
    }
    if let Some(mb) = mem_mb {
        options = options.with_memory_limit(mb << 20);
    }
    let engines = [
        Engine::Itp,
        Engine::ItpSeq,
        Engine::SerialItpSeq,
        Engine::ItpSeqCba,
        Engine::Pdr,
        Engine::Portfolio,
    ];

    println!("# Table I — ovf means budget exhausted, '-' means not available");
    println!(
        "{:<34} {:>4} {:>4} | {:>4} {:>7} {:>4} {:>7} | {}",
        "name",
        "#PI",
        "#FF",
        "dF",
        "TimeF",
        "dB",
        "TimeB",
        engines
            .iter()
            .map(|e| format!("{:>9} {:>5} {:>5}", e.name(), "k_fp", "j_fp"))
            .collect::<Vec<_>>()
            .join(" | ")
    );

    let mut records: Vec<RunRecord> = Vec::new();
    for benchmark in &suite {
        // BDD columns (diameters), with a node limit standing in for the
        // paper's memory limit.
        let bdd_start = Instant::now();
        let analysis = bdd::reach::analyze(&benchmark.aig, 0, 2_000_000);
        let bdd_ms = bdd_start.elapsed().as_secs_f64() * 1e3;
        let (df, db) = (
            analysis
                .forward_diameter
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_string()),
            analysis
                .backward_diameter
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_string()),
        );
        let bdd_time = if analysis.forward_diameter.is_some() {
            format!("{bdd_ms:.0}")
        } else {
            "ovf".to_string()
        };

        let mut engine_cells = Vec::new();
        let mut cert_records = Vec::new();
        for engine in engines {
            // A fault plan fires exactly once across all its clones, so
            // chaos mode derives a fresh plan per run from the seed and
            // the run index — deterministic, and every run gets a fault.
            let run_options = match chaos_seed {
                Some(seed) => options
                    .clone()
                    .with_faults(mc::FaultPlan::seeded(seed ^ records.len() as u64)),
                None => options.clone(),
            };
            let record = run_engine(benchmark, engine, &run_options);
            let (time, k, j) = record.cells();
            engine_cells.push(format!("{time:>9} {k:>5} {j:>5}"));
            if cert_dir.is_some() {
                cert_records.push(CertRecord::from_result(
                    0,
                    Some(engine.name()),
                    &record.result,
                ));
            }
            records.push(record);
        }
        if let Some(dir) = &cert_dir {
            let _write = options.telemetry.span("certificate.write");
            let stem = cert_file_stem(&benchmark.name);
            write_cert_bundle(dir, &stem, &benchmark.aig, &cert_records).unwrap_or_else(|e| {
                eprintln!(
                    "table1: cannot write certificates to {}: {e}",
                    dir.display()
                );
                std::process::exit(1);
            });
        }

        println!(
            "{:<34} {:>4} {:>4} | {:>4} {:>7} {:>4} {:>7} | {}",
            benchmark.name,
            benchmark.aig.num_inputs(),
            benchmark.aig.num_latches(),
            df,
            bdd_time,
            db,
            bdd_time,
            engine_cells.join(" | ")
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, records_to_json(&records)).unwrap_or_else(|e| {
            eprintln!("table1: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {} records to {path}", records.len());
    }
    if let Some(dir) = &cert_dir {
        eprintln!(
            "wrote certificate bundles for {} benchmarks to {}",
            suite.len(),
            dir.display()
        );
    }
    if let Some(capture) = &capture {
        if let Err(message) = capture.write() {
            eprintln!("table1: {message}");
            std::process::exit(1);
        }
    }
}
