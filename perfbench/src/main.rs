//! `perfbench` — the repository benchmark binary.
//!
//! ```text
//! perfbench --workload <plan_100k|session_20k|ingest_durable_20k>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--scratch <dir>] [--out <dir>]
//! ```
//!
//! With `--trace 0` it runs the workload untraced for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it runs the workload
//! twice for half the time each — untraced, then through the traced
//! server — checks that the writer responses of the two passes are
//! byte-equal, and prints the per-layer metrics, the tracing overhead
//! among them. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check prints `"correct": false` and exits 1.
//!
//! `perfbench/run.py` builds this binary and is the command to use.

mod host;
mod server;
mod stats;
mod workloads;

use host::HostSpeed;
use server::{Span, Traced};
use stats::{latency_blocks, median, median_rate, mixed_p50, tail, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{
    Booted, Opts, Pass, Workload, PLAN_ALGORITHMS, READ_BLOCK, REQUEST_KINDS, SETUP_REPEATS,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_state");
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--scratch" => scratch = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds, trace, scratch, out })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let outcome = if args.trace { traced(&args) } else { untraced(&args) };
    match outcome {
        Ok((report, correct, attempted, failed)) => {
            println!("{}", report.json_line(correct, attempted, failed));
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

type Outcome = Result<(Report, bool, u64, u64), String>;

fn opts(args: &Args, seconds: f64) -> Opts {
    Opts { seed: args.seed, seconds, scratch: args.scratch.clone() }
}

fn print_failures(pass: &Pass) {
    for f in &pass.failures {
        println!("   CHECK FAILED: {f}");
    }
}

fn failed(pass: &Pass) -> u64 {
    pass.errors.values().sum()
}

/// The end-to-end run.
fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let o = opts(args, args.seconds);
    let mut host = HostSpeed::new();
    host.gauge(host::EDGE_UNITS);
    let booted = workloads::boot(w, &o, SETUP_REPEATS, "e2e", workloads::make_plain)?;
    let setup = booted.setup.clone();
    let pass = workloads::run(w, booted, &o, &mut host);
    host.gauge(host::EDGE_UNITS);
    let mut r = Report::default();
    r.notes.extend(pass.notes.iter().cloned());
    r.note(stats::spread_line("write latency", "ms", &pass.writes));
    r.note(stats::spread_line("read latency", "us", &pass.reads));
    r.note(format!(
        "whole-run rates: writer {:.4} units/s over {:.3} s, reader {:.2} reads/s over {:.3} s; \
         ops_per_s and reads_per_s are median block rates over {} writer and {} read blocks",
        pass.write_units as f64 / pass.write_wall_s.max(1e-9),
        pass.write_wall_s,
        pass.reads.len() as f64 / pass.read_wall_s.max(1e-9),
        pass.read_wall_s,
        pass.write_blocks.len(),
        pass.reads.len() / READ_BLOCK
    ));
    end_to_end(&mut r, &setup.total_s, &pass, &host);
    r.note(format!(
        "requests: {} sent, {} Error responses (failed_frac {})",
        pass.attempted,
        failed(&pass),
        failed(&pass) as f64 / pass.attempted.max(1) as f64
    ));
    r.print_human(&format!("{} (untraced, {} s)", w.name(), args.seconds));
    print_failures(&pass);
    Ok((r, pass.failures.is_empty(), pass.attempted, failed(&pass)))
}

/// Every end-to-end metric, in `BENCHMARK.json` order. Times are
/// multiplied, and rates divided, by the host-speed factor (see [`host`]);
/// the raw values are printed beside them.
fn end_to_end(r: &mut Report, setup_total_s: &[f64], pass: &Pass, host: &HostSpeed) {
    let f = host.factor();
    let write_tail = tail(&pass.writes);
    let read_tail = tail(&pass.reads);
    r.tail_note("write_tail_ms", write_tail);
    r.tail_note("read_tail_us", read_tail);
    let read_blocks = latency_blocks(&pass.reads, READ_BLOCK, 1e-6);
    // (name, unit, raw value, whether it is a rate)
    let timed = [
        ("setup_s", "s", median(setup_total_s), false),
        ("write_p50_ms", "ms", mixed_p50(&pass.writes, pass.write_kinds), false),
        ("write_tail_ms", "ms", write_tail.value, false),
        ("ops_per_s", "1/s", median_rate(&pass.write_blocks), true),
        ("read_p50_us", "us", mixed_p50(&pass.reads, workloads::READ_KINDS.len()), false),
        ("read_tail_us", "us", read_tail.value, false),
        ("reads_per_s", "1/s", median_rate(&read_blocks), true),
    ];
    for (name, unit, raw, rate) in timed {
        r.metric(name, unit, if rate { raw / f } else { raw * f });
    }
    r.metric("utility", "attendees", pass.utility);
    r.metric("peak_rss_mb", "MiB", pass.peak_rss_mib);
    r.note(format!(
        "host speed: reference kernel {:.4} ms, median of {} units ({} ms at the reference speed); factor {f:.4}",
        host.measured_ms(),
        host.unit_ms.len(),
        host::REFERENCE_MS
    ));
    let raw: Vec<String> = timed.iter().map(|(n, _, v, _)| format!("{n} {v:.6}")).collect();
    r.note(format!("raw values, before the factor: {}", raw.join(", ")));
}

/// The traced run: an untraced and a traced pass of half the time each.
fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let o = opts(args, args.seconds / 2.0);
    let mut host = HostSpeed::new();
    host.gauge(host::EDGE_UNITS);
    let plain = workloads::boot(w, &o, SETUP_REPEATS, "plain", workloads::make_plain)?;
    let setup = plain.setup.clone();
    let untraced = workloads::run(w, plain, &o, &mut host);
    let traced: Booted<Traced> = workloads::boot(w, &o, 1, "traced", workloads::make_traced)?;
    let mut pass = workloads::run(w, traced, &o, &mut host);
    host.gauge(host::EDGE_UNITS);
    let spans = std::mem::take(&mut pass.spans);

    // The traced composition must answer exactly as the manager does.
    let common = untraced.writer_responses.len().min(pass.writer_responses.len());
    if common == 0 {
        pass.failures.push("no writer responses to compare".to_string());
    }
    if let Some(i) = (0..common).find(|&i| untraced.writer_responses[i] != pass.writer_responses[i])
    {
        pass.failures.push(format!("traced writer response {i} differs from the untraced one"));
    }
    pass.failures.extend(untraced.failures.iter().map(|f| format!("untraced pass: {f}")));

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let trace_path = args.out.join(format!("trace-{}.jsonl", w.name()));
    server::write_spans(&spans, &trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut r = Report::default();
    r.notes.extend(pass.notes.iter().cloned());
    r.note(format!(
        "spans: {} written to {} ({common} writer responses byte-equal to the untraced pass)",
        spans.len(),
        trace_path.display()
    ));
    per_layer(&mut r, &setup, &pass, &spans);
    let overhead = |t: f64, u: f64| if u > 0.0 { t / u - 1.0 } else { 0.0 };
    let kinds = workloads::READ_KINDS.len();
    let (tw, uw) =
        (mixed_p50(&pass.writes, pass.write_kinds), mixed_p50(&untraced.writes, pass.write_kinds));
    let (tr, ur) = (mixed_p50(&pass.reads, kinds), mixed_p50(&untraced.reads, kinds));
    r.note(format!(
        "tracing overhead: write p50 {uw:.4} ms untraced vs {tw:.4} ms traced; read p50 {ur:.3} us untraced vs {tr:.3} us traced"
    ));
    r.metric("trace.overhead.write_p50", "ratio", overhead(tw, uw));
    r.metric("trace.overhead.read_p50", "ratio", overhead(tr, ur));
    r.metric("trace.spans", "count", spans.len() as f64);
    // Per-layer times are raw; this is the speed they were measured at.
    r.metric("host.gauge_ms", "ms", host.measured_ms());
    r.print_human(&format!("{} (traced, {} s per pass)", w.name(), o.seconds));
    print_failures(&pass);
    let attempted = untraced.attempted + pass.attempted;
    let failed = failed(&untraced) + failed(&pass);
    Ok((r, pass.failures.is_empty(), attempted, failed))
}

/// Mean span length per name, µs. Means, not medians: a span of ~100 ns
/// takes only a few distinct nanosecond values, so its median can read the
/// same from run to run whatever the code does.
fn span_means(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let e = by.entry(s.name).or_default();
        e.0 += s.micros();
        e.1 += 1;
    }
    by.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect()
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the workload
/// bypasses reads 0; every metric in a unit of time is measured on every
/// workload, so none reads a constant.
fn per_layer(r: &mut Report, setup: &workloads::SetupTimes, pass: &Pass, spans: &[Span]) {
    let m = span_means(spans);
    let us = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let layer = |name: &str| pass.layer.get(name).map_or(0.0, |v| v.1);
    r.metric("datasets.build_s", "s", median(&setup.build_s));
    r.metric("net.boot_ms", "ms", median(&setup.boot_ms));
    r.metric("net.ready_ms", "ms", median(&setup.ready_ms));
    // The writer's own request: Schedule (every algorithm) or ApplyOps.
    let handles: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name.starts_with("service.handle.Schedule") || s.name == "service.handle.ApplyOps"
        })
        .map(Span::micros)
        .collect();
    let handle_us = handles.iter().sum::<f64>() / handles.len().max(1) as f64;
    r.metric("service.handle_ms", "ms", handle_us / 1e3);
    let alg_us = us("service.handle.Schedule.ALG");
    for alg in &PLAN_ALGORITHMS[1..] {
        let t = us(&format!("service.handle.Schedule.{alg}"));
        r.metric(
            format!("plan.handle_ratio.{alg}"),
            "ratio",
            if alg_us > 0.0 { t / alg_us } else { 0.0 },
        );
    }
    for alg in PLAN_ALGORITHMS {
        r.metric(format!("plan.user_ops.{alg}"), "count", layer(&format!("plan.user_ops.{alg}")));
    }
    for alg in PLAN_ALGORITHMS {
        let name = format!("plan.score_computations.{alg}");
        r.metric(name.clone(), "count", layer(&name));
    }
    r.metric("plan.inc_alg_user_ops_ratio", "ratio", layer("plan.inc_alg_user_ops_ratio"));
    r.metric("net.publish_ms", "ms", us("net.publish") / 1e3);
    r.metric("net.publish_bytes", "bytes", pass.heap_bytes as f64);
    r.metric("net.resolve_us", "us", us("net.resolve"));
    r.metric("wire.decode_us", "us", us("wire.decode"));
    r.metric("wire.encode_us", "us", us("wire.encode"));
    r.metric("wire.response_bytes", "bytes", median(&pass.response_bytes));
    for kind in ["Event", "User", "Interval", "Snapshot"] {
        r.metric(format!("view.answer_us.{kind}"), "us", us(&format!("view.answer.{kind}")));
    }
    for (name, unit) in [
        ("stream.rescored_per_op", "count"),
        ("stream.score_computations_per_op", "count"),
        ("stream.user_ops_per_op", "count"),
        ("stream.assignments_examined_per_op", "count"),
        ("stream.selections_per_op", "count"),
        ("stream.scores_per_selection", "count"),
        ("delta.coalesce_ratio", "ratio"),
        ("durable.persist_mb_per_s", "MB/s"),
        ("durable.snapshot_bytes", "bytes"),
        ("durable.wal_bytes", "bytes"),
        ("durable.bytes_per_op", "bytes"),
        ("durable.restore_mb_per_s", "MB/s"),
        ("durable.replayed", "count"),
    ] {
        r.metric(name, unit, layer(name));
    }
    for kind in REQUEST_KINDS {
        r.metric(
            format!("service.errors.{kind}"),
            "count",
            *pass.errors.get(kind).unwrap_or(&0) as f64,
        );
    }
    r.metric("service.failed_frac", "ratio", failed(pass) as f64 / pass.attempted.max(1) as f64);
}
