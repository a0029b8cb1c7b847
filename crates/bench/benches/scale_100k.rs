//! **Scale baseline, 100k users** — the first point on the paper's
//! million-user axis (Table 1 runs |U| up to 1M; the committed figure
//! benches stop at bench scale). One Zipf workload, quantized to 256
//! interest levels, measured three ways:
//!
//! * build time for the sparse and compressed layouts via the
//!   counter-based streaming generator ([`ses_datasets::scale::build`]);
//! * resident interest bytes for both layouts, recorded as gauges riding
//!   the same baseline stream as the timings — the bench **asserts** the
//!   acceptance bar `compressed ≤ sparse / 3` before recording;
//! * steady-state work on the compressed layout: one Eq.-4
//!   `assignment_score` (t1/t4, bit-identical across the dimension), one
//!   INC end-to-end schedule, and one Ω(S) evaluation (`total_utility`) of
//!   that schedule;
//! * one `delta::apply` per sample for `ShiftInterest`, `RemoveEvent` and
//!   `AddUsers`, on the sparse and compressed layouts — the per-op cost of
//!   the in-place edits, which a return to whole-matrix re-encodes would
//!   multiply.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ses_algorithms::SchedulerKind;
use ses_bench::{record_gauge, threaded_label, Threads, BENCH_THREADS};
use ses_core::delta::{self, DeltaOp, NewUser};
use ses_core::model::{Instance, StorageKind};
use ses_core::scoring::utility::total_utility;
use ses_core::scoring::ScoringEngine;
use ses_core::{EventId, IntervalId};
use ses_datasets::{scale, InterestModel, SyntheticParams};
use std::hint::black_box;

const USERS: usize = 100_000;
const K: usize = 12;

fn params() -> SyntheticParams {
    SyntheticParams {
        num_users: USERS,
        num_events: 5 * K,
        num_intervals: 3 * K / 2,
        competing_per_interval: (1, 3),
        interest: InterestModel::Zipf { s: 2.0 },
        interest_levels: 256,
        seed: 0x100_000,
        ..SyntheticParams::default()
    }
}

fn bench(c: &mut Criterion) {
    let p = params();
    let mut group = c.benchmark_group("scale_100k");
    group.sample_size(5);

    for kind in [StorageKind::Sparse, StorageKind::Compressed] {
        group.bench_with_input(BenchmarkId::new("build", kind.name()), &kind, |b, &k| {
            b.iter(|| black_box(scale::build(&p, k)))
        });
    }

    let sparse = scale::build(&p, StorageKind::Sparse);
    let compressed = scale::build(&p, StorageKind::Compressed);
    let (sb, cb) = (sparse.event_interest.heap_bytes(), compressed.event_interest.heap_bytes());
    assert!(
        cb * 3 <= sb,
        "acceptance bar: compressed interest ({cb} B) must be <= 1/3 of sparse ({sb} B)"
    );
    record_gauge("scale_100k/heap_bytes/sparse", sb as u64);
    record_gauge("scale_100k/heap_bytes/compressed", cb as u64);
    record_gauge("scale_100k/heap_bytes/instance_compressed", compressed.heap_bytes() as u64);

    // One delta op per sample, each on a fresh clone of the layout's base
    // instance (cloned outside the timed region), so no sample sees an
    // earlier one's edits however many iterations the harness runs.
    group.sample_size(10);
    for (kind, inst) in [(StorageKind::Sparse, &sparse), (StorageKind::Compressed, &compressed)] {
        for (name, op) in [
            ("shift_interest", shift_op as OpFn),
            ("remove_event", remove_op),
            ("add_users", add_users_op),
        ] {
            let mut i = 0;
            group.bench_with_input(
                BenchmarkId::new(format!("delta_apply/{name}"), kind.name()),
                &kind,
                |b, _| {
                    b.iter_batched(
                        || {
                            i += 1;
                            (inst.clone(), op(inst, i))
                        },
                        |(mut live, op)| {
                            delta::apply(&mut live, &op).expect("op valid");
                            live
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    drop(sparse);

    for threads in BENCH_THREADS {
        let t = threaded_label("compressed", threads);
        let mut engine = ScoringEngine::with_threads(&compressed, Threads::new(threads));
        engine.apply(EventId::new(1), IntervalId::new(0));
        group.bench_with_input(BenchmarkId::new("assignment_score", &t), &t, |b, _| {
            b.iter(|| black_box(engine.assignment_score(EventId::new(0), IntervalId::new(0))))
        });
    }

    // One end-to-end INC schedule at 100k users: the layer every layout
    // change must leave bit-identical, timed on the compressed backend.
    group.sample_size(3);
    group.bench_with_input(BenchmarkId::new("inc_end_to_end", "compressed/t4"), &K, |b, &k| {
        b.iter(|| black_box(SchedulerKind::Inc.run_threaded(&compressed, k, Threads::new(4))))
    });

    // Ω(S) of that schedule — the evaluator every repair and every cold
    // run reports through, streamed one column at a time.
    let schedule = SchedulerKind::Inc.run_threaded(&compressed, K, Threads::new(1)).schedule;
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("total_utility", "compressed"), &K, |b, _| {
        b.iter(|| black_box(total_utility(&compressed, &schedule)))
    });
    group.finish();
}

/// Builds the `i`-th op of one delta arm against the base instance.
type OpFn = fn(&Instance, usize) -> DeltaOp;

/// A drift on a spread-out cell, cycling through the quantized levels.
fn shift_op(inst: &Instance, i: usize) -> DeltaOp {
    DeltaOp::ShiftInterest {
        event: EventId::new(i * 7 % inst.num_events()),
        user: i * 7919 % inst.num_users(),
        interest: (i % 255 + 1) as f64 / 256.0,
    }
}

/// Cancels event 0, so every later column shifts down.
fn remove_op(_: &Instance, _: usize) -> DeltaOp {
    DeltaOp::RemoveEvent { event: EventId::new(0) }
}

/// Four joiners (the op generator's default batch) with quantized interest.
fn add_users_op(inst: &Instance, i: usize) -> DeltaOp {
    let level = |j: usize| ((i + j) % 255 + 1) as f64 / 256.0;
    let users = (0..4)
        .map(|u| NewUser {
            event_interest: (0..inst.num_events()).map(|e| level(u + e)).collect(),
            competing_interest: (0..inst.num_competing()).map(|c| level(u + c)).collect(),
            activity: (0..inst.num_intervals()).map(|t| level(u + t)).collect(),
            weight: None,
        })
        .collect();
    DeltaOp::AddUsers { users }
}

criterion_group!(benches, bench);
criterion_main!(benches);
