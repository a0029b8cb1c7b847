//! A fixed reference kernel that gauges how fast the host runs during a
//! workload.
//!
//! The benchmark shares its machine with other tenants, and the speed the
//! host gives it changes in phases that last minutes: within half an hour
//! the median 1-op `ApplyOps` on `session_20k` went from ~110 ms to ~45 ms
//! with no change to anything, and a fixed CPU loop sped up by 1.5×. A set
//! of ten runs that straddles such a change spreads past any useful bound
//! however long each run is. So every run times this kernel — the
//! benchmark's own code, no part of the program — at the start, about
//! once a second during the measured pass while the workload's clients
//! wait, and at the end, and the end-to-end times are reported at
//! [`REFERENCE_MS`], the kernel's unit time on the baseline host:
//! `raw × REFERENCE_MS / measured`. The raw values and the factor are
//! printed with every run.
//!
//! The kernel is shaped like the program's hot paths: it streams a byte
//! matrix through a 256-entry `f64` table (the quantized interest levels
//! the scoring engine reads), probes it at random, and copies part of it
//! into a fresh buffer (the published view's clone). It runs on
//! [`THREADS`] threads at once, the busy-thread count of every workload.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Threads the kernel runs on at once: the workloads' busy threads.
pub const THREADS: usize = 2;
/// Units each thread times at the start and at the end of a run.
pub const EDGE_UNITS: usize = 16;
/// Units each thread times at a gauge during the measured pass.
const TICK_UNITS: usize = 3;
/// How often the measured pass is gauged.
const TICK_EVERY: Duration = Duration::from_secs(1);
/// The kernel's unit time on the baseline host, ms: the median over 62
/// short runs of the three workloads, made over 25 minutes.
pub const REFERENCE_MS: f64 = 8.8;
/// Bytes of each thread's matrix: larger than a core's share of the cache.
const MATRIX_BYTES: usize = 8 << 20;
/// Random probes per unit.
const PROBES: usize = 150_000;
/// Bytes copied per unit.
const COPY_BYTES: usize = 2 << 20;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One unit of the kernel; returns a checksum so nothing is optimized away.
fn unit(matrix: &[u8], table: &[f64; 256], salt: u64) -> f64 {
    let mut acc = 0.0;
    for &b in matrix {
        acc += table[b as usize];
    }
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    for _ in 0..PROBES {
        acc += table[matrix[(next(&mut x) % matrix.len() as u64) as usize] as usize];
    }
    let copy = matrix[..COPY_BYTES].to_vec();
    acc + f64::from(copy[copy.len() / 2])
}

/// The kernel's inputs and every unit time taken in one run.
pub struct HostSpeed {
    matrices: Vec<Vec<u8>>,
    table: [f64; 256],
    last: Instant,
    /// Every kernel unit timed in the run, ms.
    pub unit_ms: Vec<f64>,
}

impl HostSpeed {
    /// Builds the kernel's inputs, the same in every run.
    pub fn new() -> Self {
        let matrices = (0..THREADS as u64)
            .map(|t| {
                let mut x = 0x2545_F491_4F6C_DD1D ^ (t + 1);
                (0..MATRIX_BYTES).map(|_| next(&mut x) as u8).collect()
            })
            .collect();
        let table = std::array::from_fn(|i| (i as f64 + 0.5) / 256.0);
        Self { matrices, table, last: Instant::now(), unit_ms: Vec::new() }
    }

    /// Times `units` kernel units on each of [`THREADS`] threads at once.
    /// The caller makes sure nothing else of the workload runs meanwhile.
    pub fn gauge(&mut self, units: usize) {
        let table = &self.table;
        let times: Vec<f64> = std::thread::scope(|sc| {
            let workers: Vec<_> = self
                .matrices
                .iter()
                .map(|matrix| {
                    sc.spawn(move || {
                        (0..units as u64)
                            .map(|u| {
                                let start = Instant::now();
                                black_box(unit(black_box(matrix), table, u));
                                start.elapsed().as_secs_f64() * 1e3
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("gauge thread")).collect()
        });
        self.unit_ms.extend(times);
        self.last = Instant::now();
    }

    /// Whether a gauge is due during the measured pass.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= TICK_EVERY
    }

    /// Gauges a few units during the measured pass.
    pub fn tick(&mut self) {
        self.gauge(TICK_UNITS);
    }

    /// Gauges a few units if one is due.
    pub fn tick_if_due(&mut self) {
        if self.due() {
            self.tick();
        }
    }

    /// Median kernel unit time in this run, ms.
    pub fn measured_ms(&self) -> f64 {
        median(&self.unit_ms)
    }

    /// The factor that brings a time measured in this run to the reference
    /// speed: [`REFERENCE_MS`] / measured. A rate is divided by it.
    pub fn factor(&self) -> f64 {
        let m = self.measured_ms();
        if m > 0.0 {
            REFERENCE_MS / m
        } else {
            1.0
        }
    }
}
