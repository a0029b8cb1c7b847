//! The three workloads, their set-up, and their correctness checks.
//!
//! Every workload drives a [`Server`] through wire lines only, exactly as a
//! TCP client would, and records what it saw in a [`Pass`].

use crate::host::HostSpeed;
use crate::server::{Plain, Server, Span, Traced};
use crate::stats::median;
use ses_algorithms::service::{wire, Query, Request, Response, SessionManager, Snapshot};
use ses_algorithms::SchedulerKind;
use ses_core::delta::{self, DeltaOp};
use ses_core::model::{Instance, StorageKind};
use ses_core::parallel::Threads;
use ses_core::scoring::utility::total_utility;
use ses_core::{Assignment, Schedule, Stats};
use ses_datasets::ops::{self, BurstParams, OpStreamParams};
use ses_datasets::{scale, InterestModel, SyntheticParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Schedule size for every workload (the ROADMAP's probe setting).
pub const K: usize = 12;
/// Candidate events |E| (5k).
const EVENTS: usize = 60;
/// Intervals |T| (3k/2).
const INTERVALS: usize = 18;
/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;
/// Share of the run read-only probes get on the workloads whose writer
/// does not run beside a reader.
const PROBE_SHARE: f64 = 0.15;
/// Ops per windowed `ApplyOps` on `ingest_durable_20k`.
const WINDOW: usize = 16;
/// Windows between explicit `Persist` requests on `ingest_durable_20k`.
const PERSIST_EVERY: usize = 4;
/// Windows per `ingest_durable_20k` segment. Each segment is a fresh
/// durable session fed from the base instance: the generated ops add and
/// remove events at random, so one long feed drifts the instance, and the
/// cost of a window with it, by a different amount for every seed (56 to
/// 67 events after 200 ops). Several short walks from the same start hold
/// the figures of one seed near those of another.
const SEGMENT_WINDOWS: usize = 8;
/// `utility` on `session_20k` is Ω(S) of the maintained schedule after
/// this many ops, so it repeats exactly for a seed however fast the run
/// is. By then the generated `AddEvent`s dominate the schedule and Ω(S)
/// varies little from seed to seed; a run absorbs ~300 ops in 30 s.
const SESSION_UTILITY_AT_OPS: u64 = 128;
/// As [`SESSION_UTILITY_AT_OPS`], for `ingest_durable_20k`: the mean of
/// Ω(S) at the last window of the first two segments. One segment's 128
/// ops varied Ω(S) by 0.16 (quartile spread) over six seeds.
const INGEST_UTILITY_AT_OPS: [u64; 2] =
    [(SEGMENT_WINDOWS * WINDOW) as u64, (2 * SEGMENT_WINDOWS * WINDOW) as u64];
/// Reads per block of `reads_per_s`: a hundred rotations of the mix.
pub const READ_BLOCK: usize = 400;
/// `ApplyOps` requests per block of `ops_per_s` on `session_20k`.
const SESSION_WRITE_BLOCK: usize = 8;
/// Read kinds in the reader's rotation, in order.
pub const READ_KINDS: [&str; 4] = ["Snapshot", "Event", "User", "Interval"];
/// The reader keeps this far below the event count of its latest
/// `Snapshot`, so an event removed after that reply is never addressed.
const EVENT_MARGIN: usize = 8;
/// As [`EVENT_MARGIN`], for users (an op retires at most 4).
const USER_MARGIN: usize = 64;
/// The `plan_100k` rotation.
pub const PLAN_ALGORITHMS: [&str; 4] = ["ALG", "INC", "HOR", "HOR-I"];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `Schedule` rotation at 100k users.
    Plan100k,
    /// Armed in-memory session: 1-op writer beside a reader, 20k users.
    Session20k,
    /// Durable windowed ingest with `Persist`/`Restore`, 20k users.
    IngestDurable20k,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "plan_100k" => Some(Self::Plan100k),
            "session_20k" => Some(Self::Session20k),
            "ingest_durable_20k" => Some(Self::IngestDurable20k),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Plan100k => "plan_100k",
            Self::Session20k => "session_20k",
            Self::IngestDurable20k => "ingest_durable_20k",
        }
    }

    fn users(self) -> usize {
        match self {
            Self::Plan100k => 100_000,
            Self::Session20k | Self::IngestDurable20k => 20_000,
        }
    }

    fn threads(self) -> Threads {
        Threads::new(match self {
            Self::Session20k => 1,
            Self::Plan100k | Self::IngestDurable20k => 2,
        })
    }

    fn armed(self) -> bool {
        self != Self::Plan100k
    }

    fn durable(self) -> bool {
        self == Self::IngestDurable20k
    }
}

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the instance, the op stream and the reader's ids all
    /// derive from it.
    pub seed: u64,
    /// Measured seconds of this pass.
    pub seconds: f64,
    /// Directory for durable state (removed afterwards).
    pub scratch: PathBuf,
}

/// Derives an independent 64-bit stream seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The instance parameters: Zipf interest at 256 levels, |E| = 60,
/// |T| = 18, the layout `scale_100k` measures.
fn params(w: Workload, seed: u64) -> SyntheticParams {
    SyntheticParams {
        num_users: w.users(),
        num_events: EVENTS,
        num_intervals: INTERVALS,
        competing_per_interval: (1, 3),
        interest: InterestModel::Zipf { s: 2.0 },
        interest_levels: 256,
        seed: derive(seed, 1),
        ..SyntheticParams::default()
    }
}

/// Per-request-kind name used for error counts.
pub const REQUEST_KINDS: [&str; 6] =
    ["Schedule", "ApplyOps", "Persist", "Restore", "Query", "Snapshot"];

/// Sends lines and counts attempts and `Error` responses per kind.
struct Client<'a> {
    server: &'a dyn Server,
    attempted: u64,
    errors: BTreeMap<&'static str, u64>,
    response_bytes: Vec<f64>,
}

impl<'a> Client<'a> {
    fn new(server: &'a dyn Server) -> Self {
        Self { server, attempted: 0, errors: BTreeMap::new(), response_bytes: Vec::new() }
    }

    /// Sends one line; returns the response and its latency in seconds.
    fn send(&mut self, kind: &'static str, line: &str) -> (String, f64) {
        let t = Instant::now();
        let resp = self.server.handle_line(line);
        let dt = t.elapsed().as_secs_f64();
        self.attempted += 1;
        self.response_bytes.push(resp.len() as f64);
        if is_error(&resp) {
            *self.errors.entry(kind).or_default() += 1;
        }
        (resp, dt)
    }
}

fn is_error(resp: &str) -> bool {
    resp.starts_with("{\"v\":1,\"resp\":{\"Error\"")
}

/// Set-up timings (one entry per repeat).
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    /// `scale::build` seconds.
    pub build_s: Vec<f64>,
    /// Server construction milliseconds.
    pub boot_ms: Vec<f64>,
    /// Server construction plus `Repair{k}` where the workload arms the
    /// repairer: until the session is ready for the workload, milliseconds.
    pub ready_ms: Vec<f64>,
    /// Whole set-up seconds.
    pub total_s: Vec<f64>,
}

/// Removes a scratch directory when dropped.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Constructs a server from the instance, the engine threads and an
/// optional durable state directory.
pub type Maker<S> = fn(Instance, Threads, Option<&Path>) -> Result<S, String>;

/// A booted server with everything the workload needs besides it.
pub struct Booted<S> {
    /// The server.
    pub server: S,
    /// A copy of the instance it started from.
    pub base: Instance,
    /// Where a durable session keeps its state.
    pub state_dir: Option<ScratchDir>,
    /// How long set-up took.
    pub setup: SetupTimes,
    /// How the server was made, for workloads that start more sessions.
    pub make: Maker<S>,
}

fn repair_line() -> String {
    wire::encode_request(&Request::Repair { k: K, threads: None, gate: false })
}

/// Arms the repairer with `Repair{k}`.
fn arm(server: &dyn Server) -> Result<(), String> {
    let resp = server.handle_line(&repair_line());
    if resp.starts_with("{\"v\":1,\"resp\":{\"Repaired\"") {
        Ok(())
    } else {
        Err(format!("arming the repairer failed: {resp}"))
    }
}

/// Builds the instance and the server `repeats` times, keeping the last.
/// `make` constructs the server from the instance and optional state dir.
///
/// # Errors
/// A failed boot or arm, as text.
pub fn boot<S: Server>(
    w: Workload,
    opts: &Opts,
    repeats: usize,
    tag: &str,
    make: Maker<S>,
) -> Result<Booted<S>, String> {
    let p = params(w, opts.seed);
    let mut times = SetupTimes::default();
    let mut last = None;
    for i in 0..repeats.max(1) {
        // Free the previous repeat before building the next one.
        drop(last.take());
        let dir = w
            .durable()
            .then(|| ScratchDir(opts.scratch.join(format!("{}-{tag}-{i}", std::process::id()))));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(&d.0);
        }
        let t0 = Instant::now();
        let inst = scale::build(&p, StorageKind::Compressed);
        let build_s = t0.elapsed().as_secs_f64();
        let base = inst.clone();
        let t1 = Instant::now();
        let server = make(inst, w.threads(), dir.as_ref().map(|d| d.0.as_path()))?;
        let boot_ms = t1.elapsed().as_secs_f64() * 1e3;
        if w.armed() {
            arm(&server)?;
        }
        let ready_ms = t1.elapsed().as_secs_f64() * 1e3;
        times.build_s.push(build_s);
        times.boot_ms.push(boot_ms);
        times.ready_ms.push(ready_ms);
        times.total_s.push(build_s + ready_ms / 1e3);
        last = Some((server, base, dir));
    }
    let (server, base, state_dir) = last.expect("at least one repeat");
    Ok(Booted { server, base, state_dir, setup: times, make })
}

/// The untraced server: a `SessionManager` with one session.
pub fn make_plain(inst: Instance, threads: Threads, dir: Option<&Path>) -> Result<Plain, String> {
    SessionManager::new(inst, threads, dir.map(Path::to_path_buf), 0, 1)
        .map(|(m, _)| Plain(m))
        .map_err(|e| e.to_string())
}

/// The traced server.
pub fn make_traced(inst: Instance, threads: Threads, dir: Option<&Path>) -> Result<Traced, String> {
    Traced::new(inst, threads, dir).map_err(|e| e.to_string())
}

/// Everything one pass of a workload observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latencies of the main writer request, ms. On `plan_100k` they
    /// interleave the algorithms of [`PLAN_ALGORITHMS`].
    pub writes: Vec<f64>,
    /// Interleaved request kinds in `writes`.
    pub write_kinds: usize,
    /// Writer wall time, s.
    pub write_wall_s: f64,
    /// Work units the writer completed (delta ops, or schedules).
    pub write_units: u64,
    /// The writer's work in blocks of `(units, seconds)`, for the median
    /// block rate `ops_per_s`: one `plan_100k` rotation, eight 1-op
    /// `ApplyOps`, or one window with its share of the next `Persist`.
    pub write_blocks: Vec<(f64, f64)>,
    /// Every response of the writer loop, in order. Two passes of one seed
    /// send the same requests in the same order, so their common prefix
    /// must match byte for byte.
    pub writer_responses: Vec<String>,
    /// Read latencies, µs, interleaving the kinds of [`READ_KINDS`].
    pub reads: Vec<f64>,
    /// Reader wall time, s.
    pub read_wall_s: f64,
    /// The workload's utility figure.
    pub utility: f64,
    /// Requests sent.
    pub attempted: u64,
    /// `Error` responses per request kind.
    pub errors: BTreeMap<&'static str, u64>,
    /// Failed correctness checks (empty = correct).
    pub failures: Vec<String>,
    /// Input-shape and context lines.
    pub notes: Vec<String>,
    /// Counter-derived and timed per-layer values: name → (unit, value).
    pub layer: BTreeMap<String, (&'static str, f64)>,
    /// Heap bytes of the final published view (`Snapshot.heap_bytes`).
    pub heap_bytes: u64,
    /// Size of every response line, bytes.
    pub response_bytes: Vec<f64>,
    /// `VmHWM` when the workload finished, before the replay check
    /// allocates its own copy of the instance, MiB.
    pub peak_rss_mib: f64,
    /// Spans of every server the pass drove (none when untraced).
    pub spans: Vec<Span>,
}

impl Pass {
    fn absorb(&mut self, c: Client<'_>) {
        self.attempted += c.attempted;
        self.response_bytes.extend(c.response_bytes);
        for (k, v) in c.errors {
            *self.errors.entry(k).or_default() += v;
        }
    }

    fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.layer.insert(name.into(), (unit, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one pass of `w` against a booted server, gauging the host about
/// once a second while the workload's clients wait.
pub fn run<S: Server>(w: Workload, b: Booted<S>, opts: &Opts, host: &mut HostSpeed) -> Pass {
    let t = Instant::now();
    let input = format!(
        "input: users={} events={} intervals={} k={K} zipf(s=2, 256 levels) compressed seed={} \
         (engine threads {}, available parallelism {})",
        b.base.num_users(),
        b.base.num_events(),
        b.base.num_intervals(),
        opts.seed,
        w.threads().get(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut pass = match w {
        Workload::Plan100k => plan(&b.server, &b.base, opts, host),
        Workload::Session20k => session(&b.server, &b.base, opts, host),
        Workload::IngestDurable20k => ingest(b, opts, host),
    };
    let per_kind = crate::stats::group_medians(&pass.reads, READ_KINDS.len());
    pass.notes.push(format!(
        "reads: {} over {:.3} s; median us per kind: {}",
        pass.reads.len(),
        pass.read_wall_s,
        READ_KINDS
            .iter()
            .zip(&per_kind)
            .map(|(k, m)| format!("{k} {m:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    pass.notes.push(format!(
        "pass: {:.3} s in all (input generation, measurement and checks)",
        t.elapsed().as_secs_f64()
    ));
    pass.notes.insert(0, input);
    pass
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A tiny deterministic generator for reader ids.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = derive(self.0, 7);
        (self.0 % n.max(1) as u64) as usize
    }
}

fn decode_snapshot(resp: &str) -> Option<Snapshot> {
    match wire::decode_response(resp) {
        Ok(Response::State { snapshot }) => Some(snapshot),
        _ => None,
    }
}

/// The read mix: ¼ each of `Snapshot`, `Query::Event`, `Query::User`,
/// `Query::Interval`, in that rotation, until `stop` says so. Ids stay
/// within the bounds of the reader's latest `Snapshot` reply, less a
/// margin. `between` runs after each rotation, outside the timed requests.
/// Returns latencies (µs), the wall time (s) and the client.
fn read_loop<'a>(
    server: &'a dyn Server,
    seed: u64,
    stop: &dyn Fn() -> bool,
    between: &mut dyn FnMut(),
) -> (Vec<f64>, f64, Client<'a>) {
    let mut client = Client::new(server);
    let mut rng = Rng(seed);
    let mut lat = Vec::new();
    let (mut users, mut events, mut intervals) = (1usize, 1usize, 1usize);
    let start = Instant::now();
    let snapshot = wire::encode_request(&Request::Snapshot);
    while !stop() {
        let (resp, dt) = client.send("Snapshot", &snapshot);
        lat.push(dt * 1e6);
        if let Some(s) = decode_snapshot(&resp) {
            users = s.users.saturating_sub(USER_MARGIN).max(1);
            events = s.events.saturating_sub(EVENT_MARGIN).max(1);
            intervals = s.intervals.max(1);
        }
        let queries = [
            Query::Event { event: rng.below(events) },
            Query::User { user: rng.below(users) },
            Query::Interval { interval: rng.below(intervals) },
        ];
        for query in queries {
            let line = wire::encode_request(&Request::Query { query });
            let (_, dt) = client.send("Query", &line);
            lat.push(dt * 1e6);
        }
        between();
    }
    (lat, start.elapsed().as_secs_f64(), client)
}

/// A read-only probe of `seconds` against the current published view; its
/// reads are added to the pass.
fn probe(pass: &mut Pass, server: &dyn Server, seed: u64, seconds: f64, host: &mut HostSpeed) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (lat, wall, client) =
        read_loop(server, seed, &|| Instant::now() >= deadline, &mut || host.tick_if_due());
    pass.reads.extend(lat);
    pass.read_wall_s += wall;
    pass.absorb(client);
}

/// Sends a final `Snapshot` and returns it (recording `heap_bytes`).
fn final_snapshot(pass: &mut Pass, server: &dyn Server) -> (String, Option<Snapshot>) {
    let mut c = Client::new(server);
    let (resp, _) = c.send("Snapshot", &wire::encode_request(&Request::Snapshot));
    pass.absorb(c);
    let snap = decode_snapshot(&resp);
    pass.heap_bytes = snap.as_ref().and_then(|s| s.heap_bytes).unwrap_or(0);
    (resp, snap)
}

// ---------------------------------------------------------------------------
// plan_100k
// ---------------------------------------------------------------------------

fn plan(server: &dyn Server, base: &Instance, opts: &Opts, host: &mut HostSpeed) -> Pass {
    let mut pass = Pass::default();
    let lines: Vec<String> = PLAN_ALGORITHMS
        .iter()
        .map(|a| {
            wire::encode_request(&Request::Schedule {
                algorithm: (*a).to_string(),
                k: K,
                threads: None,
                gate: false,
                profile: false,
                constraints: None,
            })
        })
        .collect();
    let main = opts.seconds * (1.0 - PROBE_SHARE);
    let mut client = Client::new(server);
    let start = Instant::now();
    let mut cycles = 0u64;
    // Whole rotations only, so every algorithm has the same sample count.
    while cycles == 0 || start.elapsed().as_secs_f64() < main {
        let rotation = Instant::now();
        for line in &lines {
            let (resp, dt) = client.send("Schedule", line);
            pass.writes.push(dt * 1e3);
            pass.writer_responses.push(resp);
        }
        pass.write_blocks.push((PLAN_ALGORITHMS.len() as f64, rotation.elapsed().as_secs_f64()));
        cycles += 1;
        host.tick_if_due();
    }
    pass.write_wall_s = start.elapsed().as_secs_f64();
    pass.write_units = cycles * PLAN_ALGORITHMS.len() as u64;
    pass.absorb(client);
    pass.notes.push(format!(
        "plan: {cycles} rotations of {PLAN_ALGORITHMS:?} = {} Schedule requests, threads=2",
        pass.write_units
    ));
    pass.write_kinds = PLAN_ALGORITHMS.len();
    let per_alg: Vec<String> = PLAN_ALGORITHMS
        .iter()
        .zip(crate::stats::group_medians(&pass.writes, PLAN_ALGORITHMS.len()))
        .map(|(a, m)| format!("{a} {m:.3}"))
        .collect();
    pass.notes.push(format!("plan: median Schedule ms per algorithm: {}", per_alg.join(", ")));

    let mut utilities = Vec::new();
    let mut assignments: Vec<Vec<Assignment>> = Vec::new();
    for (i, alg) in PLAN_ALGORITHMS.iter().enumerate() {
        let resps: Vec<String> =
            pass.writer_responses.iter().skip(i).step_by(PLAN_ALGORITHMS.len()).cloned().collect();
        pass.check(resps.iter().all(|r| *r == resps[0]), || {
            format!("plan: {alg} answered differently across identical requests")
        });
        match wire::decode_response(&resps[0]) {
            Ok(Response::Scheduled { utility, assignments: a, stats, .. }) => {
                let recomputed = rebuild(base, &a).map(|s| total_utility(base, &s));
                let same = recomputed.as_ref().map(|u| u.to_bits()) == Ok(utility.to_bits());
                pass.check(same, || {
                    format!("plan: {alg} utility {utility} != recomputed {recomputed:?}")
                });
                pass.layer(format!("plan.user_ops.{alg}"), "count", stats.user_ops as f64);
                pass.layer(
                    format!("plan.score_computations.{alg}"),
                    "count",
                    stats.score_computations as f64,
                );
                utilities.push(utility);
                assignments.push(a);
            }
            _ => pass.failures.push(format!("plan: {alg} did not schedule: {}", resps[0])),
        }
    }
    if assignments.len() == PLAN_ALGORITHMS.len() {
        pass.check(assignments[0] == assignments[1], || {
            "plan: INC's assignments differ from ALG's".to_string()
        });
        let (alg, inc) = (pass.layer["plan.user_ops.ALG"].1, pass.layer["plan.user_ops.INC"].1);
        pass.layer("plan.inc_alg_user_ops_ratio", "ratio", inc / alg);
        pass.notes.push(format!(
            "plan: INC user_ops / ALG user_ops = {inc} / {alg} = {:.4} (base: ALG)",
            inc / alg
        ));
    }
    pass.utility = utilities.iter().sum::<f64>() / utilities.len().max(1) as f64;

    final_snapshot(&mut pass, server);
    probe(&mut pass, server, derive(opts.seed, 3), opts.seconds * PROBE_SHARE, host);
    pass.peak_rss_mib = peak_rss_mib();
    pass.spans = server.spans();
    pass
}

/// Rebuilds a schedule from its assignments, in order.
fn rebuild(inst: &Instance, assignments: &[Assignment]) -> Result<Schedule, String> {
    let mut s = Schedule::new(inst);
    for a in assignments {
        s.assign(inst, a.event, a.interval).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Session workloads: shared pieces
// ---------------------------------------------------------------------------

/// Totals of the repair summaries the writer saw.
#[derive(Debug, Default)]
struct RepairTotals {
    ops: u64,
    rescored: u64,
    stats: Stats,
    submitted: u64,
    coalesced: u64,
    windows: u64,
    /// Op counts at which Ω(S) is taken; `utility` is their mean.
    utility_targets: Vec<u64>,
    /// Ω(S) at each target reached so far.
    utilities: Vec<f64>,
    /// The latest Ω(S), and after how many ops, for a run that reached no
    /// target.
    latest: Option<(f64, u64)>,
}

impl RepairTotals {
    fn new(utility_targets: &[u64]) -> Self {
        Self { utility_targets: utility_targets.to_vec(), ..Self::default() }
    }

    /// Folds one `Applied` response in: one summary per op, or — windowed —
    /// one per window (the ops of a window share their flush's summary).
    fn absorb(&mut self, resp: &str) {
        let Ok(Response::Applied { applied, repairs, windows }) = wire::decode_response(resp)
        else {
            return;
        };
        let before = self.ops;
        self.ops += applied as u64;
        if let Some(r) = repairs.last() {
            let reached = self.utility_targets.iter().filter(|&&t| before < t && t <= self.ops);
            self.utilities.extend(reached.map(|_| r.utility));
            self.latest = Some((r.utility, self.ops));
        }
        if windows.is_empty() {
            for r in &repairs {
                self.rescored += r.rescored as u64;
                self.stats.merge(&r.stats);
            }
        } else {
            let mut at = 0;
            for w in &windows {
                if let Some(r) = repairs.get(at) {
                    self.rescored += r.rescored as u64;
                    self.stats.merge(&r.stats);
                }
                at += w.ops;
                self.submitted += w.ops as u64;
                self.coalesced += w.coalesced as u64;
                self.windows += 1;
            }
        }
    }

    fn report(&self, pass: &mut Pass) {
        if self.utilities.is_empty() {
            let (u, at) = self.latest.unwrap_or((0.0, 0));
            pass.utility = u;
            pass.notes.push(format!(
                "note: fewer than {} ops were absorbed; utility is Ω(S) after {at} ops",
                self.utility_targets[0]
            ));
        } else {
            pass.utility = self.utilities.iter().sum::<f64>() / self.utilities.len() as f64;
            let at = &self.utility_targets[..self.utilities.len()];
            pass.notes.push(format!("utility: mean Ω(S) after {at:?} ops"));
            if self.utilities.len() < self.utility_targets.len() {
                pass.notes.push(format!(
                    "note: fewer than {} ops were absorbed",
                    self.utility_targets.last().copied().unwrap_or(0)
                ));
            }
        }
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        let s = &self.stats;
        pass.layer("stream.rescored_per_op", "count", per_op(self.rescored));
        pass.layer("stream.score_computations_per_op", "count", per_op(s.score_computations));
        pass.layer("stream.user_ops_per_op", "count", per_op(s.user_ops));
        pass.layer("stream.assignments_examined_per_op", "count", per_op(s.assignments_examined));
        pass.layer("stream.selections_per_op", "count", per_op(s.selections));
        pass.layer(
            "stream.scores_per_selection",
            "count",
            s.score_computations as f64 / s.selections.max(1) as f64,
        );
        if self.windows > 0 {
            pass.layer(
                "delta.coalesce_ratio",
                "ratio",
                self.coalesced as f64 / self.submitted.max(1) as f64,
            );
        }
    }
}

/// The final maintained schedule must equal a cold INC run on a fresh
/// replay of the same ops, assignments and utility bits alike.
fn check_replay(pass: &mut Pass, base: &Instance, ops: &[DeltaOp], snap: Option<&Snapshot>) {
    let Some(state) = snap.and_then(|s| s.schedule.as_ref()) else {
        pass.failures.push("final Snapshot carries no maintained schedule".to_string());
        return;
    };
    let t = Instant::now();
    // Layouts are bit-identical, and delta ops apply far faster to a dense
    // matrix than to compressed blocks.
    let mut inst = base.clone();
    inst.event_interest = inst.event_interest.convert_to(StorageKind::Dense);
    inst.competing_interest = inst.competing_interest.convert_to(StorageKind::Dense);
    for (i, op) in ops.iter().enumerate() {
        if let Err(e) = delta::apply(&mut inst, op) {
            pass.failures.push(format!("replay: op {i} rejected: {e}"));
            return;
        }
    }
    let cold = SchedulerKind::Inc.run_threaded(&inst, K, Threads::new(1));
    pass.check(state.assignments == cold.schedule.assignments(), || {
        "final maintained schedule differs from cold INC on the replayed ops".to_string()
    });
    pass.check(state.utility.to_bits() == cold.utility.to_bits(), || {
        format!("final utility {} != cold INC utility {}", state.utility, cold.utility)
    });
    pass.notes.push(format!(
        "final shape: users={} events={} (after {} ops); replay check {:.3} s",
        inst.num_users(),
        inst.num_events(),
        ops.len(),
        t.elapsed().as_secs_f64()
    ));
}

// ---------------------------------------------------------------------------
// session_20k
// ---------------------------------------------------------------------------

fn session(server: &dyn Server, base: &Instance, opts: &Opts, host: &mut HostSpeed) -> Pass {
    let mut pass = Pass { write_kinds: 1, ..Pass::default() };
    let gen = Instant::now();
    // About four times the ops a run absorbs at ~100 ms each; the requests
    // are encoded one at a time, so the unsent rest costs only its ops.
    let n = (opts.seconds * 40.0).ceil() as usize + 16;
    let stream =
        ops::generate(base, &OpStreamParams::default().with_ops(n).with_seed(derive(opts.seed, 2)));
    pass.notes.push(format!("input generation: {:.3} s", gen.elapsed().as_secs_f64()));
    let done = AtomicBool::new(false);
    // The writer gauges the host while the reader is parked between
    // rotations: it raises `pause`, waits for `parked`, gauges, lowers
    // `pause`, and waits for the reader to leave.
    let pause = AtomicBool::new(false);
    let parked = AtomicBool::new(false);
    let start = Instant::now();
    let (writer, reader) = std::thread::scope(|sc| {
        let w = sc.spawn(|| {
            let mut c = Client::new(server);
            let mut lat = Vec::new();
            let mut resps = Vec::new();
            for op in &stream {
                if start.elapsed().as_secs_f64() >= opts.seconds {
                    break;
                }
                let line = wire::encode_request(&Request::ApplyOps {
                    ops: vec![op.clone()],
                    window: None,
                });
                let (resp, dt) = c.send("ApplyOps", &line);
                lat.push(dt * 1e3);
                resps.push(resp);
                if host.due() {
                    pause.store(true, Ordering::SeqCst);
                    while !parked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    host.tick();
                    pause.store(false, Ordering::SeqCst);
                    while parked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
            }
            let wall = start.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (lat, resps, wall, c)
        });
        let r = sc.spawn(|| {
            let mut park = || {
                if pause.load(Ordering::SeqCst) {
                    parked.store(true, Ordering::SeqCst);
                    while pause.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    parked.store(false, Ordering::SeqCst);
                }
            };
            read_loop(server, derive(opts.seed, 3), &|| done.load(Ordering::SeqCst), &mut park)
        });
        (w.join().expect("writer thread"), r.join().expect("reader thread"))
    });
    let (lat, resps, wall, wc) = writer;
    let (reads, read_wall, rc) = reader;
    let sent = lat.len();
    pass.write_blocks = crate::stats::latency_blocks(&lat, SESSION_WRITE_BLOCK, 1e-3);
    pass.writes = lat;
    pass.write_wall_s = wall;
    pass.write_units = sent as u64;
    pass.reads = reads;
    pass.read_wall_s = read_wall;
    pass.absorb(wc);
    pass.absorb(rc);
    let mut totals = RepairTotals::new(&[SESSION_UTILITY_AT_OPS]);
    for r in &resps {
        totals.absorb(r);
    }
    totals.report(&mut pass);
    pass.writer_responses = resps;
    pass.notes.push(format!(
        "ops: sent={sent} of {n} generated (1 op per ApplyOps, default churn), after coalescing={sent} (no windows)"
    ));
    if sent == stream.len() {
        pass.notes.push("note: the op stream ran out before the deadline".to_string());
    }
    let (_, snap) = final_snapshot(&mut pass, server);
    pass.peak_rss_mib = peak_rss_mib();
    check_replay(&mut pass, base, &stream[..sent], snap.as_ref());
    pass.spans = server.spans();
    pass
}

// ---------------------------------------------------------------------------
// ingest_durable_20k
// ---------------------------------------------------------------------------

/// Size of the file at `path`, or 0 when it is missing.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The live log of a durable session directory: the newest `wal-*.log`.
fn live_wal(dir: &Path) -> u64 {
    ses_core::durable::wal_generations(dir)
        .ok()
        .and_then(|g| g.last().copied())
        .map_or(0, |g| file_len(&ses_core::durable::wal_path(dir, g)))
}

/// Renumbers one server's spans to follow those already in `into`, so that
/// ids and request numbers stay unique over the run.
fn append_spans(into: &mut Vec<Span>, server: u64, spans: Vec<Span>) {
    let id0 = into.iter().map(|s| s.id).max().unwrap_or(0);
    let req0 = into.iter().map(|s| s.request).max().unwrap_or(0);
    into.extend(spans.into_iter().map(|s| Span {
        server,
        id: s.id + id0,
        parent: if s.parent == 0 { 0 } else { s.parent + id0 },
        request: s.request + req0,
        ..s
    }));
}

/// One durable session of `ingest_durable_20k`: its server, its state
/// directory, and the feed it is sent.
struct Segment<S> {
    server: S,
    dir: ScratchDir,
    ops: Vec<DeltaOp>,
}

impl<S> Segment<S> {
    fn session_dir(&self) -> PathBuf {
        self.dir.0.join(ses_algorithms::service::net::DEFAULT_SESSION)
    }
}

/// The op feed of segment `k`: bursts (redundancy 0.5) from the base
/// instance, enough for [`SEGMENT_WINDOWS`] windows.
fn segment_feed(base: &Instance, seed: u64, k: u64) -> Vec<DeltaOp> {
    let backbone = SEGMENT_WINDOWS * WINDOW;
    ops::generate_bursts(
        base,
        &BurstParams::default()
            .with_ops(
                OpStreamParams::default().with_ops(backbone).with_seed(derive(seed, 2 + 16 * k)),
            )
            .with_redundancy(0.5),
    )
    .into_iter()
    .map(|t| t.op)
    .collect()
}

fn ingest<S: Server>(b: Booted<S>, opts: &Opts, host: &mut HostSpeed) -> Pass {
    let Booted { server, base, state_dir, make, .. } = b;
    let mut pass = Pass { write_kinds: 1, ..Pass::default() };
    let gen = Instant::now();
    let mut seg = Some(Segment {
        server,
        dir: state_dir.expect("durable workload has a state dir"),
        ops: segment_feed(&base, opts.seed, 0),
    });
    let mut gen_s = gen.elapsed().as_secs_f64();
    let persist = wire::encode_request(&Request::Persist);
    // Reads fill PROBE_SHARE of the run, in slices after each writer
    // request, so they sample the same host conditions as the writes.
    let read_per_write = PROBE_SHARE / (1.0 - PROBE_SHARE);

    let mut persists = Vec::new();
    let mut window_s = Vec::new();
    let mut wal_bytes = 0u64;
    let mut totals = RepairTotals::new(&INGEST_UTILITY_AT_OPS);
    let (mut sent, mut sent_ops, mut seg_sent) = (0usize, 0usize, 0usize);
    let (mut segments, mut boots_s) = (1u64, 0.0f64);
    let start = Instant::now();
    loop {
        let s = seg.as_ref().expect("a live segment");
        let measured = start.elapsed().as_secs_f64() - boots_s;
        if sent > 0 && measured >= opts.seconds {
            break;
        }
        if seg_sent == SEGMENT_WINDOWS || seg_sent * WINDOW >= s.ops.len() {
            // Start the next segment from the base instance in a fresh
            // durable session; its set-up is not measured.
            let t = Instant::now();
            append_spans(&mut pass.spans, segments - 1, s.server.spans());
            wal_bytes += live_wal(&s.session_dir());
            // Free the finished session before building the next one.
            drop(seg.take());
            let dir =
                ScratchDir(opts.scratch.join(format!("{}-segment-{segments}", std::process::id())));
            let _ = std::fs::remove_dir_all(&dir.0);
            let next = make(base.clone(), Workload::IngestDurable20k.threads(), Some(&dir.0))
                .and_then(|server| arm(&server).map(|()| server));
            match next {
                Ok(server) => {
                    let g = Instant::now();
                    let ops = segment_feed(&base, opts.seed, segments);
                    gen_s += g.elapsed().as_secs_f64();
                    seg = Some(Segment { server, dir, ops });
                }
                Err(e) => {
                    pass.failures.push(format!("segment {segments}: {e}"));
                    return pass;
                }
            }
            segments += 1;
            seg_sent = 0;
            boots_s += t.elapsed().as_secs_f64();
            continue;
        }
        let server: &dyn Server = &s.server;
        let chunk = &s.ops[seg_sent * WINDOW..((seg_sent + 1) * WINDOW).min(s.ops.len())];
        let mut c = Client::new(server);
        let line =
            wire::encode_request(&Request::ApplyOps { ops: chunk.to_vec(), window: Some(WINDOW) });
        let (resp, mut dt) = c.send("ApplyOps", &line);
        pass.writes.push(dt * 1e3);
        window_s.push((chunk.len() as f64, dt));
        totals.absorb(&resp);
        pass.writer_responses.push(resp);
        sent += 1;
        seg_sent += 1;
        sent_ops += chunk.len();
        if sent.is_multiple_of(PERSIST_EVERY) {
            wal_bytes += live_wal(&s.session_dir());
            let (resp, persist_dt) = c.send("Persist", &persist);
            persists.push(persist_dt * 1e3);
            pass.writer_responses.push(resp);
            dt += persist_dt;
        }
        pass.write_wall_s += dt;
        pass.absorb(c);
        probe(&mut pass, server, derive(opts.seed, 3 + sent as u64), dt * read_per_write, host);
        host.tick_if_due();
    }
    let s = seg.as_ref().expect("a live segment");
    let server: &dyn Server = &s.server;
    let session_dir = s.session_dir();
    pass.notes.push(format!("input generation: {gen_s:.3} s"));
    pass.write_units = sent_ops as u64;
    // Each window carries a share of the Persist that closes its cycle;
    // the windows after the last Persist carry a share of the median one.
    let trailing = median(&persists) / 1e3;
    pass.write_blocks = window_s
        .iter()
        .enumerate()
        .map(|(i, &(units, secs))| {
            let persist = persists.get(i / PERSIST_EVERY).map_or(trailing, |ms| ms / 1e3);
            (units, secs + persist / PERSIST_EVERY as f64)
        })
        .collect();
    wal_bytes += live_wal(&session_dir);
    totals.report(&mut pass);
    pass.notes.push(format!(
        "ops: sent={sent_ops} in {sent} windows of {WINDOW} (bursts, redundancy 0.5) over {segments} \
         segments of up to {SEGMENT_WINDOWS} windows, after coalescing={}, persists={}; \
         segment set-up {boots_s:.3} s (not measured)",
        totals.coalesced,
        persists.len()
    ));

    let snapshot_bytes = ses_core::durable::generations(&session_dir)
        .ok()
        .and_then(|g| g.last().copied())
        .map_or(0, |g| file_len(&ses_core::durable::snapshot_path(&session_dir, g)));
    let snapshot_mb = snapshot_bytes as f64 / 1e6;
    let persist_ms = median(&persists);
    let persist_rate = if persists.is_empty() { 0.0 } else { snapshot_mb / (persist_ms / 1e3) };
    pass.layer("durable.persist_mb_per_s", "MB/s", persist_rate);
    pass.layer("durable.snapshot_bytes", "bytes", snapshot_bytes as f64);
    pass.layer("durable.wal_bytes", "bytes", wal_bytes as f64);
    pass.layer("durable.bytes_per_op", "bytes", wal_bytes as f64 / sent_ops.max(1) as f64);

    // Recovery: the state before and after Restore must read the same.
    let (before, _) = final_snapshot(&mut pass, server);
    let mut c = Client::new(server);
    let (resp, dt) = c.send("Restore", &wire::encode_request(&Request::Restore));
    pass.absorb(c);
    pass.layer("durable.restore_mb_per_s", "MB/s", snapshot_mb / dt.max(1e-9));
    match wire::decode_response(&resp) {
        Ok(Response::Restored { replayed, .. }) => {
            pass.layer("durable.replayed", "count", replayed as f64);
            pass.notes.push(format!(
                "durable: {} Persist requests, p50 {persist_ms:.3} ms, newest snapshot \
                 {snapshot_mb:.3} MB; Restore {:.3} ms replaying {replayed} log records",
                persists.len(),
                dt * 1e3
            ));
        }
        _ => pass.failures.push(format!("Restore failed: {resp}")),
    }
    let (after, snap) = final_snapshot(&mut pass, server);
    pass.check(before == after, || "Snapshot bytes differ across Restore".to_string());

    pass.peak_rss_mib = peak_rss_mib();
    // The last segment started from the base instance.
    check_replay(&mut pass, &base, &s.ops[..(seg_sent * WINDOW).min(s.ops.len())], snap.as_ref());
    append_spans(&mut pass.spans, segments - 1, server.spans());
    pass
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
