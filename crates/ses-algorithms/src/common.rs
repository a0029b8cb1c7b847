//! Shared scaffolding for all SES schedulers: the [`Scheduler`] trait, the
//! [`ScheduleResult`] record, per-run execution options ([`RunConfig`]),
//! the reusable allocation pool ([`Scratch`]), candidate ordering, and
//! per-interval candidate lists.

use serde::{Deserialize, Serialize};
use ses_core::model::Instance;
use ses_core::parallel::{par_chunks_mut, Threads};
use ses_core::schedule::Schedule;
use ses_core::scoring::utility::total_utility;
use ses_core::scoring::{EngineProfile, ScoringEngine};
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};
use std::time::{Duration, Instant};

/// Everything a scheduling run produces: the schedule, its exact utility
/// Ω(S) (recomputed from scratch by the independent evaluator), the
/// instrumentation counters, and the wall-clock duration.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Which algorithm produced this result (a canonical name from
    /// [`known_algorithm_names`] — `&'static str` so packing a result
    /// allocates nothing for the label).
    pub algorithm: &'static str,
    /// The requested number of assignments `k`.
    pub k: usize,
    /// The feasible schedule found (`|S| ≤ k`; `< k` only when the instance
    /// cannot feasibly host `k` events).
    pub schedule: Schedule,
    /// Total utility Ω(S) per Eq. 3, from the independent evaluator.
    pub utility: f64,
    /// Instrumentation counters (score computations, user ops, examined).
    pub stats: Stats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-phase engine timing, when the run opted into
    /// [`RunConfig::profile`].
    pub profile: Option<EngineProfile>,
}

/// Every canonical display name a [`ScheduleResult`] can carry — the
/// closed set deserialization resolves against so the field can stay a
/// `&'static str`.
pub fn known_algorithm_names() -> &'static [&'static str] {
    &["ALG", "INC", "HOR", "HOR-I", "TOP", "RAND", "EXACT", "LAZY", "HOR+LS", "REFINED", "PROFIT"]
}

/// Resolves a serialized algorithm label back to its canonical
/// `&'static str` (exact match only — aliases are a parsing concern, see
/// [`SchedulerKind::parse`](crate::SchedulerKind::parse)).
pub fn static_algorithm_name(name: &str) -> Option<&'static str> {
    known_algorithm_names().iter().find(|&&n| n == name).copied()
}

// Hand-written (de)serialization: the derive cannot produce a
// `&'static str` field, so `algorithm` round-trips through the
// [`static_algorithm_name`] table instead. The value layout matches what
// the derive emitted when the field was a `String`, so previously
// serialized results still load.
impl Serialize for ScheduleResult {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("schedule".to_string(), self.schedule.to_value()),
            ("utility".to_string(), self.utility.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("elapsed".to_string(), self.elapsed.to_value()),
            ("profile".to_string(), self.profile.to_value()),
        ])
    }
}

impl Deserialize for ScheduleResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj =
            v.as_object().ok_or_else(|| serde::Error::expected("object", "ScheduleResult"))?;
        fn field<'a>(
            obj: &'a [(String, serde::Value)],
            name: &str,
        ) -> Result<&'a serde::Value, serde::Error> {
            serde::__get(obj, name)
                .ok_or_else(|| serde::Error::missing_field(name, "ScheduleResult"))
        }
        let label = String::from_value(field(obj, "algorithm")?)?;
        let algorithm = static_algorithm_name(&label)
            .ok_or_else(|| serde::Error::unknown_variant(&label, "algorithm name"))?;
        Ok(Self {
            algorithm,
            k: usize::from_value(field(obj, "k")?)?,
            schedule: Schedule::from_value(field(obj, "schedule")?)?,
            utility: f64::from_value(field(obj, "utility")?)?,
            stats: Stats::from_value(field(obj, "stats")?)?,
            elapsed: Duration::from_value(field(obj, "elapsed")?)?,
            profile: match serde::__get(obj, "profile") {
                None => None,
                Some(p) => Option::<EngineProfile>::from_value(p)?,
            },
        })
    }
}

/// Per-run execution options, threaded from the CLI / harness down to the
/// engine. `Copy` so schedulers pass it freely.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker threads (bit-identical results for every count).
    pub threads: Threads,
    /// Opt-in bound-first gate: before refreshing a stale candidate,
    /// consult the engine's O(duration) separable upper bound and skip the
    /// full user sweep when it cannot beat the current Φ. **Never changes
    /// the schedule or utility** (the gate is selection-neutral; see
    /// DESIGN.md §9) — only the work counters, which is why it is opt-in:
    /// the default keeps `Stats` comparable with the paper's accounting and
    /// the committed golden traces.
    pub bound_gate: bool,
    /// Opt-in per-phase (setup/score/apply) wall-clock attribution,
    /// surfaced as [`ScheduleResult::profile`] (`ses run --profile`).
    pub profile: bool,
}

impl RunConfig {
    /// Options for a plain run at the given thread count (gate and
    /// profiling off — the reference configuration every differential test
    /// pins).
    pub fn threaded(threads: Threads) -> Self {
        Self { threads, bound_gate: false, profile: false }
    }

    /// Toggles the bound-first gate.
    pub fn with_bound_gate(mut self, on: bool) -> Self {
        self.bound_gate = on;
        self
    }

    /// Toggles per-phase profiling.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::threaded(Threads::default())
    }
}

/// A scheduling algorithm for the SES problem.
pub trait Scheduler {
    /// Short display name ("ALG", "INC", …) matching the paper.
    fn name(&self) -> &'static str;

    /// Computes a feasible schedule of (up to) `k` assignments with the
    /// ambient thread resolution ([`Threads::from_env`]: sequential unless
    /// `SES_THREADS` is set).
    fn run(&self, inst: &Instance, k: usize) -> ScheduleResult {
        self.run_threaded(inst, k, Threads::default())
    }

    /// Same computation with an explicit worker-thread count. Every
    /// implementation is **bit-identical** across thread counts — same
    /// schedule, same utility bits, same [`Stats`] — which
    /// `tests/parallel_equivalence.rs` enforces differentially.
    fn run_threaded(&self, inst: &Instance, k: usize, threads: Threads) -> ScheduleResult {
        self.run_configured(inst, k, RunConfig::threaded(threads), &mut Scratch::default())
    }

    /// Full-control entry point: explicit [`RunConfig`] plus a caller-owned
    /// [`Scratch`]. Re-running with the same scratch makes the scheduling
    /// loop allocation-free across runs (candidate tables, per-interval
    /// lists, and heaps are cleared and reused, never re-allocated) — the
    /// repeated-run mode of the stream scheduler, the sweep harness, and
    /// the benches.
    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult;
}

/// Helper used by every implementation: times `f`, evaluates the utility of
/// the returned schedule with the independent evaluator, and packs a
/// [`ScheduleResult`].
pub(crate) fn timed_result(
    name: &'static str,
    inst: &Instance,
    k: usize,
    f: impl FnOnce() -> (Schedule, Stats, Option<EngineProfile>),
) -> ScheduleResult {
    let start = Instant::now();
    let (schedule, stats, profile) = f();
    let elapsed = start.elapsed();
    let utility = total_utility(inst, &schedule);
    ScheduleResult { algorithm: name, k, schedule, utility, stats, elapsed, profile }
}

/// One assignment of a per-interval candidate list: the shape INC, HOR-I,
/// and the stream repairer all walk (score current iff `updated`, otherwise
/// a monotonicity upper bound).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// The candidate event.
    pub event: EventId,
    /// Current score if `updated`, otherwise an upper bound (the score as
    /// of the last refresh).
    pub score: f64,
    /// Whether `score` is current.
    pub updated: bool,
}

/// A per-interval assignment list `L_i`, sorted descending by stored score
/// (ties: ascending event id — the canonical [`Cand`] order restricted to
/// one interval).
#[derive(Debug, Default)]
pub(crate) struct IntervalList {
    /// The (possibly stale) candidates of this interval.
    pub entries: Vec<Entry>,
    /// True iff every surviving entry is updated (lets update passes skip
    /// the interval without peeking).
    pub fully_updated: bool,
}

impl IntervalList {
    /// Restores the canonical descending-score order after refreshes.
    pub fn sort(&mut self) {
        self.entries.sort_unstable_by(|a, b| {
            b.score.partial_cmp(&a.score).expect("scores are finite").then(a.event.cmp(&b.event))
        });
    }

    /// The best stale bound of the interval (`None` when every entry is
    /// updated).
    pub fn front_stale_bound(&self) -> Option<f64> {
        self.entries.iter().find(|e| !e.updated).map(|e| e.score)
    }
}

/// A lazy-greedy heap entry: a candidate plus the epoch snapshot its score
/// was computed at. Max-heap order = the canonical [`Cand::beats`] order.
/// `FORCE_REFRESH` marks an entry whose stored score was *lowered to a
/// bound* by the gate — it must be refreshed before it can be selected.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    /// The candidate (score possibly stale or bound-tightened).
    pub cand: Cand,
    /// Epoch the score was computed at; [`HeapEntry::FORCE_REFRESH`] forces
    /// a refresh on pop.
    pub epoch: u64,
}

impl HeapEntry {
    /// Sentinel epoch that can never equal a real span epoch.
    pub const FORCE_REFRESH: u64 = u64::MAX;
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cand == other.cand
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.cand.beats(&other.cand) {
            std::cmp::Ordering::Greater
        } else if other.cand.beats(&self.cand) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable allocation pool for the scheduling loops. All buffers are
/// cleared (capacity kept) by the per-run reset helpers, so a scratch
/// shared across runs makes every scheduler's main loop allocation-free
/// after its first run at a given instance shape. A scratch carries no
/// result state between runs — only capacity.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-interval candidate lists (INC / HOR-I / STREAM).
    pub(crate) lists: Vec<IntervalList>,
    /// Per-interval top-candidate table `M`.
    pub(crate) m: Vec<Option<Cand>>,
    /// Per-interval sorted `(score, event)` rows (HOR).
    pub(crate) rows: Vec<Vec<(f64, EventId)>>,
    /// HOR's per-interval fallback cursors.
    pub(crate) cursors: Vec<usize>,
    /// Flat `|T|·|E|` empty-schedule score table (ALG, HOR's first round).
    pub(crate) slots: Vec<Option<f64>>,
    /// LAZY's heap backing store.
    pub(crate) heap: Vec<HeapEntry>,
    /// Stale-interval visit order buffer (INC / STREAM).
    pub(crate) pending: Vec<(f64, usize)>,
    /// Per-interval virgin-span flags (STREAM's table write-back tracking).
    pub(crate) virgin: Vec<bool>,
}

/// Resets scratch `lists` and `m` buffers to `n` empty intervals, keeping
/// capacity. A free function so callers that destructure a [`Scratch`] into
/// disjoint field borrows can still use it.
pub(crate) fn reset_interval_lists(
    lists: &mut Vec<IntervalList>,
    m: &mut Vec<Option<Cand>>,
    n: usize,
) {
    lists.truncate(n);
    for list in lists.iter_mut() {
        list.entries.clear();
        list.fully_updated = false;
    }
    lists.resize_with(n, IntervalList::default);
    m.clear();
    m.resize(n, None);
}

/// Resets HOR's row/cursor/`M` buffers to `n` intervals, keeping capacity
/// (a free function for the same reason as [`reset_interval_lists`]).
pub(crate) fn reset_rows(
    rows: &mut Vec<Vec<(f64, EventId)>>,
    cursors: &mut Vec<usize>,
    m: &mut Vec<Option<Cand>>,
    n: usize,
) {
    rows.truncate(n);
    for row in rows.iter_mut() {
        row.clear();
    }
    rows.resize_with(n, Vec::new);
    cursors.clear();
    cursors.resize(n, 0);
    m.clear();
    m.resize(n, None);
}

impl Scratch {
    /// A fresh, empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A candidate assignment with its (possibly stale) score, ordered by the
/// canonical tie-break used by **every** algorithm in this crate: larger
/// score first, then smaller interval id, then smaller event id.
///
/// A single deterministic order is what makes Proposition 3 (INC ≡ ALG) and
/// Proposition 6 (HOR-I ≡ HOR) hold as *exact schedule equality*, testable
/// without tolerance fudging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cand {
    /// Assignment score (Eq. 4) — current or an upper bound, per context.
    pub score: f64,
    /// Interval of the assignment.
    pub interval: IntervalId,
    /// Event of the assignment.
    pub event: EventId,
}

impl Cand {
    /// Creates a candidate.
    #[inline]
    pub fn new(score: f64, interval: IntervalId, event: EventId) -> Self {
        Self { score, interval, event }
    }

    /// Canonical strict ordering (see type docs).
    #[inline]
    pub fn beats(&self, other: &Cand) -> bool {
        if self.score != other.score {
            return self.score > other.score;
        }
        (self.interval, self.event) < (other.interval, other.event)
    }
}

/// Returns the better of two optional candidates under [`Cand::beats`]
/// (the paper's `getBetterAssgn`).
#[inline]
pub fn better(a: Option<Cand>, b: Option<Cand>) -> Option<Cand> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.beats(&y) { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// The largest event duration in the instance (1 in the paper's model).
pub(crate) fn max_duration(inst: &Instance) -> usize {
    inst.events.iter().map(|e| e.duration as usize).max().unwrap_or(1)
}

/// The window of *starting* intervals whose assignments may have gone stale
/// after placing `event` at `t`: any assignment whose own span intersects
/// the placed span. With the paper's duration-1 model this is exactly `{t}`.
pub(crate) fn stale_window(
    inst: &Instance,
    max_dur: usize,
    event: EventId,
    t: IntervalId,
) -> std::ops::Range<usize> {
    let span_end = t.index() + inst.events[event.index()].duration as usize;
    let lo = (t.index() + 1).saturating_sub(max_dur);
    lo..span_end.min(inst.num_intervals())
}

/// Scores every assignment that is feasible on the empty schedule into
/// `table` (`[t·|E| + e]`, `None` for infeasible cells) — the initial pass
/// of ALG, of HOR's first round and of the stream repairer's cold build.
/// Returns the number of cells scored.
///
/// Rows (intervals) fan out across the engine's threads through the
/// stat-free [`ScoringEngine::peek_score`] (bit-identical to
/// `assignment_score`; the pool does not nest, and one thread or one row
/// runs inline). The `Stats` and profile bookkeeping of every scored cell
/// is then replayed, so the counters equal a sequential `assignment_score`
/// pass.
pub(crate) fn score_empty_schedule(
    engine: &mut ScoringEngine<'_>,
    table: &mut Vec<Option<f64>>,
) -> usize {
    let inst = engine.instance();
    let num_events = inst.num_events();
    table.clear();
    table.resize(num_events * inst.num_intervals(), None);
    if num_events == 0 {
        return 0;
    }
    let start = Instant::now();
    let probe = Schedule::new(inst);
    let eng: &ScoringEngine<'_> = engine;
    par_chunks_mut(eng.threads(), table, num_events, |t, row| {
        let interval = IntervalId::new(t);
        for (e, slot) in row.iter_mut().enumerate() {
            let event = EventId::new(e);
            if probe.is_valid_assignment(inst, event, interval) {
                *slot = Some(eng.peek_score(event, interval));
            }
        }
    });
    let gen_ns = start.elapsed().as_nanos() as u64;
    let mut scored = 0;
    for (idx, cell) in table.iter().enumerate() {
        if cell.is_some() {
            let cost = engine.score_cost(EventId::new(idx % num_events));
            engine.stats_mut().record_score(cost);
            scored += 1;
        }
    }
    engine.add_scoring_time(gen_ns, scored as u64);
    scored
}

/// Re-derives `M[i]`: the first *updated and valid* entry of `lists[i]` in
/// sorted order (= the interval's best updated score, since updated entries
/// carry true scores). Invalid entries met on the way — events scheduled
/// elsewhere, left behind a walk's early break — are removed. Shared by
/// INC and the stream repairer.
pub(crate) fn refresh_m(
    inst: &Instance,
    schedule: &Schedule,
    lists: &mut [IntervalList],
    m: &mut [Option<Cand>],
    i: usize,
) {
    let interval = IntervalId::new(i);
    let entries = &mut lists[i].entries;
    let mut found = None;
    let mut idx = 0;
    while idx < entries.len() {
        let ent = entries[idx];
        if !schedule.is_valid_assignment(inst, ent.event, interval) {
            entries.remove(idx);
            continue;
        }
        if ent.updated {
            found = Some(Cand::new(ent.score, interval, ent.event));
            break;
        }
        idx += 1;
    }
    m[i] = found;
}

/// The bookkeeping after `chosen` was placed (Algorithm 1 lines 9–15),
/// shared by INC and the stream repairer: every starting interval whose
/// assignments may span into the placed span — the stale window; exactly
/// the selected interval under duration-1 — drops the chosen event and has
/// its survivors marked stale. Outside the window, `M` entries the
/// selection invalidated (the chosen event's other assignments, plus under
/// the duration extension any entry whose span now collides) are
/// re-derived.
pub(crate) fn mark_stale_after_selection(
    inst: &Instance,
    max_dur: usize,
    schedule: &Schedule,
    lists: &mut [IntervalList],
    m: &mut [Option<Cand>],
    chosen: Cand,
) {
    let span = stale_window(inst, max_dur, chosen.event, chosen.interval);
    for ti in span.clone() {
        let list = &mut lists[ti];
        list.entries.retain(|e| e.event != chosen.event);
        for e in &mut list.entries {
            e.updated = false;
        }
        list.fully_updated = list.entries.is_empty();
        m[ti] = None;
    }
    for i in 0..inst.num_intervals() {
        if span.contains(&i) {
            continue;
        }
        let needs_refresh = m[i].is_some_and(|c| {
            c.event == chosen.event || !schedule.is_valid_assignment(inst, c.event, c.interval)
        });
        if needs_refresh {
            refresh_m(inst, schedule, lists, m, i);
        }
    }
}

/// Selects the best candidate from an iterator under the canonical order.
pub fn best_candidate(iter: impl Iterator<Item = Cand>) -> Option<Cand> {
    let mut best: Option<Cand> = None;
    for c in iter {
        best = better(best, Some(c));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(score: f64, t: usize, e: usize) -> Cand {
        Cand::new(score, IntervalId::new(t), EventId::new(e))
    }

    #[test]
    fn higher_score_wins() {
        assert!(c(0.9, 5, 5).beats(&c(0.8, 0, 0)));
        assert!(!c(0.8, 0, 0).beats(&c(0.9, 5, 5)));
    }

    #[test]
    fn ties_break_on_interval_then_event() {
        assert!(c(0.5, 0, 9).beats(&c(0.5, 1, 0)));
        assert!(c(0.5, 1, 0).beats(&c(0.5, 1, 1)));
        assert!(!c(0.5, 1, 1).beats(&c(0.5, 1, 0)));
    }

    #[test]
    fn better_handles_none() {
        assert_eq!(better(None, None), None);
        let x = c(0.5, 0, 0);
        assert_eq!(better(Some(x), None), Some(x));
        assert_eq!(better(None, Some(x)), Some(x));
    }

    #[test]
    fn best_candidate_is_deterministic() {
        let cands = vec![c(0.5, 1, 0), c(0.5, 0, 2), c(0.4, 0, 0), c(0.5, 0, 1)];
        // 0.5 ties: interval 0 beats 1; event 1 beats 2.
        assert_eq!(best_candidate(cands.into_iter()), Some(c(0.5, 0, 1)));
    }

    #[test]
    fn beats_is_asymmetric_for_distinct() {
        let a = c(0.3, 0, 0);
        let b = c(0.3, 0, 1);
        assert!(a.beats(&b) ^ b.beats(&a));
        // A candidate never beats itself.
        assert!(!a.beats(&a));
    }
}
