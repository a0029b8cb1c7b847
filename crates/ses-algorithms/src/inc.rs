//! `INC` — the Incremental Updating algorithm (§3.2, Algorithm 1).
//!
//! INC makes the same greedy selections as [`Alg`](crate::alg::Alg)
//! (Proposition 3) while performing far fewer score computations, built on
//! two schemes:
//!
//! 1. **Incremental updating** (§3.2.1). After a selection, the scores of the
//!    selected interval's remaining assignments become *stale*. Because
//!    per-interval masses only grow, a stale score **upper-bounds** the
//!    refreshed score (the engine-level fact behind Proposition 1). With
//!    `Φ` = the score of the best *updated & valid* assignment, only stale
//!    assignments with stored score ≥ Φ can possibly be selected next
//!    (Corollary 1) — everything else keeps its stale score untouched.
//! 2. **Interval-organized assignments** (§3.2.2). Assignments live in
//!    per-interval lists kept sorted descending by stored score, plus a list
//!    `M` holding each interval's top updated & valid assignment. A
//!    partially-updated interval whose *front* stored score (the interval's
//!    best upper bound) is below Φ is skipped wholesale, and a walk inside an
//!    interval stops at the first entry below Φ.
//!
//! ### Divergence from the paper's pseudocode
//! Algorithm 1 line 18 gates interval access on `M[i].S ≤ Φ`, which is
//! vacuous (Φ is defined as `max_i M[i].S`). We implement the *intent* of
//! the §3.2.2 prose — "identify (and skip) the partially updated intervals
//! whose assignments are not going to be updated" — using the front stored
//! score as the interval's upper bound, which is both correct and effective.

use crate::common::{
    better, mark_stale_after_selection, max_duration, refresh_m, timed_result, Cand, Entry,
    IntervalList, RunConfig, ScheduleResult, Scheduler, Scratch,
};
use ses_core::model::Instance;
use ses_core::schedule::Schedule;
use ses_core::scoring::{EngineProfile, ScoringEngine};
use ses_core::stats::Stats;
use ses_core::{EventId, IntervalId};

/// The Incremental Updating algorithm (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inc;

impl Scheduler for Inc {
    fn name(&self) -> &'static str {
        "INC"
    }

    fn run_configured(
        &self,
        inst: &Instance,
        k: usize,
        cfg: RunConfig,
        scratch: &mut Scratch,
    ) -> ScheduleResult {
        timed_result(self.name(), inst, k, || run_inc(inst, k, cfg, scratch))
    }
}

struct IncState<'a, 'b, 's> {
    inst: &'a Instance,
    engine: ScoringEngine<'b>,
    schedule: Schedule,
    lists: &'s mut Vec<IntervalList>,
    /// `M`: per interval, the top updated & valid assignment.
    m: &'s mut Vec<Option<Cand>>,
}

impl IncState<'_, '_, '_> {
    /// The Corollary-1 update pass for one interval: walk entries in
    /// descending stored order; drop invalid ones; refresh stale entries with
    /// stored score ≥ Φ; stop at the first entry below Φ. Returns the
    /// possibly-improved Φ.
    fn update_interval(&mut self, i: usize, mut phi: Option<Cand>) -> Option<Cand> {
        let interval = IntervalId::new(i);

        // Interval-level skip: even the best upper bound cannot reach Φ.
        if let (Some(p), Some(front)) = (phi, self.lists[i].entries.first()) {
            self.engine.stats_mut().record_examined(1);
            if front.score < p.score {
                return phi;
            }
        }

        let mut idx = 0;
        let mut any_refresh = false;
        while idx < self.lists[i].entries.len() {
            let ent = self.lists[i].entries[idx];
            self.engine.stats_mut().record_examined(1);
            if !self.schedule.is_valid_assignment(self.inst, ent.event, interval) {
                self.lists[i].entries.remove(idx);
                continue;
            }
            if let Some(p) = phi {
                if ent.score < p.score {
                    break; // sorted: everything below is below Φ too
                }
            }
            if !ent.updated {
                let fresh = self.engine.assignment_score_update(ent.event, interval);
                let e = &mut self.lists[i].entries[idx];
                e.score = fresh;
                e.updated = true;
                any_refresh = true;
            }
            let cand = Cand::new(self.lists[i].entries[idx].score, interval, ent.event);
            phi = better(phi, Some(cand));
            idx += 1;
        }

        let list = &mut self.lists[i];
        if any_refresh {
            list.sort();
        }
        list.fully_updated = list.entries.iter().all(|e| e.updated);
        refresh_m(self.inst, &self.schedule, self.lists, self.m, i);
        phi
    }
}

fn run_inc(
    inst: &Instance,
    k: usize,
    cfg: RunConfig,
    scratch: &mut Scratch,
) -> (Schedule, Stats, Option<EngineProfile>) {
    let num_events = inst.num_events();
    let num_intervals = inst.num_intervals();
    let max_dur = max_duration(inst);
    let Scratch { lists, m, pending, .. } = scratch;
    crate::common::reset_interval_lists(lists, m, num_intervals);
    let mut engine = ScoringEngine::with_threads(inst, cfg.threads);
    if cfg.profile {
        engine.enable_profiling();
    }
    let mut state = IncState { inst, engine, schedule: Schedule::new(inst), lists, m };

    // Initial pass over the full |E| × |T| universe (same as ALG).
    // Duration-extension guard: spanning events that run off the calendar
    // are skipped outright.
    //
    // **Bound-first gate** (opt-in): instead of paying the full user sweep
    // per cell up front, every candidate is seeded with the engine's
    // O(duration) separable upper bound and marked stale. The Corollary-1
    // machinery below already treats stale stored values as sound upper
    // bounds, so it lazily sweeps exactly the candidates whose bound
    // survives Φ — a candidate whose bound never reaches Φ *never pays for
    // a sweep at all* (`Stats::bound_skips` counts the deferred seeds;
    // `score_updates` shows how many were eventually swept). Selection is
    // untouched: any candidate tying or beating the final Φ has
    // `bound ≥ true ≥ Φ` and is therefore refreshed before the choice.
    for t in 0..num_intervals {
        let interval = IntervalId::new(t);
        for e in 0..num_events {
            let event = EventId::new(e);
            if !state.schedule.is_valid_assignment(state.inst, event, interval) {
                continue;
            }
            if cfg.bound_gate {
                let bound = state.engine.score_bound(event, interval);
                state.engine.stats_mut().record_bound_skip();
                state.lists[t].entries.push(Entry { event, score: bound, updated: false });
            } else {
                let score = state.engine.assignment_score(event, interval);
                state.lists[t].entries.push(Entry { event, score, updated: true });
            }
        }
        state.lists[t].fully_updated = !cfg.bound_gate;
        state.lists[t].sort();
        refresh_m(inst, &state.schedule, state.lists, state.m, t);
    }

    while state.schedule.len() < k {
        // Bound Φ = best over M, then the Corollary-1 update pass.
        let mut phi: Option<Cand> = None;
        for cand in state.m.iter().flatten() {
            phi = better(phi, Some(*cand));
        }
        // Visit partially-updated intervals in descending front-bound order
        // so Φ tightens as early as possible (this is what lets Example 3 get
        // away with a single update).
        pending.clear();
        pending.extend(
            (0..num_intervals).filter(|&i| !state.lists[i].fully_updated).map(|i| {
                (state.lists[i].entries.first().map_or(f64::NEG_INFINITY, |e| e.score), i)
            }),
        );
        pending.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        for &(_, i) in pending.iter() {
            phi = state.update_interval(i, phi);
        }

        // Select the top of M (now the true greedy choice).
        let mut chosen: Option<Cand> = None;
        for cand in state.m.iter().flatten() {
            chosen = better(chosen, Some(*cand));
        }
        let Some(chosen) = chosen else { break };
        debug_assert!(
            state.schedule.is_valid_assignment(inst, chosen.event, chosen.interval),
            "M must only hold valid assignments"
        );

        state
            .schedule
            .assign(inst, chosen.event, chosen.interval)
            .expect("selected assignment must be valid");
        state.engine.apply(chosen.event, chosen.interval);

        mark_stale_after_selection(inst, max_dur, &state.schedule, state.lists, state.m, chosen);
    }

    let stats = *state.engine.stats();
    let profile = state.engine.take_profile();
    (state.schedule, stats, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::Alg;
    use ses_core::model::running_example;
    use ses_core::Assignment;

    /// Example 3: INC finds the same schedule as ALG with only one update
    /// (α_{e2}^{t2}) instead of ALG's four.
    #[test]
    fn running_example_trace_and_updates() {
        let inst = running_example();
        let res = Inc.run(&inst, 3);
        assert_eq!(
            res.schedule.assignments(),
            &[
                Assignment::new(EventId::new(3), IntervalId::new(1)),
                Assignment::new(EventId::new(0), IntervalId::new(0)),
                Assignment::new(EventId::new(1), IntervalId::new(1)),
            ]
        );
        assert_eq!(res.stats.score_updates, 1, "Example 3 performs exactly one update");
        assert_eq!(res.stats.score_computations, 9); // 8 initial + 1 update
    }

    /// Proposition 3 on the running example (exact schedule equality).
    #[test]
    fn matches_alg_on_running_example() {
        let inst = running_example();
        for k in 0..=4 {
            let a = Alg.run(&inst, k);
            let i = Inc.run(&inst, k);
            assert_eq!(a.schedule.assignments(), i.schedule.assignments(), "k = {k}");
            assert!((a.utility - i.utility).abs() < 1e-12);
        }
    }

    #[test]
    fn performs_no_more_computations_than_alg() {
        let inst = running_example();
        let a = Alg.run(&inst, 3);
        let i = Inc.run(&inst, 3);
        assert!(i.stats.score_computations <= a.stats.score_computations);
        assert!(i.stats.user_ops <= a.stats.user_ops);
    }

    #[test]
    fn k_zero_and_saturation() {
        let inst = running_example();
        assert!(Inc.run(&inst, 0).schedule.is_empty());
        let res = Inc.run(&inst, 99);
        assert_eq!(res.schedule.len(), 4);
        assert!(res.schedule.verify_feasible(&inst).is_ok());
    }
}
