//! Window coalescing: collapse a burst of [`DeltaOp`]s into one canonical
//! minimal batch with the same net effect, bit for bit.
//!
//! Real delta traffic is bursty and redundant — N interest drifts on one
//! `(event, user)` cell collapse to the last one, an announce-then-cancel
//! of the same event cancels outright, a joining user who lapses within
//! the window never existed as far as the scheduler cares. Applying a
//! whole window op-at-a-time pays one repair *per op*; coalescing first
//! pays one repair *per window* over a batch that is never larger than
//! the window (each emitted op is sponsored by at least one window op).
//!
//! ## The algebra
//!
//! [`coalesce`] simulates the window against a scratch clone of the base
//! instance (reusing [`apply`]'s validation verbatim, so a window fails
//! exactly where op-at-a-time application would), tracks which event and
//! user *slots* survive, and then re-derives a canonical batch from the
//! final state:
//!
//! | rule | effect |
//! |---|---|
//! | drift-merge | per surviving base `(event, user)` cell, only the final value is emitted — and nothing at all when it net-reverted to the base bits |
//! | add/remove cancellation | an event or user added and removed inside the window vanishes from the batch |
//! | user-churn folding | all joins fold into one `AddUsers`, all lapses of base users into one `RetireUsers` |
//! | constraint last-writer-wins | the constraint sets are diffed; redundant set/clear churn disappears |
//!
//! ## Emission order (and why replay is bit-identical)
//!
//! The batch is emitted in a fixed canonical order: `AddUsers`,
//! `RetireUsers`, `AddEvent`s (final tail order), `RemoveEvent`s
//! (descending base id), `ShiftInterest`s (ascending final cell), then
//! the constraint diff (removals in pre-window order, additions in final
//! storage order). Additions before removals keeps every intermediate
//! state clear of the `WouldEmpty` guards; descending event removal keeps
//! base ids stable while they are consumed. Every `f64` in the batch is
//! bit-copied from the simulated final instance, and both interest-matrix
//! representations plus the constraint `Vec`s are canonical in (or
//! reproduced in) storage order — so materializing the coalesced batch
//! yields an [`Instance`] that is **equal** (`PartialEq`, and bitwise
//! underneath) to materializing the original window. The equivalence
//! suite pins this for every dataset family.

use std::collections::BTreeSet;

use super::{apply, DeltaOp, NewUser};
use crate::constraints::{ConflictPair, PrecedenceEdge, VenueCapacity};
use crate::error::DeltaError;
use crate::ids::EventId;
use crate::model::Instance;

/// A window op failed validation during simulation; `op_index` is its
/// position inside the window and `source` the exact error op-at-a-time
/// application would have reported.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalesceError {
    /// Index of the rejected op within the window.
    pub op_index: usize,
    /// Why it was rejected.
    pub source: DeltaError,
}

impl std::fmt::Display for CoalesceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "window op #{}: {}", self.op_index, self.source)
    }
}

impl std::error::Error for CoalesceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Coalesces `window` against `base` into a canonical batch whose
/// materialization equals applying the window op-at-a-time (see the
/// module docs for the algebra and the bit-identity argument).
///
/// The batch is never longer than the window, and coalescing is
/// idempotent: re-coalescing a coalesced batch returns it unchanged.
///
/// # Errors
/// [`CoalesceError`] wrapping the first op the window rejects — the same
/// op, and the same [`DeltaError`], as op-at-a-time application. Nothing
/// is emitted for a rejected window.
pub fn coalesce(base: &Instance, window: &[DeltaOp]) -> Result<Vec<DeltaOp>, CoalesceError> {
    // --- Simulation pass -------------------------------------------------
    // `apply` both validates (identically to op-at-a-time) and accumulates
    // the final state every emitted value is bit-copied from. Slot lists
    // track identity through the dense-id shifts: `Some(orig)` is a base
    // slot, `None` a window-added one. Base slots always precede added
    // slots (adds append, removals preserve order), so survivors keep
    // their base-relative order.
    let mut cur = base.clone();
    let mut ev_slots: Vec<Option<usize>> = (0..base.num_events()).map(Some).collect();
    let mut user_slots: Vec<Option<usize>> = (0..base.num_users()).map(Some).collect();
    // Base-cell drifts, recorded by *base* ids so later shifts cannot
    // alias them. Drifts on window-added rows/columns need no record —
    // the emitted AddEvent/AddUsers payloads read final values anyway.
    let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();

    for (op_index, op) in window.iter().enumerate() {
        apply(&mut cur, op).map_err(|source| CoalesceError { op_index, source })?;
        match op {
            DeltaOp::AddEvent { .. } => ev_slots.push(None),
            DeltaOp::RemoveEvent { event } => {
                ev_slots.remove(event.index());
            }
            DeltaOp::AddUsers { users } => {
                user_slots.extend(std::iter::repeat_n(None, users.len()));
            }
            DeltaOp::RetireUsers { users } => {
                for &u in users.iter().rev() {
                    user_slots.remove(u);
                }
            }
            DeltaOp::ShiftInterest { event, user, .. } => {
                if let (Some(oe), Some(ou)) = (ev_slots[event.index()], user_slots[*user]) {
                    touched.insert((oe, ou));
                }
            }
            // Constraint ops are reconstructed from the state diff below.
            _ => {}
        }
    }

    // Base id -> final position for the survivors.
    let mut ev_final: Vec<Option<usize>> = vec![None; base.num_events()];
    for (pos, slot) in ev_slots.iter().enumerate() {
        if let Some(orig) = slot {
            ev_final[*orig] = Some(pos);
        }
    }
    let mut user_final: Vec<Option<usize>> = vec![None; base.num_users()];
    for (pos, slot) in user_slots.iter().enumerate() {
        if let Some(orig) = slot {
            user_final[*orig] = Some(pos);
        }
    }

    let mut out = Vec::new();

    // --- (a) AddUsers: surviving joiners, final tail order ---------------
    // Emitted first, while the replay's event set is still the base set:
    // each row spans the base events, with surviving columns carrying the
    // final bits and doomed columns zero-padded (the pad is erased with
    // the column in step (d), so it never reaches the final instance).
    let added_users: Vec<usize> =
        user_slots.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(p, _)| p).collect();
    if !added_users.is_empty() {
        let users: Vec<NewUser> = added_users
            .iter()
            .map(|&p| NewUser {
                event_interest: (0..base.num_events())
                    .map(|oe| match ev_final[oe] {
                        Some(fp) => cur.event_interest.value(fp, p),
                        None => 0.0,
                    })
                    .collect(),
                competing_interest: (0..cur.num_competing())
                    .map(|c| cur.competing_interest.value(c, p))
                    .collect(),
                activity: (0..cur.num_intervals()).map(|t| cur.activity.value(p, t)).collect(),
                weight: cur.user_weights.as_ref().map(|w| w[p]),
            })
            .collect();
        out.push(DeltaOp::AddUsers { users });
    }

    // --- (b) RetireUsers: lapsed base users, ascending base ids ----------
    // Valid pre-shift indices: the joiners sit at the tail, above every
    // base id, and the final user count bounds the batch away from empty.
    let retired: Vec<usize> =
        (0..base.num_users()).filter(|&ou| user_final[ou].is_none()).collect();
    if !retired.is_empty() {
        out.push(DeltaOp::RetireUsers { users: retired });
    }

    // --- (c) AddEvent: surviving announcements, final tail order ---------
    // The user set is final after (a)+(b), so each column is read once, at
    // full final width, zeros filled in.
    for (pos, slot) in ev_slots.iter().enumerate() {
        if slot.is_none() {
            let mut interest = vec![0.0; cur.num_users()];
            cur.event_interest.column(pos).for_each(|(u, v)| interest[u] = v);
            out.push(DeltaOp::AddEvent { event: cur.events[pos].clone(), interest });
        }
    }

    // --- (d) RemoveEvent: cancelled base events, descending base ids -----
    // Descending keeps every remaining base id equal to its original, and
    // each removal drops the event's constraint edges exactly as the
    // constraint diff below expects (it diffs against the same replay).
    let removed_events: Vec<usize> =
        (0..base.num_events()).filter(|&oe| ev_final[oe].is_none()).collect();
    for &oe in removed_events.iter().rev() {
        out.push(DeltaOp::RemoveEvent { event: EventId::new(oe) });
    }

    // --- (e) ShiftInterest: net drifts on surviving base cells -----------
    // BTreeSet order is ascending (base event, base user); survival is
    // order-preserving, so emission is ascending in final ids too.
    for &(oe, ou) in &touched {
        if let (Some(fe), Some(fu)) = (ev_final[oe], user_final[ou]) {
            let v = cur.event_interest.value(fe, fu);
            if v.to_bits() != base.event_interest.value(oe, ou).to_bits() {
                out.push(DeltaOp::ShiftInterest { event: EventId::new(fe), user: fu, interest: v });
            }
        }
    }

    // --- (f) Constraint diff ---------------------------------------------
    // `pre` is the constraint set the replay holds after step (d): base
    // rules minus the removed events' edges, ids shifted in the same
    // descending order. Each family is diffed order-aware against the
    // final set so the replay reproduces its exact Vec storage (the
    // constraint sets compare order-sensitively).
    let mut pre = base.constraints.clone();
    for &oe in removed_events.iter().rev() {
        pre.remove_event(EventId::new(oe));
    }
    diff_conflicts(pre.conflicts(), cur.constraints.conflicts(), &mut out);
    diff_precedences(pre.precedences(), cur.constraints.precedences(), &mut out);
    diff_capacities(pre.venue_capacities(), cur.constraints.venue_capacities(), &mut out);

    Ok(out)
}

/// Splits `cur` into the longest prefix that is an in-order (by `eq`)
/// subsequence of `pre` — the survivors — and a tail of additions.
/// Returns the split point and a per-`pre`-entry survival mask. This is
/// the unique decomposition a retain-then-push history can produce:
/// removals preserve order and additions append, so everything after the
/// first non-survivor is an addition.
fn split_survivors<T>(pre: &[T], cur: &[T], eq: impl Fn(&T, &T) -> bool) -> (usize, Vec<bool>) {
    let mut matched = vec![false; pre.len()];
    let mut j = 0;
    let mut split = cur.len();
    for (i, entry) in cur.iter().enumerate() {
        match pre[j..].iter().position(|p| eq(p, entry)) {
            Some(off) => {
                matched[j + off] = true;
                j += off + 1;
            }
            None => {
                split = i;
                break;
            }
        }
    }
    (split, matched)
}

fn diff_conflicts(pre: &[ConflictPair], cur: &[ConflictPair], out: &mut Vec<DeltaOp>) {
    // Exact (oriented) equality: a surviving pair is never rewritten, so
    // its stored orientation must match; a re-added pair with flipped
    // orientation correctly lands in the removal+addition path.
    let (split, matched) = split_survivors(pre, cur, |a, b| a == b);
    for (p, _) in pre.iter().zip(&matched).filter(|(_, &m)| !m) {
        out.push(DeltaOp::RemoveConflict { a: p.a, b: p.b });
    }
    for p in &cur[split..] {
        out.push(DeltaOp::AddConflict { a: p.a, b: p.b });
    }
}

fn diff_precedences(pre: &[PrecedenceEdge], cur: &[PrecedenceEdge], out: &mut Vec<DeltaOp>) {
    let (split, matched) = split_survivors(pre, cur, |a, b| a == b);
    for (p, _) in pre.iter().zip(&matched).filter(|(_, &m)| !m) {
        out.push(DeltaOp::RemovePrecedence { before: p.before, after: p.after });
    }
    for p in &cur[split..] {
        out.push(DeltaOp::AddPrecedence { before: p.before, after: p.after });
    }
}

fn diff_capacities(pre: &[VenueCapacity], cur: &[VenueCapacity], out: &mut Vec<DeltaOp>) {
    // Capacities match by location: a set on an existing location updates
    // in place (position preserved), so survivors may carry a new value.
    // Clears go first so a cleared-then-reset location re-enters at the
    // tail, exactly where the replayed push puts it.
    let (split, matched) = split_survivors(pre, cur, |a, b| a.location == b.location);
    for (p, _) in pre.iter().zip(&matched).filter(|(_, &m)| !m) {
        out.push(DeltaOp::SetVenueCapacity { location: p.location, capacity: None });
    }
    for entry in &cur[..split] {
        let old = pre.iter().find(|p| p.location == entry.location).expect("matched survivor");
        if old.capacity != entry.capacity {
            out.push(DeltaOp::SetVenueCapacity {
                location: entry.location,
                capacity: Some(entry.capacity),
            });
        }
    }
    for entry in &cur[split..] {
        out.push(DeltaOp::SetVenueCapacity {
            location: entry.location,
            capacity: Some(entry.capacity),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::materialize;
    use super::*;
    use crate::ids::LocationId;
    use crate::model::{running_example, Event};

    fn e(i: usize) -> EventId {
        EventId::new(i)
    }

    fn unit_user(inst: &Instance, fill: f64) -> NewUser {
        NewUser {
            event_interest: vec![fill; inst.num_events()],
            competing_interest: vec![fill / 2.0; inst.num_competing()],
            activity: vec![fill; inst.num_intervals()],
            weight: None,
        }
    }

    /// The one invariant everything else leans on: materializing the
    /// coalesced batch equals materializing the window.
    fn assert_sound(base: &Instance, window: &[DeltaOp]) -> Vec<DeltaOp> {
        let batch = coalesce(base, window).expect("window must be valid");
        assert!(batch.len() <= window.len(), "batch may not outgrow the window");
        let via_window = materialize(base, window).unwrap();
        let via_batch = materialize(base, &batch).unwrap();
        assert_eq!(via_batch, via_window, "coalesced replay diverged");
        // Idempotence: a canonical batch re-coalesces to itself.
        assert_eq!(coalesce(base, &batch).unwrap(), batch);
        batch
    }

    #[test]
    fn empty_window_coalesces_to_nothing() {
        let base = running_example();
        assert_eq!(coalesce(&base, &[]).unwrap(), Vec::<DeltaOp>::new());
    }

    #[test]
    fn drift_merge_keeps_only_the_last_value() {
        let base = running_example();
        let window = vec![
            DeltaOp::ShiftInterest { event: e(1), user: 0, interest: 0.1 },
            DeltaOp::ShiftInterest { event: e(1), user: 0, interest: 0.7 },
            DeltaOp::ShiftInterest { event: e(1), user: 0, interest: 0.35 },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(batch, vec![DeltaOp::ShiftInterest { event: e(1), user: 0, interest: 0.35 }]);
    }

    #[test]
    fn reverted_drift_cancels_outright() {
        let base = running_example();
        let original = base.event_interest.value(2, 1);
        let window = vec![
            DeltaOp::ShiftInterest { event: e(2), user: 1, interest: 0.9 },
            DeltaOp::ShiftInterest { event: e(2), user: 1, interest: original },
        ];
        assert_eq!(assert_sound(&base, &window), vec![]);
    }

    #[test]
    fn add_then_remove_event_cancels() {
        let base = running_example();
        let window = vec![
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0),
                interest: vec![0.4, 0.8],
            },
            // The new event lands at id 4 and is cancelled right away.
            DeltaOp::RemoveEvent { event: e(4) },
        ];
        assert_eq!(assert_sound(&base, &window), vec![]);
    }

    #[test]
    fn join_then_lapse_cancels_and_folds() {
        let base = running_example();
        let window = vec![
            DeltaOp::AddUsers { users: vec![unit_user(&base, 0.5), unit_user(&base, 0.25)] },
            DeltaOp::AddUsers { users: vec![unit_user(&base, 0.75)] },
            // Retire one base user and the first joiner (index 2 post-add).
            DeltaOp::RetireUsers { users: vec![0, 2] },
        ];
        let batch = assert_sound(&base, &window);
        // Folds to one AddUsers (two surviving joiners) + one RetireUsers.
        assert_eq!(batch.len(), 2);
        assert!(matches!(&batch[0], DeltaOp::AddUsers { users } if users.len() == 2));
        assert_eq!(batch[1], DeltaOp::RetireUsers { users: vec![0] });
    }

    #[test]
    fn drift_on_added_event_folds_into_its_column() {
        let base = running_example();
        let window = vec![
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0),
                interest: vec![0.4, 0.8],
            },
            DeltaOp::ShiftInterest { event: e(4), user: 1, interest: 0.05 },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(batch.len(), 1);
        match &batch[0] {
            DeltaOp::AddEvent { interest, .. } => assert_eq!(interest, &vec![0.4, 0.05]),
            other => panic!("expected AddEvent, got {other:?}"),
        }
    }

    #[test]
    fn drift_on_removed_event_vanishes() {
        let base = running_example();
        let window = vec![
            DeltaOp::ShiftInterest { event: e(3), user: 0, interest: 0.9 },
            DeltaOp::RemoveEvent { event: e(3) },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(batch, vec![DeltaOp::RemoveEvent { event: e(3) }]);
    }

    #[test]
    fn constraint_churn_is_last_writer_wins() {
        let base = running_example();
        let loc = LocationId::new(0);
        let window = vec![
            DeltaOp::SetVenueCapacity { location: loc, capacity: Some(2) },
            DeltaOp::SetVenueCapacity { location: loc, capacity: Some(5) },
            DeltaOp::AddConflict { a: e(0), b: e(2) },
            DeltaOp::RemoveConflict { a: e(2), b: e(0) },
            DeltaOp::AddPrecedence { before: e(1), after: e(3) },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(
            batch,
            vec![
                DeltaOp::AddPrecedence { before: e(1), after: e(3) },
                DeltaOp::SetVenueCapacity { location: loc, capacity: Some(5) },
            ]
        );
    }

    #[test]
    fn set_then_clear_capacity_cancels() {
        let base = running_example();
        let loc = LocationId::new(1);
        let window = vec![
            DeltaOp::SetVenueCapacity { location: loc, capacity: Some(3) },
            DeltaOp::SetVenueCapacity { location: loc, capacity: None },
        ];
        assert_eq!(assert_sound(&base, &window), vec![]);
    }

    /// Removing a base event inside the window must also coalesce away
    /// the constraint rules that removal dropped — the diff is taken
    /// against the post-removal (`pre`) set, not the raw base set.
    #[test]
    fn event_removal_folds_its_constraint_edges() {
        let mut base = running_example();
        base.constraints.add_conflict(e(0), e(1));
        base.constraints.add_precedence(e(1), e(2));
        base.constraints.add_conflict(e(2), e(3));
        let window = vec![
            DeltaOp::RemoveEvent { event: e(1) },
            // Former e3 is now e2; retract the surviving (shifted) pair.
            DeltaOp::RemoveConflict { a: e(1), b: e(2) },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(
            batch,
            vec![
                DeltaOp::RemoveEvent { event: e(1) },
                DeltaOp::RemoveConflict { a: e(1), b: e(2) },
            ]
        );
    }

    /// A conflict removed and re-added lands at the tail of the storage
    /// Vec; the batch must reproduce that exact order, not just the set.
    #[test]
    fn readded_conflict_reproduces_storage_order() {
        let mut base = running_example();
        base.constraints.add_conflict(e(0), e(1));
        base.constraints.add_conflict(e(2), e(3));
        let window = vec![
            DeltaOp::RemoveConflict { a: e(0), b: e(1) },
            DeltaOp::AddConflict { a: e(0), b: e(1) },
        ];
        let batch = assert_sound(&base, &window);
        assert_eq!(
            batch,
            vec![
                DeltaOp::RemoveConflict { a: e(0), b: e(1) },
                DeltaOp::AddConflict { a: e(0), b: e(1) },
            ]
        );
    }

    #[test]
    fn mixed_window_stays_sound() {
        let base = running_example();
        let window = vec![
            DeltaOp::AddUsers { users: vec![unit_user(&base, 0.6)] },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(2), 2.0),
                interest: vec![0.1, 0.2, 0.3],
            },
            DeltaOp::ShiftInterest { event: e(0), user: 2, interest: 0.45 },
            DeltaOp::RemoveEvent { event: e(2) },
            DeltaOp::AddConflict { a: e(0), b: e(3) },
            DeltaOp::RetireUsers { users: vec![1] },
            DeltaOp::ShiftInterest { event: e(0), user: 0, interest: 0.0 },
        ];
        assert_sound(&base, &window);
    }

    #[test]
    fn invalid_window_reports_the_offending_op() {
        let base = running_example();
        let window = vec![
            DeltaOp::ShiftInterest { event: e(0), user: 0, interest: 0.5 },
            DeltaOp::RemoveEvent { event: e(9) },
        ];
        let err = coalesce(&base, &window).unwrap_err();
        assert_eq!(err.op_index, 1);
        assert!(matches!(err.source, DeltaError::UnknownEvent { .. }));
        assert!(err.to_string().contains("window op #1"));
    }
}
