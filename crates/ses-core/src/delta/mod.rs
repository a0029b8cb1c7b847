//! Dynamic-workload deltas: an op log applied against a live [`Instance`].
//!
//! The paper schedules a *static* batch of events; real EBSN workloads
//! churn — events get announced and cancelled, users join and lapse,
//! interests drift. This module defines the op vocabulary ([`DeltaOp`]),
//! applies ops in place ([`apply`]), and reports what each op invalidated
//! ([`DeltaEffect`]) so schedulers can repair caches instead of rebuilding
//! them (see `ses_algorithms::stream`).
//!
//! ## Identifier semantics
//!
//! Ids stay **dense** under churn, mirroring the `Vec` storage they index:
//!
//! * [`DeltaOp::RemoveEvent`] shifts every later event id down by one
//!   (`Vec::remove` semantics), in lock-step across `events` and
//!   `event_interest`.
//! * [`DeltaOp::RetireUsers`] does the same for user indices across both
//!   interest matrices, the activity matrix, and the optional weights.
//! * [`DeltaOp::AddEvent`] / [`DeltaOp::AddUsers`] append at the tail.
//!
//! Two parties that apply the same op log to equal instances therefore end
//! with *identical* instances — the property the stream-equivalence suite
//! leans on to compare incremental repair against full recompute.
//!
//! ## Cache invalidation contract
//!
//! Per op, the caches a warm-started scheduler keeps:
//!
//! | op | competing mass `C(u,t)` | empty-schedule score of `(e,t)` |
//! |---|---|---|
//! | `AddEvent` | unchanged | new column needs scoring; others exact |
//! | `RemoveEvent` | unchanged | drop the column; others exact |
//! | `ShiftInterest` | unchanged | that event's column needs rescoring |
//! | `AddUsers` | extend rows ([`refresh_comp_mass`]) | grows by at most `Σ_new w·σ(u,t)` (bound) |
//! | `RetireUsers` | drop cells ([`refresh_comp_mass`]) | only shrinks (old value is a bound) |
//! | constraint ops | unchanged | unchanged (scores are constraint-independent); validity mask reconciled |
//!
//! Constraint ops (`AddConflict` / `RemoveConflict` / `AddPrecedence` /
//! `RemovePrecedence` / `SetVenueCapacity`) edit the instance's
//! [`ConstraintSet`](crate::constraints::ConstraintSet) without touching any
//! score, but the current schedule may have become infeasible — warm
//! schedulers re-run selection on [`DeltaEffect::ConstraintsChanged`].
//! The set of cells feasible on the *empty* schedule can move too: a
//! venue capacity below an event's duration closes that event's cells, and
//! lifting the cap reopens them. So on `ConstraintsChanged` a warm
//! score table reconciles its empty-schedule validity mask (scoring
//! reopened cells, dropping closed ones) before selection.
//! `RemoveEvent` additionally drops the removed event's conflict and
//! precedence edges and shifts the surviving edge ids, atomically with the
//! event itself, so an op stream can never strand a dangling constraint
//! reference.
//!
//! The two "bound" rows are what keep user churn cheap: cached scores stay
//! *sound upper bounds* (the invariant INC-style pruning needs), so nothing
//! must be eagerly rescored.

use crate::error::DeltaError;
use crate::ids::EventId;
use crate::model::{Event, Instance};
use serde::{Deserialize, Serialize};

pub mod coalesce;

/// One mutation of a live [`Instance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeltaOp {
    /// Announce a new candidate event; `interest` is its dense per-user
    /// interest column (`len == |U|`).
    AddEvent {
        /// The event to append.
        event: Event,
        /// Interest `µ(u, e)` of every current user.
        interest: Vec<f64>,
    },
    /// Cancel a candidate event; later event ids shift down by one.
    RemoveEvent {
        /// The event to remove.
        event: EventId,
    },
    /// A batch of users joins; they receive the next consecutive indices.
    AddUsers {
        /// The joining users.
        users: Vec<NewUser>,
    },
    /// A batch of users lapses; indices must be strictly increasing, and
    /// surviving users shift down to stay dense.
    RetireUsers {
        /// The lapsing users' current indices.
        users: Vec<usize>,
    },
    /// One user's interest in one candidate event drifts to a new value.
    ShiftInterest {
        /// The event whose interest shifts.
        event: EventId,
        /// The user whose interest shifts.
        user: usize,
        /// The new interest `µ(user, event) ∈ [0, 1]`.
        interest: f64,
    },
    /// Declare two events mutually exclusive.
    AddConflict {
        /// One endpoint.
        a: EventId,
        /// The other endpoint.
        b: EventId,
    },
    /// Retract a mutual-exclusion pair (unordered match).
    RemoveConflict {
        /// One endpoint.
        a: EventId,
        /// The other endpoint.
        b: EventId,
    },
    /// Add a precedence edge (`before` must finish before `after` starts).
    /// Rejected if it would close a cycle.
    AddPrecedence {
        /// The event that must run first.
        before: EventId,
        /// The event that must run later.
        after: EventId,
    },
    /// Retract a precedence edge (directed match).
    RemovePrecedence {
        /// The event that must run first.
        before: EventId,
        /// The event that must run later.
        after: EventId,
    },
    /// Set (`Some(c)`, `c ≥ 1`) or clear (`None`) a venue's slot budget.
    SetVenueCapacity {
        /// The location to (un)constrain.
        location: crate::ids::LocationId,
        /// The new budget, or `None` to lift it.
        capacity: Option<u32>,
    },
}

impl DeltaOp {
    /// Short display name of the op kind (for traces and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::AddEvent { .. } => "AddEvent",
            Self::RemoveEvent { .. } => "RemoveEvent",
            Self::AddUsers { .. } => "AddUsers",
            Self::RetireUsers { .. } => "RetireUsers",
            Self::ShiftInterest { .. } => "ShiftInterest",
            Self::AddConflict { .. } => "AddConflict",
            Self::RemoveConflict { .. } => "RemoveConflict",
            Self::AddPrecedence { .. } => "AddPrecedence",
            Self::RemovePrecedence { .. } => "RemovePrecedence",
            Self::SetVenueCapacity { .. } => "SetVenueCapacity",
        }
    }
}

/// Payload of one joining user: interest over current candidate and
/// competing events, activity over the intervals, and (iff the instance is
/// weighted) a weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NewUser {
    /// Interest `µ(u, e)` over candidate events (`len == |E|`).
    pub event_interest: Vec<f64>,
    /// Interest `µ(u, c)` over competing events (`len == |C|`).
    pub competing_interest: Vec<f64>,
    /// Activity `σ(u, t)` over intervals (`len == |T|`).
    pub activity: Vec<f64>,
    /// Weight — required iff the instance carries per-user weights.
    #[serde(default)]
    pub weight: Option<f64>,
}

/// What [`apply`] changed — the cache-invalidation summary a warm-started
/// scheduler keys its repair on (see the module docs for the contract).
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaEffect {
    /// A new event was appended with this id.
    EventAdded(EventId),
    /// This event was removed; every event id above it shifted down by one.
    EventRemoved(EventId),
    /// `count` users were appended starting at index `first`.
    UsersAdded {
        /// Index of the first new user.
        first: usize,
        /// Number of users added.
        count: usize,
    },
    /// These users (pre-removal indices, strictly increasing) were removed;
    /// survivors shifted down.
    UsersRetired {
        /// The removed indices, in pre-removal numbering.
        users: Vec<usize>,
    },
    /// One interest value changed.
    InterestShifted {
        /// The affected event.
        event: EventId,
        /// The affected user.
        user: usize,
    },
    /// The instance's [`ConstraintSet`] changed. Scores are
    /// constraint-independent, so no cached score is invalidated — but the
    /// empty-schedule validity mask may have moved (a venue capacity below
    /// an event's duration) and the current schedule may have become
    /// infeasible, so warm schedulers reconcile the mask and re-run
    /// selection.
    ///
    /// [`ConstraintSet`]: crate::constraints::ConstraintSet
    ConstraintsChanged,
}

fn check_unit_values(what: &'static str, values: &[f64]) -> Result<(), DeltaError> {
    for &v in values {
        if !(0.0..=1.0).contains(&v) || v.is_nan() {
            return Err(DeltaError::ValueOutOfRange { what, value: v });
        }
    }
    Ok(())
}

fn check_len(what: &'static str, expected: usize, actual: usize) -> Result<(), DeltaError> {
    if expected != actual {
        return Err(DeltaError::ShapeMismatch { what, expected, actual });
    }
    Ok(())
}

/// Applies one op to the instance, in place, after validating it against
/// the instance's current shape and value ranges. On error the instance is
/// unchanged.
///
/// # Errors
/// Any [`DeltaError`]; see the variants for the individual contracts.
pub fn apply(inst: &mut Instance, op: &DeltaOp) -> Result<DeltaEffect, DeltaError> {
    match op {
        DeltaOp::AddEvent { event, interest } => {
            check_len("new event interest column", inst.num_users(), interest.len())?;
            check_unit_values("interest", interest)?;
            if !event.required_resources.is_finite() || event.required_resources < 0.0 {
                return Err(DeltaError::ValueOutOfRange {
                    what: "required resources",
                    value: event.required_resources,
                });
            }
            if event.required_resources > inst.resources {
                return Err(DeltaError::UnschedulableEvent {
                    required: event.required_resources,
                    available: inst.resources,
                });
            }
            inst.event_interest.push_item(interest);
            inst.events.push(event.clone());
            Ok(DeltaEffect::EventAdded(EventId::new(inst.events.len() - 1)))
        }
        DeltaOp::RemoveEvent { event } => {
            if event.index() >= inst.num_events() {
                return Err(DeltaError::UnknownEvent {
                    event: *event,
                    num_events: inst.num_events(),
                });
            }
            if inst.num_events() == 1 {
                return Err(DeltaError::WouldEmpty("candidate events"));
            }
            inst.events.remove(event.index());
            inst.event_interest.remove_item(event.index());
            // Constraint edges must move in lock-step with the dense ids:
            // drop rules referencing the removed event and shift the rest,
            // or later ops would resolve against the wrong (or a dangling)
            // event.
            inst.constraints.remove_event(*event);
            Ok(DeltaEffect::EventRemoved(*event))
        }
        DeltaOp::AddUsers { users } => {
            if users.is_empty() {
                return Err(DeltaError::EmptyOp("users"));
            }
            let weighted = inst.user_weights.is_some();
            for u in users {
                check_len("new user event interest", inst.num_events(), u.event_interest.len())?;
                check_len(
                    "new user competing interest",
                    inst.num_competing(),
                    u.competing_interest.len(),
                )?;
                check_len("new user activity", inst.num_intervals(), u.activity.len())?;
                check_unit_values("interest", &u.event_interest)?;
                check_unit_values("interest", &u.competing_interest)?;
                check_unit_values("activity", &u.activity)?;
                match u.weight {
                    Some(_) if !weighted => {
                        return Err(DeltaError::WeightMismatch { instance_weighted: false });
                    }
                    None if weighted => {
                        return Err(DeltaError::WeightMismatch { instance_weighted: true });
                    }
                    Some(w) if !w.is_finite() || w < 0.0 => {
                        return Err(DeltaError::ValueOutOfRange { what: "weight", value: w });
                    }
                    _ => {}
                }
            }
            let first = inst.num_users();
            let ev_rows: Vec<Vec<f64>> = users.iter().map(|u| u.event_interest.clone()).collect();
            let comp_rows: Vec<Vec<f64>> =
                users.iter().map(|u| u.competing_interest.clone()).collect();
            inst.event_interest.append_users(&ev_rows);
            inst.competing_interest.append_users(&comp_rows);
            for u in users {
                inst.activity.append_user(&u.activity);
            }
            if let Some(w) = &mut inst.user_weights {
                w.extend(users.iter().map(|u| u.weight.expect("validated above")));
            }
            Ok(DeltaEffect::UsersAdded { first, count: users.len() })
        }
        DeltaOp::RetireUsers { users } => {
            if users.is_empty() {
                return Err(DeltaError::EmptyOp("users"));
            }
            let mut prev = None;
            for &u in users {
                if u >= inst.num_users() {
                    return Err(DeltaError::UnknownUser { user: u, num_users: inst.num_users() });
                }
                if prev.is_some_and(|p| p >= u) {
                    return Err(DeltaError::UnsortedUsers);
                }
                prev = Some(u);
            }
            if users.len() >= inst.num_users() {
                return Err(DeltaError::WouldEmpty("users"));
            }
            let keep = crate::model::user_keep_mask(inst.num_users(), users);
            inst.event_interest.remove_users(users);
            inst.competing_interest.remove_users(users);
            inst.activity.remove_users(users);
            if let Some(w) = &mut inst.user_weights {
                let mut user = 0usize;
                w.retain(|_| {
                    let kept = keep[user];
                    user += 1;
                    kept
                });
            }
            Ok(DeltaEffect::UsersRetired { users: users.clone() })
        }
        DeltaOp::ShiftInterest { event, user, interest } => {
            if event.index() >= inst.num_events() {
                return Err(DeltaError::UnknownEvent {
                    event: *event,
                    num_events: inst.num_events(),
                });
            }
            if *user >= inst.num_users() {
                return Err(DeltaError::UnknownUser { user: *user, num_users: inst.num_users() });
            }
            if !(0.0..=1.0).contains(interest) || interest.is_nan() {
                return Err(DeltaError::ValueOutOfRange { what: "interest", value: *interest });
            }
            inst.event_interest.set_value(event.index(), *user, *interest);
            Ok(DeltaEffect::InterestShifted { event: *event, user: *user })
        }
        DeltaOp::AddConflict { a, b } => {
            check_constraint_event(inst, *a)?;
            check_constraint_event(inst, *b)?;
            if a == b {
                return Err(DeltaError::SelfConstraint { event: *a });
            }
            if inst.constraints.has_conflict(*a, *b) {
                return Err(DeltaError::DuplicateConstraint);
            }
            inst.constraints.add_conflict(*a, *b);
            Ok(DeltaEffect::ConstraintsChanged)
        }
        DeltaOp::RemoveConflict { a, b } => {
            if !inst.constraints.remove_conflict(*a, *b) {
                return Err(DeltaError::UnknownConstraint);
            }
            Ok(DeltaEffect::ConstraintsChanged)
        }
        DeltaOp::AddPrecedence { before, after } => {
            check_constraint_event(inst, *before)?;
            check_constraint_event(inst, *after)?;
            if before == after {
                return Err(DeltaError::SelfConstraint { event: *before });
            }
            if inst.constraints.has_precedence(*before, *after) {
                return Err(DeltaError::DuplicateConstraint);
            }
            if inst.constraints.precedence_would_cycle(*before, *after) {
                return Err(DeltaError::ConstraintCycle { before: *before, after: *after });
            }
            inst.constraints.add_precedence(*before, *after);
            Ok(DeltaEffect::ConstraintsChanged)
        }
        DeltaOp::RemovePrecedence { before, after } => {
            if !inst.constraints.remove_precedence(*before, *after) {
                return Err(DeltaError::UnknownConstraint);
            }
            Ok(DeltaEffect::ConstraintsChanged)
        }
        DeltaOp::SetVenueCapacity { location, capacity } => match capacity {
            Some(0) => Err(DeltaError::ZeroCapacity),
            Some(c) => {
                inst.constraints.set_venue_capacity(*location, *c);
                Ok(DeltaEffect::ConstraintsChanged)
            }
            None => {
                if !inst.constraints.clear_venue_capacity(*location) {
                    return Err(DeltaError::UnknownConstraint);
                }
                Ok(DeltaEffect::ConstraintsChanged)
            }
        },
    }
}

fn check_constraint_event(inst: &Instance, event: EventId) -> Result<(), DeltaError> {
    if event.index() >= inst.num_events() {
        return Err(DeltaError::UnknownEvent { event, num_events: inst.num_events() });
    }
    Ok(())
}

/// Applies a whole op log to a clone of `base` — the "full recompute" side
/// of the incremental-vs-recompute comparison, and the reference
/// materialization tests check the stream scheduler against.
///
/// # Errors
/// The first [`DeltaError`] hit; no instance is returned on error.
pub fn materialize(base: &Instance, ops: &[DeltaOp]) -> Result<Instance, DeltaError> {
    let mut inst = base.clone();
    for op in ops {
        apply(&mut inst, op)?;
    }
    Ok(inst)
}

/// One cell of a freshly built competing-mass table, accumulated in the
/// exact order [`ScoringEngine::with_threads`] uses (ascending competing
/// id within the interval) so warm tables stay bit-identical to cold ones.
///
/// [`ScoringEngine::with_threads`]: crate::scoring::ScoringEngine::with_threads
fn comp_cell(inst: &Instance, user: usize, t: usize) -> f64 {
    let mut total = 0.0;
    for (ci, c) in inst.competing.iter().enumerate() {
        if c.interval.index() == t {
            total += inst.competing_interest.value(ci, user);
        }
    }
    total
}

/// Maintains a cached competing-mass table `C(u,t)` (layout `[t·|U| + u]`,
/// as built by the scoring engine) across an applied delta: user churn
/// reflows the table incrementally — new cells are aggregated in the
/// engine's canonical order, surviving cells are moved untouched — so the
/// result is bit-identical to a from-scratch rebuild at a fraction of the
/// `O(|U|·|C|)` cost. Event-level ops leave the table untouched.
///
/// `inst` must be the **post-apply** instance and `effect` the value
/// [`apply`] returned for it.
///
/// # Panics
/// Panics if the table's length does not match the pre-op shape.
pub fn refresh_comp_mass(mass: &mut Vec<f64>, inst: &Instance, effect: &DeltaEffect) {
    let intervals = inst.num_intervals();
    match effect {
        DeltaEffect::EventAdded(_)
        | DeltaEffect::EventRemoved(_)
        | DeltaEffect::InterestShifted { .. }
        | DeltaEffect::ConstraintsChanged => {}
        DeltaEffect::UsersAdded { first, count } => {
            let users = inst.num_users();
            let old_users = users - count;
            assert_eq!(mass.len(), old_users * intervals, "competing-mass table shape mismatch");
            let mut out = Vec::with_capacity(users * intervals);
            for t in 0..intervals {
                out.extend_from_slice(&mass[t * old_users..(t + 1) * old_users]);
                for u in *first..first + count {
                    out.push(comp_cell(inst, u, t));
                }
            }
            *mass = out;
        }
        DeltaEffect::UsersRetired { users: gone } => {
            let users = inst.num_users();
            let old_users = users + gone.len();
            assert_eq!(mass.len(), old_users * intervals, "competing-mass table shape mismatch");
            let mut keep = vec![true; old_users];
            for &u in gone {
                keep[u] = false;
            }
            let mut out = Vec::with_capacity(users * intervals);
            for t in 0..intervals {
                let row = &mass[t * old_users..(t + 1) * old_users];
                out.extend(row.iter().zip(&keep).filter(|(_, &k)| k).map(|(&v, _)| v));
            }
            *mass = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{IntervalId, LocationId};
    use crate::model::running_example;
    use crate::parallel::Threads;
    use crate::scoring::ScoringEngine;

    fn unit_user(num_events: usize, num_competing: usize, num_intervals: usize) -> NewUser {
        NewUser {
            event_interest: vec![0.5; num_events],
            competing_interest: vec![0.25; num_competing],
            activity: vec![0.75; num_intervals],
            weight: None,
        }
    }

    #[test]
    fn add_and_remove_event_roundtrip_shape() {
        let mut inst = running_example();
        let effect = apply(
            &mut inst,
            &DeltaOp::AddEvent {
                event: Event::new(LocationId::new(3), 1.0),
                interest: vec![0.4, 0.8],
            },
        )
        .unwrap();
        assert_eq!(effect, DeltaEffect::EventAdded(EventId::new(4)));
        assert_eq!(inst.num_events(), 5);
        assert_eq!(inst.event_interest.value(4, 1), 0.8);
        assert!(inst.validate().is_ok());

        let effect = apply(&mut inst, &DeltaOp::RemoveEvent { event: EventId::new(0) }).unwrap();
        assert_eq!(effect, DeltaEffect::EventRemoved(EventId::new(0)));
        assert_eq!(inst.num_events(), 4);
        // Former e1 (index 1) is now index 0.
        assert_eq!(inst.events[0].label.as_deref(), Some("e2"));
        assert_eq!(inst.event_interest.value(0, 1), 0.6);
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn add_and_retire_users_keep_instance_valid() {
        let mut inst = running_example();
        let u = unit_user(4, 2, 2);
        apply(&mut inst, &DeltaOp::AddUsers { users: vec![u.clone(), u] }).unwrap();
        assert_eq!(inst.num_users(), 4);
        assert_eq!(inst.activity.value(3, 0), 0.75);
        assert!(inst.validate().is_ok());

        apply(&mut inst, &DeltaOp::RetireUsers { users: vec![0, 2] }).unwrap();
        assert_eq!(inst.num_users(), 2);
        // Former u2 (index 1) is now index 0.
        assert_eq!(inst.event_interest.value(0, 0), 0.2);
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn shift_interest_sets_value() {
        let mut inst = running_example();
        apply(
            &mut inst,
            &DeltaOp::ShiftInterest { event: EventId::new(2), user: 0, interest: 0.9 },
        )
        .unwrap();
        assert_eq!(inst.event_interest.value(2, 0), 0.9);
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ops() {
        let mut inst = running_example();
        let before = inst.clone();
        let bad: Vec<DeltaOp> = vec![
            DeltaOp::AddEvent { event: Event::new(LocationId::new(0), 1.0), interest: vec![0.5] },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(0), 99.0), // θ = 10
                interest: vec![0.5, 0.5],
            },
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(0), 1.0),
                interest: vec![0.5, 1.5],
            },
            DeltaOp::RemoveEvent { event: EventId::new(9) },
            DeltaOp::AddUsers { users: vec![] },
            DeltaOp::AddUsers { users: vec![NewUser { weight: Some(1.0), ..unit_user(4, 2, 2) }] },
            DeltaOp::RetireUsers { users: vec![1, 0] },
            DeltaOp::RetireUsers { users: vec![0, 1] }, // would empty
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 9, interest: 0.5 },
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 0, interest: -0.1 },
        ];
        for op in bad {
            assert!(apply(&mut inst, &op).is_err(), "{op:?} must be rejected");
            assert_eq!(inst, before, "{op:?} must leave the instance unchanged");
        }
    }

    #[test]
    fn remove_last_event_rejected() {
        let mut inst = running_example();
        for _ in 0..3 {
            apply(&mut inst, &DeltaOp::RemoveEvent { event: EventId::new(0) }).unwrap();
        }
        let err = apply(&mut inst, &DeltaOp::RemoveEvent { event: EventId::new(0) }).unwrap_err();
        assert_eq!(err, DeltaError::WouldEmpty("candidate events"));
    }

    #[test]
    fn materialize_applies_in_order() {
        let base = running_example();
        let ops = vec![
            DeltaOp::AddEvent {
                event: Event::new(LocationId::new(4), 1.0),
                interest: vec![0.3, 0.3],
            },
            DeltaOp::RemoveEvent { event: EventId::new(1) },
            DeltaOp::ShiftInterest { event: EventId::new(0), user: 1, interest: 0.0 },
        ];
        let inst = materialize(&base, &ops).unwrap();
        assert_eq!(inst.num_events(), 4);
        assert_eq!(inst.event_interest.value(0, 1), 0.0);
        assert!(inst.validate().is_ok());
    }

    /// The warm competing-mass table must be bit-identical to a cold
    /// rebuild after any mix of user churn — the invariant that lets the
    /// stream scheduler skip the `O(|U|·|C|)` setup.
    #[test]
    fn refreshed_comp_mass_matches_cold_rebuild() {
        let mut inst = running_example();
        let mut mass = {
            let engine = ScoringEngine::new(&inst);
            let mut m = Vec::new();
            for t in 0..inst.num_intervals() {
                for u in 0..inst.num_users() {
                    m.push(engine.competing_mass(u, IntervalId::new(t)));
                }
            }
            m
        };
        let ops = vec![
            DeltaOp::AddUsers {
                users: vec![
                    NewUser { competing_interest: vec![0.9, 0.0], ..unit_user(4, 2, 2) },
                    NewUser { competing_interest: vec![0.0, 0.6], ..unit_user(4, 2, 2) },
                ],
            },
            DeltaOp::RetireUsers { users: vec![0, 3] },
            DeltaOp::AddUsers { users: vec![unit_user(4, 2, 2)] },
        ];
        for op in &ops {
            let effect = apply(&mut inst, op).unwrap();
            refresh_comp_mass(&mut mass, &inst, &effect);
            let cold = ScoringEngine::with_threads(&inst, Threads::sequential());
            for t in 0..inst.num_intervals() {
                for u in 0..inst.num_users() {
                    let warm = mass[t * inst.num_users() + u];
                    let fresh = cold.competing_mass(u, IntervalId::new(t));
                    assert_eq!(warm.to_bits(), fresh.to_bits(), "cell ({u}, t{t}) after {op:?}");
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let op = DeltaOp::AddUsers { users: vec![unit_user(2, 1, 2)] };
        let json = serde_json::to_string(&op).unwrap();
        let back: DeltaOp = serde_json::from_str(&json).unwrap();
        assert_eq!(op, back);
        let op = DeltaOp::ShiftInterest { event: EventId::new(1), user: 0, interest: 0.25 };
        let back: DeltaOp = serde_json::from_str(&serde_json::to_string(&op).unwrap()).unwrap();
        assert_eq!(op, back);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DeltaOp::RemoveEvent { event: EventId::new(0) }.kind(), "RemoveEvent");
        assert_eq!(DeltaOp::RetireUsers { users: vec![0] }.kind(), "RetireUsers");
        assert_eq!(
            DeltaOp::SetVenueCapacity { location: LocationId::new(0), capacity: None }.kind(),
            "SetVenueCapacity"
        );
    }

    #[test]
    fn constraint_ops_edit_the_set() {
        let mut inst = running_example();
        let e = |i: usize| EventId::new(i);
        for op in [
            DeltaOp::AddConflict { a: e(0), b: e(3) },
            DeltaOp::AddPrecedence { before: e(0), after: e(2) },
            DeltaOp::SetVenueCapacity { location: LocationId::new(0), capacity: Some(2) },
        ] {
            assert_eq!(apply(&mut inst, &op).unwrap(), DeltaEffect::ConstraintsChanged);
        }
        assert!(inst.constraints.has_conflict(e(3), e(0)));
        assert!(inst.constraints.has_precedence(e(0), e(2)));
        assert_eq!(inst.constraints.venue_capacity(LocationId::new(0)), Some(2));
        assert!(inst.validate().is_ok());

        apply(&mut inst, &DeltaOp::RemoveConflict { a: e(3), b: e(0) }).unwrap();
        apply(&mut inst, &DeltaOp::RemovePrecedence { before: e(0), after: e(2) }).unwrap();
        apply(
            &mut inst,
            &DeltaOp::SetVenueCapacity { location: LocationId::new(0), capacity: None },
        )
        .unwrap();
        assert!(inst.constraints.is_empty());
    }

    #[test]
    fn constraint_op_validation_is_atomic() {
        let mut inst = running_example();
        apply(&mut inst, &DeltaOp::AddConflict { a: EventId::new(0), b: EventId::new(1) }).unwrap();
        apply(
            &mut inst,
            &DeltaOp::AddPrecedence { before: EventId::new(1), after: EventId::new(2) },
        )
        .unwrap();
        let before = inst.clone();
        let e = |i: usize| EventId::new(i);
        let bad: Vec<(DeltaOp, DeltaError)> = vec![
            (
                DeltaOp::AddConflict { a: e(0), b: e(9) },
                DeltaError::UnknownEvent { event: e(9), num_events: 4 },
            ),
            (DeltaOp::AddConflict { a: e(2), b: e(2) }, DeltaError::SelfConstraint { event: e(2) }),
            (DeltaOp::AddConflict { a: e(1), b: e(0) }, DeltaError::DuplicateConstraint),
            (DeltaOp::RemoveConflict { a: e(2), b: e(3) }, DeltaError::UnknownConstraint),
            (
                DeltaOp::AddPrecedence { before: e(9), after: e(0) },
                DeltaError::UnknownEvent { event: e(9), num_events: 4 },
            ),
            (
                DeltaOp::AddPrecedence { before: e(3), after: e(3) },
                DeltaError::SelfConstraint { event: e(3) },
            ),
            (DeltaOp::AddPrecedence { before: e(1), after: e(2) }, DeltaError::DuplicateConstraint),
            (
                DeltaOp::AddPrecedence { before: e(2), after: e(1) },
                DeltaError::ConstraintCycle { before: e(2), after: e(1) },
            ),
            (
                DeltaOp::RemovePrecedence { before: e(2), after: e(1) },
                DeltaError::UnknownConstraint,
            ),
            (
                DeltaOp::SetVenueCapacity { location: LocationId::new(0), capacity: Some(0) },
                DeltaError::ZeroCapacity,
            ),
            (
                DeltaOp::SetVenueCapacity { location: LocationId::new(7), capacity: None },
                DeltaError::UnknownConstraint,
            ),
        ];
        for (op, want) in bad {
            assert_eq!(apply(&mut inst, &op).unwrap_err(), want, "{op:?}");
            assert_eq!(inst, before, "{op:?} must leave the instance unchanged");
        }
    }

    /// Regression: removing an event must drop its conflict/precedence
    /// edges and shift the survivors' ids atomically with the event itself,
    /// so op streams cannot strand dangling constraint references.
    #[test]
    fn remove_event_maintains_constraints() {
        let mut inst = running_example();
        let e = |i: usize| EventId::new(i);
        apply(&mut inst, &DeltaOp::AddConflict { a: e(0), b: e(2) }).unwrap();
        apply(&mut inst, &DeltaOp::AddConflict { a: e(1), b: e(3) }).unwrap();
        apply(&mut inst, &DeltaOp::AddPrecedence { before: e(1), after: e(2) }).unwrap();
        apply(&mut inst, &DeltaOp::AddPrecedence { before: e(0), after: e(3) }).unwrap();

        apply(&mut inst, &DeltaOp::RemoveEvent { event: e(1) }).unwrap();
        // Rules touching e1 are gone; ids above 1 shifted down in lock-step
        // with events/event_interest, and the instance still validates.
        assert_eq!(inst.num_events(), 3);
        assert!(inst.constraints.has_conflict(e(0), e(1))); // was e0–e2
        assert!(!inst.constraints.has_conflict(e(1), e(3)));
        assert!(inst.constraints.has_precedence(e(0), e(2))); // was e0→e3
        assert_eq!(inst.constraints.len(), 2);
        assert!(inst.validate().is_ok());

        // A failing removal leaves the constraints untouched too.
        let before = inst.clone();
        assert!(apply(&mut inst, &DeltaOp::RemoveEvent { event: e(9) }).is_err());
        assert_eq!(inst, before);
    }

    #[test]
    fn constraint_ops_serde_roundtrip() {
        for op in [
            DeltaOp::AddConflict { a: EventId::new(0), b: EventId::new(1) },
            DeltaOp::RemovePrecedence { before: EventId::new(2), after: EventId::new(0) },
            DeltaOp::SetVenueCapacity { location: LocationId::new(1), capacity: Some(4) },
            DeltaOp::SetVenueCapacity { location: LocationId::new(1), capacity: None },
        ] {
            let back: DeltaOp = serde_json::from_str(&serde_json::to_string(&op).unwrap()).unwrap();
            assert_eq!(op, back);
        }
    }
}
