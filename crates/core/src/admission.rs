//! The admission ladder shared by batch and online serving.
//!
//! Every job walks the same four stages, in order, against the
//! accelerator (or shard) it is offered to:
//!
//! 1. **outstanding cap** — `outstanding ≥ max_outstanding` rejects as
//!    `queue_full`;
//! 2. **backlog limit** — `backlog + estimate > max_backlog_cycles`
//!    rejects as `overloaded`;
//! 3. **deadline estimate** — `backlog + estimate > deadline` rejects as
//!    `deadline_infeasible`, where the estimate is the DMA-aware lower
//!    bound of [`crate::Engine::estimate_cycles`];
//! 4. **exact placement** — the job starts when the array frees up
//!    (`max(busy_until, now)`) and runs its exact stall-inclusive
//!    schedule; a completion past `now + deadline` sheds as
//!    `deadline_missed` without occupying the array.
//!
//! Stages 1–3 are [`AdmissionLadder::admit`], stage 4 is
//! [`AdmissionLadder::place`].  The backlog is the caller's: batch mode
//! schedules nothing at submit time, so its backlog is the sum of the
//! admitted estimates; online it is the shard's `busy_until − now`.
//! Deadlines are relative to the arrival (`now`); batch arrivals are all
//! at cycle 0, so there the relative and absolute deadlines coincide.

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The outstanding-job cap is reached (backpressure).
    QueueFull {
        /// Configured cap.
        capacity: usize,
    },
    /// Even the optimistic completion estimate misses the deadline.
    DeadlineInfeasible {
        /// Estimated completion at admission (backlog + estimate),
        /// relative to the arrival.
        projected_cycles: u64,
        /// The job's deadline, relative to the arrival.
        deadline_cycles: u64,
    },
    /// Admitting the job would push the backlog past the configured
    /// overload limit.
    Overloaded {
        /// Backlog the job would have created (backlog + estimate).
        backlog_cycles: u64,
        /// Configured backlog limit.
        limit_cycles: u64,
    },
}

impl RejectReason {
    /// Reject slugs in ladder order, indexed by [`RejectReason::stage`].
    pub(crate) const SLUGS: [&'static str; 3] = ["queue_full", "overloaded", "deadline_infeasible"];

    /// The reason's position in the ladder: 0 = `queue_full`,
    /// 1 = `overloaded`, 2 = `deadline_infeasible`.
    pub(crate) fn stage(&self) -> usize {
        match self {
            RejectReason::QueueFull { .. } => 0,
            RejectReason::Overloaded { .. } => 1,
            RejectReason::DeadlineInfeasible { .. } => 2,
        }
    }

    /// Machine-readable reason slug, the `reason` label of the
    /// `engine.jobs` metric family and the key of per-tenant rate
    /// breakdowns.
    pub fn slug(&self) -> &'static str {
        Self::SLUGS[self.stage()]
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::DeadlineInfeasible { projected_cycles, deadline_cycles } => write!(
                f,
                "deadline infeasible (projected completion {projected_cycles} > deadline {deadline_cycles})"
            ),
            RejectReason::Overloaded { backlog_cycles, limit_cycles } => write!(
                f,
                "overloaded (backlog {backlog_cycles} cycles > limit {limit_cycles})"
            ),
        }
    }
}

/// Why an admitted job was dropped at schedule time instead of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The exact schedule (which the optimistic admission estimate
    /// under-approximates) puts completion past the deadline.
    DeadlineMissed {
        /// Completion cycle the exact schedule projected.
        completion_cycle: u64,
        /// The job's absolute deadline cycle.
        deadline_cycles: u64,
    },
}

impl ShedReason {
    /// Machine-readable reason slug (see [`RejectReason::slug`]).
    pub fn slug(&self) -> &'static str {
        match self {
            ShedReason::DeadlineMissed { .. } => "deadline_missed",
        }
    }

    /// The virtual-clock cycle at which the shed decision applies — the
    /// projected completion the scheduler refused — used to place the
    /// event on the dashboard's window axis.
    pub fn decision_cycle(&self) -> u64 {
        match *self {
            ShedReason::DeadlineMissed { completion_cycle, .. } => completion_cycle,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ShedReason::DeadlineMissed { completion_cycle, deadline_cycles } => write!(
                f,
                "deadline missed (scheduled completion {completion_cycle} > deadline {deadline_cycles})"
            ),
        }
    }
}

/// Where stage 4 put a job on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    /// Cycle the job starts executing.
    pub start: u64,
    /// Cycle the job completes.
    pub completion: u64,
}

/// The four admission stages with their limits.  See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AdmissionLadder {
    /// Cap on admitted-but-unfinished jobs (`queue_full`).
    pub max_outstanding: u64,
    /// Overload limit on backlog + estimate in cycles (`overloaded`);
    /// `None` disables the stage.
    pub max_backlog_cycles: Option<u64>,
}

impl AdmissionLadder {
    /// Stages 1–3: admits a job offered with `outstanding` unfinished
    /// jobs and `backlog_cycles` of work ahead of it, whose DMA-aware
    /// estimate is `estimate_cycles`.  Returns the projected backlog
    /// (`backlog + estimate`) of an admitted job.
    ///
    /// # Errors
    ///
    /// The first stage that refuses the job, as a [`RejectReason`].
    #[inline]
    pub fn admit(
        &self,
        outstanding: u64,
        backlog_cycles: u64,
        estimate_cycles: u64,
        deadline_cycles: Option<u64>,
    ) -> Result<u64, RejectReason> {
        if outstanding >= self.max_outstanding {
            let capacity = usize::try_from(self.max_outstanding).unwrap_or(usize::MAX);
            return Err(RejectReason::QueueFull { capacity });
        }
        let projected = backlog_cycles.saturating_add(estimate_cycles);
        if let Some(limit) = self.max_backlog_cycles.filter(|&limit| projected > limit) {
            return Err(RejectReason::Overloaded { backlog_cycles: projected, limit_cycles: limit });
        }
        if let Some(deadline) = deadline_cycles.filter(|&deadline| projected > deadline) {
            return Err(RejectReason::DeadlineInfeasible {
                projected_cycles: projected,
                deadline_cycles: deadline,
            });
        }
        Ok(projected)
    }

    /// Stage 4: places a job arriving at `now` with the exact schedule
    /// `cycles` on an array busy until `busy_until`.
    ///
    /// # Errors
    ///
    /// [`ShedReason::DeadlineMissed`] when the completion lands past
    /// `now + deadline_cycles` (saturating, so a deadline near
    /// `u64::MAX` means "never").
    #[inline]
    pub fn place(
        &self,
        now: u64,
        busy_until: u64,
        cycles: u64,
        deadline_cycles: Option<u64>,
    ) -> Result<Placement, ShedReason> {
        let start = busy_until.max(now);
        let completion = start.saturating_add(cycles);
        if let Some(deadline) = deadline_cycles.map(|d| now.saturating_add(d)) {
            if completion > deadline {
                return Err(ShedReason::DeadlineMissed {
                    completion_cycle: completion,
                    deadline_cycles: deadline,
                });
            }
        }
        Ok(Placement { start, completion })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: AdmissionLadder =
        AdmissionLadder { max_outstanding: 4, max_backlog_cycles: Some(1_000) };

    #[test]
    fn outstanding_cap_rejects_at_the_cap() {
        assert_eq!(LADDER.admit(3, 0, 10, None), Ok(10));
        assert_eq!(LADDER.admit(4, 0, 10, None), Err(RejectReason::QueueFull { capacity: 4 }));
    }

    #[test]
    fn backlog_limit_counts_the_estimate() {
        assert_eq!(LADDER.admit(0, 600, 400, None), Ok(1_000));
        assert_eq!(
            LADDER.admit(0, 600, 401, None),
            Err(RejectReason::Overloaded { backlog_cycles: 1_001, limit_cycles: 1_000 })
        );
        // An estimate above the limit is overloaded even on an idle array.
        assert!(matches!(LADDER.admit(0, 0, 1_001, None), Err(RejectReason::Overloaded { .. })));
        let unlimited = AdmissionLadder { max_backlog_cycles: None, ..LADDER };
        assert_eq!(unlimited.admit(0, u64::MAX, 1, None), Ok(u64::MAX));
    }

    #[test]
    fn deadline_estimate_admits_a_projection_on_the_deadline() {
        assert_eq!(LADDER.admit(0, 100, 50, Some(150)), Ok(150));
        assert_eq!(
            LADDER.admit(0, 100, 50, Some(149)),
            Err(RejectReason::DeadlineInfeasible { projected_cycles: 150, deadline_cycles: 149 })
        );
    }

    #[test]
    fn stages_fire_in_ladder_order() {
        // Every stage would refuse: the outstanding cap speaks first,
        // then the backlog limit, then the deadline.
        assert_eq!(LADDER.admit(4, 2_000, 10, Some(0)).unwrap_err().slug(), "queue_full");
        assert_eq!(LADDER.admit(0, 2_000, 10, Some(0)).unwrap_err().slug(), "overloaded");
        assert_eq!(LADDER.admit(0, 20, 10, Some(0)).unwrap_err().slug(), "deadline_infeasible");
        let reasons = [
            RejectReason::QueueFull { capacity: 1 },
            RejectReason::Overloaded { backlog_cycles: 0, limit_cycles: 0 },
            RejectReason::DeadlineInfeasible { projected_cycles: 0, deadline_cycles: 0 },
        ];
        assert_eq!(reasons.map(|r| r.stage()), [0, 1, 2]);
        assert_eq!(reasons.map(|r| r.slug()), ["queue_full", "overloaded", "deadline_infeasible"]);
    }

    #[test]
    fn placement_completes_on_the_deadline_and_sheds_one_past_it() {
        // Arrival at 100 behind work until 130: starts at 130.
        assert_eq!(
            LADDER.place(100, 130, 20, Some(50)),
            Ok(Placement { start: 130, completion: 150 })
        );
        assert_eq!(
            LADDER.place(100, 130, 21, Some(50)),
            Err(ShedReason::DeadlineMissed { completion_cycle: 151, deadline_cycles: 150 })
        );
        // An idle array starts the job on arrival.
        assert_eq!(LADDER.place(100, 0, 5, None), Ok(Placement { start: 100, completion: 105 }));
    }

    #[test]
    fn a_deadline_near_u64_max_never_sheds() {
        assert_eq!(
            LADDER.place(1_000, 2_000, 10, Some(u64::MAX)),
            Ok(Placement { start: 2_000, completion: 2_010 })
        );
        let unlimited = AdmissionLadder { max_backlog_cycles: None, ..LADDER };
        assert_eq!(unlimited.admit(0, 2_000, 10, Some(u64::MAX)), Ok(2_010));
    }
}
