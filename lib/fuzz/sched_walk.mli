(** Session-reuse evaluator for schedule-bearing shrink candidates.

    One recording {!Sim.Session} is kept open on a case's {e box} (its
    processes, faults, workload — everything but the schedule); each
    candidate that differs only in [c_schedule] / a smaller
    [c_max_events] is evaluated by undoing to the divergence point and
    re-delivering the suffix, instead of re-simulating from scratch.
    Oracle verdicts are identical to {!Oracle.evaluate} on the same
    candidate — the shrinker's result cannot change, only its cost
    (O(len) amortized deliveries per pass instead of O(len²)). *)

type t

val create : Gen.case -> t
(** Open a recording session on the case's box.  The case's own
    [c_schedule] is not replayed until the first {!evaluate}.
    @raise Invalid_argument if the case does not {!Gen.validate}. *)

val compatible : t -> Gen.case -> bool
(** Can this candidate reuse the session?  True iff the walker is
    healthy and the candidate differs from the walker's case only in
    [c_schedule] (non-empty) and an equal-or-smaller [c_max_events]. *)

val walk : t -> Gen.case -> Gen.run
(** [walk t cand] positions the session on [cand]'s execution — undo
    to the longest prefix the candidate shares with the previous walk,
    deliver the rest with {!Sim.run_scheduled}'s clamping and FIFO-0
    continuation — and returns the terminal run.  Muted.  Unlike
    {!evaluate} it neither checks {!compatible} (the caller vouches
    that [cand] differs from the walker's box at most in [c_schedule],
    which may be empty, and a no-larger [c_max_events]) nor catches: an
    exception from the simulator escapes, and the walker must not be
    used again. *)

val evaluate : t -> oracles:Oracle.t list -> Gen.case -> (string * Oracle.outcome) list
(** Evaluate the candidate, through the session when {!compatible}
    (muted — walk deliveries are an engine artifact) and through
    {!Oracle.evaluate} otherwise.  If a session walk raises, the
    walker is poisoned (every later call falls back) and the
    candidate is re-evaluated statelessly, which also reproduces the
    crash verdict the fresh run reports. *)
