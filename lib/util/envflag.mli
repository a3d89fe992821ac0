(** On/off switches read from the environment — the parse rule every
    cross-check gate ([IMPACT_CHECK_LEDGER], [IMPACT_VERIFY_EACH],
    [IMPACT_STORE_CHECK], [IMPACT_SCHED_CHECK], [IMPACT_RANGE_CHECK])
    shares. *)

val enabled : string -> bool
(** [enabled name] is [false] when [name] is unset, empty or ["0"], and
    [true] for any other value.  Read at each call, so a test may flip a
    gate with [Unix.putenv]. *)
