(** Deterministic jittered exponential backoff, shared by every retry
    in the shard harness: unit re-dispatch (supervisor), endpoint
    redials (registry) and self-registering worker redials.

    The delay doubles from 50 ms per attempt up to a 2 s cap and is
    scaled by a jitter in [0.75, 1.25) drawn from a splitmix64
    finalizer of [(key * salt) + attempt] — retries of one key spread
    out, identically on every run of the same history.  Each caller
    keeps its own [salt] so the three schedules stay independent. *)

let delay ~salt ~key ~attempt =
  let frac =
    let open Int64 in
    let z = add (of_int ((key * salt) + attempt)) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = logxor z (shift_right_logical z 31) in
    to_float (logand z 0xFFFFFFL) /. 16_777_216.0
  in
  let exp = 0.05 *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
  min 2.0 exp *. (1.0 +. ((frac -. 0.5) /. 2.0))
