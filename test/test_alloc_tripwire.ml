(* Allocation-regression tripwire: a fixed serial fuzz campaign whose
   total allocation must stay under a checked-in ceiling.  The
   small-rational fast path and the incremental admissibility checker
   cut this campaign's allocation ~17x (5.0 to 0.30 Gwords); reverting
   either puts it far above the ceiling, so `make check` fails loudly
   instead of the regression slipping in silently.

   The ceiling is ~2.5x the measured value (0.91 GB in the reference
   container) — generous against allocator and version noise, but an
   order of magnitude below the ~15 GB the big-integer-only paths
   allocate on the same campaign. *)

let ceiling_bytes = 2_500_000_000.

let suite =
  [
    Alcotest.test_case "20-case campaign stays under allocation ceiling"
      `Slow
      (fun () ->
        let a0 = Gc.allocated_bytes () in
        let outcome = Fuzz.Campaign.run ~shrink:false ~cases:20 ~seed:1 ~jobs:1 () in
        let allocated = Gc.allocated_bytes () -. a0 in
        Alcotest.(check (list (pair string string)))
          "campaign itself is clean" []
          (List.map
             (fun f -> (f.Fuzz.Campaign.fl_oracle, f.Fuzz.Campaign.fl_detail))
             outcome.Fuzz.Campaign.cp_failures);
        if allocated > ceiling_bytes then
          Alcotest.failf
            "fixed campaign allocated %.2f GB, over the %.2f GB tripwire: \
             the small-rational fast path or the incremental checker has \
             regressed"
            (allocated /. 1e9) (ceiling_bytes /. 1e9));
  ]
