(* The model checker judges each class once, after the merge, and the
   shrinkers run only their target oracle.  Pinned here against the
   reference twins of ref_oracles.ml:

   - every class verdict of Driver.run equals the whole battery on a
     fresh run of the box under the class's representative schedule,
     on random small boxes (crashes, Byzantine strategies, fault plans,
     the resilience boundary), under both engines and at jobs 1 and 2;
   - jobs 2 yields the jobs-1 outcome and Obs trace digest;
   - the target-only shrinkers return what the full-battery shrinker
     returns on boundary witnesses. *)

open Fuzz

let prop name count arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000)

(* A small async box drawn from the seed: 3 or 4 processes, budget 4-6,
   in one of four shapes — clean or crashing, one Byzantine strategy at
   n = 4, a message-level fault plan, or the n = 3f boundary with an
   equivocator (clock or EIG workload). *)
let random_box seed =
  let rng = Random.State.make [| seed |] in
  let rand k = Random.State.int rng k in
  let pick l = List.nth l (rand (List.length l)) in
  let nprocs = 3 + rand 2 in
  let base =
    {
      Gen.c_seed = 1 + rand 1000;
      c_nprocs = nprocs;
      c_faults = Array.make nprocs Sim.Correct;
      c_xi = Rat.of_ints 2 1;
      c_sched = Gen.S_async { max_delay = Rat.one };
      c_workload = pick [ Gen.W_clock; Gen.W_lockstep; Gen.W_consensus ];
      c_max_events = nprocs + rand (7 - nprocs);
      c_plan = [];
      c_boundary = false;
      c_schedule = [];
    }
  in
  match seed mod 4 with
  | 0 ->
      if nprocs = 4 then base.Gen.c_faults.(3) <- pick [ Sim.Crash 0; Sim.Crash 1; Sim.Crash 2 ];
      base
  | 1 ->
      let faults = Array.make 4 Sim.Correct in
      faults.(rand 4) <- Byz.fault (pick Byz.palette);
      { base with Gen.c_nprocs = 4; c_faults = faults; c_max_events = 4 + rand 3 }
  | 2 -> { base with Gen.c_plan = [ (rand 3, pick [ Sim.P_drop; Sim.P_misdirect 0 ]) ] }
  | _ ->
      let faults = Array.make 3 Sim.Correct in
      faults.(rand 3) <- Byz.fault (pick [ Byz.Equivocator; Byz.Mimic 3 ]);
      {
        base with
        Gen.c_nprocs = 3;
        c_faults = faults;
        c_xi = Rat.of_ints 3 2;
        c_workload = pick [ Gen.W_clock; Gen.W_consensus ];
        c_max_events = 3 + rand 4;
        c_boundary = true;
      }

let without_no_crash = List.filter (fun (name, _) -> name <> "no-crash")

(* The paper's oracles pass on boxes this small, so a synthetic one
   whose verdict varies from class to class puts failures — and the
   violation and shrink path — into the comparison. *)
let odd_oracle =
  {
    Oracle.name = "syn-odd";
    theorem = "test-only: fails when process 0 has an odd number of events";
    check =
      (fun ctx ->
        let k = List.length (Execgraph.Graph.events_of_proc ctx.Oracle.graph 0) in
        if k land 1 = 1 then Oracle.Fail (Printf.sprintf "%d events at p0" k) else Oracle.Pass);
  }

let oracles = Oracle.registry @ [ odd_oracle ]

let print_box seed = Replay.to_string (random_box seed)

let merge_tests =
  [
    prop "every class verdict equals the stateless battery (engines x jobs)" 24 arb_seed
      (fun seed ->
        let box = random_box seed in
        (match Gen.validate box with
        | Ok _ -> ()
        | Error e -> QCheck.Test.fail_reportf "generator made an invalid box %s: %s" (print_box seed) e);
        (* the low two bits pick the shape; the next two the engine and jobs *)
        let engine = if (seed lsr 2) land 1 = 0 then Mc.Explore.Incremental else Mc.Explore.Replay in
        let jobs = 1 + ((seed lsr 3) land 1) in
        let o = Mc.Driver.run ~oracles ~engine ~jobs box in
        let twin = List.map (Ref_oracles.class_verdicts ~oracles box) o.Mc.Driver.mc_classes in
        List.for_all2
          (fun (cl : Mc.Explore.class_rec) want ->
            without_no_crash cl.Mc.Explore.cl_results = without_no_crash want
            || QCheck.Test.fail_reportf "box %s, class %s: verdicts differ from the twin"
                 (print_box seed) cl.Mc.Explore.cl_key)
          o.Mc.Driver.mc_classes twin
        && List.length o.Mc.Driver.mc_violations
           = List.length (List.concat_map Oracle.failures twin));
    prop "jobs 2 gives the jobs-1 outcome and trace digest" 12 arb_seed (fun seed ->
        let box = random_box seed in
        let run jobs = Obs.capture (fun () -> Mc.Driver.run ~oracles ~jobs box) in
        let o1, t1 = run 1 and o2, t2 = run 2 in
        (o1 = o2 && Obs.digest t1 = Obs.digest t2)
        || QCheck.Test.fail_reportf "box %s: jobs 2 diverges from jobs 1" (print_box seed));
  ]

(* An mc counterexample line of the boundary box (precision and
   agreement both fail on it). *)
let witness_line =
  "abc1;s=1;n=3;f=C,C,Beq;xi=3/2;w=clock;d=async:1;e=20;b=1;sch=0.0.0.6.0.2.5.1.6.2.6.4.6.7.8.8.9.10.10.11"

let shrink_tests =
  [
    prop "target-only shrinking = full-battery shrinking (boundary witnesses)" 10 arb_seed
      (fun seed ->
        let case = Gen.generate_boundary ~seed in
        List.for_all
          (fun (oracle, _) ->
            let a = Shrink.shrink ~oracles:Oracle.registry ~oracle case in
            let b = Ref_oracles.shrink ~oracles:Oracle.registry ~oracle case in
            (Replay.to_string a.Shrink.shrunk = Replay.to_string b.Shrink.shrunk
            && a.Shrink.steps = b.Shrink.steps
            && a.Shrink.evaluations = b.Shrink.evaluations)
            || QCheck.Test.fail_reportf "%s on %s: %s (%d steps, %d evals) vs twin %s (%d, %d)"
                 oracle (Replay.to_string case)
                 (Replay.to_string a.Shrink.shrunk)
                 a.Shrink.steps a.Shrink.evaluations
                 (Replay.to_string b.Shrink.shrunk)
                 b.Shrink.steps b.Shrink.evaluations)
          (Oracle.failures (Oracle.evaluate Oracle.registry case)));
    Alcotest.test_case "mc still_fails agrees with the full battery on a witness's prefixes"
      `Quick (fun () ->
        match Replay.of_string witness_line with
        | Error e -> Alcotest.failf "witness rejected: %s" e
        | Ok c ->
            let sch = c.Gen.c_schedule in
            List.iteri
              (fun k _ ->
                let c = { c with Gen.c_schedule = List.filteri (fun i _ -> i <= k) sch } in
                List.iter
                  (fun oracle ->
                    let got = Mc.Mc_shrink.still_fails ~oracles:Oracle.registry ~oracle c in
                    let want = Ref_oracles.still_fails ~oracles:Oracle.registry ~oracle c in
                    if got <> want then
                      Alcotest.failf "%s on %s: %b vs full battery %b" oracle
                        (Replay.to_string c) got want)
                  (Oracle.oracle_names Oracle.registry))
              sch);
  ]

let suite = merge_tests @ shrink_tests
