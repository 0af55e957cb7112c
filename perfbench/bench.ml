(* The repository benchmark: one workload of ABC campaigns per run,
   through the public library APIs, with every report checked against
   its reference.

   Usage (normally through perfbench/run.py, which builds this binary):

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--expect-digest HEX] [--alter-reference] [--tiny]
               [--spans FILE]
     bench.exe --pin --seed N       (print the report digests of seed N)

   With [--trace 0] the workload is repeated, untraced, until [S]
   seconds have been measured, and the end-to-end metrics are printed.
   With [--trace 1] each repetition runs an untraced twin and a traced
   decomposition of the same work: spans are recorded around the calls
   this file makes into each layer (generation, simulation, every
   registry oracle, shrinking, the mc driver phases, dist codec and
   merge), kept in memory, and written to [--spans] at the end with a
   per-(layer, name) self-time table.

   The last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  An operation is one fuzz case
   or one mc equivalence class; it fails when it crashed, when a theorem
   oracle failed that the workload does not expect to fail, or when the
   report it belongs to differs from the reference.  Any failure makes
   the exit code 1. *)

let now = Mclock.now

(* ------------------------------------------------------------------ *)
(* Growable arrays *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 256 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let length v = v.n
  let to_list v = List.init v.n (fun i -> v.a.(i))
end

(* ------------------------------------------------------------------ *)
(* In-memory span recorder *)

module Trace = struct
  let enabled = ref false

  type agg = {
    layer : string;
    name : string;
    mutable calls : int;
    mutable busy : float;
    mutable self : float;
  }

  type span = {
    key : int;
    id : int;
    parent : int;  (** index of the enclosing kept span, -1 for none *)
    start : float;
    mutable stop : float;
  }

  (* an open span: its kept index (-1 once the kept set is full), its
     aggregate, and the time its children covered so far *)
  type frame = { f_idx : int; f_key : int; f_start : float; mutable f_child : float }

  let max_kept = 250_000
  let keys : (string * string, int) Hashtbl.t = Hashtbl.create 64
  let aggs : agg Vec.t = Vec.create { layer = ""; name = ""; calls = 0; busy = 0.; self = 0. }
  let spans : span Vec.t = Vec.create { key = 0; id = 0; parent = -1; start = 0.; stop = 0. }
  let dropped = ref 0
  let stack : frame list ref = ref []
  let roots = ref 0.0  (* wall covered by outermost spans *)
  let last = ref 0.0  (* duration of the span closed last *)
  let origin = ref 0.0

  (** Shared identifier stamped on every span: the case index, mc task
      index or dist unit id being worked on. *)
  let id = ref 0

  let counters : (string, float ref) Hashtbl.t = Hashtbl.create 64

  let add name v =
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add counters name (ref v)

  let counter name = match Hashtbl.find_opt counters name with Some r -> !r | None -> 0.0

  let key layer name =
    match Hashtbl.find_opt keys (layer, name) with
    | Some k -> k
    | None ->
        let k = Vec.length aggs in
        Vec.push aggs { layer; name; calls = 0; busy = 0.; self = 0. };
        Hashtbl.add keys (layer, name) k;
        k

  let close fr t =
    let d = t -. fr.f_start in
    let ag = Vec.get aggs fr.f_key in
    ag.calls <- ag.calls + 1;
    ag.busy <- ag.busy +. d;
    ag.self <- ag.self +. (d -. fr.f_child);
    (match !stack with
    | _ :: (parent :: _ as rest) ->
        parent.f_child <- parent.f_child +. d;
        stack := rest
    | _ ->
        roots := !roots +. d;
        stack := []);
    if fr.f_idx >= 0 then (Vec.get spans fr.f_idx).stop <- t;
    last := d

  let span layer name f =
    if not !enabled then f ()
    else begin
      let k = key layer name in
      let parent = match !stack with fr :: _ -> fr.f_idx | [] -> -1 in
      let t0 = now () in
      let idx =
        if Vec.length spans < max_kept then begin
          Vec.push spans { key = k; id = !id; parent; start = t0; stop = t0 };
          Vec.length spans - 1
        end
        else begin
          incr dropped;
          -1
        end
      in
      let fr = { f_idx = idx; f_key = k; f_start = t0; f_child = 0.0 } in
      stack := fr :: !stack;
      match f () with
      | v ->
          close fr (now ());
          v
      | exception e ->
          close fr (now ());
          raise e
    end

  let agg layer name =
    match Hashtbl.find_opt keys (layer, name) with
    | Some k -> Vec.get aggs k
    | None -> { layer; name; calls = 0; busy = 0.; self = 0. }

  let by_self () =
    List.sort (fun a b -> compare b.self a.self) (Vec.to_list aggs)

  let write_file path ~meta =
    let oc = open_out path in
    Printf.fprintf oc "{\"kind\":\"meta\",%s,\"spans_kept\":%d,\"spans_dropped\":%d}\n" meta
      (Vec.length spans) !dropped;
    for i = 0 to Vec.length spans - 1 do
      let s = Vec.get spans i in
      let ag = Vec.get aggs s.key in
      Printf.fprintf oc
        "{\"kind\":\"span\",\"i\":%d,\"layer\":%S,\"name\":%S,\"id\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        i ag.layer ag.name s.id s.parent (s.start -. !origin) (s.stop -. !origin)
    done;
    List.iter
      (fun a ->
        Printf.fprintf oc
          "{\"kind\":\"self\",\"layer\":%S,\"name\":%S,\"calls\":%d,\"busy_s\":%.9f,\"self_s\":%.9f}\n"
          a.layer a.name a.calls a.busy a.self)
      (by_self ());
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Oracles whose checks are timed *)

(* Where an oracle call happens, for the shrink and mc attributions. *)
let shrink_target : string option ref = ref None
let in_explore = ref false

let timed_oracle (o : Fuzz.Oracle.t) : Fuzz.Oracle.t =
  let applied = "oracle." ^ o.Fuzz.Oracle.name ^ ".applied" in
  let account (r : Fuzz.Oracle.outcome) =
    let d = !Trace.last in
    (match r with
    | Fuzz.Oracle.Pass | Fuzz.Oracle.Fail _ -> Trace.add applied 1.0
    | Fuzz.Oracle.Skip _ -> ());
    (match !shrink_target with
    | Some t ->
        Trace.add "shrink.oracle_s" d;
        if t = o.Fuzz.Oracle.name then Trace.add "shrink.target_s" d
    | None -> ());
    if !in_explore then Trace.add "mc.explore.oracle_s" d
  in
  {
    o with
    Fuzz.Oracle.check =
      (fun ctx ->
        match Trace.span "oracle" o.Fuzz.Oracle.name (fun () -> o.Fuzz.Oracle.check ctx) with
        | r ->
            account r;
            r
        | exception e ->
            account (Fuzz.Oracle.Fail "");
            raise e);
  }

let registry = Fuzz.Oracle.registry
let timed_registry = List.map timed_oracle registry
let oracles_for ~traced = if traced then timed_registry else registry

(* ------------------------------------------------------------------ *)
(* Workload inputs *)

let default_seed = 1
let z1_cases ~tiny = if tiny then 3 else 100
let boundary_cases ~tiny = if tiny then 20 else 400
let shards = 2

(* fuzz-z1: the case shapes of the default Z1 campaign (processes,
   faults, Ξ, scheduler, workload, budget, fault plan), each with its
   execution seed drawn from the benchmark seed.  At the base seed the
   cases are exactly those of [Campaign.run ~seed:1]. *)
let z1_case ~seed i =
  let c = Fuzz.Gen.generate ~seed:(Fuzz.Campaign.case_seed ~seed:default_seed i) in
  if seed = default_seed then c
  else
    {
      c with
      Fuzz.Gen.c_seed =
        1 + (Fuzz.Campaign.case_seed ~seed:(seed lxor 0x5EED5EED) i land 0x3FFFFFFE);
    }

(* The smallest fuzz-z1 input on which its two dominant oracles,
   precision-cuts and delay-assignment, apply: the plan-free Θ-clock
   shape with the lowest event budget.  Its set-up probe. *)
let z1_setup_case =
  lazy
    (let best = ref 0 and budget = ref max_int in
     for i = 0 to z1_cases ~tiny:false - 1 do
       let c = z1_case ~seed:default_seed i in
       match (c.Fuzz.Gen.c_sched, c.Fuzz.Gen.c_workload) with
       | Fuzz.Gen.S_theta _, Fuzz.Gen.W_clock
         when c.Fuzz.Gen.c_plan = [] && c.Fuzz.Gen.c_max_events < !budget ->
           best := i;
           budget := c.Fuzz.Gen.c_max_events
       | _ -> ()
     done;
     !best)

let boundary_case ~seed i =
  Fuzz.Gen.generate_boundary ~seed:(Fuzz.Campaign.case_seed ~seed i)

(* fuzz-boundary and fuzz-sharded: the first boundary campaign among
   seeds [seed], [seed + stride], … that draws exactly as many clock
   (Thm 2 witness) cases as the default campaign, the rest being EIG
   cases.  The two kinds cost differently, so a fixed mix keeps the
   work of every seed alike. *)
let boundary_seed =
  let memo = Hashtbl.create 4 in
  fun ~tiny seed ->
    let cases = boundary_cases ~tiny in
    let clock s =
      let n = ref 0 in
      for i = 0 to cases - 1 do
        if (boundary_case ~seed:s i).Fuzz.Gen.c_workload = Fuzz.Gen.W_clock then incr n
      done;
      !n
    in
    match Hashtbl.find_opt memo (tiny, seed) with
    | Some s -> s
    | None ->
        let target = clock default_seed in
        let rec go s = if clock s = target then s else go (s + 1_000_003) in
        let s = go seed in
        Hashtbl.add memo (tiny, seed) s;
        s

(* mc-clock: the search is exhaustive, so the seed only names the box
   ([s=]); every seed explores the same classes. *)
let mc_box ~tiny ~seed =
  let line =
    Printf.sprintf "abc1;s=%d;n=3;f=C,C,C;xi=2;w=clock;d=async:1;e=%d" seed
      (if tiny then 6 else 9)
  in
  match Fuzz.Replay.of_string line with
  | Ok c -> c
  | Error e -> failwith ("mc box " ^ line ^ ": " ^ e)

let mc_frontier = 2

(* ------------------------------------------------------------------ *)
(* Fuzz cases, whole or decomposed by layer *)

let expected_boundary_failure name =
  name = "boundary-precision" || name = "boundary-agreement"

(* Unexpected failing oracles of one case's verdicts. *)
let unexpected ~boundary results =
  List.exists
    (fun (name, o) ->
      match o with
      | Fuzz.Oracle.Fail _ -> not (boundary && expected_boundary_failure name)
      | _ -> false)
    results

let shrink_case ~oracles ~oracle case =
  shrink_target := Some oracle;
  let r =
    Fun.protect
      ~finally:(fun () -> shrink_target := None)
      (fun () ->
        Trace.span "shrink" "shrink" (fun () -> Fuzz.Shrink.shrink ~oracles ~oracle case))
  in
  if !Trace.enabled then begin
    Trace.add "shrink.evaluations" (float_of_int r.Fuzz.Shrink.evaluations);
    Trace.add "shrink.steps" (float_of_int r.Fuzz.Shrink.steps)
  end;
  r

(* [Campaign.eval_case] on a case built by [gen]: untraced, the same
   calls it makes; traced, split into generation, simulation, the
   evaluation context (graph plus the admissibility decision several
   oracles share), one span per oracle, and shrinking. *)
let eval_case ~traced ~gen i : Fuzz.Campaign.case_eval =
  let oracles = oracles_for ~traced in
  Trace.id := i;
  let case = Trace.span "gen" "generate" (fun () -> gen i) in
  let results =
    if not traced then Fuzz.Oracle.evaluate oracles case
    else
      match Trace.span "sim" "run_case" (fun () -> Fuzz.Gen.run_case case) with
      | exception e -> [ ("no-crash", Fuzz.Oracle.Fail (Printexc.to_string e)) ]
      | run ->
          Trace.add "sim.events" (float_of_int (Fuzz.Gen.delivered_of_run run));
          let ctx =
            Trace.span "oracle" "ctx" (fun () ->
                let ctx = Fuzz.Oracle.make_ctx case run in
                (try ignore (Lazy.force ctx.Fuzz.Oracle.adm) with _ -> ());
                ctx)
          in
          ("no-crash", Fuzz.Oracle.Pass)
          :: List.map
               (fun (o : Fuzz.Oracle.t) ->
                 ( o.Fuzz.Oracle.name,
                   try o.Fuzz.Oracle.check ctx with e -> Fuzz.Oracle.Fail (Printexc.to_string e)
                 ))
               oracles
  in
  let failures =
    List.map
      (fun (fl_oracle, fl_detail) ->
        {
          Fuzz.Campaign.fl_oracle;
          fl_detail;
          fl_case = case;
          fl_shrunk = Some (shrink_case ~oracles ~oracle:fl_oracle case);
        })
      (Fuzz.Oracle.failures results)
  in
  { Fuzz.Campaign.ce_case = case; ce_results = results; ce_failures = failures }

(* ------------------------------------------------------------------ *)
(* One repetition of a workload *)

type rep = {
  r_wall : float;
  r_items : int;  (** cases, or mc classes *)
  r_ops : int;  (** operations attempted *)
  r_bad : int;  (** operations that crashed or failed unexpectedly *)
  r_task_s : float array;  (** per-case / per-frontier-task wall *)
  r_report : string;
}

(* Cases of a merged outcome with an unexpected failure. *)
let count_bad_outcome ~boundary (o : Fuzz.Campaign.outcome) =
  List.filter
    (fun (f : Fuzz.Campaign.failure) ->
      not (boundary && expected_boundary_failure f.Fuzz.Campaign.fl_oracle))
    o.Fuzz.Campaign.cp_failures
  |> List.map (fun (f : Fuzz.Campaign.failure) -> Fuzz.Replay.to_string f.Fuzz.Campaign.fl_case)
  |> List.sort_uniq compare |> List.length

let fuzz_rep_of_outcome ~boundary ~wall (o : Fuzz.Campaign.outcome) =
  {
    r_wall = wall;
    r_items = o.Fuzz.Campaign.cp_cases_run;
    r_ops = o.Fuzz.Campaign.cp_cases_run;
    r_bad = count_bad_outcome ~boundary o;
    r_task_s = o.Fuzz.Campaign.cp_cost.Fuzz.Campaign.ct_case_wall;
    r_report = Fuzz.Report.render o;
  }

(* A campaign evaluated case by case with [eval_case], folded by
   [Campaign.merge_evals]. *)
let decomposed_campaign ~traced ~boundary ~seed ~cases ~gen =
  let t0 = now () in
  let walls = Array.make cases 0.0 in
  let evals =
    Array.init cases (fun i ->
        let c0 = now () in
        let ce = eval_case ~traced ~gen i in
        walls.(i) <- now () -. c0;
        ce)
  in
  let cost =
    {
      Fuzz.Campaign.ct_jobs = 1;
      ct_wall = now () -. t0;
      ct_case_wall = walls;
      ct_case_alloc = Array.make cases 0.0;
    }
  in
  let o =
    Fuzz.Campaign.merge_evals ~oracles:registry ~seed ~cases ~boundary ~cost evals
  in
  fuzz_rep_of_outcome ~boundary ~wall:(now () -. t0) o

let z1_rep ~traced ~tiny ~seed =
  decomposed_campaign ~traced ~boundary:false ~seed ~cases:(z1_cases ~tiny) ~gen:(z1_case ~seed)

let boundary_rep ~traced ~tiny ~seed =
  let cases = boundary_cases ~tiny and seed = boundary_seed ~tiny seed in
  if traced then decomposed_campaign ~traced ~boundary:true ~seed ~cases ~gen:(boundary_case ~seed)
  else begin
    let t0 = now () in
    let o = Fuzz.Campaign.run ~boundary:true ~jobs:1 ~cases ~seed () in
    fuzz_rep_of_outcome ~boundary:true ~wall:(now () -. t0) o
  end

let mc_rep_of_outcome ~wall ~task_s (o : Mc.Driver.outcome) =
  let classes = List.length o.Mc.Driver.mc_classes in
  let bad =
    List.length
      (List.filter
         (fun (cl : Mc.Explore.class_rec) -> unexpected ~boundary:false cl.Mc.Explore.cl_results)
         o.Mc.Driver.mc_classes)
  in
  {
    r_wall = wall;
    r_items = classes;
    r_ops = classes;
    r_bad = bad;
    r_task_s = task_s;
    r_report = Mc.Mc_report.render ~stats:true o;
  }

(* [Mc.Driver.run ~jobs:1]'s phases in its order, timing each task. *)
let mc_phases ~traced ~tiny ~seed =
  let case = mc_box ~tiny ~seed in
  let oracles = oracles_for ~traced in
  let t0 = now () in
  let tasks =
    Trace.span "mc" "frontier" (fun () -> Mc.Driver.frontier_tasks ~frontier:mc_frontier case)
  in
  let task_s = Array.make (Array.length tasks) 0.0 in
  let subtrees =
    Array.init (Array.length tasks) (fun i ->
        Trace.id := i;
        let c0 = now () in
        in_explore := true;
        let sb =
          Fun.protect
            ~finally:(fun () -> in_explore := false)
            (fun () ->
              Trace.span "mc" "explore" (fun () ->
                  Mc.Driver.explore_task ~oracles ~dpor:true ~engine:Mc.Explore.Incremental
                    ~tt:true ~case ~tasks i))
        in
        task_s.(i) <- now () -. c0;
        sb)
  in
  let o =
    Trace.span "mc" "merge" (fun () ->
        Mc.Driver.merge_tasks ~oracles ~dpor:true ~engine:Mc.Explore.Incremental
          ~frontier:mc_frontier ~case subtrees)
  in
  let wall = now () -. t0 in
  if traced then begin
    Trace.add "mc.executions" (float_of_int o.Mc.Driver.mc_executions);
    Trace.add "mc.deliveries" (float_of_int o.Mc.Driver.mc_deliveries);
    Trace.add "mc.classes" (float_of_int (List.length o.Mc.Driver.mc_classes));
    Trace.add "sim.events" (float_of_int o.Mc.Driver.mc_deliveries)
  end;
  mc_rep_of_outcome ~wall ~task_s o

let mc_front_door ~tiny ~seed =
  let t0 = now () in
  let o = Mc.Driver.run ~jobs:1 (mc_box ~tiny ~seed) in
  mc_rep_of_outcome ~wall:(now () -. t0) ~task_s:[||] o

let dist_config () = Dist.Supervisor.make_config ~shards ()

let sharded_rep ~tiny ~seed =
  let seed = boundary_seed ~tiny seed in
  let t0 = now () in
  let o =
    Dist.Supervisor.run_fuzz ~quiet:true (dist_config ()) ~seed ~cases:(boundary_cases ~tiny)
      ~boundary:true ~shrink:true ~oracles:None ()
  in
  fuzz_rep_of_outcome ~boundary:true ~wall:(now () -. t0) o

let sharded_spec ~tiny ~seed =
  Dist.Work.W_fuzz
    {
      wf_seed = boundary_seed ~tiny seed;
      wf_cases = boundary_cases ~tiny;
      wf_boundary = true;
      wf_shrink = true;
      wf_oracles = None;
    }

(* The supervised run's work, unit by unit in this process: execute
   (as a worker does, with its Obs digest capture), encode the blob and
   its frame, parse the frame back, decode and re-checksum, then merge
   in unit order. *)
let sharded_units ~tiny ~seed =
  let spec = sharded_spec ~tiny ~seed in
  let t0 = now () in
  let codec k (blob : Dist.Work.blob) =
    let bytes = Dist.Work.encode_blob blob in
    let frame = Dist.Frame.encode (Dist.Frame.M_done { unit_id = k; blob = bytes }) in
    if !Trace.enabled then Trace.add "dist.blob_bytes" (float_of_int (String.length bytes));
    let p = Dist.Frame.parser_create () in
    Dist.Frame.feed p (Bytes.unsafe_of_string frame) (String.length frame);
    match Dist.Frame.next p with
    | Ok (Some (Dist.Frame.M_done { unit_id; blob })) when unit_id = k -> (
        match Dist.Work.decode_blob blob with
        | Error e -> failwith e
        | Ok b -> (
            match Dist.Work.payload_checksum spec b.Dist.Work.b_payload with
            | Ok c when c = b.Dist.Work.b_checksum -> b
            | _ -> failwith "payload checksum mismatch"))
    | _ -> failwith "frame round trip failed"
  in
  let blobs =
    Array.mapi
      (fun k (lo, hi) ->
        Trace.id := k;
        let blob =
          Trace.span "dist" "exec_unit" (fun () ->
              Dist.Work.exec_unit spec ~unit_id:k ~lo ~hi ~capture:true)
        in
        Trace.span "dist" "codec" (fun () -> codec k blob))
      (Dist.Work.units spec)
  in
  let o =
    Trace.span "dist" "merge" (fun () ->
        Dist.Work.merge_fuzz spec ~cost_wall:(now () -. t0) ~shards
          (Array.map (fun b -> b.Dist.Work.b_payload) blobs))
  in
  fuzz_rep_of_outcome ~boundary:true ~wall:(now () -. t0) o

(* ------------------------------------------------------------------ *)
(* Set-up: the workload at its smallest input *)

(* One case, or one frontier task.  The fuzz probes take a case of the
   default seed whatever the seed, so that set-up does not depend on
   what a seed draws: boundary cases come in two kinds of different
   cost, and a z1 case's cost moves with its execution.  A probe of a
   few milliseconds reads differently from one process to the next, so
   the fuzz-z1 probe is {!z1_setup_case}, not the (83-event) first
   case. *)

let setup_once workload ~tiny ~seed =
  let t0 = now () in
  (match workload with
  | "fuzz-z1" ->
      ignore
        (eval_case ~traced:false ~gen:(z1_case ~seed:default_seed) (Lazy.force z1_setup_case))
  | "fuzz-boundary" ->
      ignore (Fuzz.Campaign.run ~boundary:true ~jobs:1 ~cases:1 ~seed:default_seed ())
  | "mc-clock" ->
      let case = mc_box ~tiny ~seed in
      let tasks = Mc.Driver.frontier_tasks ~frontier:mc_frontier case in
      let sb =
        Mc.Driver.explore_task ~oracles:registry ~dpor:true ~engine:Mc.Explore.Incremental
          ~tt:true ~case ~tasks 0
      in
      ignore
        (Mc.Driver.merge_tasks ~oracles:registry ~dpor:true ~engine:Mc.Explore.Incremental
           ~frontier:mc_frontier ~case [| sb |])
  | "fuzz-sharded" ->
      ignore
        (Dist.Supervisor.run_fuzz ~quiet:true (dist_config ()) ~seed:default_seed ~cases:1
           ~boundary:true ~shrink:true ~oracles:None ())
  | w -> failwith ("unknown workload " ^ w));
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Statistics and output *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b > 0.0 then a /. b else 0.0

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

(* ------------------------------------------------------------------ *)
(* Reference checking *)

type checker = {
  mutable reference : string option;  (** digest every report must have *)
  alter : bool;
  mutable attempted : int;
  mutable failed : int;
}

let digest s = Digest.to_hex (Digest.string s)

(* Count a repetition's operations, and fail all of them when its
   report differs from the reference.  Without a pinned reference the
   first report checked becomes it ([--alter-reference] perturbs it, so
   every later comparison — and that first one — must fail). *)
let check ck what (r : rep) =
  let ref_digest =
    match ck.reference with
    | Some d -> d
    | None ->
        let d = digest (if ck.alter then r.r_report ^ "#altered" else r.r_report) in
        ck.reference <- Some d;
        d
  in
  ck.attempted <- ck.attempted + r.r_ops;
  if digest r.r_report <> ref_digest then begin
    Printf.eprintf "perfbench: %s report differs from the reference (%s vs %s)\n%!" what
      (digest r.r_report) ref_digest;
    ck.failed <- ck.failed + r.r_ops
  end
  else ck.failed <- ck.failed + r.r_bad

(* ------------------------------------------------------------------ *)
(* The two kinds of run *)

let timed_rep workload ~tiny ~seed =
  match workload with
  | "fuzz-z1" -> z1_rep ~traced:false ~tiny ~seed
  | "fuzz-boundary" -> boundary_rep ~traced:false ~tiny ~seed
  | "mc-clock" -> mc_phases ~traced:false ~tiny ~seed
  | "fuzz-sharded" -> sharded_rep ~tiny ~seed
  | w -> failwith ("unknown workload " ^ w)

let run_timed workload ~tiny ~seed ~seconds ck =
  let reps = ref [] and heap_mb = ref 0.0 in
  let t0 = now () in
  while !reps = [] || now () -. t0 < seconds do
    (* every repetition starts from a compacted heap *)
    Gc.compact ();
    reps := timed_rep workload ~tiny ~seed :: !reps;
    (* the peak of the first repetition: how many more fit in the run
       must not move it *)
    if !heap_mb = 0.0 then
      heap_mb := float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  done;
  let reps = Array.of_list (List.rev !reps) in
  (* set-up is timed on a warm process: a few-ms probe timed first thing
     after start-up mostly measures how cold the machine was *)
  Gc.compact ();
  let setups = Array.init 9 (fun _ -> setup_once workload ~tiny ~seed) in
  Array.iteri (fun i r -> check ck (Printf.sprintf "repetition %d" i) r) reps;
  if workload = "fuzz-sharded" then begin
    (* the in-process campaign the sharded one must reproduce *)
    let t0 = now () in
    let o =
      Fuzz.Campaign.run ~boundary:true ~jobs:2 ~cases:(boundary_cases ~tiny)
        ~seed:(boundary_seed ~tiny seed) ()
    in
    let r = fuzz_rep_of_outcome ~boundary:true ~wall:(now () -. t0) o in
    check ck "in-process reference" { r with r_ops = 0; r_bad = 0 }
  end;
  let throughput = Array.map (fun r -> float_of_int r.r_items /. r.r_wall) reps in
  (* every repetition runs the same tasks: each task's median wall over
     the repetitions, in ms *)
  let tasks_ms =
    Array.mapi
      (fun i _ -> 1000.0 *. median (Array.map (fun r -> r.r_task_s.(i)) reps))
      reps.(0).r_task_s
  in
  Printf.eprintf "perfbench: %s seed %d: %d repetitions (%s s) of %d tasks, %d set-up runs\n%!"
    workload seed (Array.length reps)
    (String.concat " " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.3f" r.r_wall) reps)))
    (Array.length tasks_ms) (Array.length setups);
  [
    ("items_per_s", median throughput, "1/s");
    ("task_ms_p50", percentile tasks_ms 0.5, "ms");
    ("task_ms_p90", percentile tasks_ms 0.9, "ms");
    ("setup_s", median setups, "s");
    ("heap_peak_mb", !heap_mb, "MB");
  ]

(* One untraced twin and one traced decomposition per repetition. *)
let traced_pair workload ~tiny ~seed ck =
  let twin, traced =
    match workload with
    | "fuzz-z1" -> ((fun () -> z1_rep ~traced:false ~tiny ~seed), fun () -> z1_rep ~traced:true ~tiny ~seed)
    | "fuzz-boundary" ->
        ((fun () -> boundary_rep ~traced:false ~tiny ~seed), fun () -> boundary_rep ~traced:true ~tiny ~seed)
    | "mc-clock" -> ((fun () -> mc_front_door ~tiny ~seed), fun () -> mc_phases ~traced:true ~tiny ~seed)
    | "fuzz-sharded" ->
        let supervised = sharded_rep ~tiny ~seed in
        check ck "supervised twin" supervised;
        Trace.add "dist.supervised_s" supervised.r_wall;
        ((fun () -> sharded_units ~tiny ~seed), fun () -> sharded_units ~tiny ~seed)
    | w -> failwith ("unknown workload " ^ w)
  in
  let u = twin () in
  check ck "untraced twin" u;
  Trace.enabled := true;
  let t =
    Fun.protect ~finally:(fun () -> Trace.enabled := false) (fun () -> traced ())
  in
  check ck "traced run" t;
  (u.r_wall, t.r_wall)

let run_traced workload ~tiny ~seed ~seconds ~spans_out ck =
  Trace.origin := now ();
  let pairs = ref [] in
  let t0 = now () in
  while !pairs = [] || now () -. t0 < seconds do
    pairs := traced_pair workload ~tiny ~seed ck :: !pairs
  done;
  let n = float_of_int (List.length !pairs) in
  let untraced = List.fold_left (fun a (u, _) -> a +. u) 0.0 !pairs in
  let traced = List.fold_left (fun a (_, t) -> a +. t) 0.0 !pairs in
  let per_rep v = v /. n in
  let busy layer name = per_rep (Trace.agg layer name).Trace.busy in
  let calls layer name = per_rep (float_of_int (Trace.agg layer name).Trace.calls) in
  let counter name = per_rep (Trace.counter name) in
  let oracle_metrics =
    List.concat_map
      (fun (o : Fuzz.Oracle.t) ->
        let name = o.Fuzz.Oracle.name in
        let base =
          [
            ("oracle." ^ name ^ ".busy_s", busy "oracle" name, "s");
            ("oracle." ^ name ^ ".calls", calls "oracle" name, "count");
          ]
        in
        if name = "precision-cuts" || name = "delay-assignment" then
          base
          @ [
              ( "oracle." ^ name ^ ".applied_ratio",
                ratio (counter ("oracle." ^ name ^ ".applied")) (calls "oracle" name),
                "ratio" );
            ]
        else base)
      registry
  in
  let sim_busy = busy "sim" "run_case" in
  let oracle_calls_mc =
    (* every oracle call in an mc run comes from a battery *)
    List.fold_left (fun a (o : Fuzz.Oracle.t) -> a +. calls "oracle" o.Fuzz.Oracle.name) 0.0 registry
  in
  let classes = counter "mc.classes" in
  let unit_execs =
    (* per-unit exec times are the exec_unit spans of the first pair *)
    List.filter_map
      (fun (s : Trace.span) ->
        let a = Vec.get Trace.aggs s.Trace.key in
        if a.Trace.layer = "dist" && a.Trace.name = "exec_unit" then Some (s.Trace.stop -. s.Trace.start)
        else None)
      (Vec.to_list Trace.spans)
    |> Array.of_list
  in
  let units = Array.length unit_execs in
  let exec_max = Array.fold_left Float.max 0.0 unit_execs in
  let exec_mean = if units = 0 then 0.0 else Array.fold_left ( +. ) 0.0 unit_execs /. float_of_int units in
  let explore = busy "mc" "explore" in
  let metrics =
    [
      ("gen.busy_s", busy "gen" "generate", "s");
      ("gen.calls", calls "gen" "generate", "count");
      ("sim.busy_s", sim_busy, "s");
      ("sim.events", counter "sim.events", "count");
      ("sim.events_per_s", ratio (counter "sim.events") sim_busy, "1/s");
      ("oracle.ctx.busy_s", busy "oracle" "ctx", "s");
    ]
    @ oracle_metrics
    @ [
        ("shrink.busy_s", busy "shrink" "shrink", "s");
        ("shrink.evaluations", counter "shrink.evaluations", "count");
        ("shrink.steps", counter "shrink.steps", "count");
        ("shrink.useful_ratio", ratio (counter "shrink.steps") (counter "shrink.evaluations"), "ratio");
        ( "shrink.target_oracle_share",
          ratio (counter "shrink.target_s") (counter "shrink.oracle_s"),
          "ratio" );
        ("mc.frontier.busy_s", busy "mc" "frontier", "s");
        ("mc.explore.busy_s", explore, "s");
        ("mc.explore.self_s", explore -. counter "mc.explore.oracle_s", "s");
        ("mc.merge.busy_s", busy "mc" "merge", "s");
        ("mc.executions", counter "mc.executions", "count");
        ("mc.classes", classes, "count");
        ("mc.deliveries_per_exec", ratio (counter "mc.deliveries") (counter "mc.executions"), "ratio");
        ( "mc.oracle_evals_per_class",
          (if classes > 0.0 then ratio oracle_calls_mc (float_of_int (List.length registry) *. classes)
           else 0.0),
          "ratio" );
        ("dist.units", calls "dist" "exec_unit", "count");
        ("dist.unit_exec_s_max", exec_max, "s");
        ("dist.blob_bytes", counter "dist.blob_bytes", "bytes");
        ("dist.codec_s", busy "dist" "codec", "s");
        ("dist.merge_s", busy "dist" "merge", "s");
        ("dist.imbalance", ratio exec_max exec_mean, "ratio");
        ( "dist.parallel_efficiency",
          ratio (busy "dist" "exec_unit") (float_of_int shards *. counter "dist.supervised_s"),
          "ratio" );
        ("other.self_s", per_rep (traced -. !Trace.roots), "s");
        ("trace.overhead_pct", 100.0 *. ratio (traced -. untraced) untraced, "%");
      ]
  in
  Printf.eprintf "perfbench: %s seed %d: %.0f traced repetitions; self time by layer:\n" workload
    seed n;
  List.iter
    (fun a ->
      Printf.eprintf "  %-8s %-22s %9d calls %10.4f s busy %10.4f s self\n" a.Trace.layer
        a.Trace.name a.Trace.calls a.Trace.busy a.Trace.self)
    (Trace.by_self ());
  (match spans_out with
  | None -> ()
  | Some path ->
      Trace.write_file path
        ~meta:(Printf.sprintf "\"workload\":%S,\"seed\":%d,\"traced_repetitions\":%.0f" workload seed n);
      Printf.eprintf "perfbench: spans written to %s\n%!" path);
  metrics

(* ------------------------------------------------------------------ *)
(* Reference digests *)

let pin ~seed =
  let z1 =
    if seed = default_seed then
      Fuzz.Report.render (Fuzz.Campaign.run ~jobs:1 ~cases:(z1_cases ~tiny:false) ~seed ())
    else (z1_rep ~traced:false ~tiny:false ~seed).r_report
  in
  let boundary =
    Fuzz.Report.render
      (Fuzz.Campaign.run ~boundary:true ~jobs:1 ~cases:(boundary_cases ~tiny:false)
         ~seed:(boundary_seed ~tiny:false seed) ())
  in
  let mc = (mc_front_door ~tiny:false ~seed).r_report in
  Printf.printf
    "{\"fuzz-z1\": %S, \"fuzz-boundary\": %S, \"mc-clock\": %S, \"fuzz-sharded\": %S}\n"
    (digest z1) (digest boundary) (digest mc) (digest boundary)

(* ------------------------------------------------------------------ *)

let () =
  Dist.Worker.maybe_run ();
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let expect = ref None and alter = ref false and tiny = ref false and spans = ref None in
  let pin_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--expect-digest", Arg.String (fun d -> expect := Some d), "HEX pinned report digest");
      ("--alter-reference", Arg.Set alter, " perturb the reference report (smoke test)");
      ("--tiny", Arg.Set tiny, " tiny inputs (smoke test)");
      ("--spans", Arg.String (fun p -> spans := Some p), "FILE where a traced run writes its spans");
      ("--pin", Arg.Set pin_mode, " print the report digests of --seed and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !pin_mode then pin ~seed:!seed
  else begin
    let ck =
      {
        reference = Option.map (fun d -> if !alter then digest d else d) !expect;
        alter = !alter;
        attempted = 0;
        failed = 0;
      }
    in
    let metrics =
      if !trace = 0 then run_timed !workload ~tiny:!tiny ~seed:!seed ~seconds:!seconds ck
      else run_traced !workload ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~spans_out:!spans ck
    in
    let correct = ck.failed = 0 in
    print_result ~correct ~attempted:ck.attempted ~failed:ck.failed metrics;
    exit (if correct then 0 else 1)
  end
