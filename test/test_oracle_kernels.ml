(* Differential tests for the fast theorem-oracle kernels against their
   reference twins (ref_oracles.ml): the queue-based Bellman-Ford
   kernel on random int- and Eps-weighted digraphs, Theorem 2's
   prefix-max skew and Theorem 4's frontier intervals on generated
   clock runs, and the vector-clock principal frontiers against one
   BFS closure per event. *)

open Execgraph

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000)

(* A random digraph on 1..10 nodes whose arcs carry (std, eps) integer
   weight pairs, in one of three shapes picked by the seed:
   - potential-reduced weights plus non-negative slack (no negative
     cycle, zero-weight cycles common);
   - unconstrained small weights (either verdict);
   - the first shape plus a planted cycle of length [1 + seed mod n]
     (a self-loop when 1) whose std total is -1 or 0 and eps total -1,
     so cycles of every length up to n are covered. *)
let random_weighted seed =
  let rng = Random.State.make [| seed |] in
  let rand k = Random.State.int rng k in
  let n = 1 + rand 10 in
  let g = Digraph.create n in
  let ws = ref [] in
  let add s d w =
    ignore (Digraph.add_edge g ~src:s ~dst:d);
    ws := w :: !ws
  in
  let pot = Array.init n (fun _ -> rand 20) in
  let shape = seed mod 3 in
  for _ = 1 to rand ((3 * n) + 1) do
    let s = rand n and d = rand n in
    if shape = 1 then add s d (rand 10 - 3, rand 5 - 2)
    else add s d (pot.(s) - pot.(d) + rand 3, rand 3)
  done;
  if shape = 2 then begin
    let len = 1 + (seed mod n) in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = rand (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let std = Array.init len (fun _ -> rand 9 - 4) and eps = Array.init len (fun _ -> rand 5 - 2) in
    let sum a = Array.fold_left ( + ) 0 a in
    std.(len - 1) <- std.(len - 1) - sum std - rand 2;
    eps.(len - 1) <- eps.(len - 1) - sum eps - 1;
    for i = 0 to len - 1 do
      add perm.(i) perm.((i + 1) mod len) (std.(i), eps.(i))
    done
  end;
  (g, Array.of_list (List.rev !ws))

module Kernel_agrees (W : sig
  include Digraph.WEIGHT

  val of_pair : int * int -> t
end) =
struct
  module Fast = Digraph.Bellman_ford (W)
  module Slow = Ref_oracles.Bellman_ford (W)

  let same_dist a b =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> W.compare x y = 0) a b

  let is_directed_cycle cycle =
    let arr = Array.of_list cycle in
    let k = Array.length arr in
    k > 0
    && Array.for_all Fun.id
         (Array.mapi (fun i (e : Digraph.edge) -> e.dst = arr.((i + 1) mod k).Digraph.src) arr)

  let check seed =
    let g, ws = random_weighted seed in
    let weight (e : Digraph.edge) = W.of_pair ws.(e.id) in
    let total c = List.fold_left (fun acc e -> W.add acc (weight e)) W.zero c in
    let potentials_match =
      match (Fast.potentials g ~weight, Slow.potentials g ~weight) with
      | None, None -> true
      | Some a, Some b -> same_dist a b
      | _ -> false
    in
    let verdict_match =
      match (Fast.negative_cycle g ~weight, Slow.negative_cycle g ~weight) with
      | None, None -> true
      | Some c, Some _ -> is_directed_cycle c && W.compare (total c) W.zero < 0
      | _ -> false
    in
    potentials_match && verdict_match
end

module Int_kernel = Kernel_agrees (struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Int.compare
  let of_pair (s, _) = s
end)

module Eps_kernel = Kernel_agrees (struct
  type t = Rat.Eps.t

  let zero = Rat.Eps.zero
  let add = Rat.Eps.add
  let compare = Rat.Eps.compare
  let of_pair (s, e) = Rat.Eps.make (Rat.of_int s) (Rat.of_int e)
end)

(* A clock-synchronization run from a generated fuzz case: positive
   cases (crash, omission and named Byzantine strategies) and, every
   third seed, a resilience-boundary case (n = 3f with an equivocator
   under the deferring adversary), budget-capped to keep the reference
   twins cheap. *)
let clock_run seed =
  let case = if seed mod 3 = 0 then Fuzz.Gen.generate_boundary ~seed else Fuzz.Gen.generate ~seed in
  let case =
    {
      case with
      Fuzz.Gen.c_workload = Fuzz.Gen.W_clock;
      c_max_events = min 160 case.Fuzz.Gen.c_max_events;
    }
  in
  match Fuzz.Gen.validate case with
  | Error e -> QCheck.Test.fail_reportf "generated case does not validate: %s" e
  | Ok case -> (
      match Fuzz.Gen.run_case case with
      | Fuzz.Gen.R_clock result ->
          { Core.Clock_sync.result; correct = Fuzz.Gen.correct_procs case; xi = case.Fuzz.Gen.c_xi }
      | _ -> QCheck.Test.fail_report "clock case ran another workload")

let frontiers_match g =
  let fr = Cut.principal_frontiers g in
  Array.length fr = Graph.event_count g
  && Array.for_all Fun.id
       (Array.mapi (fun id f -> f = Cut.frontier (Cut.closure_of_event g (Graph.event g id))) fr)

let suite =
  [
    prop "bellman-ford kernel matches round-robin reference (int)" 400 arb_seed
      Int_kernel.check;
    prop "bellman-ford kernel matches round-robin reference (Eps)" 400 arb_seed
      Eps_kernel.check;
    prop "theorem 2 skew matches the per-cut reference" 30 arb_seed (fun seed ->
        let input = clock_run seed in
        Core.Clock_sync.max_skew_on_cuts input = Ref_oracles.max_skew_on_cuts input);
    prop "theorem 4 violations match the Cut.interval reference" 30 arb_seed (fun seed ->
        let input = clock_run seed in
        Core.Clock_sync.bounded_progress_violations input
        = Ref_oracles.bounded_progress_violations input);
    prop "principal_frontiers equals closure_of_event (random executions)" 60 arb_seed
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        frontiers_match
          (Util.random_execution rng ~nprocs:(1 + (seed mod 5)) ~max_events:40 ~max_delay:4
             ~fanout:3));
    prop "principal_frontiers equals closure_of_event (clock runs)" 20 arb_seed (fun seed ->
        frontiers_match (clock_run seed).Core.Clock_sync.result.Sim.graph);
  ]
