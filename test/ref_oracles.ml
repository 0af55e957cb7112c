(* Reference twins of the fast theorem-oracle kernels, kept only as
   test oracles: the round-robin Bellman-Ford that Digraph.Bellman_ford
   replaced, and the per-cut closure rebuilds that Clock_sync's
   Theorem 2 and Theorem 4 checks replaced with one vector-clock pass.
   Each is the obviously-correct slow version; the differential
   properties in test_oracle_kernels.ml pin the fast code to it. *)

open Execgraph

(* Round-robin Bellman-Ford from a virtual super-source joined to
   every node by a zero arc: relax every arc in id order, up to n
   rounds; still changing in round n means a negative cycle. *)
module Bellman_ford (W : Digraph.WEIGHT) = struct
  let run g ~weight =
    let n = Digraph.node_count g and m = Digraph.edge_count g in
    let dist = Array.make (max n 1) W.zero in
    let parent = Array.make (max n 1) None in
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds < n do
      changed := false;
      incr rounds;
      for i = 0 to m - 1 do
        let e = Digraph.edge g i in
        let cand = W.add dist.(e.src) (weight e) in
        if W.compare cand dist.(e.dst) < 0 then begin
          dist.(e.dst) <- cand;
          parent.(e.dst) <- Some e;
          changed := true
        end
      done
    done;
    (dist, parent, !changed && !rounds = n)

  let negative_cycle g ~weight =
    let dist, parent, unstable = run g ~weight in
    if not unstable then None
    else begin
      (* One more pass finds an arc that still improves; after applying
         it, walking n parents from its head lands on a parent cycle. *)
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let start = ref None in
      for i = 0 to m - 1 do
        let e = Digraph.edge g i in
        if !start = None && W.compare (W.add dist.(e.src) (weight e)) dist.(e.dst) < 0
        then begin
          dist.(e.dst) <- W.add dist.(e.src) (weight e);
          parent.(e.dst) <- Some e;
          start := Some e.dst
        end
      done;
      match !start with
      | None -> None
      | Some v0 ->
          let v = ref v0 in
          for _ = 1 to n do
            match parent.(!v) with Some e -> v := e.src | None -> ()
          done;
          let cycle = ref [] and u = ref !v and looping = ref true and steps = ref 0 in
          while !looping && !steps <= n do
            incr steps;
            match parent.(!u) with
            | Some e ->
                cycle := e :: !cycle;
                u := e.src;
                if !u = !v then looping := false
            | None -> looping := false
          done;
          if !looping then None else Some !cycle
    end

  let potentials g ~weight =
    let dist, _, unstable = run g ~weight in
    if unstable then None else Some dist
end

(* Theorem 2's skew over the principal cuts, each cut an explicit BFS
   closure and each clock read by rebuilding the faithful-state table. *)
let clock_in_cut (input : Core.Clock_sync.analysis_input) c p =
  let g = input.result.Sim.graph in
  let clocks = Core.Clock_sync.clocks_by_event input in
  let frontier_seq = (Cut.frontier c).(p) in
  List.fold_left
    (fun acc id ->
      let ev = Graph.event g id in
      if ev.Event.seq <= frontier_seq then
        match clocks id with Some k -> max acc k | None -> acc
      else acc)
    0 (Graph.events_of_proc g p)

let principal_cuts g =
  Cut.full g
  :: List.init (Graph.event_count g) (fun id -> Cut.closure_of_event g (Graph.event g id))

let max_skew_on_cuts (input : Core.Clock_sync.analysis_input) =
  let g = input.result.Sim.graph in
  let cuts =
    List.filter
      (fun c -> List.for_all (fun p -> (Cut.frontier c).(p) >= 0) input.correct)
      (principal_cuts g)
  in
  List.fold_left
    (fun acc c ->
      match List.map (clock_in_cut input c) input.correct with
      | [] -> acc
      | ks -> max acc (List.fold_left max min_int ks - List.fold_left min max_int ks))
    0 cuts

(* Theorem 4's check with every cut interval materialised by
   Cut.interval and membership tested by list search. *)
let bounded_progress_violations (input : Core.Clock_sync.analysis_input) =
  let g = input.result.Sim.graph in
  let states = Sim.faithful_states input.result in
  let rho = Rat.ceil_int (Rat.add (Rat.mul (Rat.of_int 4) input.xi) Rat.one) in
  let dist_events_of p =
    let prev = ref 0 in
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt states id with
        | Some st ->
            let k = Core.Clock_sync.clock st in
            let d = k > !prev in
            prev := k;
            if d then Some id else None
        | None -> None)
      (Graph.events_of_proc g p)
  in
  let dist_by_proc = List.map (fun p -> (p, dist_events_of p)) input.correct in
  let checked = ref 0 and violations = ref [] in
  List.iter
    (fun p ->
      let devs = Array.of_list (List.assoc p dist_by_proc) in
      for i = 0 to Array.length devs - 1 - rho do
        let from_id = devs.(i) and to_id = devs.(i + rho) in
        incr checked;
        let interval =
          Cut.interval g ~from_event:(Graph.event g from_id) ~to_event:(Graph.event g to_id)
        in
        let in_interval id = List.exists (fun (e : Event.t) -> e.Event.id = id) interval in
        List.iter
          (fun q ->
            if q <> p && not (List.exists in_interval (List.assoc q dist_by_proc)) then
              violations := (p, from_id, to_id, q) :: !violations)
          input.correct
      done)
    input.correct;
  (!checked, !violations)
