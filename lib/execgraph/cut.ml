(** Consistent cuts, frontiers, cut intervals and real-time cuts
    (Definitions 5 and 6 of the paper; Theorem 3's Mattern-style
    real-time cuts).

    A cut is represented by its {e frontier}: for each process, the
    sequence number of its last included event ([-1] when the process
    contributes no event).  A cut [S] is consistent when (1) every
    {e correct} process has an event in [S] and (2) [S] is left-closed
    under the reflexive-transitive causal order [→*]. *)

type t = { frontier : int array  (** per process: last included seq, or -1 *) }

let frontier c = c.frontier

let mem c (ev : Event.t) = ev.seq <= c.frontier.(ev.proc)

(** The empty cut. *)
let empty ~nprocs = { frontier = Array.make nprocs (-1) }

(** All events of the graph. *)
let full g =
  let n = Graph.nprocs g in
  let f = Array.make n (-1) in
  for p = 0 to n - 1 do
    f.(p) <- List.length (Graph.events_of_proc g p) - 1
  done;
  { frontier = f }

(** Left closure ⟨S⟩ of a cut (Definition 6 uses ⟨φ⟩ for single
    events): extend the frontier with the causal past of every included
    event.  Implemented as a reverse BFS from the frontier events. *)
let left_closure g c =
  let n = Graph.nprocs g in
  let f = Array.copy c.frontier in
  let dg = Graph.digraph g in
  let seen = Array.make (Graph.event_count g) false in
  let q = Queue.create () in
  for p = 0 to n - 1 do
    if f.(p) >= 0 then begin
      (* frontier event id of process p *)
      List.iter
        (fun id ->
          let ev = Graph.event g id in
          if ev.seq <= f.(p) && not seen.(id) then begin
            seen.(id) <- true;
            Queue.add id q
          end)
        (Graph.events_of_proc g p)
    end
  done;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let ev = Graph.event g v in
    if ev.seq > f.(ev.proc) then f.(ev.proc) <- ev.seq;
    List.iter
      (fun (e : Digraph.edge) ->
        if not seen.(e.src) then begin
          seen.(e.src) <- true;
          Queue.add e.src q
        end)
      (Digraph.in_edges dg v)
  done;
  { frontier = f }

(** ⟨φ⟩: the left closure of a single event. *)
let closure_of_event g (ev : Event.t) =
  let f = Array.make (Graph.nprocs g) (-1) in
  f.(ev.proc) <- ev.seq;
  left_closure g { frontier = f }

(** Consistency (Definition 5) relative to a set of correct processes:
    every correct process has an event in the cut and the cut is left
    closed. *)
let is_consistent g ~correct c =
  let closed =
    let cl = left_closure g c in
    cl.frontier = c.frontier
  in
  closed && List.for_all (fun p -> c.frontier.(p) >= 0) correct

(** Cut interval [⟨φ⟩, ⟨ψ⟩] := ⟨ψ⟩ \ ⟨φ⟩ (Definition 6): the events of
    the closure of ψ that are not in the closure of φ, as a predicate
    and an explicit list. *)
let interval g ~from_event ~to_event =
  let lo = closure_of_event g from_event and hi = closure_of_event g to_event in
  let events = ref [] in
  for id = Graph.event_count g - 1 downto 0 do
    let ev = Graph.event g id in
    if mem hi ev && not (mem lo ev) then events := ev :: !events
  done;
  !events

(** Real-time cut (Mattern): all events with timestamp ≤ t.  Only
    meaningful when the graph records occurrence times; such a cut is
    automatically left-closed when message delays are non-negative. *)
let at_time g t =
  let n = Graph.nprocs g in
  let f = Array.make n (-1) in
  for id = 0 to Graph.event_count g - 1 do
    let ev = Graph.event g id in
    match ev.time with
    | Some ti when Rat.compare ti t <= 0 -> if ev.seq > f.(ev.proc) then f.(ev.proc) <- ev.seq
    | _ -> ()
  done;
  { frontier = f }

(** The frontier of ⟨φ⟩ for every event φ, indexed by event id, in one
    vector-clock pass: in a topological order, an event's frontier is
    the componentwise maximum of its predecessors' frontiers (its local
    predecessor and the senders of the messages it receives), with its
    own process's entry set to its own seq.  O(E·n) for E events and n
    processes, against one BFS per event for {!closure_of_event}. *)
let principal_frontiers g =
  let n = Graph.nprocs g in
  let dg = Graph.digraph g in
  let fr = Array.make (Graph.event_count g) [||] in
  List.iter
    (fun id ->
      let f = Array.make n (-1) in
      List.iter
        (fun (e : Digraph.edge) ->
          let fs = fr.(e.src) in
          for p = 0 to n - 1 do
            if fs.(p) > f.(p) then f.(p) <- fs.(p)
          done)
        (Digraph.in_edges dg id);
      let ev = Graph.event g id in
      f.(ev.proc) <- ev.seq;
      fr.(id) <- f)
    (Graph.topological_order g);
  fr

(** Enumerate the "principal" consistent cuts of a graph: the left
    closures of each single event plus the full cut.  This family
    suffices for checking the frontier-based synchrony bound of
    Theorem 2, since every consistent cut's frontier clock values are
    dominated by principal ones (used by tests and benches). *)
let principal_cuts g =
  let fr = principal_frontiers g in
  let cuts = ref [ full g ] in
  Array.iter (fun f -> cuts := { frontier = f } :: !cuts) fr;
  !cuts

let pp fmt c =
  Format.fprintf fmt "@[<h>cut[";
  Array.iteri (fun p s -> Format.fprintf fmt " p%d:%d" p s) c.frontier;
  Format.fprintf fmt " ]@]"
