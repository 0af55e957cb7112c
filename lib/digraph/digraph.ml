type edge = { id : int; src : int; dst : int }

type t = {
  mutable n : int;
  mutable out_adj : edge list array; (* length >= n, index < n valid *)
  mutable in_adj : edge list array;
  mutable edge_arr : edge array; (* length >= m, index < m valid *)
  mutable m : int;
}

let create n =
  {
    n;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [];
    edge_arr = Array.make 8 { id = -1; src = -1; dst = -1 };
    m = 0;
  }

let node_count g = g.n
let edge_count g = g.m

let grow_nodes g =
  let cap = Array.length g.out_adj in
  if g.n >= cap then begin
    let cap' = 2 * cap in
    let out' = Array.make cap' [] and in' = Array.make cap' [] in
    Array.blit g.out_adj 0 out' 0 cap;
    Array.blit g.in_adj 0 in' 0 cap;
    g.out_adj <- out';
    g.in_adj <- in'
  end

let add_node g =
  grow_nodes g;
  let v = g.n in
  g.n <- g.n + 1;
  v

let add_edge g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  let e = { id = g.m; src; dst } in
  let cap = Array.length g.edge_arr in
  if g.m >= cap then begin
    let arr' = Array.make (2 * cap) e in
    Array.blit g.edge_arr 0 arr' 0 cap;
    g.edge_arr <- arr'
  end;
  g.edge_arr.(g.m) <- e;
  g.m <- g.m + 1;
  g.out_adj.(src) <- e :: g.out_adj.(src);
  g.in_adj.(dst) <- e :: g.in_adj.(dst);
  e

let truncate g ~nodes ~edges =
  if nodes < 0 || nodes > g.n || edges < 0 || edges > g.m then
    invalid_arg "Digraph.truncate: counts out of range";
  (* Adjacency lists are built by prepending, so within each list edge
     ids are strictly decreasing: removing every edge with id >= edges
     is popping list heads, newest first. *)
  for i = g.m - 1 downto edges do
    let e = g.edge_arr.(i) in
    (match g.out_adj.(e.src) with
    | x :: tl when x.id = e.id -> g.out_adj.(e.src) <- tl
    | _ -> invalid_arg "Digraph.truncate: adjacency out of sync");
    match g.in_adj.(e.dst) with
    | x :: tl when x.id = e.id -> g.in_adj.(e.dst) <- tl
    | _ -> invalid_arg "Digraph.truncate: adjacency out of sync"
  done;
  g.m <- edges;
  for v = nodes to g.n - 1 do
    if g.out_adj.(v) <> [] || g.in_adj.(v) <> [] then
      invalid_arg "Digraph.truncate: surviving edge references a removed node"
  done;
  g.n <- nodes

let edge g i =
  if i < 0 || i >= g.m then invalid_arg "Digraph.edge: out of range";
  g.edge_arr.(i)

let edges g = List.init g.m (fun i -> g.edge_arr.(i))
let out_edges g v = g.out_adj.(v)
let in_edges g v = g.in_adj.(v)

let shadow_incident g v =
  List.map (fun e -> (e, 1)) g.out_adj.(v) @ List.map (fun e -> (e, -1)) g.in_adj.(v)

let topological_sort g =
  let indeg = Array.make (max g.n 1) 0 in
  for i = 0 to g.m - 1 do
    let e = g.edge_arr.(i) in
    indeg.(e.dst) <- indeg.(e.dst) + 1
  done;
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    order := v :: !order;
    List.iter
      (fun e ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue)
      g.out_adj.(v)
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_dag g = topological_sort g <> None

(* Iterative Tarjan SCC (explicit stack: the execution graphs we feed
   this can have tens of thousands of events). *)
let scc g =
  let n = g.n in
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let comp = Array.make (max n 1) (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 and next_comp = ref 0 in
  let visit root =
    (* Frames: (node, remaining out-edges). *)
    let frames = Stack.create () in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Stack.push root stack;
    on_stack.(root) <- true;
    Stack.push (root, ref g.out_adj.(root)) frames;
    while not (Stack.is_empty frames) do
      let v, rest = Stack.top frames in
      match !rest with
      | e :: tl -> begin
          rest := tl;
          let w = e.dst in
          if index.(w) < 0 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            Stack.push w stack;
            on_stack.(w) <- true;
            Stack.push (w, ref g.out_adj.(w)) frames
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
      | [] ->
          ignore (Stack.pop frames);
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w = v then continue := false
            done;
            incr next_comp
          end;
          if not (Stack.is_empty frames) then begin
            let u, _ = Stack.top frames in
            lowlink.(u) <- min lowlink.(u) lowlink.(v)
          end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  if n = 0 then [||] else Array.sub comp 0 n

module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

module Bellman_ford (W : WEIGHT) = struct
  (* Queue-based label correcting; the witness and termination argument
     is in the interface.  [parent.(v)] is the arc that last lowered
     [v]'s label (-1 for none), [len.(v)] the arc count of the walk
     that label is the weight of. *)
  let run g ~weight =
    let n = g.n in
    let w = Array.init g.m (fun i -> weight g.edge_arr.(i)) in
    let dist = Array.make (max n 1) W.zero in
    let len = Array.make (max n 1) 0 in
    let parent = Array.make (max n 1) (-1) in
    let inq = Array.make (max n 1) true in
    (* ring buffer: a node is queued at most once at a time *)
    let ring = Array.init (max n 1) (fun i -> n - 1 - i) in
    let head = ref 0 and size = ref n in
    let stamp = Array.make (max n 1) (-1) and tick = ref 0 in
    (* A cycle of the parent graph, as arcs in traversal order. *)
    let parent_cycle () =
      let base = !tick in
      let found = ref None and s = ref 0 in
      while !found = None && !s < n do
        if stamp.(!s) < base then begin
          let cur = !tick in
          incr tick;
          let x = ref !s in
          while !x >= 0 && stamp.(!x) < base do
            stamp.(!x) <- cur;
            x := if parent.(!x) < 0 then -1 else g.edge_arr.(parent.(!x)).src
          done;
          if !x >= 0 && stamp.(!x) = cur then begin
            let cycle = ref [] and u = ref !x in
            let continue = ref true in
            while !continue do
              let e = g.edge_arr.(parent.(!u)) in
              cycle := e :: !cycle;
              u := e.src;
              continue := !u <> !x
            done;
            found := Some !cycle
          end
        end;
        incr s
      done;
      !found
    in
    let exception Cycle of edge list in
    let since_scan = ref 0 in
    let rec relax du lu = function
      | [] -> ()
      | e :: tl ->
          let cand = W.add du w.(e.id) in
          let v = e.dst in
          if W.compare cand dist.(v) < 0 then begin
            dist.(v) <- cand;
            parent.(v) <- e.id;
            len.(v) <- lu + 1;
            if not inq.(v) then begin
              inq.(v) <- true;
              ring.((!head + !size) mod n) <- v;
              incr size
            end;
            incr since_scan;
            if lu + 1 > n || !since_scan >= n then begin
              since_scan := 0;
              match parent_cycle () with Some c -> raise (Cycle c) | None -> ()
            end
          end;
          relax du lu tl
    in
    try
      while !size > 0 do
        let u = ring.(!head) in
        head := (!head + 1) mod n;
        decr size;
        inq.(u) <- false;
        relax dist.(u) len.(u) g.out_adj.(u)
      done;
      Ok dist
    with Cycle c -> Error c

  let negative_cycle g ~weight =
    match run g ~weight with Ok _ -> None | Error c -> Some c

  let potentials g ~weight =
    match run g ~weight with Ok dist -> Some dist | Error _ -> None
end

type traversal = { edge : edge; dir : int }

let shadow_cycles ?(max_cycles = 1_000_000) g =
  let n = g.n in
  let visited = Array.make (max n 1) false in
  let used_edge = Array.make (max g.m 1) false in
  let cycles = ref [] and count = ref 0 in
  let adj v =
    (* (edge, dir, other endpoint) in the undirected shadow graph *)
    List.map (fun e -> (e, 1, e.dst)) g.out_adj.(v)
    @ List.map (fun e -> (e, -1, e.src)) g.in_adj.(v)
  in
  let report path =
    incr count;
    if !count > max_cycles then failwith "Digraph.shadow_cycles: cycle cap exceeded";
    cycles := List.rev path :: !cycles
  in
  for root = 0 to n - 1 do
    (* Enumerate simple cycles whose minimal node is [root].  Each cycle
       is found twice (once per direction); keep the copy whose first
       edge id is smaller than its last edge id. *)
    let rec extend v path first_edge_id =
      List.iter
        (fun (e, dir, w) ->
          if not used_edge.(e.id) then
            if w = root then begin
              if path <> [] && first_edge_id < e.id then
                report ({ edge = e; dir } :: path)
            end
            else if w > root && not visited.(w) then begin
              visited.(w) <- true;
              used_edge.(e.id) <- true;
              extend w ({ edge = e; dir } :: path) first_edge_id;
              used_edge.(e.id) <- false;
              visited.(w) <- false
            end)
        (adj v)
    in
    visited.(root) <- true;
    List.iter
      (fun (e, dir, w) ->
        if w >= root then begin
          (* First step out of the root. *)
          if w = root then () (* self-loops cannot occur in execution graphs *)
          else begin
            visited.(w) <- true;
            used_edge.(e.id) <- true;
            extend w [ { edge = e; dir } ] e.id;
            used_edge.(e.id) <- false;
            visited.(w) <- false
          end
        end)
      (adj root);
    visited.(root) <- false
  done;
  !cycles

let pp fmt g =
  Format.fprintf fmt "@[<v>digraph: %d nodes, %d edges@," g.n g.m;
  List.iter (fun e -> Format.fprintf fmt "  e%d: %d -> %d@," e.id e.src e.dst) (edges g);
  Format.fprintf fmt "@]"
