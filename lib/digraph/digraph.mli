(** Generic directed multigraphs and the graph algorithms used by the
    ABC reproduction.

    Nodes are dense integers [0 .. node_count - 1]; edges carry dense
    integer ids so that callers can attach weights or labels in flat
    arrays.  The structure is a {e multigraph}: parallel edges and
    (in principle) self-loops are representable, which matters for
    execution graphs where a process may send a message to itself in
    parallel with the local edge between two consecutive events.

    Three algorithm families live here:
    - {!topological_sort} / {!is_dag} for causal orders,
    - {!module:Bellman_ford}, a queue-based shortest-path kernel over an
      ordered additive monoid of weights, used both for
      negative-/nonpositive-cycle detection
      (the polynomial ABC admissibility check) and for
      difference-constraint potentials over ε-extended rationals,
    - {!shadow_cycles}, exhaustive enumeration of the simple cycles of
      the {e undirected shadow graph} (Definition 2 of the paper), used
      by the paper-faithful LP construction and as a test oracle. *)

type t

type edge = { id : int; src : int; dst : int }

(** {1 Construction} *)

val create : int -> t
(** [create n] is an empty graph on nodes [0 .. n-1]. *)

val add_node : t -> int
(** Appends a fresh node and returns its index. *)

val add_edge : t -> src:int -> dst:int -> edge
(** Appends a fresh edge and returns it.  Ids are dense and assigned in
    insertion order. *)

val truncate : t -> nodes:int -> edges:int -> unit
(** [truncate g ~nodes ~edges] removes every edge with id [>= edges]
    and every node with index [>= nodes], rolling the graph back to an
    earlier prefix of its construction (ids are dense and assigned in
    insertion order, so a prefix is identified by the two counts).
    Used by the incremental admissibility checker to retract
    speculative extensions.
    @raise Invalid_argument if the counts exceed the current sizes or
    if a surviving edge references a removed node. *)

(** {1 Accessors} *)

val node_count : t -> int
val edge_count : t -> int
val edge : t -> int -> edge
val edges : t -> edge list
val out_edges : t -> int -> edge list
val in_edges : t -> int -> edge list

(** All edges incident to a node in the undirected shadow graph, each
    tagged with [+1] if it leaves the node, [-1] if it enters it. *)
val shadow_incident : t -> int -> (edge * int) list

(** {1 Orders and components} *)

val topological_sort : t -> int list option
(** [Some order] (sources first) if the graph is acyclic, else [None]. *)

val is_dag : t -> bool

val scc : t -> int array
(** Tarjan strongly connected components; returns the component index
    of each node, numbered in reverse topological order. *)

(** {1 Shortest paths / cycle detection} *)

module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

(** Shortest paths from a virtual super-source joined to every node by
    a zero-weight arc, so disconnected graphs are handled and a
    negative cycle anywhere is found.

    The kernel is queue-based label correcting: every node starts
    labelled [W.zero] and queued, in descending id order (the graphs
    built on execution graphs number events in a topological order, so
    their backward arcs settle in the first pass); a popped node
    relaxes its out-arcs and queues each node whose label strictly
    drops.  Each label records the arc that set it, forming the
    {e parent graph}.

    {b Witness.}  Labels only drop, and only strictly, so every cycle
    of the parent graph has negative weight: around it each node's
    label is at least its parent's plus the arc weight; the relaxation
    that closed the cycle lowered a label, which makes the inequality
    at that node's child on the cycle strict; and the labels cancel in
    the sum.  The parent graph is scanned for a cycle every [n]
    relaxations, and that cycle is the returned witness.

    {b Termination.}  Without a negative cycle the queue drains after
    O(n·m) relaxations and the labels are the shortest-path distances
    from the super-source (the largest solution of the constraints
    with every value [<= W.zero]), the same values a round-robin
    Bellman–Ford reaches.  With one, the
    labels drop without bound and the parent graph becomes cyclic for
    good, so a scan finds it.  As a backstop every label also records
    the arc count of its walk; a walk longer than [n] arcs repeats a
    node, which proves a negative cycle and triggers a scan at once.

    Weights must add exactly ([int], [Bigint.t], {!Rat.Eps}). *)
module Bellman_ford (W : WEIGHT) : sig
  val negative_cycle : t -> weight:(edge -> W.t) -> edge list option
  (** [negative_cycle g ~weight] is [Some cycle] (a directed cycle whose
      total weight is strictly negative, as an edge list in traversal
      order) if one exists, and [None] otherwise.  [weight] is called
      once per edge. *)

  val potentials : t -> weight:(edge -> W.t) -> W.t array option
  (** [potentials g ~weight] is [Some pi] with
      [pi.(dst) <= pi.(src) + weight e] for every edge [e] — a feasible
      solution of the difference constraints — or [None] if a negative
      cycle makes the system infeasible. *)
end

(** {1 Undirected simple cycles} *)

type traversal = { edge : edge; dir : int }
(** One step of a cycle traversal: [dir = +1] if the edge is traversed
    from [src] to [dst], [-1] otherwise. *)

val shadow_cycles : ?max_cycles:int -> t -> traversal list list
(** All simple cycles of the undirected shadow graph, each reported
    exactly once as a traversal.  A simple cycle visits every node at
    most once and has at least two edges (a pair of parallel edges forms
    the smallest cycle).  Exponential in general: intended for small
    graphs (tests, the paper-faithful LP of Fig. 6).
    @param max_cycles safety cap; raises [Failure] when exceeded. *)

val pp : Format.formatter -> t -> unit
