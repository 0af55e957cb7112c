(** Algorithm 1 (Section 3): Byzantine fault-tolerant clock
    synchronization by tick propagation, for systems of [n ≥ 3f + 1]
    processes in the ABC model.

    Every process maintains a clock [k], initially broadcasting
    [(tick 0)], and applies two rules to each received tick:
    {e catch-up} — on [(tick l)] from [f+1] distinct processes with
    [l > k], broadcast [(tick k+1) .. (tick l)] (each once) and set
    [k := l]; {e advance} — on [(tick k)] from [n−f] distinct
    processes, broadcast [(tick k+1)] (once) and set [k := k+1].

    The analyses below reproduce Theorem 1 (progress), Theorems 2/3
    (precision ≤ 2Ξ on consistent and real-time cuts), Theorem 4
    (bounded progress ϱ = 4Ξ+1) and Lemma 4 (causal cone). *)

module Iset : Set.S with type elt = int
module Imap : Map.S with type key = int

type msg = Tick of int

type state = {
  k : int;  (** the local clock *)
  f : int;  (** resilience parameter *)
  received : Iset.t Imap.t;  (** tick value -> senders seen *)
  sent_upto : int;  (** largest tick already broadcast *)
  receipt_log : (int * int) list;  (** (sender, tick) receipts, newest first *)
  peer_view : int Imap.t;
      (** per-peer message visibility: the largest tick this process
          has told each destination individually.  Empty for the honest
          algorithm (it broadcasts uniformly); equivocating strategies
          ({!Byz}) maintain it so each per-peer tick stream stays
          monotone while the streams diverge from each other. *)
}

val initial : f:int -> state
(** Fresh state: clock 0, nothing received or sent. *)

val clock : state -> int

val peer_view_tick : state -> int -> int
(** Largest tick told to the given destination ([-1] if none). *)

val record_peer_view : state -> int -> int -> state
(** [record_peer_view s d t]: note that [t] was sent to [d]. *)

val broadcast_range : nprocs:int -> int -> int -> msg Sim.send list
(** Broadcasts of [(tick lo) .. (tick hi)] to everyone (self included,
    as in the paper). *)

val apply_rules : nprocs:int -> state -> state * msg Sim.send list
(** Apply catch-up and advance to quiescence; exposed for the merged
    Algorithm 2 ({!Lockstep}). *)

val algorithm : f:int -> (state, msg) Sim.algorithm
(** Algorithm 1 as a simulator process. *)

(** {1 Byzantine strategies for experiments} *)

val byzantine_rusher : ahead:int -> (state, msg) Sim.algorithm
(** Floods ahead-of-time ticks, two-faced per destination (never
    messages itself, so it cannot starve the event budget). *)

val byzantine_mute : (state, msg) Sim.algorithm
(** Receives but never sends. *)

(** {1 Analyses over a simulation result} *)

type analysis_input = {
  result : (state, msg) Sim.result;
  correct : int list;  (** indices of correct processes *)
  xi : Rat.t;
}

val clocks_by_event : analysis_input -> int -> int option
(** Clock value after each faithful-graph event. *)

val max_skew_on_cuts : analysis_input -> int
(** Theorem 2's quantity: max [|Cp(S) − Cq(S)|] between correct
    processes over the principal consistent cuts (cuts missing a
    correct process are not consistent per Definition 5 and are
    skipped).  Bound: [2Ξ]. *)

val max_skew_realtime : analysis_input -> int
(** Theorem 3's quantity, over real-time cuts. *)

val final_clocks : analysis_input -> (int * int) list
(** Final clock per correct process (Theorem 1: grows with the event
    budget). *)

val causal_cone_violations : analysis_input -> int * (int * int * int) list
(** Lemma 4 check: for every event of a correct [p] with clock [c] and
    every [ℓ ≤ c − 2Ξ], [p] has received [(tick ℓ)] from every correct
    process.  Returns (triples checked, violations as
    (event id, ℓ, sender)). *)

val bounded_progress_violations : analysis_input -> int * (int * int * int * int) list
(** Theorem 4 check for [ϱ = ⌈4Ξ + 1⌉]: whenever a correct process
    performs ϱ distinguished (clock-increment) events in a cut
    interval, every correct process performs at least one there.
    Returns (intervals checked, violations as (p, from, to, q)). *)
