(** The ABC model (Section 2): parameters and admissibility.

    The model is parameterized by a rational synchrony parameter Ξ > 1
    (Definition 4).  This module wraps the checkers of
    {!Execgraph.Abc_check} and adds the {e exact maximum relevant-cycle
    ratio} of an execution graph — the infimum of the admissible Ξ —
    computed in polynomial time by parametric search (Lawler-style
    binary search over the checker, with exact rational recovery via
    the Stern–Brocot simplest-fraction construction). *)

open Execgraph

type params = { xi : Rat.t  (** the synchrony parameter Ξ > 1 *) }

let make_params xi =
  if Rat.compare xi Rat.one <= 0 then invalid_arg "Abc.make_params: need Xi > 1";
  { xi }

let is_admissible g ~params = Abc_check.is_admissible g ~xi:params.xi
let check g ~params = Abc_check.check g ~xi:params.xi

(* Bigint-weighted Bellman-Ford: the fallback when a probe's scaled
   integer weights could overflow native ints (gigantic graphs only —
   the Stern-Brocot search keeps probe numerators and denominators
   small, so in practice every probe runs on native ints). *)
module BF_big = Digraph.Bellman_ford (struct
  type t = Bigint.t

  let zero = Bigint.zero
  let add = Bigint.add
  let compare = Bigint.compare
end)

module BF_int = Digraph.Bellman_ford (struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Int.compare
end)

(* The auxiliary digraph of the admissibility reduction (see
   Execgraph.Abc_check for the proof), built once per parametric search
   and reused across every probe.  [kinds.(id)] records how arc [id]'s
   weight depends on the probed ratio a/b: [+1] forward message arc
   (weight a), [-1] backward message arc (weight -b), [0] backward
   local arc (weight 0). *)
let build_aux g =
  let h = Digraph.create (Graph.event_count g) in
  let kinds = ref [] in
  List.iter
    (fun (e : Digraph.edge) ->
      if Graph.is_message g e then begin
        ignore (Digraph.add_edge h ~src:e.src ~dst:e.dst);
        kinds := 1 :: !kinds;
        ignore (Digraph.add_edge h ~src:e.dst ~dst:e.src);
        kinds := -1 :: !kinds
      end
      else begin
        ignore (Digraph.add_edge h ~src:e.dst ~dst:e.src);
        kinds := 0 :: !kinds
      end)
    (Digraph.edges (Graph.digraph g));
  (h, Array.of_list (List.rev !kinds))

(* Is there a relevant cycle with ratio >= num/den?  Nonpositive-cycle
   detection on the prebuilt graph via the rescale (M+1)*w - 1.  Path
   weights are bounded by n * ((M+1)*max(num,den) + 1), so native ints
   suffice whenever that product stays below 2^61; otherwise fall back
   to exact big-integer weights. *)
let viol_at h kinds ~num ~den =
  let mm = Digraph.edge_count h + 1 in
  let n = Digraph.node_count h + 1 in
  let amax = if num > den then num else den in
  if amax <= (1 lsl 61) / mm / n then begin
    let pos = (mm * num) - 1 and neg = -(mm * den) - 1 in
    let scaled (e : Digraph.edge) =
      let k = kinds.(e.id) in
      if k > 0 then pos else if k < 0 then neg else -1
    in
    BF_int.negative_cycle h ~weight:scaled <> None
  end
  else begin
    let mb = Bigint.of_int mm in
    let pos = Bigint.sub (Bigint.mul mb (Bigint.of_int num)) Bigint.one in
    let neg = Bigint.sub (Bigint.mul mb (Bigint.of_int (-den))) Bigint.one in
    let minus_one = Bigint.neg Bigint.one in
    let scaled (e : Digraph.edge) =
      let k = kinds.(e.id) in
      if k > 0 then pos else if k < 0 then neg else minus_one
    in
    BF_big.negative_cycle h ~weight:scaled <> None
  end

(* Simplest rational in the closed interval [lo, hi] (smallest
   denominator, then smallest numerator), by continued-fraction
   descent.  Requires 0 < lo <= hi.  No longer on the hot path (the
   parametric search below recovers the exact answer directly); kept
   as a test oracle for the Stern-Brocot machinery. *)
let rec simplest_between lo hi =
  let fl = Rat.floor lo in
  let fl_r = Rat.of_bigint fl in
  let cl = Rat.of_bigint (Rat.ceil lo) in
  if Rat.compare cl (Rat.of_bigint (Rat.floor hi)) <= 0 || Rat.is_integer lo then
    (* an integer lies in the interval *)
    if Rat.is_integer lo then lo else cl
  else
    (* lo and hi share the integer part fl; recurse on the fractional
       parts, inverted (which swaps the roles of lo and hi) *)
    let lo' = Rat.inv (Rat.sub hi fl_r) and hi' = Rat.inv (Rat.sub lo fl_r) in
    Rat.add fl_r (Rat.inv (simplest_between lo' hi'))

(** The maximum ratio [|Z−|/|Z+|] over the relevant cycles of [g]:
    [Some r] means [g] is admissible exactly for every [Ξ > r];
    [None] means every relevant cycle has ratio [≤ 1] (or there is no
    relevant cycle), so [g] is admissible for {e every} [Ξ > 1].

    Computed by exact binary search on the Stern–Brocot tree: the
    answer is a fraction with numerator and denominator at most the
    message count [m], and the probe [viol a b] ("is there a relevant
    cycle with ratio ≥ a/b?") is monotone, so descending the tree with
    galloped runs finds it in O(log² m) probes — every probe a cheap
    native-int Bellman–Ford on the one prebuilt auxiliary graph.  The
    descent maintains [L ≤ r* < R] with [viol L] true and [viol R]
    false; because consecutive Stern–Brocot bounds satisfy the
    unimodular relation, every fraction strictly between [L] and [R]
    has numerator ≥ num(L)+num(R) and denominator ≥ den(L)+den(R), so
    once either sum exceeds [m] no candidate remains and [r* = L]. *)
let max_relevant_ratio g =
  let m = Graph.message_count g in
  if m = 0 then None
  else begin
    let h, kinds = build_aux g in
    let viol num den = viol_at h kinds ~num ~den in
    (* Any relevant cycle with ratio > 1?  Candidate ratios have parts
       <= m, so the smallest candidate above 1 is >= (m+1)/m, and
       probing (2m+1)/2m < (m+1)/m decides it. *)
    if not (viol (m + m + 1) (m + m)) then None
    else begin
      (* L = pl/ql <= r* (viol true), R = pr/qr > r* (viol false;
         initially 1/0 = infinity). *)
      let pl = ref 1 and ql = ref 1 in
      let pr = ref 1 and qr = ref 0 in
      let exception Done in
      (try
         while true do
           if !pl + !pr > m || !ql + !qr > m then raise Done;
           if viol (!pl + !pr) (!ql + !qr) then begin
             (* Run right: find the largest k with viol (L + kR), by
                galloping then bisecting.  Termination: L + kR
                increases towards (or past) R > r*. *)
             let k = ref 1 in
             while viol (!pl + (2 * !k * !pr)) (!ql + (2 * !k * !qr)) do
               k := 2 * !k
             done;
             let lo = ref !k and hi = ref (2 * !k) in
             while !hi - !lo > 1 do
               let mid = (!lo + !hi) / 2 in
               if viol (!pl + (mid * !pr)) (!ql + (mid * !qr)) then lo := mid
               else hi := mid
             done;
             pl := !pl + (!lo * !pr);
             ql := !ql + (!lo * !qr)
           end
           else begin
             (* Run left: find the largest j with viol (jL + R) false.
                If L = r* that j is unbounded, so probe directly at
                jstop, the smallest j where a false answer already
                proves r* = L: fractions strictly inside (L, jL + R)
                have numerator ≥ (j+1)*num(L) + num(R) and denominator
                ≥ (j+1)*den(L) + den(R), so once either exceeds [m] no
                candidate remains. *)
             let jstop = ref 1 in
             while
               ((!jstop + 1) * !pl) + !pr <= m
               && ((!jstop + 1) * !ql) + !qr <= m
             do
               incr jstop
             done;
             if not (viol ((!jstop * !pl) + !pr) ((!jstop * !ql) + !qr)) then
               raise Done;
             (* viol is false at j = 1 (the mediant) and true at jstop:
                bisect for the largest false j in [1, jstop). *)
             let lo = ref 1 and hi = ref !jstop in
             while !hi - !lo > 1 do
               let mid = (!lo + !hi) / 2 in
               if viol ((mid * !pl) + !pr) ((mid * !ql) + !qr) then hi := mid
               else lo := mid
             done;
             pr := (!lo * !pl) + !pr;
             qr := (!lo * !ql) + !qr
           end
         done
       with Done -> ());
      assert (viol !pl !ql);
      Some (Rat.of_ints !pl !ql)
    end
  end

(** A Ξ for which [g] is provably admissible: [fallback] when [g] is
    already admissible for it, otherwise a rational just above the
    exact threshold.  The fuzz oracles use this to instantiate theorem
    hypotheses ("for every Ξ the execution is admissible for…") on
    executions produced by schedulers with no a-priori Θ bound.  The
    threshold alone decides it ([g] is admissible for [fallback] iff
    [fallback > r]), so no separate admissibility check runs. *)
let admissible_xi g ~fallback =
  if Rat.compare fallback Rat.one <= 0 then
    invalid_arg "Abc.admissible_xi: need fallback > 1";
  match max_relevant_ratio g with
  | None -> fallback
  | Some r ->
      if Rat.compare fallback r > 0 then fallback
      else Rat.add r (Rat.of_ints 1 8)

(** Convenience: smallest Ξ (exclusive bound) for which [g] is
    admissible, as a printable string. *)
let admissibility_threshold g =
  match max_relevant_ratio g with
  | None -> "1 (admissible for every Xi > 1)"
  | Some r -> Rat.to_string r
