(** Harness-level nemesis: structured faults injected into the shard
    runner {e itself} — the same philosophy as [lib/byz], aimed at our
    own supervisor/worker protocol instead of the simulated processes.

    A plan is a comma-separated spec, deterministic by construction
    (faults key on worker id and per-worker unit ordinal, never on
    time):

    {v
      kill:W@S      worker W SIGKILLs itself after sending its S-th
                    result — death exactly at a shard boundary
      stall:W@S     worker W stops heartbeating and sleeps forever
                    instead of computing its S-th unit (the SIGSTOP
                    shape: alive, silent, holding a shard)
      corrupt:W@S   worker W answers its S-th unit with a CRC-broken
                    frame, then continues normally
      trunc:W@S     worker W writes half a frame header for its S-th
                    unit and SIGKILLs itself mid-write
      dup:W@S       worker W sends its S-th result twice (the late
                    duplicate-reply shape)
      flip:W@S      worker W sends a well-formed frame whose payload
                    checksum does not match its evals — a {e divergent}
                    shard result, exercising quarantine + re-run
      skill@S       the supervisor itself dies (raises
                    {!Supervisor_killed}) right after merging and
                    checkpointing its S-th unit — the --resume test
    v}

    Network faults.  Every worker runs the same loop, so [ndrop] and
    [npartial] act on pipe workers too; [nrefuse] and [ndup] need a
    socket worker ([abc serve]) and are inert on a pipe:

    {v
      nrefuse:W@K   serve worker W slams its K-th {e connection} shut
                    before the handshake — the connect-refused shape
                    (K counts connections, not units)
      ndrop:W@S     worker W computes its S-th unit, writes half the
                    result frame, and drops the connection — the
                    mid-frame disconnect; a socket worker survives and
                    serves the reconnect, a pipe worker (which cannot
                    redial) exits
      npartial:W@S  worker W dribbles its S-th result out in tiny
                    delayed writes — a benign fault proving the
                    supervisor reassembles frames across read
                    boundaries
      ndup:W@S      after its S-th result, a {e self-registering}
                    worker (abc serve --connect) opens a duplicate
                    registration, so the supervisor sees the same
                    worker twice; inert for listening workers
    v}

    Ordinals [S] are 1-based.  Worker ids name {e initial} spawn slots;
    replacement workers get fresh ids beyond the initial range, so a
    fault fires at most once and a re-dispatched shard lands on a
    clean worker.  Socket workers keep their id (and their ordinal
    counters) across reconnects — their faults are keyed on lifetime
    totals of the serve process, deterministic for a given dispatch
    history. *)

type fault =
  | Kill
  | Stall
  | Corrupt
  | Trunc
  | Dup
  | Flip
  | NRefuse
  | NDrop
  | NPartial
  | NDup

type t = {
  worker_faults : (int * int * fault) list;
      (** (worker id, 1-based unit ordinal, fault) *)
  supervisor_kill : int option;  (** merged-unit count to die after *)
}

let none = { worker_faults = []; supervisor_kill = None }
let is_none t = t.worker_faults = [] && t.supervisor_kill = None

exception Supervisor_killed of int
(** Raised by the supervisor after merging the configured number of
    units (checkpoint already fsync'd); the CLI lets it escape as a
    crash, tests catch it and resume. *)

let fault_name = function
  | Kill -> "kill"
  | Stall -> "stall"
  | Corrupt -> "corrupt"
  | Trunc -> "trunc"
  | Dup -> "dup"
  | Flip -> "flip"
  | NRefuse -> "nrefuse"
  | NDrop -> "ndrop"
  | NPartial -> "npartial"
  | NDup -> "ndup"

let fault_of_name = function
  | "kill" -> Some Kill
  | "stall" -> Some Stall
  | "corrupt" -> Some Corrupt
  | "trunc" -> Some Trunc
  | "dup" -> Some Dup
  | "flip" -> Some Flip
  | "nrefuse" -> Some NRefuse
  | "ndrop" -> Some NDrop
  | "npartial" -> Some NPartial
  | "ndup" -> Some NDup
  | _ -> None

let to_string t =
  String.concat ","
    (List.map
       (fun (w, s, f) -> Printf.sprintf "%s:%d@%d" (fault_name f) w s)
       t.worker_faults
    @ match t.supervisor_kill with
      | None -> []
      | Some s -> [ Printf.sprintf "skill@%d" s ])

let parse (spec : string) : (t, string) result =
  let items =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc skill = function
    | [] -> Ok { worker_faults = List.rev acc; supervisor_kill = skill }
    | item :: rest -> (
        match String.index_opt item '@' with
        | None -> Error (Printf.sprintf "nemesis item %S: missing '@ordinal'" item)
        | Some at -> (
            let head = String.sub item 0 at in
            let ord = String.sub item (at + 1) (String.length item - at - 1) in
            match int_of_string_opt ord with
            | None | Some 0 ->
                Error
                  (Printf.sprintf "nemesis item %S: ordinal must be a positive int" item)
            | Some s when s < 0 ->
                Error
                  (Printf.sprintf "nemesis item %S: ordinal must be a positive int" item)
            | Some s -> (
                if head = "skill" then
                  match skill with
                  | Some _ -> Error "nemesis: duplicate skill@ item"
                  | None -> go acc (Some s) rest
                else
                  match String.index_opt head ':' with
                  | None ->
                      Error
                        (Printf.sprintf "nemesis item %S: expected FAULT:WORKER@ORDINAL" item)
                  | Some colon -> (
                      let fname = String.sub head 0 colon in
                      let wid = String.sub head (colon + 1) (String.length head - colon - 1) in
                      match (fault_of_name fname, int_of_string_opt wid) with
                      | None, _ ->
                          Error (Printf.sprintf "nemesis item %S: unknown fault %S" item fname)
                      | _, None ->
                          Error (Printf.sprintf "nemesis item %S: bad worker id %S" item wid)
                      | Some f, Some w when w >= 0 -> go ((w, s, f) :: acc) skill rest
                      | _ -> Error (Printf.sprintf "nemesis item %S: bad worker id %S" item wid)))))
  in
  go [] None items

(** The fault worker [w] must inject on its [ordinal]-th assigned
    unit, if any.  At most one fault per (worker, ordinal): the first
    listed wins.  {!NRefuse} is connection-keyed, not unit-keyed, so
    it never fires here — see {!conn_fault_for}. *)
let fault_for t ~worker ~ordinal =
  List.find_map
    (fun (w, s, f) ->
      if w = worker && s = ordinal && f <> NRefuse then Some f else None)
    t.worker_faults

(** Should worker [w] refuse its [conn]-th accepted (or dialed)
    connection?  Only {!NRefuse} keys on connection ordinals. *)
let conn_fault_for t ~worker ~conn =
  List.exists
    (fun (w, s, f) -> w = worker && s = conn && f = NRefuse)
    t.worker_faults

(** The spec substring a worker needs (its own faults only), for the
    [ABC_DIST_WORKER] environment handshake. *)
let worker_spec t ~worker =
  to_string
    {
      worker_faults = List.filter (fun (w, _, _) -> w = worker) t.worker_faults;
      supervisor_kill = None;
    }
