(** Shard worker: the remote end of the frame protocol, over any
    {!Net.Transport}.

    A worker writes {!Frame.hello}, then reads {!Frame} messages —
    first a [M_spec] describing the campaign, then [M_request]s naming
    unit ranges — executes each unit with {!Work.exec_unit} (Obs
    capture on, so the reply carries the per-shard trace digest) and
    writes [M_done] replies.  A background domain emits [M_heartbeat]
    frames every {!heartbeat_interval} seconds so the supervisor can
    tell "computing a long unit" from "stalled": the beat keeps going
    {e during} computation, and the stall nemesis silences it.

    One loop ({!serve_conn}) serves every connection; only where the
    connection comes from differs ({!mode}):

    - {e Pipe} ([abc worker], or any binary spawned by [--shards]):
      the supervisor's pipe pair on stdin/stdout; the worker exits
      when the connection ends.
    - {e Listen} ([abc serve --listen HOST:PORT]): bind a socket and
      serve one supervisor connection at a time, going back to
      accepting when it ends, so one long-lived process can serve many
      campaigns; the supervisor dials it via [--workers].
    - {e Connect} ([abc serve --connect HOST:PORT]): dial a supervisor
      running with [--listen] and {e self-register}.  If the
      connection drops before the supervisor says [M_quit], redial
      with {!Net.Backoff}, then give up when the budget is spent.

    Workers are not a separate binary but {e this} binary re-executed
    with [ABC_DIST_WORKER] in the environment: {!maybe_run} at the top
    of an entry point turns any host executable (the CLI, the test
    runner, the bench harness) into its own worker, which is what lets
    the supervisor default to [Sys.executable_name] and keeps the
    protocol version trivially in lockstep with the spawner.

    Every nemesis fault a worker can inject ({!Nemesis.fault}) lives
    here, keyed on (worker id, unit ordinal) — fully deterministic, no
    clocks involved.  Ordinals are lifetime totals of the process,
    shared across reconnects, so a fault plan stays deterministic for
    a given dispatch history even when a socket connection bounces. *)

module Transport = Net.Transport

let heartbeat_interval = 0.25

let env_var = "ABC_DIST_WORKER"

type mode =
  | Pipe  (** frames on stdin/stdout, spawned by a supervisor *)
  | Listen of Transport.addr  (** accept supervisor connections *)
  | Connect of Transport.addr  (** dial a supervisor and self-register *)

type cfg = {
  id : int;
  mode : mode;
  nemesis : Nemesis.t;
  max_frame : int;  (** payload cap, as the supervisor's [--max-frame] *)
  once : bool;  (** socket modes: exit after the first peer-ended connection *)
}

let cfg ?(nemesis = Nemesis.none) ?(max_frame = Frame.max_payload)
    ?(once = false) ~id mode =
  { id; mode; nemesis; max_frame; once }

let say fmt = Printf.ksprintf (fun s -> Printf.eprintf "worker: %s\n%!" s) fmt

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* {!Obs.capture} is process-global (one start/drain pair at a time),
   so unit executions must never overlap within a process — and a
   connect-mode worker can hold several connections (the
   duplicate-registration nemesis), where an interleaved capture
   would corrupt both shard digests. *)
let exec_lock = Mutex.create ()

(** Compute the reply for one unit request.  A raising unit becomes
    [M_error] (the worker itself stays up); [flip] corrupts the
    verdict checksum, the divergent-shard nemesis. *)
let exec_reply (sp : Work.spec) ~unit_id ~lo ~hi ~flip : Frame.msg =
  Mutex.lock exec_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock exec_lock)
    (fun () ->
      match Work.exec_unit sp ~unit_id ~lo ~hi ~capture:true with
      | exception e -> Frame.M_error { unit_id; message = Printexc.to_string e }
      | blob ->
          let blob =
            if flip then
              {
                blob with
                Work.b_checksum = Digest.to_hex (Digest.string "divergent");
              }
            else blob
          in
          Frame.M_done { unit_id; blob = Work.encode_blob blob })

(* Writes from the request loop and the heartbeat domain share the
   transport; one mutex per connection keeps frames whole.  A failed
   write is dropped: a dead peer shows up as EOF on the next read. *)
type conn = { lock : Mutex.t; tr : Transport.t }

let send c s =
  Mutex.lock c.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.lock)
    (fun () -> try Transport.write c.tr s with _ -> ())

(* How a connection ended, which decides what happens next. *)
type conn_end =
  | C_quit  (** supervisor said [M_quit]: the campaign is over *)
  | C_peer  (** EOF, corrupt stream or protocol violation from the peer *)
  | C_self  (** we hung up on purpose (ndrop): the peer will retry *)

(** Serve one established connection until it ends.  [ordinal] is
    the process-wide unit counter; [redial] opens the duplicate
    registration of the [ndup] fault. *)
let serve_conn (cfg : cfg) ~(ordinal : int Atomic.t) ~redial (tr : Transport.t)
    : conn_end =
  let c = { lock = Mutex.create (); tr } in
  (* handshake before anything else: the supervisor discards whatever
     the host binary printed before the frame channel was claimed, up
     to this marker, and is strict from here on *)
  send c Frame.hello;
  let alive = Atomic.make true in
  let beating = Atomic.make true in
  let hb =
    Domain.spawn (fun () ->
        while Atomic.get alive do
          Unix.sleepf heartbeat_interval;
          if Atomic.get alive && Atomic.get beating then
            send c (Frame.encode Frame.M_heartbeat)
        done)
  in
  let finish res =
    Atomic.set alive false;
    (try Domain.join hb with _ -> ());
    Transport.close tr;
    res
  in
  let parser = Frame.parser_create ~max_payload:cfg.max_frame () in
  let buf = Bytes.create 65536 in
  let rec recv () =
    match Frame.next parser with
    | Ok (Some m) -> Some m
    | Error _ -> None
    | Ok None -> (
        match Transport.read tr buf 0 (Bytes.length buf) with
        | 0 | (exception _) -> None
        | n ->
            Frame.feed parser buf n;
            recv ())
  in
  let spec : Work.spec option ref = ref None in
  let rec loop () =
    match recv () with
    | None | Some (Frame.M_heartbeat | Frame.M_done _ | Frame.M_error _) ->
        finish C_peer
    | Some Frame.M_quit -> finish C_quit
    | Some (Frame.M_spec s) -> (
        match (Marshal.from_string s 0 : Work.spec) with
        | sp ->
            spec := Some sp;
            loop ()
        | exception _ -> finish C_peer)
    | Some (Frame.M_request { unit_id; lo; hi }) -> (
        let ord = Atomic.fetch_and_add ordinal 1 + 1 in
        match !spec with
        | None -> finish C_peer (* request before spec *)
        | Some sp -> (
            let reply ~flip = Frame.encode (exec_reply sp ~unit_id ~lo ~hi ~flip) in
            match Nemesis.fault_for cfg.nemesis ~worker:cfg.id ~ordinal:ord with
            | Some Nemesis.Stall ->
                (* alive but silent, holding the shard: the heartbeat
                   timeout is the only way the supervisor gets it back *)
                Atomic.set beating false;
                while true do
                  Unix.sleepf 3600.0
                done;
                assert false
            | Some Nemesis.Trunc ->
                send c Frame.truncated;
                kill_self ();
                assert false
            | Some Nemesis.Corrupt ->
                (* a well-framed-looking reply whose CRC cannot match:
                   the supervisor must abandon this stream *)
                send c Frame.garbage;
                loop ()
            | Some Nemesis.NDrop ->
                (* half the real reply, then hang up; a socket worker
                   survives and serves the reconnect *)
                let bytes = reply ~flip:false in
                send c (String.sub bytes 0 (String.length bytes / 2));
                finish C_self
            | Some Nemesis.NPartial ->
                (* the same bytes, dribbled: proves the supervisor
                   reassembles frames across segment boundaries *)
                let bytes = reply ~flip:false in
                let n = String.length bytes in
                let cut = min n 11 in
                for i = 0 to cut - 1 do
                  send c (String.sub bytes i 1);
                  Unix.sleepf 0.002
                done;
                send c (String.sub bytes cut (n - cut));
                loop ()
            | fault ->
                let bytes = reply ~flip:(fault = Some Nemesis.Flip) in
                send c bytes;
                (match fault with
                | Some Nemesis.Dup -> send c bytes (* the late duplicate *)
                | Some Nemesis.Kill -> kill_self () (* at the shard boundary *)
                | Some Nemesis.NDup -> redial ()
                | _ -> ());
                loop ()))
  in
  loop ()

let redial_budget = 30

let run (cfg : cfg) : 'a =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ordinal = Atomic.make 0 in
  (* ndup: dial the supervisor once more and serve that connection in
     a fresh domain, sharing the ordinal counter — only a
     self-registering worker can register twice *)
  let redial () =
    match cfg.mode with
    | Pipe | Listen _ -> ()
    | Connect addr -> (
        match Transport.connect addr with
        | Error e -> say "ndup redial failed: %s" e
        | Ok tr ->
            ignore
              (Domain.spawn (fun () ->
                   ignore (serve_conn cfg ~ordinal ~redial:ignore tr))))
  in
  let serve tr = serve_conn cfg ~ordinal ~redial tr in
  (* nrefuse: is the next connection one to slam shut before the
     handshake? *)
  let conns = ref 0 in
  let refuse () =
    incr conns;
    Nemesis.conn_fault_for cfg.nemesis ~worker:cfg.id ~conn:!conns
  in
  match cfg.mode with
  | Pipe ->
      (* stdout IS the frame channel: claim the fd, then repoint fd 1
         at stderr so a stray print from the host binary (a
         test-harness banner, a debug printf in an oracle) cannot tear
         a frame.  Whatever the host had buffered on the stdout
         channel flushes to stderr after the repoint instead of
         landing between frames.  A pipe cannot redial, so the
         worker's life is this one connection. *)
      let frame_fd = Unix.dup Unix.stdout in
      Unix.dup2 Unix.stderr Unix.stdout;
      ignore (serve (Transport.of_pipe ~read_fd:Unix.stdin ~write_fd:frame_fd));
      exit 0
  | Listen addr -> (
      match Transport.listen addr with
      | Error e ->
          say "%s" e;
          exit 2
      | Ok l ->
          say "listening on %s (worker %d)"
            (Transport.addr_to_string (Transport.bound_addr l))
            cfg.id;
          let rec accept_loop () =
            match Transport.accept l with
            | Error e ->
                say "accept: %s" e;
                accept_loop ()
            | Ok tr when refuse () ->
                Transport.close tr;
                accept_loop ()
            | Ok tr -> (
                match serve tr with
                | (C_quit | C_peer) when cfg.once ->
                    Transport.close_listener l;
                    exit 0
                | _ -> accept_loop ())
          in
          accept_loop ())
  | Connect addr ->
      let rec dial_loop attempt =
        if attempt > redial_budget then begin
          say "supervisor unreachable after %d dials, giving up" redial_budget;
          exit 2
        end;
        let again () =
          Unix.sleepf (Net.Backoff.delay ~salt:777_767 ~key:cfg.id ~attempt);
          dial_loop (attempt + 1)
        in
        if refuse () then begin
          (* register, then slam the door before the handshake: the
             supervisor sees a silent connection die *)
          (match Transport.connect addr with
          | Ok tr -> Transport.close tr
          | Error _ -> ());
          again ()
        end
        else
          match Transport.connect addr with
          | Error e ->
              say "dial %s: %s (attempt %d)" (Transport.addr_to_string addr) e
                attempt;
              again ()
          | Ok tr -> (
              match serve tr with
              | C_quit -> exit 0
              | C_peer when cfg.once -> exit 0
              | C_peer | C_self ->
                  (* our own ndrop hangup: the supervisor expects the
                     reconnect even under --once *)
                  again ())
      in
      dial_loop 1

(* ------------------------------------------------------------------ *)
(* Environment handshake (self-exec) *)

(* "id=3;nem=kill:3@1;mf=4096" for a pipe worker;
   "id=1;mode=listen;addr=unix:/tmp/w.sock;once=1" for a socket one *)
let parse_env (s : string) : (cfg, string) result =
  let fields =
    String.split_on_char ';' s
    |> List.filter_map (fun f ->
           let f = String.trim f in
           match String.index_opt f '=' with
           | Some i -> Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
           | None -> None)
  in
  let find k = List.assoc_opt k fields in
  let fail what = Error (env_var ^ ": " ^ what) in
  let ( let* ) = Result.bind in
  let* id =
    match Option.bind (find "id") int_of_string_opt with
    | Some id -> Ok id
    | None -> fail "missing or bad id="
  in
  let* mode =
    match (find "mode", find "addr") with
    | None, None -> Ok Pipe
    | None, Some _ -> fail "missing mode="
    | Some _, None -> fail "missing addr="
    | Some m, Some a -> (
        match (m, Transport.addr_of_string a) with
        | _, Error e -> fail e
        | "listen", Ok addr -> Ok (Listen addr)
        | "connect", Ok addr -> Ok (Connect addr)
        | m, Ok _ -> fail ("bad mode " ^ m))
  in
  let* nemesis =
    match find "nem" with
    | None | Some "" -> Ok Nemesis.none
    | Some n -> Result.map_error (fun e -> env_var ^ ": " ^ e) (Nemesis.parse n)
  in
  let max_frame =
    match Option.bind (find "mf") int_of_string_opt with
    | Some m when m >= 1 -> m
    | _ -> Frame.max_payload
  in
  Ok { id; mode; nemesis; max_frame; once = find "once" = Some "1" }

(** Call first thing in any binary that may serve as a worker: if
    [ABC_DIST_WORKER] is set, enter the worker loop and never return.
    A no-op otherwise. *)
let maybe_run () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
      match parse_env s with
      | Ok cfg -> run cfg
      | Error e ->
          prerr_endline ("worker: " ^ e);
          exit 2)

(** The environment binding that self-execs a worker with [cfg] — set
    by the supervisor when spawning, and by tests or scripts starting
    socket workers.  Only this worker's nemesis faults travel. *)
let env_binding (cfg : cfg) =
  let b = Buffer.create 64 in
  Printf.bprintf b "%s=id=%d" env_var cfg.id;
  (match cfg.mode with
  | Pipe -> ()
  | Listen a -> Printf.bprintf b ";mode=listen;addr=%s" (Transport.addr_to_string a)
  | Connect a -> Printf.bprintf b ";mode=connect;addr=%s" (Transport.addr_to_string a));
  let nem = Nemesis.worker_spec cfg.nemesis ~worker:cfg.id in
  if nem <> "" then Printf.bprintf b ";nem=%s" nem;
  if cfg.max_frame <> Frame.max_payload then Printf.bprintf b ";mf=%d" cfg.max_frame;
  if cfg.once then Buffer.add_string b ";once=1";
  Buffer.contents b
