(** Length-prefixed, CRC-guarded frames over byte streams.

    The shard protocol runs over a {!Net.Transport} — a pipe pair to
    a child process or a socket — so a dying or malicious peer can
    hand its reader {e any} byte sequence: a frame cut mid-header, a
    frame whose payload was scribbled over, a valid frame repeated.  Every frame therefore
    carries a magic, a type byte, a big-endian payload length and a
    CRC-32 of the payload:

    {v 'A' 'B' <type> <len:4 BE> <crc32:4 BE> <payload:len> v}

    Both ends parse incrementally ({!parser}); any violation —
    bad magic, unknown type, implausible length, CRC mismatch — is
    {e unrecoverable} for that stream ([Error]), because after
    corruption there is no way to find the next frame boundary without
    trusting the corrupted bytes.  The supervisor's move is to kill
    the worker and re-dispatch its work, never to resynchronize; a
    worker facing a corrupt supervisor stream hangs up.

    {!garbage} and {!truncated} exist for the harness nemesis: a
    deliberately CRC-broken frame and a frame cut short mid-header. *)

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — table-based, no
   external dependency.  Int32 keeps it exact on 32- and 64-bit. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_bytes (b : Bytes.t) ~pos ~len : int32 =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let crc32 (s : string) ~pos ~len = crc32_bytes (Bytes.unsafe_of_string s) ~pos ~len

type msg =
  | M_spec of string  (** marshaled {!Work.spec}, supervisor → worker *)
  | M_request of { unit_id : int; lo : int; hi : int }
  | M_heartbeat  (** worker liveness, sent while a unit computes *)
  | M_done of { unit_id : int; blob : string }  (** marshaled {!Work.blob} *)
  | M_error of { unit_id : int; message : string }
      (** the unit raised in the worker; the worker itself is alive *)
  | M_quit  (** supervisor → worker: drain and exit 0 *)

(* A payload length beyond the cap is treated as corruption, not as a
   frame to wait for — it would otherwise make the reader buffer (or
   [Bytes.create]) unbounded garbage before detecting the bad CRC.
   The default is generous; [--max-frame] tightens it per run, on
   both ends, and the parser enforces it {e before} buffering the
   payload. *)
let max_payload = 256 * 1024 * 1024

let type_byte = function
  | M_spec _ -> 'S'
  | M_request _ -> 'R'
  | M_heartbeat -> 'H'
  | M_done _ -> 'D'
  | M_error _ -> 'E'
  | M_quit -> 'Q'

(* Big-endian u32 fields, shared with {!Checkpoint}'s records. *)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFFFFFF
let get_u32 s pos = u32 (Bytes.unsafe_of_string s) pos

let payload_of = function
  | M_spec s -> s
  | M_request { unit_id; lo; hi } -> Printf.sprintf "%d %d %d" unit_id lo hi
  | M_heartbeat -> ""
  | M_done { unit_id; blob } ->
      let b = Buffer.create (String.length blob + 4) in
      put_u32 b unit_id;
      Buffer.add_string b blob;
      Buffer.contents b
  | M_error { unit_id; message } ->
      let b = Buffer.create (String.length message + 4) in
      put_u32 b unit_id;
      Buffer.add_string b message;
      Buffer.contents b
  | M_quit -> ""

let msg_of_payload ty payload =
  match ty with
  | 'S' -> Ok (M_spec payload)
  | 'R' -> (
      match String.split_on_char ' ' payload with
      | [ u; l; h ] -> (
          match (int_of_string_opt u, int_of_string_opt l, int_of_string_opt h) with
          | Some unit_id, Some lo, Some hi -> Ok (M_request { unit_id; lo; hi })
          | _ -> Error "malformed request payload")
      | _ -> Error "malformed request payload")
  | 'H' -> Ok M_heartbeat
  | 'D' ->
      if String.length payload < 4 then Error "short done payload"
      else
        Ok
          (M_done
             {
               unit_id = get_u32 payload 0;
               blob = String.sub payload 4 (String.length payload - 4);
             })
  | 'E' ->
      if String.length payload < 4 then Error "short error payload"
      else
        Ok
          (M_error
             {
               unit_id = get_u32 payload 0;
               message = String.sub payload 4 (String.length payload - 4);
             })
  | 'Q' -> Ok M_quit
  | c -> Error (Printf.sprintf "unknown frame type %C" c)

let encode (m : msg) : string =
  let payload = payload_of m in
  let b = Buffer.create (String.length payload + 11) in
  Buffer.add_string b "AB";
  Buffer.add_char b (type_byte m);
  put_u32 b (String.length payload);
  put_u32 b
    (Int32.to_int (crc32 payload ~pos:0 ~len:(String.length payload))
    land 0xFFFFFFFF);
  Buffer.add_string b payload;
  Buffer.contents b

(** A frame whose CRC cannot match its payload: header promises one
    payload, the bytes on the wire are different.  For the nemesis. *)
let garbage =
  let b = Bytes.of_string (encode M_heartbeat) in
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0xFF));
  Bytes.to_string b

(** Half a header, then nothing — what a worker killed mid-write
    leaves on the wire.  For the nemesis. *)
let truncated = String.sub (encode (M_done { unit_id = 0; blob = "truncated" })) 0 7

(* ------------------------------------------------------------------ *)
(* Incremental parsing *)

(** The worker handshake: the first thing a worker writes on its frame
    channel.  Everything {e before} it is preamble the host binary
    leaked (a test-harness banner, a stray printf during module
    initialization — anything that ran before {!Worker.maybe_run}
    could claim the fd) and is discarded; everything after is framed,
    strictly.  A stream that produces this much output without the
    marker is not a worker. *)
let hello = "ABCDIST-WORKER-1\n"

let max_preamble = 65536

(* Unconsumed bytes live in [buf] at [off, off + len).  Consumed
   bytes are reclaimed lazily by {!feed}, so draining k buffered
   frames costs O(bytes), not O(k * bytes). *)
type parser = {
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable await_hello : bool;
  max : int;
}

let parser_create ?(await_hello = false) ?(max_payload = max_payload) () =
  if max_payload < 1 then invalid_arg "Frame.parser_create: max_payload must be >= 1";
  { buf = Bytes.create 4096; off = 0; len = 0; await_hello; max = max_payload }

let awaiting_hello p = p.await_hello

(* When the tail is full, slide the live bytes to the front if at
   least as many are consumed as live (each byte moves O(1) times
   amortized), else grow the buffer. *)
let feed p (b : Bytes.t) n =
  let cap = Bytes.length p.buf in
  if p.off + p.len + n > cap then begin
    let dst =
      if p.off >= p.len && p.len + n <= cap then p.buf
      else Bytes.create (max (2 * cap) (p.len + n))
    in
    Bytes.blit p.buf p.off dst 0 p.len;
    p.buf <- dst;
    p.off <- 0
  end;
  Bytes.blit b 0 p.buf (p.off + p.len) n;
  p.len <- p.len + n

let consume p n =
  p.off <- p.off + n;
  p.len <- p.len - n;
  if p.len = 0 then p.off <- 0

(* Offset of the first [hello] in the unconsumed bytes, if any. *)
let find_hello p =
  let hn = String.length hello in
  let rec matches i j =
    j = hn || (Bytes.get p.buf (i + j) = hello.[j] && matches i (j + 1))
  in
  let rec go i =
    if i + hn > p.off + p.len then None
    else if matches i 0 then Some (i - p.off)
    else go (i + 1)
  in
  go p.off

(** Extract the next complete frame.  [Ok None] = need more bytes;
    [Error _] = the stream is corrupt and must be abandoned. *)
let rec next (p : parser) : (msg option, string) result =
  if p.await_hello then
    match find_hello p with
    | Some i ->
        p.await_hello <- false;
        consume p (i + String.length hello);
        next p
    | None ->
        if p.len > max_preamble then Error "no worker handshake in the first 64KiB"
        else Ok None
  else if p.len < 11 then Ok None
  else
    let b = p.buf and o = p.off in
    if not (Bytes.get b o = 'A' && Bytes.get b (o + 1) = 'B') then
      Error "bad frame magic"
    else
      let len = u32 b (o + 3) in
      if len > p.max then
        Error (Printf.sprintf "frame length %d exceeds the %d-byte cap" len p.max)
      else if p.len < 11 + len then Ok None
      else if u32 b (o + 7) <> Int32.to_int (crc32_bytes b ~pos:(o + 11) ~len) land 0xFFFFFFFF
      then Error "frame crc mismatch"
      else
        let ty = Bytes.get b (o + 2) and payload = Bytes.sub_string b (o + 11) len in
        consume p (11 + len);
        Result.map Option.some (msg_of_payload ty payload)
