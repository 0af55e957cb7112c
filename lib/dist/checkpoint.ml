(** Write-ahead checkpoint journal for sharded runs.

    Layout:
    {v
      header : "ABCDIST" <version:1> <fingerprint:32>   (40 bytes)
      record : <len:4 BE> <crc32:4 BE> <payload:len>    (repeated)
    v}

    The fingerprint is the hex MD5 of the {e canonical spec string}
    ({!Work.fingerprint}): a journal can only resume the exact
    campaign that wrote it — same seed, same case count, same oracle
    selection, same unit size — because unit ids are only meaningful
    against that partition.

    Durability contract: the header is written to a temp file,
    fsync'd, and renamed into place ([create]), so a journal either
    exists with a complete header or not at all; each accepted unit is
    appended as one CRC'd record and fsync'd before the supervisor
    counts it as merged ([append]).  A crash mid-append leaves a
    truncated or CRC-broken {e tail}, which [load] silently drops —
    that unit simply re-runs on resume.  A bad magic, unsupported
    version, or foreign fingerprint is a {e hard} error: resuming a
    different campaign's journal must fail loudly, not quietly re-run
    everything.

    Records are [(unit_id, blob)] pairs; on replayed or re-dispatched
    units the journal may contain several records for one id — the
    {e last} valid one wins, so a supervisor that re-ran a divergent
    shard just appends the arbitrated result. *)

let magic = "ABCDIST"
let version = '\001'

type t = { fd : Unix.file_descr; path : string }

let fsync fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let header ~fingerprint =
  if String.length fingerprint <> 32 then
    invalid_arg "Checkpoint: fingerprint must be 32 hex chars";
  magic ^ String.make 1 version ^ fingerprint

let header_len = 7 + 1 + 32

let rec write_all fd s pos =
  if pos < String.length s then
    write_all fd s (pos + Unix.write_substring fd s pos (String.length s - pos))

(** Create a fresh journal (truncating any previous file at [path]):
    header goes to [path ^ ".tmp"], fsync, rename — atomic on POSIX. *)
let create ~path ~fingerprint : t =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  write_all fd (header ~fingerprint) 0;
  fsync fd;
  Unix.close fd;
  Unix.rename tmp path;
  let fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 in
  { fd; path }

(* The first [limit] bytes of the file (all of it by default), then
   the header validation shared by {!load} and {!reopen}: magic,
   version and campaign fingerprint must all match before any byte of
   the journal is trusted. *)
let read_checked ?limit ~path ~fingerprint () : (string, string) result =
  match Unix.openfile path [ O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot open checkpoint %s: %s" path
           (Unix.error_message e))
  | fd -> (
      let data =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let want = Option.value limit ~default:(Unix.fstat fd).st_size in
            let data = Bytes.create want in
            let rec fill got =
              if got = want then got
              else
                match Unix.read fd data got (want - got) with
                | 0 -> got
                | n -> fill (got + n)
            in
            Bytes.sub_string data 0 (fill 0))
      in
      if String.length data < header_len then
        Error (Printf.sprintf "checkpoint %s: truncated header" path)
      else if String.sub data 0 7 <> magic then
        Error (Printf.sprintf "checkpoint %s: bad magic (not a journal)" path)
      else if data.[7] <> version then
        Error
          (Printf.sprintf
             "checkpoint %s: version %d, this binary writes version %d" path
             (Char.code data.[7]) (Char.code version))
      else if String.sub data 8 32 <> fingerprint then
        Error
          (Printf.sprintf
             "checkpoint %s: fingerprint %s does not match this campaign (%s) \
              — wrong seed, case count, oracle selection or shard layout"
             path (String.sub data 8 32) fingerprint)
      else Ok data)

(** Reopen an existing journal for appending (after {!load}).
    Re-verifies the header even though {!load} already did: between
    the validation and the append — or between a [--resume] flag and
    whatever worker endpoint set it is mixed with — the path can have
    been swapped for a different campaign's journal, and appending
    foreign-partition unit ids must fail loudly, not corrupt a
    journal that would later resume cleanly. *)
let reopen ~path ~fingerprint : (t, string) result =
  Result.map
    (fun _ -> { fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644; path })
    (read_checked ~limit:header_len ~path ~fingerprint ())

let append (t : t) ~unit_id ~(blob : string) =
  let payload = Marshal.to_string (unit_id, blob) [] in
  let b = Buffer.create (String.length payload + 8) in
  Frame.put_u32 b (String.length payload);
  Frame.put_u32 b
    (Int32.to_int (Frame.crc32 payload ~pos:0 ~len:(String.length payload))
    land 0xFFFFFFFF);
  Buffer.add_string b payload;
  write_all t.fd (Buffer.contents b) 0;
  fsync t.fd

let close (t : t) = try Unix.close t.fd with Unix.Unix_error _ -> ()

(** Load every valid record.  [Ok l] lists [(unit_id, blob)] in append
    order (callers apply last-wins); a corrupt or truncated {e tail}
    ends the list silently — that is the crash-mid-write recovery
    path.  [Error _] means the file cannot belong to this run: bad
    magic, unsupported version, or a fingerprint from a different
    campaign — each diagnostic says which. *)
let load ~path ~fingerprint : ((int * string) list, string) result =
  Result.map
    (fun data ->
      let have = String.length data in
      let rec records acc pos =
        if pos + 8 > have then acc
        else
          let rlen = Frame.get_u32 data pos in
          if rlen > Frame.max_payload || pos + 8 + rlen > have then acc
            (* truncated tail *)
          else
            let crc_real =
              Int32.to_int (Frame.crc32 data ~pos:(pos + 8) ~len:rlen)
              land 0xFFFFFFFF
            in
            if Frame.get_u32 data (pos + 4) <> crc_real then acc (* corrupt tail *)
            else
              match (Marshal.from_string data (pos + 8) : int * string) with
              | r -> records (r :: acc) (pos + 8 + rlen)
              | exception _ -> acc
      in
      List.rev (records [] header_len))
    (read_checked ~path ~fingerprint ())
