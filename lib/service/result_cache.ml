(* Content-addressed durable result cache.

   On-disk record (one Durable payload, tab-separated; the canonical string
   goes last and the config compact form is token-shaped, so fields parse
   unambiguously):

     v2 TAB generation TAB key TAB source TAB runtime%h TAB gflops%h
        TAB predicted%h TAB trials TAB config TAB canonical

   Runtimes travel as hex floats so a reloaded entry is bit-identical to
   the one that was stored; [predicted] is the noise-free analytic price of
   the stored config, carried so the auditor can demand a bit-identical
   reprice.  "v1" records (which lacked the analytic price) read as stale —
   a schema bump is a soft invalidation, exactly like a generation change. *)

let key_of_canonical = Verify.Audit.content_key

type entry = {
  key : string;
  canonical : string;
  source : Protocol.source;
  runtime_us : float;
  gflops : float;
  predicted_us : float;
  trials : int;
  config : Core.Config.t;
}

type t = {
  path : string;
  generation : string;
  table : (string, entry) Hashtbl.t;  (* key -> newest entry *)
  audit : bool;
  mutable dropped : int;
  mutable stale : int;
  mutable audited : int;
  mutable rejected : int;
  mutable quarantined : int;
  mutable scrubbed : int;
  mutable scrub_cursor : string list;  (* keys left in the current pass *)
}

let kind = "service-cache"

let no_framing_hazard s =
  not (String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') s)

let to_line ~generation e =
  if not (no_framing_hazard e.canonical) then
    invalid_arg "Result_cache: tab or newline in canonical string";
  if not (Float.is_finite e.runtime_us && e.runtime_us > 0.0) then
    invalid_arg "Result_cache: non-finite or non-positive runtime";
  Printf.sprintf "v2\t%s\t%s\t%s\t%h\t%h\t%h\t%d\t%s\t%s" generation e.key
    (Protocol.source_to_string e.source)
    e.runtime_us e.gflops e.predicted_us e.trials
    (Core.Config.to_compact e.config)
    e.canonical

(* A record that survived its checksum but fails to decode is reported with
   a reason token: audited loads quarantine it (the bytes are evidence of
   *semantic* corruption, which framing CRCs cannot see), plain loads count
   it in [dropped] as before. *)
let of_line ~generation line =
  match String.split_on_char '\t' line with
  | "v2" :: gen :: _ when gen <> generation -> `Stale
  | [ "v2"; _; key; source; runtime; gflops; predicted; trials; config; canonical ]
    -> begin
    match
      ( Protocol.source_of_string source,
        float_of_string_opt runtime,
        float_of_string_opt gflops,
        float_of_string_opt predicted,
        int_of_string_opt trials,
        Core.Config.of_compact config )
    with
    | Some source, Some runtime_us, Some gflops, Some predicted_us, Some trials,
      Some config ->
      if not (Float.is_finite runtime_us && runtime_us > 0.0) then `Bad "cost-not-finite"
      else if key <> key_of_canonical canonical then `Bad "key-mismatch"
      else `Live { key; canonical; source; runtime_us; gflops; predicted_us; trials; config }
    | _ -> `Bad "undecodable"
  end
  | "v1" :: _ -> `Stale
  | _ -> `Bad "schema"

(* The full strict audit of one live entry: domain membership, launch
   feasibility, bit-identical reprice of predicted cost / gflops / Q ratio,
   runtime inside the noise band, key = hash(canonical). *)
let audit_entry (e : entry) =
  Verify.Audit.check ~key:e.key ~gflops:e.gflops ~predicted_us:e.predicted_us
    ~canonical:e.canonical ~config:e.config ~runtime_us:e.runtime_us ()

let quarantine_path t = Quarantine.path_for t.path

let quarantine t ~reason ~payload =
  t.quarantined <- t.quarantined + 1;
  Quarantine.append ~path:(quarantine_path t) { Quarantine.reason; payload }

let reason_of_verdict = function
  | Verify.Audit.Ok -> None
  | Verify.Audit.Suspect reasons ->
    Some (String.concat "," (List.map Verify.Audit.reason_token reasons))

let flush t =
  let live =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
    |> List.sort (fun a b -> compare a.key b.key)
  in
  Util.Durable.write_snapshot ~kind t.path
    (List.map (to_line ~generation:t.generation) live)

let load ?(audit = false) ~generation path =
  if not (no_framing_hazard generation) then
    invalid_arg "Result_cache.load: tab or newline in generation";
  let outcome = Util.Durable.repair ~kind path in
  Util.Durable.warn_dropped ~path outcome;
  let t =
    {
      path;
      generation;
      table = Hashtbl.create 64;
      audit;
      dropped = Util.Durable.dropped outcome;
      stale = 0;
      audited = 0;
      rejected = 0;
      quarantined = 0;
      scrubbed = 0;
      scrub_cursor = [];
    }
  in
  List.iter
    (fun payload ->
      match of_line ~generation payload with
      | `Live e ->
        if not audit then Hashtbl.replace t.table e.key e
        else begin
          t.audited <- t.audited + 1;
          match reason_of_verdict (audit_entry e) with
          | None -> Hashtbl.replace t.table e.key e
          | Some reason -> quarantine t ~reason ~payload
        end
      | `Stale -> t.stale <- t.stale + 1
      | `Bad reason ->
        if audit then quarantine t ~reason ~payload
        else t.dropped <- t.dropped + 1)
    (Util.Durable.records outcome);
  (* Quarantined lines stay in the ledger, not in the cache file: compact
     immediately so the next load starts from a clean, [Intact] snapshot
     and does not quarantine the same bytes twice. *)
  if t.quarantined > 0 then flush t;
  t

let generation t = t.generation
let path t = t.path

let find t ~canonical =
  match Hashtbl.find_opt t.table (key_of_canonical canonical) with
  | Some e when e.canonical = canonical ->
    if not t.audit then Some e
    else begin
      (* Hit-time re-audit: the table is trusted memory, but it was filled
         from disk — re-checking before answering costs microseconds and
         turns a poisoned hit into a fresh tune instead of a wrong answer. *)
      t.audited <- t.audited + 1;
      match reason_of_verdict (audit_entry e) with
      | None -> Some e
      | Some reason ->
        quarantine t ~reason ~payload:(to_line ~generation:t.generation e);
        Hashtbl.remove t.table e.key;
        None
    end
  | Some _ (* hash collision: a miss, never the wrong layer's answer *) | None -> None

(* Every writer crosses here, so an audited cache checks each fresh result
   once before it can reach disk or a later hit.  A reject (it should not
   happen: the tuner only emits domain members and the noise model is
   bounded) is the writer's own result, not stored bytes, so it is counted
   and warned about rather than quarantined. *)
let put t e =
  let line = to_line ~generation:t.generation e in
  let verdict =
    if not t.audit then None
    else begin
      t.audited <- t.audited + 1;
      reason_of_verdict (audit_entry e)
    end
  in
  match verdict with
  | None ->
    Hashtbl.replace t.table e.key e;
    Util.Durable.append ~kind t.path line
  | Some reason ->
    t.rejected <- t.rejected + 1;
    Util.Log.warn_oncef ~key:("put-audit:" ^ e.key)
      "warning: audit rejected a fresh result for %s (%s); not cached\n%!" e.key reason

(* --- scrubbing ----------------------------------------------------------- *)

(* The incremental scrubber audits [n] entries per call, round-robin over a
   sorted key snapshot, wrapping to a fresh pass when the cursor drains.
   Audits run regardless of the load-time [audit] flag: scrubbing is an
   explicit request. *)

let scrub_one t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()  (* removed since the pass began *)
  | Some e -> (
    t.audited <- t.audited + 1;
    t.scrubbed <- t.scrubbed + 1;
    match reason_of_verdict (audit_entry e) with
    | None -> ()
    | Some reason ->
      quarantine t ~reason ~payload:(to_line ~generation:t.generation e);
      Hashtbl.remove t.table e.key)

let sorted_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

let scrub_step t ~n =
  let examined = ref 0 in
  let budget = ref n in
  while
    !budget > 0
    &&
    (if t.scrub_cursor = [] then t.scrub_cursor <- sorted_keys t;
     t.scrub_cursor <> [])
  do
    match t.scrub_cursor with
    | [] -> ()
    | key :: rest ->
      t.scrub_cursor <- rest;
      scrub_one t key;
      incr examined;
      decr budget
  done;
  !examined

type scrub_report = { examined : int; quarantined : int; remaining : int }

let scrub t =
  let keys = sorted_keys t in
  let q0 = t.quarantined in
  List.iter (scrub_one t) keys;
  t.scrub_cursor <- [];
  flush t;
  {
    examined = List.length keys;
    quarantined = t.quarantined - q0;
    remaining = Hashtbl.length t.table;
  }

let entries t = Hashtbl.length t.table
let dropped t = t.dropped
let stale t = t.stale
let audited (t : t) = t.audited
let rejected (t : t) = t.rejected
let quarantined (t : t) = t.quarantined
let scrubbed (t : t) = t.scrubbed
