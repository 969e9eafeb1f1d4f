(* Validate committed BENCH_*.json ledgers: each must parse as JSON and have
   the harness's shape — a top-level object with "meta" (an object carrying
   an "experiment" string) and "rows" (a non-empty array of objects).

     dune exec bench/validate_bench.exe -- BENCH_*.json

   Wired into `make check` so a hand-edited or truncated ledger fails fast.
   Ledgers are read with the observability plane's strict JSON reader
   ([Obs.Json.parse]), the same one its export checks use. *)

open Obs.Json

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

(* Provenance keys Bench_json stamps into every ledger's meta. A "+dirty"
   rev means the ledger was generated from an uncommitted tree — legal while
   iterating, but a committed ledger should come from a clean checkout, so
   flag it loudly without failing the build. *)
let check_provenance ~path meta =
  (match List.assoc_opt "git_rev" meta with
  | Some (Str rev) when rev <> "" ->
      let dirty_suffix = "+dirty" in
      let dl = String.length dirty_suffix in
      if
        String.length rev >= dl
        && String.sub rev (String.length rev - dl) dl = dirty_suffix
      then
        Printf.eprintf
          "%s: warning: git_rev %S carries +dirty — regenerate this ledger \
           from a clean tree before committing\n"
          path rev
  | Some _ -> failwith "meta.git_rev is not a non-empty string"
  | None -> failwith "meta has no \"git_rev\" key");
  (match List.assoc_opt "ocaml_version" meta with
  | Some (Str v) when v <> "" -> ()
  | Some _ -> failwith "meta.ocaml_version is not a non-empty string"
  | None -> failwith "meta has no \"ocaml_version\" key");
  match List.assoc_opt "domains" meta with
  | Some (Num d) when d >= 1. && Float.is_integer d -> ()
  | Some _ -> failwith "meta.domains is not an integer >= 1"
  | None -> failwith "meta has no \"domains\" key"

(* The parallel experiment's rows carry the multicore acceptance data; a
   ledger missing the identity flag or the speedup column is useless. *)
let check_parallel_row i row =
  let field key =
    match List.assoc_opt key row with
    | Some v -> v
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  (match field "domains" with
  | Num d when d >= 1. && Float.is_integer d -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].domains is not an integer >= 1" i));
  (match field "cells_per_s" with
  | Num r when r > 0. -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].cells_per_s is not positive" i));
  (match field "speedup_vs_seq" with
  | Num _ -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].speedup_vs_seq is not a number" i));
  match field "identical" with
  | Bool true -> ()
  | Bool false ->
      failwith (Printf.sprintf "rows[%d].identical is false: bit-identity broken" i)
  | _ -> failwith (Printf.sprintf "rows[%d].identical is not a boolean" i)

(* The engine experiment's rows carry the scale-out acceptance data: every
   row a backend, a session count, a throughput and a peak-RSS reading, and
   the ledger as a whole must include the event-driven backend driven into
   the thousands of sessions. *)
let check_engine_row i row =
  let field key =
    match List.assoc_opt key row with
    | Some v -> v
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  (match field "backend" with
  | Str ("sim" | "poll") -> ()
  | Str b -> failwith (Printf.sprintf "rows[%d].backend %S is unknown" i b)
  | _ -> failwith (Printf.sprintf "rows[%d].backend is not a string" i));
  (match field "sessions" with
  | Num s when s >= 1. && Float.is_integer s -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].sessions is not an integer >= 1" i));
  (match field "sessions_per_s" with
  | Num r when r > 0. -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].sessions_per_s is not positive" i));
  (match field "rss_bytes" with
  | Num b when b >= 0. && Float.is_integer b -> ()
  | _ ->
      failwith (Printf.sprintf "rows[%d].rss_bytes is not a non-negative integer" i));
  (* The allocation column: minor words per session. A ledger without it
     predates the hot-path overhaul and cannot back the gc gates. *)
  match field "gc" with
  | Num g when g >= 0. -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].gc is not a non-negative number" i)

(* The auth experiment's rows compare the Pi_BA substrate backends at equal
   n; every row must gate on Definition 1 (ca_holds), and the ledger must
   pair both backends so the comparison is actually present. *)
let check_auth_row i row =
  let field key =
    match List.assoc_opt key row with
    | Some v -> v
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  (match field "backend" with
  | Str ("unauth" | "auth") -> ()
  | Str b -> failwith (Printf.sprintf "rows[%d].backend %S is unknown" i b)
  | _ -> failwith (Printf.sprintf "rows[%d].backend is not a string" i));
  List.iter
    (fun key ->
      match field key with
      | Num v when v >= 1. && Float.is_integer v -> ()
      | _ -> failwith (Printf.sprintf "rows[%d].%s is not an integer >= 1" i key))
    [ "n"; "t"; "bits"; "honest_bits"; "rounds" ];
  match field "ca_holds" with
  | Bool true -> ()
  | Bool false ->
      failwith
        (Printf.sprintf "rows[%d].ca_holds is false: Definition 1 violated" i)
  | _ -> failwith (Printf.sprintf "rows[%d].ca_holds is not a boolean" i)

let check_auth_ledger rows =
  let ns_of backend =
    List.filter_map
      (function
        | Obj fields when List.assoc_opt "backend" fields = Some (Str backend)
          -> (
            match List.assoc_opt "n" fields with
            | Some (Num n) -> Some n
            | _ -> None)
        | _ -> None)
      rows
  in
  let unauth = ns_of "unauth" and auth = ns_of "auth" in
  if unauth = [] then failwith "auth ledger has no backend=\"unauth\" rows";
  if auth = [] then failwith "auth ledger has no backend=\"auth\" rows";
  List.iter
    (fun n ->
      if not (List.mem n auth) then
        failwith
          (Printf.sprintf
             "auth ledger has no backend=\"auth\" row at n=%g to pair the \
              unauth one"
             n))
    unauth

(* The obs experiment's single row carries the observability-plane
   acceptance data and declares its own bounds: the full-recorder overhead
   must sit within overhead_bound_pct and the JSONL export within
   jsonl_bytes_bound, span bits must equal honest bits, and every identity
   flag must hold (ledger equality, deterministic export, Det export and
   trace identical across backends, frame histogram = aggregate ledger). *)
let check_obs_row i row =
  let num key =
    match List.assoc_opt key row with
    | Some (Num v) -> v
    | Some _ -> failwith (Printf.sprintf "rows[%d].%s is not a number" i key)
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  List.iter
    (fun key ->
      if not (num key > 0.) then
        failwith (Printf.sprintf "rows[%d].%s is not positive" i key))
    [ "bare_s"; "full_s"; "overhead_bound_pct" ];
  List.iter
    (fun key ->
      let v = num key in
      if not (v >= 1. && Float.is_integer v) then
        failwith (Printf.sprintf "rows[%d].%s is not an integer >= 1" i key))
    [
      "honest_bits"; "span_bits"; "jsonl_bytes"; "jsonl_bytes_bound";
      "engine_rounds"; "det_jsonl_bytes"; "trace_bytes"; "trace_events";
    ];
  let within key bound =
    if num key > num bound then
      failwith
        (Printf.sprintf "rows[%d].%s = %g exceeds its declared %s = %g" i key
           (num key) bound (num bound))
  in
  within "overhead_pct" "overhead_bound_pct";
  within "jsonl_bytes" "jsonl_bytes_bound";
  if num "span_bits" <> num "honest_bits" then
    failwith (Printf.sprintf "rows[%d].span_bits <> honest_bits: ledger broken" i);
  List.iter
    (fun key ->
      match List.assoc_opt key row with
      | Some (Bool true) -> ()
      | Some (Bool false) ->
          failwith (Printf.sprintf "rows[%d].%s is false: obs invariant broken" i key)
      | _ -> failwith (Printf.sprintf "rows[%d].%s is not a boolean" i key))
    [ "ledger_equality"; "deterministic_jsonl"; "det_identical"; "hist_ledger_equal" ]

(* The adaptive experiment's rows carry the fault-adaptive acceptance data:
   an f-sweep per backend whose zero-fault row took the fast path and cost
   strictly less than every faulty row — the "cost scales with f, not t"
   claim in ledger form. pi_z rows are the paired worst-case reference. *)
let check_adaptive_row i row =
  let field key =
    match List.assoc_opt key row with
    | Some v -> v
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  (match field "backend" with
  | Str ("pi_z" | "adaptive" | "adaptive-auth") -> ()
  | Str b -> failwith (Printf.sprintf "rows[%d].backend %S is unknown" i b)
  | _ -> failwith (Printf.sprintf "rows[%d].backend is not a string" i));
  (match field "f" with
  | Num f when f >= 0. && Float.is_integer f -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].f is not an integer >= 0" i));
  List.iter
    (fun key ->
      match field key with
      | Num v when v >= 1. && Float.is_integer v -> ()
      | _ -> failwith (Printf.sprintf "rows[%d].%s is not an integer >= 1" i key))
    [ "n"; "t"; "bits"; "honest_bits"; "rounds" ];
  (match field "fast_path" with
  | Bool _ | Null -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].fast_path is not a boolean or null" i));
  match field "ca_holds" with
  | Bool true -> ()
  | Bool false ->
      failwith
        (Printf.sprintf "rows[%d].ca_holds is false: Definition 1 violated" i)
  | _ -> failwith (Printf.sprintf "rows[%d].ca_holds is not a boolean" i)

let check_adaptive_ledger rows =
  let rows_of backend =
    List.filter_map
      (function
        | Obj fields when List.assoc_opt "backend" fields = Some (Str backend)
          ->
            let num key =
              match List.assoc_opt key fields with
              | Some (Num v) -> v
              | _ ->
                  failwith
                    (Printf.sprintf "adaptive ledger: %s row lacks numeric %s"
                       backend key)
            in
            Some (num "f", num "t", num "honest_bits", List.assoc_opt "fast_path" fields)
        | _ -> None)
      rows
  in
  let pi_z_fs = List.map (fun (f, _, _, _) -> f) (rows_of "pi_z") in
  List.iter
    (fun backend ->
      match rows_of backend with
      | [] ->
          failwith
            (Printf.sprintf "adaptive ledger has no backend=%S rows" backend)
      | sweep ->
          let _, t, _, _ = List.hd sweep in
          (* Full f coverage: one row per f in 0..t. *)
          for f = 0 to int_of_float t do
            if not (List.exists (fun (f', _, _, _) -> f' = float_of_int f) sweep)
            then
              failwith
                (Printf.sprintf "adaptive ledger: %s sweep misses f=%d (t=%g)"
                   backend f t)
          done;
          let bits_at_0 =
            match List.find_opt (fun (f, _, _, _) -> f = 0.) sweep with
            | Some (_, _, b, Some (Bool true)) -> b
            | Some (_, _, _, _) ->
                failwith
                  (Printf.sprintf
                     "adaptive ledger: %s f=0 row did not take the fast path"
                     backend)
            | None -> assert false
          in
          List.iter
            (fun (f, _, b, _) ->
              if f > 0. && b <= bits_at_0 then
                failwith
                  (Printf.sprintf
                     "adaptive ledger: %s f=%g row (%g bits) not above the \
                      f=0 fast path (%g bits)"
                     backend f b bits_at_0))
            sweep)
    [ "adaptive"; "adaptive-auth" ];
  (* Every plain-adaptive grid point needs its worst-case reference row. *)
  List.iter
    (fun (f, _, _, _) ->
      if not (List.mem f pi_z_fs) then
        failwith
          (Printf.sprintf
             "adaptive ledger has no backend=\"pi_z\" row at f=%g to pair \
              the adaptive one"
             f))
    (rows_of "adaptive")

(* The substrate experiment's codec rows back the linear-in-l claim for the
   bignum/bitstring codecs: each op at l = 2^13 and 2^15 bits, with a
   deterministic allocation figure, and the 2^15 row allocating at most 5x
   the 2^13 one (quadratic code gives ~16x). *)
let codec_ops = [ "of_bitstring"; "to_bitstring_fixed"; "append_unaligned" ]
let codec_bits = [ 8192.; 32768. ]

let check_substrate_row i row =
  let field key =
    match List.assoc_opt key row with
    | Some v -> v
    | None -> failwith (Printf.sprintf "rows[%d] has no %S key" i key)
  in
  let op =
    match field "op" with
    | Str op -> op
    | _ -> failwith (Printf.sprintf "rows[%d].op is not a string" i)
  in
  (match field "ops_per_s" with
  | Num r when r > 0. -> ()
  | _ -> failwith (Printf.sprintf "rows[%d].ops_per_s is not positive" i));
  if List.mem op codec_ops then begin
    (match field "bits" with
    | Num b when List.mem b codec_bits -> ()
    | _ -> failwith (Printf.sprintf "rows[%d].bits is not 8192 or 32768" i));
    match field "alloc_bytes_per_op" with
    | Num a when a > 0. -> ()
    | _ -> failwith (Printf.sprintf "rows[%d].alloc_bytes_per_op is not positive" i)
  end

let check_substrate_ledger rows =
  let alloc op bits =
    match
      List.find_map
        (function
          | Obj fields
            when List.assoc_opt "op" fields = Some (Str op)
                 && List.assoc_opt "bits" fields = Some (Num bits) ->
              List.assoc_opt "alloc_bytes_per_op" fields
          | _ -> None)
        rows
    with
    | Some (Num a) -> a
    | _ -> failwith (Printf.sprintf "substrate ledger has no %s row at %g bits" op bits)
  in
  List.iter
    (fun op ->
      let small = alloc op 8192. and large = alloc op 32768. in
      if large > 5. *. small then
        failwith
          (Printf.sprintf
             "substrate ledger: %s allocates %g B at 2^15 bits, > 5x the %g B at \
              2^13 (not linear in l)"
             op large small))
    codec_ops

let check_engine_ledger rows =
  let poll_sessions =
    List.filter_map
      (function
        | Obj fields when List.assoc_opt "backend" fields = Some (Str "poll")
          -> (
            match List.assoc_opt "sessions" fields with
            | Some (Num s) -> Some s
            | _ -> None)
        | _ -> None)
      rows
  in
  if poll_sessions = [] then
    failwith "engine ledger has no backend=\"poll\" rows";
  if not (List.exists (fun s -> s >= 1024.) poll_sessions) then
    failwith "engine ledger has no poll row with sessions >= 1024"

let validate path =
  let json =
    match parse (read_file path) with
    | Ok json -> json
    | Error msg -> failwith (Printf.sprintf "parse error: %s" msg)
    | exception Sys_error msg -> failwith msg
  in
  match json with
  | Obj fields -> (
      let experiment =
        match List.assoc_opt "meta" fields with
        | Some (Obj meta) -> (
            check_provenance ~path meta;
            match List.assoc_opt "experiment" meta with
            | Some (Str name) when name <> "" -> name
            | Some _ -> failwith "meta.experiment is not a non-empty string"
            | None -> failwith "meta has no \"experiment\" key")
        | Some _ -> failwith "\"meta\" is not an object"
        | None -> failwith "no top-level \"meta\" key"
      in
      match List.assoc_opt "rows" fields with
      | Some (Arr []) -> failwith "\"rows\" is empty"
      | Some (Arr rows) ->
          List.iteri
            (fun i row ->
              match row with
              | Obj ((_ :: _) as fields) ->
                  if experiment = "parallel" then check_parallel_row i fields;
                  if experiment = "engine" then check_engine_row i fields;
                  if experiment = "auth" then check_auth_row i fields;
                  if experiment = "adaptive" then check_adaptive_row i fields;
                  if experiment = "obs" then check_obs_row i fields;
                  if experiment = "substrate" then check_substrate_row i fields
              | Obj [] -> failwith (Printf.sprintf "rows[%d] is empty" i)
              | _ -> failwith (Printf.sprintf "rows[%d] is not an object" i))
            rows;
          if experiment = "engine" then check_engine_ledger rows;
          if experiment = "auth" then check_auth_ledger rows;
          if experiment = "adaptive" then check_adaptive_ledger rows;
          if experiment = "substrate" then check_substrate_ledger rows;
          (List.length rows, experiment)
      | Some _ -> failwith "\"rows\" is not an array"
      | None -> failwith "no top-level \"rows\" key")
  | _ -> failwith "top level is not an object"

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: validate_bench BENCH_*.json";
    exit 2
  end;
  let failures = ref 0 in
  let experiments = ref [] in
  List.iter
    (fun path ->
      match validate path with
      | rows, experiment ->
          experiments := experiment :: !experiments;
          Printf.printf "%-28s ok (%d rows)\n" path rows
      | exception Failure msg ->
          incr failures;
          Printf.printf "%-28s FAIL: %s\n" path msg)
    paths;
  (* A full-ledger sweep (more than one path) must include the substrate
     comparison, the fault-adaptive sweep, the observability-plane ledger and
     the kernel ledger: losing BENCH_auth.json, BENCH_adaptive.json,
     BENCH_obs.json or BENCH_substrate.json from the glob should fail the build, exactly like losing a required
     column from a row. *)
  List.iter
    (fun (experiment, ledger) ->
      if List.length paths > 1 && not (List.mem experiment !experiments)
      then begin
        Printf.printf
          "ledger sweep FAIL: no experiment=%S ledger (%s) among the \
           validated paths\n"
          experiment ledger;
        incr failures
      end)
    [
      ("auth", "BENCH_auth.json");
      ("adaptive", "BENCH_adaptive.json");
      ("obs", "BENCH_obs.json");
      ("substrate", "BENCH_substrate.json");
    ];
  if !failures > 0 then exit 1
