(* The ledger gates: every bound a BENCH_*.json ledger is held to, declared
   once. bench/main.exe runs [check] on the bytes it is about to write and
   refuses to write on a failure; test/test_ledger.ml runs it on every
   committed ledger. A gate reads only the parsed ledger, so a number in a
   committed file counts exactly when the writer would have accepted it.

   Gates come in two kinds. [Exact] gates check deterministic data (flags,
   counts, pairings, bit and allocation ratios) and run at every size,
   `--smoke` included. [Timed] gates hold a full-parameter run to its
   bounds: wall-clock figures and the sweep scale they are read at; a smoke
   run skips them. A gate the ledger cannot exercise (a speedup bound on a
   host without the cores) returns [Unenforced] with the reason — never a
   silent [Pass]. *)

open Obs.Json

type row = (string * Obs.Json.t) list
type t = { experiment : string; meta : row; rows : row list }
type verdict = Pass | Fail of string | Unenforced of string
type kind = Exact | Timed
type gate = { name : string; kind : kind; check : t -> verdict }

(* One exception carries every shape or gate failure; [of_json] turns it into
   [Error], a gate into [Fail]. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* Field accessors. Messages start with the key so [each_row] can prefix the
   row index: "rows[3].gc is missing". *)
let field row key =
  match List.assoc_opt key row with Some v -> v | None -> bad "%s is missing" key

let num row key =
  match field row key with Num v -> v | _ -> bad "%s is not a number" key

let int_at_least lo row key =
  let v = num row key in
  if not (v >= lo && Float.is_integer v) then
    bad "%s is not an integer >= %g" key lo

let positive row key = if not (num row key > 0.) then bad "%s is not positive" key

let flag row key =
  match field row key with Bool b -> b | _ -> bad "%s is not a boolean" key

let non_empty_str row key =
  match field row key with
  | Str s when s <> "" -> s
  | _ -> bad "%s is not a non-empty string" key

let one_of row key allowed =
  let s = non_empty_str row key in
  if not (List.mem s allowed) then bad "%s %S is unknown" key s

let each_row l f =
  List.iteri
    (fun i row -> try f row with Bad msg -> bad "rows[%d].%s" i msg)
    l.rows

let in_meta f = try f () with Bad msg -> bad "meta.%s" msg

(* Rows whose listed columns hold exactly the listed values. *)
let rows_where l pairs =
  List.filter
    (fun row -> List.for_all (fun (k, v) -> List.assoc_opt k row = Some v) pairs)
    l.rows

let find_row l what pairs =
  match rows_where l pairs with row :: _ -> row | [] -> bad "no %s row" what

(* ------------------------------------------------------------------ *)
(* Shape and provenance: every ledger                                  *)
(* ------------------------------------------------------------------ *)

let of_json json =
  try
    match json with
    | Obj fields ->
        let meta =
          match List.assoc_opt "meta" fields with
          | Some (Obj meta) -> meta
          | Some _ -> bad "\"meta\" is not an object"
          | None -> bad "no top-level \"meta\" key"
        in
        let experiment =
          in_meta (fun () ->
              ignore (non_empty_str meta "git_rev");
              ignore (non_empty_str meta "ocaml_version");
              int_at_least 1. meta "domains";
              non_empty_str meta "experiment")
        in
        let rows =
          match List.assoc_opt "rows" fields with
          | Some (Arr []) -> bad "\"rows\" is empty"
          | Some (Arr rows) ->
              List.mapi
                (fun i -> function
                  | Obj (_ :: _ as row) -> row
                  | Obj [] -> bad "rows[%d] is empty" i
                  | _ -> bad "rows[%d] is not an object" i)
                rows
          | Some _ -> bad "\"rows\" is not an array"
          | None -> bad "no top-level \"rows\" key"
        in
        Ok { experiment; meta; rows }
    | _ -> bad "top level is not an object"
  with Bad msg -> Error msg

let of_string s = Result.bind (Obs.Json.parse s) of_json

(* A ledger generated from an uncommitted tree: legal while iterating, but
   the named commit alone cannot reproduce it. A warning, not a failure. *)
let dirty l =
  match List.assoc_opt "git_rev" l.meta with
  | Some (Str rev) -> String.ends_with ~suffix:"+dirty" rev
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Gate constructors                                                   *)
(* ------------------------------------------------------------------ *)

let gate name kind check =
  { name; kind; check = (fun l -> try check l with Bad msg -> Fail msg) }

(* A gate with nothing to skip: it passes unless [f] raises. *)
let holds name kind f = gate name kind (fun l -> f l; Pass)

let ca_holds experiment =
  holds (experiment ^ ".ca_holds") Exact (fun l ->
      each_row l (fun row ->
          if not (flag row "ca_holds") then
            bad "ca_holds is false: Definition 1 violated"))

(* ------------------------------------------------------------------ *)
(* auth: the Pi_BA substrate backends at equal n                       *)
(* ------------------------------------------------------------------ *)

let auth =
  [
    holds "auth.row_shape" Exact (fun l ->
        each_row l (fun row ->
            one_of row "backend" [ "unauth"; "auth" ];
            List.iter (int_at_least 1. row)
              [ "n"; "t"; "bits"; "honest_bits"; "rounds" ];
            ignore (flag row "ca_holds")));
    ca_holds "auth";
    (* The comparison must actually be present: every unauth n paired. *)
    holds "auth.pairing" Exact (fun l ->
        let ns backend =
          List.map (fun row -> num row "n") (rows_where l [ ("backend", Str backend) ])
        in
        let unauth = ns "unauth" and auth = ns "auth" in
        if unauth = [] then bad "no backend=\"unauth\" rows";
        if auth = [] then bad "no backend=\"auth\" rows";
        List.iter
          (fun n ->
            if not (List.mem n auth) then
              bad "no backend=\"auth\" row at n=%g to pair the unauth one" n)
          unauth);
  ]

(* ------------------------------------------------------------------ *)
(* adaptive: cost vs actual faults f                                   *)
(* ------------------------------------------------------------------ *)

let adaptive_backends = [ "adaptive"; "adaptive-auth" ]

(* The plain sweep's bounds against Pi_Z on identical inputs at f = t: the
   f = 0 fast path at least [fast_path_gain]x cheaper, the f = t fallback at
   most [fallback_overhead]x dearer. *)
let fast_path_gain = 5.
let fallback_overhead = 1.5

let adaptive =
  let sweep l backend = rows_where l [ ("backend", Str backend) ] in
  let at l backend f =
    find_row l (Printf.sprintf "%s f=%g" backend f)
      [ ("backend", Str backend); ("f", Num f) ]
  in
  (* The plain sweep's f = 0 and f = t adaptive rows and the f = t pi_z row. *)
  let plain_points l =
    let ad0 = at l "adaptive" 0. in
    let t = num ad0 "t" in
    (num ad0 "honest_bits", num (at l "adaptive" t) "honest_bits",
     num (at l "pi_z" t) "honest_bits")
  in
  [
    holds "adaptive.row_shape" Exact (fun l ->
        each_row l (fun row ->
            one_of row "backend" ("pi_z" :: adaptive_backends);
            int_at_least 0. row "f";
            List.iter (int_at_least 1. row)
              [ "n"; "t"; "bits"; "honest_bits"; "rounds" ];
            (match field row "fast_path" with
            | Bool _ | Null -> ()
            | _ -> bad "fast_path is not a boolean or null");
            ignore (flag row "ca_holds")));
    ca_holds "adaptive";
    holds "adaptive.f_coverage" Exact (fun l ->
        List.iter
          (fun backend ->
            match sweep l backend with
            | [] -> bad "no backend=%S rows" backend
            | first :: _ as rows ->
                let t = num first "t" in
                for f = 0 to int_of_float t do
                  if not (List.exists (fun row -> num row "f" = float_of_int f) rows)
                  then bad "%s sweep misses f=%d (t=%g)" backend f t
                done)
          adaptive_backends);
    (* Every equivocating fault vetoes the certificate; none means it forms. *)
    holds "adaptive.fast_path" Exact (fun l ->
        List.iter
          (fun backend ->
            List.iter
              (fun row ->
                let f = num row "f" in
                match field row "fast_path" with
                | Bool fast when fast = (f = 0.) -> ()
                | _ ->
                    bad "%s f=%g row should %s the fast path" backend f
                      (if f = 0. then "take" else "not take"))
              (sweep l backend))
          adaptive_backends);
    holds "adaptive.cost_tracks_f" Exact (fun l ->
        List.iter
          (fun backend ->
            let bits0 = num (at l backend 0.) "honest_bits" in
            List.iter
              (fun row ->
                let f = num row "f" and b = num row "honest_bits" in
                if f > 0. && b <= bits0 then
                  bad "%s f=%g row (%g bits) not above the f=0 fast path (%g bits)"
                    backend f b bits0)
              (sweep l backend))
          adaptive_backends);
    holds "adaptive.pi_z_pairing" Exact (fun l ->
        List.iter
          (fun row -> ignore (at l "pi_z" (num row "f")))
          (sweep l "adaptive"));
    holds "adaptive.fast_path_gain" Exact (fun l ->
        let ad0, _, pz_t = plain_points l in
        if fast_path_gain *. ad0 > pz_t then
          bad "f=0 fast path (%g bits) not >= %gx below Pi_Z at f=t (%g bits)" ad0
            fast_path_gain pz_t);
    holds "adaptive.fallback_overhead" Exact (fun l ->
        let _, ad_t, pz_t = plain_points l in
        if ad_t > fallback_overhead *. pz_t then
          bad "f=t cost (%g bits) above %gx Pi_Z at f=t (%g bits)" ad_t
            fallback_overhead pz_t);
  ]

(* ------------------------------------------------------------------ *)
(* engine: session-multiplexing throughput                             *)
(* ------------------------------------------------------------------ *)

(* The poll backend must reach [engine_min_poll_sessions] sessions, and its
   K = [engine_gate_k] row is held to the hot-path overhaul's bounds:
   throughput at least [engine_rate_gain]x the pre-overhaul row
   ([engine_baseline_rate] sessions/s, BENCH_engine.json @ bb0aed7), and at
   most [engine_gc_ceiling] minor words per session. The ceiling sits ~5%
   above the post-overhaul 414 760 (pre-overhaul: 1 552 000); allocation
   counts are deterministic, so the headroom covers stdlib and runtime
   drift, not noise. The remaining floor is protocol-intrinsic (decoded
   payloads, Pi_lBA+'s Reed-Solomon and Merkle work, the protocol monad's
   closures). *)
let engine_min_poll_sessions = 1024.
let engine_gate_k = 4096.
let engine_baseline_rate = 91.9284
let engine_rate_gain = 1.3
let engine_gc_ceiling = 435_000.

let engine =
  let gate_row l =
    rows_where l [ ("backend", Str "poll"); ("sessions", Num engine_gate_k) ]
  in
  (* A bound read at the gate row; engine.poll_scale fails when it is absent,
     so the bound itself only reports that it had nothing to read. *)
  let at_gate_row check l =
    match gate_row l with
    | row :: _ -> check row; Pass
    | [] -> Unenforced (Printf.sprintf "no poll K=%g row" engine_gate_k)
  in
  [
    holds "engine.row_shape" Exact (fun l ->
        each_row l (fun row ->
            one_of row "backend" [ "sim"; "poll" ];
            int_at_least 1. row "sessions";
            positive row "sessions_per_s";
            int_at_least 0. row "rss_bytes";
            if not (num row "gc" >= 0.) then bad "gc is negative"));
    holds "engine.poll_scale" Timed (fun l ->
        let polls = rows_where l [ ("backend", Str "poll") ] in
        let reaches row = num row "sessions" >= engine_min_poll_sessions in
        if not (List.exists reaches polls) then
          bad "no poll row with sessions >= %g" engine_min_poll_sessions;
        if gate_row l = [] then bad "no poll K=%g row" engine_gate_k);
    gate "engine.poll_throughput" Timed
      (at_gate_row (fun row ->
           let rate = num row "sessions_per_s" in
           if rate < engine_rate_gain *. engine_baseline_rate then
             bad "poll K=%g throughput %.1f sessions/s < %gx baseline %g"
               engine_gate_k rate engine_rate_gain engine_baseline_rate));
    gate "engine.poll_alloc" Exact
      (at_gate_row (fun row ->
           let gc = num row "gc" in
           if gc > engine_gc_ceiling then
             bad "poll K=%g allocates %.0f minor words/session > %.0f"
               engine_gate_k gc engine_gc_ceiling));
  ]

(* ------------------------------------------------------------------ *)
(* substrate: kernel throughput and codec allocation                   *)
(* ------------------------------------------------------------------ *)

(* Each codec op at 2^13 and 2^15 bits; the 2^15 row allocates at most
   [codec_alloc_growth]x the 2^13 one (linear code gives 4x, quadratic ~16x).
   Matrix RS encode at (13, 5) beats the reference path by
   [rs_encode_speedup]x. *)
let codec_ops = [ "of_bitstring"; "to_bitstring_fixed"; "append_unaligned" ]
let codec_small_bits = 8192.
let codec_large_bits = 32768.
let codec_alloc_growth = 5.
let rs_encode_speedup = 5.

let substrate =
  [
    holds "substrate.row_shape" Exact (fun l ->
        each_row l (fun row ->
            let op = non_empty_str row "op" in
            positive row "ops_per_s";
            if List.mem op codec_ops then begin
              let bits = num row "bits" in
              if bits <> codec_small_bits && bits <> codec_large_bits then
                bad "bits is not %g or %g" codec_small_bits codec_large_bits;
              positive row "alloc_bytes_per_op"
            end));
    holds "substrate.codec_linear_alloc" Exact (fun l ->
        List.iter
          (fun op ->
            let alloc bits =
              num
                (find_row l (Printf.sprintf "%s %g-bit" op bits)
                   [ ("op", Str op); ("bits", Num bits) ])
                "alloc_bytes_per_op"
            in
            let small = alloc codec_small_bits and large = alloc codec_large_bits in
            if large > codec_alloc_growth *. small then
              bad "%s allocates %g B at %g bits, > %gx the %g B at %g (not linear in l)"
                op large codec_large_bits codec_alloc_growth small codec_small_bits)
          codec_ops);
    holds "substrate.rs_encode_speedup" Timed (fun l ->
        let row =
          find_row l "rs_encode(13,5)"
            [ ("op", Str "rs_encode"); ("n", Num 13.); ("k", Num 5.) ]
        in
        let s = num row "speedup_vs_ref" in
        if s < rs_encode_speedup then
          bad "rs_encode(13,5) speedup %.1fx < %gx" s rs_encode_speedup);
  ]

(* ------------------------------------------------------------------ *)
(* obs: observability-plane overhead, span ledger and determinism      *)
(* ------------------------------------------------------------------ *)

(* A full recorder costs at most [obs_overhead_bound_pct] % wall clock over a
   bare run, and its Det JSONL export stays under [obs_jsonl_bytes_bound]. *)
let obs_overhead_bound_pct = 10.
let obs_jsonl_bytes_bound = 800_000.

let obs =
  [
    holds "obs.row_shape" Exact (fun l ->
        each_row l (fun row ->
            List.iter (positive row) [ "bare_s"; "full_s" ];
            ignore (num row "overhead_pct");
            List.iter (int_at_least 1. row)
              [
                "honest_bits"; "span_bits"; "jsonl_bytes"; "engine_rounds";
                "det_jsonl_bytes"; "trace_bytes"; "trace_events";
              ]));
    holds "obs.overhead" Timed (fun l ->
        each_row l (fun row ->
            let pct = num row "overhead_pct" in
            if pct > obs_overhead_bound_pct then
              bad "overhead_pct %g > %g" pct obs_overhead_bound_pct));
    holds "obs.jsonl_bytes" Exact (fun l ->
        each_row l (fun row ->
            let bytes = num row "jsonl_bytes" in
            if bytes > obs_jsonl_bytes_bound then
              bad "jsonl_bytes %g > %g" bytes obs_jsonl_bytes_bound));
    holds "obs.span_bits" Exact (fun l ->
        each_row l (fun row ->
            if num row "span_bits" <> num row "honest_bits" then
              bad "span_bits %g <> honest_bits %g" (num row "span_bits")
                (num row "honest_bits")));
    (* Ledger equality, a deterministic export, Det export and trace identical
       across sim / poll / domains=2, frame histogram = aggregate ledger. *)
    holds "obs.identity" Exact (fun l ->
        each_row l (fun row ->
            List.iter
              (fun key -> if not (flag row key) then bad "%s is false" key)
              [
                "ledger_equality"; "deterministic_jsonl"; "det_identical";
                "hist_ledger_equal";
              ]));
  ]

(* ------------------------------------------------------------------ *)
(* parallel: multicore fan-out                                         *)
(* ------------------------------------------------------------------ *)

(* At least [parallel_speedup]x at [parallel_domains] domains, enforced only
   where the host recommends that many. *)
let parallel_speedup = 2.
let parallel_domains = 4.

let parallel =
  [
    holds "parallel.row_shape" Exact (fun l ->
        each_row l (fun row ->
            int_at_least 1. row "domains";
            positive row "cells_per_s";
            ignore (num row "speedup_vs_seq");
            ignore (flag row "identical")));
    holds "parallel.identical" Exact (fun l ->
        each_row l (fun row ->
            if not (flag row "identical") then
              bad "identical is false: bit-identity broken"));
    gate "parallel.speedup" Timed (fun l ->
        let recommended = in_meta (fun () -> num l.meta "recommended_domains") in
        if recommended < parallel_domains then
          Unenforced
            (Printf.sprintf "host recommends %g domain(s); the bound needs %g"
               recommended parallel_domains)
        else
          let row =
            find_row l
              (Printf.sprintf "domains=%g" parallel_domains)
              [ ("domains", Num parallel_domains) ]
          in
          let s = num row "speedup_vs_seq" in
          if s < parallel_speedup then
            bad "speedup %.2fx at %g domains < %gx" s parallel_domains
              parallel_speedup;
          Pass);
  ]

(* ------------------------------------------------------------------ *)

let gates =
  [
    ("auth", auth); ("adaptive", adaptive); ("engine", engine);
    ("substrate", substrate); ("obs", obs); ("parallel", parallel);
  ]

(* The experiment's gates and their verdicts; [~timed:false] (a smoke run)
   leaves out the Timed ones. *)
let check ~timed l =
  Option.value (List.assoc_opt l.experiment gates) ~default:[]
  |> List.filter (fun g -> timed || g.kind = Exact)
  |> List.map (fun g -> (g, g.check l))

let failed verdicts =
  List.filter_map
    (fun (g, v) -> match v with Fail _ -> Some g.name | _ -> None)
    verdicts

let show = function
  | Pass -> "pass"
  | Fail msg -> "FAIL: " ^ msg
  | Unenforced reason -> "unenforced: " ^ reason
