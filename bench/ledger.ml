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
              (* The host's core count. Every committed ledger but
                 BENCH_obs.json carries it; that one predates the stamp. *)
              if List.mem_assoc "nproc" meta then int_at_least 1. meta "nproc";
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
(* t1: honest bits vs l at n = 13, t = 4                               *)
(* ------------------------------------------------------------------ *)

(* Pi_Z is cheaper than HighCostCA at every l >= 2^[t1_hc_crossover] and
   than Turpin-Coan BA at every l >= 2^[t1_tc_crossover], in each row that
   has the baseline's cell (the cubic baselines skip the largest l). A
   ledger with no such row has no crossover to show, and fails. *)
let t1_hc_crossover = 11.
let t1_tc_crossover = 16.

let t1 =
  [
    holds "t1.crossover" Exact (fun l ->
        let below ~from key =
          let cells =
            List.filter_map
              (fun row ->
                if num row "log2_bits" < from then None
                else
                  match field row key with
                  | Null -> None
                  | _ -> Some (num row "log2_bits", num row "pi_z_bits", num row key))
              l.rows
          in
          if cells = [] then bad "no row at l >= 2^%g with a %s cell" from key;
          List.iter
            (fun (lg, ours, theirs) ->
              if ours >= theirs then
                bad "pi_z_bits %g not below %s %g at l = 2^%g" ours key theirs lg)
            cells
        in
        below ~from:t1_hc_crossover "high_cost_ca_bits";
        below ~from:t1_tc_crossover "tc_ba_bits");
  ]

(* ------------------------------------------------------------------ *)
(* claims: the bit and round shapes of Thm 5 / Cor 2, fitted           *)
(* ------------------------------------------------------------------ *)

(* The fits the ledger holds: one l-fit (bits = intercept + slope * l) per
   protocol and n, one row of round counts per n, one rounds-vs-n*log2 n
   fit. The criteria:
   - C1: at n = [c1_n], the linear fit's r2 is above [c1_min_r2] and above
     the pure-quadratic fit's (bits grow linearly in l, not as l^2);
   - C2: slope / n spreads by less than [c2_max_band]x across the Pi_Z
     fits (the leading term is l*n; an l*n^2 law would give ~3.3x);
   - C3: Broadcast-CA's slope over Pi_Z's grows with n, and by more than
     [c3_min_growth]x from the smallest n to the largest;
   - C4: the rounds-vs-n*log2 n fit has r2 above [c4_min_r2];
   - C5: the Pi_Z intercepts (the l-independent term) are positive and
     increase with n.
   HighCostCA (Thm 3) and Turpin-Coan BA take exactly
   [high_cost_ca_rounds t] and [tc_ba_rounds t] rounds. *)
let claims_pi_z_ns = [ 4; 7; 10; 13 ]
let claims_broadcast_ca_ns = [ 4; 7; 10 ]
let c1_n = 7.
let c1_min_r2 = 0.95
let c2_max_band = 2.5
let c3_min_growth = 2.
let c4_min_r2 = 0.9
let high_cost_ca_rounds t = 2. +. (4. *. (t +. 1.))
let tc_ba_rounds t = 2. +. (3. *. (t +. 1.))

let claims =
  let l_fit l protocol n =
    find_row l
      (Printf.sprintf "%s l_fit n=%g" protocol n)
      [ ("row", Str "l_fit"); ("protocol", Str protocol); ("n", Num n) ]
  in
  (* [key] of the protocol's l-fit at each of [ns], in order of n. *)
  let per_n l protocol ns key =
    List.map (fun n -> (float_of_int n, num (l_fit l protocol (float_of_int n)) key)) ns
  in
  let rec increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  [
    holds "claims.row_shape" Exact (fun l ->
        each_row l (fun row ->
            let nums keys = List.iter (fun k -> ignore (num row k)) keys in
            match non_empty_str row "row" with
            | "l_fit" ->
                one_of row "protocol" [ "pi_z"; "broadcast_ca" ];
                List.iter (int_at_least 1. row) [ "n"; "t" ];
                nums [ "slope"; "intercept"; "r2"; "quad_r2" ]
            | "rounds" ->
                List.iter (int_at_least 1. row)
                  [ "n"; "t"; "pi_z_rounds"; "high_cost_ca_rounds"; "tc_ba_rounds" ]
            | "rounds_fit" -> nums [ "nlogn_slope"; "nlogn_intercept"; "nlogn_r2"; "nsq_r2" ]
            | kind -> bad "row %S is unknown" kind));
    holds "claims.c1_linear_in_l" Exact (fun l ->
        let row = l_fit l "pi_z" c1_n in
        let r2 = num row "r2" and quad = num row "quad_r2" in
        if not (r2 > c1_min_r2 && r2 > quad) then
          bad "pi_z n=%g: linear r2 %g not above %g and the quadratic r2 %g" c1_n r2
            c1_min_r2 quad);
    holds "claims.c2_slope_per_n" Exact (fun l ->
        let per_party =
          List.map (fun (n, s) -> s /. n) (per_n l "pi_z" claims_pi_z_ns "slope")
        in
        let lo = List.fold_left min infinity per_party
        and hi = List.fold_left max neg_infinity per_party in
        if not (hi /. lo < c2_max_band) then
          bad "pi_z slope/n spans [%g, %g], a %gx band (bound %gx)" lo hi (hi /. lo)
            c2_max_band);
    holds "claims.c3_baseline_diverges" Exact (fun l ->
        let ratios =
          List.map2
            (fun (n, theirs) (_, ours) -> (n, theirs /. ours))
            (per_n l "broadcast_ca" claims_broadcast_ca_ns "slope")
            (per_n l "pi_z" claims_broadcast_ca_ns "slope")
        in
        let first = snd (List.hd ratios)
        and last = snd (List.nth ratios (List.length ratios - 1)) in
        if not (increasing ratios && last > c3_min_growth *. first) then
          bad "broadcast_ca/pi_z slope ratios %s do not grow by > %gx"
            (String.concat ", "
               (List.map (fun (n, r) -> Printf.sprintf "n=%g:%g" n r) ratios))
            c3_min_growth);
    holds "claims.c4_rounds_nlogn" Exact (fun l ->
        let r2 = num (find_row l "rounds_fit" [ ("row", Str "rounds_fit") ]) "nlogn_r2" in
        if not (r2 > c4_min_r2) then
          bad "rounds ~ n*log2 n fit r2 %g not above %g" r2 c4_min_r2);
    holds "claims.c5_additive_term" Exact (fun l ->
        let intercepts = per_n l "pi_z" claims_pi_z_ns "intercept" in
        if not (List.for_all (fun (_, c) -> c > 0.) intercepts && increasing intercepts)
        then
          bad "pi_z intercepts %s not positive and increasing in n"
            (String.concat ", "
               (List.map (fun (n, c) -> Printf.sprintf "n=%g:%g" n c) intercepts)));
    holds "claims.baseline_rounds" Exact (fun l ->
        let rows = rows_where l [ ("row", Str "rounds") ] in
        if rows = [] then bad "no rounds rows";
        List.iter
          (fun row ->
            let n = num row "n" and t = num row "t" in
            List.iter
              (fun (key, expect) ->
                if num row key <> expect then
                  bad "%s at n=%g is %g, not %g" key n (num row key) expect)
              [
                ("high_cost_ca_rounds", high_cost_ca_rounds t);
                ("tc_ba_rounds", tc_ba_rounds t);
              ])
          rows);
  ]

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
   above the 161 421 measured once a poll frame that arrives as written
   left each recipient the value that was sent (one fresh copy per entry:
   195 369; free-monad binds re-wrapping every round at every layer:
   279 505; per-edge entry lists: 356 254; before the hot-path overhaul:
   1 552 000); allocation counts are deterministic, so the headroom covers
   stdlib and runtime drift, not noise. Delivered payloads are no longer
   part of the floor, which is protocol-intrinsic: the messages each
   session encodes and decodes, Pi_lBA+'s Reed-Solomon and Merkle work, and
   one continuation per party per round. *)
let engine_min_poll_sessions = 1024.
let engine_gate_k = 4096.
let engine_baseline_rate = 91.9284
let engine_rate_gain = 1.3
let engine_gc_ceiling = 170_000.

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
   [rs_encode_speedup]x. One SHA-256 digest of the sha256 row's message
   allocates at most [sha256_alloc_words] minor words: its context and the
   digest string. A word per 64-byte block would read >= 1024 at the 64 KiB
   smoke size and >= 16384 at 1 MiB. The sha256 row times the active
   compression kernel against the portable one; where the active one is
   SHA-NI it is at least [sha256_kernel_speedup]x faster, and where the
   host has only the portable kernel there is nothing to compare. *)
let codec_ops = [ "of_bitstring"; "to_bitstring_fixed"; "append_unaligned" ]
let codec_small_bits = 8192.
let codec_large_bits = 32768.
let codec_alloc_growth = 5.
let rs_encode_speedup = 5.
let sha256_alloc_words = 128.
let sha256_kernel_speedup = 2.

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
    holds "substrate.sha256_alloc" Exact (fun l ->
        let words = num (find_row l "sha256" [ ("op", Str "sha256") ]) "minor_words_per_op" in
        if words > sha256_alloc_words then
          bad "sha256 allocates %g minor words/op > %g" words sha256_alloc_words);
    gate "substrate.sha256_kernel_speedup" Timed (fun l ->
        match in_meta (fun () -> non_empty_str l.meta "sha256_kernel") with
        | "portable" -> Unenforced "host has only the portable SHA-256 kernel"
        | "sha-ni" ->
            let s = num (find_row l "sha256" [ ("op", Str "sha256") ]) "speedup_vs_ref" in
            if s < sha256_kernel_speedup then
              bad "sha256 sha-ni speedup %.2fx < %gx" s sha256_kernel_speedup;
            Pass
        | k -> bad "meta.sha256_kernel %S is unknown" k);
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
    ("t1", t1); ("claims", claims); ("auth", auth); ("adaptive", adaptive);
    ("engine", engine);
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
