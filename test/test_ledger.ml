(* The committed BENCH_*.json ledgers against their one gate declaration
   (bench/ledger.ml), the same check bench/main.exe runs before it writes:

   1. every committed ledger parses and passes every gate, Timed included;
      none reports itself unenforced;
   2. every experiment that declares gates has exactly one committed ledger;
   3. each gate bites: one in-memory edit of the committed ledger makes that
      gate, and only that gate, fail;
   4. T1's crossover gate fails, not passes, on a ledger whose rows stop
      short of the crossover;
   5. the SHA-256 kernel speedup gate is unenforced, not passed, on a
      ledger recorded where only the portable kernel runs.
   Plus the shape and provenance checks every ledger goes through, and
   EXPERIMENTS.md's T1, ENGINE and T8 tables against BENCH_t1.json,
   BENCH_engine.json and BENCH_auth.json. *)

open Obs.Json

(* dune copies the committed ledgers (test/dune deps) into the build root. *)
let ledger_dir = Filename.concat (Filename.dirname Sys.executable_name) ".."

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let committed =
  lazy
    (Sys.readdir ledger_dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f ->
           match Ledger.of_string (read_file (Filename.concat ledger_dir f)) with
           | Ok l -> (f, l)
           | Error msg -> Alcotest.failf "%s: %s" f msg))

let ledger_of experiment =
  match
    List.filter (fun (_, l) -> l.Ledger.experiment = experiment) (Lazy.force committed)
  with
  | [ (_, l) ] -> l
  | ls -> Alcotest.failf "%d committed %s ledgers" (List.length ls) experiment

let test_committed_pass () =
  Alcotest.(check bool) "some ledgers committed" true (Lazy.force committed <> []);
  List.iter
    (fun (file, l) ->
      if Ledger.dirty l then
        Printf.eprintf "warning: %s was generated from a dirty tree\n" file;
      List.iter
        (fun ((g : Ledger.gate), v) ->
          if v <> Ledger.Pass then Alcotest.failf "%s: %s %s" file g.Ledger.name (Ledger.show v))
        (Ledger.check ~timed:true l))
    (Lazy.force committed)

let test_one_ledger_per_gated_experiment () =
  List.iter
    (fun (experiment, gates) ->
      Alcotest.(check bool) (experiment ^ " declares gates") true (gates <> []);
      ignore (ledger_of experiment))
    Ledger.gates

(* ---- each gate bites --------------------------------------------------- *)

let is pairs row = List.for_all (fun (k, v) -> List.assoc_opt k row = Some v) pairs

(* Apply [f] to, or drop, the rows whose columns match [pairs]. *)
let edit pairs f (l : Ledger.t) =
  let rows = List.map (fun row -> if is pairs row then f row else row) l.Ledger.rows in
  { l with Ledger.rows }

let drop pairs (l : Ledger.t) =
  { l with Ledger.rows = List.filter (fun row -> not (is pairs row)) l.Ledger.rows }

let set key v row = List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) row

let num key row =
  match List.assoc_opt key row with
  | Some (Num x) -> x
  | _ -> Alcotest.failf "no numeric %s" key

let scale key by row = set key (Num (by *. num key row)) row

let find pairs (l : Ledger.t) =
  match List.find_opt (is pairs) l.Ledger.rows with
  | Some row -> row
  | None -> Alcotest.fail "edit target row missing"

(* Row selectors. [every] matches all rows of the one-row obs ledger. *)
let every = []
let auth n = [ ("backend", Str "auth"); ("n", Num n) ]
let pi_z_auth n = [ ("backend", Str "pi_z_auth"); ("n", Num n) ]
let sweep backend f = [ ("backend", Str backend); ("f", Num f) ]
let engine backend k = [ ("backend", Str backend); ("sessions", Num k) ]
let codec op bits = [ ("op", Str op); ("bits", Num bits) ]
let t1_row lg = [ ("log2_bits", Num lg) ]
let l_fit protocol n = [ ("row", Str "l_fit"); ("protocol", Str protocol); ("n", Num n) ]
let rounds n = [ ("row", Str "rounds"); ("n", Num n) ]

let t4_cell corruptions adversary =
  [
    ("inputs", Str "sensor"); ("corruptions", Num corruptions); ("adversary", Str adversary);
    ("input_attack", Str "outlier-high");
  ]

(* One edit per declared gate, on the committed ledger of its experiment. *)
let edits : (string * (Ledger.t -> Ledger.t)) list =
  [
    (* Above Turpin-Coan BA at 2^16, still below HighCostCA everywhere. *)
    ("t1.crossover", edit (t1_row 16.) (set "pi_z_bits" (Num 8_000_000.)));
    ("claims.row_shape", edit (rounds 7.) (set "pi_z_rounds" (Num 0.)));
    ("claims.c1_linear_in_l", edit (l_fit "pi_z" 7.) (set "quad_r2" (Num 1.)));
    (* n=13 holds the lowest slope/n; no other gate reads its slope. *)
    ("claims.c2_slope_per_n", edit (l_fit "pi_z" 13.) (scale "slope" 10.));
    ( "claims.c3_baseline_diverges",
      edit (l_fit "broadcast_ca" 10.) (scale "slope" 0.1) );
    ( "claims.c4_rounds_nlogn",
      edit [ ("row", Str "rounds_fit") ] (set "nlogn_r2" (Num 0.5)) );
    ("claims.c5_additive_term", edit (l_fit "pi_z" 13.) (set "intercept" (Num (-1.))));
    ( "claims.baseline_rounds",
      edit (rounds 7.) (fun row ->
          set "tc_ba_rounds" (Num (num "tc_ba_rounds" row +. 1.)) row) );
    ("t4.definition1", edit (t4_cell 3. "king-usurper") (set "validity" (Bool false)));
    (* One round above the model, in a cell 35 rounds below it. *)
    ( "t4.rounds_bound",
      edit (t4_cell 3. "vote-stuffer") (fun row ->
          set "rounds" (Num (num "model_rounds" row +. 1.)) row) );
    ("auth.row_shape", edit (auth 4.) (set "honest_bits" (Num 0.)));
    ("auth.ca_holds", edit (auth 5.) (set "ca_holds" (Bool false)));
    ("auth.pairing", edit (auth 7.) (set "n" (Num 8.)));
    (* The sequential composition's n(t+1) rounds at n=5, t=2. *)
    ("auth.native_rounds", edit (auth 5.) (set "rounds" (Num 15.)));
    (* The quorum BA's own figure at n=7, above half of it. *)
    ("auth.substrate_bits", edit (pi_z_auth 7.) (set "honest_bits" (Num 2_640_081_072.)));
    ("adaptive.row_shape", edit (sweep "pi_z" 3.) (set "rounds" (Num 0.)));
    ("adaptive.ca_holds", edit (sweep "adaptive" 2.) (set "ca_holds" (Bool false)));
    ("adaptive.f_coverage", drop (sweep "adaptive-auth" 1.));
    ("adaptive.fast_path", edit (sweep "adaptive" 0.) (set "fast_path" (Bool false)));
    ( "adaptive.cost_tracks_f",
      edit (sweep "adaptive" 1.) (set "honest_bits" (Num 1000.)) );
    ("adaptive.pi_z_pairing", drop (sweep "pi_z" 2.));
    (* Above a fourth of Pi_Z at f = 0, still below every faulty row. *)
    ( "adaptive.fast_path_gain",
      fun l ->
        let pz0 = num "honest_bits" (find (sweep "pi_z" 0.) l) in
        edit (sweep "adaptive" 0.) (set "honest_bits" (Num (pz0 /. 3.))) l );
    ("adaptive.fallback_overhead", edit (sweep "adaptive" 4.) (scale "honest_bits" 10.));
    ("engine.row_shape", edit (engine "sim" 1.) (List.remove_assoc "gc"));
    ("engine.poll_scale", edit (engine "poll" 4096.) (set "sessions" (Num 2048.)));
    ( "engine.poll_throughput",
      edit (engine "poll" 4096.) (set "sessions_per_s" (Num 100.)) );
    ("engine.poll_alloc", edit (engine "poll" 4096.) (set "gc" (Num 500_000.)));
    ( "engine.loop_floor_alloc",
      edit
        [ ("backend", Str "loop_floor"); ("adversary", Str "equivocate") ]
        (set "words_per_round" (Num 700.)) );
    ( "substrate.row_shape",
      edit [ ("op", Str "merkle_build") ] (set "ops_per_s" (Num 0.)) );
    ( "substrate.codec_linear_alloc",
      fun l ->
        let small = num "alloc_bytes_per_op" (find (codec "of_bitstring" 8192.) l) in
        edit (codec "of_bitstring" 32768.)
          (set "alloc_bytes_per_op" (Num (6. *. small)))
          l );
    ( "substrate.rs_encode_speedup",
      edit
        [ ("op", Str "rs_encode"); ("n", Num 13.); ("k", Num 5.) ]
        (set "speedup_vs_ref" (Num 4.)) );
    ( "substrate.rs_decode_systematic",
      fun l ->
        let parity =
          [ ("op", Str "rs_decode"); ("shares", Str "parity"); ("n", Num 13.); ("k", Num 9.) ]
        in
        edit
          [ ("op", Str "rs_decode"); ("shares", Str "systematic"); ("n", Num 13.); ("k", Num 9.) ]
          (set "ops_per_s" (Num (2. *. num "ops_per_s" (find parity l))))
          l );
    (* One word per block at the 64 KiB smoke size. *)
    ( "substrate.sha256_alloc",
      edit [ ("op", Str "sha256") ] (set "minor_words_per_op" (Num 1024.)) );
    ( "substrate.sha256_kernel_speedup",
      edit [ ("op", Str "sha256") ] (set "speedup_vs_ref" (Num 1.5)) );
    ("obs.row_shape", edit every (set "trace_events" (Num 0.)));
    ("obs.overhead", edit every (set "overhead_pct" (Num 11.)));
    ("obs.jsonl_bytes", edit every (set "jsonl_bytes" (Num 900_000.)));
    ( "obs.span_bits",
      edit every (fun row -> set "span_bits" (Num (num "span_bits" row +. 1.)) row) );
    ("obs.identity", edit every (set "det_identical" (Bool false)));
  ]

let test_each_gate_bites () =
  List.iter
    (fun (experiment, gates) ->
      let committed = ledger_of experiment in
      List.iter
        (fun (g : Ledger.gate) ->
          match List.assoc_opt g.Ledger.name edits with
          | None -> Alcotest.failf "no edit exercises %s" g.Ledger.name
          | Some edit ->
              Alcotest.(check (list string))
                (g.Ledger.name ^ " alone fails")
                [ g.Ledger.name ]
                (Ledger.failed (Ledger.check ~timed:true (edit committed))))
        gates)
    Ledger.gates;
  Alcotest.(check int) "one edit per gate"
    (List.length (List.concat_map snd Ledger.gates))
    (List.length edits)

(* The same ledger as if recorded on a host without SHA-NI: the sha256 row
   times the portable kernel against itself, and the gate says it could not
   be checked. *)
let test_sha256_speedup_unenforced () =
  let l = ledger_of "substrate" in
  let portable =
    edit
      [ ("op", Str "sha256") ]
      (set "speedup_vs_ref" (Num 1.))
      { l with Ledger.meta = set "sha256_kernel" (Str "portable") l.Ledger.meta }
  in
  match
    List.find_map
      (fun ((g : Ledger.gate), v) ->
        if g.Ledger.name = "substrate.sha256_kernel_speedup" then Some v else None)
      (Ledger.check ~timed:true portable)
  with
  | Some (Ledger.Unenforced reason) ->
      Alcotest.(check string) "reason" "host has only the portable SHA-256 kernel"
        reason
  | Some v -> Alcotest.failf "substrate.sha256_kernel_speedup: %s" (Ledger.show v)
  | None -> Alcotest.fail "substrate.sha256_kernel_speedup not declared"

(* Compare rows that allocate (a closure per call, 40 B) fail the row
   shape, as codec rows that allocate nothing do. *)
let test_substrate_compare_alloc () =
  let l = ledger_of "substrate" in
  List.iter
    (fun (what, op, bytes) ->
      let alloc bits = edit (codec op bits) (set "alloc_bytes_per_op" (Num bytes)) in
      Alcotest.(check (list string)) what [ "substrate.row_shape" ]
        (Ledger.failed (Ledger.check ~timed:true (alloc 8192. (alloc 32768. l)))))
    [ ("compare allocates", "compare", 40.); ("add allocates nothing", "add", 0.) ]

(* With the l >= 2^16 rows dropped, no row shows Pi_Z below Turpin-Coan BA:
   the crossover gate fails rather than pass on nothing. *)
let test_t1_crossover_needs_rows () =
  let l = ledger_of "t1" in
  let short =
    { l with Ledger.rows = List.filter (fun row -> num "log2_bits" row < 16.) l.Ledger.rows }
  in
  Alcotest.(check (list string))
    "t1.crossover fails" [ "t1.crossover" ]
    (Ledger.failed (Ledger.check ~timed:true short))

(* Timed gates are skipped under --smoke; Exact ones always run. *)
let test_smoke_runs_exact_only () =
  let l = ledger_of "obs" in
  let names timed =
    List.map (fun ((g : Ledger.gate), _) -> g.Ledger.name) (Ledger.check ~timed l)
  in
  Alcotest.(check bool) "timed gate dropped" false
    (List.mem "obs.overhead" (names false));
  Alcotest.(check bool) "exact gate kept" true (List.mem "obs.identity" (names false));
  Alcotest.(check bool) "timed gate run" true (List.mem "obs.overhead" (names true))

let test_shape_and_provenance () =
  let doc meta rows = Printf.sprintf {|{"meta": {%s}, "rows": %s}|} meta rows in
  let meta_with rev =
    Printf.sprintf {|"git_rev": %S, "ocaml_version": "5"|} rev
  in
  let meta = {|"experiment": "t1", |} ^ meta_with "abc1234" in
  let one_row = {|[{"a": 1}]|} in
  let accepts s = Result.is_ok (Ledger.of_string s) in
  Alcotest.(check bool) "well-formed" true (accepts (doc meta one_row));
  Alcotest.(check bool) "nproc stamped" true
    (accepts (doc (meta ^ {|, "nproc": 2|}) one_row));
  (* Ledgers written while the harness could run on several domains carry a
     [domains] field; the reader ignores it. *)
  Alcotest.(check bool) "legacy domains ignored" true
    (accepts (doc (meta ^ {|, "domains": 1.5|}) one_row));
  List.iter
    (fun (what, s) -> Alcotest.(check bool) what false (accepts s))
    [
      ("empty rows", doc meta "[]");
      ("empty row object", doc meta "[{}]");
      ("row not an object", doc meta "[1]");
      ("no rows", Printf.sprintf {|{"meta": {%s}}|} meta);
      ( "no git_rev",
        doc {|"experiment": "t1", "ocaml_version": "5"|} one_row );
      ("nproc below 1", doc (meta ^ {|, "nproc": 0|}) one_row);
      ("nproc not an integer", doc (meta ^ {|, "nproc": "4"|}) one_row);
      ("no experiment", doc (meta_with "a") one_row);
      ("trailing garbage", doc meta one_row ^ " x");
    ];
  let dirty =
    Ledger.of_string
      (doc ({|"experiment": "t1", |} ^ meta_with "abc+dirty") one_row)
  in
  Alcotest.(check bool) "+dirty is a warning, not an error" true
    (match dirty with Ok l -> Ledger.dirty l | Error _ -> false)

(* ---- EXPERIMENTS.md quotes the ledger ------------------------------------ *)

(* [n] with a space between each group of three digits: "34 862 772". *)
let grouped n =
  let s = string_of_int n in
  let len = String.length s in
  String.concat ""
    (List.init len (fun i ->
         let sep = if i > 0 && (len - i) mod 3 = 0 then " " else "" in
         sep ^ String.make 1 s.[i]))

(* The first markdown table under [heading]: each body row's cells. *)
let table_under heading text =
  let rec drop_until p = function
    | l :: rest when not (p l) -> drop_until p rest
    | ls -> ls
  in
  let rec take_while p = function
    | l :: rest when p l -> l :: take_while p rest
    | _ -> []
  in
  let is_row = String.starts_with ~prefix:"|" in
  let cells l =
    String.split_on_char '|' l |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  match
    String.split_on_char '\n' text
    |> drop_until (String.starts_with ~prefix:heading)
    |> drop_until is_row |> take_while is_row
  with
  | _header :: _separator :: body -> List.map cells body
  | _ -> Alcotest.failf "no table under %S" heading

(* Every row of EXPERIMENTS.md's T1 table is the ledger row at the same
   log2_bits as printed: each protocol's honest bits / 1000, rounded, and
   [-] for a [null] cell (a cubic baseline skipped for time). *)
let test_t1_table_equals_ledger () =
  let l = ledger_of "t1" in
  let printed row =
    Printf.sprintf "2^%.0f" (num "log2_bits" row)
    :: List.map
         (fun key ->
           match List.assoc_opt key row with
           | Some (Num bits) -> Printf.sprintf "%.0f" (Float.round (bits /. 1000.))
           | Some Null -> "-"
           | _ -> Alcotest.failf "row without %s" key)
         [ "pi_z_bits"; "tc_ba_bits"; "high_cost_ca_bits"; "broadcast_ca_bits" ]
  in
  Alcotest.(check (list (list string)))
    "T1 table = BENCH_t1.json"
    (List.map printed l.Ledger.rows)
    (table_under "## T1 —" (read_file (Filename.concat ledger_dir "EXPERIMENTS.md")))

(* Every row of EXPERIMENTS.md's T8 table is its ledger row as printed:
   backend, n, t, honest kbit, rounds and whether Definition 1 held. *)
let test_auth_table_equals_ledger () =
  let l = ledger_of "auth" in
  let printed row =
    [
      (match List.assoc_opt "backend" row with
      | Some (Str b) -> b
      | _ -> Alcotest.fail "row without a backend");
      Printf.sprintf "%.0f" (num "n" row);
      Printf.sprintf "%.0f" (num "t" row);
      Printf.sprintf "%.1f" (num "honest_bits" row /. 1000.);
      Printf.sprintf "%.0f" (num "rounds" row);
      (match List.assoc_opt "ca_holds" row with
      | Some (Bool b) -> string_of_bool b
      | _ -> Alcotest.fail "row without ca_holds");
    ]
  in
  let table =
    table_under "## T8 —" (read_file (Filename.concat ledger_dir "EXPERIMENTS.md"))
  in
  Alcotest.(check (list (list string)))
    "T8 table = BENCH_auth.json"
    (List.map printed l.Ledger.rows)
    table

(* Every sim and poll row of EXPERIMENTS.md's ENGINE table is its ledger
   row as printed: backend, K, wall (s), sessions/s, peak RSS (MiB), frames
   sent, frames saved, gc (words/session) and draws (1 for a poll row); and
   every row of its loop-floor table is a loop_floor row: adversary,
   rounds, µs/round, words/round and draws. *)
let test_engine_table_equals_ledger () =
  let l = ledger_of "engine" in
  let backend row =
    match List.assoc_opt "backend" row with
    | Some (Str b) -> b
    | _ -> Alcotest.fail "row without a backend"
  in
  let floor, sessions =
    List.partition (fun row -> backend row = "loop_floor") l.Ledger.rows
  in
  let printed row =
    let int key = int_of_float (num key row) in
    [
      backend row;
      string_of_int (int "sessions");
      Printf.sprintf "%.3f" (num "wall_s" row);
      Printf.sprintf "%.1f" (num "sessions_per_s" row);
      Printf.sprintf "%.1f" (num "rss_bytes" row /. 1048576.);
      grouped (int "frames_sent");
      grouped (int "frames_saved");
      grouped (Float.to_int (Float.round (num "gc" row)));
      (if List.mem_assoc "draws" row then string_of_int (int "draws") else "1");
    ]
  in
  let printed_floor row =
    [
      (match List.assoc_opt "adversary" row with
      | Some (Str a) -> a
      | _ -> Alcotest.fail "loop_floor row without an adversary");
      Printf.sprintf "%.0f" (num "engine_rounds" row);
      Printf.sprintf "%.2f" (num "us_per_round" row);
      Printf.sprintf "%.1f" (num "words_per_round" row);
      Printf.sprintf "%.0f" (num "draws" row);
    ]
  in
  let text = read_file (Filename.concat ledger_dir "EXPERIMENTS.md") in
  Alcotest.(check (list (list string)))
    "ENGINE table = BENCH_engine.json"
    (List.map printed sessions)
    (table_under "## ENGINE —" text);
  Alcotest.(check (list (list string)))
    "ENGINE loop-floor table = BENCH_engine.json"
    (List.map printed_floor floor)
    (table_under "### ENGINE loop floor" text)

(* The staleness check behind `bench/main.exe --smoke`: a
   recomputed ledger equal to its committed copy but for the provenance
   stamp passes; one moved cell, one missing row or one moved meta field
   is reported. *)
let test_stale_names_the_difference () =
  List.iter
    (fun experiment ->
      let l = ledger_of experiment in
      let restamped =
        { l with Ledger.meta = set "git_rev" (Str "0000000") (set "nproc" (Num 64.) l.Ledger.meta) }
      in
      Alcotest.(check (option string))
        (experiment ^ ": provenance aside, equal") None
        (Ledger.stale ~committed:l ~fresh:restamped);
      let first = List.hd l.Ledger.rows in
      let key, _ = List.hd first in
      let moved = { l with Ledger.rows = set key (Str "moved") first :: List.tl l.Ledger.rows } in
      Alcotest.(check bool)
        (experiment ^ ": a moved cell is named") true
        (match Ledger.stale ~committed:l ~fresh:moved with
        | Some d -> String.starts_with ~prefix:("rows[0]." ^ key ^ ": committed") d
        | None -> false);
      Alcotest.(check bool)
        (experiment ^ ": a dropped row is named") true
        (Ledger.stale ~committed:l ~fresh:{ l with Ledger.rows = List.tl l.Ledger.rows } <> None);
      Alcotest.(check bool)
        (experiment ^ ": a moved meta field is named") true
        (Ledger.stale ~committed:l
           ~fresh:{ l with Ledger.meta = ("n", Num 99.) :: List.remove_assoc "n" l.Ledger.meta }
        <> None))
    Ledger.recomputed

let suite =
  [
    Alcotest.test_case "committed ledgers pass their gates" `Quick test_committed_pass;
    Alcotest.test_case "one ledger per gated experiment" `Quick
      test_one_ledger_per_gated_experiment;
    Alcotest.test_case "each gate fails on its own edit" `Quick test_each_gate_bites;
    Alcotest.test_case "t1 crossover fails short of 2^16" `Quick
      test_t1_crossover_needs_rows;
    Alcotest.test_case "smoke runs the Exact gates only" `Quick
      test_smoke_runs_exact_only;
    Alcotest.test_case "shape and provenance checks" `Quick test_shape_and_provenance;
    Alcotest.test_case "EXPERIMENTS ENGINE table = ledger" `Quick
      test_engine_table_equals_ledger;
    Alcotest.test_case "sha256 kernel speedup unenforced without SHA-NI" `Quick
      test_sha256_speedup_unenforced;
    Alcotest.test_case "EXPERIMENTS T8 table = ledger" `Quick
      test_auth_table_equals_ledger;
    Alcotest.test_case "EXPERIMENTS T1 table = ledger" `Quick
      test_t1_table_equals_ledger;
    Alcotest.test_case "substrate compare allocates nothing" `Quick
      test_substrate_compare_alloc;
    Alcotest.test_case "stale ledger names its difference" `Quick
      test_stale_names_the_difference;
  ]
