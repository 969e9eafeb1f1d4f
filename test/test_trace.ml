(* Message events: capture fidelity, the summary and the CSV export. *)

open Net

let traced_run () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let inputs = Array.init n (fun i -> Bigint.of_int (70 + i)) in
  let obs = Obs.create ~messages:true () in
  let outcome =
    Sim.run ~obs ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  (n, obs, outcome)

let test_events_match_metrics () =
  let _n, obs, outcome = traced_run () in
  let events = Obs.messages obs in
  let honest_bits =
    List.fold_left
      (fun acc e -> if e.Obs.byzantine then acc else acc + (8 * e.Obs.bytes))
      0 events
  in
  Alcotest.check Alcotest.int "honest bits match metrics"
    outcome.Sim.metrics.Metrics.honest_bits honest_bits;
  let msgs = List.length (List.filter (fun e -> not e.Obs.byzantine) events) in
  Alcotest.check Alcotest.int "message count matches" outcome.Sim.metrics.Metrics.honest_msgs
    msgs;
  let c = Obs.counts obs in
  Alcotest.check Alcotest.int "length consistent" (List.length events)
    (c.Obs.honest_msgs + c.Obs.byz_msgs)

let test_event_shape () =
  let n, obs, outcome = traced_run () in
  List.iter
    (fun e ->
      Alcotest.check Alcotest.bool "round in range" true
        (e.Obs.round >= 1 && e.Obs.round <= outcome.Sim.metrics.Metrics.rounds);
      Alcotest.check Alcotest.bool "endpoints in range" true
        (e.Obs.src >= 0 && e.Obs.src < n && e.Obs.dst >= 0 && e.Obs.dst < n);
      Alcotest.check Alcotest.bool "no self messages" true (e.Obs.src <> e.Obs.dst);
      Alcotest.check Alcotest.bool "byz flag correct" true
        (e.Obs.byzantine = (e.Obs.src = 0));
      Alcotest.check Alcotest.int "single-session run: session 0" 0
        e.Obs.session)
    (Obs.messages obs)

(* The summary's lines against the events: the count, the five hottest
   rounds, each no hotter than the one before, and bytes per sender adding
   up to every byte sent. *)
let test_summaries () =
  let n, obs, outcome = traced_run () in
  let events = Obs.messages obs in
  let per_round = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if not e.Obs.byzantine then
        Hashtbl.replace per_round e.Obs.round
          ((8 * e.Obs.bytes) + Option.value ~default:0 (Hashtbl.find_opt per_round e.Obs.round)))
    events;
  Alcotest.check Alcotest.int "per-round sums to total"
    outcome.Sim.metrics.Metrics.honest_bits
    (Hashtbl.fold (fun _ b acc -> acc + b) per_round 0);
  let lines =
    String.split_on_char '\n'
      (String.trim (Format.asprintf "%a" (fun fmt o -> Obs.pp_messages fmt o ~n) obs))
  in
  Alcotest.check Alcotest.string "count line"
    (Printf.sprintf "%d messages" (List.length events))
    (List.hd lines);
  let hottest =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "  round %d: %f" (fun r kb -> (r, kb)))
      lines
  in
  Alcotest.check Alcotest.int "five hottest rounds"
    (min 5 (Hashtbl.length per_round))
    (List.length hottest);
  List.iter
    (fun (r, kb) ->
      Alcotest.check (Alcotest.float 0.05)
        (Printf.sprintf "round %d kbits" r)
        (float_of_int (Hashtbl.find per_round r) /. 1000.)
        kb)
    hottest;
  Alcotest.check Alcotest.bool "hottest first" true
    (let rec desc = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
       | _ -> true
     in
     desc hottest);
  let sender_total =
    List.fold_left ( + ) 0
      (List.filter_map (fun l -> Scanf.sscanf_opt l "  party %d: %d" (fun _ b -> b)) lines)
  in
  let event_total = List.fold_left (fun acc e -> acc + e.Obs.bytes) 0 events in
  Alcotest.check Alcotest.int "per-sender bytes account all bytes" event_total
    sender_total

let test_csv () =
  let _n, obs, _outcome = traced_run () in
  let csv = Obs.messages_csv obs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.check Alcotest.int "one line per event + header"
    (List.length (Obs.messages obs) + 1) (List.length lines);
  Alcotest.check Alcotest.string "header" Obs.csv_header (List.hd lines);
  Alcotest.check Alcotest.string "header names session last"
    "round,src,dst,bytes,byzantine,label,session" Obs.csv_header;
  List.iter
    (fun line ->
      Alcotest.check Alcotest.int "seven fields" 7
        (List.length (String.split_on_char ',' line)))
    lines;
  (* Single-session runs record everything under session 0. *)
  List.iter
    (fun line ->
      match List.rev (String.split_on_char ',' line) with
      | last :: _ -> Alcotest.check Alcotest.string "session column" "0" last
      | [] -> Alcotest.fail "empty csv line")
    (List.tl lines)

let test_empty_trace () =
  let obs = Obs.create ~messages:true () in
  Alcotest.check Alcotest.int "empty" 0 (List.length (Obs.messages obs));
  Alcotest.check Alcotest.string "header only" (Obs.csv_header ^ "\n") (Obs.messages_csv obs);
  (* A recorder made without [~messages] keeps no events. *)
  let plain = Obs.create () in
  ignore
    (Sim.run ~obs:plain ~n:4 ~t:1 ~corrupt:(Array.make 4 false)
       ~adversary:Adversary.passive (fun ctx -> Convex.agree_int ctx (Bigint.of_int ctx.Ctx.me)));
  Alcotest.check Alcotest.int "no events without ~messages" 0
    (List.length (Obs.messages plain))

(* ---- pins on the exported bytes ------------------------------------------ *)

(* SHA-256 digests and byte lengths of the CLI's exports and of one engine
   run's message CSV. Any change to the rows, their order, the Det JSONL or
   the CLI's summary and report fails them. They were re-taken when Π_BA's
   phase king began sending back-references instead of repeated values;
   the outputs, round counts and message rows without their byte counts
   are pinned separately, from before that change. All of them were
   re-taken when FINDPREFIX began agreeing on windows of at most κ bits
   with Π_BA+ itself: each such non-⊥ call skips Π_ℓBA+'s two distribution
   rounds, so the CLI run went from 186 to 180 rounds and each engine
   session from 280–296 to 274–292, with every output unchanged. *)

let digest s = (Sha256.hex s, String.length s)
let pin = Alcotest.(pair string int)

(* The data rows of a CSV sorted by (session, round, src, dst), header first. *)
let sorted_csv csv =
  match String.split_on_char '\n' (String.trim csv) with
  | [] -> csv
  | header :: rows ->
      let key row =
        match List.map int_of_string_opt (String.split_on_char ',' row) with
        | [ Some round; Some src; Some dst; _; _; _; Some session ] ->
            (session, round, src, dst)
        | _ | (exception _) -> Alcotest.fail ("malformed CSV row: " ^ row)
      in
      String.concat "\n"
        (header :: List.stable_sort (fun a b -> compare (key a) (key b)) rows)
      ^ "\n"

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ca_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [ca_cli run -n 7 -t 2 --adversary equivocate --seed 11 FLAG FILE]: its
   stdout and the file it wrote. *)
let cli_run flag =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let file = Filename.temp_file "ca-cli" ".out" and out = Filename.temp_file "ca-cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s run -n 7 -t 2 --adversary equivocate --seed 11 %s %s >%s" cli
         flag (Filename.quote file) (Filename.quote out))
  in
  Alcotest.(check int) "exit code" 0 code;
  let take p =
    let s = read_file p in
    Sys.remove p;
    s
  in
  let stdout = take out in
  (stdout, take file)

(* The text of [out] from the line that starts with [first] to the end. *)
let from_line first out =
  let rec skip = function
    | [] -> Alcotest.fail ("no line starts with " ^ first)
    | l :: _ as rest when String.starts_with ~prefix:first l -> String.concat "\n" rest
    | _ :: rest -> skip rest
  in
  skip (String.split_on_char '\n' out)

(* The output and the round count [ca_cli run] prints for that scenario. *)
let output_and_rounds out =
  let line prefix =
    match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out) with
    | Some l -> l
    | None -> Alcotest.fail ("no line starts with " ^ prefix)
  in
  let communication = String.split_on_char ',' (line "communication:") in
  (line "output:", String.trim (List.hd (List.rev communication)))

let cli_outcome_pin = ("output:          -1004", "180 rounds")

(* [ca_cli run --csv] on n=7, t=2 under equivocate, seed 11: the CSV it
   writes and the message summary it prints last. *)
let cli_csv_pins =
  ( ("0d1edc18d12c1cf3f7d907b6b606084ae433ce3694421d11ca574ad13b6de0a5", 128876),
    ("bb7ad996785e9990f959ebd737bd1f755c89fa8c53ca9c96bafbd758656f7966", 325) )

let test_cli_csv_pinned () =
  let out, csv = cli_run "--csv" in
  let csv_pin, summary_pin = cli_csv_pins in
  Alcotest.check pin "ca_cli run --csv" csv_pin (digest csv);
  let count = List.length (String.split_on_char '\n' csv) - 2 in
  Alcotest.check pin "ca_cli run --csv summary" summary_pin
    (digest (from_line (Printf.sprintf "%d messages" count) out));
  Alcotest.(check (pair string string))
    "ca_cli run --csv: output and rounds" cli_outcome_pin (output_and_rounds out)

(* [ca_cli run --telemetry] on the same scenario: the Det JSONL it writes and
   the span report it prints last. *)
let cli_telemetry_pins =
  ( ("686540ab9511f87c3f0a6d979f722ddd9fba7c25de8b12e13d788e3359add343", 47053),
    ("50a96adb5e8e5179f9b7d97d165b69810688258ac0e631a70cf3aaca0188bcb5", 4778) )

let test_cli_telemetry_pinned () =
  let out, jsonl = cli_run "--telemetry" in
  let jsonl_pin, report_pin = cli_telemetry_pins in
  Alcotest.check pin "ca_cli run --telemetry" jsonl_pin (digest jsonl);
  Alcotest.check pin "ca_cli run --telemetry report" report_pin
    (digest (from_line "telemetry report" out));
  Alcotest.(check (pair string string))
    "ca_cli run --telemetry: output and rounds" cli_outcome_pin (output_and_rounds out)

(* The K=8 engine run of the obs and poll suites (n=7, t=2, sessions
   two rounds apart, each under its own equivocating adversary), its rows
   sorted by (session, round, src, dst). *)
let engine_k8_csv_pin = ("3c0b48a89ec51a700599826b2501fba10a1e265e32936bc7c4ba99fd0d77b895", 1608128)

(* The same sorted rows without the bytes column (who sent to whom in which
   round, under which label), and each session's rounds and outputs. *)
let engine_k8_rows_pin =
  ("024f02aea678d7c4c9b359619647a60ca20ffa3bbbbb8a4798ecb3a2a5ddb886", 1472018)
let engine_k8_outcome_pin =
  ("87174b55c6f53016924ebcb676ec2c129d9df369dfab379ad48535095cf34a39", 927)

let without_bytes csv =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat "," (List.filteri (fun i _ -> i <> 3) (String.split_on_char ',' row)))
       (String.split_on_char '\n' csv))

let test_engine_k8_csv_pinned () =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs =
    List.init 8 (fun k ->
        let inputs =
          let rng = Prng.create (4242 + (101 * k)) in
          Workload.clustered_bits rng ~n ~bits:48 ~shared_prefix_bits:16
        in
        Engine.session ~sid:k ~start_round:(2 * k)
          ~adversary:(Adversary.equivocate ~seed:(4242 + (31 * k)))
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
  in
  let obs = Obs.create ~messages:true () in
  let outcome = Engine.run_sim ~obs ~n ~t ~corrupt specs in
  let csv = Obs.messages_csv obs in
  Alcotest.(check string) "rows come sorted" (sorted_csv csv) csv;
  Alcotest.check pin "engine K=8 CSV" engine_k8_csv_pin (digest (sorted_csv csv));
  Alcotest.check pin "engine K=8 CSV without bytes" engine_k8_rows_pin
    (digest (without_bytes (sorted_csv csv)));
  Alcotest.check pin "engine K=8 rounds and outputs" engine_k8_outcome_pin
    (digest
       (String.concat "\n"
          (List.map
             (fun r ->
               String.concat " "
                 (string_of_int r.Engine.r_metrics.Metrics.rounds
                 :: Array.to_list
                      (Array.map
                         (function Some o -> Bigint.to_string o | None -> "-")
                         r.Engine.r_outputs)))
             outcome.Engine.sessions)))

(* [run] is the one command that runs a single scenario: the two it
   replaced are gone, and [obs] needs [--check]. The two authenticated
   backends run on ca_cli's own setup: an exhausted signing key or a
   Definition 1 violation would exit non-zero. *)
let test_cli_commands () =
  let code args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args) in
  Alcotest.(check int) "list" 0 (code "list");
  List.iter
    (fun args -> Alcotest.(check int) args 0 (code args))
    [ "run -n 4 -t 1 --ba auth"; "run -n 4 -t 1 --ba adaptive-auth" ];
  List.iter
    (fun args -> Alcotest.(check bool) (args ^ " is refused") true (code args <> 0))
    [ "trace -n 4 -t 1"; "telemetry -n 4 -t 1"; "obs" ]

let suite =
  [
    Alcotest.test_case "events match metrics" `Quick test_events_match_metrics;
    Alcotest.test_case "event shape" `Quick test_event_shape;
    Alcotest.test_case "summaries" `Quick test_summaries;
    Alcotest.test_case "csv export" `Quick test_csv;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "pin: run --csv CSV and summary" `Quick
      test_cli_csv_pinned;
    Alcotest.test_case "pin: run --telemetry JSONL, report" `Quick
      test_cli_telemetry_pinned;
    Alcotest.test_case "pin: engine K=8 CSV, sorted rows" `Quick
      test_engine_k8_csv_pinned;
    Alcotest.test_case "ca_cli: run, engine, obs, list" `Quick
      test_cli_commands;
  ]
