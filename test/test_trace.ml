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

(* SHA-256 digests and byte lengths of two message-level exports, captured
   from the executor that kept a separate trace recorder. Any change to the
   rows, their order or the CLI's summary fails them. *)

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

(* [ca_cli trace] on n=7, t=2 under equivocate, seed 11: the CSV it writes
   and the summary it prints. *)
let cli_trace_pins =
  ( ("064010cf1cb85b001f160b333dad3cee6f2f40fedfc80a7811913050698d6d01", 137096),
    ("b2c48797d79ccd04491b7a32336d903e88234ef4b8be441ad92bda3f87e63163", 325) )

let test_cli_trace_pinned () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let run args =
    let out = Filename.temp_file "ca-trace" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "%s trace -n 7 -t 2 --adversary equivocate --seed 11 %s >%s"
           cli args (Filename.quote out))
    in
    Alcotest.(check int) "exit code" 0 code;
    let s = read_file out in
    Sys.remove out;
    s
  in
  let csv_path = Filename.temp_file "ca-trace" ".csv" in
  ignore (run ("--csv " ^ Filename.quote csv_path));
  let csv = read_file csv_path in
  Sys.remove csv_path;
  let csv_pin, summary_pin = cli_trace_pins in
  Alcotest.check pin "ca_cli trace --csv" csv_pin (digest csv);
  Alcotest.check pin "ca_cli trace summary" summary_pin (digest (run ""))

(* [ca_cli telemetry] on the same scenario: the Det JSONL it writes and the
   span report it prints. *)
let cli_telemetry_pins =
  ( ("d8ef702d9df96246cf7f2d4c49fb20e046fb93a31a4e17a2c3413e4374d43add", 51059),
    ("70377f87d55c4e6b048574d59718a2f005ecbfd72e3af2e21c505bae98751bd2", 5051) )

let test_cli_telemetry_pinned () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let run args =
    let out = Filename.temp_file "ca-telemetry" ".out" in
    let code =
      Sys.command
        (Printf.sprintf
           "%s telemetry -n 7 -t 2 --adversary equivocate --seed 11 %s >%s" cli
           args (Filename.quote out))
    in
    Alcotest.(check int) "exit code" 0 code;
    let s = read_file out in
    Sys.remove out;
    s
  in
  let jsonl_path = Filename.temp_file "ca-telemetry" ".jsonl" in
  ignore (run ("--jsonl " ^ Filename.quote jsonl_path));
  let jsonl = read_file jsonl_path in
  Sys.remove jsonl_path;
  let jsonl_pin, report_pin = cli_telemetry_pins in
  Alcotest.check pin "ca_cli telemetry --jsonl" jsonl_pin (digest jsonl);
  Alcotest.check pin "ca_cli telemetry report" report_pin (digest (run ""))

(* The K=8 engine run of the obs and multicore suites (n=7, t=2, sessions
   two rounds apart, each under its own equivocating adversary), its rows
   sorted by (session, round, src, dst). *)
let engine_k8_csv_pin = ("85a8d0a4a9cb4851b56bd414e52e420196c9ec3eeafeda6a149d8e0f1d0dd140", 1668494)

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
  ignore (Engine.run_sim ~obs ~n ~t ~corrupt specs);
  let csv = Obs.messages_csv obs in
  Alcotest.(check string) "rows come sorted" (sorted_csv csv) csv;
  Alcotest.check pin "engine K=8 CSV" engine_k8_csv_pin (digest (sorted_csv csv))

let suite =
  [
    Alcotest.test_case "events match metrics" `Quick test_events_match_metrics;
    Alcotest.test_case "event shape" `Quick test_event_shape;
    Alcotest.test_case "summaries" `Quick test_summaries;
    Alcotest.test_case "csv export" `Quick test_csv;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "pin: ca_cli trace CSV and summary" `Quick
      test_cli_trace_pinned;
    Alcotest.test_case "pin: ca_cli telemetry JSONL and report" `Quick
      test_cli_telemetry_pinned;
    Alcotest.test_case "pin: engine K=8 CSV, sorted rows" `Quick
      test_engine_k8_csv_pinned;
  ]
