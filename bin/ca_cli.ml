(* convex-agreement — command-line front end.

   Runs a configurable Convex Agreement scenario in the deterministic
   simulator and reports outputs, property checks and communication metrics.

     dune exec bin/ca_cli.exe -- run -n 10 -t 3 --workload sensors \
         --adversary equivocate --attack outlier-high
     dune exec bin/ca_cli.exe -- run --protocol broadcast-ca --bits 64 \
         --workload timestamps --verbose
     dune exec bin/ca_cli.exe -- list *)

open Net

(* ------------------------------------------------------------------ *)
(* Catalogues                                                          *)
(* ------------------------------------------------------------------ *)

let lookup what table name =
  match List.assoc_opt name table with
  | Some v -> v
  | None ->
      Printf.eprintf "error: unknown %s %S; available: %s\n" what name
        (String.concat ", " (List.map fst table));
      exit 2

let adversaries = List.map (fun e -> (e.Attacks.name, e)) Attacks.registry

(* The adversary named [name] in [Attacks.registry], built fresh from
   [seed]; the attacks that inject a value inject the digest of the seed. *)
let adversary ~seed name =
  (lookup "adversary" adversaries name).Attacks.make ~seed
    ~payload:(Sha256.digest (string_of_int seed))

let input_attacks =
  List.map (fun a -> (Workload.input_attack_name a, a)) Workload.input_attacks

let protocol_catalogue ~bits ~aa_rounds =
  [
    ("pi-z", Workload.pi_z);
    ("high-cost-ca", Workload.high_cost_ca ~bits);
    ("broadcast-ca", Workload.broadcast_ca ~bits);
    ("median-ba", Workload.median_ba ~bits);
    ("tc-ba", Workload.turpin_coan_ba ~bits);
    ("phase-king-ba", Workload.phase_king_ba ~bits);
    ("approx-agreement", Workload.approx_agreement ~bits ~rounds:aa_rounds);
  ]

(* The Pi_BA substrate seam: which BA backend the pi-z protocol family runs
   its agreement sub-calls on. *)
let ba_backends = [ "unauth"; "auth"; "adaptive"; "adaptive-auth" ]

let resolve_ba ba_name =
  match ba_name with
  | "unauth" -> `Unauth
  | "auth" -> `Auth
  | "adaptive" -> `Adaptive
  | "adaptive-auth" -> `AdaptiveAuth
  | b ->
      Printf.eprintf "error: unknown --ba backend %S; available: %s\n" b
        (String.concat ", " ba_backends);
      exit 2

(* A fresh authenticated setup per protocol run: XMSS signers are stateful.
   Counted runs of Pi_Z over the auth backend (n = 4..10, l = 32..2^16,
   passive and equivocate) open 13 to 23 BA sub-calls and sign n times per
   call; the call count grows with log n (each FINDPREFIX iteration opens up
   to four), so 64 instances at 2n signatures each leave a wide margin. *)
let auth_setup ~seed ~n =
  Auth.Setup.generate ~seed:(seed + 7919) ~n
    ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:64)

let workload_catalogue rng ~n ~bits =
  [
    ("sensors", fun () -> Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2);
    ( "prices",
      fun () -> Workload.price_feed rng ~n ~base:"2931" ~decimals:18 ~spread_ppm:200 );
    ( "timestamps",
      fun () ->
        Workload.timestamps rng ~n ~now_ns:"1783425600000000000" ~skew_ns:40_000_000 );
    ("uniform", fun () -> Workload.uniform_bits rng ~n ~bits);
    ( "clustered",
      fun () -> Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2) );
  ]

(* ------------------------------------------------------------------ *)
(* Recorder helpers                                                    *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* A recorder pre-loaded with the scenario parameters as meta lines, shared
   by every command that can attach one. *)
let make_recorder ?messages ~command kvs =
  let o = Obs.create ?messages () in
  Obs.set_meta o "command" command;
  List.iter (fun (k, v) -> Obs.set_meta o k v) kvs;
  o

let require_resilience ~n ~t =
  if 3 * t >= n then begin
    Printf.eprintf "error: resilience requires t < n/3 (got n=%d, t=%d)\n" n t;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* One scenario: what run executes                                    *)
(* ------------------------------------------------------------------ *)

(* How a session under a --ba backend is set up. *)
let ba_setup = function
  | `Unauth | `Adaptive -> `Plain
  | `Auth | `AdaptiveAuth -> `Authenticated

type scenario = {
  protocol : Workload.protocol;
  setup : [ `Plain | `Authenticated ];
  adversary : Adversary.t;
  corrupt : bool array;
  inputs : Bigint.t array;
  meta : (string * string) list;  (** the parameters, for a recorder *)
}

(* The steps of a run, in one order, so a bad value is reported the same way
   whatever else is wrong: the resilience check, the seeded PRNG, the
   protocol (through the [ba] backend), the workload, adversary and
   input-attack lookups, then the spread corruption pattern and the attacked
   inputs. *)
let scenario ~ba n t protocol_name workload_name adversary_name attack_name bits
    aa_rounds seed =
  require_resilience ~n ~t;
  let rng = Prng.create seed in
  let backend = resolve_ba ba in
  let require_pi_z () =
    if not (String.equal protocol_name "pi-z") then begin
      Printf.eprintf
        "error: --ba %s applies to --protocol pi-z (the functorized Pi_BA \
         seam); %S has no BA substrate\n"
        ba protocol_name;
      exit 2
    end
  in
  let protocol =
    match backend with
    | `Unauth -> lookup "protocol" (protocol_catalogue ~bits ~aa_rounds) protocol_name
    | `Auth ->
        require_pi_z ();
        Workload.pi_z_auth (auth_setup ~seed ~n)
    | `Adaptive ->
        require_pi_z ();
        Workload.pi_z_adaptive ()
    | `AdaptiveAuth ->
        require_pi_z ();
        Workload.pi_z_adaptive_auth (auth_setup ~seed ~n)
  in
  let gen = lookup "workload" (workload_catalogue rng ~n ~bits) workload_name in
  let adversary = adversary ~seed adversary_name in
  let attack = lookup "attack" input_attacks attack_name in
  let corrupt = Workload.spread_corrupt ~n ~t in
  {
    protocol;
    setup = ba_setup backend;
    adversary;
    corrupt;
    inputs = Workload.apply_input_attack attack ~corrupt (gen ());
    meta =
      [
        ("protocol", protocol_name);
        ("workload", workload_name);
        ("adversary", adversary_name);
        ("attack", attack_name);
        ("ba", ba);
      ]
      @ List.map
          (fun (k, v) -> (k, string_of_int v))
          [ ("n", n); ("t", t); ("bits", bits); ("seed", seed) ];
  }

(* ------------------------------------------------------------------ *)
(* The run command                                                     *)
(* ------------------------------------------------------------------ *)

let run_scenario n t protocol_name workload_name adversary_name attack_name
    ba_name bits aa_rounds seed verbose telemetry_path csv_path =
  let { protocol; setup; adversary; corrupt; inputs; meta } =
    scenario ~ba:ba_name n t protocol_name workload_name adversary_name
      attack_name bits aa_rounds seed
  in
  if verbose then begin
    Printf.printf "inputs:\n";
    Array.iteri
      (fun i v ->
        Printf.printf "  party %2d: %s%s\n" i (Obs.show_value v)
          (if corrupt.(i) then "   <- byzantine" else ""))
      inputs
  end;
  (* One recorder serves both exports; it keeps message events only for
     --csv. *)
  let obs =
    if telemetry_path = None && csv_path = None then None
    else Some (make_recorder ~messages:(csv_path <> None) ~command:"run" meta)
  in
  let report =
    Workload.run_int ?obs ~setup ~n ~t ~corrupt ~adversary
      ~inputs protocol.Workload.run
  in
  let with_obs path f = match (obs, path) with Some o, Some p -> f o p | _ -> () in
  with_obs telemetry_path (fun o path ->
      write_file path (Obs.to_jsonl ~tier:Obs.Det o);
      Printf.printf "telemetry:       wrote JSONL to %s\n" path);
  with_obs csv_path (fun o path ->
      write_file path (Obs.messages_csv o);
      Printf.printf "csv:             wrote %d events to %s\n"
        (List.length (Obs.messages o)) path);
  Printf.printf "protocol:        %s\n" protocol.Workload.proto_name;
  Printf.printf "parties:         n=%d, t=%d, adversary=%s, attack=%s, seed=%d\n" n t
    adversary.Adversary.name attack_name seed;
  Printf.printf "output:          %s\n"
    (match report.Workload.outputs with
    | o :: _ -> Obs.show_value o
    | [] -> "(none)");
  Printf.printf "agreement:       %b\n" report.Workload.agreement;
  Printf.printf "convex validity: %b%s\n" report.Workload.convex_validity
    (if protocol.Workload.solves_ca then ""
     else "   (not promised by this protocol)");
  Printf.printf "communication:   %d honest bits (%d byzantine), %d rounds\n"
    report.Workload.honest_bits report.Workload.byz_bits report.Workload.rounds;
  if verbose then begin
    Printf.printf "per-component honest bits:\n";
    List.iter
      (fun (label, b) -> Printf.printf "  %-20s %10d\n" label b)
      report.Workload.labels
  end;
  (* The message summary (--csv), then the span report (--telemetry), each
     after a blank line. *)
  with_obs csv_path (fun o _ ->
      Format.printf "@.%a@?" (fun fmt o -> Obs.pp_messages fmt o ~n) o);
  with_obs telemetry_path (fun o _ ->
      Format.printf "@.%a@?" (fun fmt o -> Obs.pp_report fmt o) o);
  if protocol.Workload.solves_ca && not (report.Workload.agreement && report.Workload.convex_validity)
  then exit 1

(* ------------------------------------------------------------------ *)
(* The engine command                                                  *)
(* ------------------------------------------------------------------ *)

let engine_scenario n t sessions spacing backend adversary_name attack_name
    ba_name bits seed verbose obs_dir =
  require_resilience ~n ~t;
  if sessions < 1 then begin
    Printf.eprintf "error: --sessions must be at least 1\n";
    exit 2
  end;
  if spacing < 0 then begin
    Printf.eprintf "error: --spacing must be non-negative\n";
    exit 2
  end;
  (match backend with
  | "sim" | "poll" -> ()
  | b ->
      Printf.eprintf "error: unknown backend %S; available: sim, poll\n" b;
      exit 2);
  let ba = resolve_ba ba_name in
  let session_setup = ba_setup ba in
  let attack = lookup "attack" input_attacks attack_name in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Each session gets its own seeded input vector and its own adversary
     instance (strategies carry PRNG state), as the engine requires. *)
  let inputs =
    Array.init sessions (fun k ->
        let rng = Prng.create (seed + (101 * k)) in
        Workload.apply_input_attack attack ~corrupt
          (Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)))
  in
  (* One protocol value per session: under --ba auth each session gets its
     own fresh setup (XMSS signers are stateful, and sessions are
     independent protocol runs). *)
  (* Fast-path accounting for the adaptive backends: one record per
     (session, party), summed over honest parties into the Obs Det tier
     after the run. *)
  let adaptive_stats =
    Array.init sessions (fun _ -> Array.init n (fun _ -> Adaptive.stats ()))
  in
  let protos =
    Array.init sessions (fun k ->
        let stats_of me = adaptive_stats.(k).(me) in
        match ba with
        | `Unauth -> Workload.pi_z
        | `Auth -> Workload.pi_z_auth (auth_setup ~seed:(seed + (31 * k)) ~n)
        | `Adaptive -> Workload.pi_z_adaptive ~stats_of ()
        | `AdaptiveAuth ->
            Workload.pi_z_adaptive_auth ~stats_of
              (auth_setup ~seed:(seed + (31 * k)) ~n))
  in
  let specs =
    List.init sessions (fun k ->
        let adversary = adversary ~seed:(seed + (997 * k)) adversary_name in
        Engine.session ~start_round:(k * spacing) ~adversary ~setup:session_setup
          ~sid:k (fun ctx ->
            protos.(k).Workload.run ctx inputs.(k).(ctx.Ctx.me)))
  in
  (* Meta lines are part of the Det export, which must be byte-identical
     across backends: they name the scenario, not the backend. *)
  let obs =
    Option.map
      (fun _ ->
        make_recorder ~command:"engine"
           [
             ("adversary", adversary_name);
             ("attack", attack_name);
             ("ba", ba_name);
             ("n", string_of_int n);
             ("t", string_of_int t);
             ("sessions", string_of_int sessions);
             ("spacing", string_of_int spacing);
             ("bits", string_of_int bits);
             ("seed", string_of_int seed);
           ])
      obs_dir
  in
  let outcome =
    match backend with
    | "poll" -> Engine.run_poll ?obs ~n ~t ~corrupt specs
    | _ -> Engine.run_sim ?obs ~n ~t ~corrupt specs
  in
  (* The adaptive counters are Det-tier: summed over honest parties in fixed
     index order, they are byte-identical across sim and poll. *)
  (match (obs, ba) with
  | Some o, (`Adaptive | `AdaptiveAuth) ->
      let fast = Obs.counter o ~tier:Obs.Det "adaptive/fast_path_taken"
      and fb = Obs.counter o ~tier:Obs.Det "adaptive/fallbacks"
      and f_obs = Obs.counter o ~tier:Obs.Det "adaptive/f_observed" in
      Array.iter
        (fun per_party ->
          Array.iteri
            (fun i s ->
              if not corrupt.(i) then begin
                Obs.incr fast s.Adaptive.fast_taken;
                Obs.incr fb s.Adaptive.fallbacks;
                Obs.incr f_obs s.Adaptive.f_observed
              end)
            per_party)
        adaptive_stats
  | _ -> ());
  (match obs_dir with
  | Some dir ->
      let o = Option.get obs in
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_file (Filename.concat dir "obs.jsonl") (Obs.to_jsonl o);
      write_file
        (Filename.concat dir "obs_det.jsonl")
        (Obs.to_jsonl ~tier:Obs.Det o);
      write_file (Filename.concat dir "trace.json") (Obs.Trace.chrome_trace o);
      Printf.printf
        "obs:             wrote obs.jsonl, obs_det.jsonl, trace.json under %s\n"
        dir
  | None -> ());
  Printf.printf
    "backend:   %s   (n=%d, t=%d, protocol=%s, adversary=%s, attack=%s, \
     seed=%d)\n"
    backend n t protos.(0).Workload.proto_name adversary_name attack_name seed;
  Printf.printf "sessions:  %d, spacing %d engine round(s) between arrivals\n\n"
    sessions spacing;
  Printf.printf "  sid  admit  retire  rounds  honest-bits  agree  valid\n";
  let ok = ref true in
  List.iter
    (fun r ->
      let honest = Engine.honest_outputs ~corrupt r in
      let agree, valid =
        Workload.check_ca ~corrupt ~inputs:inputs.(r.Engine.r_sid) honest
      in
      if not (agree && valid) then ok := false;
      Printf.printf "  %3d  %5d  %6d  %6d  %11d  %5s  %5s\n" r.Engine.r_sid
        r.Engine.r_admitted_at r.Engine.r_retired_at
        r.Engine.r_metrics.Metrics.rounds r.Engine.r_metrics.Metrics.honest_bits
        (if agree then "yes" else "NO")
        (if valid then "yes" else "NO");
      if verbose then
        match honest with
        | o :: _ -> Printf.printf "       output: %s\n" (Obs.show_value o)
        | [] -> ())
    outcome.Engine.sessions;
  let a = outcome.Engine.aggregate in
  Printf.printf
    "\n\
     aggregate: %d engine rounds, %d/%d sessions completed, peak %d live\n\
     transport: %d coalesced frames (naive %d, saved %d), %d frame bytes, %d \
     payload bytes\n\
     cost:      %d honest bits total (%d bits/session)\n"
    a.Engine.engine_rounds a.Engine.sessions_completed sessions
    a.Engine.peak_live a.Engine.frames_sent a.Engine.naive_frames
    a.Engine.frames_saved a.Engine.frame_bytes a.Engine.payload_bytes
    a.Engine.honest_bits_total
    (a.Engine.honest_bits_total / sessions);
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* The obs command                                                     *)
(* ------------------------------------------------------------------ *)

(* Schema-check the artifact set an --obs-dir run exported — what the
   obs-smoke make target drives. *)
let obs_check dir =
  let read_file path =
    match open_in_bin path with
    | exception Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | ic ->
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
  in
  let check_file name validate what =
    let path = Filename.concat dir name in
    match validate (read_file path) with
    | Ok count -> Printf.printf "%-14s ok: %d %s\n" name count what
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 1
  in
  check_file "obs.jsonl" Obs.Check.engine_jsonl "lines";
  check_file "obs_det.jsonl" Obs.Check.registry_jsonl "lines";
  check_file "trace.json" Obs.Check.chrome_trace "trace events"

(* ------------------------------------------------------------------ *)
(* The list command                                                    *)
(* ------------------------------------------------------------------ *)

let list_catalogues () =
  let names table = String.concat ", " (List.map fst table) in
  Printf.printf "protocols:  %s\n" (names (protocol_catalogue ~bits:64 ~aa_rounds:8));
  Printf.printf "workloads:  %s\n"
    (names (workload_catalogue (Prng.create 0) ~n:4 ~bits:64));
  Printf.printf "adversaries: %s\n" (names adversaries);
  Printf.printf "attacks:    %s\n" (names input_attacks);
  Printf.printf "ba backends: %s\n" (String.concat ", " ba_backends)

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let n_arg =
  Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc:"Number of parties.")

let t_arg =
  Arg.(
    value & opt int 2
    & info [ "t" ] ~docv:"T" ~doc:"Corruption bound; must satisfy t < n/3.")

let protocol_arg =
  Arg.(
    value & opt string "pi-z"
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:"Protocol to run (see $(b,list) for the catalogue).")

let workload_arg =
  Arg.(
    value & opt string "sensors"
    & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Honest input distribution.")

let adversary_arg =
  Arg.(
    value & opt string "equivocate"
    & info [ "adversary"; "a" ] ~docv:"NAME" ~doc:"Byzantine message strategy.")

let attack_arg =
  Arg.(
    value & opt string "outlier-high"
    & info [ "attack" ] ~docv:"NAME" ~doc:"Byzantine input placement.")

let ba_arg =
  Arg.(
    value & opt string "unauth"
    & info [ "ba" ] ~docv:"BACKEND"
        ~doc:
          "BA substrate for the $(b,pi-z) protocol family: $(b,unauth) \
           (phase king, plain model, t < n/3), $(b,auth) (n \
           parallel Dolev-Strong broadcasts over the XMSS PKI and the \
           (t+1)-th smallest of the common view; the agreement sub-calls tolerate \
           t < n/2, while the surrounding CA machinery keeps its own t < n/3 \
           requirement), $(b,adaptive) (fault-adaptive fast path: O(1)-round \
           optimistic preamble that terminates in O(nl + n^2 k) bits when no \
           party misbehaves, falling back to the full pi-z stack over \
           $(b,unauth) otherwise) or $(b,adaptive-auth) (the same fast path \
           over the $(b,auth) fallback).")

let bits_arg =
  Arg.(
    value & opt int 64
    & info [ "bits" ] ~docv:"BITS"
        ~doc:"Public value width for the fixed-width comparator protocols.")

let aa_rounds_arg =
  Arg.(
    value & opt int 8
    & info [ "aa-rounds" ] ~docv:"K" ~doc:"Iterations for approx-agreement.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print inputs and cost split.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"FILE"
        ~doc:
          "Load the whole configuration from a scenario file (key = value \
           lines; see the Scenario library). Overrides the other options.")

let telemetry_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Record spans, the round timeline, probes and the loop's \
           instruments, write the deterministic JSONL export to $(docv) and \
           print the span report (totals, span tree, round heatmap, top \
           labels, convergence curves).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:
          "Record one event per message, write them to $(docv) as CSV sorted \
           by (session, round, src, dst), and print the message summary \
           (count, hottest rounds, bytes per sender).")

let run_dispatch file n t protocol workload adversary attack ba bits aa_rounds
    seed verbose telemetry csv =
  match file with
  | None ->
      run_scenario n t protocol workload adversary attack ba bits aa_rounds
        seed verbose telemetry csv
  | Some path -> (
      match Scenario.load path with
      | Error msg ->
          Printf.eprintf "error: %s: %s\n" path msg;
          exit 2
      | Ok s ->
          run_scenario s.Scenario.n s.Scenario.t s.Scenario.protocol
            s.Scenario.workload s.Scenario.adversary s.Scenario.attack
            s.Scenario.ba s.Scenario.bits s.Scenario.aa_rounds s.Scenario.seed
            verbose telemetry csv)

let run_cmd =
  let doc = "run one Convex Agreement scenario in the simulator" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_dispatch $ file_arg $ n_arg $ t_arg $ protocol_arg $ workload_arg
      $ adversary_arg $ attack_arg $ ba_arg $ bits_arg $ aa_rounds_arg
      $ seed_arg $ verbose_arg $ telemetry_file_arg $ csv_arg)

let list_cmd =
  let doc = "list protocols, workloads, adversaries and input attacks" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_catalogues $ const ())

let sessions_arg =
  Arg.(
    value & opt int 8
    & info [ "sessions"; "k" ] ~docv:"K"
        ~doc:"Number of concurrent Π_ℤ sessions to multiplex.")

let spacing_arg =
  Arg.(
    value & opt int 0
    & info [ "spacing" ] ~docv:"S"
        ~doc:
          "Engine rounds between session arrivals (session $(i,k) is admitted \
           at round $(i,k)·S); 0 starts everything at once.")

let backend_arg =
  Arg.(
    value & opt string "sim"
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Execution backend: $(b,sim) (deterministic lock-step simulator) \
           or $(b,poll) (single-process event loop over nonblocking \
           sockets, bit-identical to $(b,sim)). Both support adversaries.")

let obs_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-dir" ] ~docv:"DIR"
        ~doc:
          "Attach the observability plane and export its artifacts under \
           $(docv): $(b,obs.jsonl) (spans, round timeline, probes, all \
           instruments and the GC/RSS/poll time series), $(b,obs_det.jsonl) \
           (deterministic tier only — byte-identical across sim and poll) \
           and $(b,trace.json) (Chrome trace_event timeline for \
           chrome://tracing or Perfetto).")

let engine_cmd =
  let doc = "multiplex many concurrent CA sessions over one transport" in
  Cmd.v (Cmd.info "engine" ~doc)
    Term.(
      const engine_scenario $ n_arg $ t_arg $ sessions_arg $ spacing_arg
      $ backend_arg $ adversary_arg $ attack_arg $ ba_arg $ bits_arg
      $ seed_arg $ verbose_arg $ obs_dir_arg)

let obs_check_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "check" ] ~docv:"DIR"
        ~doc:
          "Schema-check the obs artifacts exported under $(docv) by a \
           previous $(b,engine --obs-dir) run.")

let obs_cmd =
  let doc = "validate the observability artifacts of an engine run" in
  Cmd.v (Cmd.info "obs" ~doc) Term.(const obs_check $ obs_check_arg)

let () =
  let doc = "communication-optimal convex agreement (PODC 2024) scenario runner" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "convex-agreement" ~doc)
          [ run_cmd; engine_cmd; obs_cmd; list_cmd ]))
