(* The fault-adaptive fast path (lib/adaptive): zero-fault engagement and
   its cost, Definition 1 under mixed adversaries at every f in 0..t,
   targeted attacks on the certificate (threshold equivocation, forged and
   withheld echoes, a forged median value), the wrapper's cost model against
   measured runs, the fast path's independence of its fallback, the order
   key's resolution on deep ties, and the CLI surface of the adaptive
   backends. *)

open Net

let unauth = (module Ba.Substrate.Unauthenticated : Ba.Substrate.S)

let honest_inputs ~corrupt inputs =
  Array.to_list inputs
  |> List.filteri (fun i _ -> not corrupt.(i))

let check_definition_1 name ~corrupt inputs outcome =
  match Sim.honest_outputs ~corrupt outcome with
  | [] -> Alcotest.fail (name ^ ": no honest outputs")
  | o :: rest ->
      List.iter
        (fun o' ->
          Alcotest.check Alcotest.string (name ^ ": agreement")
            (Bigint.to_string o) (Bigint.to_string o'))
        rest;
      let hull = honest_inputs ~corrupt inputs in
      let lo = List.fold_left Bigint.min (List.hd hull) hull in
      let hi = List.fold_left Bigint.max (List.hd hull) hull in
      Alcotest.check Alcotest.bool (name ^ ": convex validity") true
        (Bigint.compare lo o <= 0 && Bigint.compare o hi <= 0);
      o

(* One wrapper run over the unauthenticated fallback with per-party stats;
   returns (outcome, stats array). *)
let run_wrapper ?(n = 7) ?(t = 2) ~corrupt ~adversary inputs =
  let stats = Array.init n (fun _ -> Adaptive.stats ()) in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
        Adaptive.agree_int ~stats:stats.(ctx.Ctx.me) ~fallback:unauth ctx
          inputs.(ctx.Ctx.me))
  in
  (outcome, stats)

let assert_branch name ~corrupt stats ~fast =
  Array.iteri
    (fun i (s : Adaptive.stats) ->
      if not corrupt.(i) then begin
        Alcotest.check Alcotest.int
          (Printf.sprintf "%s: party %d fast_taken" name i)
          (if fast then 1 else 0)
          s.Adaptive.fast_taken;
        Alcotest.check Alcotest.int
          (Printf.sprintf "%s: party %d fallbacks" name i)
          (if fast then 0 else 1)
          s.Adaptive.fallbacks
      end)
    stats

(* ------------------------------------------------------------------ *)
(* Zero-fault engagement and cost                                      *)
(* ------------------------------------------------------------------ *)

let test_fast_path_engages_at_f0 () =
  let n = 7 and t = 2 in
  let corrupt = Array.make n false in
  let rng = Prng.create 42 in
  let inputs = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
  let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary:Adversary.passive inputs in
  let o = check_definition_1 "f=0" ~corrupt inputs outcome in
  assert_branch "f=0" ~corrupt stats ~fast:true;
  Array.iteri
    (fun i (s : Adaptive.stats) ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "f=0: party %d observed no deviants" i)
        0 s.Adaptive.f_observed)
    stats;
  (* The fast path's output is the median party's input — in the honest
     hull by construction, and here also an actual input. *)
  Alcotest.check Alcotest.bool "f=0: output is some input" true
    (Array.exists (Bigint.equal o) inputs);
  (* The point: fewer bits and far fewer rounds than Pi_Z on the same
     inputs. On these 11-bit sensor readings Pi_Z's FINDPREFIX agrees on
     every window with Pi_BA+ directly, so the bit gain is 1.54x (30 240
     against 46 512 bits); it grows with l (ledger.ml, adaptive.fast_path_gain). *)
  let plain =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  let fast_bits = outcome.Sim.metrics.Metrics.honest_bits in
  let plain_bits = plain.Sim.metrics.Metrics.honest_bits in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "f=0 cost: %d adaptive vs %d plain (>=1.5x)" fast_bits plain_bits)
    true
    (3 * fast_bits <= 2 * plain_bits);
  let fast_rounds = outcome.Sim.metrics.Metrics.rounds in
  let plain_rounds = plain.Sim.metrics.Metrics.rounds in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "f=0 rounds: %d adaptive vs %d plain (>=10x)" fast_rounds plain_rounds)
    true
    (10 * fast_rounds <= plain_rounds);
  Alcotest.check Alcotest.int "f=0 rounds: preamble + arbitration"
    (Adaptive.fast_path_rounds (Ctx.make ~me:0 ~n ~t))
    outcome.Sim.metrics.Metrics.rounds

(* Passive corruptions follow the protocol, so the fast path must still
   engage — the layer is adaptive to *behavior*, not to the corrupt set. *)
let test_fast_path_engages_under_passive_faults () =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let rng = Prng.create 9 in
  let inputs = Workload.timestamps rng ~n ~now_ns:"1783425600000000000" ~skew_ns:40_000_000 in
  let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary:Adversary.passive inputs in
  ignore (check_definition_1 "passive faults" ~corrupt inputs outcome);
  assert_branch "passive faults" ~corrupt stats ~fast:true

(* The R1 order key keeps a magnitude's sign, bit length and top 128 bits
   (doc/PROTOCOLS.md, "Key resolution"). At f = 0 (n = 7, t = 2), uniform
   64-bit values resolve on the key and take the fast path: 13 rounds. Seven
   512-bit values sharing a 256-bit prefix all tie on it, so the key median
   is party 3 by id, whatever its value. The certificate forms only if that
   value has t + 1 parties at or below and at or above it, i.e. only if
   between t and n - 1 - t inputs lie strictly below it. Measured: at seed 1
   party 3 holds the largest input, every party falls back and the run
   takes 263 rounds; at seed 4 it happens to hold the true median, and the
   fast path engages in 13 rounds. A pin of today's behaviour, not
   a fix: a deep-tie family keeps the fast path only by that luck. *)
let test_order_key_resolution () =
  let n = 7 and t = 2 in
  let corrupt = Array.make n false in
  List.iter
    (fun (name, inputs, below_party_3, fast, rounds) ->
      let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary:Adversary.passive inputs in
      ignore (check_definition_1 name ~corrupt inputs outcome);
      Option.iter
        (fun below ->
          Alcotest.(check int) (name ^ ": inputs below party 3's") below
            (Array.fold_left
               (fun acc v -> if Bigint.compare v inputs.(n / 2) < 0 then acc + 1 else acc)
               0 inputs))
        below_party_3;
      assert_branch name ~corrupt stats ~fast;
      Alcotest.(check int) (name ^ ": rounds") rounds outcome.Sim.metrics.Metrics.rounds)
    [
      ("uniform 64-bit", Workload.uniform_bits (Prng.create 1) ~n ~bits:64, None, true, 13);
      ( "256-bit tie, seed 1",
        Workload.clustered_bits (Prng.create 1) ~n ~bits:512 ~shared_prefix_bits:256,
        Some 6, false, 263 );
      ( "256-bit tie, seed 4",
        Workload.clustered_bits (Prng.create 4) ~n ~bits:512 ~shared_prefix_bits:256,
        Some 3, true, 13 );
    ]

(* ------------------------------------------------------------------ *)
(* Definition 1 under active adversaries at every f in 0..t            *)
(* ------------------------------------------------------------------ *)

let test_definition1_every_f () =
  let n = 7 and t = 2 in
  List.iter
    (fun f ->
      List.iter
        (fun (adv_name, adversary, attack) ->
          let corrupt = Workload.spread_corrupt ~n ~t:f in
          let rng = Prng.create (100 + f) in
          let inputs =
            Workload.apply_input_attack attack ~corrupt
              (Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2)
          in
          let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary inputs in
          let name = Printf.sprintf "f=%d vs %s" f adv_name in
          ignore (check_definition_1 name ~corrupt inputs outcome);
          (* Garbling adversaries deterministically veto the certificate. *)
          if f > 0 then begin
            assert_branch name ~corrupt stats ~fast:false;
            let viewer =
              (* an honest party's deviation estimate counts at least one
                 misbehaving sender *)
              Array.to_list stats
              |> List.filteri (fun i _ -> not corrupt.(i))
              |> List.map (fun (s : Adaptive.stats) -> s.Adaptive.f_observed)
            in
            Alcotest.check Alcotest.bool (name ^ ": f_observed >= 1") true
              (List.for_all (fun x -> x >= 1) viewer)
          end)
        [
          ("equivocate+outlier", Adversary.equivocate ~seed:(7 + f), Workload.Outlier_high);
          ("garbage+split", Adversary.garbage ~seed:(13 + f), Workload.Split_extremes);
          ("silent", Adversary.silent, Workload.Honest_inputs);
        ])
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Targeted certificate attacks                                        *)
(* ------------------------------------------------------------------ *)

(* Behave honestly except in round [r], where recipients with id >= [split]
   get [forge] applied to the prescribed message. The wrapper's preamble is
   rounds 1-4 of the run, so r = 2 forges echoes, r = 3 the median value,
   r = 4 the comparison byte. *)
let selective ~round:r ~split ~forge =
  Adversary.make ~name:(Printf.sprintf "selective-r%d" r)
    (fun view ~sender ~recipient ->
      let m = Adversary.prescribed_msg view ~sender ~recipient in
      if view.Adversary.round = r && recipient >= split then forge m else m)

let run_attack name adversary =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t:1 in
  let rng = Prng.create 77 in
  let inputs = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
  let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary inputs in
  ignore (check_definition_1 name ~corrupt inputs outcome);
  (outcome, stats, corrupt)

let test_certificate_threshold_equivocation () =
  (* Show the R4 witness byte to half the parties and withhold it from the
     rest: certificates form at some honest parties and not others — the
     exact split the bit-BA arbitration exists for. Either agreed branch
     must preserve Definition 1; the run must not desynchronize. *)
  List.iter
    (fun split ->
      ignore
        (run_attack
           (Printf.sprintf "R4 withheld from id>=%d" split)
           (selective ~round:4 ~split ~forge:(fun _ -> None))))
    [ 2; 4; 6 ];
  (* Lying comparison bytes instead of withheld ones: claim v < u to some,
     v > u to others. The thresholds still hold an honest witness on each
     side, so a fast decision stays inside the honest hull. *)
  ignore
    (run_attack "R4 forged low/high split"
       (selective ~round:4 ~split:3 ~forge:(fun _ -> Some "\001")))

let test_forged_and_withheld_echoes () =
  (* R2 echoes: forged to a fake digest for some recipients, withheld from
     others. Honest parties seeing the bad echo lose their certificate;
     arbitration decides one common branch. *)
  ignore
    (run_attack "R2 forged echo"
       (selective ~round:2 ~split:3 ~forge:(fun _ -> Some (String.make 32 'x'))));
  ignore (run_attack "R2 withheld echo" (selective ~round:2 ~split:0 ~forge:(fun _ -> None)));
  (* R1 equivocation: different keys/digests to different parties poisons
     the view hash comparison at every honest pair. *)
  ignore
    (run_attack "R1 equivocated entry"
       (selective ~round:1 ~split:3 ~forge:(Option.map (fun m -> m ^ "\000"))))

let test_forged_median_value () =
  (* A corrupt median party broadcasting bytes that do not hash to its R1
     commitment must be rejected by every honest party (check3), vetoing the
     fast path; a *withheld* median value does the same. The corrupt set is
     {3} under spread_corrupt ~t:1 with n = 7; give party 3 the median rank
     by construction (all other inputs surround it symmetrically). *)
  List.iter
    (fun forge ->
      let n = 7 and t = 2 in
      let corrupt = Workload.spread_corrupt ~n ~t:1 in
      (* The corrupt party gets 30, honest parties {0,10,20,40,50,60} in id
         order: rank 3 of 7 — the median sender — is the corrupt one. *)
      let inputs = Array.make n (Bigint.of_int 30) in
      let rank = ref 0 in
      Array.iteri
        (fun i is_corrupt ->
          if not is_corrupt then begin
            inputs.(i) <-
              Bigint.of_int (if !rank < 3 then 10 * !rank else 10 * (!rank + 1));
            incr rank
          end)
        corrupt;
      let adversary = selective ~round:3 ~split:0 ~forge in
      let stats = Array.init n (fun _ -> Adaptive.stats ()) in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Adaptive.agree_int ~stats:stats.(ctx.Ctx.me) ~fallback:unauth ctx
              inputs.(ctx.Ctx.me))
      in
      ignore (check_definition_1 "forged median value" ~corrupt inputs outcome);
      assert_branch "forged median value" ~corrupt stats ~fast:false)
    [ (fun _ -> Some "not-the-committed-value"); (fun _ -> None) ]

(* ------------------------------------------------------------------ *)
(* Unanimity equivalence                                               *)
(* ------------------------------------------------------------------ *)

let test_unanimity_output_is_the_input () =
  (* All honest parties share one input: whatever branch the arbitration
     takes, validity forces that input as the output — so the adaptive
     wrapper is observably equivalent to Pi_Z on unanimous instances under
     every generic adversary and any f. *)
  let n = 7 and t = 2 in
  let v = Bigint.of_string "-271828" in
  List.iter
    (fun f ->
      List.iter
        (fun adversary ->
          let corrupt = Workload.spread_corrupt ~n ~t:f in
          let inputs = Array.make n v in
          let outcome, _ = run_wrapper ~n ~t ~corrupt ~adversary inputs in
          let o = check_definition_1 "unanimity" ~corrupt inputs outcome in
          Alcotest.check Alcotest.string
            (Printf.sprintf "unanimity at f=%d vs %s" f adversary.Adversary.name)
            (Bigint.to_string v) (Bigint.to_string o))
        Attacks.(instantiate ~seed:(31 * (f + 1)) ~payload:"" generic))
    [ 0; 1; 2 ]

let test_cost_model_shape () =
  let ctx = Ctx.make ~me:0 ~n:13 ~t:4 in
  let w0 = Adaptive.wrapper_cost ctx ~value_bits:8192 ~fallback:unauth ~f:0 in
  let w4 = Adaptive.wrapper_cost ctx ~value_bits:8192 ~fallback:unauth ~f:4 in
  let plain = Convex.Ca_int.cost_estimate ctx ~value_bits:8192 ~f:4 in
  Alcotest.check Alcotest.bool "wrapper model f=0 >=5x below plain" true
    (5 * w0.Ba.Substrate.c_bits <= plain.Ba.Substrate.c_bits);
  Alcotest.check Alcotest.bool "wrapper model f=t within 1.5x of plain" true
    (2 * w4.Ba.Substrate.c_bits <= 3 * plain.Ba.Substrate.c_bits);
  Alcotest.check Alcotest.int "wrapper f echoed" 4 w4.Ba.Substrate.c_f

(* The two cost models at a few (n, t, ℓ, f): (bits, rounds) of
   [Adaptive.wrapper_cost] with the phase-king fallback, then of
   [Convex.Ca_int.cost_estimate], as computed before the wrapper's
   arbitration term was read from the substrate's own model. Re-taken when
   [Find_prefix.cost_estimate] began charging each window of at most κ bits
   as Π_BA+ on that window: the f > 0 wrapper rows and every Ca_int row
   moved (n=4 ℓ=64: 696 480 → 76 672 bits, 244 → 230 rounds). *)
let cost_model_pins =
  [
    ((4, 1, 64, 0), (12832, 10), (76672, 230));
    ((4, 1, 64, 1), (89504, 240), (76672, 230));
    ((7, 2, 1024, 0), (48097, 13), (1478722, 530));
    ((7, 2, 1024, 2), (1526819, 543), (1478722, 530));
    ((13, 4, 8192, 0), (264719, 19), (15548169, 1103));
    ((13, 4, 8192, 4), (15812888, 1122), (15548169, 1103));
    ((25, 8, 65536, 3), (164178175, 2403), (161827500, 2372));
  ]

let test_cost_model_pins () =
  List.iter
    (fun ((n, t, value_bits, f), wrapper, plain) ->
      let ctx = Ctx.make ~me:0 ~n ~t in
      let pair c = (c.Ba.Substrate.c_bits, c.Ba.Substrate.c_rounds) in
      let at = Printf.sprintf "n=%d t=%d l=%d f=%d" n t value_bits f in
      Alcotest.(check (pair int int)) ("wrapper_cost " ^ at) wrapper
        (pair (Adaptive.wrapper_cost ctx ~value_bits ~fallback:unauth ~f));
      Alcotest.(check (pair int int)) ("Ca_int.cost_estimate " ^ at) plain
        (pair (Convex.Ca_int.cost_estimate ctx ~value_bits ~f)))
    cost_model_pins

let test_cost_model_bounds_runs () =
  (* The model is an upper bound on measured runs: exact rounds and a
     tight bit count on the fast path, bounds on the fallback branch under
     every garbling adversary. *)
  let n = 7 and t = 2 in
  let rng = Prng.create 42 in
  let inputs = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
  let value_bits =
    Array.fold_left (fun a v -> max a (Bigint.bit_length v)) 0 inputs
  in
  let ctx = Ctx.make ~me:0 ~n ~t in
  List.iter
    (fun (f, adversary) ->
      let corrupt = Workload.spread_corrupt ~n ~t:f in
      let outcome, stats = run_wrapper ~n ~t ~corrupt ~adversary inputs in
      let name = Printf.sprintf "f=%d vs %s" f adversary.Adversary.name in
      ignore (check_definition_1 name ~corrupt inputs outcome);
      assert_branch name ~corrupt stats ~fast:(f = 0);
      let m = outcome.Sim.metrics in
      let w = Adaptive.wrapper_cost ctx ~value_bits ~fallback:unauth ~f in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s: %d measured bits <= %d modelled" name
           m.Metrics.honest_bits w.Ba.Substrate.c_bits)
        true
        (m.Metrics.honest_bits <= w.Ba.Substrate.c_bits);
      if f = 0 then begin
        Alcotest.check Alcotest.int (name ^ ": modelled rounds")
          w.Ba.Substrate.c_rounds m.Metrics.rounds;
        Alcotest.check Alcotest.bool (name ^ ": model within 2x of measured bits")
          true
          (w.Ba.Substrate.c_bits <= 2 * m.Metrics.honest_bits)
      end
      else
        Alcotest.check Alcotest.bool
          (Printf.sprintf "%s: %d measured rounds <= %d modelled" name
             m.Metrics.rounds w.Ba.Substrate.c_rounds)
          true
          (m.Metrics.rounds <= w.Ba.Substrate.c_rounds))
    [
      (0, Adversary.passive);
      (1, Adversary.equivocate ~seed:8);
      (t, Adversary.equivocate ~seed:9);
      (t, Adversary.garbage ~seed:3);
      (t, Adversary.silent);
    ]

let test_fast_path_ignores_fallback () =
  (* The fast path never touches the fallback: over the authenticated
     substrate it takes the same branch, outputs the same value and costs
     the same bits and rounds as over the unauthenticated one. *)
  let n = 7 and t = 2 in
  let setup =
    Auth.Setup.generate ~seed:11 ~n
      ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:64)
  in
  let auth = (module (val Auth.Auth_ba.substrate setup) : Ba.Substrate.S) in
  let rng = Prng.create 5 in
  let inputs = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
  List.iter
    (fun f ->
      let corrupt = Workload.spread_corrupt ~n ~t:f in
      let run fallback =
        let stats = Array.init n (fun _ -> Adaptive.stats ()) in
        let outcome =
          Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
              Adaptive.agree_int ~stats:stats.(ctx.Ctx.me) ~fallback ctx
                inputs.(ctx.Ctx.me))
        in
        (outcome, stats)
      in
      let name = Printf.sprintf "passive f=%d" f in
      let plain, _ = run unauth in
      let authed, stats = run auth in
      ignore (check_definition_1 name ~corrupt inputs authed);
      assert_branch (name ^ " auth") ~corrupt stats ~fast:true;
      Alcotest.check
        (Alcotest.list Alcotest.string)
        (name ^ ": outputs auth = unauth")
        (List.map Bigint.to_string (Sim.honest_outputs ~corrupt plain))
        (List.map Bigint.to_string (Sim.honest_outputs ~corrupt authed));
      Alcotest.check Alcotest.int (name ^ ": bits auth = unauth")
        plain.Sim.metrics.Metrics.honest_bits
        authed.Sim.metrics.Metrics.honest_bits;
      Alcotest.check Alcotest.int (name ^ ": rounds auth = unauth")
        plain.Sim.metrics.Metrics.rounds authed.Sim.metrics.Metrics.rounds)
    [ 0; t ]

(* ------------------------------------------------------------------ *)
(* Wrapper property: Definition 1 on random instances                  *)
(* ------------------------------------------------------------------ *)

let prop_wrapper_definition1 =
  QCheck.Test.make ~name:"adaptive wrapper satisfies CA (random runs)" ~count:20
    QCheck.(triple (int_bound 100000) (int_bound 11) (int_bound 1))
    (fun (seed, adv_idx, f) ->
      let n = 4 and t = 1 in
      let rng = Prng.create seed in
      let corrupt = Array.make n false in
      if f > 0 then corrupt.(Prng.int rng n) <- true;
      let inputs =
        Array.init n (fun _ ->
            let m = Bigint.of_int (Prng.int rng 2_000_000) in
            if Prng.int rng 2 = 0 then Bigint.neg m else m)
      in
      let entry = List.nth Attacks.generic (adv_idx mod List.length Attacks.generic) in
      let adversary = entry.Attacks.make ~seed:(seed + 1) ~payload:"" in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Adaptive.agree_int ~fallback:unauth ctx inputs.(ctx.Ctx.me))
      in
      match Sim.honest_outputs ~corrupt outcome with
      | [] -> false
      | v :: rest ->
          let hull = honest_inputs ~corrupt inputs in
          let lo = List.fold_left Bigint.min (List.hd hull) hull in
          let hi = List.fold_left Bigint.max (List.hd hull) hull in
          List.for_all (Bigint.equal v) rest
          && Bigint.compare lo v <= 0
          && Bigint.compare v hi <= 0)

(* ------------------------------------------------------------------ *)
(* CLI surface                                                         *)
(* ------------------------------------------------------------------ *)

let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ca_cli.exe"

let test_cli_adaptive_backends () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let run cmd = Sys.command (cmd ^ " >/dev/null 2>/dev/null") in
  (* The plain backend exercises the (cheap) unauthenticated fallback under
     the default equivocating adversary; the auth backend runs passively so
     the subprocess stays on the fast path — the authenticated fallback is
     orders of magnitude more traffic than a unit test budget. *)
  List.iter
    (fun (ba, extra) ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "run --ba %s" ba)
        0
        (run (cli ^ " run --ba " ^ ba ^ " -n 7 -t 2 --seed 3" ^ extra));
      Alcotest.check Alcotest.int
        (Printf.sprintf "--ba %s rejects non-pi-z protocols" ba)
        2
        (run (cli ^ " run --ba " ^ ba ^ " --protocol median-ba")))
    [
      ("adaptive", "");
      ("adaptive-auth", " --adversary passive --attack honest-inputs");
    ];
  Alcotest.check Alcotest.int "engine --ba adaptive" 0
    (run (cli ^ " engine --ba adaptive -n 7 -t 2 --sessions 2 --seed 3"))

let test_cli_scenario_file_ba_adaptive () =
  let path = Filename.temp_file "adaptive" ".scenario" in
  let oc = open_out path in
  output_string oc
    "n = 7\nt = 2\nprotocol = pi-z\nworkload = sensors\nadversary = passive\n\
     attack = honest-inputs\nba = adaptive\nseed = 11\n";
  close_out oc;
  let code = Sys.command (cli ^ " run --file " ^ path ^ " >/dev/null 2>/dev/null") in
  Sys.remove path;
  Alcotest.check Alcotest.int "scenario file with ba = adaptive" 0 code

(* ------------------------------------------------------------------ *)
(* Backend identity: sim = poll, including the Det tier                *)
(* ------------------------------------------------------------------ *)

let test_engine_backend_identity () =
  (* K = 8 sessions over both adaptive backends: the engine table and the
     Det-tier observability export must be byte-identical across the sim
     and poll backends. *)
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let dir = Filename.temp_file "adaptive_obs" "" in
  Sys.remove dir;
  let made = ref [] in
  let remove_dir d =
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d
    end
  in
  Fun.protect ~finally:(fun () -> List.iter remove_dir !made) @@ fun () ->
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* adaptive runs under the default equivocating adversary (every session
     takes the unauthenticated fallback), adaptive-auth passively (fast
     path) — together the identity assertion covers both branches without
     paying for the authenticated fallback in a unit test. *)
  List.iter
    (fun (ba, extra) ->
      let variant backend =
        let d = Printf.sprintf "%s_%s_%s" dir ba backend in
        made := d :: !made;
        let cmd =
          Printf.sprintf
            "%s engine --ba %s%s -n 7 -t 2 --sessions 8 --backend %s \
             --seed 5 --obs-dir %s >/dev/null 2>/dev/null"
            cli ba extra backend d
        in
        Alcotest.check Alcotest.int (Printf.sprintf "%s/%s" ba backend)
          0 (Sys.command cmd);
        read (Filename.concat d "obs_det.jsonl")
      in
      let reference = variant "sim" in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.check Alcotest.bool (ba ^ ": det tier mentions adaptive") true
        (contains reference "adaptive/fast_path_taken");
      Alcotest.check Alcotest.string
        (Printf.sprintf "%s: obs_det poll = sim" ba)
        reference (variant "poll"))
    [
      ("adaptive", "");
      ("adaptive-auth", " --adversary passive --attack honest-inputs");
    ]

let suite =
  [
    Alcotest.test_case "fast path engages at f=0" `Quick test_fast_path_engages_at_f0;
    Alcotest.test_case "fast path under passive corruptions" `Quick
      test_fast_path_engages_under_passive_faults;
    Alcotest.test_case "Definition 1 at every f in 0..t" `Slow test_definition1_every_f;
    Alcotest.test_case "certificate-threshold equivocation" `Quick
      test_certificate_threshold_equivocation;
    Alcotest.test_case "forged/withheld echoes" `Quick test_forged_and_withheld_echoes;
    Alcotest.test_case "forged median value falls back" `Quick test_forged_median_value;
    Alcotest.test_case "unanimity output is the common input" `Slow
      test_unanimity_output_is_the_input;
    Alcotest.test_case "wrapper cost model shape" `Quick test_cost_model_shape;
    Alcotest.test_case "wrapper cost model bounds measured runs" `Quick
      test_cost_model_bounds_runs;
    Alcotest.test_case "fast path ignores the fallback (auth = unauth)" `Quick
      test_fast_path_ignores_fallback;
    QCheck_alcotest.to_alcotest prop_wrapper_definition1;
    Alcotest.test_case "ca_cli: adaptive backends accepted" `Quick
      test_cli_adaptive_backends;
    Alcotest.test_case "ca_cli: scenario file ba = adaptive" `Quick
      test_cli_scenario_file_ba_adaptive;
    Alcotest.test_case "engine: sim = poll (Det tier)" `Slow
      test_engine_backend_identity;
    Alcotest.test_case "cost models pinned" `Quick test_cost_model_pins;
    Alcotest.test_case "order key: 64-bit values resolve, 256-bit ties" `Quick
      test_order_key_resolution;
  ]
