(* Protocol-aware attacks: each targets a specific proof obligation; with
   t < n/3 corruptions none may break the corresponding property. *)

open Net

let payload = Sha256.digest "fabricated-by-the-adversary"
let all_attacks =
  Attacks.registry
  |> List.filter (fun e -> not e.Attacks.byte_level)
  |> Attacks.instantiate ~seed:31337 ~payload

let test_ba_plus_vs_vote_stuffer () =
  (* Intrusion Tolerance under direct vote stuffing. *)
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Sha256.digest (Printf.sprintf "input-%d" i)) in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:(Attacks.vote_stuffer ~payload) (fun ctx ->
        Proto.run (Baplus.Ba_plus.run ctx inputs.(ctx.Ctx.me)))
  in
  List.iter
    (fun out ->
      match out with
      | None -> ()
      | Some v ->
          Alcotest.check Alcotest.bool "never the fabricated value" false
            (String.equal v payload);
          Alcotest.check Alcotest.bool "some honest input" true
            (Array.exists (String.equal v) inputs))
    (Sim.honest_outputs ~corrupt outcome)

let test_ext_vs_forgery () =
  (* Lemma 6: forged or relabeled tuples must be discarded; the honest value
     still reconstructs. Honest parties 4 and 6 hold other values, so they
     need the agreed one and must rebuild it from exactly the n−t honest
     codewords among the forgeries (a party holding it harvests nothing). *)
  let n = 7 and t = 2 in
  let corrupt = Array.init n (fun i -> i = 2 || i = 5) in
  let value = String.init 3000 (fun i -> Char.chr (i * 13 land 0xff)) in
  let inputs =
    Array.init n (fun i -> if i = 4 || i = 6 then String.make 3000 (Char.chr i) else value)
  in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Baplus.Ext_ba_plus.run ctx inputs.(ctx.Ctx.me)))
      in
      List.iter
        (fun out ->
          Alcotest.check
            (Alcotest.option Alcotest.string)
            (Printf.sprintf "reconstruction survives %s" adversary.Adversary.name)
            (Some value) out)
        (Sim.honest_outputs ~corrupt outcome))
    [ Attacks.tuple_forger ~seed:7; Attacks.index_confuser ]

let test_find_prefix_vs_fabricated_windows () =
  (* Property (C): the agreed prefix always prefixes a valid (honest-range)
     value even when byzantine parties push well-formed alien windows. *)
  let n = 7 and t = 2 and bits = 24 in
  let corrupt = Array.init n (fun i -> i = 0 || i = 6) in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (4_000_000 + (i * 17))) in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Convex.Find_prefix.run ctx ~bits inputs.(ctx.Ctx.me)))
      in
      let results = Sim.honest_outputs ~corrupt outcome in
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
      in
      let sorted = List.sort Bitstring.compare honest_inputs in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      List.iter
        (fun r ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "v valid vs %s" adversary.Adversary.name)
            true
            (Bitstring.compare lo r.Convex.Find_prefix.v <= 0
            && Bitstring.compare r.Convex.Find_prefix.v hi <= 0);
          Alcotest.check Alcotest.bool
            (Printf.sprintf "prefix of v vs %s" adversary.Adversary.name)
            true
            (Bitstring.is_prefix ~prefix:r.Convex.Find_prefix.prefix_star
               r.Convex.Find_prefix.v))
        results)
    [ Attacks.window_fabricator; Attacks.prefix_saboteur ]

let test_pi_z_vs_all_attacks () =
  let n = 10 and t = 3 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.iter
    (fun adversary ->
      List.iter
        (fun (wname, inputs) ->
          let report =
            Workload.run_int ~n ~t ~corrupt ~adversary ~inputs
              Workload.pi_z.Workload.run
          in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "Pi_Z agreement: %s vs %s" wname adversary.Adversary.name)
            true report.Workload.agreement;
          Alcotest.check Alcotest.bool
            (Printf.sprintf "Pi_Z validity: %s vs %s" wname adversary.Adversary.name)
            true report.Workload.convex_validity)
        [
          ( "sensors",
            Workload.apply_input_attack Workload.Outlier_high ~corrupt
              (Workload.sensor_readings (Prng.create 5) ~n ~base:(-1004) ~jitter:2) );
          ( "long values",
            Workload.clustered_bits (Prng.create 6) ~n ~bits:600
              ~shared_prefix_bits:300 );
        ])
    all_attacks

let test_high_cost_vs_attacks () =
  let n = 7 and t = 2 and bits = 16 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (30000 + (i * 7))) in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
      in
      let sorted = List.sort Bitstring.compare honest_inputs in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      (match outputs with
      | o :: rest ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "agreement vs %s" adversary.Adversary.name)
            true
            (List.for_all (Bitstring.equal o) rest)
      | [] -> Alcotest.fail "no outputs");
      List.iter
        (fun o ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "validity vs %s" adversary.Adversary.name)
            true
            (Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0))
        outputs)
    all_attacks

let test_saboteur_cost_bounded () =
  (* The paper's Section 1 point: in prior protocols the communication is
     adversarially chosen. Here the ⊥ path skips the distribution step, so a
     saboteur can only shrink the value-dependent traffic, and the κ-term is
     adversary-independent. Assert the saboteur cannot inflate honest bits by
     more than 2x over passive. *)
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Workload.clustered_bits (Prng.create 9) ~n ~bits:2048 ~shared_prefix_bits:1024 in
  let bits_with adversary =
    (Workload.run_int ~n ~t ~corrupt ~adversary ~inputs Workload.pi_z.Workload.run)
      .Workload.honest_bits
  in
  let passive = bits_with Adversary.passive in
  let sabotaged = bits_with Attacks.prefix_saboteur in
  Alcotest.check Alcotest.bool "saboteur cannot inflate honest traffic" true
    (float_of_int sabotaged <= 2.0 *. float_of_int passive)

(* [rotating] runs [king_usurper] for a whole phase-king phase, so some king
   round (a round = 0 mod 3) carries the usurper's king message, and it
   also runs [backref_abuser]. *)
let test_rotating_reaches_every_attack () =
  let n = 4 and t = 1 in
  let corrupt = [| true; false; false; false |] in
  let inbound = Array.init n (fun _ -> Array.make n (Some "prescribed")) in
  let rotating = Attacks.rotating ~seed:1 ~payload in
  let sent round =
    rotating.Adversary.act { Adversary.round; n; t; corrupt; inbound } ~sender:0
      ~recipient:1
  in
  let rounds = List.init 42 (fun i -> i + 1) in
  Alcotest.(check bool) "a king round sends the usurper's king message" true
    (List.exists
       (fun r -> r mod 3 = 0 && sent r = Some (Ba.Phase_king.king_message payload))
       rounds);
  Alcotest.(check bool) "a round sends a back-reference" true
    (List.exists (fun r -> sent r = Some Ba.Phase_king.back_reference) rounds)

(* [Attacks.registry] is the one menu: its names are unique and CLI-safe
   and name the strategies they build; two strategies built from the same
   (seed, payload) run a Pi_Z session to the same Det JSONL, so no entry
   shares state between its instances; and [ca_cli] lists exactly these
   names and runs each of them. *)
let test_registry () =
  let names = List.map (fun e -> e.Attacks.name) Attacks.registry in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let cli_safe c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  List.iter
    (fun (e : Attacks.entry) ->
      Alcotest.(check bool) (e.name ^ " is CLI-safe") true
        (e.name <> "" && String.for_all cli_safe e.name);
      Alcotest.(check string) "the strategy's own name" e.name
        (e.make ~seed:1 ~payload).Adversary.name)
    Attacks.registry;
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.apply_input_attack Workload.Outlier_high ~corrupt
      (Workload.sensor_readings (Prng.create 3) ~n ~base:(-1004) ~jitter:2)
  in
  let det (e : Attacks.entry) =
    let obs = Obs.create () in
    ignore
      (Workload.run_int ~obs ~n ~t ~corrupt ~adversary:(e.make ~seed:5 ~payload) ~inputs
         Workload.pi_z.Workload.run);
    Obs.to_jsonl ~tier:Obs.Det obs
  in
  List.iter
    (fun (e : Attacks.entry) ->
      Alcotest.(check string) (e.name ^ ": two instances, one Det JSONL") (det e) (det e))
    Attacks.registry;
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ca_cli.exe" in
  let listed =
    let ic = Unix.open_process_in (Filename.quote cli ^ " list") in
    let lines = In_channel.input_all ic in
    Alcotest.(check bool) "ca_cli list exits 0" true
      (Unix.close_process_in ic = Unix.WEXITED 0);
    match
      List.find_opt
        (String.starts_with ~prefix:"adversaries:")
        (String.split_on_char '\n' lines)
    with
    | None -> Alcotest.fail "ca_cli list prints no adversaries line"
    | Some line ->
        String.sub line 12 (String.length line - 12)
        |> String.split_on_char ',' |> List.map String.trim
  in
  Alcotest.(check (list string)) "ca_cli list prints the registry" names listed;
  List.iter
    (fun name ->
      Alcotest.(check int)
        ("ca_cli run --adversary " ^ name)
        0
        (Sys.command
           (Printf.sprintf "%s run --adversary %s -n 7 -t 2 >/dev/null 2>&1"
              (Filename.quote cli) name)))
    listed

let suite =
  [
    Alcotest.test_case "BA+ vs vote stuffing" `Quick test_ba_plus_vs_vote_stuffer;
    Alcotest.test_case "lBA+ vs tuple forgery" `Quick test_ext_vs_forgery;
    Alcotest.test_case "FindPrefix vs fabricated windows" `Quick
      test_find_prefix_vs_fabricated_windows;
    Alcotest.test_case "Pi_Z vs all attacks" `Slow test_pi_z_vs_all_attacks;
    Alcotest.test_case "HighCostCA vs all attacks" `Quick test_high_cost_vs_attacks;
    Alcotest.test_case "saboteur cost bounded" `Quick test_saboteur_cost_bounded;
    Alcotest.test_case "rotating reaches every attack" `Quick
      test_rotating_reaches_every_attack;
    Alcotest.test_case "one registry" `Quick test_registry;
  ]
