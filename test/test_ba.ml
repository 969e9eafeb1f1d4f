(* Π_BA (phase-king), Broadcast and Turpin–Coan: the Definition 2 properties
   under every generic adversary strategy. *)

open Net

let run_ba ?(t = 1) ~n ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Ba.Phase_king.run_bytes ctx inputs.(ctx.Ctx.me)))

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (String.equal x) rest

let adversaries = Adversary.all_generic ~seed:1234

let test_validity_all_honest () =
  let n = 4 in
  let inputs = Array.make n "val" in
  let corrupt = Array.make n false in
  let outcome = run_ba ~n ~corrupt ~adversary:Adversary.passive inputs in
  List.iter
    (fun o -> Alcotest.check Alcotest.string "output = common input" "val" o)
    (Sim.honest_outputs ~corrupt outcome);
  Alcotest.check Alcotest.int "rounds = 3(t+1)" 6 outcome.Sim.metrics.Metrics.rounds

let test_validity_under_every_adversary () =
  let n = 7 and t = 2 in
  let inputs = Array.init n (fun i -> if i < t then "evil" else "honest-common") in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun adversary ->
      let outcome = run_ba ~t ~n ~corrupt ~adversary inputs in
      List.iter
        (fun o ->
          Alcotest.check Alcotest.string
            (Printf.sprintf "validity vs %s" adversary.Adversary.name)
            "honest-common" o)
        (Sim.honest_outputs ~corrupt outcome))
    adversaries

let test_agreement_split_inputs () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun adversary ->
      let inputs = Array.init n (fun i -> Printf.sprintf "v%d" (i mod 3)) in
      let outcome = run_ba ~t ~n ~corrupt ~adversary inputs in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "agreement vs %s" adversary.Adversary.name)
        true
        (all_equal (Sim.honest_outputs ~corrupt outcome)))
    adversaries

let test_binary_output_is_honest_input () =
  (* Over {0,1}: whenever honest inputs are unanimous the output matches; when
     split, the output is one of the two — always an honest input. *)
  let n = 4 and t = 1 in
  let corrupt = [| false; false; false; true |] in
  List.iter
    (fun adversary ->
      List.iter
        (fun pattern ->
          let inputs = Array.of_list (pattern @ [ true ]) in
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Proto.run (Ba.Phase_king.run_bit ctx inputs.(ctx.Ctx.me)))
          in
          let honest = Sim.honest_outputs ~corrupt outcome in
          (match honest with
          | o :: _ ->
              Alcotest.check Alcotest.bool
                (Printf.sprintf "output held by an honest party (%s)" adversary.Adversary.name)
                true
                (List.exists (fun i -> Bool.equal i o) pattern)
          | [] -> Alcotest.fail "no honest outputs");
          Alcotest.check Alcotest.bool "binary agreement" true
            (match honest with [] -> false | x :: r -> List.for_all (Bool.equal x) r))
        [
          [ false; false; false ];
          [ true; true; true ];
          [ false; true; false ];
          [ true; false; true ];
        ])
    adversaries

let test_option_domain () =
  let n = 4 and t = 1 in
  let corrupt = [| true; false; false; false |] in
  let inputs = [| Some "x"; None; None; None |] in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:(Adversary.garbage ~seed:5) (fun ctx ->
        Proto.run (Ba.Phase_king.run_option ctx inputs.(ctx.Ctx.me)))
  in
  List.iter
    (fun o ->
      Alcotest.check (Alcotest.option Alcotest.string) "bot is a first-class value" None o)
    (Sim.honest_outputs ~corrupt outcome)

let test_t_zero () =
  let n = 3 and t = 0 in
  let corrupt = Array.make n false in
  let inputs = [| "a"; "b"; "a" |] in
  let outcome = run_ba ~t ~n ~corrupt ~adversary:Adversary.passive inputs in
  Alcotest.check Alcotest.bool "agree with t=0" true
    (all_equal (Sim.honest_outputs ~corrupt outcome))

let test_broadcast () =
  let n = 7 and t = 2 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  List.iter
    (fun adversary ->
      (* Honest sender: all honest parties output the sender's value. *)
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run
              (Ba.Broadcast.run_bytes ctx ~sender:1
                (if ctx.Ctx.me = 1 then "payload" else "")))
      in
      List.iter
        (fun o ->
          Alcotest.check Alcotest.string
            (Printf.sprintf "BC validity vs %s" adversary.Adversary.name)
            "payload" o)
        (Sim.honest_outputs ~corrupt outcome);
      (* Byzantine sender: agreement still holds. *)
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run
              (Ba.Broadcast.run_bytes ctx ~sender:(n - 1)
                (if ctx.Ctx.me = n - 1 then "from-byz" else "")))
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "BC agreement vs %s" adversary.Adversary.name)
        true
        (all_equal (Sim.honest_outputs ~corrupt outcome)))
    adversaries

let test_turpin_coan () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun adversary ->
      (* Pre-agreement: output the common value. *)
      let inputs = Array.init n (fun i -> if i < t then "junk" else "long-common-value") in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Ba.Turpin_coan.run_bytes ctx inputs.(ctx.Ctx.me)))
      in
      List.iter
        (fun o ->
          Alcotest.check Alcotest.string
            (Printf.sprintf "TC validity vs %s" adversary.Adversary.name)
            "long-common-value" o)
        (Sim.honest_outputs ~corrupt outcome);
      (* Split inputs: agreement on some common value. *)
      let inputs = Array.init n (fun i -> Printf.sprintf "w%d" i) in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Ba.Turpin_coan.run_bytes ctx inputs.(ctx.Ctx.me)))
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "TC agreement vs %s" adversary.Adversary.name)
        true
        (all_equal (Sim.honest_outputs ~corrupt outcome)))
    adversaries

let test_tc_cheaper_than_ba_for_long_values () =
  (* The whole point of the extension protocol: for long values TC sends
     fewer honest bits than running multivalued phase-king directly. *)
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let value = String.make 4096 'x' in
  let inputs = Array.make n value in
  let tc =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Proto.run (Ba.Turpin_coan.run_bytes ctx inputs.(ctx.Ctx.me)))
  in
  let pk = run_ba ~t ~n ~corrupt ~adversary:Adversary.passive inputs in
  Alcotest.check Alcotest.bool "TC < phase-king on 4KiB values" true
    (tc.Sim.metrics.Metrics.honest_bits < pk.Sim.metrics.Metrics.honest_bits)

(* Property: random inputs, random corrupt set, random adversary — agreement
   and binary honest-input validity always hold. *)
let prop_agreement =
  QCheck.Test.make ~name:"phase-king agreement (random runs)" ~count:40
    QCheck.(triple (int_bound 1000) (int_bound 2) (int_bound 8))
    (fun (seed, t, adv_idx) ->
      let n = (3 * t) + 1 + (seed mod 3) in
      let rng = Prng.create seed in
      let corrupt = Array.make n false in
      let placed = ref 0 in
      while !placed < t do
        let i = Prng.int rng n in
        if not corrupt.(i) then begin
          corrupt.(i) <- true;
          incr placed
        end
      done;
      let inputs = Array.init n (fun _ -> Printf.sprintf "v%d" (Prng.int rng 3)) in
      let adversary = List.nth adversaries (adv_idx mod List.length adversaries) in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Ba.Phase_king.run_bytes ctx inputs.(ctx.Ctx.me)))
      in
      all_equal (Sim.honest_outputs ~corrupt outcome))

(* The tally as it was before it decoded each distinct payload once: every
   message decoded, then grouped by [spec.equal] in first-seen order. The
   differential reference for [Phase_king.tally]. *)
let reference_tally (spec : 'v Ba.Phase_king.spec) inbox =
  let n = Array.length inbox in
  let vals = Array.make n None in
  for i = 0 to n - 1 do
    match inbox.(i) with
    | None -> ()
    | Some raw -> (
        match spec.decode raw with None -> () | Some _ as v -> vals.(i) <- v)
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    match vals.(i) with
    | None -> ()
    | Some v ->
        let first = ref true in
        for j = 0 to i - 1 do
          match vals.(j) with
          | Some w when spec.equal w v -> first := false
          | Some _ | None -> ()
        done;
        if !first then begin
          let c = ref 0 in
          for j = i to n - 1 do
            match vals.(j) with
            | Some w when spec.equal w v -> incr c
            | Some _ | None -> ()
          done;
          acc := (v, !c) :: !acc
        end
  done;
  !acc

(* Inboxes of up to 13 senders drawn from a small pool of payloads — valid
   encodings, undecodable bytes and silence — so most inboxes repeat bytes.
   Besides free draws, the generator makes inboxes that free draws rarely
   give: unanimous ones (one payload, decodable or not, with silent senders
   between), all-silent ones, and inboxes drawn from one [aliases] group,
   distinct byte strings that decode to equal values and must still share
   a group. The count keeps 300 free draws whatever the other generators'
   share. Each entry is a fresh copy, so reuse cannot rest on physical
   equality. [pool.(0)] is silence. *)
let prop_tally_matches_reference ?(aliases = []) name (spec : 'v Ba.Phase_king.spec) pool =
  let pool = Array.of_list pool in
  let gen =
    let open QCheck.Gen in
    let senders = int_bound 13 in
    let any = int_bound (Array.length pool - 1) in
    frequency
      ([
         (3, list_size senders any);
         (2, any >>= fun k -> list_size senders (oneofl [ k; k; 0 ]));
         (1, list_size senders (return 0));
       ]
      @ List.map (fun group -> (1, list_size senders (oneofl group))) aliases)
  in
  QCheck.Test.make ~name ~count:(100 * (6 + List.length aliases))
    (QCheck.make ~print:QCheck.Print.(list int) gen)
    (fun picks ->
      let inbox =
        Array.of_list
          (List.map
             (fun k -> Option.map (fun s -> Bytes.to_string (Bytes.of_string s)) pool.(k))
             picks)
      in
      let calls = ref 0 in
      let decode raw =
        incr calls;
        spec.decode raw
      in
      let got = Ba.Phase_king.tally ~equal:spec.equal ~decode inbox in
      let distinct =
        List.sort_uniq String.compare (List.filter_map Fun.id (Array.to_list inbox))
      in
      got = reference_tally spec inbox && !calls = List.length distinct)

let prop_tally_bit =
  prop_tally_matches_reference "tally = reference (bit spec)" Ba.Phase_king.bit_spec
    [ None; Some "\000"; Some "\001"; Some "\002"; Some ""; Some "\000\001" ]

let prop_tally_bytes =
  prop_tally_matches_reference "tally = reference (bytes spec)"
    Ba.Phase_king.bytes_spec
    [ None; Some ""; Some "a"; Some "b"; Some "ab" ]

let prop_tally_option =
  let enc v = Some (Ba.Phase_king.option_spec.encode v) in
  prop_tally_matches_reference "tally = reference (option spec)"
    Ba.Phase_king.option_spec
    (* Different bytes, equal values: an overlong length varint decodes to
       the same value as [enc (Some "x")] (index 7) and [enc (Some "")]
       (index 8), so a tally that grouped by bytes alone would fail here. *)
    ~aliases:[ [ 0; 2; 7 ]; [ 4; 8 ]; [ 2; 4; 7; 8 ] ]
    [
      None;
      enc None;
      enc (Some "x");
      enc (Some "y");
      enc (Some "");
      Some "\255";
      Some "";
      Some "\001\x81\x00x";
      Some "\001\x80\x00";
    ]

(* [Ba.Phase_king.run] against the frozen builder phase king
   ([Phase_king_spec]): random n in {4, 7, 10, 13} at t = (n-1)/3, a random
   corrupt set, every generic adversary, and bit, bytes and option inputs
   over a two- or three-value domain (unanimous among the honest parties in
   a third of the runs), so that unanimous and split inboxes both occur.
   Outputs of every party, rounds and per-label honest bits must agree. *)
let prop_matches_frozen_phase_king =
  let differential (type v) (spec : v Ba.Phase_king.spec) domain ~n ~adversary ~seed =
    let t = (n - 1) / 3 in
    let rng = Prng.create seed in
    let corrupt = Array.make n false in
    let placed = ref 0 in
    while !placed < t do
      let i = Prng.int rng n in
      if not corrupt.(i) then begin
        corrupt.(i) <- true;
        incr placed
      end
    done;
    let size = 2 + Prng.int rng (min 2 (Array.length domain - 1)) in
    let common = domain.(Prng.int rng size) in
    let unanimous = Prng.int rng 3 = 0 in
    let inputs =
      Array.init n (fun i ->
          if unanimous && not corrupt.(i) then common else domain.(Prng.int rng size))
    in
    let go run =
      Sim.run ~n ~t ~corrupt
        ~adversary:(List.nth (Adversary.all_generic ~seed) adversary)
        (fun ctx -> Proto.run (run spec ctx inputs.(ctx.Ctx.me)))
    in
    let got = go Ba.Phase_king.run and want = go Phase_king_spec.run in
    got.Sim.outputs = want.Sim.outputs
    && got.Sim.metrics.Metrics.rounds = want.Sim.metrics.Metrics.rounds
    && Metrics.labels got.Sim.metrics = Metrics.labels want.Sim.metrics
  in
  let adversaries = List.length adversaries in
  QCheck.Test.make ~name:"phase king = frozen builder phase king" ~count:120
    QCheck.(
      triple (int_bound 3) (int_bound 2) (pair (int_bound (adversaries - 1)) (int_bound 10_000)))
    (fun (size, kind, (adversary, seed)) ->
      let n = [| 4; 7; 10; 13 |].(size) in
      match kind with
      | 0 -> differential Ba.Phase_king.bit_spec [| false; true |] ~n ~adversary ~seed
      | 1 -> differential Ba.Phase_king.bytes_spec [| "a"; "bb"; "" |] ~n ~adversary ~seed
      | _ ->
          differential Ba.Phase_king.option_spec [| None; Some "x"; Some "yz" |] ~n ~adversary
            ~seed)

(* Minor words of one [tally] of a 13-sender inbox of digest-carrying
   option payloads: the decoded values, a list cell per group and the
   result list, and nothing per message. *)
let tally_words inbox =
  let spec = Ba.Phase_king.option_spec in
  let go () =
    ignore (Sys.opaque_identity (Ba.Phase_king.tally ~equal:spec.equal ~decode:spec.decode inbox))
  in
  go ();
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  go ();
  let m2 = Gc.minor_words () in
  m2 -. m1 -. (m1 -. m0)

(* With a per-call value array the tally cost 32 words on one payload and
   56 on three; keeping the group values in a list, it costs 21 and 51.
   Each bound is the midpoint of the two counts, so neither a per-call
   array nor a per-message closure can come back unnoticed. *)
let test_tally_allocation () =
  let enc v = Ba.Phase_king.option_spec.encode v in
  let d1 = enc (Some (Sha256.digest "tally guard 1"))
  and d2 = enc (Some (Sha256.digest "tally guard 2")) in
  let copy s = Some (Bytes.to_string (Bytes.of_string s)) in
  let one = Array.init 13 (fun _ -> copy d1) in
  let three = Array.init 13 (fun i -> copy (match i mod 3 with 0 -> d1 | 1 -> d2 | _ -> enc None)) in
  List.iter
    (fun (name, inbox, bound) ->
      let words = tally_words inbox in
      Alcotest.(check bool)
        (Printf.sprintf "%s: minor words %.0f <= %.0f" name words bound)
        true (words <= bound))
    [ ("one payload", one, 26.); ("three payloads", three, 53.) ]

(* Minor words of one honest [run_option] call carrying a digest under
   [Sim.run], n = 13, t = 4: a deterministic count. Decoding every message
   of every tally cost 48562 words; decoding each distinct payload once
   cost 20466, and 20247 by the time protocols moved to continuation-passing
   builders, which cost 18980, and 17535 later. Phase king building its own
   round steps cost 13004. Each time the bound moved to the midpoint of the
   old and new counts, so neither per-message decoding nor a per-round
   re-wrap of the [pi_ba] label scope can come back unnoticed. *)
let test_run_option_allocation () =
  let n = 13 and t = 4 in
  let corrupt = Array.make n false in
  let digest = Sha256.digest "phase-king allocation guard" in
  let run () =
    ignore
      (Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
           Proto.run (Ba.Phase_king.run_option ctx (Some digest))))
  in
  run ();
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  run ();
  let m2 = Gc.minor_words () in
  let words = m2 -. m1 -. (m1 -. m0) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f <= 15270" words)
    true (words <= 15270.)

(* Minor words per party-round of one Π_BA call under [Sim.run] at n = 13,
   t = 4 (parties 0..3 corrupt), round loop and adversary included: a
   deterministic count, each run with a fresh adversary. While phase king
   went through the builder's combinators, the four cases cost 67.6 / 90.8
   (passive, bit / option) and 68.7 / 153.6 (equivocate) words; building
   its own round steps, 44.1 / 67.6 and 44.1 / 132.4. Each bound is 10 %
   above the latter. *)
let test_party_round_allocation () =
  let n = 13 and t = 4 in
  let corrupt = Sim.corrupt_first ~n t in
  let digest = Sha256.digest "phase-king allocation pin" in
  let words_per_party_round adversary protocol =
    let run () = Sim.run ~n ~t ~corrupt ~adversary:(adversary ()) protocol in
    ignore (run ());
    let m0 = Gc.minor_words () in
    let m1 = Gc.minor_words () in
    let outcome = run () in
    let m2 = Gc.minor_words () in
    (m2 -. m1 -. (m1 -. m0)) /. float_of_int (n * outcome.Sim.metrics.Metrics.rounds)
  in
  let bit ctx = Proto.run (Ba.Phase_king.run_bit ctx (ctx.Ctx.me mod 2 = 0)) in
  let option ctx = Proto.run (Ba.Phase_king.run_option ctx (Some digest)) in
  let passive () = Adversary.passive and equivocate () = Adversary.equivocate ~seed:7 in
  List.iter
    (fun (name, words, bound) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per party-round <= %.1f" name words bound)
        true (words <= bound))
    [
      ("passive bit", words_per_party_round passive bit, 48.5);
      ("passive option", words_per_party_round passive option, 74.4);
      ("equivocate bit", words_per_party_round equivocate bit, 48.5);
      ("equivocate option", words_per_party_round equivocate option, 145.6);
    ]

let suite =
  [
    Alcotest.test_case "validity all honest" `Quick test_validity_all_honest;
    Alcotest.test_case "validity under adversaries" `Quick test_validity_under_every_adversary;
    Alcotest.test_case "agreement split inputs" `Quick test_agreement_split_inputs;
    Alcotest.test_case "binary honest-input property" `Quick test_binary_output_is_honest_input;
    Alcotest.test_case "option domain" `Quick test_option_domain;
    Alcotest.test_case "t = 0" `Quick test_t_zero;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "turpin-coan" `Quick test_turpin_coan;
    Alcotest.test_case "TC communication advantage" `Quick test_tc_cheaper_than_ba_for_long_values;
    QCheck_alcotest.to_alcotest prop_agreement;
    QCheck_alcotest.to_alcotest prop_tally_bit;
    QCheck_alcotest.to_alcotest prop_tally_bytes;
    QCheck_alcotest.to_alcotest prop_tally_option;
    QCheck_alcotest.to_alcotest prop_matches_frozen_phase_king;
    Alcotest.test_case "run_option allocation guard" `Quick test_run_option_allocation;
    Alcotest.test_case "tally allocation guard" `Quick test_tally_allocation;
    Alcotest.test_case "words per party-round pin" `Quick test_party_round_allocation;
  ]

