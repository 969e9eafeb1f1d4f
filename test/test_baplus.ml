(* Π_BA+ and Π_ℓBA+: the Theorem 6 / Theorem 1 properties — BA, Intrusion
   Tolerance, Bounded Pre-Agreement — exercised under every generic adversary
   strategy and with protocol-aware injection attacks. *)

open Net

let adversaries = Attacks.(instantiate ~seed:99 ~payload:"" generic)

let all_equal_opt = function
  | [] -> true
  | x :: rest -> List.for_all (Option.equal String.equal x) rest

let run_plus ~n ~t ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Baplus.Ba_plus.run ctx inputs.(ctx.Ctx.me)))

let run_ext ~n ~t ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Baplus.Ext_ba_plus.run ctx inputs.(ctx.Ctx.me)))

(* An adversary that tries to smuggle a fabricated value into the agreement:
   corrupted parties all push the same alien value in every prescribed slot
   where they would send their own input (round 1) and vote for it. *)
let injector value =
  Adversary.make ~name:"injector" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | None -> None
      | Some _ when view.Adversary.round = 1 -> Some value
      | Some m -> Some m)

let check_properties name ~n ~t ~corrupt ~inputs ~adversary outcome =
  let honest = Sim.honest_outputs ~corrupt outcome in
  Alcotest.check Alcotest.bool (name ^ ": agreement") true (all_equal_opt honest);
  let out = List.hd honest in
  (* Intrusion tolerance: non-bot output is an honest input. *)
  (match out with
  | None -> ()
  | Some v ->
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s vs %s: intrusion tolerance" name adversary.Adversary.name)
        true
        (List.exists (String.equal v) honest_inputs));
  (* Bounded pre-agreement: bot only when fewer than n-2t honest agree. *)
  (match out with
  | Some _ -> ()
  | None ->
      let counts = Hashtbl.create 8 in
      Array.iteri
        (fun i v ->
          if not corrupt.(i) then
            Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        inputs;
      let max_agree = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%s vs %s: bounded pre-agreement" name adversary.Adversary.name)
        true
        (max_agree < n - (2 * t)));
  out

let test_ba_plus_validity () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> if i < t then "zz-evil" else "digest-A") in
  List.iter
    (fun adversary ->
      let outcome = run_plus ~n ~t ~corrupt ~adversary inputs in
      let out =
        check_properties "BA+" ~n ~t ~corrupt ~inputs ~adversary outcome
      in
      Alcotest.check (Alcotest.option Alcotest.string)
        (Printf.sprintf "BA+ validity vs %s" adversary.Adversary.name)
        (Some "digest-A") out)
    adversaries

let test_ba_plus_pre_agreement_threshold () =
  (* Sweep the number of honest parties sharing a value; at >= n-2t sharing,
     the output must be non-bot (Bounded Pre-Agreement). *)
  let n = 7 and t = 2 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  for sharing = 0 to n - t do
    let inputs =
      Array.init n (fun i ->
          if i < sharing then "shared" else Printf.sprintf "unique-%d" i)
    in
    List.iter
      (fun adversary ->
        let outcome = run_plus ~n ~t ~corrupt ~adversary inputs in
        let out = check_properties "BA+" ~n ~t ~corrupt ~inputs ~adversary outcome in
        if sharing >= n - (2 * t) then
          Alcotest.check (Alcotest.option Alcotest.string)
            (Printf.sprintf "non-bot at %d sharing vs %s" sharing adversary.Adversary.name)
            (Some "shared") out)
      [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:3 ]
  done

let test_ba_plus_injection () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Printf.sprintf "input-%d" i) in
  let outcome = run_plus ~n ~t ~corrupt ~adversary:(injector "alien") inputs in
  ignore (check_properties "BA+" ~n ~t ~corrupt ~inputs ~adversary:(injector "alien") outcome)

let test_ba_plus_two_camps () =
  (* Honest parties split across two values; byzantine parties try to tip the
     vote. Output must be one of the two camps' values or bot, never alien. *)
  let n = 10 and t = 3 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  List.iter
    (fun adversary ->
      let inputs =
        Array.init n (fun i -> if i < 4 then "camp-A" else "camp-B")
      in
      let outcome = run_plus ~n ~t ~corrupt ~adversary inputs in
      ignore (check_properties "BA+" ~n ~t ~corrupt ~inputs ~adversary outcome))
    (injector "camp-X" :: adversaries)

let test_ext_validity_long_values () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let long = String.init 5000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let inputs = Array.init n (fun i -> if i < t then "short" else long) in
  List.iter
    (fun adversary ->
      let outcome = run_ext ~n ~t ~corrupt ~adversary inputs in
      let out = check_properties "lBA+" ~n ~t ~corrupt ~inputs ~adversary outcome in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "lBA+ validity vs %s" adversary.Adversary.name)
        true
        (match out with Some v -> String.equal v long | None -> false))
    adversaries

let test_ext_no_preagreement_gives_bot_or_honest () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> String.make 600 (Char.chr (65 + i))) in
  List.iter
    (fun adversary ->
      let outcome = run_ext ~n ~t ~corrupt ~adversary inputs in
      ignore (check_properties "lBA+" ~n ~t ~corrupt ~inputs ~adversary outcome))
    adversaries

let test_ext_partial_preagreement () =
  (* Exactly n-2t honest parties share: output must be that value. *)
  let n = 7 and t = 2 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  let shared = String.make 1200 'S' in
  let inputs =
    Array.init n (fun i -> if i < n - (2 * t) then shared else String.make 1200 (Char.chr (97 + i)))
  in
  List.iter
    (fun adversary ->
      let outcome = run_ext ~n ~t ~corrupt ~adversary inputs in
      let honest = Sim.honest_outputs ~corrupt outcome in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "threshold pre-agreement decodes vs %s" adversary.Adversary.name)
        true
        (List.for_all (Option.equal String.equal (Some shared)) honest))
    [ Adversary.passive; Adversary.silent; Adversary.crash ~after:2 ]

let test_ext_communication_linear_in_length () =
  (* Doubling ℓ should roughly double honest bits (the ℓn term dominates),
     far below the ℓn² of echoing values all-to-all. The t corrupted
     parties are silent: they broadcast no root, so the honest parties
     ship them codewords in both distribution rounds (unanimous passive
     parties would all hold the value and ship none). *)
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let bits_for len =
    let v = String.make len 'v' in
    let inputs = Array.make n v in
    let outcome = run_ext ~n ~t ~corrupt ~adversary:Adversary.silent inputs in
    outcome.Sim.metrics.Metrics.honest_bits
  in
  let b1 = bits_for 20_000 and b2 = bits_for 40_000 in
  let growth = float_of_int (b2 - b1) /. float_of_int 20_000 in
  (* Marginal cost per extra input bit: two distribution rounds in which
     each of the n−t honest parties sends each of the t silent ones a
     codeword of ℓ/(n−t) bits, i.e. 2t — linear in n, far below the n² of
     echoing values all-to-all. *)
  Alcotest.check Alcotest.bool "marginal bits per input bit = Θ(n), not n²" true
    (growth /. 8. < float_of_int (4 * n));
  Alcotest.check Alcotest.bool "marginal bits per input bit >= 1" true (growth /. 8. >= 1.)

let test_ext_empty_and_tiny_values () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun v ->
      let inputs = Array.make n v in
      let outcome = run_ext ~n ~t ~corrupt ~adversary:Adversary.passive inputs in
      List.iter
        (fun o ->
          Alcotest.check (Alcotest.option Alcotest.string)
            (Printf.sprintf "len %d" (String.length v))
            (Some v) o)
        (Sim.honest_outputs ~corrupt outcome))
    [ ""; "x"; "ab"; String.make 63 'q' ]

let test_ext_distribution_bits_match_theorem1 () =
  (* Theorem 1's value-dependent term, checked against the per-label
     accounting: the distribution step must cost at most
     c * (l*n*(n/k) + k_sec*n^2*log n) bits for a small constant c (two
     rounds of n^2/k codeword copies plus the Merkle witnesses). The t
     corrupted parties are silent, so the honest parties distribute to them;
     when every party is passive and holds the value, nobody needs a
     codeword and the step sends nothing. *)
  let n = 7 and t = 2 in
  let k = n - t in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun len ->
      let v = String.make len 'd' in
      let inputs = Array.make n v in
      let dist adversary =
        let outcome = run_ext ~n ~t ~corrupt ~adversary inputs in
        Option.value ~default:0
          (List.assoc_opt "ext_distribute" (Metrics.labels outcome.Sim.metrics))
      in
      let l = 8 * len in
      let witness_term = 256 * n * n * 8 in
      let bound = 3 * ((l * n * n / k) + witness_term) in
      let silent = dist Adversary.silent in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "distribution bits bounded at l=%d" l)
        true
        (silent > 0 && silent <= bound);
      Alcotest.check Alcotest.int
        (Printf.sprintf "unanimous passive: no distribution at l=%d" l)
        0 (dist Adversary.passive))
    [ 100; 1000; 10_000 ]

let prop_ext_agreement_random =
  QCheck.Test.make ~name:"lBA+ agreement (random)" ~count:25
    QCheck.(triple (int_bound 10000) (int_bound 8) (int_bound 300))
    (fun (seed, adv_idx, len) ->
      let n = 7 and t = 2 in
      let rng = Prng.create seed in
      let corrupt = Workload.random_corrupt rng ~n ~count:t in
      let inputs =
        Array.init n (fun _ -> Prng.bytes rng (1 + (len mod 64 * Prng.int rng 5)))
      in
      let adversary = List.nth adversaries (adv_idx mod List.length adversaries) in
      let outcome = run_ext ~n ~t ~corrupt ~adversary inputs in
      all_equal_opt (Sim.honest_outputs ~corrupt outcome))

(* One honest n = 13 round-3b harvest: 13 tuples for 13 distinct indices,
   each checked against one fresh checker. Before the checker, the same
   harvest made 13 [Merkle.verify] calls (which allocate nothing) and read
   1302 minor words, the decoded tuples and the table; the checker adds one
   flat memo for 16 leaves, 187 words (15 entries of 96 bytes in one
   182-word block, and the 5-word record). Any allocation per check breaks
   the bound. *)
let harvest_n = 13

(* The n = 13 Merkle root over 456-byte codewords, and the authenticated
   tuple [(j, codeword, witness)] for every index [j]. *)
let harvest_tuples () =
  let n = harvest_n in
  let codewords =
    Array.init n (fun i -> String.init 456 (fun j -> Char.chr (((i * 7) + (j * 13)) land 0xff)))
  in
  let tree = Merkle.build codewords in
  let tuple j codeword =
    Wire.(
      encode
        (seq
           [
             w_varint j;
             w_bytes codeword;
             w_bytes (Merkle.encode_witness (Merkle.witness tree j));
           ]))
  in
  (Merkle.root tree, Array.mapi tuple codewords, tuple)

(* One harvest of [inbox] into a fresh table with a fresh checker: the
   table's size, and the minor words the run took. *)
let harvest_words ~root inbox =
  let n = harvest_n in
  let run () =
    let into = Hashtbl.create n in
    Baplus.Ext_ba_plus.harvest ~n ~checker:(Merkle.checker ~root ~leaves:n) ~into inbox;
    Hashtbl.length into
  in
  let size = run () in
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  let m2 = Gc.minor_words () in
  (size, m2 -. m1 -. (m1 -. m0))

let test_harvest_allocation () =
  let root, tuples, _ = harvest_tuples () in
  let size, words = harvest_words ~root (Array.map Option.some tuples) in
  Alcotest.(check int) "every share harvested" harvest_n size;
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f <= 1302 + 187" words)
    true
    (words <= 1302. +. 187.)

(* In round 3a a non-matching party receives its own tuple from every
   matching party. Only the first copy can add anything, so each further
   copy must be dropped on its leading index, before the codeword and the
   witness are decoded: 9 copies may cost the 1-copy harvest plus a few
   words each (a full decode of each copy took 91 words). A copy whose
   index an earlier copy failed to verify is still decoded and checked. *)
let test_harvest_redundant_copies () =
  let root, tuples, tuple = harvest_tuples () in
  let me = 5 in
  let inbox copies =
    Array.init harvest_n (fun j -> if j < copies then Some tuples.(me) else None)
  in
  let size1, words1 = harvest_words ~root (inbox 1) in
  let size9, words9 = harvest_words ~root (inbox 9) in
  Alcotest.(check (pair int int)) "one share either way" (1, 1) (size1, size9);
  Alcotest.(check bool)
    (Printf.sprintf "9 copies: %.0f words <= %.0f + 8 * 4" words9 words1)
    true
    (words9 <= words1 +. (8. *. 4.));
  let forged = tuple me (String.make 456 'x') in
  let size, _ = harvest_words ~root [| Some forged; Some forged; Some tuples.(me) |] in
  Alcotest.(check int) "a good copy after failed ones is kept" 1 size;
  let size, _ = harvest_words ~root [| Some forged |] in
  Alcotest.(check int) "a forged copy alone is not" 0 size

let suite =
  [
    Alcotest.test_case "BA+ validity" `Quick test_ba_plus_validity;
    Alcotest.test_case "BA+ pre-agreement sweep" `Quick test_ba_plus_pre_agreement_threshold;
    Alcotest.test_case "BA+ injection attack" `Quick test_ba_plus_injection;
    Alcotest.test_case "BA+ two camps" `Quick test_ba_plus_two_camps;
    Alcotest.test_case "lBA+ validity (long)" `Quick test_ext_validity_long_values;
    Alcotest.test_case "lBA+ scattered inputs" `Quick test_ext_no_preagreement_gives_bot_or_honest;
    Alcotest.test_case "lBA+ threshold pre-agreement" `Quick test_ext_partial_preagreement;
    Alcotest.test_case "lBA+ linear communication" `Quick test_ext_communication_linear_in_length;
    Alcotest.test_case "lBA+ Theorem 1 accounting" `Quick test_ext_distribution_bits_match_theorem1;
    Alcotest.test_case "lBA+ tiny values" `Quick test_ext_empty_and_tiny_values;
    QCheck_alcotest.to_alcotest prop_ext_agreement_random;
    Alcotest.test_case "lBA+ harvest allocation guard" `Quick test_harvest_allocation;
    Alcotest.test_case "lBA+ harvest skips held indices undecoded" `Quick
      test_harvest_redundant_copies;
  ]
