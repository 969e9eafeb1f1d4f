(* k-rank (interval) validity [36]: agreement plus the output lying within t
   ranks of the k-th lowest honest input, across ranks and adversaries. *)

open Net

let honest_of ~corrupt arr = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list arr)

let run_rank ~n ~t ~bits ~rank ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.Rank_ba.run ctx ~bits ~rank inputs.(ctx.Ctx.me)))

let test_ranks_sweep () =
  let n = 10 and t = 3 and bits = 16 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Honest inputs well separated so the rank windows are distinguishable. *)
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Bitstring.ones bits
        else Bitstring.of_int_fixed ~bits (1000 * (i + 1)))
  in
  let honest = honest_of ~corrupt inputs in
  List.iter
    (fun rank ->
      List.iter
        (fun adversary ->
          let outcome = run_rank ~n ~t ~bits ~rank ~corrupt ~adversary inputs in
          let outputs = Sim.honest_outputs ~corrupt outcome in
          (match outputs with
          | o :: rest ->
              Alcotest.check Alcotest.bool
                (Printf.sprintf "agreement rank=%d vs %s" rank adversary.Adversary.name)
                true
                (List.for_all (Bitstring.equal o) rest)
          | [] -> Alcotest.fail "no outputs");
          List.iter
            (fun o ->
              Alcotest.check Alcotest.bool
                (Printf.sprintf "rank validity rank=%d vs %s" rank
                   adversary.Adversary.name)
                true
                (Convex.Rank_ba.validity_bounds honest ~rank ~t o))
            outputs)
        [ Adversary.passive; Adversary.garbage ~seed:2; Adversary.equivocate ~seed:3 ])
    [ 1; 2; 4; 6; 7 ]

let test_extreme_ranks_differ () =
  (* With t = 1 the clamped windows for rank 1 and rank n−t are disjoint:
     [h_1, h_3] vs [h_7, h_9] for 9 honest inputs 10k..90k. *)
  let n = 10 and t = 1 and bits = 20 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Array.init n (fun i -> Bitstring.of_int_fixed ~bits (10_000 * (i + 1)))
  in
  let output rank =
    let outcome = run_rank ~n ~t ~bits ~rank ~corrupt ~adversary:Adversary.passive inputs in
    Bitstring.to_int (List.hd (Sim.honest_outputs ~corrupt outcome))
  in
  let low = output 1 and high = output (n - t) in
  Alcotest.check Alcotest.bool "low rank lands low" true (low <= 30_000 + 10_000);
  Alcotest.check Alcotest.bool "high rank lands high" true (high >= 60_000);
  Alcotest.check Alcotest.bool "separated" true (low < high)

let test_median_is_middle_rank () =
  (* Rank (n-t+1)/2 and Median_ba use the same window: identical outputs on
     identical runs. *)
  let n = 7 and t = 2 and bits = 12 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (100 * (i + 1))) in
  let rank = ((n - t) + 1) / 2 in
  let via_rank =
    Sim.honest_outputs ~corrupt
      (run_rank ~n ~t ~bits ~rank ~corrupt ~adversary:Adversary.passive inputs)
  in
  let via_median =
    Sim.honest_outputs ~corrupt
      (Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
           Proto.run (Convex.Median_ba.run ctx ~bits inputs.(ctx.Ctx.me))))
  in
  Alcotest.check
    (Alcotest.list (Alcotest.testable Bitstring.pp Bitstring.equal))
    "median = middle rank" via_median via_rank

let test_rank_validation () =
  Alcotest.check_raises "rank 0 rejected" (Invalid_argument "Rank_ba.run: rank must be >= 1")
    (fun () ->
      ignore
        (Convex.Rank_ba.run (Ctx.make ~n:4 ~t:1 ~me:0) ~bits:8 ~rank:0
           (Bitstring.zero 8)))

let prop_rank_random =
  QCheck.Test.make ~name:"rank validity (random)" ~count:20
    QCheck.(triple (int_bound 100000) (int_bound 4) (int_bound 2))
    (fun (seed, rank0, adv) ->
      let rank = 1 + rank0 in
      let n = 7 and t = 2 and bits = 12 in
      let rng = Prng.create seed in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let inputs = Array.init n (fun _ -> Bitstring.of_int_fixed ~bits (Prng.int rng 4096)) in
      let adversary =
        List.nth [ Adversary.passive; Adversary.silent; Adversary.bitflip ~seed ] adv
      in
      let outcome = run_rank ~n ~t ~bits ~rank ~corrupt ~adversary inputs in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let honest = honest_of ~corrupt inputs in
      (match outputs with
      | o :: rest -> List.for_all (Bitstring.equal o) rest
      | [] -> false)
      && List.for_all (fun o -> Convex.Rank_ba.validity_bounds honest ~rank ~t o) outputs)

(* Byte-identity pins for Median_ba: per n, the SHA-256 and byte length of
   five runs on random 16-bit inputs, each run its Det JSONL
   ([Obs.to_jsonl ~tier:Det]: spans, labels, rounds, probes) followed by the
   honest outputs, and a second pin of the round counts and outputs alone.
   The values were captured while Median_ba still had its own median window,
   before it ran on [rank_window] at the middle rank; n=10's Det pin was
   re-taken when each record got adversaries of its own, and again when
   [Attacks.rotating] began to run one attack per phase-king phase. Both Det
   pins were re-taken when HIGHCOSTCA's king phases began to send
   back-references (only span bits moved). *)
let median_adversaries () =
  [
    Adversary.passive; Adversary.silent; Adversary.garbage ~seed:4;
    Adversary.equivocate ~seed:5; Attacks.rotating ~seed:6 ~payload:"median";
  ]

let median_record ~n ~t =
  let bits = 16 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let rng = Prng.create n in
  let inputs = Array.init n (fun _ -> Bitstring.of_int_fixed ~bits (Prng.int rng 65536)) in
  let runs =
    List.map
      (fun adversary ->
        let obs = Obs.create () in
        let outcome =
          Sim.run ~obs ~n ~t ~corrupt ~adversary (fun ctx ->
              Proto.run (Convex.Median_ba.run ctx ~bits inputs.(ctx.Ctx.me)))
        in
        let outputs = List.map Bitstring.to_string (Sim.honest_outputs ~corrupt outcome) in
        ( String.concat "\n" (Obs.to_jsonl ~tier:Obs.Det obs :: outputs),
          String.concat "\n" (string_of_int outcome.Sim.metrics.Metrics.rounds :: outputs) ))
      (median_adversaries ())
  in
  (String.concat "\n" (List.map fst runs), String.concat "\n" (List.map snd runs))

let median_pins =
  [
    ( (7, 2),
      ( ("3fc14285764fda306d5af4caf526407c8258f04e5558e2e3180795916c0d3d49", 40667),
        ("5f7e1561c3220a1566f5da1c23de7b8c411ec6bb6c342663cf773eb6e8cf42a1", 439) ) );
    ( (10, 3),
      ( ("b5008c118293fe4dca192abd18027e92e3eb9d99386c2df6589da055315327dc", 61865),
        ("6f4e0c2259523f8554ea40ac8dfbef006d3dda04e09fdacb6f122f1e404d44b3", 609) ) );
  ]

let median_pin_cases =
  List.map
    (fun ((n, t), (det_pin, outcome_pin)) ->
      Alcotest.test_case (Printf.sprintf "median_ba n=%d Det JSONL pin" n) `Quick
        (fun () ->
          let det, outcome = median_record ~n ~t in
          let digest s = (Sha256.hex s, String.length s) in
          Alcotest.(check (pair string int))
            (Printf.sprintf "median_ba n=%d" n)
            det_pin (digest det);
          Alcotest.(check (pair string int))
            (Printf.sprintf "median_ba n=%d: rounds and outputs" n)
            outcome_pin (digest outcome)))
    median_pins

let suite =
  [
    Alcotest.test_case "rank sweep" `Quick test_ranks_sweep;
    Alcotest.test_case "extreme ranks differ" `Quick test_extreme_ranks_differ;
    Alcotest.test_case "median = middle rank" `Quick test_median_is_middle_rank;
    Alcotest.test_case "rank validation" `Quick test_rank_validation;
    QCheck_alcotest.to_alcotest prop_rank_random;
  ]
  @ median_pin_cases
