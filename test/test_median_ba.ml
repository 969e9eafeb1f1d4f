(* Median-validity BA [47]: agreement plus the t-median-validity bound,
   which is strictly stronger than convex validity. *)

open Net

let honest_of ~corrupt arr = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list arr)

let run_median ~n ~t ~bits ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.Median_ba.run ctx ~bits inputs.(ctx.Ctx.me)))

let check name ~t ~corrupt ~inputs outputs =
  (match outputs with
  | o :: rest ->
      Alcotest.check Alcotest.bool (name ^ ": agreement") true
        (List.for_all (Bitstring.equal o) rest)
  | [] -> Alcotest.fail "no outputs");
  let within = Convex.Median_ba.validity_bounds (honest_of ~corrupt inputs) in
  List.iter
    (fun o ->
      Alcotest.check Alcotest.bool (name ^ ": t-median validity") true (within ~t o))
    outputs

let adversaries =
  [
    Adversary.passive;
    Adversary.silent;
    Adversary.garbage ~seed:41;
    Adversary.equivocate ~seed:42;
    Attacks.window_fabricator;
  ]

let test_median_validity () =
  let n = 10 and t = 3 and bits = 16 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let configs =
    [
      ("spread", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 1000)));
      ("identical", Array.make n (Bitstring.of_int_fixed ~bits 777));
      ( "byz extremes",
        Array.init n (fun i ->
            if corrupt.(i) then Bitstring.ones bits
            else Bitstring.of_int_fixed ~bits (5000 + i)) );
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome = run_median ~n ~t ~bits ~corrupt ~adversary inputs in
          check
            (Printf.sprintf "Median[%s] vs %s" cname adversary.Adversary.name)
            ~t ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        adversaries)
    configs

let test_median_stricter_than_range () =
  (* With a widely spread honest population, median validity pins the output
     near the middle — the extremes of the honest range are NOT acceptable
     outputs, unlike plain convex validity. *)
  let n = 10 and t = 3 and bits = 20 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 100_000)) in
  let outcome = run_median ~n ~t ~bits ~corrupt ~adversary:Adversary.passive inputs in
  let honest = honest_of ~corrupt inputs in
  let sorted = Array.of_list (List.sort Bitstring.compare honest) in
  let m = (Array.length sorted - 1) / 2 in
  List.iter
    (fun o ->
      let v = Bitstring.to_int o in
      Alcotest.check Alcotest.bool "not the honest minimum" true
        (v > Bitstring.to_int sorted.(0) || m - t <= 0);
      Alcotest.check Alcotest.bool "within the +-t rank window" true
        (v >= Bitstring.to_int sorted.(max 0 (m - t))
        && v <= Bitstring.to_int sorted.(min (Array.length sorted - 1) (m + t))))
    (Sim.honest_outputs ~corrupt outcome)

let test_rounds_match_high_cost () =
  let n = 7 and t = 2 and bits = 8 in
  let corrupt = Array.make n false in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits i) in
  let outcome = run_median ~n ~t ~bits ~corrupt ~adversary:Adversary.passive inputs in
  Alcotest.check Alcotest.int "2 + 4(t+1) rounds" (2 + (4 * (t + 1)))
    outcome.Sim.metrics.Metrics.rounds

let prop_median_random =
  QCheck.Test.make ~name:"median validity (random runs)" ~count:25
    QCheck.(pair (int_bound 100000) (int_bound 4))
    (fun (seed, adv) ->
      let n = 7 and t = 2 and bits = 12 in
      let rng = Prng.create seed in
      let corrupt = Workload.random_corrupt rng ~n ~count:t in
      let inputs = Array.init n (fun _ -> Bitstring.of_int_fixed ~bits (Prng.int rng 4096)) in
      let adversary = List.nth adversaries (adv mod List.length adversaries) in
      let outcome = run_median ~n ~t ~bits ~corrupt ~adversary inputs in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let within = Convex.Median_ba.validity_bounds (honest_of ~corrupt inputs) in
      (match outputs with
      | o :: rest -> List.for_all (Bitstring.equal o) rest
      | [] -> false)
      && List.for_all (fun o -> within ~t o) outputs)

let suite =
  [
    Alcotest.test_case "median validity" `Quick test_median_validity;
    Alcotest.test_case "stricter than range validity" `Quick test_median_stricter_than_range;
    Alcotest.test_case "round count" `Quick test_rounds_match_high_cost;
    QCheck_alcotest.to_alcotest prop_median_random;
  ]
