(* Scale checks: larger party counts and longer values than the rest of the
   suite uses — the protocols' guarantees must be size-independent. *)

open Net

let test_pi_z_n22 () =
  let n = 22 and t = 7 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let rng = Prng.create 55 in
  let inputs =
    Workload.apply_input_attack Workload.Split_extremes ~corrupt
      (Workload.clustered_bits rng ~n ~bits:1024 ~shared_prefix_bits:512)
  in
  let report =
    Workload.run_int ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:5) ~inputs
      Workload.pi_z.Workload.run
  in
  Alcotest.check Alcotest.bool "agreement at n=22" true report.Workload.agreement;
  Alcotest.check Alcotest.bool "validity at n=22" true report.Workload.convex_validity

let test_pi_z_very_long_value () =
  (* 100k-bit inputs through the blocks pipeline. *)
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  let big = Bigint.pred (Bigint.pow2 100_000) in
  let inputs = Array.init n (fun i -> Bigint.sub big (Bigint.of_int (i * i))) in
  let report =
    Workload.run_int ~n ~t ~corrupt ~adversary:(Adversary.garbage ~seed:6) ~inputs
      Workload.pi_z.Workload.run
  in
  Alcotest.check Alcotest.bool "agreement at 100k bits" true report.Workload.agreement;
  Alcotest.check Alcotest.bool "validity at 100k bits" true report.Workload.convex_validity;
  (* The whole point: ~linear in l, so well under l * n^2 bits. *)
  Alcotest.check Alcotest.bool "communication stays near l*n" true
    (report.Workload.honest_bits < 100_000 * n * n)

let test_high_cost_ca_n31 () =
  let n = 31 and t = 10 and bits = 24 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Bitstring.ones bits
        else Bitstring.of_int_fixed ~bits (5_000_000 + (i * 13)))
  in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:(Adversary.bitflip ~seed:4) (fun ctx ->
        Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
  in
  let outputs = Sim.honest_outputs ~corrupt outcome in
  (match outputs with
  | o :: rest ->
      Alcotest.check Alcotest.bool "agreement at n=31" true
        (List.for_all (Bitstring.equal o) rest)
  | [] -> Alcotest.fail "no outputs");
  List.iter
    (fun o ->
      let v = Bitstring.to_int o in
      Alcotest.check Alcotest.bool "validity at n=31" true
        (v >= 5_000_000 && v < 5_000_000 + (31 * 13)))
    outputs

let suite =
  [
    Alcotest.test_case "Pi_Z n=22" `Slow test_pi_z_n22;
    Alcotest.test_case "Pi_Z 100k-bit values" `Slow test_pi_z_very_long_value;
    Alcotest.test_case "HighCostCA n=31" `Slow test_high_cost_ca_n31;
  ]
