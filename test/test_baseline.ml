(* Baselines: the BC-based CA and synchronous Approximate Agreement. Besides
   their own correctness, these tests pin down the comparison facts the
   benchmarks rely on (communication ordering, AA's residual disagreement). *)

open Net

let bits_t = Alcotest.testable Bitstring.pp Bitstring.equal

let honest_of ~corrupt arr = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list arr)

let check_ca name ~corrupt ~inputs outputs =
  (match outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | o :: rest ->
      Alcotest.check Alcotest.bool (name ^ ": agreement") true
        (List.for_all (Bitstring.equal o) rest));
  let sorted = List.sort Bitstring.compare (honest_of ~corrupt inputs) in
  let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
  List.iter
    (fun o ->
      Alcotest.check Alcotest.bool (name ^ ": convex validity") true
        (Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0))
    outputs

let test_broadcast_ca () =
  let n = 4 and t = 1 and bits = 16 in
  let corrupt = [| false; true; false; false |] in
  let configs =
    [
      ("identical", Array.make n (Bitstring.of_int_fixed ~bits 777));
      ("spread", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 111)));
      ( "byz outlier",
        Array.init n (fun i ->
            if corrupt.(i) then Bitstring.ones bits
            else Bitstring.of_int_fixed ~bits (100 + i)) );
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Proto.run (Baseline.Broadcast_ca.run ctx ~bits inputs.(ctx.Ctx.me)))
          in
          check_ca
            (Printf.sprintf "BroadcastCA[%s] vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:13 ])
    configs

let test_broadcast_ca_identical_value_kept () =
  let n = 4 and t = 1 and bits = 12 in
  let corrupt = Sim.corrupt_first ~n t in
  let v = Bitstring.of_int_fixed ~bits 1234 in
  let inputs = Array.make n v in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.silent (fun ctx ->
        Proto.run (Baseline.Broadcast_ca.run ctx ~bits inputs.(ctx.Ctx.me)))
  in
  List.iter
    (fun o -> Alcotest.check bits_t "median of common view" v o)
    (Sim.honest_outputs ~corrupt outcome)

let test_approx_agreement_validity_and_convergence () =
  let n = 7 and t = 2 and bits = 20 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Bitstring.ones bits
        else Bitstring.of_int_fixed ~bits (300000 + (i * 5000)))
  in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Baseline.Approx_agreement.run ctx ~bits ~rounds:12 inputs.(ctx.Ctx.me)))
      in
      let outs = Sim.honest_outputs ~corrupt outcome in
      let vals = List.map Bitstring.to_int outs in
      let lo_out = List.fold_left min (List.hd vals) vals in
      let hi_out = List.fold_left max (List.hd vals) vals in
      (* Validity. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "AA validity vs %s" adversary.Adversary.name)
        true
        (lo_out >= 300000 && hi_out <= 300000 + ((n - t - 1) * 5000));
      (* ε-agreement: initial honest diameter 20000 must have contracted a
         lot — but, in general, NOT to zero: AA is weaker than CA. *)
      Alcotest.check Alcotest.bool
        (Printf.sprintf "AA convergence vs %s" adversary.Adversary.name)
        true
        (hi_out - lo_out <= 20000 / 512))
    [ Adversary.passive; Adversary.silent; Adversary.equivocate ~seed:3;
      Adversary.bitflip ~seed:9 ]

let test_approx_agreement_zero_rounds () =
  let n = 4 and t = 1 and bits = 8 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 10)) in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Proto.run (Baseline.Approx_agreement.run ctx ~bits ~rounds:0 inputs.(ctx.Ctx.me)))
  in
  Array.iteri
    (fun i o ->
      if not corrupt.(i) then
        Alcotest.check (Alcotest.option bits_t) "identity at 0 rounds" (Some inputs.(i)) o)
    outcome.Sim.outputs

let test_communication_ordering () =
  (* The benchmark premise: on sufficiently long inputs,
     Π_Z  <  Turpin-Coan BA  <  BroadcastCA, in honest bits. *)
  let n = 7 and t = 2 and bits = 2048 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs =
    Array.init n (fun i ->
        Bigint.to_bitstring_fixed ~bits (Bigint.add (Bigint.pow2 2000) (Bigint.of_int i)))
  in
  let bits_of protocol =
    let outcome = Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive protocol in
    outcome.Sim.metrics.Metrics.honest_bits
  in
  let ours =
    bits_of (fun ctx ->
        Proto.run (Convex.agree_nat ctx (Bigint.of_bitstring inputs.(ctx.Ctx.me))))
  in
  let tc =
    bits_of (fun ctx ->
        Proto.run (Ba.Turpin_coan.run_bytes ctx (Bitstring.to_bytes inputs.(ctx.Ctx.me))))
  in
  let bc =
    bits_of (fun ctx -> Proto.run (Baseline.Broadcast_ca.run ctx ~bits inputs.(ctx.Ctx.me)))
  in
  Alcotest.check Alcotest.bool "ours < broadcast-CA" true (ours < bc);
  Alcotest.check Alcotest.bool "turpin-coan < broadcast-CA" true (tc < bc)

let prop_broadcast_ca_random =
  QCheck.Test.make ~name:"BroadcastCA random runs satisfy CA" ~count:15
    QCheck.(pair (int_bound 10000) (int_bound 3))
    (fun (seed, adv) ->
      let n = 4 and t = 1 and bits = 10 in
      let rng = Prng.create seed in
      let corrupt = Array.make n false in
      corrupt.(Prng.int rng n) <- true;
      let inputs = Array.init n (fun _ -> Bitstring.of_int_fixed ~bits (Prng.int rng 1024)) in
      let adversary =
        List.nth
          [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed;
            Adversary.equivocate ~seed ]
          adv
      in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Baseline.Broadcast_ca.run ctx ~bits inputs.(ctx.Ctx.me)))
      in
      let outs = Sim.honest_outputs ~corrupt outcome in
      let sorted = List.sort Bitstring.compare (honest_of ~corrupt inputs) in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      (match outs with
      | o :: rest -> List.for_all (Bitstring.equal o) rest
      | [] -> false)
      && List.for_all
           (fun o -> Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0)
           outs)

let suite =
  [
    Alcotest.test_case "BroadcastCA" `Quick test_broadcast_ca;
    Alcotest.test_case "BroadcastCA unanimous" `Quick test_broadcast_ca_identical_value_kept;
    Alcotest.test_case "ApproxAgreement" `Quick test_approx_agreement_validity_and_convergence;
    Alcotest.test_case "ApproxAgreement 0 rounds" `Quick test_approx_agreement_zero_rounds;
    Alcotest.test_case "communication ordering" `Slow test_communication_ordering;
    QCheck_alcotest.to_alcotest prop_broadcast_ca_random;
  ]
