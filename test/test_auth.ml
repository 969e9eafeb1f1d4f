(* The authenticated setting (t < n/2 with a PKI): Dolev–Strong broadcast and
   the authenticated CA — the paper's second open-problem regime. *)

open Net

let bits_t = Alcotest.testable Bitstring.pp Bitstring.equal

let fresh_setup ~n = Auth.Setup.generate ~seed:31415 ~n ~capacity:24

let run_ds ~n ~t ~corrupt ~adversary ~sender v =
  let setup = fresh_setup ~n in
  ( setup,
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary (fun ctx ->
        Proto.run
          (Auth.Dolev_strong.run setup ctx ~instance:0 ~sender
            (if ctx.Ctx.me = sender then v else ""))) )

let test_ds_honest_sender () =
  let n = 4 and t = 1 in
  let corrupt = [| false; false; false; true |] in
  List.iter
    (fun adversary ->
      let _, outcome = run_ds ~n ~t ~corrupt ~adversary ~sender:0 "signed-value" in
      List.iter
        (fun v ->
          Alcotest.check (Alcotest.option Alcotest.string)
            (Printf.sprintf "validity vs %s" adversary.Adversary.name)
            (Some "signed-value") v)
        (Sim.honest_outputs ~corrupt outcome))
    [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:8;
      Adversary.bitflip ~seed:9 ]

let test_ds_silent_sender () =
  let n = 4 and t = 1 in
  let corrupt = [| true; false; false; false |] in
  let _, outcome = run_ds ~n ~t ~corrupt ~adversary:Adversary.silent ~sender:0 "x" in
  List.iter
    (fun v ->
      Alcotest.check (Alcotest.option Alcotest.string) "no delivery" None v)
    (Sim.honest_outputs ~corrupt outcome)

let test_ds_equivocating_sender () =
  (* The corrupted sender signs two different values (the adversary holds its
     secret key) and shows each to half the parties. Honest outputs must
     still be identical — either one value or bot. *)
  let n = 4 and t = 1 in
  let corrupt = [| true; false; false; false |] in
  let setup = fresh_setup ~n in
  let sign_batch value =
    let signature =
      Sigs.Xmss.sign (Auth.Setup.signer setup 0)
        (Auth.Dolev_strong.signed_bytes ~instance:0 ~sender:0 value)
    in
    Auth.Dolev_strong.encode_batch [ (value, [ (0, signature) ]) ]
  in
  let batch_a = sign_batch "value-A" and batch_b = sign_batch "value-B" in
  let equivocator =
    Adversary.make ~name:"signed-equivocation" (fun view ~sender ~recipient ->
        if view.Adversary.round = 1 && sender = 0 then
          Some (if recipient < n / 2 then batch_a else batch_b)
        else Adversary.prescribed_msg view ~sender ~recipient)
  in
  let outcome =
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary:equivocator (fun ctx ->
        Proto.run
          (Auth.Dolev_strong.run setup ctx ~instance:0 ~sender:0
            (if ctx.Ctx.me = 0 then "value-A" else "")))
  in
  let outputs = Sim.honest_outputs ~corrupt outcome in
  (match outputs with
  | o :: rest ->
      Alcotest.check Alcotest.bool "agreement despite equivocation" true
        (List.for_all (Option.equal String.equal o) rest)
  | [] -> Alcotest.fail "no outputs");
  (* With both signed values circulating, every honest party must have seen
     both and output bot. *)
  List.iter
    (fun o ->
      Alcotest.check (Alcotest.option Alcotest.string) "bot on equivocation" None o)
    outputs

let test_ds_forged_chain_rejected () =
  (* A corrupted relay rewrites the value inside an honest chain; without the
     sender's signature over the new value the chain is invalid and honest
     parties keep the genuine value. *)
  let n = 4 and t = 1 in
  let corrupt = [| false; false; false; true |] in
  let forger =
    Adversary.make ~name:"chain-forger" (fun view ~sender ~recipient ->
        match Adversary.prescribed_msg view ~sender ~recipient with
        | Some _raw when view.Adversary.round >= 2 ->
            (* Replace the relay with garbage claiming to be a chain. *)
            Some (String.make 200 'Z')
        | other -> other)
  in
  let setup = fresh_setup ~n in
  let outcome =
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary:forger (fun ctx ->
        Proto.run
          (Auth.Dolev_strong.run setup ctx ~instance:0 ~sender:1
            (if ctx.Ctx.me = 1 then "genuine" else "")))
  in
  List.iter
    (fun v ->
      Alcotest.check (Alcotest.option Alcotest.string) "genuine value survives"
        (Some "genuine") v)
    (Sim.honest_outputs ~corrupt outcome)

let test_auth_ca_beyond_third () =
  (* n = 5, t = 2: more corruptions than any plain-model protocol tolerates
     (3t >= n), handled thanks to the PKI. *)
  let n = 5 and t = 2 and bits = 16 in
  let corrupt = [| true; false; true; false; false |] in
  let inputs =
    [|
      Bitstring.ones bits;
      Bitstring.of_int_fixed ~bits 500;
      Bitstring.zero bits;
      Bitstring.of_int_fixed ~bits 510;
      Bitstring.of_int_fixed ~bits 505;
    |]
  in
  List.iter
    (fun adversary ->
      let setup = fresh_setup ~n in
      let outcome =
        Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Auth.Auth_ca.run setup ctx ~bits inputs.(ctx.Ctx.me)))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      (match outputs with
      | o :: rest ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "agreement vs %s" adversary.Adversary.name)
            true
            (List.for_all (Bitstring.equal o) rest)
      | [] -> Alcotest.fail "no outputs");
      List.iter
        (fun o ->
          let v = Bitstring.to_int o in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "convex validity at t<n/2 vs %s" adversary.Adversary.name)
            true
            (v >= 500 && v <= 510))
        outputs)
    [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:5 ]

let test_auth_ca_unanimous () =
  let n = 4 and t = 1 and bits = 12 in
  let corrupt = Sim.corrupt_first ~n t in
  let v = Bitstring.of_int_fixed ~bits 999 in
  let inputs = Array.make n v in
  let setup = fresh_setup ~n in
  let outcome =
    Sim.run ~setup:`Authenticated ~n ~t ~corrupt ~adversary:(Adversary.bitflip ~seed:3)
      (fun ctx -> Proto.run (Auth.Auth_ca.run setup ctx ~bits inputs.(ctx.Ctx.me)))
  in
  List.iter
    (fun o -> Alcotest.check bits_t "unanimous kept" v o)
    (Sim.honest_outputs ~corrupt outcome);
  Alcotest.check Alcotest.int "rounds = t+1" (t + 1) outcome.Sim.metrics.Metrics.rounds

let test_authenticated_ctx_bound () =
  Alcotest.check_raises "t >= n/2 rejected"
    (Invalid_argument "Ctx.make_authenticated: requires t < n/2") (fun () ->
      ignore (Ctx.make_authenticated ~n:4 ~t:2 ~me:0));
  (* t = 2, n = 5 is fine authenticated but invalid plain. *)
  ignore (Ctx.make_authenticated ~n:5 ~t:2 ~me:0);
  Alcotest.check_raises "plain bound still enforced"
    (Invalid_argument "Ctx.make: requires t < n/3") (fun () ->
      ignore (Ctx.make ~n:5 ~t:2 ~me:0))

let suite =
  [
    Alcotest.test_case "DS honest sender" `Quick test_ds_honest_sender;
    Alcotest.test_case "DS silent sender" `Quick test_ds_silent_sender;
    Alcotest.test_case "DS signed equivocation" `Quick test_ds_equivocating_sender;
    Alcotest.test_case "DS forged chain rejected" `Quick test_ds_forged_chain_rejected;
    Alcotest.test_case "AuthCA at t < n/2" `Slow test_auth_ca_beyond_third;
    Alcotest.test_case "AuthCA unanimous" `Quick test_auth_ca_unanimous;
    Alcotest.test_case "authenticated ctx bound" `Quick test_authenticated_ctx_bound;
  ]
