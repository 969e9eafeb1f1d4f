(* Direct unit tests of the Section 3 subprotocols under their lemma
   preconditions, plus regime-boundary tests for Π_ℕ and determinism of the
   whole stack. *)

open Net

let bits_t = Alcotest.testable Bitstring.pp Bitstring.equal
let bs = Bitstring.of_string

let run_all_honest ~n ~t protocol =
  let corrupt = Array.make n false in
  let outcome = Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive protocol in
  Sim.honest_outputs ~corrupt outcome

(* ---------------- ADDLASTBIT ---------------- *)

let test_add_last_bit () =
  let n = 4 and t = 1 and bits = 6 in
  let prefix_star = bs "101" in
  (* Honest values all extend 101; bit 4 split 0/1. *)
  let values = [| bs "101001"; bs "101110"; bs "101011"; bs "101111" |] in
  let results =
    run_all_honest ~n ~t (fun ctx ->
        Proto.run (Convex.Fixed_length_ca.add_last_bit ctx ~bits ~prefix_star values.(ctx.Ctx.me)))
  in
  let first = List.hd results in
  Alcotest.check Alcotest.int "one bit longer" 4 (Bitstring.length first);
  Alcotest.check Alcotest.bool "extends prefix" true
    (Bitstring.is_prefix ~prefix:prefix_star first);
  List.iter (fun r -> Alcotest.check bits_t "common" first r) results;
  (* Lemma 2: the new prefix prefixes some honest party's value. *)
  Alcotest.check Alcotest.bool "prefixes an honest value" true
    (Array.exists (fun v -> Bitstring.is_prefix ~prefix:first v) values)

let test_add_last_bit_unanimous_next_bit () =
  let n = 4 and t = 1 and bits = 4 in
  let prefix_star = bs "01" in
  let values = Array.make n (bs "0110") in
  let results =
    run_all_honest ~n ~t (fun ctx ->
        Proto.run (Convex.Fixed_length_ca.add_last_bit ctx ~bits ~prefix_star values.(ctx.Ctx.me)))
  in
  List.iter (fun r -> Alcotest.check bits_t "validity picks the 1" (bs "011") r) results

let test_add_last_bit_preconditions () =
  let ctx = Ctx.make ~n:4 ~t:1 ~me:0 in
  Alcotest.check_raises "full prefix rejected"
    (Invalid_argument "Add_last_bit.run: prefix already full") (fun () ->
      ignore
        (Convex.Fixed_length_ca.add_last_bit ctx ~bits:3 ~prefix_star:(bs "101")
           (bs "101")));
  Alcotest.check_raises "wrong value length"
    (Invalid_argument "Add_last_bit.run: value length") (fun () ->
      ignore
        (Convex.Fixed_length_ca.add_last_bit ctx ~bits:4 ~prefix_star:(bs "10")
           (bs "10")))

(* ---------------- GETOUTPUT ---------------- *)

let get_output_case ~v_bots ~prefix_star ~bits =
  let n = Array.length v_bots in
  run_all_honest ~n ~t:1 (fun ctx ->
      Proto.run (Convex.Get_output.run ctx ~bits ~prefix_star v_bots.(ctx.Ctx.me)))

let test_get_output_low_side () =
  (* All differing v_bot are below MIN(prefix): choice must be MIN. *)
  let bits = 6 and prefix_star = bs "11" in
  let low = Bitstring.min_fill 6 (bs "11") in
  let v_bots = [| bs "000001"; bs "001000"; bs "110000"; bs "110101" |] in
  let results = get_output_case ~v_bots ~prefix_star ~bits in
  List.iter (fun r -> Alcotest.check bits_t "MIN chosen" low r) results

let test_get_output_high_side () =
  let bits = 6 and prefix_star = bs "01" in
  let high = Bitstring.max_fill 6 (bs "01") in
  let v_bots = [| bs "100001"; bs "111000"; bs "010000"; bs "010101" |] in
  let results = get_output_case ~v_bots ~prefix_star ~bits in
  List.iter (fun r -> Alcotest.check bits_t "MAX chosen" high r) results

let test_get_output_mixed () =
  (* Differing v_bot on both sides: either completion is acceptable, but it
     must be common. *)
  let bits = 6 and prefix_star = bs "10" in
  let v_bots = [| bs "000001"; bs "110000"; bs "001000"; bs "111000" |] in
  let results = get_output_case ~v_bots ~prefix_star ~bits in
  let first = List.hd results in
  Alcotest.check Alcotest.bool "min or max" true
    (Bitstring.equal first (Bitstring.min_fill bits prefix_star)
    || Bitstring.equal first (Bitstring.max_fill bits prefix_star));
  List.iter (fun r -> Alcotest.check bits_t "common" first r) results

let test_get_output_empty_prefix () =
  (* An empty agreed prefix is legal: the output is all-zeros or all-ones. *)
  let bits = 4 and prefix_star = Bitstring.empty in
  let v_bots = [| bs "0001"; bs "1110"; bs "0100"; bs "1011" |] in
  let results = get_output_case ~v_bots ~prefix_star ~bits in
  let first = List.hd results in
  Alcotest.check Alcotest.bool "all-0 or all-1" true
    (Bitstring.equal first (Bitstring.zero 4) || Bitstring.equal first (Bitstring.ones 4))

(* ---------------- Π_ℕ regime boundaries ---------------- *)

let run_nat_all_honest ~n ~t inputs =
  run_all_honest ~n ~t (fun ctx -> Proto.run (Convex.agree_nat ctx inputs.(ctx.Ctx.me)))

let check_nat name inputs outputs =
  let lo = Array.fold_left Bigint.min inputs.(0) inputs in
  let hi = Array.fold_left Bigint.max inputs.(0) inputs in
  let first = List.hd outputs in
  List.iter
    (fun o ->
      Alcotest.check Alcotest.bool (name ^ " agreement") true (Bigint.equal first o);
      Alcotest.check Alcotest.bool (name ^ " validity") true
        (Bigint.compare lo o <= 0 && Bigint.compare o hi <= 0))
    outputs

let test_ca_nat_length_boundaries () =
  let n = 4 and t = 1 in
  let n2 = n * n in
  (* Exactly n² bits (short regime boundary), n²+1 bits (long regime),
     powers of two around the probe ladder, zeros. *)
  List.iter
    (fun (name, mk) ->
      let inputs = Array.init n mk in
      check_nat name inputs (run_nat_all_honest ~n ~t inputs))
    [
      ("exactly n^2 bits", fun i -> Bigint.add (Bigint.pow2 (n2 - 1)) (Bigint.of_int i));
      ("n^2+1 bits", fun i -> Bigint.add (Bigint.pow2 n2) (Bigint.of_int i));
      ("one bit", fun i -> Bigint.of_int (i mod 2));
      ("exact power of two", fun _ -> Bigint.pow2 8);
      ("around 2^i ladder", fun i -> Bigint.of_int (255 + i));
      ("mixed tiny/huge", fun i -> if i = 0 then Bigint.zero else Bigint.pow2 (100 * i));
    ]

let test_ca_nat_all_max_value () =
  let n = 4 and t = 1 in
  let v = Bigint.pred (Bigint.pow2 16) in
  let inputs = Array.make n v in
  List.iter
    (fun o -> Alcotest.check (Alcotest.testable Bigint.pp Bigint.equal) "kept" v o)
    (run_nat_all_honest ~n ~t inputs)

(* ---------------- determinism ---------------- *)

let test_stack_determinism () =
  let run () =
    let n = 7 and t = 2 in
    let corrupt = Workload.spread_corrupt ~n ~t in
    let inputs =
      Workload.apply_input_attack Workload.Split_extremes ~corrupt
        (Workload.sensor_readings (Prng.create 11) ~n ~base:(-1004) ~jitter:2)
    in
    let outcome =
      Sim.run ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:13) (fun ctx ->
          Convex.agree_int ctx inputs.(ctx.Ctx.me))
    in
    ( Sim.honest_outputs ~corrupt outcome,
      outcome.Sim.metrics.Metrics.honest_bits,
      outcome.Sim.metrics.Metrics.rounds )
  in
  let o1, b1, r1 = run () in
  let o2, b2, r2 = run () in
  Alcotest.check (Alcotest.list (Alcotest.testable Bigint.pp Bigint.equal))
    "same outputs" o1 o2;
  Alcotest.check Alcotest.int "same bits" b1 b2;
  Alcotest.check Alcotest.int "same rounds" r1 r2

let suite =
  [
    Alcotest.test_case "AddLastBit split" `Quick test_add_last_bit;
    Alcotest.test_case "AddLastBit unanimous" `Quick test_add_last_bit_unanimous_next_bit;
    Alcotest.test_case "AddLastBit preconditions" `Quick test_add_last_bit_preconditions;
    Alcotest.test_case "GetOutput low side" `Quick test_get_output_low_side;
    Alcotest.test_case "GetOutput high side" `Quick test_get_output_high_side;
    Alcotest.test_case "GetOutput mixed" `Quick test_get_output_mixed;
    Alcotest.test_case "GetOutput empty prefix" `Quick test_get_output_empty_prefix;
    Alcotest.test_case "Pi_N length boundaries" `Quick test_ca_nat_length_boundaries;
    Alcotest.test_case "Pi_N unanimous max" `Quick test_ca_nat_all_max_value;
    Alcotest.test_case "stack determinism" `Quick test_stack_determinism;
  ]
