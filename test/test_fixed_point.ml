(* Fixed-precision rationals: parsing/printing, ordering, and end-to-end CA
   (the paper's "rationals with pre-defined precision" interpretation). *)

open Net
module Fp = Convex.Fixed_point

let fp = Alcotest.testable Fp.pp Fp.equal

let test_parse_print () =
  let cases =
    [
      ("-10.04", 2, "-10.04");
      ("10.04", 2, "10.04");
      ("+3.5", 2, "3.50");
      ("7", 3, "7.000");
      ("0.1", 1, "0.1");
      ("-0.001", 3, "-0.001");
      ("123456789123456789.99", 2, "123456789123456789.99");
      ("0", 0, "0");
      (".5", 1, "0.5");
    ]
  in
  List.iter
    (fun (input, decimals, expected) ->
      Alcotest.check Alcotest.string input expected
        (Fp.to_string (Fp.of_string ~decimals input)))
    cases

let test_parse_rejects () =
  List.iter
    (fun (input, decimals) ->
      Alcotest.check_raises input
        (Invalid_argument ("Fixed_point.of_string: " ^ input))
        (fun () -> ignore (Fp.of_string ~decimals input)))
    [ ("", 2); ("-", 2); ("1.234", 2); ("1a", 2); ("1.2.3", 2); (".", 2); ("--1", 0) ]

let test_units_roundtrip () =
  let v = Fp.of_string ~decimals:2 "-10.04" in
  Alcotest.check Alcotest.string "units" "-1004" (Bigint.to_string (Fp.units v));
  Alcotest.check Alcotest.int "decimals" 2 (Fp.decimals v);
  Alcotest.check fp "of_units" v (Fp.of_units ~decimals:2 (Bigint.of_int (-1004)));
  Alcotest.check fp "of_bigint scales" (Fp.of_string ~decimals:3 "5.000")
    (Fp.of_bigint ~decimals:3 (Bigint.of_int 5))

let test_ordering_and_arithmetic () =
  let p s = Fp.of_string ~decimals:2 s in
  Alcotest.check Alcotest.bool "order" true (Fp.compare (p "-10.05") (p "-10.04") < 0);
  Alcotest.check Alcotest.bool "order pos" true (Fp.compare (p "1.99") (p "2.00") < 0);
  Alcotest.check fp "add" (p "3.00") (Fp.add (p "1.25") (p "1.75"));
  Alcotest.check fp "sub" (p "-0.50") (Fp.sub (p "1.25") (p "1.75"));
  Alcotest.check fp "neg" (p "-1.25") (Fp.neg (p "1.25"));
  Alcotest.check_raises "mixed precision"
    (Invalid_argument "Fixed_point: mixed precisions") (fun () ->
      ignore (Fp.add (p "1.00") (Fp.of_string ~decimals:3 "1.000")))

let test_agree_end_to_end () =
  let n = 7 and t = 2 and decimals = 2 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  let readings =
    [| "-10.05"; "-10.04"; "-10.03"; "-10.05"; "-10.04"; "100.00"; "99.99" |]
  in
  let inputs = Array.map (Fp.of_string ~decimals) readings in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Convex.agree_fixed_point ctx inputs.(ctx.Ctx.me)))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
      in
      (match outputs with
      | o :: rest ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "agreement vs %s" adversary.Adversary.name)
            true
            (List.for_all (Fp.equal o) rest)
      | [] -> Alcotest.fail "no outputs");
      List.iter
        (fun o ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "convex validity vs %s" adversary.Adversary.name)
            true
            (Fp.in_convex_hull ~inputs:honest_inputs o))
        outputs)
    [ Adversary.passive; Adversary.garbage ~seed:3; Adversary.equivocate ~seed:4 ]

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"parse/print roundtrip" ~count:300
    QCheck.(triple (int_range (-1_000_000) 1_000_000) (int_bound 99) (int_bound 4))
    (fun (int_part, frac, decimals) ->
      let decimals = max 2 decimals in
      let s = Printf.sprintf "%d.%02d" int_part frac in
      let v = Convex.Fixed_point.of_string ~decimals s in
      let v' = Convex.Fixed_point.of_string ~decimals (Convex.Fixed_point.to_string v) in
      Convex.Fixed_point.equal v v')

let prop_order_matches_float =
  QCheck.Test.make ~name:"order matches numeric order" ~count:300
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      let va = Fp.of_units ~decimals:3 (Bigint.of_int a) in
      let vb = Fp.of_units ~decimals:3 (Bigint.of_int b) in
      compare a b = Fp.compare va vb)

let suite =
  [
    Alcotest.test_case "parse/print" `Quick test_parse_print;
    Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
    Alcotest.test_case "units roundtrip" `Quick test_units_roundtrip;
    Alcotest.test_case "ordering/arithmetic" `Quick test_ordering_and_arithmetic;
    Alcotest.test_case "CA end-to-end" `Quick test_agree_end_to_end;
    QCheck_alcotest.to_alcotest prop_parse_print_roundtrip;
    QCheck_alcotest.to_alcotest prop_order_matches_float;
  ]
