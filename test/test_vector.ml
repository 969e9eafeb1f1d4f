(* Coordinate-wise vector CA: agreement + box validity, and the documented
   honesty about what box validity is NOT (a point can be in the box yet
   outside the convex hull). *)

open Net

let bigint_t = Alcotest.testable Bigint.pp Bigint.equal

let honest_of ~corrupt arr = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list arr)

let run_vec ~n ~t ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.agree_vector ctx inputs.(ctx.Ctx.me)))

let test_agreement_and_box () =
  let n = 4 and t = 1 and dims = 3 in
  let corrupt = [| false; false; true; false |] in
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Array.make dims (Bigint.pow2 100)
        else
          Array.init dims (fun d ->
              Bigint.of_int (((d + 1) * 100) + (i * 3) - 50)))
  in
  List.iter
    (fun adversary ->
      let outcome = run_vec ~n ~t ~corrupt ~adversary inputs in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      (match outputs with
      | o :: rest ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "agreement vs %s" adversary.Adversary.name)
            true
            (List.for_all (fun o' -> Array.for_all2 Bigint.equal o o') rest)
      | [] -> Alcotest.fail "no outputs");
      List.iter
        (fun o ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "box validity vs %s" adversary.Adversary.name)
            true
            (Convex.Vector.in_box ~inputs:(honest_of ~corrupt inputs) o))
        outputs)
    [ Adversary.passive; Adversary.garbage ~seed:4; Adversary.equivocate ~seed:5 ]

let test_unanimous_vector_kept () =
  let n = 4 and t = 1 in
  let v = [| Bigint.of_int (-7); Bigint.zero; Bigint.of_int 123456789 |] in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.make n v in
  let outcome = run_vec ~n ~t ~corrupt ~adversary:(Adversary.bitflip ~seed:2) inputs in
  List.iter
    (fun o ->
      Array.iteri (fun d c -> Alcotest.check bigint_t (Printf.sprintf "dim %d" d) v.(d) c) o)
    (Sim.honest_outputs ~corrupt outcome)

let test_in_box_semantics () =
  let vec l = Array.of_list (List.map Bigint.of_int l) in
  let inputs = [ vec [ 0; 0 ]; vec [ 10; 10 ] ] in
  Alcotest.check Alcotest.bool "hull point in box" true
    (Convex.Vector.in_box ~inputs (vec [ 5; 5 ]));
  (* The honest documentation of the weakness: (0, 10) is inside the box but
     OUTSIDE the convex hull of {(0,0), (10,10)} — box validity accepts it. *)
  Alcotest.check Alcotest.bool "box point outside hull accepted" true
    (Convex.Vector.in_box ~inputs (vec [ 0; 10 ]));
  Alcotest.check Alcotest.bool "outside box rejected" false
    (Convex.Vector.in_box ~inputs (vec [ 11; 5 ]));
  Alcotest.check Alcotest.bool "dimension mismatch rejected" false
    (Convex.Vector.in_box ~inputs (vec [ 5 ]));
  Alcotest.check Alcotest.bool "no inputs" false (Convex.Vector.in_box ~inputs:[] (vec [ 1 ]))

let test_empty_vector_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Vector.agree: empty vector")
    (fun () -> ignore (Convex.agree_vector (Ctx.make ~n:4 ~t:1 ~me:0) [||]))

let suite =
  [
    Alcotest.test_case "agreement + box validity" `Quick test_agreement_and_box;
    Alcotest.test_case "unanimous kept" `Quick test_unanimous_vector_kept;
    Alcotest.test_case "in_box semantics" `Quick test_in_box_semantics;
    Alcotest.test_case "empty vector" `Quick test_empty_vector_rejected;
  ]
