(* Cross-cutting edge cases that no single module suite owns: extreme
   magnitudes through Π_ℤ, fixed-point corner literals, degenerate protocol
   parameters, and trace/label interaction with byzantine senders. *)

open Net

let bigint_t = Alcotest.testable Bigint.pp Bigint.equal

let run_int_all ~n ~t ~corrupt ~adversary inputs =
  Sim.honest_outputs ~corrupt
    (Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))

let test_min_int_scale_magnitudes () =
  let n = 4 and t = 1 in
  (* All honest parties hold min_int; the byzantine one claims max_int. *)
  let corrupt = [| false; false; false; true |] in
  let v = Bigint.of_int min_int in
  let inputs = [| v; v; v; Bigint.of_int max_int |] in
  List.iter
    (fun o -> Alcotest.check bigint_t "min_int magnitude survives" v o)
    (run_int_all ~n ~t ~corrupt ~adversary:(Adversary.garbage ~seed:1) inputs)

let test_all_honest_zero () =
  let n = 4 and t = 1 in
  let corrupt = [| false; false; true; false |] in
  let inputs = [| Bigint.zero; Bigint.zero; Bigint.pow2 500; Bigint.zero |] in
  List.iter
    (fun o -> Alcotest.check bigint_t "zero" Bigint.zero o)
    (run_int_all ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:2) inputs)

let test_adjacent_negatives () =
  (* The sensor regime: all negative, adjacent values — the sign agreement
     plus magnitude path with minimal disagreement. *)
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Array.init n (fun i -> Bigint.of_int (-1000 - i)) in
  let outputs = run_int_all ~n ~t ~corrupt ~adversary:(Adversary.bitflip ~seed:3) inputs in
  List.iter
    (fun o ->
      let v = Option.get (Bigint.to_int_opt o) in
      Alcotest.check Alcotest.bool "within adjacent band" true
        (v <= -1000 && v >= -1000 - n + 1))
    outputs

let test_fixed_point_corner_literals () =
  let module Fp = Convex.Fixed_point in
  Alcotest.check Alcotest.string "negative zero normalizes" "0.00"
    (Fp.to_string (Fp.of_string ~decimals:2 "-0.00"));
  Alcotest.check Alcotest.string "trailing-dot integer" "5.000"
    (Fp.to_string (Fp.of_string ~decimals:3 "5."));
  Alcotest.check Alcotest.bool "negative zero equals zero" true
    (Fp.equal (Fp.of_string ~decimals:2 "-0.00") (Fp.of_string ~decimals:2 "0"))

let test_n_equals_one () =
  (* A single party (t = 0) trivially agrees with itself, in every protocol
     entry point that permits n = 1. *)
  let outcome =
    Sim.run ~n:1 ~t:0 ~corrupt:[| false |] ~adversary:Adversary.passive (fun ctx ->
        Convex.agree_int ctx (Bigint.of_int (-99)))
  in
  Alcotest.check (Alcotest.list bigint_t) "solo party" [ Bigint.of_int (-99) ]
    (Sim.honest_outputs ~corrupt:[| false |] outcome)

let test_trace_records_byzantine_labels () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  let obs = Obs.create ~messages:true () in
  let inputs = Array.init n (fun i -> Bigint.of_int (10 + i)) in
  ignore
    (Sim.run ~obs ~n ~t ~corrupt ~adversary:(Adversary.spammer ~seed:4 ~max_len:16)
       (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)));
  let byz = List.filter (fun e -> e.Obs.byzantine) (Obs.messages obs) in
  Alcotest.check Alcotest.bool "byzantine traffic traced" true (List.length byz > 0);
  List.iter
    (fun e -> Alcotest.check Alcotest.bool "byz sender is party 0" true (e.Obs.src = 0))
    byz;
  (* Honest traffic is fully label-attributed (the whole protocol runs inside
     labelled components). *)
  let unlabeled_honest =
    List.filter
      (fun e -> (not e.Obs.byzantine) && e.Obs.label = "")
      (Obs.messages obs)
  in
  Alcotest.check Alcotest.int "no unlabeled honest traffic" 0
    (List.length unlabeled_honest)

let test_byzantine_oversize_messages_truncated () =
  (* A strategy emitting messages beyond the simulator cap must not cause
     unbounded allocation or crashes. *)
  let huge =
    Adversary.make ~name:"huge" (fun _ ~sender:_ ~recipient:_ ->
        Some (String.make (Sim.max_byzantine_bytes + 4096) 'X'))
  in
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Bigint.of_int i) in
  let outputs = run_int_all ~n ~t ~corrupt ~adversary:huge inputs in
  Alcotest.check Alcotest.bool "agreement despite giant frames" true
    (match outputs with o :: rest -> List.for_all (Bigint.equal o) rest | [] -> false)

let suite =
  [
    Alcotest.test_case "min_int-scale magnitudes" `Quick test_min_int_scale_magnitudes;
    Alcotest.test_case "all honest zero" `Quick test_all_honest_zero;
    Alcotest.test_case "adjacent negatives" `Quick test_adjacent_negatives;
    Alcotest.test_case "fixed-point corners" `Quick test_fixed_point_corner_literals;
    Alcotest.test_case "n = 1" `Quick test_n_equals_one;
    Alcotest.test_case "trace + byzantine labels" `Quick test_trace_records_byzantine_labels;
    Alcotest.test_case "oversize byzantine frames" `Quick test_byzantine_oversize_messages_truncated;
  ]
