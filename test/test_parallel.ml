(* Proto.parallel: multiplexing semantics, round economics and adversary
   robustness. *)

open Net

let ( let* ) = Proto.( let* )

(* A branch that broadcasts a tag for [rounds] rounds, then returns the tags
   collected in its final round. *)
let chatter ~tag ~rounds (_ctx : Ctx.t) =
  let rec go r last =
    if r = rounds then Proto.return last
    else
      let* inbox = Proto.broadcast tag in
      let seen =
        Array.to_list inbox |> List.filter_map Fun.id |> List.sort_uniq compare
      in
      go (r + 1) seen
  in
  go 0 []

let test_branches_isolated () =
  (* Two concurrent chatters: branch A must only ever see A-tags, branch B
     only B-tags — the multiplexer must not leak across slots. *)
  let n = 4 in
  let outcome =
    Sim.run ~n ~t:1 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      (fun ctx ->
        Proto.run
          (Proto.both (chatter ~tag:"A" ~rounds:3 ctx) (chatter ~tag:"B" ~rounds:3 ctx)))
  in
  Array.iter
    (function
      | Some (a, b) ->
          Alcotest.check (Alcotest.list Alcotest.string) "A isolated" [ "A" ] a;
          Alcotest.check (Alcotest.list Alcotest.string) "B isolated" [ "B" ] b
      | None -> Alcotest.fail "missing output")
    outcome.Sim.outputs

let test_rounds_are_max_not_sum () =
  let n = 3 in
  let branch rounds ctx = chatter ~tag:(string_of_int rounds) ~rounds ctx in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      (fun ctx -> Proto.run (Proto.parallel [ branch 2 ctx; branch 7 ctx; branch 4 ctx ]))
  in
  Alcotest.check Alcotest.int "max rounds" 7 outcome.Sim.metrics.Metrics.rounds

let test_finished_branch_goes_quiet () =
  (* Once the short branch finishes, its slot must carry nothing: total
     traffic equals each branch's own traffic plus multiplex framing. *)
  let n = 2 in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      (fun ctx ->
        Proto.run
          (Proto.both (chatter ~tag:"x" ~rounds:1 ctx) (chatter ~tag:"y" ~rounds:5 ctx)))
  in
  (* 5 rounds, 2 parties x 1 recipient. Round 1 carries both slots, rounds
     2-5 only the y slot. Framing: list header + option tags + length. *)
  Alcotest.check Alcotest.int "rounds" 5 outcome.Sim.metrics.Metrics.rounds;
  Alcotest.check Alcotest.bool "quiet slot saves bytes" true
    (outcome.Sim.metrics.Metrics.honest_bits < 5 * 2 * 8 * 10)

let test_parallel_under_adversaries () =
  (* Mux frames are just bytes to the adversary; garbage must degrade to
     all-None slices, never crash, and phase-king inside still agrees. *)
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs = Array.init n (fun i -> Printf.sprintf "v%d" (i mod 2)) in
  List.iter
    (fun adversary ->
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run
              (Proto.parallel
                 [
                   Ba.Phase_king.run_bytes ctx inputs.(ctx.Ctx.me);
                   Ba.Phase_king.run_bit ctx (ctx.Ctx.me mod 2 = 0)
                   |> Fun.flip Proto.map (fun b -> if b then "1" else "0");
                 ]))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      match outputs with
      | first :: rest ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "both agreements hold vs %s" adversary.Adversary.name)
            true
            (List.for_all (( = ) first) rest)
      | [] -> Alcotest.fail "no outputs")
    Attacks.(instantiate ~seed:21 ~payload:"" generic)

let prop_parallel_semantics =
  (* Random branch structures: rounds must be the max of the branches', and
     each branch must see exactly its own tag. *)
  QCheck.Test.make ~name:"parallel semantics (random branches)" ~count:40
    QCheck.(pair (int_bound 1000) (int_bound 4))
    (fun (seed, extra) ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 4 in
      let branches = 1 + extra in
      let depths = List.init branches (fun _ -> 1 + Prng.int rng 6) in
      let outcome =
        Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
          (fun ctx ->
            Proto.run
              (Proto.parallel
                 (List.mapi
                    (fun b depth -> chatter ~tag:(string_of_int b) ~rounds:depth ctx)
                    depths)))
      in
      let max_depth = List.fold_left max 0 depths in
      outcome.Sim.metrics.Metrics.rounds = max_depth
      && Array.for_all
           (function
             | Some results ->
                 List.for_all2
                   (fun b seen -> seen = [ string_of_int b ])
                   (List.init branches Fun.id)
                   results
             | None -> false)
           outcome.Sim.outputs)

let test_empty_parallel_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Proto.parallel: no branches")
    (fun () -> ignore (Proto.parallel []))

let suite =
  [
    Alcotest.test_case "branch isolation" `Quick test_branches_isolated;
    Alcotest.test_case "rounds = max" `Quick test_rounds_are_max_not_sum;
    Alcotest.test_case "finished branch quiet" `Quick test_finished_branch_goes_quiet;
    Alcotest.test_case "adversary robustness" `Quick test_parallel_under_adversaries;
    Alcotest.test_case "empty rejected" `Quick test_empty_parallel_rejected;
    QCheck_alcotest.to_alcotest prop_parallel_semantics;
  ]
