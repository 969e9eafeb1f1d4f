(* Π_ℓBA+ against its frozen reference ([Ext_ba_plus_spec], which
   distributes to every party). The library sends the step-3a and step-3b
   tuples only to the parties whose Π_BA+ root differs from the agreed root.

   The grid: n ∈ {4, 7, 10}; values of 8, 32, 33, 1024 and 4096 bytes (the
   root is κ = 32 bytes); three input families: unanimous, exactly n−2t
   honest parties sharing a value with every other party's distinct, and
   all distinct; every adversary in [Attacks.registry], with the corrupted
   parties spread over the index space. In every cell both paths satisfy
   Agreement, Intrusion Tolerance and Bounded Pre-Agreement, the library's
   honest outputs and rounds equal the reference's, and its honest bits are
   at most the reference's. The cells with strictly fewer bits are counted
   and printed. *)

open Net

let lengths = [ 8; 32; 33; 1024; 4096 ]

(* Party [i]'s input in each family; [honest] lists the honest parties in
   index order. *)
let families =
  let fresh rng len = Prng.bytes rng len in
  [
    ( "unanimous",
      fun rng ~n ~t:_ ~honest:_ len ->
        let v = fresh rng len in
        Array.make n v );
    ( "n-2t sharers",
      fun rng ~n ~t ~honest len ->
        let v = fresh rng len in
        let sharers = List.filteri (fun k _ -> k < n - (2 * t)) honest in
        Array.init n (fun i -> if List.mem i sharers then v else fresh rng len) );
    ("distinct", fun rng ~n ~t:_ ~honest:_ len -> Array.init n (fun _ -> fresh rng len));
  ]

let test_grid () =
  let cells = ref 0 and fewer = ref 0 in
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let honest = List.filter (fun i -> not corrupt.(i)) (List.init n Fun.id) in
      List.iter
        (fun len ->
          List.iter
            (fun (family, gen) ->
              let inputs = gen (Prng.create ((1000 * n) + len)) ~n ~t ~honest len in
              List.iteri
                (fun k (e : Attacks.entry) ->
                  let seed = (31 * n) + len + k in
                  let where = Printf.sprintf "n=%d len=%d %s" n len family in
                  let cell = Printf.sprintf "%s vs %s" where e.Attacks.name in
                  (* A fresh strategy per run: strategies carry PRNG state. *)
                  let run protocol =
                    let adversary = e.Attacks.make ~seed ~payload:"\x01\x02" in
                    let outcome =
                      Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                          Proto.run (protocol ctx inputs.(ctx.Ctx.me)))
                    in
                    ignore
                      (Test_baplus.check_properties where ~n ~t ~corrupt ~inputs ~adversary
                         outcome);
                    outcome
                  in
                  let mine = run Baplus.Ext_ba_plus.run in
                  let frozen = run Ext_ba_plus_spec.run in
                  let m = mine.Sim.metrics and f = frozen.Sim.metrics in
                  Alcotest.(check (list (option string)))
                    (cell ^ ": honest outputs = frozen")
                    (Sim.honest_outputs ~corrupt frozen)
                    (Sim.honest_outputs ~corrupt mine);
                  Alcotest.(check int) (cell ^ ": rounds = frozen") f.Metrics.rounds
                    m.Metrics.rounds;
                  Alcotest.check Alcotest.bool
                    (Printf.sprintf "%s: %d honest bits <= frozen %d" cell m.Metrics.honest_bits
                       f.Metrics.honest_bits)
                    true
                    (m.Metrics.honest_bits <= f.Metrics.honest_bits);
                  incr cells;
                  if m.Metrics.honest_bits < f.Metrics.honest_bits then incr fewer)
                Attacks.registry)
            families)
        lengths)
    [ 4; 7; 10 ];
  Printf.printf "%d cells: outputs and rounds equal the frozen path's in all, fewer honest bits in %d\n"
    !cells !fewer

let suite =
  [ Alcotest.test_case "grid: outputs and rounds = frozen, bits <= frozen" `Quick test_grid ]
