(* FINDPREFIX against its frozen reference ([Find_prefix_spec], where every
   iteration runs Π_ℓBA+ however short its window). The library agrees on a
   window of at most κ = 256 bits with Π_BA+ on the window itself and keeps
   Π_ℓBA+ for longer ones.

   The grid: n ∈ {4, 7, 10}, ℓ ∈ {8, 64, 255, 256, 257, 1024}, uniform and
   clustered inputs, every adversary in [Attacks.registry], with the
   corrupted parties spread over the index space.
   In every cell both searches satisfy Lemma 1 (Lemma 4 for the block
   search at n = 4), Π_ℤ satisfies Definition 1 on the same inputs, the
   library's search sends no more honest bits than the reference's and no
   more rounds than [Find_prefix.cost_estimate] charges, and a search with
   ℓ ≤ 256 never distributes.

   Outputs and rounds may differ from the reference's. Where two windows
   each have n−2t sharers, Π_BA+ takes the lower as its first candidate:
   the lower window now, the lower Merkle root in the reference. So the
   search can agree on the other window and continue down another path,
   and whether Π_BA+ settles on its first candidate (two inner Π_BA calls)
   or needs its second (four) can change either way. Rounds are therefore
   compared with the reference only in sum over the generic adversaries;
   the cells where they rise are counted and printed. *)

open Net

let ns = [ 4; 7; 10 ]
let lengths = [ 8; 64; 255; 256; 257; 1024 ]

let families =
  [
    ("uniform", fun rng ~n ~bits -> Workload.uniform_bits rng ~n ~bits);
    ( "clustered",
      fun rng ~n ~bits -> Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
    );
  ]

(* Built afresh for each run: the strategies carry PRNG state, so the
   library's run and the reference's must each start from a new copy. The
   flag marks the generic ones. *)
let adversaries ~seed =
  List.map
    (fun e -> (e.Attacks.byte_level, e.Attacks.make ~seed ~payload:"\x01\x02"))
    Attacks.registry

let has_ext_distribute (m : Metrics.t) =
  List.exists (fun (label, bits) -> label = "ext_distribute" && bits > 0) (Metrics.labels m)

type tally = {
  mutable cells : int;
  mutable outputs_differ : int;
  mutable fewer_bits : int;
  mutable more_rounds_generic : int;
  mutable more_rounds_attacks : int;
  mutable rounds_generic : int;
  mutable rounds_generic_frozen : int;
}

let frozen_result (r : Find_prefix_spec.result) =
  {
    Convex.Find_prefix.prefix_star = r.prefix_star;
    v = r.v;
    v_bot = r.v_bot;
    iterations = r.iterations;
  }

let test_grid () =
  let tally =
    {
      cells = 0;
      outputs_differ = 0;
      fewer_bits = 0;
      more_rounds_generic = 0;
      more_rounds_attacks = 0;
      rounds_generic = 0;
      rounds_generic_frozen = 0;
    }
  in
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      List.iter
        (fun bits ->
          let model =
            (Convex.Find_prefix.cost_estimate (Ctx.make ~me:0 ~n ~t) ~value_bits:bits ~f:t)
              .Ba.Substrate.c_rounds
          in
          List.iter
            (fun (family, gen) ->
              let ints = gen (Prng.create ((1000 * n) + bits)) ~n ~bits in
              let inputs = Array.map (Bigint.to_bitstring_fixed ~bits) ints in
              List.iteri
                (fun k (generic, { Adversary.name; _ }) ->
                  let adversary () = snd (List.nth (adversaries ~seed:((31 * n) + bits + k)) k) in
                  let cell = Printf.sprintf "n=%d l=%d %s vs %s" n bits family name in
                  let search run =
                    Sim.run ~n ~t ~corrupt ~adversary:(adversary ()) (fun ctx ->
                        Proto.run (run ctx ~bits inputs.(ctx.Ctx.me)))
                  in
                  let mine = search Convex.Find_prefix.run in
                  let frozen = search Find_prefix_spec.run in
                  let results = Sim.honest_outputs ~corrupt mine in
                  let frozen_results =
                    List.map frozen_result (Sim.honest_outputs ~corrupt frozen)
                  in
                  Test_convex.check_lemma1 cell ~t ~corrupt ~bits ~block_bits:1 ~inputs results;
                  Test_convex.check_lemma1 (cell ^ " (frozen)") ~t ~corrupt ~bits ~block_bits:1
                    ~inputs frozen_results;
                  let m = mine.Sim.metrics and f = frozen.Sim.metrics in
                  Alcotest.check Alcotest.bool
                    (Printf.sprintf "%s: %d honest bits <= frozen %d" cell
                       m.Metrics.honest_bits f.Metrics.honest_bits)
                    true
                    (m.Metrics.honest_bits <= f.Metrics.honest_bits);
                  Alcotest.check Alcotest.bool
                    (Printf.sprintf "%s: %d rounds <= modelled %d" cell m.Metrics.rounds model)
                    true (m.Metrics.rounds <= model);
                  if bits <= 256 then
                    Alcotest.check Alcotest.bool (cell ^ ": no ext_distribute") false
                      (has_ext_distribute m);
                  let prefixes rs =
                    List.map (fun (r : Convex.Find_prefix.result) -> r.prefix_star) rs
                  in
                  tally.cells <- tally.cells + 1;
                  if not (List.equal Bitstring.equal (prefixes results) (prefixes frozen_results))
                  then tally.outputs_differ <- tally.outputs_differ + 1;
                  if m.Metrics.honest_bits < f.Metrics.honest_bits then
                    tally.fewer_bits <- tally.fewer_bits + 1;
                  let more = m.Metrics.rounds > f.Metrics.rounds in
                  if more then
                    Printf.printf "%s: %d rounds, frozen %d\n" cell m.Metrics.rounds
                      f.Metrics.rounds;
                  if generic then begin
                    tally.rounds_generic <- tally.rounds_generic + m.Metrics.rounds;
                    tally.rounds_generic_frozen <- tally.rounds_generic_frozen + f.Metrics.rounds;
                    if more then tally.more_rounds_generic <- tally.more_rounds_generic + 1
                  end
                  else if more then tally.more_rounds_attacks <- tally.more_rounds_attacks + 1;
                  (* Π_ℤ on the same inputs under the same adversary. *)
                  let pi_z =
                    Sim.run ~n ~t ~corrupt ~adversary:(adversary ()) (fun ctx ->
                        Convex.agree_int ctx ints.(ctx.Ctx.me))
                  in
                  Test_convex.check_ca_int (cell ^ ": Pi_Z") ~corrupt ~inputs:ints
                    (Sim.honest_outputs ~corrupt pi_z))
                (adversaries ~seed:0))
            families)
        lengths)
    ns;
  Printf.printf
    "%d cells: prefix differs from the frozen search in %d, fewer honest bits in %d; more \
     rounds in %d under a generic adversary and %d under an attack; %d rounds against the \
     frozen %d in sum under the generic adversaries\n"
    tally.cells tally.outputs_differ tally.fewer_bits tally.more_rounds_generic
    tally.more_rounds_attacks tally.rounds_generic tally.rounds_generic_frozen;
  Alcotest.check Alcotest.bool "generic adversaries: rounds in sum <= frozen" true
    (tally.rounds_generic <= tally.rounds_generic_frozen)

(* The block search at n = 4 (16 blocks) on the grid's lengths that are
   multiples of n²: Lemma 4 and no more bits than the frozen block search. *)
let test_block_grid () =
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.iter
    (fun bits ->
      List.iter
        (fun (family, gen) ->
          let inputs =
            Array.map (Bigint.to_bitstring_fixed ~bits) (gen (Prng.create bits) ~n ~bits)
          in
          List.iteri
            (fun k (_, { Adversary.name; _ }) ->
              let adversary () = snd (List.nth (adversaries ~seed:(bits + k)) k) in
              let cell = Printf.sprintf "blocks l=%d %s vs %s" bits family name in
              let search run =
                Sim.run ~n ~t ~corrupt ~adversary:(adversary ()) (fun ctx ->
                    Proto.run (run ctx ~bits inputs.(ctx.Ctx.me)))
              in
              let mine = search Convex.Find_prefix.run_blocks in
              let frozen = search Find_prefix_spec.run_blocks in
              Test_convex.check_lemma1 cell ~t ~corrupt ~bits ~block_bits:(bits / 16) ~inputs
                (Sim.honest_outputs ~corrupt mine);
              Alcotest.check Alcotest.bool (cell ^ ": honest bits <= frozen") true
                (mine.Sim.metrics.Metrics.honest_bits
                <= frozen.Sim.metrics.Metrics.honest_bits))
            (adversaries ~seed:0))
        families)
    (List.filter (fun bits -> bits mod 16 = 0) lengths)

(* The branch sits exactly at κ: a search whose first window is 256 bits
   (ℓ = 511) never distributes, and one whose first window is 257 bits
   (ℓ = 512, every later window at most 128) distributes. Unanimous honest
   inputs make every outcome non-⊥, and the silent corrupted party sends
   no root, so every Π_ℓBA+ call distributes to it. *)
let test_branch_at_kappa () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  let distributes bits =
    let v = Bitstring.max_fill bits (Bitstring.of_string "10") in
    let outcome =
      Sim.run ~n ~t ~corrupt ~adversary:Adversary.silent (fun ctx ->
          Proto.run (Convex.Find_prefix.run ctx ~bits v))
    in
    List.iter
      (fun (r : Convex.Find_prefix.result) ->
        Alcotest.check Alcotest.bool (Printf.sprintf "l=%d: full prefix" bits) true
          (Bitstring.equal v r.prefix_star))
      (Sim.honest_outputs ~corrupt outcome);
    has_ext_distribute outcome.Sim.metrics
  in
  Alcotest.check Alcotest.bool "l=511 (first window 256 bits): no ext_distribute" false
    (distributes 511);
  Alcotest.check Alcotest.bool "l=512 (first window 257 bits): ext_distribute" true
    (distributes 512)

let suite =
  [
    Alcotest.test_case "grid: Lemma 1, Definition 1, bits <= frozen" `Quick test_grid;
    Alcotest.test_case "block grid: Lemma 4, bits <= frozen" `Quick test_block_grid;
    Alcotest.test_case "branch at kappa: 256 direct, 257 distributes" `Quick
      test_branch_at_kappa;
  ]
