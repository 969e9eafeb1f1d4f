(* HIGHCOSTCA against its frozen reference ([High_cost_ca_spec], which
   re-sends the full value in every round of every king phase). The library
   sends a one-byte back-reference where the receiver already holds the
   value from that sender.

   The grid: n ∈ {4, 7, 10}; widths of 1, 2, 64, 194 and 1024 bits; four
   input families: unanimous, clustered (a shared upper half), all drawn
   independently, and outliers (clustered honest inputs, corrupted parties
   at the all-zeros and all-ones extremes); every adversary in
   [Attacks.registry], with the corrupted parties spread over the index
   space. In every cell both paths hold convex agreement, take equal rounds,
   and the library's honest bits are at most the reference's; under the
   adversaries that leave honest bytes alone (passive, silent, crash) the
   honest outputs are equal too. Rank_ba and Median_ba, which run the same
   search with a rank-window interval rule, get the same grid at n = 7 with
   their own validity. *)

open Net

let widths = [ 1; 2; 64; 194; 1024 ]

let random_bits rng bits = Bitstring.init bits (fun _ -> Prng.bool rng)

(* [bits - bits / 2] low bits drawn under a shared upper half. *)
let clustered rng ~shared bits =
  let hi = bits / 2 in
  Bitstring.append (Bitstring.prefix shared hi) (random_bits rng (bits - hi))

(* Party [i]'s input in each family. *)
let families =
  [
    ( "unanimous",
      fun rng ~corrupt:_ ~n bits ->
        let v = random_bits rng bits in
        Array.make n v );
    ( "clustered",
      fun rng ~corrupt:_ ~n bits ->
        let shared = random_bits rng bits in
        Array.init n (fun _ -> clustered rng ~shared bits) );
    ("distinct", fun rng ~corrupt:_ ~n bits -> Array.init n (fun _ -> random_bits rng bits));
    ( "outliers",
      fun rng ~corrupt ~n bits ->
        let shared = random_bits rng bits in
        Array.init n (fun i ->
            if not corrupt.(i) then clustered rng ~shared bits
            else if i land 1 = 0 then Bitstring.zero bits
            else Bitstring.ones bits) );
  ]

let honest_inputs ~corrupt inputs =
  List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)

(* Agreement, and [valid] on the common output. *)
let agreed ~valid = function
  | [] -> false
  | o :: rest -> List.for_all (Bitstring.equal o) rest && valid o

let convex ~corrupt ~inputs o =
  let honest = List.sort Bitstring.compare (honest_inputs ~corrupt inputs) in
  Bitstring.compare (List.hd honest) o <= 0
  && Bitstring.compare o (List.nth honest (List.length honest - 1)) <= 0

(* Adversaries that forward every honest byte untouched: the two paths'
   honest outputs must then be equal. *)
let leaves_bytes (e : Attacks.entry) = List.mem e.Attacks.name [ "passive"; "silent"; "crash" ]

(* One protocol pair over the grid at [ns]: [mine] and [frozen] are the
   library's and the reference's run for a party, [valid] the output
   property. Returns (cells, cells with strictly fewer honest bits). *)
let grid ~ns ~mine ~frozen ~valid =
  let cells = ref 0 and fewer = ref 0 in
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      List.iter
        (fun bits ->
          List.iter
            (fun (family, gen) ->
              let inputs = gen (Prng.create ((1000 * n) + bits)) ~corrupt ~n bits in
              List.iteri
                (fun k (e : Attacks.entry) ->
                  let seed = (31 * n) + bits + k in
                  let cell = Printf.sprintf "n=%d bits=%d %s vs %s" n bits family e.Attacks.name in
                  (* A fresh strategy per run: strategies carry PRNG state. *)
                  let run protocol =
                    let adversary = e.Attacks.make ~seed ~payload:"\x01\x02" in
                    let outcome =
                      Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                          Proto.run (protocol ctx ~bits inputs.(ctx.Ctx.me)))
                    in
                    let outputs = Sim.honest_outputs ~corrupt outcome in
                    Alcotest.(check bool)
                      (cell ^ ": agreement and validity")
                      true
                      (agreed ~valid:(valid ~t ~corrupt ~inputs) outputs);
                    (outcome.Sim.metrics, outputs)
                  in
                  let m, mine_out = run mine in
                  let f, frozen_out = run frozen in
                  Alcotest.(check int) (cell ^ ": rounds = frozen") f.Metrics.rounds
                    m.Metrics.rounds;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %d honest bits <= frozen %d" cell m.Metrics.honest_bits
                       f.Metrics.honest_bits)
                    true
                    (m.Metrics.honest_bits <= f.Metrics.honest_bits);
                  if leaves_bytes e then
                    Alcotest.(check bool)
                      (cell ^ ": honest outputs = frozen")
                      true
                      (List.equal Bitstring.equal mine_out frozen_out);
                  incr cells;
                  if m.Metrics.honest_bits < f.Metrics.honest_bits then incr fewer)
                Attacks.registry)
            families)
        widths)
    ns;
  (!cells, !fewer)

let test_grid () =
  let cells, fewer =
    grid ~ns:[ 4; 7; 10 ] ~mine:Convex.High_cost_ca.run ~frozen:High_cost_ca_spec.run
      ~valid:(fun ~t:_ -> convex)
  in
  Printf.printf "high_cost_ca: %d cells, fewer honest bits than the frozen path in %d\n" cells
    fewer

let rank = 2

let test_rank_median_grid () =
  let frozen_rank ctx ~bits v =
    High_cost_ca_spec.run_custom ctx ~bits ~select_interval:(Convex.Rank_ba.rank_window ~rank) v
  in
  let cells, fewer =
    grid ~ns:[ 7 ]
      ~mine:(fun ctx ~bits v -> Convex.Rank_ba.run ctx ~bits ~rank v)
      ~frozen:frozen_rank
      ~valid:(fun ~t ~corrupt ~inputs ->
        Convex.Rank_ba.validity_bounds (honest_inputs ~corrupt inputs) ~rank ~t)
  in
  Printf.printf "rank_ba: %d cells, fewer in %d\n" cells fewer;
  let frozen_median (ctx : Ctx.t) ~bits v =
    let rank = ((ctx.Ctx.n - ctx.Ctx.t) + 1) / 2 in
    High_cost_ca_spec.run_custom ctx ~bits ~select_interval:(Convex.Rank_ba.rank_window ~rank) v
  in
  let cells, fewer =
    grid ~ns:[ 7 ] ~mine:Convex.Median_ba.run ~frozen:frozen_median
      ~valid:(fun ~t ~corrupt ~inputs ->
        Convex.Median_ba.validity_bounds (honest_inputs ~corrupt inputs) ~t)
  in
  Printf.printf "median_ba: %d cells, fewer in %d\n" cells fewer

(* Totality under arbitrary bytes: corrupted parties send, per round,
   sender and recipient, any of random bytes, the back-reference, a
   full-tagged message over junk or over a value, an option over a value,
   a truncated option, the ⊥ option, an empty message or nothing. HIGHCOSTCA
   and phase king at n ∈ {4, 7} must not raise, and every honest party
   must end in convex agreement (HIGHCOSTCA) or in Definition 2's agreement,
   on the common input when the honest inputs are unanimous (phase king). *)
let prop_arbitrary_bytes =
  let open QCheck.Gen in
  let value bits = map (fun seed -> Wire.encode_value (random_bits (Prng.create seed) bits)) nat in
  let msg bits =
    opt
      (frequency
         [
           (2, string_size (int_bound 6));
           (2, return Ba.Phase_king.back_reference);
           (2, map Ba.Phase_king.king_message (string_size (int_bound 4)));
           (1, map Ba.Phase_king.king_message (value bits));
           (1, map (fun v -> "\001" ^ v) (value bits));
           ( 2,
             map2
               (fun v k -> "\001" ^ String.sub v 0 (k mod String.length v))
               (value bits) nat );
           (1, return "\000");
           (1, return "");
         ])
  in
  let case =
    triple (int_bound 1) (oneofl [ 1; 2; 64 ]) nat >>= fun (size, bits, seed) ->
    map (fun msgs -> (size, bits, seed, msgs)) (list_size (int_range 1 48) (msg bits))
  in
  QCheck.Test.make ~name:"HighCostCA and phase king total on arbitrary bytes" ~count:200
    (QCheck.make
       ~print:(fun (size, bits, seed, msgs) ->
         Printf.sprintf "n=%d bits=%d seed=%d %s" [| 4; 7 |].(size) bits seed
           (QCheck.Print.(list (option string)) msgs))
       case)
    (fun (size, bits, seed, msgs) ->
      let n = [| 4; 7 |].(size) in
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let msgs = Array.of_list msgs in
      let adversary =
        Adversary.make ~name:"arbitrary" (fun view ~sender ~recipient ->
            msgs.(((view.Adversary.round * 31) + (sender * 7) + recipient) mod Array.length msgs))
      in
      let rng = Prng.create seed in
      let unanimous = Array.length msgs mod 2 = 0 in
      let first = random_bits rng bits in
      let inputs = Array.init n (fun _ -> if unanimous then first else random_bits rng bits) in
      let run protocol =
        Sim.honest_outputs ~corrupt
          (Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> Proto.run (protocol ctx)))
      in
      let ca =
        run (fun ctx -> Convex.High_cost_ca.run ctx ~bits inputs.(ctx.Ctx.me))
        |> agreed ~valid:(convex ~corrupt ~inputs)
      in
      let encoded = Array.map Wire.encode_value inputs in
      let ba =
        match run (fun ctx -> Ba.Phase_king.run_bytes ctx encoded.(ctx.Ctx.me)) with
        | [] -> false
        | o :: rest as outputs ->
            List.length outputs = n - t
            && List.for_all (String.equal o) rest
            && ((not unanimous) || String.equal o encoded.(0))
      in
      ca && ba)

let suite =
  [
    Alcotest.test_case "grid: CA, rounds = frozen, bits <= frozen" `Quick test_grid;
    Alcotest.test_case "rank_ba and median_ba grid at n=7" `Quick test_rank_median_grid;
    QCheck_alcotest.to_alcotest prop_arbitrary_bytes;
  ]
