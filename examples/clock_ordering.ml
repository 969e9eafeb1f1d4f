(* Decentralized clock for transaction ordering (the application of [14] in
   the paper's related work): validators hold skewed local timestamps and
   must stamp a block with one common time that no byzantine coalition can
   drag outside the honest clocks' range.

   Approximate Agreement gets the validators close (and is cheaper per
   iteration) but leaves residual disagreement — useless for a total order,
   where all validators must stamp the SAME value. Convex Agreement gives
   exactness. This example runs both and prints the residual spread.

   Run with: dune exec examples/clock_ordering.exe *)

open Net

let n = 10
let t = 3
let bits = 64

let () =
  let rng = Prng.create 123 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Honest clocks: 2026-07-06 12:00:00 UTC in ns, +- 40ms skew. *)
  let inputs =
    Workload.timestamps rng ~n ~now_ns:"1783425600000000000" ~skew_ns:40_000_000
  in
  (* Byzantine validators claim a timestamp one hour ahead, trying to censor
     honest transactions by post-dating the block. *)
  let inputs =
    Array.mapi
      (fun i v ->
        if corrupt.(i) then Bigint.add v (Bigint.of_string "3600000000000") else v)
      inputs
  in
  let adversary = Adversary.bitflip ~seed:9 in

  let honest_inputs = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs) in
  let lo = List.fold_left Bigint.min (List.hd honest_inputs) honest_inputs in
  let hi = List.fold_left Bigint.max (List.hd honest_inputs) honest_inputs in
  Printf.printf "honest clock range: [%s, %s] (spread %s ns)\n" (Bigint.to_string lo)
    (Bigint.to_string hi)
    (Bigint.to_string (Bigint.sub hi lo));

  (* Approximate agreement: 3 iterations of trimmed averaging — enough to
     shrink a 50ms spread to the millisecond scale, never to exactness. The
     adversary is two-faced: it feeds the low end of the honest range to half
     the validators and the high end to the other half, every round — the
     strongest way to keep AA estimates apart. *)
  let encode v = Wire.encode (Wire.w_bits (Bigint.to_bitstring_fixed ~bits v)) in
  let two_faced =
    let low = encode lo and high = encode hi in
    Adversary.make ~name:"two-faced" (fun view ~sender:_ ~recipient ->
        Some (if recipient < view.Adversary.n / 2 then low else high))
  in
  let aa =
    Sim.run ~n ~t ~corrupt ~adversary:two_faced (fun ctx ->
        Proto.run
          (Baseline.Approx_agreement.run ctx ~bits ~rounds:3
             (Bigint.to_bitstring_fixed ~bits inputs.(ctx.Ctx.me))))
  in
  let aa_outputs = List.map Bigint.of_bitstring (Sim.honest_outputs ~corrupt aa) in
  let aa_lo = List.fold_left Bigint.min (List.hd aa_outputs) aa_outputs in
  let aa_hi = List.fold_left Bigint.max (List.hd aa_outputs) aa_outputs in
  let residual = Bigint.sub aa_hi aa_lo in
  Printf.printf "\nApproximate Agreement (3 iterations):\n";
  Printf.printf "  residual disagreement: %s ns%s\n" (Bigint.to_string residual)
    (if Bigint.is_zero residual then " (this run; unguaranteed)"
     else "  -> validators hold different stamps: no total order");
  Printf.printf "  in honest range:       %b\n"
    (List.for_all (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o) aa_outputs);
  Printf.printf "  communication:         %d honest bits\n"
    aa.Sim.metrics.Metrics.honest_bits;

  (* Convex agreement: exact. *)
  let ca =
    Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  let ca_outputs = Sim.honest_outputs ~corrupt ca in
  let stamp = List.hd ca_outputs in
  let exact = List.for_all (Bigint.equal stamp) ca_outputs in
  let in_range =
    List.for_all (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o) ca_outputs
  in
  Printf.printf "\nConvex Agreement (Pi_Z):\n";
  Printf.printf "  agreed block time:     %s ns\n" (Bigint.to_string stamp);
  Printf.printf "  exact agreement:       %b\n" exact;
  Printf.printf "  in honest range:       %b  -> byzantine +1h clocks ignored\n" in_range;
  Printf.printf "  communication:         %d honest bits over %d rounds\n"
    ca.Sim.metrics.Metrics.honest_bits ca.Sim.metrics.Metrics.rounds;
  if not (exact && in_range) then exit 1
