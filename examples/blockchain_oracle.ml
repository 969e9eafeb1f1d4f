(* Blockchain price oracle: n oracle nodes observe an asset price off-chain
   and must post one agreed value on-chain. Prices are high-precision
   fixed-point numbers (18 decimals, ~90 bits) — and because oracle
   committees are re-staked across many feeds, the values to agree on are
   often concatenated batches, i.e. genuinely long inputs: exactly the regime
   where this paper's O(ℓn) protocol pays off.

   The example runs a single feed and a 64-feed batch, reports the
   communication of Π_Z against the broadcast-everything baseline, and prints
   the per-component cost split of the extension machinery.

   Run with: dune exec examples/blockchain_oracle.exe *)

open Net

let n = 7
let t = 2

let run_feed ~name ~inputs ~bits_for_baseline =
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Byzantine oracles try to push the posted price up. *)
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt inputs in
  let adversary = Adversary.equivocate ~seed:5 in
  let ours =
    Workload.run_int ~n ~t ~corrupt ~adversary ~inputs Workload.pi_z.Workload.run
  in
  let baseline_proto = Workload.broadcast_ca ~bits:bits_for_baseline in
  let baseline =
    Workload.run_int ~n ~t ~corrupt ~adversary ~inputs baseline_proto.Workload.run
  in
  Printf.printf "%s\n" name;
  Printf.printf "  agreed price:          %s (agreement=%b, convex validity=%b)\n"
    (match ours.Workload.outputs with o :: _ -> Bigint.to_string o | [] -> "-")
    ours.Workload.agreement ours.Workload.convex_validity;
  Printf.printf "  Pi_Z communication:    %9d honest bits, %4d rounds\n"
    ours.Workload.honest_bits ours.Workload.rounds;
  let ratio =
    float_of_int baseline.Workload.honest_bits /. float_of_int ours.Workload.honest_bits
  in
  Printf.printf "  Broadcast-CA baseline: %9d honest bits, %4d rounds\n"
    baseline.Workload.honest_bits baseline.Workload.rounds;
  Printf.printf "  baseline / Pi_Z:       %9.1fx %s\n" ratio
    (if ratio >= 1. then "(Pi_Z wins: above the l = Omega(k n log^2 n) crossover)"
     else "(baseline wins: value too short to amortize the extension machinery)");
  if not (ours.Workload.agreement && ours.Workload.convex_validity) then exit 1;
  ours

let () =
  let rng = Prng.create 7 in

  (* Single ETH/USD-style observation: ~2931.5 USD with 18 decimals. *)
  let single =
    Workload.price_feed rng ~n ~base:"2931" ~decimals:18 ~spread_ppm:200
  in
  let _ = run_feed ~name:"single feed (ETH/USD, 18 decimals)" ~inputs:single
      ~bits_for_baseline:128
  in
  print_newline ();

  (* Batched feed: 64 prices concatenated into one ~6000-bit value. The batch
     is ordered, so nearby observations agree on a long common prefix. *)
  let batch =
    let base = Workload.price_feed rng ~n:1 ~base:"2931" ~decimals:18 ~spread_ppm:0 in
    Array.init n (fun i ->
        let noise = Bigint.of_int (Prng.int rng 1000 + i) in
        let rec build acc k =
          if k = 0 then acc
          else build (Bigint.add (Bigint.shift_left acc 93) (Bigint.add base.(0) noise)) (k - 1)
        in
        build Bigint.one 64)
  in
  let report =
    run_feed ~name:"batched feed (64 prices, ~6000-bit value)" ~inputs:batch
      ~bits_for_baseline:6200
  in
  Printf.printf "\n  Pi_Z per-component honest bits (batched feed):\n";
  List.iter
    (fun (label, bits) -> Printf.printf "    %-20s %9d\n" label bits)
    report.Workload.labels
