(* Quickstart: seven temperature sensors in a cooling room, two of them
   byzantine, agree on a reading.

   This is the paper's motivating example: honest sensors measure between
   -10.05 and -10.03 °C; the corrupted sensors report +100 °C. Plain BA may
   adopt the byzantine value — Convex Agreement cannot: the output provably
   lies within the honest readings' range.

   Run with: dune exec examples/quickstart.exe *)

open Net

let () =
  let n = 7 and t = 2 in
  let rng = Prng.create 42 in

  (* Honest readings in centi-degrees around -10.04 C. *)
  let inputs = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:1 in

  (* Corrupt the last two sensors; they report +100.00 C ... *)
  let corrupt = Array.init n (fun i -> i >= n - t) in
  let inputs =
    Array.mapi (fun i v -> if corrupt.(i) then Bigint.of_int 10000 else v) inputs
  in

  (* ... and additionally equivocate on the wire. *)
  let adversary = Adversary.equivocate ~seed:7 in

  Printf.printf "sensor inputs (centi-degrees):\n";
  Array.iteri
    (fun i v ->
      Printf.printf "  sensor %d: %8s%s\n" i (Bigint.to_string v)
        (if corrupt.(i) then "   <- byzantine" else ""))
    inputs;

  (* Run Π_Z: each party joins the protocol with its own reading. *)
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in

  let outputs = Sim.honest_outputs ~corrupt outcome in
  Printf.printf "\nhonest outputs: %s\n"
    (String.concat ", " (List.map Bigint.to_string outputs));

  let honest_inputs = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs) in
  let agreement =
    match outputs with o :: r -> List.for_all (Bigint.equal o) r | [] -> false
  in
  let validity =
    List.for_all (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o) outputs
  in
  Printf.printf "agreement:        %b\n" agreement;
  Printf.printf "convex validity:  %b (output within [-10.05, -10.03] C)\n" validity;
  Printf.printf "communication:    %d honest bits over %d rounds\n"
    outcome.Sim.metrics.Metrics.honest_bits outcome.Sim.metrics.Metrics.rounds;
  if not (agreement && validity) then exit 1
