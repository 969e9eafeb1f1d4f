(* Sensor network: why Convex Agreement instead of plain Byzantine Agreement.

   A network of n sensors reports a cooling-room temperature. We run the same
   readings through (a) plain multivalued BA (Turpin-Coan) and (b) this
   paper's Π_Z, across a grid of adversary strategies and byzantine input
   attacks, and check which executions keep the output inside the honest
   readings' range.

   Plain BA only promises a common output — when honest readings differ even
   slightly (as real sensors always do), a byzantine value can win. Convex
   Agreement structurally excludes that.

   Run with: dune exec examples/sensor_network.exe *)

open Net

let n = 10
let t = 3

(* Sensors measure centi-degrees; encode as an offset binary value so the
   plain-BA comparator (which runs on fixed-width naturals) handles the
   negative readings too. *)
let offset = 1_000_000
let bits = 24

let encode_reading v = Bigint.of_int (Bigint.to_int_opt v |> Option.get |> ( + ) offset)
let decode_reading v = Bigint.sub v (Bigint.of_int offset)

let run_case ~attack ~adversary ~(protocol : Workload.protocol) rng_seed =
  let rng = Prng.create rng_seed in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let honest_readings = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
  (* Byzantine sensors report +100.00 C (or worse, per attack). *)
  (* The +100C comparison runs both protocols, so readings are offset-encoded
     into fixed-width naturals; the generic input attacks (huge magnitudes,
     both signs) exercise Π_Z directly on ℤ. *)
  let readings, inputs =
    match attack with
    | `Plus100 ->
        let readings =
          Array.mapi
            (fun i v -> if corrupt.(i) then Bigint.of_int 10_000 else v)
            honest_readings
        in
        (readings, Array.map encode_reading readings)
    | `Workload wl ->
        let readings = Workload.apply_input_attack wl ~corrupt honest_readings in
        (readings, readings)
  in
  let report =
    Workload.run_int ~n ~t ~corrupt ~adversary ~inputs protocol.Workload.run
  in
  let decode = match attack with `Plus100 -> decode_reading | `Workload _ -> Fun.id in
  let outputs = List.map decode report.Workload.outputs in
  let honest_inputs =
    List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list readings)
  in
  let valid =
    List.for_all (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o) outputs
  in
  (report.Workload.agreement, valid, outputs)

let () =
  (* The byzantine payload: +100.00 C, encoded exactly as the phase-king BA
     wire format expects, injected by a corrupted first-phase king. *)
  let evil_payload =
    Bitstring.to_bytes (Bigint.to_bitstring_fixed ~bits (encode_reading (Bigint.of_int 10_000)))
  in
  let protocols =
    [
      Workload.phase_king_ba ~bits;
      Workload.turpin_coan_ba ~bits;
      Workload.pi_z;
    ]
  in
  let adversaries =
    [
      Adversary.passive;
      Workload.king_injector ~payload:evil_payload;
      Adversary.equivocate ~seed:3;
      Adversary.garbage ~seed:4;
      Adversary.crash ~after:5;
    ]
  in
  Printf.printf
    "%-40s %-12s %-6s %-6s %s\n" "protocol" "adversary" "agree" "valid" "sample output (centi-deg)";
  print_endline (String.make 100 '-');
  let ba_violations = ref 0 in
  List.iter
    (fun (protocol : Workload.protocol) ->
      List.iter
        (fun adversary ->
          let agree, valid, outputs =
            run_case ~attack:`Plus100 ~adversary ~protocol 2024
          in
          if
            (not protocol.Workload.solves_ca)
            && List.exists (Bigint.equal (Bigint.of_int 10_000)) outputs
          then incr ba_violations;
          Printf.printf "%-40s %-12s %-6b %-6b %s\n" protocol.Workload.proto_name
            adversary.Adversary.name agree valid
            (match outputs with o :: _ -> Bigint.to_string o | [] -> "-");
          (* Plain BA is expected to leave the honest range; Pi_Z never. *)
          if protocol.Workload.solves_ca && not (agree && valid) then exit 1)
        adversaries)
    protocols;
  print_endline (String.make 100 '-');
  Printf.printf
    "\nPlain BA keeps agreement, but the +100C byzantine reading won outright in %d\n\
     case(s) (and every BA run left the honest range); Pi_Z (Convex Agreement)\n\
     stays inside the honest readings' range in every execution.\n"
    !ba_violations;

  (* Also sweep the generic input attacks against Pi_Z only. *)
  print_newline ();
  Printf.printf "Pi_Z under byzantine input attacks (all must be valid):\n";
  List.iter
    (fun wl ->
      List.iter
        (fun adversary ->
          let agree, valid, _ =
            run_case ~attack:(`Workload wl) ~adversary ~protocol:Workload.pi_z 99
          in
          Printf.printf "  %-16s vs %-12s agree=%b valid=%b\n"
            (Workload.input_attack_name wl) adversary.Adversary.name agree valid;
          if not (agree && valid) then exit 1)
        adversaries)
    [ Workload.Honest_inputs; Workload.Outlier_high; Workload.Outlier_low;
      Workload.Split_extremes ]
