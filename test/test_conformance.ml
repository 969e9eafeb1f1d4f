(* Conformance grid: every CA protocol × every workload family × every
   adversary (generic and protocol-aware) × every input attack must satisfy
   Definition 1 — Termination, Agreement, Convex Validity. One systematic
   sweep instead of per-protocol copies; failures name the exact cell. *)

open Net

let n = 7
let t = 2
let bits = 32

let protocols : Workload.protocol list =
  [
    Workload.pi_z;
    Workload.high_cost_ca ~bits;
    Workload.broadcast_ca ~bits;
  ]

let workloads =
  [
    ( "sensors",
      fun seed ->
        Workload.sensor_readings (Prng.create seed) ~n ~base:(-1004) ~jitter:2 );
    ( "prices",
      fun seed ->
        Workload.price_feed (Prng.create seed) ~n ~base:"2931" ~decimals:4
          ~spread_ppm:300 );
    ( "clustered",
      fun seed ->
        Workload.clustered_bits (Prng.create seed) ~n ~bits:28 ~shared_prefix_bits:14 );
    ("identical", fun _ -> Array.make n (Bigint.of_int 123456));
  ]

(* Every registered adversary: the generic ones from seed 5, the attacks
   from seed 6. *)
let adversaries =
  List.map
    (fun e ->
      e.Attacks.make ~seed:(if e.Attacks.byte_level then 5 else 6)
        ~payload:(Sha256.digest "grid"))
    Attacks.registry

let input_attacks = [ Workload.Honest_inputs; Workload.Outlier_high ]

(* The fixed-width comparators clamp magnitudes, so negative workloads only
   make sense for Pi_Z; restrict the others to non-negative families. *)
let compatible (p : Workload.protocol) wname =
  String.equal p.Workload.proto_name Workload.pi_z.Workload.proto_name
  || not (String.equal wname "sensors")

let test_grid () =
  let cells = ref 0 in
  List.iter
    (fun (p : Workload.protocol) ->
      List.iter
        (fun (wname, gen) ->
          if compatible p wname then
            List.iteri
              (fun i adversary ->
                List.iter
                  (fun attack ->
                    incr cells;
                    let corrupt = Workload.spread_corrupt ~n ~t in
                    let inputs =
                      Workload.apply_input_attack attack ~corrupt (gen (100 + i))
                    in
                    let cell =
                      Printf.sprintf "%s / %s / %s / %s" p.Workload.proto_name wname
                        adversary.Adversary.name
                        (Workload.input_attack_name attack)
                    in
                    match
                      Workload.run_int ~n ~t ~corrupt ~adversary ~inputs
                        p.Workload.run
                    with
                    | report ->
                        Alcotest.check Alcotest.bool (cell ^ ": agreement") true
                          report.Workload.agreement;
                        Alcotest.check Alcotest.bool (cell ^ ": convex validity") true
                          report.Workload.convex_validity
                    | exception e ->
                        Alcotest.failf "%s: raised %s" cell (Printexc.to_string e))
                  input_attacks)
              adversaries)
        workloads)
    protocols;
  (* The grid should be substantial — guard against silent shrinkage. *)
  Alcotest.check Alcotest.bool "grid size" true (!cells >= 300)

let suite = [ Alcotest.test_case "Definition 1 grid" `Slow test_grid ]
