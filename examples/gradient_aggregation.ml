(* Byzantine-robust gradient aggregation for distributed learning — the
   machine-learning application line of the paper's introduction [4, 18, 48].

   n workers compute a local gradient; up to t are byzantine and poison
   their submission with huge values to steer the model. Averaging is
   defenseless: one poisoned coordinate drags the mean arbitrarily far.
   Running Convex Agreement per coordinate yields a common aggregate whose
   every coordinate lies within the honest gradients' range — i.e. inside
   their bounding box. (Full multidimensional convex-hull validity is the
   stronger primitive of Vaidya–Garg [50] / Mendes–Herlihy [37], outside
   this paper's 1-D scope; per-coordinate range validity is what
   coordinate-wise trimmed aggregation rules aim for.)

   Gradients use 6 decimal digits of fixed-point precision — the paper's
   "rationals with pre-defined precision" interpretation.

   Run with: dune exec examples/gradient_aggregation.exe *)

open Net
module Fp = Convex.Fixed_point

let n = 7
let t = 2
let dims = 6
let decimals = 6

(* Per-coordinate CA via the library's vector API (box validity — see
   Convex.Vector's documentation), at fixed-point precision. *)
let agree_vector ctx (gradient : Fp.t array) =
  Proto.map
    (Convex.agree_vector ctx (Array.map Fp.units gradient))
    (Array.map (Fp.of_units ~decimals))

let () =
  let rng = Prng.create 2718 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Honest workers: gradients near a common descent direction, with noise.
     Byzantine workers: gradient poisoning, +-10^6 per coordinate. *)
  let direction = [| -0.82; 0.13; 0.44; -0.07; 0.99; -0.31 |] in
  let gradients =
    Array.init n (fun w ->
        Array.init dims (fun d ->
            if corrupt.(w) then
              Fp.of_string ~decimals (if (w + d) mod 2 = 0 then "1000000" else "-1000000")
            else begin
              let noise = float_of_int (Prng.int rng 2001 - 1000) /. 1_000_000. in
              Fp.of_string ~decimals (Printf.sprintf "%.6f" (direction.(d) +. noise))
            end))
  in
  Printf.printf "worker gradients (dim 0 .. %d):\n" (dims - 1);
  Array.iteri
    (fun w g ->
      Printf.printf "  w%d%s: %s\n" w
        (if corrupt.(w) then " (byz)" else "      ")
        (String.concat "  " (Array.to_list (Array.map Fp.to_string g))))
    gradients;

  (* Naive mean — what undefended federated averaging would compute. *)
  let mean d =
    let sum =
      Array.fold_left
        (fun acc g -> Bigint.add acc (Fp.units g.(d)))
        Bigint.zero gradients
    in
    Fp.of_units ~decimals (Bigint.div sum (Bigint.of_int n))
  in
  Printf.printf "\nnaive mean (poisoned):      %s\n"
    (String.concat "  " (List.init dims (fun d -> Fp.to_string (mean d))));

  (* Convex Agreement per coordinate. *)
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:3) (fun ctx ->
        Proto.run (agree_vector ctx gradients.(ctx.Ctx.me)))
  in
  let outputs = Sim.honest_outputs ~corrupt outcome in
  let agreed = List.hd outputs in
  Printf.printf "agreed gradient (CA):       %s\n"
    (String.concat "  " (Array.to_list (Array.map Fp.to_string agreed)));

  (* Checks. *)
  let all_same =
    List.for_all (fun o -> Array.for_all2 Fp.equal o agreed) outputs
  in
  let honest_coord d =
    List.filteri (fun w _ -> not corrupt.(w)) (Array.to_list gradients)
    |> List.map (fun g -> g.(d))
  in
  let in_box =
    List.init dims (fun d -> Fp.in_convex_hull ~inputs:(honest_coord d) agreed.(d))
    |> List.for_all Fun.id
  in
  Printf.printf "\nall workers agree:            %b\n" all_same;
  Printf.printf "inside honest bounding box:   %b\n" in_box;
  Printf.printf "poisoning deflected:          %b (every coordinate within honest noise band)\n"
    (Array.for_all
       (fun c ->
         Bigint.compare (Bigint.abs (Fp.units c)) (Bigint.of_int 2_000_000) < 0)
       agreed);
  Printf.printf "communication:                %d honest bits over %d rounds (%d dims)\n"
    outcome.Sim.metrics.Metrics.honest_bits outcome.Sim.metrics.Metrics.rounds dims;
  if not (all_same && in_box) then exit 1
