(* The numerical toolbox behind the bench claims fits (bench/main.ml). *)

let feq = Alcotest.float 1e-9
let feq_loose = Alcotest.float 1e-6

let test_mean_stddev () =
  Alcotest.check feq "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.check feq "stddev singleton" 0. (Stats.stddev [ 7. ]);
  Alcotest.check feq_loose "stddev" (sqrt 1.25) (Stats.stddev [ 1.; 2.; 3.; 4. ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []))

let test_pearson () =
  Alcotest.check feq_loose "perfect" 1. (Stats.pearson [ 1.; 2.; 3. ] [ 2.; 4.; 6. ]);
  Alcotest.check feq_loose "anti" (-1.) (Stats.pearson [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]);
  Alcotest.check feq "constant" 0. (Stats.pearson [ 1.; 2.; 3. ] [ 5.; 5.; 5. ]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Stats.pearson: lengths") (fun () ->
      ignore (Stats.pearson [ 1. ] [ 1.; 2. ]))

let test_least_squares_exact () =
  (* y = 3 + 2x fits exactly. *)
  let rows = List.map (fun x -> [| 1.; float_of_int x |]) [ 0; 1; 2; 3; 4 ] in
  let y = List.map (fun x -> 3. +. (2. *. float_of_int x)) [ 0; 1; 2; 3; 4 ] in
  let fit = Stats.least_squares ~rows ~y in
  Alcotest.check feq_loose "intercept" 3. fit.Stats.coefficients.(0);
  Alcotest.check feq_loose "slope" 2. fit.Stats.coefficients.(1);
  Alcotest.check feq_loose "r2" 1. fit.Stats.r_square

let test_least_squares_noisy () =
  (* y = 10 + 5x + noise: coefficients near truth, r2 < 1. *)
  let noise = [ 0.3; -0.2; 0.1; -0.4; 0.25; 0.0 ] in
  let xs = [ 0.; 1.; 2.; 3.; 4.; 5. ] in
  let rows = List.map (fun x -> [| 1.; x |]) xs in
  let y = List.map2 (fun x e -> 10. +. (5. *. x) +. e) xs noise in
  let fit = Stats.least_squares ~rows ~y in
  Alcotest.check Alcotest.bool "slope near 5" true
    (abs_float (fit.Stats.coefficients.(1) -. 5.) < 0.2);
  Alcotest.check Alcotest.bool "good but imperfect fit" true
    (fit.Stats.r_square > 0.99 && fit.Stats.r_square < 1.)

let test_least_squares_two_predictors () =
  (* y = 1*a + 2*b recovered from a 3-predictor model with a zero column
     coefficient... keep it two predictors, no intercept. *)
  let points = [ (1., 0.); (0., 1.); (1., 1.); (2., 1.); (1., 3.) ] in
  let rows = List.map (fun (a, b) -> [| a; b |]) points in
  let y = List.map (fun (a, b) -> a +. (2. *. b)) points in
  let fit = Stats.least_squares ~rows ~y in
  Alcotest.check feq_loose "coef a" 1. fit.Stats.coefficients.(0);
  Alcotest.check feq_loose "coef b" 2. fit.Stats.coefficients.(1)

let test_least_squares_errors () =
  Alcotest.check_raises "no rows" (Invalid_argument "Stats.least_squares: no rows")
    (fun () -> ignore (Stats.least_squares ~rows:[] ~y:[]));
  Alcotest.check_raises "shape" (Invalid_argument "Stats.least_squares: shapes")
    (fun () -> ignore (Stats.least_squares ~rows:[ [| 1. |] ] ~y:[ 1.; 2. ]));
  (* Duplicate column: singular normal equations. *)
  Alcotest.check_raises "singular" (Invalid_argument "Stats.least_squares: singular system")
    (fun () ->
      ignore
        (Stats.least_squares
           ~rows:[ [| 1.; 1. |]; [| 2.; 2. |]; [| 3.; 3. |] ]
           ~y:[ 1.; 2.; 3. ]))

let prop_fit_recovers_line =
  QCheck.Test.make ~name:"recovers random lines" ~count:200
    QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))
    (fun (a, b) ->
      let a = float_of_int a and b = float_of_int b in
      let xs = [ -2.; 0.; 1.; 3.; 7. ] in
      let rows = List.map (fun x -> [| 1.; x |]) xs in
      let y = List.map (fun x -> a +. (b *. x)) xs in
      let fit = Stats.least_squares ~rows ~y in
      abs_float (fit.Stats.coefficients.(0) -. a) < 1e-6
      && abs_float (fit.Stats.coefficients.(1) -. b) < 1e-6)

let suite =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
    Alcotest.test_case "least squares noisy" `Quick test_least_squares_noisy;
    Alcotest.test_case "two predictors" `Quick test_least_squares_two_predictors;
    Alcotest.test_case "error handling" `Quick test_least_squares_errors;
    QCheck_alcotest.to_alcotest prop_fit_recovers_line;
  ]
