(* The Pi_BA seam's invisibility contract: functorizing the Pi_Z stack over
   Ba.Substrate.S must not move a single bit of the default path. The pinned
   constants below were measured on the pre-refactor hard-wired stack (CLI
   scenarios of this repository, commit 3e9ad4c) — output value, honest and
   byzantine bit counts and round count under the equivocating adversary.
   The bit counts were re-measured when Pi_BA's phase king began sending
   back-references instead of repeated values. The bit and round counts
   were re-taken when FINDPREFIX began agreeing on windows of at most
   kappa bits with Pi_BA+ itself, which skips Pi_lBA+'s two distribution rounds
   after each such non-⊥ call (A: 186 → 180 rounds, B: 159 → 157); the
   outputs are the original pins. B's bit counts were re-taken when
   HIGHCOSTCA's king phases began to send back-references (honest 28 608 →
   21 632, byzantine 8 448 → 6 528: its block-size agreement; A runs the
   short regime, which has no HIGHCOSTCA). Both the
   [include Make (Unauthenticated)] default and an explicit
   [Ca_int.Make (Ba.Substrate.Unauthenticated)] instantiation must reproduce
   them exactly.

   Also here: the CLI contract for the seam's surface — unknown --ba
   backends (and unknown engine --backend names) exit 2 with a usage
   message. *)

open Net

type pinned = {
  p_output : string;
  p_honest_bits : int;
  p_byz_bits : int;
  p_rounds : int;
}

(* ca_cli's exact wiring: same PRNG construction, workload parameters,
   corrupt-set placement, input attack and adversary seeding. *)
let run_cli_scenario ~n ~t ~workload ~attack ~seed run =
  let rng = Prng.create seed in
  let gen =
    match workload with
    | `Sensors -> fun () -> Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2
    | `Prices ->
        fun () -> Workload.price_feed rng ~n ~base:"2931" ~decimals:18 ~spread_ppm:200
  in
  let adversary = Adversary.equivocate ~seed in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Workload.apply_input_attack attack ~corrupt (gen ()) in
  Workload.run_int ~n ~t ~corrupt ~adversary ~inputs run

let check_pinned name pinned (report : Workload.report) =
  Alcotest.check Alcotest.bool (name ^ ": agreement") true report.Workload.agreement;
  Alcotest.check Alcotest.bool (name ^ ": convex validity") true
    report.Workload.convex_validity;
  (match report.Workload.outputs with
  | o :: _ ->
      Alcotest.check Alcotest.string (name ^ ": output")
        pinned.p_output (Bigint.to_string o)
  | [] -> Alcotest.fail (name ^ ": no honest outputs"));
  Alcotest.check Alcotest.int (name ^ ": honest bits") pinned.p_honest_bits
    report.Workload.honest_bits;
  Alcotest.check Alcotest.int (name ^ ": byzantine bits") pinned.p_byz_bits
    report.Workload.byz_bits;
  Alcotest.check Alcotest.int (name ^ ": rounds") pinned.p_rounds
    report.Workload.rounds

(* The explicit functor instantiation over the unauthenticated substrate —
   the seam path the [include] default must be literally identical to. *)
module CA_explicit = Convex.Ca_int.Make (Ba.Substrate.Unauthenticated)

let scenario_a =
  ( (fun run -> run_cli_scenario ~n:7 ~t:2 ~workload:`Sensors
        ~attack:Workload.Outlier_high ~seed:11 run),
    {
      p_output = "-1004";
      p_honest_bits = 37584;
      p_byz_bits = 16944;
      p_rounds = 180;
    } )

let scenario_b =
  ( (fun run -> run_cli_scenario ~n:5 ~t:1 ~workload:`Prices
        ~attack:Workload.Split_extremes ~seed:3 run),
    {
      p_output = "2931199342671478915071";
      p_honest_bits = 21632;
      p_byz_bits = 6528;
      p_rounds = 157;
    } )

let test_default_path_pinned () =
  List.iter
    (fun (name, (run_scn, pinned)) ->
      check_pinned (name ^ "/default") pinned (run_scn Workload.pi_z.Workload.run))
    [ ("A", scenario_a); ("B", scenario_b) ]

let test_explicit_functor_pinned () =
  List.iter
    (fun (name, (run_scn, pinned)) ->
      check_pinned (name ^ "/Make(Unauthenticated)") pinned (run_scn CA_explicit.run))
    [ ("A", scenario_a); ("B", scenario_b) ]

let test_default_equals_explicit_everywhere () =
  (* Beyond the two pinned scenarios: same outputs and metrics on a sweep of
     seeds — the two entry points are the same code, so any divergence is a
     seam regression. *)
  List.iter
    (fun seed ->
      let run_scn run =
        run_cli_scenario ~n:4 ~t:1 ~workload:`Sensors ~attack:Workload.Split_extremes
          ~seed run
      in
      let a = run_scn Workload.pi_z.Workload.run in
      let b = run_scn CA_explicit.run in
      Alcotest.check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "outputs at seed %d" seed)
        (List.map Bigint.to_string a.Workload.outputs)
        (List.map Bigint.to_string b.Workload.outputs);
      Alcotest.check Alcotest.int
        (Printf.sprintf "honest bits at seed %d" seed)
        a.Workload.honest_bits b.Workload.honest_bits;
      Alcotest.check Alcotest.int
        (Printf.sprintf "rounds at seed %d" seed)
        a.Workload.rounds b.Workload.rounds)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* CLI surface: unknown --ba backend exits 2                           *)
(* ------------------------------------------------------------------ *)

(* Resolve relative to the test binary: dune runs tests from the test build
   dir but `dune exec` runs them from the invocation dir. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ca_cli.exe"

let test_cli_unknown_ba_exits_2 () =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  let code = Sys.command (cli ^ " run --ba bogus >/dev/null 2>/dev/null") in
  Alcotest.check Alcotest.int "unknown --ba backend" 2 code;
  let code = Sys.command (cli ^ " engine --ba bogus >/dev/null 2>/dev/null") in
  Alcotest.check Alcotest.int "unknown --ba backend (engine)" 2 code;
  (* The engine's execution backends: the retired socket-thread backend is
     an unknown name like any other, and the error lists what remains. *)
  let err = Filename.temp_file "ca-seam" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s engine --backend unix >/dev/null 2>%s" cli
         (Filename.quote err))
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  Alcotest.check Alcotest.int "unknown --backend (engine)" 2 code;
  Alcotest.check Alcotest.bool "lists the available backends" true
    (let needle = "available: sim, poll" in
     let rec scan i =
       i + String.length needle <= String.length msg
       && (String.sub msg i (String.length needle) = needle || scan (i + 1))
     in
     scan 0);
  (* And the flag's happy path parses: list shows the catalogue. *)
  let code = Sys.command (cli ^ " list >/dev/null 2>/dev/null") in
  Alcotest.check Alcotest.int "list" 0 code

let suite =
  [
    Alcotest.test_case "pinned scenarios: include default" `Quick
      test_default_path_pinned;
    Alcotest.test_case "pinned scenarios: explicit Make(Unauthenticated)" `Quick
      test_explicit_functor_pinned;
    Alcotest.test_case "default = explicit functor on seed sweep" `Quick
      test_default_equals_explicit_everywhere;
    Alcotest.test_case "ca_cli: unknown --ba exits 2" `Quick
      test_cli_unknown_ba_exits_2;
  ]
