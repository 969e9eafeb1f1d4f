(* The obs span plane: the ledger-equality invariant on every backend (sim,
   engine sim/poll), canonical JSONL determinism, cross-backend export
   equality, and the convex-hull convergence probes. *)

open Net

let n = 7
let t = 2
let bits = 64

let scenario ?(attack = Workload.Outlier_high) ?(bits = bits) ~seed () =
  let rng = Prng.create seed in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
  in
  (corrupt, Workload.apply_input_attack attack ~corrupt inputs)

(* ---- ledger equality ------------------------------------------------------ *)

let test_ledger_sim () =
  let corrupt, inputs = scenario ~seed:3 () in
  let tm = Obs.create () in
  let report =
    Workload.run_int ~obs:tm ~n ~t ~corrupt
      ~adversary:(Adversary.equivocate ~seed:5)
      ~inputs Workload.pi_z.Workload.run
  in
  Alcotest.check Alcotest.int "span bits = Metrics.honest_bits"
    report.Workload.honest_bits
    (Obs.honest_bits_total tm);
  Alcotest.check Alcotest.int "per-session query agrees"
    report.Workload.honest_bits
    (Obs.honest_bits tm ~session:0);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "label_bits = Metrics.labels" report.Workload.labels
    (Obs.label_bits tm)

let test_ledger_poll_and_cross_backend () =
  let n = 4 and t = 1 in
  let inputs = Array.init n (fun i -> Bigint.of_int (70 + i)) in
  let protocol ctx = Convex.agree_int ctx inputs.(ctx.Ctx.me) in
  let corrupt = Array.make n false in
  let tm_poll = Obs.create () in
  let polled =
    match
      (Engine.run_poll ~obs:tm_poll ~n ~t ~corrupt
         [ Engine.session ~sid:0 protocol ])
        .Engine.sessions
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "one session expected"
  in
  Alcotest.check Alcotest.int "span bits = Metrics.honest_bits"
    polled.Engine.r_metrics.Metrics.honest_bits
    (Obs.honest_bits_total tm_poll);
  (* The same protocol as a one-session simulator run: both go through the
     same round loop, so the exports agree byte for byte. *)
  let tm_sim = Obs.create () in
  let outcome =
    Sim.run ~obs:tm_sim ~n ~t
      ~corrupt:(Array.make n false)
      ~adversary:Adversary.passive protocol
  in
  Alcotest.check Alcotest.int "sim ledger"
    outcome.Sim.metrics.Metrics.honest_bits
    (Obs.honest_bits_total tm_sim);
  Alcotest.check Alcotest.string "sim and poll export identical JSONL"
    (Obs.to_jsonl ~tier:Obs.Det tm_sim)
    (Obs.to_jsonl ~tier:Obs.Det tm_poll);
  Array.iteri
    (fun i o ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "party %d outputs agree" i)
        true
        (Bigint.equal (Option.get o) (Option.get outcome.Sim.outputs.(i))))
    polled.Engine.r_outputs

let test_ledger_engine_sim () =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let sessions = 4 in
  let inputs =
    Array.init sessions (fun k ->
        let rng = Prng.create (11 + k) in
        Workload.apply_input_attack Workload.Outlier_high ~corrupt
          (Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)))
  in
  (* Non-contiguous sids and staggered arrivals: the ledger must hold per
     session id, not per input slot. *)
  let specs =
    List.init sessions (fun k ->
        Engine.session ~start_round:(k * 2)
          ~adversary:(Adversary.equivocate ~seed:(50 + k))
          ~sid:(k * 3)
          (fun ctx -> Convex.agree_int ctx inputs.(k).(ctx.Ctx.me)))
  in
  let tm = Obs.create () in
  let outcome = Engine.run_sim ~obs:tm ~n ~t ~corrupt specs in
  List.iter
    (fun r ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d ledger" r.Engine.r_sid)
        r.Engine.r_metrics.Metrics.honest_bits
        (Obs.honest_bits tm ~session:r.Engine.r_sid))
    outcome.Engine.sessions;
  Alcotest.check Alcotest.int "aggregate ledger"
    outcome.Engine.aggregate.Engine.honest_bits_total
    (Obs.honest_bits_total tm);
  Alcotest.check (Alcotest.list Alcotest.int) "session ids recorded"
    [ 0; 3; 6; 9 ] (Obs.sessions tm)

let test_ledger_engine_poll () =
  let n = 4 and t = 1 in
  let sessions = 4 in
  let specs =
    List.init sessions (fun k ->
        Engine.session ~start_round:k ~sid:k (fun ctx ->
            Convex.agree_int ctx (Bigint.of_int (100 + (10 * k) + ctx.Ctx.me))))
  in
  let tm = Obs.create () in
  let outcome =
    Engine.run_poll ~obs:tm ~n ~t ~corrupt:(Array.make n false) specs
  in
  List.iter
    (fun r ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d ledger" r.Engine.r_sid)
        r.Engine.r_metrics.Metrics.honest_bits
        (Obs.honest_bits tm ~session:r.Engine.r_sid))
    outcome.Engine.sessions;
  Alcotest.check Alcotest.int "aggregate ledger"
    outcome.Engine.aggregate.Engine.honest_bits_total
    (Obs.honest_bits_total tm)

(* ---- canonical export ----------------------------------------------------- *)

let test_jsonl_deterministic () =
  let go () =
    let corrupt, inputs = scenario ~seed:9 () in
    let tm = Obs.create () in
    Obs.set_meta tm "seed" "9";
    ignore
      (Workload.run_int ~obs:tm ~n ~t ~corrupt
         ~adversary:(Adversary.equivocate ~seed:9)
         ~inputs Workload.pi_z.Workload.run);
    Obs.to_jsonl ~tier:Obs.Det tm
  in
  let a = go () and b = go () in
  Alcotest.check Alcotest.bool "two runs, byte-identical JSONL" true
    (String.equal a b);
  (* Minimal schema sanity on the canonical export: one total line, every
     line a JSON object with a "kind" key. *)
  let lines = String.split_on_char '\n' (String.trim a) in
  List.iter
    (fun l ->
      Alcotest.check Alcotest.bool "line is an object with kind" true
        (String.length l > 10
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'
        && String.sub l 0 9 = {|{"kind":"|}))
    lines;
  let totals =
    List.filter
      (fun l -> String.sub l 0 16 = {|{"kind":"total",|})
      lines
  in
  Alcotest.check Alcotest.int "exactly one total line" 1 (List.length totals)

(* ---- convergence probes --------------------------------------------------- *)

let widths curve = List.map (fun (lo, hi) -> Bigint.sub hi lo) curve

let check_monotone name curve =
  Alcotest.check Alcotest.bool (name ^ ": probe fired") true (curve <> []);
  List.iter
    (fun w ->
      Alcotest.check Alcotest.bool (name ^ ": width >= 0") true
        (Bigint.compare w Bigint.zero >= 0))
    (widths curve);
  let rec mono = function
    | a :: (b :: _ as rest) -> Bigint.compare b a <= 0 && mono rest
    | _ -> true
  in
  Alcotest.check Alcotest.bool (name ^ ": monotone non-increasing") true
    (mono (widths curve))

let convergence_of ?bits ~protocol ~adversary ~attack ~key ~seed () =
  let corrupt, inputs = scenario ~attack ?bits ~seed () in
  let tm = Obs.create () in
  ignore
    (Workload.run_int ~obs:tm ~n ~t ~corrupt ~adversary ~inputs protocol);
  (tm, Obs.convergence tm ~session:0 ~key)

let test_convergence_find_prefix () =
  (* bits = 32 < n^2 = 49: Pi_Z takes the short regime, which binary-searches
     bit windows via FINDPREFIX. *)
  let tm, honest_curve =
    convergence_of ~bits:32 ~protocol:Workload.pi_z.Workload.run
      ~adversary:Adversary.passive ~attack:Workload.Honest_inputs
      ~key:"find_prefix.v" ~seed:21 ()
  in
  check_monotone "find_prefix/honest" honest_curve;
  Alcotest.check Alcotest.bool "key listed" true
    (List.mem "find_prefix.v" (Obs.probe_keys tm ~session:0));
  let _, adv_curve =
    convergence_of ~bits:32 ~protocol:Workload.pi_z.Workload.run
      ~adversary:(Adversary.equivocate ~seed:5)
      ~attack:Workload.Outlier_high ~key:"find_prefix.v" ~seed:22 ()
  in
  check_monotone "find_prefix/equivocate" adv_curve

let test_convergence_find_prefix_blocks () =
  (* bits = 64 > n^2 = 49: Pi_Z takes the long regime, which searches over
     blocks via FINDPREFIXBLOCKS. *)
  let _, honest_curve =
    convergence_of ~protocol:Workload.pi_z.Workload.run
      ~adversary:Adversary.passive ~attack:Workload.Honest_inputs
      ~key:"find_prefix_blocks.v" ~seed:23 ()
  in
  check_monotone "find_prefix_blocks/honest" honest_curve;
  let _, adv_curve =
    convergence_of ~protocol:Workload.pi_z.Workload.run
      ~adversary:(Adversary.equivocate ~seed:6)
      ~attack:Workload.Outlier_high ~key:"find_prefix_blocks.v" ~seed:24 ()
  in
  check_monotone "find_prefix_blocks/equivocate" adv_curve

let test_convergence_high_cost_ca () =
  let protocol = (Workload.high_cost_ca ~bits).Workload.run in
  let _, honest_curve =
    convergence_of ~protocol ~adversary:Adversary.passive
      ~attack:Workload.Honest_inputs ~key:"high_cost_ca.current" ~seed:31 ()
  in
  check_monotone "high_cost_ca/honest" honest_curve;
  (* The terminal probe fires on exit: honest estimates have converged. *)
  (match List.rev honest_curve with
  | (lo, hi) :: _ ->
      Alcotest.check Alcotest.bool "agreement at exit" true (Bigint.equal lo hi)
  | [] -> ());
  let _, adv_curve =
    convergence_of ~protocol
      ~adversary:(Adversary.equivocate ~seed:5)
      ~attack:Workload.Outlier_high ~key:"high_cost_ca.current" ~seed:32 ()
  in
  check_monotone "high_cost_ca/equivocate" adv_curve

let suite =
  [
    Alcotest.test_case "ledger: sim" `Quick test_ledger_sim;
    Alcotest.test_case "ledger: poll + cross-backend JSONL" `Quick
      test_ledger_poll_and_cross_backend;
    Alcotest.test_case "ledger: engine sim (K=4)" `Quick test_ledger_engine_sim;
    Alcotest.test_case "ledger: engine poll (K=4)" `Quick
      test_ledger_engine_poll;
    Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
    Alcotest.test_case "convergence: find_prefix" `Quick
      test_convergence_find_prefix;
    Alcotest.test_case "convergence: find_prefix_blocks" `Quick
      test_convergence_find_prefix_blocks;
    Alcotest.test_case "convergence: high_cost_ca" `Quick
      test_convergence_high_cost_ca;
  ]
