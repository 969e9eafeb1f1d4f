(* Benchmark harness: regenerates every experiment table and figure defined
   in DESIGN.md / EXPERIMENTS.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- t1 f1        -- run a subset
     dune exec bench/main.exe -- --domains 4  -- fan cells over 4 domains

   The paper (a brief announcement) has no empirical section; the experiments
   measure exactly what its theorems claim: communication complexity (honest
   bits), round complexity, resilience, and the properties of the new
   primitives. Absolute numbers are simulator-specific; the shapes — who
   wins, by what factor, where the crossover sits — are the reproduction
   target (see EXPERIMENTS.md). *)

open Net

let line = String.make 104 '-'

(* --smoke: the experiments that take seconds to minutes at full size
   (auth, adaptive, engine, substrate, obs, parallel) run at reduced
   parameters; the paper tables and the claims fits take under a second
   each and run at full size, so their Exact gates read the real rows.
   Wired into `make check` so the bench harness cannot rot; smoke runs hold
   each ledger to its Exact gates but never write it, so committed
   BENCH_*.json files are never clobbered. *)
let smoke = ref false

(* --domains N: fan independent experiment cells (t1, t4, parallel) out over
   the shared domain pool. Defaults to the hardware parallelism bound; the
   per-cell results are bit-identical for any value (Workload.run_cells). *)
let domains = ref 1

let write_json ~path ~meta ~rows = Bench_json.write ~smoke:!smoke ~path ~meta ~rows

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n" line title line;
  Printf.printf "%s\n\n" claim

let kbits b = Printf.sprintf "%.1f" (float_of_int b /. 1000.)

(* The timed rows draw 5 times and report the median, so one slow or fast
   draw on a busy host does not become the row. *)
let draws = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Definition 1 over fixed-width outputs: every honest party output the same
   value, and it lies between the lowest and highest honest input. *)
let fixed_width_ca ~corrupt ~inputs outputs =
  let honest = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs) in
  let sorted = List.sort Bitstring.compare honest in
  let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
  (match outputs with o :: r -> List.for_all (Bitstring.equal o) r | [] -> false)
  && List.for_all
       (fun o -> Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0)
       outputs

(* Standard workload: clustered ℓ-bit naturals (half the bits shared), t
   byzantine parties holding outlier inputs and equivocating on the wire. *)
let standard_inputs ~seed ~n ~bits =
  let rng = Prng.create seed in
  Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)

let run_protocol ?(adversary_seed = 5) ~seed ~n ~t ~bits (p : Workload.protocol) =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = standard_inputs ~seed ~n ~bits in
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt inputs in
  let adversary = Adversary.equivocate ~seed:adversary_seed in
  Workload.run_int ~n ~t ~corrupt ~adversary ~inputs p.Workload.run

let comparators ~bits =
  [
    Workload.pi_z;
    Workload.turpin_coan_ba ~bits;
    Workload.high_cost_ca ~bits;
    Workload.broadcast_ca ~bits;
  ]

(* ------------------------------------------------------------------ *)
(* T1: honest bits vs input length ℓ (n fixed)                         *)
(* ------------------------------------------------------------------ *)

let t1 () =
  let n = 13 and t = 4 in
  header "T1  --  communication vs input length  (n = 13, t = 4)"
    "Claim (Thm 5 / Cor 2): BITS(Pi_Z) = O(l*n + k*n^2*log^2 n); prior approaches are\n\
     Omega(l*n^2) (Turpin-Coan BA — which is not even CA), O(l*n^3) (HighCostCA) or\n\
     O(l*n^4) at t ~ n/3 (Broadcast-CA). Expect Pi_Z's kbits column to grow ~linearly\n\
     in l and win for large l.";
  Printf.printf "%-8s | %18s | %18s | %18s | %18s\n" "l (bits)"
    "Pi_Z kbits" "TC-BA kbits" "HighCostCA kbits" "Broadcast-CA kbits";
  print_endline line;
  let lgs = [ 9; 10; 11; 12; 13; 14; 15; 16; 17 ] in
  (* Each (l, protocol) grid point is an independent cell — the whole grid
     fans out over the domain pool. run_protocol constructs its adversary and
     PRNGs inside the thunk, so cells are self-contained. *)
  let grid =
    List.concat_map
      (fun lg ->
        let bits = 1 lsl lg in
        let point name p =
          Workload.cell ~label:(Printf.sprintf "2^%d/%s" lg name) (fun () ->
              let r = run_protocol ~seed:(100 + lg) ~n ~t ~bits p in
              assert (r.Workload.agreement);
              r.Workload.honest_bits)
        in
        (* The cubic baselines get prohibitively slow past 2^15; their trend
           is already unambiguous (skipped cells marked "-"). *)
        [ point "pi_z" Workload.pi_z; point "tc" (Workload.turpin_coan_ba ~bits) ]
        @ (if lg <= 15 then
             [
               point "hc" (Workload.high_cost_ca ~bits);
               point "bc" (Workload.broadcast_ca ~bits);
             ]
           else []))
      lgs
  in
  let results = Workload.run_cells ~domains:!domains grid in
  let json_rows = ref [] in
  List.iter
    (fun lg ->
      let get name = List.assoc (Printf.sprintf "2^%d/%s" lg name) results in
      let get_opt name =
        List.assoc_opt (Printf.sprintf "2^%d/%s" lg name) results
      in
      let ours = get "pi_z" and tc = get "tc" in
      let hc = get_opt "hc" and bc = get_opt "bc" in
      let cell = function Some b -> kbits b | None -> "-" in
      Printf.printf "2^%-6d | %18s | %18s | %18s | %18s\n" lg (kbits ours)
        (kbits tc) (cell hc) (cell bc);
      let opt = function Some b -> Bench_json.Int b | None -> Bench_json.Null in
      json_rows :=
        [
          ("log2_bits", Bench_json.Int lg);
          ("pi_z_bits", Bench_json.Int ours);
          ("tc_ba_bits", Bench_json.Int tc);
          ("high_cost_ca_bits", opt hc);
          ("broadcast_ca_bits", opt bc);
        ]
        :: !json_rows)
    lgs;
  write_json ~path:"BENCH_t1.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "t1");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
      ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(per-l normalized: divide a column by l*n to see the leading coefficient flatten\n\
     for Pi_Z and grow for the baselines.)\n"

(* ------------------------------------------------------------------ *)
(* T2: honest bits vs n (ℓ fixed)                                      *)
(* ------------------------------------------------------------------ *)

let t2 () =
  let bits = 1 lsl 13 in
  header "T2  --  communication vs number of parties  (l = 2^13)"
    "Claim: for fixed large l, the l-dependent term of Pi_Z grows linearly in n while\n\
     the baselines grow at least quadratically (TC-BA) / cubically (the others).";
  Printf.printf "%-10s | %18s | %18s | %18s | %18s\n" "n (t)"
    "Pi_Z kbits" "TC-BA kbits" "HighCostCA kbits" "Broadcast-CA kbits";
  print_endline line;
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let row =
        List.map
          (fun p ->
            let r = run_protocol ~seed:(200 + n) ~n ~t ~bits p in
            assert (r.Workload.agreement);
            r.Workload.honest_bits)
          (comparators ~bits)
      in
      match row with
      | [ ours; tc; hc; bc ] ->
          Printf.printf "%-4d (%d)   | %18s | %18s | %18s | %18s\n" n t (kbits ours)
            (kbits tc) (kbits hc) (kbits bc)
      | _ -> assert false)
    [ 4; 7; 10; 13; 16; 19 ]

(* ------------------------------------------------------------------ *)
(* F1: crossover figure                                                *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1  --  crossover: baseline bits / Pi_Z bits as l grows"
    "Claim: Pi_Z's advantage appears once l = Omega(k * n * log^2 n) amortizes the\n\
     additive extension cost. Ratios > 1.0 mean Pi_Z wins. The crossover point\n\
     (first l with ratio >= 1) should move right as n grows.";
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      Printf.printf "\n  n = %d (t = %d):\n" n t;
      Printf.printf "  %-8s | %14s | %20s | %14s\n" "l (bits)" "TC-BA / Pi_Z"
        "Broadcast-CA / Pi_Z" "Pi_Z kbits";
      Printf.printf "  %s\n" (String.make 66 '-');
      List.iter
        (fun lg ->
          let bits = 1 lsl lg in
          let measure p =
            (run_protocol ~seed:(300 + lg) ~n ~t ~bits p).Workload.honest_bits
          in
          let ours = measure Workload.pi_z in
          let tc = measure (Workload.turpin_coan_ba ~bits) in
          let r1 = float_of_int tc /. float_of_int ours in
          let bc_cell =
            if lg <= 15 then begin
              let bc = measure (Workload.broadcast_ca ~bits) in
              let r2 = float_of_int bc /. float_of_int ours in
              Printf.sprintf "%18.2fx%s" r2 (if r2 >= 1. then "*" else " ")
            end
            else Printf.sprintf "%19s" "-"
          in
          Printf.printf "  2^%-6d | %12.2fx%s | %s | %14s\n" lg r1
            (if r1 >= 1. then "*" else " ")
            bc_cell (kbits ours))
        [ 7; 9; 11; 13; 15; 17 ])
    [ 7; 13 ];
  Printf.printf "\n  (* marks the regime where Pi_Z is cheaper.)\n"

(* ------------------------------------------------------------------ *)
(* CLAIMS: the paper's bit and round shapes, fitted (C1-C5)            *)
(* ------------------------------------------------------------------ *)

(* One passive run on inputs that differ only in their last 64 bits: the
   run's structure (which search windows pre-agree) is then the same at
   every l, so an l-ladder isolates the protocol's structural l-dependence
   instead of workload noise. *)
let claims_run ~n ~bits (p : Workload.protocol) =
  let t = (n - 1) / 3 in
  let rng = Prng.create n in
  let inputs =
    Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(max 0 (bits - 64))
  in
  Workload.run_int ~n ~t ~corrupt:(Workload.spread_corrupt ~n ~t)
    ~adversary:Adversary.passive ~inputs p.Workload.run

let claims () =
  header "CLAIMS  --  the paper's bit and round shapes, fitted  (C1-C5)"
    "Claim (Thm 5 / Cor 2): BITS(Pi_Z) = O(l*n + k*n^2*log^2 n), against O(l*n^4) at\n\
     t ~ n/3 for Broadcast-CA, and ROUNDS(Pi_Z) = O(n log n). Least-squares fits of\n\
     honest bits against l = 2^11..2^15 per n, and of Pi_Z's rounds against n*log2 n\n\
     at l = 2^12; each criterion (C1-C5, the baselines' exact round counts) is a gate\n\
     in bench/ledger.ml.";
  let fit xs ys = Stats.least_squares ~rows:(List.map (fun x -> [| 1.; x |]) xs) ~y:ys in
  let ladder = List.map (fun lg -> 1 lsl lg) [ 11; 12; 13; 14; 15 ] in
  let ls = List.map float_of_int ladder in
  Printf.printf "%-12s | %-8s | %14s | %16s | %8s | %8s\n" "protocol" "n (t)"
    "slope bits/bit" "intercept kbits" "r2" "quad r2";
  print_endline line;
  let l_fit name protocol n =
    let t = (n - 1) / 3 in
    let ys =
      List.map
        (fun bits ->
          float_of_int (claims_run ~n ~bits (protocol ~bits)).Workload.honest_bits)
        ladder
    in
    let linear = fit ls ys and quad = fit (List.map (fun l -> l *. l) ls) ys in
    let slope = linear.Stats.coefficients.(1)
    and intercept = linear.Stats.coefficients.(0) in
    Printf.printf "%-12s | %-2d (%d)   | %14.1f | %16.1f | %8.4f | %8.4f\n" name n t
      slope (intercept /. 1000.) linear.Stats.r_square quad.Stats.r_square;
    [
      ("row", Bench_json.Str "l_fit");
      ("protocol", Bench_json.Str name);
      ("n", Bench_json.Int n);
      ("t", Bench_json.Int t);
      ("slope", Bench_json.Float slope);
      ("intercept", Bench_json.Float intercept);
      ("r2", Bench_json.Float linear.Stats.r_square);
      ("quad_r2", Bench_json.Float quad.Stats.r_square);
    ]
  in
  let pi_z_rows =
    List.map (l_fit "pi_z" (fun ~bits:_ -> Workload.pi_z)) Ledger.claims_pi_z_ns
  in
  let broadcast_ca_rows =
    List.map
      (l_fit "broadcast_ca" (fun ~bits -> Workload.broadcast_ca ~bits))
      Ledger.claims_broadcast_ca_ns
  in
  let bits = 1 lsl 12 in
  Printf.printf "\n%-10s | %12s | %12s | %12s | %14s\n" "n (t)" "Pi_Z" "HighCostCA"
    "TC-BA" "Pi_Z/(n lg n)";
  print_endline line;
  let n_log2_n n = n *. Stats.log2 n in
  let rounds_rows, pi_z_rounds =
    List.split
      (List.map
         (fun n ->
           let t = (n - 1) / 3 in
           let rounds p = (claims_run ~n ~bits p).Workload.rounds in
           let ours = rounds Workload.pi_z in
           let hc = rounds (Workload.high_cost_ca ~bits) in
           let tc = rounds (Workload.turpin_coan_ba ~bits) in
           Printf.printf "%-4d (%d)   | %12d | %12d | %12d | %14.2f\n" n t ours hc tc
             (float_of_int ours /. n_log2_n (float_of_int n));
           ( [
               ("row", Bench_json.Str "rounds");
               ("n", Bench_json.Int n);
               ("t", Bench_json.Int t);
               ("pi_z_rounds", Bench_json.Int ours);
               ("high_cost_ca_rounds", Bench_json.Int hc);
               ("tc_ba_rounds", Bench_json.Int tc);
             ],
             (float_of_int n, float_of_int ours) ))
         [ 4; 7; 10; 13; 16; 19 ])
  in
  let fit_rounds model =
    fit (List.map (fun (n, _) -> model n) pi_z_rounds) (List.map snd pi_z_rounds)
  in
  let nlogn = fit_rounds n_log2_n and nsq = fit_rounds (fun n -> n *. n) in
  Printf.printf "\nPi_Z rounds ~ a + b*n*log2 n: b = %.2f, r2 = %.4f  (~ a + b*n^2: r2 = %.4f)\n"
    nlogn.Stats.coefficients.(1) nlogn.Stats.r_square nsq.Stats.r_square;
  write_json ~path:"BENCH_claims.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "claims");
        ("l_fit_log2_bits", Bench_json.Str "11..15");
        ("rounds_bits", Bench_json.Int bits);
        ("adversary", Bench_json.Str "passive");
      ]
    ~rows:
      (pi_z_rows @ broadcast_ca_rows @ rounds_rows
      @ [
          [
            ("row", Bench_json.Str "rounds_fit");
            ("nlogn_slope", Bench_json.Float nlogn.Stats.coefficients.(1));
            ("nlogn_intercept", Bench_json.Float nlogn.Stats.coefficients.(0));
            ("nlogn_r2", Bench_json.Float nlogn.Stats.r_square);
            ("nsq_r2", Bench_json.Float nsq.Stats.r_square);
          ];
        ])

(* ------------------------------------------------------------------ *)
(* T4: resilience matrix                                               *)
(* ------------------------------------------------------------------ *)

let t4 () =
  let n = 10 and t = 3 in
  header "T4  --  resilience  (n = 10, protocol t = 3; corruptions swept 0..4)"
    "Claim: Termination, Agreement and Convex Validity hold for any corruption count\n\
     <= t = floor((n-1)/3), for every adversary strategy and input attack. The 4-\n\
     corruption rows exceed the t < n/3 bound: failures there are expected (and the\n\
     Dolev-Reischuk-style impossibility says some strategy must break them).";
  (* Adversary *factories*: strategies carry PRNG state, so every grid cell
     instantiates a fresh adversary inside its thunk — cells are
     self-contained (a pure function of the grid point) and fan out over the
     domain pool. Earlier revisions shared instances across the sweep, which
     made rows depend on run order. *)
  let factories =
    [
      (fun () -> Adversary.passive);
      (fun () -> Adversary.silent);
      (fun () -> Adversary.crash ~after:40);
      (fun () -> Adversary.garbage ~seed:7);
      (fun () -> Adversary.equivocate ~seed:7);
      (fun () -> Adversary.bitflip ~seed:7);
      (fun () -> Adversary.delayer ());
      (* Protocol-aware attacks (lib/attacks), each aimed at one proof
         obligation — see test/test_attacks.ml. *)
      (fun () -> Attacks.vote_stuffer ~payload:(Sha256.digest "evil"));
      (fun () -> Attacks.tuple_forger ~seed:7);
      (fun () -> Attacks.window_fabricator);
      (fun () -> Attacks.prefix_saboteur);
      (fun () -> Attacks.rotating ~seed:7 ~payload:(Sha256.digest "evil"));
    ]
  in
  Printf.printf "%-6s %-14s %-16s %-8s %-8s %-8s\n" "corr." "adversary"
    "input attack" "term." "agree" "valid";
  print_endline line;
  let grid =
    List.concat_map
      (fun n_corrupt ->
        List.concat_map
          (fun mk_adversary ->
            List.map
              (fun attack ->
                Workload.cell
                  ~label:
                    (Printf.sprintf "%d/%s/%s" n_corrupt
                       (mk_adversary ()).Adversary.name
                       (Workload.input_attack_name attack))
                  (fun () ->
                    let adversary = mk_adversary () in
                    let rng = Prng.create (n_corrupt + 17) in
                    let corrupt = Array.make n false in
                    let placed = ref 0 in
                    while !placed < n_corrupt do
                      let i = Prng.int rng n in
                      if not corrupt.(i) then begin
                        corrupt.(i) <- true;
                        incr placed
                      end
                    done;
                    let inputs =
                      Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2
                    in
                    let inputs =
                      Workload.apply_input_attack attack ~corrupt inputs
                    in
                    let term, agree, valid =
                      match
                        Sim.run ~max_rounds:4000 ~allow_excess_corruptions:true
                          ~n ~t ~corrupt ~adversary (fun ctx ->
                            Convex.agree_int ctx inputs.(ctx.Ctx.me))
                      with
                      | outcome -> (
                          match Sim.honest_outputs ~corrupt outcome with
                          | outputs ->
                              let agree, valid =
                                Workload.check_ca ~corrupt ~inputs outputs
                              in
                              (true, agree, valid)
                          | exception Failure _ -> (false, false, false))
                      | exception Sim.Round_limit_exceeded _ ->
                          (false, false, false)
                    in
                    ( n_corrupt,
                      adversary.Adversary.name,
                      Workload.input_attack_name attack,
                      term,
                      agree,
                      valid )))
              [
                Workload.Honest_inputs; Workload.Outlier_high;
                Workload.Split_extremes;
              ])
          factories)
      [ 0; 1; 3; 4 ]
  in
  List.iter
    (fun (_, (n_corrupt, name, attack, term, agree, valid)) ->
      let mark b = if b then "yes" else "NO" in
      Printf.printf "%-6d %-14s %-16s %-8s %-8s %-8s%s\n" n_corrupt name attack
        (mark term) (mark agree) (mark valid)
        (if n_corrupt > t && not (term && agree && valid) then
           "   (beyond t: allowed to fail)"
         else ""))
    (Workload.run_cells ~domains:!domains grid)

(* ------------------------------------------------------------------ *)
(* T5: component ablation                                              *)
(* ------------------------------------------------------------------ *)

let t5 () =
  let n = 13 and t = 4 in
  let bits = 1 lsl 14 in
  header "T5  --  per-component honest bits of one Pi_Z run  (n = 13, l = 2^14)"
    "Claim (Thm 1): Pi_lBA+ costs O(l*n + k*n^2*log n) + BITS(Pi_BA). The RS+Merkle\n\
     distribution (ext_distribute) carries the l*n term; the k-bit agreements\n\
     (pi_ba_plus / pi_ba) are l-independent — our phase-king Pi_BA makes them\n\
     O(k*n^3) instead of the paper's O(k*n^2) (substitution recorded in DESIGN.md).";
  let r = run_protocol ~seed:777 ~n ~t ~bits Workload.pi_z in
  let total = r.Workload.honest_bits in
  Printf.printf "%-22s | %14s | %8s\n" "component" "honest kbits" "share";
  print_endline line;
  List.iter
    (fun (label, b) ->
      Printf.printf "%-22s | %14s | %7.1f%%\n" label (kbits b)
        (100. *. float_of_int b /. float_of_int total))
    r.Workload.labels;
  Printf.printf "%-22s | %14s | %7.1f%%\n" "TOTAL" (kbits total) 100.;
  (* ext_distribute = the l*n codeword term plus the k*n^2*log n Merkle
     witness term, summed over the O(log n) FINDPREFIX iterations. *)
  Printf.printf "\nreference magnitudes: l*n = %s kbits; k*n^2*log2(n)*iters ~= %s kbits.\n"
    (kbits (bits * n))
    (kbits (256 * n * n * 4 * 8))

(* ------------------------------------------------------------------ *)
(* T6: bit-search vs block-search ablation                             *)
(* ------------------------------------------------------------------ *)

let t6 () =
  let n = 4 and t = 1 in
  header "T6  --  FIXEDLENGTHCA vs FIXEDLENGTHCABLOCKS  (n = 4, t = 1)"
    "Claim (Sec. 4): searching over n^2 blocks instead of bits cuts the number of\n\
     Pi_lBA+ invocations from O(log l) to O(log n) and hence the round count, at\n\
     equal O(l*n) leading communication.";
  Printf.printf "%-8s | %21s | %21s | %21s\n" "l (bits)" "iterations (bit/blk)"
    "rounds (bit/blk)" "kbits (bit/blk)";
  print_endline line;
  List.iter
    (fun bits ->
      let corrupt = Workload.spread_corrupt ~n ~t in
      let rng = Prng.create (bits + 1) in
      let inputs =
        Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
      in
      let fixed = Array.map (fun v -> Bigint.to_bitstring_fixed ~bits v) inputs in
      let iters run extract =
        let outcome =
          Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
              run ctx fixed.(ctx.Ctx.me))
        in
        List.fold_left max 0 (List.map extract (Sim.honest_outputs ~corrupt outcome))
      in
      let it_bit =
        iters
          (fun ctx v -> Proto.run (Convex.Find_prefix.run ctx ~bits v))
          (fun r -> r.Convex.Find_prefix.iterations)
      in
      let it_blk =
        iters
          (fun ctx v -> Proto.run (Convex.Find_prefix.run_blocks ctx ~bits v))
          (fun r -> r.Convex.Find_prefix.iterations)
      in
      let full run =
        let outcome =
          Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
              run ctx fixed.(ctx.Ctx.me))
        in
        (outcome.Sim.metrics.Metrics.rounds, outcome.Sim.metrics.Metrics.honest_bits)
      in
      let rounds_bit, bits_bit =
        full (fun ctx v -> Proto.run (Convex.agree_fixed_length ctx ~bits v))
      in
      let rounds_blk, bits_blk =
        full (fun ctx v -> Proto.run (Convex.agree_fixed_length_blocks ctx ~bits v))
      in
      Printf.printf "%-8d | %10d / %-8d | %10d / %-8d | %10s / %-8s\n" bits it_bit
        it_blk rounds_bit rounds_blk (kbits bits_bit) (kbits bits_blk))
    [ 256; 1024; 4096; 16384 ]

(* ------------------------------------------------------------------ *)
(* T7: Π_BA+ property sweep                                            *)
(* ------------------------------------------------------------------ *)

let t7 () =
  let n = 10 and t = 3 in
  header "T7  --  Pi_BA+ Bounded Pre-Agreement sweep  (n = 10, t = 3)"
    "Claim (Thm 6): Pi_BA+ outputs bot only if fewer than n-2t = 4 honest parties\n\
     share an input; any non-bot output is an honest input (Intrusion Tolerance).\n\
     Sweep the number of honest parties sharing a value under three adversaries.";
  Printf.printf "%-10s | %-12s | %-26s | %s\n" "sharing" "adversary" "output"
    "intrusion-tolerant";
  print_endline line;
  List.iter
    (fun sharing ->
      List.iter
        (fun adversary ->
          let corrupt = Array.init n (fun i -> i >= n - t) in
          let inputs =
            Array.init n (fun i ->
                if i < sharing then "shared-digest" else Printf.sprintf "unique-%d" i)
          in
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Proto.run (Baplus.Ba_plus.run ctx inputs.(ctx.Ctx.me)))
          in
          let out = List.hd (Sim.honest_outputs ~corrupt outcome) in
          let honest_inputs =
            List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
          in
          let it =
            match out with
            | None -> true
            | Some v -> List.exists (String.equal v) honest_inputs
          in
          Printf.printf "%-10d | %-12s | %-26s | %b%s\n" sharing
            adversary.Adversary.name
            (match out with None -> "bot" | Some v -> v)
            it
            (if sharing >= n - (2 * t) && out = None then "   VIOLATION" else ""))
        [ Adversary.passive; Adversary.garbage ~seed:3; Adversary.equivocate ~seed:3 ])
    [ 0; 2; 3; 4; 5; 7 ];
  Printf.printf "\n(no row may say VIOLATION; rows with sharing >= 4 must be non-bot.)\n"

(* ------------------------------------------------------------------ *)
(* T8: the authenticated regime (t < n/2 with a PKI)                   *)
(* ------------------------------------------------------------------ *)

let t8 () =
  header "T8  --  authenticated setting: CA at t < n/2  (open problem regime)"
    "The paper's conclusion asks whether communication-optimal CA exists for t < n/2\n\
     with cryptographic setup. The classical answer (Dolev-Strong BC per input + trim,\n\
     lib/auth) tolerates up to n/2 corruptions but pays for it in signatures; Pi_Z\n\
     needs no setup but requires t < n/3. This table quantifies that trade.";
  Printf.printf "%-10s | %-22s | %14s | %8s | %8s\n" "n (t)" "protocol" "honest kbits"
    "rounds" "CA holds";
  print_endline line;
  List.iter
    (fun (n, t_auth) ->
      let bits = 64 in
      let rng = Prng.create (900 + n) in
      let mk_inputs corrupt =
        Array.map
          (fun v -> Workload.to_fixed ~bits v)
          (Workload.apply_input_attack Workload.Outlier_high ~corrupt
             (Workload.sensor_readings rng ~n ~base:500000 ~jitter:50))
      in
      (* Authenticated CA at t < n/2 — beyond any plain-model bound. *)
      let corrupt = Workload.spread_corrupt ~n ~t:t_auth in
      let inputs = mk_inputs corrupt in
      let setup = Auth.Setup.generate ~seed:(77 + n) ~n ~capacity:(4 * n) in
      let outcome =
        Sim.run ~setup:`Authenticated ~n ~t:t_auth ~corrupt
          ~adversary:(Adversary.equivocate ~seed:3) (fun ctx ->
            Proto.run (Auth.Auth_ca.run setup ctx ~bits inputs.(ctx.Ctx.me)))
      in
      let holds =
        fixed_width_ca ~corrupt ~inputs (Sim.honest_outputs ~corrupt outcome)
      in
      Printf.printf "%-4d (%d)   | %-22s | %14s | %8d | %8b\n" n t_auth
        "Auth-CA (Dolev-Strong)"
        (kbits outcome.Sim.metrics.Metrics.honest_bits)
        outcome.Sim.metrics.Metrics.rounds holds;
      (* Pi_Z at its own bound t < n/3, same workload size. *)
      let t_plain = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_plain in
      let inputs = mk_inputs corrupt in
      let outcome =
        Sim.run ~n ~t:t_plain ~corrupt ~adversary:(Adversary.equivocate ~seed:3)
          (fun ctx ->
            Proto.run (Convex.agree_nat ctx (Bigint.of_bitstring inputs.(ctx.Ctx.me))))
      in
      let ok =
        match Sim.honest_outputs ~corrupt outcome with
        | o :: r -> List.for_all (Bigint.equal o) r
        | [] -> false
      in
      Printf.printf "%-4d (%d)   | %-22s | %14s | %8d | %8b\n" n t_plain
        "Pi_Z (plain model)"
        (kbits outcome.Sim.metrics.Metrics.honest_bits)
        outcome.Sim.metrics.Metrics.rounds ok)
    [ (4, 1); (5, 2); (7, 3) ];
  Printf.printf
    "\n(hash-based signatures are ~17 KB each; the signature term dominates Auth-CA —\n\
     the open problem is precisely whether the t < n/2 row can be made O(l*n)-cheap.)\n"

(* ------------------------------------------------------------------ *)
(* AUTH: the Pi_BA substrate seam — unauth t < n/3 vs auth t < n/2     *)
(* ------------------------------------------------------------------ *)

let auth_exp () =
  header
    "AUTH --  BA substrate backends: unauth (t < n/3) vs auth quorum BA (t < n/2)"
    "The Pi_BA seam admits two backends: the phase-king stack (plain model, t < n/3,\n\
     Pi_Z's default) and the authenticated quorum-certificate BA (XMSS PKI, t < n/2,\n\
     4t+7 rounds). At equal n, the auth backend buys maximal resilience with\n\
     signature bits; both rows must satisfy Definition 1 (agreement + convex\n\
     validity) to land in the ledger.";
  let bits = 32 in
  Printf.printf "%-10s | %-28s | %14s | %8s | %8s\n" "n (t)" "backend" "honest kbits"
    "rounds" "CA holds";
  print_endline line;
  let json_rows = ref [] in
  let row ~backend ~n ~t ~honest_bits ~rounds ~holds =
    Printf.printf "%-4d (%d)   | %-28s | %14s | %8d | %8b\n" n t backend
      (kbits honest_bits) rounds holds;
    json_rows :=
      [
        ("backend", Bench_json.Str backend);
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("honest_bits", Bench_json.Int honest_bits);
        ("rounds", Bench_json.Int rounds);
        ("ca_holds", Bench_json.Bool holds);
      ]
      :: !json_rows
  in
  List.iter
    (fun n ->
      let rng = Prng.create (1100 + n) in
      let mk_inputs corrupt =
        Array.map
          (fun v -> Workload.to_fixed ~bits v)
          (Workload.apply_input_attack Workload.Outlier_high ~corrupt
             (Workload.sensor_readings rng ~n ~base:260000 ~jitter:40))
      in
      (* Unauth backend: the functorized default — Pi_Z at its t < n/3 bound. *)
      let t_plain = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_plain in
      let inputs = mk_inputs corrupt in
      let report =
        Workload.run_int ~n ~t:t_plain ~corrupt
          ~adversary:(Adversary.equivocate ~seed:6)
          ~inputs:(Array.map Bigint.of_bitstring inputs)
          Workload.pi_z.Workload.run
      in
      row ~backend:"unauth" ~n ~t:t_plain ~honest_bits:report.Workload.honest_bits
        ~rounds:report.Workload.rounds
        ~holds:(report.Workload.agreement && report.Workload.convex_validity);
      (* Auth backend: native t < n/2 CA on the quorum-certificate BA. *)
      let t_auth = (n - 1) / 2 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_auth in
      let inputs = mk_inputs corrupt in
      let setup =
        Auth.Setup.generate ~seed:(1200 + n) ~n
          ~capacity:(Auth.Auth_ba.required_capacity ~t:t_auth ~instances:n)
      in
      let outcome =
        Sim.run ~setup:`Authenticated ~n ~t:t_auth ~corrupt
          ~adversary:(Adversary.equivocate ~seed:6) (fun ctx ->
            Proto.run (Auth.Auth_ba.agree setup ctx ~bits inputs.(ctx.Ctx.me)))
      in
      row ~backend:"auth" ~n ~t:t_auth
        ~honest_bits:outcome.Sim.metrics.Metrics.honest_bits
        ~rounds:outcome.Sim.metrics.Metrics.rounds
        ~holds:(fixed_width_ca ~corrupt ~inputs (Sim.honest_outputs ~corrupt outcome)))
    (if !smoke then [ 4 ] else [ 4; 5; 7 ]);
  write_json ~path:"BENCH_auth.json"
    ~meta:
      [ ("experiment", Bench_json.Str "auth"); ("bits", Bench_json.Int bits) ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(each XMSS signature is ~17 KB and a quorum certificate carries n-t of them;\n\
     the auth rows trade exactly that bit volume for resilience past n/3.)\n"

(* ------------------------------------------------------------------ *)
(* ADAPTIVE: the fault-adaptive fast path — cost vs actual faults f    *)
(* ------------------------------------------------------------------ *)

let adaptive_exp () =
  header
    "ADAPTIVE --  fault-adaptive fast path: communication vs actual corruptions f"
    "Every protocol above pays its worst-case Theta(t)-driven cost even when nobody\n\
     misbehaves. The adaptive layer (lib/adaptive) puts a 4-round optimistic preamble\n\
     + one bit-BA arbitration in front of Pi_Z: at f = 0 it terminates in\n\
     O(n*l + n^2*k) bits; any active corruption can veto the certificate, after which\n\
     the full stack runs and the preamble is pure overhead. Gates (bench/ledger.ml):\n\
     the f = 0 row well below the matching Pi_Z cost (the BENCH_t1 lg13 row), the\n\
     f = t row close to it, the fast path taken exactly at f = 0.";
  let json_rows = ref [] in
  let row ~backend ~f ~n ~t ~bits ~(report : Workload.report) ~fast ~model =
    let holds = report.Workload.agreement && report.Workload.convex_validity in
    Printf.printf "%-16s | %2d (of %d) | %14s | %8d | %9s\n" backend f t
      (kbits report.Workload.honest_bits)
      report.Workload.rounds
      (match fast with Some true -> "fast" | Some false -> "fallback" | None -> "-");
    json_rows :=
      [
        ("backend", Bench_json.Str backend);
        ("f", Bench_json.Int f);
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("honest_bits", Bench_json.Int report.Workload.honest_bits);
        ("byz_bits", Bench_json.Int report.Workload.byz_bits);
        ("rounds", Bench_json.Int report.Workload.rounds);
        ( "fast_path",
          match fast with Some b -> Bench_json.Bool b | None -> Bench_json.Null );
        ( "model_bits",
          match model with
          | Some c -> Bench_json.Int c.Ba.Substrate.c_bits
          | None -> Bench_json.Null );
        ( "model_rounds",
          match model with
          | Some c -> Bench_json.Int c.Ba.Substrate.c_rounds
          | None -> Bench_json.Null );
        ("ca_holds", Bench_json.Bool holds);
      ]
      :: !json_rows
  in
  Printf.printf "%-16s | %-9s | %14s | %8s | %9s\n" "backend" "f" "honest kbits"
    "rounds" "path";
  print_endline line;
  (* Plain backend at the T1 grid point (n = 13, t = 4, l = 2^13) but on the
     uniform workload: the preamble orders candidates by a 128-bit truncated
     key, so the fast path engages when honest inputs differ within their
     top 128 bits (sensors, prices, timestamps, uniform values) and safely
     falls back on the synthetic clustered workload, whose values share the
     whole top half. The pi_z rows are measured on the identical inputs, so
     the gates compare like with like at the BENCH_t1 lg13 scale (the f = t
     pi_z row coincides with the committed BENCH_t1 lg13 row). *)
  let n = if !smoke then 7 else 13 in
  let t = if !smoke then 2 else 4 in
  let bits = if !smoke then 1 lsl 9 else 1 lsl 13 in
  let unauth = (module Ba.Substrate.Unauthenticated : Ba.Substrate.S) in
  (* All honest parties take the agreed branch; read any one. *)
  let honest_fast ~corrupt stats =
    let honest =
      Array.to_list stats |> List.filteri (fun i _ -> not corrupt.(i)) |> List.hd
    in
    honest.Adaptive.fast_taken = 1
  in
  let sweep_f ~f runner =
    let corrupt = Workload.spread_corrupt ~n ~t:f in
    let rng = Prng.create 113 in
    let inputs =
      Workload.apply_input_attack Workload.Outlier_high ~corrupt
        (Workload.uniform_bits rng ~n ~bits)
    in
    runner ~corrupt ~inputs
  in
  List.iter
    (fun f ->
      sweep_f ~f (fun ~corrupt ~inputs ->
          let run p =
            Workload.run_int ~n ~t ~corrupt
              ~adversary:(Adversary.equivocate ~seed:5) ~inputs p
          in
          row ~backend:"pi_z" ~f ~n ~t ~bits ~report:(run Workload.pi_z.Workload.run)
            ~fast:None ~model:None;
          let stats = Array.init n (fun _ -> Adaptive.stats ()) in
          let ad =
            run
              (Workload.pi_z_adaptive ~stats_of:(fun me -> stats.(me)) ())
                .Workload.run
          in
          let model =
            Adaptive.wrapper_cost
              (Ctx.make ~me:0 ~n ~t)
              ~value_bits:bits ~fallback:unauth ~f
          in
          row ~backend:"adaptive" ~f ~n ~t ~bits ~report:ad
            ~fast:(Some (honest_fast ~corrupt stats)) ~model:(Some model)))
    (List.init (t + 1) Fun.id);
  (* The authenticated fallback at its own (smaller) reference point: XMSS
     signatures make each fallback run ~2 Gbit, so the auth sweep stays at
     the BENCH_auth scale. The f-shape is the point, not the n. *)
  let an = if !smoke then 4 else 7 in
  let at = if !smoke then 1 else 2 in
  let abits = if !smoke then 1 lsl 7 else 1 lsl 10 in
  List.iter
    (fun f ->
      let corrupt = Workload.spread_corrupt ~n:an ~t:f in
      let rng = Prng.create 113 in
      let inputs =
        Workload.apply_input_attack Workload.Outlier_high ~corrupt
          (Workload.uniform_bits rng ~n:an ~bits:abits)
      in
      let stats = Array.init an (fun _ -> Adaptive.stats ()) in
      let setup =
        Auth.Setup.generate ~seed:(1900 + f) ~n:an
          ~capacity:(Auth.Auth_ba.required_capacity ~t:at ~instances:64)
      in
      let ad =
        Workload.run_int ~setup:`Authenticated ~n:an ~t:at ~corrupt
          ~adversary:(Adversary.equivocate ~seed:5) ~inputs
          (Workload.pi_z_adaptive_auth ~stats_of:(fun me -> stats.(me)) setup)
            .Workload.run
      in
      row ~backend:"adaptive-auth" ~f ~n:an ~t:at ~bits:abits ~report:ad
        ~fast:(Some (honest_fast ~corrupt stats)) ~model:None)
    (List.init (at + 1) Fun.id);
  write_json ~path:"BENCH_adaptive.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "adaptive");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
      ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(the adaptive f=0 row is the preamble + one bit-BA; every f > 0 row is the\n\
     full Pi_Z cost plus that constant preamble — cost tracks f, not t.)\n"

(* ------------------------------------------------------------------ *)
(* T9: parallel composition economics                                  *)
(* ------------------------------------------------------------------ *)

let t9 () =
  let bits = 256 in
  header "T9  --  parallel protocol composition (Net.Proto.parallel)"
    "Independent sub-protocol instances (the n broadcasts of Broadcast-CA) can be\n\
     round-multiplexed: rounds become max instead of sum of the branches', outputs\n\
     are bit-identical, and the byte overhead is only the multiplex framing.";
  Printf.printf "%-10s | %17s | %17s | %14s | %10s\n" "n (t)" "rounds seq/par"
    "kbits seq/par" "same output" "speedup";
  print_endline line;
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let inputs = standard_inputs ~seed:(700 + n) ~n ~bits in
      let measure (p : Workload.protocol) =
        let r =
          Workload.run_int ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:3)
            ~inputs p.Workload.run
        in
        (r.Workload.rounds, r.Workload.honest_bits, r.Workload.outputs)
      in
      let sr, sb, so = measure (Workload.broadcast_ca ~bits) in
      let pr, pb, po = measure (Workload.broadcast_ca_parallel ~bits) in
      Printf.printf "%-4d (%d)   | %7d / %-7d | %8s / %-8s | %14b | %9.1fx\n" n t sr
        pr (kbits sb) (kbits pb)
        (List.for_all2 Bigint.equal so po)
        (float_of_int sr /. float_of_int pr))
    [ 4; 7; 10; 13 ]

(* ------------------------------------------------------------------ *)
(* ENGINE: session-multiplexing throughput                             *)
(* ------------------------------------------------------------------ *)

let engine_bench () =
  let n = 7 and t = 2 in
  header "ENGINE  --  session-multiplexing throughput  (n = 7, t = 2, Pi_Z / 64-bit inputs)"
    "The engine runs K concurrent Pi_Z sessions over one transport, coalescing every\n\
     pair's per-round traffic into a single frame. Per-session cost (honest bits,\n\
     rounds) is invariant in K — sessions are bit-identical to sequential runs —\n\
     while transport frames are shared: frames-saved grows ~linearly in K and the\n\
     engine amortizes the per-frame cost the way a high-traffic oracle deployment\n\
     must. The poll rows scale K into the thousands through the single-process\n\
     event loop (nonblocking sockets, one select, zero threads).";
  let session_inputs k =
    let rng = Prng.create (8100 + k) in
    Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32
  in
  let mk_spec ?(adversarial = true) k =
    let inputs = session_inputs k in
    let inputs =
      if adversarial then
        Workload.apply_input_attack Workload.Outlier_high
          ~corrupt:(Workload.spread_corrupt ~n ~t) inputs
      else inputs
    in
    let adversary =
      if adversarial then Adversary.equivocate ~seed:(8200 + k)
      else Adversary.passive
    in
    Engine.session ~sid:k ~adversary (fun ctx ->
        Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  Printf.printf "%-12s | %8s | %8s | %10s | %12s | %10s | %10s | %8s | %9s | %7s\n"
    "backend (K)" "rounds" "wall s" "sess/s" "kbits/sess" "frames" "saved"
    "frame-kB" "gc-kw/s" "rss-MB";
  print_endline line;
  (* One timed run: wall clock plus the minor words it allocated — the `gc`
     column (minor words per session) is the allocation-discipline gate the
     hot-path work is held to, alongside throughput. *)
  let timed f =
    let t0 = Unix.gettimeofday () in
    let m0 = Gc.minor_words () in
    let r = f () in
    let words = Gc.minor_words () -. m0 in
    (r, Unix.gettimeofday () -. t0, words)
  in
  let json_rows = ref [] in
  (* Peak RSS so far (VmHWM): rows run in ascending K per backend, so the
     column reads as "the footprint K sessions needed". *)
  let peak_rss () = Option.value (Net_poll.rss_peak_bytes ()) ~default:0 in
  let report ?draws ~rss backend k (outcome : Bigint.t Engine.outcome) wall
      words =
    let agg = outcome.Engine.aggregate in
    let per_session =
      float_of_int agg.Engine.honest_bits_total /. float_of_int k /. 1000.
    in
    let gc = words /. float_of_int k in
    Printf.printf
      "%-12s | %8d | %8.3f | %10.1f | %12.1f | %10d | %10d | %8.1f | %9.1f | %7.1f\n"
      (Printf.sprintf "%s (%d)" backend k)
      agg.Engine.engine_rounds wall
      (float_of_int k /. wall)
      per_session agg.Engine.frames_sent agg.Engine.frames_saved
      (float_of_int agg.Engine.frame_bytes /. 1000.)
      (gc /. 1000.)
      (float_of_int rss /. (1024. *. 1024.));
    let drawn =
      match draws with Some d -> [ ("draws", Bench_json.Int d) ] | None -> []
    in
    json_rows :=
      ([
        ("backend", Bench_json.Str backend);
        ("sessions", Bench_json.Int k);
        ("engine_rounds", Bench_json.Int agg.Engine.engine_rounds);
        ("wall_s", Bench_json.Float wall);
        ("sessions_per_s", Bench_json.Float (float_of_int k /. wall));
        ("honest_bits_per_session",
         Bench_json.Float (float_of_int agg.Engine.honest_bits_total /. float_of_int k));
        ("frames_sent", Bench_json.Int agg.Engine.frames_sent);
        ("naive_frames", Bench_json.Int agg.Engine.naive_frames);
        ("frames_saved", Bench_json.Int agg.Engine.frames_saved);
        ("frame_bytes", Bench_json.Int agg.Engine.frame_bytes);
        ("payload_bytes", Bench_json.Int agg.Engine.payload_bytes);
        ("peak_live", Bench_json.Int agg.Engine.peak_live);
        ("gc", Bench_json.Float gc);
        ("rss_bytes", Bench_json.Int rss);
      ]
      @ drawn)
      :: !json_rows
  in
  List.iter
    (fun k ->
      let specs = List.init k mk_spec in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let outcome, wall, words =
        timed (fun () -> Engine.run_sim ~n ~t ~corrupt specs)
      in
      (* A sim row is milliseconds of work, so one run is noise: the row
         repeats until its draws total [min_total] seconds, and at least
         [draws] of them, and reports the median draw. The first draw also
         gives the outcome, the gc column and the RSS, read before the
         repeats grow the heap. *)
      let rss = peak_rss () in
      let min_total = if !smoke then 0.1 else 1.0 in
      let rec more walls total count =
        if count >= draws && total >= min_total then (walls, count)
        else
          let _, w, _ = timed (fun () -> Engine.run_sim ~n ~t ~corrupt specs) in
          more (w :: walls) (total +. w) (count + 1)
      in
      let walls, count = more [ wall ] wall 1 in
      assert (outcome.Engine.aggregate.Engine.sessions_completed = k);
      if k > 1 then assert (outcome.Engine.aggregate.Engine.frames_saved > 0);
      report ~draws:count ~rss "sim" k outcome (median walls) words)
    (if !smoke then [ 1; 4 ] else [ 1; 4; 16; 64 ]);
  (* Scale-out rows: the poll backend drives K into the thousands in one
     process — nonblocking sockets, a single select loop, zero threads.
     Honest workload so rows are comparable across K; ascending K keeps the
     peak-RSS column meaningful per row. At the smallest K the identical
     workload replays in the simulator and the full ledgers must agree —
     the bench-level check that the wire moved exactly the simulator's
     bytes. *)
  let poll_ks = if !smoke then [ 8 ] else [ 256; 1024; 4096 ] in
  List.iter
    (fun k ->
      let specs = List.init k (mk_spec ~adversarial:false) in
      let outcome, wall, words =
        timed (fun () -> Engine.run_poll ~t ~n ~corrupt:(Array.make n false) specs)
      in
      assert (outcome.Engine.aggregate.Engine.sessions_completed = k);
      assert (outcome.Engine.aggregate.Engine.frames_saved > 0);
      if k = List.hd poll_ks then begin
        let sim = Engine.run_sim ~n ~t ~corrupt:(Array.make n false) specs in
        let a = sim.Engine.aggregate and b = outcome.Engine.aggregate in
        assert (a.Engine.engine_rounds = b.Engine.engine_rounds);
        assert (a.Engine.frames_sent = b.Engine.frames_sent);
        assert (a.Engine.naive_frames = b.Engine.naive_frames);
        assert (a.Engine.frame_bytes = b.Engine.frame_bytes);
        assert (a.Engine.payload_bytes = b.Engine.payload_bytes)
      end;
      report ~rss:(peak_rss ()) "poll" k outcome wall words)
    poll_ks;
  write_json ~path:"BENCH_engine.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "engine");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("protocol", Bench_json.Str "pi-z");
        ("input_bits", Bench_json.Int 64);
      ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(kbits/sess is flat in K — multiplexing never inflates a session's own cost;\n\
     'saved' counts frames a frame-per-session transport would have sent extra.\n\
     The sim rows run the adversarial workload (equivocation + outlier inputs),\n\
     the poll rows the honest one, so their naive_frames columns differ by\n\
     workload, not by ledger. The poll rows move every frame through nonblocking\n\
     sockets in one process; their smallest K is ledger-asserted against the\n\
     simulator on the same workload, and rss-MB is the process's peak resident\n\
     set after the row.)\n"

(* ------------------------------------------------------------------ *)
(* SUBSTRATE: coding/hashing kernel throughput + allocation            *)
(* ------------------------------------------------------------------ *)

(* The seed Merkle build, reimplemented locally as the "before" baseline:
   per-node string concatenation ("\x01" ^ l ^ r) and one digest allocation
   per node. Root-identical to Merkle.build (the differential tests prove
   it); only the constant factors differ. *)
let merkle_ref_root values =
  let hash_leaf v = Sha256.digest ("\x00" ^ v) in
  let hash_node l r = Sha256.digest ("\x01" ^ l ^ r) in
  let empty_leaf = Sha256.digest "\x02" in
  let leaves = Array.length values in
  let padded =
    let rec go p = if p >= leaves then p else go (2 * p) in
    go 1
  in
  let level =
    ref
      (Array.init padded (fun i ->
           if i < leaves then hash_leaf values.(i) else empty_leaf))
  in
  while Array.length !level > 1 do
    level :=
      Array.init
        (Array.length !level / 2)
        (fun i -> hash_node !level.(2 * i) !level.((2 * i) + 1))
  done;
  !level.(0)

let substrate () =
  header "SUBSTRATE  --  RS / Merkle / SHA-256 kernel throughput and allocation"
    "Engineering table (no paper claim): the dispersal substrate dominates wall-clock\n\
     once inputs reach megabits (BENCH_t1) and sessions multiply (BENCH_engine). Each\n\
     row times the matrix-form / allocation-free kernel against the seed reference\n\
     path on identical inputs (outputs are bit-identical — see the differential\n\
     tests); the sha256 row times the active compression kernel against the\n\
     portable one. 'mwords/op' is Gc minor words allocated per operation.";
  Printf.printf "SHA-256 kernel: %s\n" Sha256.kernel;
  let measure f =
    (* Warm up (and populate codec memos), then time [draws] batches of
       whole runs: the rate is the median batch's, the words are per run
       over every batch. *)
    ignore (Sys.opaque_identity (f ()));
    let min_time = if !smoke then 0.02 else 0.4 in
    let words = ref 0.0 and runs = ref 0 in
    let batch () =
      let t0 = Unix.gettimeofday () in
      let m0 = Gc.minor_words () in
      let reps = ref 0 in
      let elapsed = ref 0.0 in
      while !elapsed < min_time do
        ignore (Sys.opaque_identity (f ()));
        incr reps;
        elapsed := Unix.gettimeofday () -. t0
      done;
      (* Read before anything here allocates: the words are [f]'s alone. *)
      words := !words +. (Gc.minor_words () -. m0);
      runs := !runs + !reps;
      float_of_int !reps /. !elapsed
    in
    let rate = median (List.init draws (fun _ -> batch ())) in
    (rate, !words /. float_of_int !runs)
  in
  let mib = 1024. *. 1024. in
  let json_rows = ref [] in
  let emit ~op ~n ~k ~bytes ~unit ~fast ~ref_ops =
    let ops, words = fast and ref_ops, ref_words = ref_ops in
    let speedup = ops /. ref_ops in
    let rate o =
      match unit with
      | `MBs -> Printf.sprintf "%8.1f MB/s" (o *. float_of_int bytes /. mib)
      | `Ops -> Printf.sprintf "%8.0f op/s" o
    in
    Printf.printf "%-26s | %14s | %14s | %8.1fx | %10.0f | %10.0f\n"
      (Printf.sprintf "%s(%d,%d)/%dKiB" op n k (bytes / 1024))
      (rate ops) (rate ref_ops) speedup words ref_words;
    json_rows :=
      [
        ("op", Bench_json.Str op);
        ("n", Bench_json.Int n);
        ("k", Bench_json.Int k);
        ("msg_bytes", Bench_json.Int bytes);
        ("ops_per_s", Bench_json.Float ops);
        ("mb_per_s", Bench_json.Float (ops *. float_of_int bytes /. mib));
        ("ref_ops_per_s", Bench_json.Float ref_ops);
        ("speedup_vs_ref", Bench_json.Float speedup);
        ("minor_words_per_op", Bench_json.Float words);
        ("ref_minor_words_per_op", Bench_json.Float ref_words);
      ]
      :: !json_rows
  in
  Printf.printf "%-26s | %14s | %14s | %9s | %10s | %10s\n" "kernel" "fast"
    "reference" "speedup" "mwords/op" "ref mw/op";
  print_endline line;
  let msg_bytes = if !smoke then 4096 else 65536 in
  let msg = String.init msg_bytes (fun i -> Char.chr ((i * 131) land 0xff)) in
  List.iter
    (fun (n, k) ->
      let codec = Reed_solomon.ctx ~n ~k in
      let enc =
        measure (fun () -> Reed_solomon.encode_with codec msg)
      and enc_ref = measure (fun () -> Reed_solomon_ref.encode ~n ~k msg) in
      emit ~op:"rs_encode" ~n ~k ~bytes:msg_bytes ~unit:`MBs ~fast:enc
        ~ref_ops:enc_ref;
      (* Parity-heavy share set: the worst decode case (no systematic
         copy-through), the one ext_ba_plus hits when low-indexed parties
         are the faulty ones. *)
      let cws = Reed_solomon.encode ~n ~k msg in
      let shares = List.init k (fun i -> (n - 1 - i, cws.(n - 1 - i))) in
      let dec = measure (fun () -> Reed_solomon.decode_with codec shares)
      and dec_ref = measure (fun () -> Reed_solomon_ref.decode ~n ~k shares) in
      emit ~op:"rs_decode" ~n ~k ~bytes:msg_bytes ~unit:`MBs ~fast:dec
        ~ref_ops:dec_ref)
    [ (13, 5); (13, 9); (40, 27) ];
  let leaves_count = if !smoke then 64 else 1024 in
  let leaves =
    Array.init leaves_count (fun i ->
        String.init 64 (fun j -> Char.chr ((i + (j * 17)) land 0xff)))
  in
  let mb = measure (fun () -> Merkle.build leaves)
  and mb_ref = measure (fun () -> merkle_ref_root leaves) in
  emit ~op:"merkle_build" ~n:leaves_count ~k:0 ~bytes:(64 * leaves_count)
    ~unit:`Ops ~fast:mb ~ref_ops:mb_ref;
  let tree = Merkle.build leaves in
  let root = Merkle.root tree in
  let w = Merkle.witness tree (leaves_count / 2) in
  let mv =
    measure (fun () ->
        Merkle.verify ~root ~index:(leaves_count / 2)
          ~value:leaves.(leaves_count / 2) w)
  in
  emit ~op:"merkle_verify" ~n:leaves_count ~k:0 ~bytes:64 ~unit:`Ops ~fast:mv
    ~ref_ops:mv;
  let sha_bytes = if !smoke then 65536 else 1 lsl 20 in
  let blob = String.init sha_bytes (fun i -> Char.chr ((i * 31) land 0xff)) in
  let sh = measure (fun () -> Sha256.digest blob)
  and sh_ref = measure (fun () -> Sha256.Portable.digest blob) in
  emit ~op:"sha256" ~n:0 ~k:0 ~bytes:sha_bytes ~unit:`MBs ~fast:sh ~ref_ops:sh_ref;
  (* Bignum/bitstring codecs at the wide-value scale, at full size even under
     --smoke: allocation per op is deterministic, so the linear-in-l gate
     holds on any host: quadratic code allocates ~16x more at 4x the length. *)
  print_newline ();
  Printf.printf "%-30s | %14s | %16s\n" "codec" "ops/s" "alloc bytes/op";
  print_endline line;
  (* Minor plus direct-major words, in bytes. [Gc.allocated_bytes] is not
     used: on OCaml 5.1 it drops part of the minor heap's current
     allocation, while [Gc.minor_words] is exact. *)
  let alloc_bytes f =
    f ();
    let _, _, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    f ();
    let minor1 = Gc.minor_words () in
    let _, _, major1 = Gc.counters () in
    (minor1 -. minor0 +. major1 -. major0) *. float_of_int (Sys.word_size / 8)
  in
  List.iter
    (fun bits ->
      let rng = Prng.create bits in
      let random len = Bitstring.init len (fun i -> i = 1 || Prng.bool rng) in
      let b = random bits and half = random ((bits / 2) + 3) in
      let rest = random ((bits / 2) - 3) in
      let v = Bigint.of_bitstring b in
      List.iter
        (fun (op, f) ->
          let ops, _ = measure f and alloc = alloc_bytes f in
          Printf.printf "%-30s | %9.0f op/s | %16.0f\n"
            (Printf.sprintf "%s/%d bits" op bits)
            ops alloc;
          json_rows :=
            [
              ("op", Bench_json.Str op);
              ("bits", Bench_json.Int bits);
              ("ops_per_s", Bench_json.Float ops);
              ("alloc_bytes_per_op", Bench_json.Float alloc);
            ]
            :: !json_rows)
        [
          ("of_bitstring", fun () -> ignore (Sys.opaque_identity (Bigint.of_bitstring b)));
          ( "to_bitstring_fixed",
            fun () -> ignore (Sys.opaque_identity (Bigint.to_bitstring_fixed ~bits v)) );
          ( "append_unaligned",
            fun () -> ignore (Sys.opaque_identity (Bitstring.append half rest)) );
        ])
    [ 1 lsl 13; 1 lsl 15 ];
  write_json ~path:"BENCH_substrate.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "substrate");
        ("msg_bytes", Bench_json.Int msg_bytes);
        ("merkle_leaves", Bench_json.Int leaves_count);
        ("sha256_kernel", Bench_json.Str Sha256.kernel);
      ]
    ~rows:(List.rev !json_rows)

(* ------------------------------------------------------------------ *)
(* OBS: observability-plane overhead, span ledger and determinism      *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  header "OBS  --  observability plane: overhead, span ledger and determinism"
    "Engineering table (no paper claim): a full recorder (spans, probes and\n\
     instruments) must cost little (a wall-clock gate on the n=13, l=2^14\n\
     Pi_Z workload) and change nothing. Span bits must reproduce\n\
     Metrics.honest_bits exactly, the JSONL export must be byte-identical\n\
     across runs and stay under its size ceiling, the Det export and the\n\
     virtual-clock Chrome trace of a K-session engine run must be\n\
     byte-identical across sim, poll and domains=2, and the frame-bytes\n\
     histogram must sum to the aggregate ledger exactly.";
  let n = 13 and t = 4 in
  let bits = if !smoke then 1 lsl 9 else 1 lsl 14 in
  let reps = if !smoke then 1 else 7 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = standard_inputs ~seed:42 ~n ~bits in
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt inputs in
  (* Adversary strategies carry PRNG state: a fresh instance per run keeps
     every run (timed or checked, bare or recorded) identical. *)
  let run ?obs () =
    Workload.run_int ?obs ~n ~t ~corrupt
      ~adversary:(Adversary.equivocate ~seed:5)
      ~inputs Workload.pi_z.Workload.run
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  (* One bare run takes ~20 ms, too short for a wall-clock gate to clear timer
     noise, so a timed sample repeats the run until the bare side takes at
     least 100 ms. The two sides are interleaved within each rep and each
     takes its min across reps: ambient process state (heap shape, page
     cache, scheduler mood on a 1-core host) then shifts both sides together
     instead of biasing whichever ran last. *)
  let runs_per_sample =
    ignore (run ());
    if !smoke then 1 else max 1 (int_of_float (ceil (0.1 /. time (fun () -> run ()))))
  in
  let sample f = time (fun () -> for _ = 1 to runs_per_sample do ignore (f ()) done) in
  let bare_s = ref infinity and full_s = ref infinity in
  for _ = 1 to reps do
    let keep best d = if d < !best then best := d in
    keep bare_s (sample (fun () -> run ()));
    keep full_s (sample (fun () -> run ~obs:(Obs.create ()) ()))
  done;
  let bare_s = !bare_s and full_s = !full_s in
  let overhead_pct = 100. *. (full_s -. bare_s) /. bare_s in
  (* Ledger and determinism on two fresh full-recorder runs. *)
  let o1 = Obs.create () and o2 = Obs.create () in
  let r1 = run ~obs:o1 () in
  ignore (run ~obs:o2 ());
  let j1 = Obs.to_jsonl ~tier:Obs.Det o1 in
  let span_bits = Obs.honest_bits_total o1 in
  let ledger_equality = span_bits = r1.Workload.honest_bits in
  let deterministic_jsonl = String.equal j1 (Obs.to_jsonl ~tier:Obs.Det o2) in
  (* Cross-backend identity on a K-session engine run: the Det export and
     the virtual-clock chrome trace are pure functions of the execution, so
     sim, poll and a 2-domain sim run must produce byte-identical
     artifacts. *)
  let en = 7 and et = 2 in
  let k = if !smoke then 4 else 32 in
  let ecorrupt = Workload.spread_corrupt ~n:en ~t:et in
  (* Specs are rebuilt per run: adversary strategies carry PRNG state. *)
  let mk_specs () =
    List.init k (fun s ->
        let inputs =
          let rng = Prng.create (9300 + s) in
          Workload.apply_input_attack Workload.Outlier_high ~corrupt:ecorrupt
            (Workload.clustered_bits rng ~n:en ~bits:64 ~shared_prefix_bits:32)
        in
        Engine.session ~sid:s ~start_round:s
          ~adversary:(Adversary.equivocate ~seed:(9400 + s))
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
  in
  let det_export run =
    let obs = Obs.create () in
    let outcome = run obs in
    (Obs.to_jsonl ~tier:Obs.Det obs, Obs.Trace.chrome_trace obs, outcome, obs)
  in
  let sim_j, sim_tr, sim_o, sim_obs =
    det_export (fun obs ->
        Engine.run_sim ~obs ~n:en ~t:et ~corrupt:ecorrupt (mk_specs ()))
  in
  let poll_j, poll_tr, _, _ =
    det_export (fun obs ->
        Engine.run_poll ~obs ~n:en ~t:et ~corrupt:ecorrupt (mk_specs ()))
  in
  let par_j, par_tr, _, _ =
    det_export (fun obs ->
        Engine.run_sim ~domains:2 ~obs ~n:en ~t:et ~corrupt:ecorrupt (mk_specs ()))
  in
  let det_identical =
    List.for_all (String.equal sim_j) [ poll_j; par_j ]
    && List.for_all (String.equal sim_tr) [ poll_tr; par_tr ]
  in
  let frame_h = Obs.hist sim_obs ~tier:Obs.Det "engine/frame_bytes" in
  let hist_ledger_equal =
    Obs.Hist.sum frame_h = sim_o.Engine.aggregate.Engine.frame_bytes
  in
  let trace_events =
    match Obs.Check.chrome_trace sim_tr with
    | Ok c -> c
    | Error msg -> failwith ("obs: chrome trace fails its own schema: " ^ msg)
  in
  List.iter
    (fun j ->
      match Obs.Check.registry_jsonl j with
      | Ok _ -> ()
      | Error msg -> failwith ("obs: JSONL export fails its own schema: " ^ msg))
    [ j1; sim_j ];
  Printf.printf "%-24s | %12s\n" "measure" "value";
  print_endline line;
  Printf.printf "%-24s | %12d\n" "runs per timed sample" runs_per_sample;
  Printf.printf "%-24s | %12.4f\n" "bare s (min of reps)" bare_s;
  Printf.printf "%-24s | %12.4f\n" "full recorder s" full_s;
  Printf.printf "%-24s | %11.1f%%\n" "overhead (gated)" overhead_pct;
  Printf.printf "%-24s | %12d\n" "honest bits" r1.Workload.honest_bits;
  Printf.printf "%-24s | %12d\n" "span bits" span_bits;
  Printf.printf "%-24s | %12d\n" "jsonl bytes" (String.length j1);
  Printf.printf "%-24s | %12b\n" "ledger equality" ledger_equality;
  Printf.printf "%-24s | %12b\n" "deterministic jsonl" deterministic_jsonl;
  Printf.printf "%-24s | %12d\n" "engine rounds (K run)"
    sim_o.Engine.aggregate.Engine.engine_rounds;
  Printf.printf "%-24s | %12d\n" "engine det jsonl bytes" (String.length sim_j);
  Printf.printf "%-24s | %12d\n" "trace bytes" (String.length sim_tr);
  Printf.printf "%-24s | %12d\n" "trace events" trace_events;
  Printf.printf "%-24s | %12b\n" "det identical (3 ways)" det_identical;
  Printf.printf "%-24s | %12b\n" "hist sum = ledger" hist_ledger_equal;
  write_json ~path:"BENCH_obs.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "obs");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("reps", Bench_json.Int reps);
        ("runs_per_sample", Bench_json.Int runs_per_sample);
        ("engine_n", Bench_json.Int en);
        ("engine_t", Bench_json.Int et);
        ("sessions", Bench_json.Int k);
      ]
    ~rows:
      [
        [
          ("bare_s", Bench_json.Float bare_s);
          ("full_s", Bench_json.Float full_s);
          ("overhead_pct", Bench_json.Float overhead_pct);
          ("honest_bits", Bench_json.Int r1.Workload.honest_bits);
          ("span_bits", Bench_json.Int span_bits);
          ("jsonl_bytes", Bench_json.Int (String.length j1));
          ("ledger_equality", Bench_json.Bool ledger_equality);
          ("deterministic_jsonl", Bench_json.Bool deterministic_jsonl);
          ("engine_rounds",
           Bench_json.Int sim_o.Engine.aggregate.Engine.engine_rounds);
          ("det_jsonl_bytes", Bench_json.Int (String.length sim_j));
          ("trace_bytes", Bench_json.Int (String.length sim_tr));
          ("trace_events", Bench_json.Int trace_events);
          ("det_identical", Bench_json.Bool det_identical);
          ("hist_ledger_equal", Bench_json.Bool hist_ledger_equal);
        ];
      ]

(* ------------------------------------------------------------------ *)
(* PARALLEL: multicore fan-out throughput and bit-identity             *)
(* ------------------------------------------------------------------ *)

let parallel_bench () =
  let recommended = Pool.recommended () in
  header
    (Printf.sprintf
       "PARALLEL  --  experiment fan-out over the domain pool  (recommended \
        domains on this host: %d)" recommended)
    "Engineering table (no paper claim): independent experiment cells (seed x\n\
     adversary x n x l grid points) fan out over the fixed domain pool. The hard\n\
     invariant is bit-identity — every domain count must reproduce the sequential\n\
     results and the engine's sequential ledger exactly; the throughput column is\n\
     hardware-honest (the speedup gate is enforced only where the host has the\n\
     cores to meet it, and reports itself unenforced elsewhere).";
  let n = 10 and t = 3 in
  let bits = if !smoke then 1 lsl 8 else 1 lsl 11 in
  let cell_count = if !smoke then 8 else 32 in
  (* Cells are rebuilt per run: thunks construct their own PRNGs and
     adversaries, so a sweep is a pure function of the grid. *)
  let mk_cells () =
    List.init cell_count (fun i ->
        Workload.cell ~label:(Printf.sprintf "cell-%d" i) (fun () ->
            let rng = Prng.create (6000 + i) in
            let inputs =
              Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
            in
            let r =
              Workload.run_int ~n ~t
                ~corrupt:(Workload.spread_corrupt ~n ~t)
                ~adversary:(Adversary.equivocate ~seed:(6100 + i))
                ~inputs Workload.pi_z.Workload.run
            in
            assert (r.Workload.agreement);
            (r.Workload.honest_bits, r.Workload.rounds, r.Workload.labels)))
  in
  (* Parallel engine runs must replay the sequential ledger exactly —
     outputs, per-session metrics, aggregate, Det obs export (the same
     invariant test_multicore.ml asserts; re-checked here so `make bench`
     cannot publish numbers from a divergent run). Two executions of one run
     compared, so no ledger column carries it. *)
  let engine_fingerprint domains =
    let k = if !smoke then 4 else 8 in
    let en = 7 and et = 2 in
    let specs =
      List.init k (fun s ->
          let inputs =
            let rng = Prng.create (6900 + s) in
            Workload.clustered_bits rng ~n:en ~bits:64 ~shared_prefix_bits:32
          in
          Engine.session ~sid:s ~start_round:s
            ~adversary:(Adversary.equivocate ~seed:(6950 + s))
            (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
    in
    let obs = Obs.create () in
    let outcome =
      Engine.run_sim ~domains ~obs ~n:en ~t:et
        ~corrupt:(Workload.spread_corrupt ~n:en ~t:et)
        specs
    in
    ( List.map
        (fun r ->
          ( r.Engine.r_sid,
            Array.to_list (Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs),
            r.Engine.r_metrics.Metrics.honest_bits,
            Metrics.labels r.Engine.r_metrics ))
        outcome.Engine.sessions,
      outcome.Engine.aggregate,
      Obs.to_jsonl ~tier:Obs.Det obs )
  in
  let engine_base = engine_fingerprint 1 in
  List.iter
    (fun d ->
      if engine_fingerprint d <> engine_base then
        failwith
          (Printf.sprintf
             "parallel: engine run at domains=%d does not replay the \
              sequential ledger" d))
    [ 2; 4 ];
  Printf.printf "engine replay gate: domains 2 and 4 reproduce the sequential \
                 ledger byte-for-byte\n\n";
  (* Throughput sweep. *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_wall = time (fun () -> Workload.run_cells ~domains:1 (mk_cells ())) in
  let domain_counts = List.sort_uniq compare [ 1; 2; 4; recommended ] in
  Printf.printf "%-8s | %10s | %10s | %10s | %10s\n" "domains" "wall s"
    "cells/s" "speedup" "identical";
  print_endline line;
  let json_rows = ref [] in
  List.iter
    (fun d ->
      let results, wall =
        if d = 1 then (seq, seq_wall)
        else time (fun () -> Workload.run_cells ~domains:d (mk_cells ()))
      in
      (* The fan-out must be bit-identical to the sequential sweep. *)
      let identical = results = seq in
      let cells_per_s = float_of_int cell_count /. wall in
      let speedup = seq_wall /. wall in
      Printf.printf "%-8d | %10.3f | %10.1f | %9.2fx | %10b\n" d wall
        cells_per_s speedup identical;
      json_rows :=
        [
          ("domains", Bench_json.Int d);
          ("wall_s", Bench_json.Float wall);
          ("cells_per_s", Bench_json.Float cells_per_s);
          ("speedup_vs_seq", Bench_json.Float speedup);
          ("identical", Bench_json.Bool identical);
        ]
        :: !json_rows)
    domain_counts;
  write_json ~path:"BENCH_parallel.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "parallel");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("cells", Bench_json.Int cell_count);
        ("recommended_domains", Bench_json.Int recommended);
      ]
    ~rows:(List.rev !json_rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("f1", f1); ("claims", claims); ("t4", t4);
    ("t5", t5); ("t6", t6); ("t7", t7); ("t8", t8); ("auth", auth_exp);
    ("adaptive", adaptive_exp); ("t9", t9);
    ("engine", engine_bench); ("substrate", substrate); ("obs", obs_bench);
    ("parallel", parallel_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  domains := Pool.recommended ();
  let rec parse ids = function
    | [] -> List.rev ids
    | "--smoke" :: rest ->
        smoke := true;
        parse ids rest
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains := d;
            parse ids rest
        | _ ->
            Printf.eprintf "--domains expects an integer >= 1, got %S\n" v;
            exit 2)
    | [ "--domains" ] ->
        prerr_endline "--domains expects a value";
        exit 2
    | id :: rest -> parse (id :: ids) rest
  in
  let ids = parse [] args in
  Bench_json.set_domains !domains;
  Printf.printf "domains: %d (host recommends %d)\n" !domains (Pool.recommended ());
  let requested =
    match ids with _ :: _ -> ids | [] -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f ->
          (* Major-heap state left behind by one experiment must not skew the
             next one's wall-clock (allocation-heavy measurements pay for GC
             work proportional to live heap): start each experiment from a
             compacted heap, as a standalone run would. *)
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.printf "\n[%s completed in %.1fs]\n" id (Unix.gettimeofday () -. t0)
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
