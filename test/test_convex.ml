(* The paper's core: lemma-level invariants for each subprotocol and the
   Definition 1 properties (Termination, Agreement, Convex Validity) for
   every composed protocol, under adversarial inputs and message strategies. *)

open Net

let bits_t = Alcotest.testable Bitstring.pp Bitstring.equal
let bigint_t = Alcotest.testable Bigint.pp Bigint.equal
let adversaries = Attacks.(instantiate ~seed:2024 ~payload:"" generic)

(* Honest inputs of a run (corrupt parties' inputs are adversary-controlled
   and do not constrain validity). *)
let honest_of ~corrupt arr =
  List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list arr)

let range_of_bits inputs =
  let sorted = List.sort Bitstring.compare inputs in
  (List.hd sorted, List.nth sorted (List.length sorted - 1))

let check_ca_bits name ~corrupt ~inputs outputs =
  (match outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | o :: rest ->
      Alcotest.check Alcotest.bool (name ^ ": agreement") true
        (List.for_all (Bitstring.equal o) rest));
  let lo, hi = range_of_bits (honest_of ~corrupt inputs) in
  List.iter
    (fun o ->
      Alcotest.check Alcotest.bool (name ^ ": convex validity") true
        (Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0))
    outputs

(* ------------------------------------------------------------------ *)
(* HIGHCOSTCA (Appendix A.4)                                           *)
(* ------------------------------------------------------------------ *)

let test_high_cost_ca_basic () =
  let n = 7 and t = 2 and bits = 16 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  List.iter
    (fun adversary ->
      (* Corrupt parties hold wild outlier inputs; honest inputs cluster. *)
      let inputs =
        Array.init n (fun i ->
            if corrupt.(i) then Bitstring.of_int_fixed ~bits 65535
            else Bitstring.of_int_fixed ~bits (1000 + (i * 3)))
      in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
            Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
      in
      check_ca_bits
        (Printf.sprintf "HighCostCA vs %s" adversary.Adversary.name)
        ~corrupt ~inputs
        (Sim.honest_outputs ~corrupt outcome))
    (Adversary.passive :: adversaries)

let test_high_cost_ca_identical_inputs () =
  let n = 4 and t = 1 and bits = 8 in
  let corrupt = Sim.corrupt_first ~n t in
  let v = Bitstring.of_int_fixed ~bits 42 in
  let inputs = Array.make n v in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:(Adversary.garbage ~seed:5) (fun ctx ->
        Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
  in
  List.iter
    (fun o -> Alcotest.check bits_t "identical in, identical out" v o)
    (Sim.honest_outputs ~corrupt outcome)

let test_high_cost_ca_rounds () =
  (* Setup (2) + 4 rounds per king phase x (t+1) phases. *)
  let n = 7 and t = 2 and bits = 8 in
  let corrupt = Array.make n false in
  let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits i) in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
  in
  Alcotest.check Alcotest.int "rounds = 2 + 4(t+1)" (2 + (4 * (t + 1)))
    outcome.Sim.metrics.Metrics.rounds

(* Honest bits of one all-honest, unanimous HIGHCOSTCA in closed form: the
   setup exchanges the encoded input and the interval (two encoded values)
   in full; every search message after them is a one-byte back-reference
   (round 1's current value, round 2's proposal and round 4's vote from
   every party, round 3's from the king): 8(n(n-1)(3|enc v| + 3(t+1)) +
   (t+1)(n-1)). *)
let test_high_cost_ca_closed_form () =
  List.iter
    (fun (n, bits) ->
      let t = (n - 1) / 3 in
      let corrupt = Array.make n false in
      let v = Bitstring.init bits (fun i -> i mod 3 = 0) in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
            Proto.run (Convex.agree_high_cost ctx ~bits v))
      in
      let enc = String.length (Wire.encode_value v) in
      let label = Printf.sprintf "n=%d t=%d bits=%d" n t bits in
      Alcotest.(check int)
        (label ^ ": honest bits")
        (8 * ((n * (n - 1) * ((3 * enc) + (3 * (t + 1)))) + ((t + 1) * (n - 1))))
        outcome.Sim.metrics.Metrics.honest_bits;
      Alcotest.(check int)
        (label ^ ": rounds")
        (2 + (4 * (t + 1)))
        outcome.Sim.metrics.Metrics.rounds;
      List.iter
        (Alcotest.check bits_t (label ^ ": output") v)
        (Sim.honest_outputs ~corrupt outcome))
    [ (4, 2); (4, 64); (7, 64); (13, 194); (10, 1024) ]

let test_high_cost_ca_median_bound () =
  (* Lemma 10: the trusted interval contains v_{t+1}; with passive corrupt
     parties pushing extremes, the output stays within the honest range even
     when corrupt inputs dominate both tails. *)
  let n = 10 and t = 3 and bits = 12 in
  let corrupt = Array.init n (fun i -> i < 2 || i >= n - 1) in
  let inputs =
    Array.init n (fun i ->
        if i < 2 then Bitstring.of_int_fixed ~bits 0
        else if i >= n - 1 then Bitstring.of_int_fixed ~bits 4095
        else Bitstring.of_int_fixed ~bits (2000 + i))
  in
  let outcome =
    Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Proto.run (Convex.agree_high_cost ctx ~bits inputs.(ctx.Ctx.me)))
  in
  check_ca_bits "HighCostCA extremes" ~corrupt ~inputs
    (Sim.honest_outputs ~corrupt outcome)

(* ------------------------------------------------------------------ *)
(* FINDPREFIX (Lemma 1)                                                *)
(* ------------------------------------------------------------------ *)

let run_find_prefix ~n ~t ~corrupt ~adversary ~bits inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.Find_prefix.run ctx ~bits inputs.(ctx.Ctx.me)))

(* Lemma 1 for the bit search ([block_bits] = 1), and Lemma 4 for the block
   search: the same invariants with "bit" read as "block". *)
let check_lemma1 name ~t ~corrupt ~bits ~block_bits ~inputs results =
  let honest_inputs = honest_of ~corrupt inputs in
  let lo, hi = range_of_bits honest_inputs in
  let valid v = Bitstring.compare lo v <= 0 && Bitstring.compare v hi <= 0 in
  (* (common) all honest parties share prefix_star, a whole number of
     blocks. *)
  let p_star = (List.hd results).Convex.Find_prefix.prefix_star in
  List.iter
    (fun r ->
      Alcotest.check bits_t (name ^ ": common prefix") p_star
        r.Convex.Find_prefix.prefix_star)
    results;
  Alcotest.check Alcotest.int (name ^ ": block-aligned") 0
    (Bitstring.length p_star mod block_bits);
  (* prefix_star reaches the honest inputs' longest common prefix, in whole
     blocks: |p*| >= |lcp(honest inputs)| rounded down to a block. *)
  let lcp =
    List.fold_left Bitstring.longest_common_prefix (List.hd honest_inputs)
      (List.tl honest_inputs)
  in
  Alcotest.check Alcotest.bool (name ^ ": at least as long as honest lcp") true
    (Bitstring.length p_star >= Bitstring.length lcp / block_bits * block_bits);
  List.iter
    (fun r ->
      (* (i) v valid with prefix p*. *)
      Alcotest.check Alcotest.bool (name ^ ": v has prefix") true
        (Bitstring.is_prefix ~prefix:p_star r.Convex.Find_prefix.v);
      Alcotest.check Alcotest.bool (name ^ ": v valid") true
        (valid r.Convex.Find_prefix.v);
      Alcotest.check Alcotest.bool (name ^ ": v_bot valid") true
        (valid r.Convex.Find_prefix.v_bot))
    results;
  (* (ii) for any one-block extension of p*, t+1 honest v_bot values do not
     extend it — checked for the all-zero and all-one blocks (the two
     single-bit extensions in the bit search), the cases GETOUTPUT depends
     on. *)
  if Bitstring.length p_star < bits then
    List.iter
      (fun block ->
        let candidate = Bitstring.append p_star block in
        let differing =
          List.length
            (List.filter
               (fun r ->
                 not
                   (Bitstring.is_prefix ~prefix:candidate r.Convex.Find_prefix.v_bot))
               results)
        in
        Alcotest.check Alcotest.bool
          (Printf.sprintf "%s: t+1 honest differ from %s" name
             (Bitstring.to_string candidate))
          true (differing >= t + 1))
      [ Bitstring.zero block_bits; Bitstring.ones block_bits ]

let test_find_prefix_lemma1 () =
  let n = 7 and t = 2 and bits = 16 in
  let corrupt = Array.init n (fun i -> i = 1 || i = 4) in
  let configs =
    [
      ("clustered", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (40000 + i)));
      ("identical", Array.make n (Bitstring.of_int_fixed ~bits 12345));
      ("spread", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 9000)));
      ( "two camps",
        Array.init n (fun i ->
            Bitstring.of_int_fixed ~bits (if i < n / 2 then 100 else 65000)) );
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome = run_find_prefix ~n ~t ~corrupt ~adversary ~bits inputs in
          let results = Sim.honest_outputs ~corrupt outcome in
          check_lemma1
            (Printf.sprintf "FindPrefix[%s] vs %s" cname adversary.Adversary.name)
            ~t ~corrupt ~bits ~block_bits:1 ~inputs results)
        [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:77 ])
    configs

let test_find_prefix_identical_full_prefix () =
  (* With unanimous honest inputs Π_ℓBA+ never returns ⊥, so the prefix
     reaches the full width and v equals the common input. *)
  let n = 4 and t = 1 and bits = 12 in
  let corrupt = Sim.corrupt_first ~n t in
  let v = Bitstring.of_int_fixed ~bits 2742 in
  let inputs = Array.make n v in
  let outcome =
    run_find_prefix ~n ~t ~corrupt ~adversary:Adversary.silent ~bits inputs
  in
  List.iter
    (fun r ->
      Alcotest.check bits_t "full prefix" v r.Convex.Find_prefix.prefix_star;
      Alcotest.check bits_t "v unchanged" v r.Convex.Find_prefix.v)
    (Sim.honest_outputs ~corrupt outcome)

(* The binary search over [1, m] (m = l+1 bit positions, or n^2+1 blocks)
   halves its window each iteration and stops at one position, so it takes
   floor(log2 m) or ceil(log2 m) iterations. *)
let log2_bounds m =
  let rec floor k p = if 2 * p > m then k else floor (k + 1) (2 * p) in
  let lo = floor 0 1 in
  (lo, if 1 lsl lo = m then lo else lo + 1)

let check_search_iterations what ~m iterations =
  let lo, hi = log2_bounds m in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "%s: %d iterations in [%d, %d]" what iterations lo hi)
    true
    (lo <= iterations && iterations <= hi)

module Ext = Baplus.Ext_ba_plus.Make (Ba.Substrate.Unauthenticated)

(* The windows Find_prefix.cost_estimate charges for an l-bit search, along
   the path where every outcome is ⊥: ⌊s/2⌋+1 bits for s = l, ⌊l/2⌋, …, 1. *)
let rec model_windows s = if s = 0 then [] else ((s / 2) + 1) :: model_windows (s / 2)

(* Rounds of the bit-search model, given its iteration count: one Π_ℓBA+
   per iteration, less Π_ℓBA+'s two distribution rounds on each window of
   at most κ = 256 bits, which runs Π_BA+ directly. *)
let model_search_iterations ~bits search_rounds ext_rounds =
  let kappa = 8 * Sha256.digest_size in
  let direct = List.length (List.filter (fun w -> w <= kappa) (model_windows bits)) in
  (search_rounds + (2 * direct)) / ext_rounds

(* Over l in {64, 256, 1024, 4096}; the upper bound is also the iteration
   count Find_prefix.cost_estimate charges. *)
let test_find_prefix_iteration_bound () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun bits ->
      let inputs = Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 999)) in
      let outcome =
        run_find_prefix ~n ~t ~corrupt ~adversary:Adversary.passive ~bits inputs
      in
      List.iter
        (fun r ->
          check_search_iterations
            (Printf.sprintf "bit search, l=%d" bits)
            ~m:(bits + 1) r.Convex.Find_prefix.iterations)
        (Sim.honest_outputs ~corrupt outcome);
      let ctx = Ctx.make ~me:0 ~n ~t in
      let rounds (c : Ba.Substrate.cost) = c.Ba.Substrate.c_rounds in
      Alcotest.check Alcotest.int
        (Printf.sprintf "cost_estimate charges ceil(log2(l+1)) at l=%d" bits)
        (snd (log2_bounds (bits + 1)))
        (model_search_iterations ~bits
           (rounds (Convex.Find_prefix.cost_estimate ctx ~value_bits:bits ~f:0))
           (rounds (Ext.cost_estimate ctx ~value_bits:bits ~f:0))))
    [ 64; 256; 1024; 4096 ]

(* ------------------------------------------------------------------ *)
(* FIXEDLENGTHCA (Theorem 2) end to end                                *)
(* ------------------------------------------------------------------ *)

let run_fixed ~n ~t ~corrupt ~adversary ~bits inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.agree_fixed_length ctx ~bits inputs.(ctx.Ctx.me)))

let test_fixed_length_ca () =
  let n = 7 and t = 2 and bits = 24 in
  let corrupt = Array.init n (fun i -> i = 0 || i = 3) in
  let configs =
    [
      ("identical", Array.make n (Bitstring.of_int_fixed ~bits 99999));
      ("adjacent", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (500000 + i)));
      ("spread", Array.init n (fun i -> Bitstring.of_int_fixed ~bits (i * 2000000)));
      ("zeros and max", Array.init n (fun i ->
           if i land 1 = 0 then Bitstring.zero bits else Bitstring.ones bits));
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome = run_fixed ~n ~t ~corrupt ~adversary ~bits inputs in
          check_ca_bits
            (Printf.sprintf "FixedLengthCA[%s] vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        adversaries)
    configs

let test_fixed_length_ca_outlier_injection () =
  (* The motivating sensor scenario: byzantine parties report +100°C-style
     outliers (here: all-ones) while honest sensors cluster tightly. Convex
     validity forces the output into the honest cluster. *)
  let n = 10 and t = 3 and bits = 20 in
  let corrupt = Array.init n (fun i -> i >= n - t) in
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Bitstring.ones bits
        else Bitstring.of_int_fixed ~bits (700000 + i))
  in
  let outcome = run_fixed ~n ~t ~corrupt ~adversary:Adversary.passive ~bits inputs in
  List.iter
    (fun o ->
      let v = Bitstring.to_int o in
      Alcotest.check Alcotest.bool "output inside honest cluster" true
        (v >= 700000 && v <= 700000 + n - t - 1))
    (Sim.honest_outputs ~corrupt outcome)

let test_fixed_length_one_bit () =
  let n = 4 and t = 1 and bits = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  let inputs =
    [| Bitstring.of_string "1"; Bitstring.of_string "0"; Bitstring.of_string "1";
       Bitstring.of_string "0" |]
  in
  let outcome = run_fixed ~n ~t ~corrupt ~adversary:(Adversary.bitflip ~seed:3) ~bits inputs in
  check_ca_bits "1-bit CA" ~corrupt ~inputs (Sim.honest_outputs ~corrupt outcome)

(* ------------------------------------------------------------------ *)
(* Blocks variant (Theorem 4)                                          *)
(* ------------------------------------------------------------------ *)

let test_fixed_length_ca_blocks () =
  let n = 4 and t = 1 in
  let n2 = n * n in
  let bits = n2 * 8 (* 16 blocks of 8 bits = 128-bit values *) in
  let corrupt = Sim.corrupt_first ~n t in
  let mk base i =
    Bigint.to_bitstring_fixed ~bits
      (Bigint.add (Bigint.shift_left (Bigint.of_int base) 90) (Bigint.of_int i))
  in
  let configs =
    [
      ("identical", Array.init n (fun _ -> mk 77 5));
      ("near", Array.init n (fun i -> mk 77 i));
      ("far", Array.init n (fun i -> mk (i * 1000) i));
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Proto.run (Convex.agree_fixed_length_blocks ctx ~bits inputs.(ctx.Ctx.me)))
          in
          check_ca_bits
            (Printf.sprintf "Blocks[%s] vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        [ Adversary.passive; Adversary.garbage ~seed:11; Adversary.crash ~after:10 ])
    configs

(* The block search's two-sided bound, with n^2+1 in place of l+1, at
   every l; its upper bound stays below the bit search's lower one. *)
let test_blocks_fewer_iterations_than_bits () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n t in
  List.iter
    (fun bits ->
      let inputs =
        Array.init n (fun i ->
            Bigint.to_bitstring_fixed ~bits
              (Bigint.add (Bigint.pow2 (bits * 11 / 16)) (Bigint.of_int i)))
      in
      let outcome =
        Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
            Proto.run (Convex.Find_prefix.run_blocks ctx ~bits inputs.(ctx.Ctx.me)))
      in
      List.iter
        (fun r ->
          let it = r.Convex.Find_prefix.iterations in
          check_search_iterations
            (Printf.sprintf "block search, l=%d" bits)
            ~m:((n * n) + 1) it;
          Alcotest.check Alcotest.bool "fewer than the bit search" true
            (it < fst (log2_bounds (bits + 1))))
        (Sim.honest_outputs ~corrupt outcome))
    [ 64; 256; 1024; 4096 ]

let test_find_prefix_blocks_lemma4 () =
  let n = 4 and t = 1 in
  let n2 = n * n in
  let block_bits = 8 in
  let bits = n2 * block_bits in
  let corrupt = [| false; true; false; false |] in
  let configs =
    [
      ( "clustered",
        Array.init n (fun i ->
            Bigint.to_bitstring_fixed ~bits
              (Bigint.add (Bigint.pow2 100) (Bigint.of_int (i * 3)))) );
      ("identical", Array.make n (Bigint.to_bitstring_fixed ~bits (Bigint.pow2 77)));
      ( "spread",
        Array.init n (fun i ->
            Bigint.to_bitstring_fixed ~bits
              (Bigint.mul (Bigint.of_int (i + 1)) (Bigint.pow2 (20 * i)))) );
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Proto.run (Convex.Find_prefix.run_blocks ctx ~bits inputs.(ctx.Ctx.me)))
          in
          check_lemma1
            (Printf.sprintf "Lemma4[%s] vs %s" cname adversary.Adversary.name)
            ~t ~corrupt ~bits ~block_bits ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        [ Adversary.passive; Adversary.garbage ~seed:3; Attacks.window_fabricator ])
    configs

(* ------------------------------------------------------------------ *)
(* Π_ℕ and Π_ℤ (Theorems 5, Corollary 1)                               *)
(* ------------------------------------------------------------------ *)

let check_ca_int name ~corrupt ~inputs outputs =
  (match outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | o :: rest ->
      Alcotest.check Alcotest.bool (name ^ ": agreement") true
        (List.for_all (Bigint.equal o) rest));
  let honest = honest_of ~corrupt inputs in
  List.iter
    (fun o ->
      Alcotest.check Alcotest.bool (name ^ ": convex validity") true
        (Convex.in_convex_hull ~inputs:honest o))
    outputs

let run_nat ~n ~t ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
      Proto.run (Convex.agree_nat ctx inputs.(ctx.Ctx.me)))

let run_int ~n ~t ~corrupt ~adversary inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me))

let test_ca_nat_short_regime () =
  let n = 4 and t = 1 in
  let corrupt = [| false; true; false; false |] in
  let configs =
    [
      ("identical", Array.make n (Bigint.of_int 424242));
      ("mixed lengths", [| Bigint.of_int 3; Bigint.of_int 70000; Bigint.of_int 12; Bigint.of_int 9 |]);
      ("zeros", [| Bigint.zero; Bigint.zero; Bigint.of_int 1; Bigint.zero |]);
      ("all zero", Array.make n Bigint.zero);
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome = run_nat ~n ~t ~corrupt ~adversary inputs in
          check_ca_int
            (Printf.sprintf "Pi_N short[%s] vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        [ Adversary.passive; Adversary.garbage ~seed:4; Adversary.equivocate ~seed:8 ])
    configs

let test_ca_nat_long_regime () =
  (* n = 4 so anything beyond 16 bits takes the blocks path. *)
  let n = 4 and t = 1 in
  let corrupt = [| false; false; true; false |] in
  let big i = Bigint.add (Bigint.pow2 300) (Bigint.of_int (i * 1000)) in
  let inputs = Array.init n big in
  List.iter
    (fun adversary ->
      let outcome = run_nat ~n ~t ~corrupt ~adversary inputs in
      check_ca_int
        (Printf.sprintf "Pi_N long vs %s" adversary.Adversary.name)
        ~corrupt ~inputs
        (Sim.honest_outputs ~corrupt outcome))
    [ Adversary.passive; Adversary.silent; Adversary.garbage ~seed:6 ]

let test_ca_nat_mixed_regimes () =
  (* Some honest parties short, some long: the length-regime agreement must
     still produce a valid common output. *)
  let n = 4 and t = 1 in
  let corrupt = [| true; false; false; false |] in
  let inputs = [| Bigint.zero; Bigint.of_int 7; Bigint.pow2 200; Bigint.of_int 90 |] in
  List.iter
    (fun adversary ->
      let outcome = run_nat ~n ~t ~corrupt ~adversary inputs in
      check_ca_int
        (Printf.sprintf "Pi_N mixed vs %s" adversary.Adversary.name)
        ~corrupt ~inputs
        (Sim.honest_outputs ~corrupt outcome))
    [ Adversary.passive; Adversary.garbage ~seed:21 ]

let test_ca_int_signs () =
  let n = 4 and t = 1 in
  let corrupt = [| false; false; false; true |] in
  let configs =
    [
      ("all negative", [| Bigint.of_int (-10); Bigint.of_int (-40); Bigint.of_int (-20); Bigint.of_int 999 |]);
      ("mixed signs", [| Bigint.of_int (-5); Bigint.of_int 17; Bigint.of_int (-1); Bigint.zero |]);
      ("all positive", [| Bigint.of_int 5; Bigint.of_int 7; Bigint.of_int 6; Bigint.of_int (-9) |]);
      ("zero crossing", [| Bigint.zero; Bigint.of_int (-1); Bigint.of_int 1; Bigint.of_int 100 |]);
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      List.iter
        (fun adversary ->
          let outcome = run_int ~n ~t ~corrupt ~adversary inputs in
          check_ca_int
            (Printf.sprintf "Pi_Z[%s] vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs
            (Sim.honest_outputs ~corrupt outcome))
        [ Adversary.passive; Adversary.garbage ~seed:31; Adversary.crash ~after:6 ])
    configs

let test_ca_int_identical () =
  let n = 7 and t = 2 in
  let corrupt = Sim.corrupt_first ~n t in
  let v = Bigint.of_string "-123456789123456789" in
  let inputs = Array.make n v in
  let outcome = run_int ~n ~t ~corrupt ~adversary:(Adversary.garbage ~seed:1) inputs in
  List.iter
    (fun o -> Alcotest.check bigint_t "unanimous integer kept" v o)
    (Sim.honest_outputs ~corrupt outcome)

(* Property test: random everything. *)
let prop_ca_int_random =
  QCheck.Test.make ~name:"Pi_Z random runs satisfy CA" ~count:20
    QCheck.(triple (int_bound 100000) (int_bound 11) (int_bound 2))
    (fun (seed, adv_idx, spread_kind) ->
      let n = 4 and t = 1 in
      let rng = Prng.create seed in
      let corrupt = Array.make n false in
      corrupt.(Prng.int rng n) <- true;
      let gen_value () =
        let magnitude =
          match spread_kind with
          | 0 -> Bigint.of_int (Prng.int rng 1000)
          | 1 -> Bigint.of_int (1000000 + Prng.int rng 1000)
          | _ -> Bigint.add (Bigint.pow2 (17 + Prng.int rng 60)) (Bigint.of_int (Prng.int rng 500))
        in
        if Prng.bool rng then Bigint.neg magnitude else magnitude
      in
      let inputs = Array.init n (fun _ -> gen_value ()) in
      let adversary =
        List.nth (Adversary.passive :: adversaries)
          (adv_idx mod (1 + List.length adversaries))
      in
      let outcome = run_int ~n ~t ~corrupt ~adversary inputs in
      let honest_outputs = Sim.honest_outputs ~corrupt outcome in
      let honest_inputs = honest_of ~corrupt inputs in
      (match honest_outputs with
      | o :: rest -> List.for_all (Bigint.equal o) rest
      | [] -> false)
      && List.for_all
           (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o)
           honest_outputs)

(* The cost model's regime gap: Ca_int.cost_estimate charges the bit
   search's ceil(log2(l+1)) FINDPREFIX iterations at every l, but Pi_N runs
   the block search once l > n^2. At n=13, l=2^13 the model charges 14
   iterations (878 of its 1103 rounds, nine of them on windows of at most
   κ bits); the run takes 8 block-search iterations and 558 rounds.
   Closing the gap moves the model's numbers, so this pins it until the
   model composes along the regime the protocol takes. *)
let test_cost_model_regime_gap () =
  let n = 13 and t = 4 and bits = 1 lsl 13 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.clustered_bits (Prng.create 13) ~n ~bits ~shared_prefix_bits:(bits / 2)
  in
  let obs = Obs.create () in
  let outcome =
    Sim.run ~obs ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
        Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  check_ca_int "regime gap run" ~corrupt ~inputs (Sim.honest_outputs ~corrupt outcome);
  Alcotest.check Alcotest.bool "no bit search" false
    (List.mem "find_prefix.v" (Obs.probe_keys obs ~session:0));
  (* One probe per iteration and one on exit. *)
  Alcotest.check Alcotest.int "measured block-search iterations" 8
    (List.length (Obs.convergence obs ~session:0 ~key:"find_prefix_blocks.v") - 1);
  Alcotest.check Alcotest.int "measured rounds" 558 outcome.Sim.metrics.Metrics.rounds;
  let ctx = Ctx.make ~me:0 ~n ~t in
  let rounds (c : Ba.Substrate.cost) = c.Ba.Substrate.c_rounds in
  let search = rounds (Convex.Find_prefix.cost_estimate ctx ~value_bits:bits ~f:t) in
  Alcotest.check Alcotest.int "model bit-search iterations" 14
    (model_search_iterations ~bits search
       (rounds (Ext.cost_estimate ctx ~value_bits:bits ~f:t)));
  Alcotest.check Alcotest.int "model search rounds" 878 search;
  Alcotest.check Alcotest.int "model rounds" 1103
    (rounds (Convex.Ca_int.cost_estimate ctx ~value_bits:bits ~f:t))

let test_label_split_shape () =
  (* T5's premise: the only l-dependent label is the RS+Merkle distribution;
     doubling l must leave the k-bit agreement labels (pi_ba_plus) nearly
     unchanged while ext_distribute grows. The corrupted parties are silent,
     so every non-⊥ Π_ℓBA+ window is distributed to them; passive ones
     would hold each agreed window and receive none. *)
  let n = 7 and t = 2 in
  let run bits =
    let corrupt = Workload.spread_corrupt ~n ~t in
    let inputs =
      Array.map
        (fun v -> Bigint.of_bitstring v)
        (Array.init n (fun i ->
             Bigint.to_bitstring_fixed ~bits
               (Bigint.add (Bigint.pow2 (bits - 2)) (Bigint.of_int i))))
    in
    let report =
      Workload.run_int ~n ~t ~corrupt ~adversary:Adversary.silent
        ~inputs:(Array.map Fun.id inputs) Workload.pi_z.Workload.run
    in
    let get label = Option.value ~default:0 (List.assoc_opt label report.Workload.labels) in
    (get "ext_distribute", get "pi_ba_plus")
  in
  let dist1, votes1 = run 4096 in
  let dist2, votes2 = run 8192 in
  Alcotest.check Alcotest.bool "distribution grows with l" true
    (dist2 > dist1 + ((8192 - 4096) / 2));
  Alcotest.check Alcotest.bool "vote traffic l-independent (within 2x)" true
    (votes2 < 2 * max votes1 1 + 200_000)

let suite =
  [
    Alcotest.test_case "HighCostCA basic" `Quick test_high_cost_ca_basic;
    Alcotest.test_case "HighCostCA identical" `Quick test_high_cost_ca_identical_inputs;
    Alcotest.test_case "HighCostCA rounds" `Quick test_high_cost_ca_rounds;
    Alcotest.test_case "HighCostCA extremes" `Quick test_high_cost_ca_median_bound;
    Alcotest.test_case "HighCostCA unanimous bits in closed form" `Quick
      test_high_cost_ca_closed_form;
    Alcotest.test_case "FindPrefix Lemma 1" `Slow test_find_prefix_lemma1;
    Alcotest.test_case "FindPrefix unanimous" `Quick test_find_prefix_identical_full_prefix;
    Alcotest.test_case "FindPrefix iteration bound" `Quick test_find_prefix_iteration_bound;
    Alcotest.test_case "FixedLengthCA" `Slow test_fixed_length_ca;
    Alcotest.test_case "FixedLengthCA outliers" `Quick test_fixed_length_ca_outlier_injection;
    Alcotest.test_case "FixedLengthCA 1-bit" `Quick test_fixed_length_one_bit;
    Alcotest.test_case "FixedLengthCABlocks" `Slow test_fixed_length_ca_blocks;
    Alcotest.test_case "Blocks iteration advantage" `Quick test_blocks_fewer_iterations_than_bits;
    Alcotest.test_case "FindPrefixBlocks Lemma 4" `Quick test_find_prefix_blocks_lemma4;
    Alcotest.test_case "Pi_N short regime" `Quick test_ca_nat_short_regime;
    Alcotest.test_case "Pi_N long regime" `Quick test_ca_nat_long_regime;
    Alcotest.test_case "Pi_N mixed regimes" `Quick test_ca_nat_mixed_regimes;
    Alcotest.test_case "Pi_Z signs" `Quick test_ca_int_signs;
    Alcotest.test_case "Pi_Z unanimous" `Quick test_ca_int_identical;
    Alcotest.test_case "cost model regime gap" `Quick test_cost_model_regime_gap;
    Alcotest.test_case "label split shape" `Quick test_label_split_shape;
    QCheck_alcotest.to_alcotest prop_ca_int_random;
  ]
