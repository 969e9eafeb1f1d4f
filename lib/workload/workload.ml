(** Workload generation and scenario running for the examples and the
    benchmark harness: realistic input distributions (the application domains
    from the paper's introduction), adversarial input placement, and a
    uniform run-report with the Definition 1 property checks. *)

open Net

(** {1 Input distributions}

    All generators are deterministic in the supplied PRNG. *)

(** Sensor readings in centi-degrees (ℤ, may be negative): honest values
    cluster in [base − jitter, base + jitter] — e.g. the cooling-room sensors
    of the paper's introduction, base = −1004 (−10.04 °C), jitter ~ 1. *)
let sensor_readings rng ~n ~base ~jitter =
  Array.init n (fun _ ->
      Bigint.of_int (base - jitter + Prng.int rng ((2 * jitter) + 1)))

(** Price-feed observations (ℕ, large fixed-point): honest oracles observe a
    price around [base] (encoded with [decimals] fractional digits) within a
    [spread_ppm] parts-per-million band — the blockchain-oracle application. *)
let price_feed rng ~n ~base ~decimals ~spread_ppm =
  let scale = Bigint.of_string ("1" ^ String.make decimals '0') in
  let base = Bigint.mul (Bigint.of_string base) scale in
  Array.init n (fun _ ->
      let ppm = Prng.int rng ((2 * spread_ppm) + 1) - spread_ppm in
      let delta =
        Bigint.div (Bigint.mul base (Bigint.of_int ppm)) (Bigint.of_int 1_000_000)
      in
      Bigint.add base delta)

(** Timestamps (ℕ, nanoseconds): honest clocks skewed by at most [skew_ns]
    around [now_ns] — the decentralized transaction-ordering application. *)
let timestamps rng ~n ~now_ns ~skew_ns =
  Array.init n (fun _ ->
      Bigint.add (Bigint.of_string now_ns)
        (Bigint.of_int (Prng.int rng ((2 * skew_ns) + 1) - skew_ns)))

(** Uniform ℓ-bit values (top bit set) — the generic long-input workload. *)
let uniform_bits rng ~n ~bits =
  Array.init n (fun _ ->
      Bigint.of_bitstring
        (Bitstring.init bits (fun i -> i = 1 || Prng.bool rng)))

(** ℓ-bit values sharing a common [shared_prefix_bits]-bit prefix — controls
    where FINDPREFIX's binary search bottoms out. *)
let clustered_bits rng ~n ~bits ~shared_prefix_bits =
  if shared_prefix_bits > bits then invalid_arg "Workload.clustered_bits";
  let prefix = Bitstring.init shared_prefix_bits (fun i -> i = 1 || Prng.bool rng) in
  Array.init n (fun _ ->
      Bigint.of_bitstring
        (Bitstring.append prefix
           (Bitstring.init (bits - shared_prefix_bits) (fun _ -> Prng.bool rng))))

(** {1 Adversarial input placement} *)

type input_attack =
  | Honest_inputs  (** corrupted parties keep their generated inputs *)
  | Outlier_high  (** report an absurdly high value (the +100 °C sensor) *)
  | Outlier_low
  | Split_extremes  (** half low, half high — widens both tails *)

let apply_input_attack attack ~corrupt inputs =
  let inputs = Array.copy inputs in
  let magnitude =
    (* Far beyond any honest magnitude in this repository's workloads. *)
    Bigint.pow2 400
  in
  let place i v = if corrupt.(i) then inputs.(i) <- v in
  (match attack with
  | Honest_inputs -> ()
  | Outlier_high -> Array.iteri (fun i _ -> place i magnitude) inputs
  | Outlier_low -> Array.iteri (fun i _ -> place i (Bigint.neg magnitude)) inputs
  | Split_extremes ->
      let flip = ref false in
      Array.iteri
        (fun i _ ->
          if corrupt.(i) then begin
            place i (if !flip then magnitude else Bigint.neg magnitude);
            flip := not !flip
          end)
        inputs);
  inputs

let input_attacks = [ Honest_inputs; Outlier_high; Outlier_low; Split_extremes ]

let input_attack_name = function
  | Honest_inputs -> "honest-inputs"
  | Outlier_high -> "outlier-high"
  | Outlier_low -> "outlier-low"
  | Split_extremes -> "split-extremes"

(** {1 Scenario running} *)

type report = {
  outputs : Bigint.t list;  (** honest parties' outputs *)
  agreement : bool;
  convex_validity : bool;
  honest_bits : int;
  byz_bits : int;
  rounds : int;
  labels : (string * int) list;  (** per-component honest bits *)
}

(** Corrupt-set placement: spread corrupted parties across the index space
    (deterministic; avoids always corrupting a prefix). *)
let spread_corrupt ~n ~t =
  let corrupt = Array.make n false in
  for j = 0 to t - 1 do
    corrupt.(((j * n) / t) + (j mod 2)) <- true
  done;
  (* The formula can collide for small n; repair by filling gaps. *)
  let placed = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt in
  let missing = ref (t - placed) in
  for i = n - 1 downto 0 do
    if !missing > 0 && not corrupt.(i) then begin
      corrupt.(i) <- true;
      decr missing
    end
  done;
  corrupt

let random_corrupt rng ~n ~count =
  let corrupt = Array.make n false in
  let placed = ref 0 in
  while !placed < count do
    let i = Prng.int rng n in
    if not corrupt.(i) then begin
      corrupt.(i) <- true;
      incr placed
    end
  done;
  corrupt

(** Definition 1 on one run's honest outputs: agreement (at least one output,
    all equal) and convex validity (each inside the range of the inputs of
    the parties not in [corrupt]). *)
let check_ca ~corrupt ~inputs outputs =
  let honest_inputs = List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs) in
  let agreement =
    match outputs with [] -> false | o :: rest -> List.for_all (Bigint.equal o) rest
  in
  ( agreement,
    List.for_all (Convex.in_convex_hull ~inputs:honest_inputs) outputs )

(** [run_int] executes a protocol of type Π_ℤ (Bigint in, Bigint out) and
    checks Definition 1 against the honest inputs. *)
let run_int ?max_rounds ?obs ?setup ~n ~t ~corrupt ~adversary
    ~inputs protocol =
  let outcome =
    Sim.run ?max_rounds ?obs ?setup ~n ~t ~corrupt
      ~adversary (fun ctx -> protocol ctx inputs.(ctx.Ctx.me))
  in
  let outputs = Sim.honest_outputs ~corrupt outcome in
  let agreement, convex_validity = check_ca ~corrupt ~inputs outputs in
  {
    outputs;
    agreement;
    convex_validity;
    honest_bits = outcome.Sim.metrics.Metrics.honest_bits;
    byz_bits = outcome.Sim.metrics.Metrics.byz_bits;
    rounds = outcome.Sim.metrics.Metrics.rounds;
    labels = Metrics.labels outcome.Sim.metrics;
  }

(** {1 Protocols under test (uniform Bigint interface)} *)

type protocol = {
  proto_name : string;
  run : Ctx.t -> Bigint.t -> Bigint.t Proto.t;
  solves_ca : bool;  (** false for plain-BA comparators: no convex validity *)
}

let pi_z = { proto_name = "Pi_Z (this paper)"; run = Convex.agree_int; solves_ca = true }

(* Π_ℤ with its BA sub-calls routed through the authenticated t < n/2
   substrate. The substrate (and its instance counter) is created inside the
   per-party closure so every party's BA instance tags advance in lockstep;
   the CA machinery around the seam keeps its own t < n/3 requirement. Run
   under [~setup:`Authenticated] with a [setup] fresh for this run. *)
let pi_z_auth setup =
  {
    proto_name = "Pi_Z over auth-dolev-strong BA (t<n/3; authenticated sub-calls)";
    run =
      (fun ctx v ->
        let module B = (val Auth.Auth_ba.substrate setup) in
        let module CA = Convex.Ca_int.Make (B) in
        CA.run ctx v);
    solves_ca = true;
  }

(* The fault-adaptive CA wrapper (lib/adaptive): optimistic 4-round preamble
   + bit-BA arbitration in front of the full Π_ℤ stack over [fallback].
   [stats_of] maps a party id to the mutable accounting record that party
   should fill — one record per (party, run), so no two runs share one. *)
let pi_z_adaptive ?stats_of () =
  {
    proto_name = "Pi_Z + fault-adaptive fast path";
    run =
      (fun ctx v ->
        let stats = Option.map (fun f -> f ctx.Ctx.me) stats_of in
        Adaptive.agree_int ?stats
          ~fallback:(module Ba.Substrate.Unauthenticated : Ba.Substrate.S)
          ctx v);
    solves_ca = true;
  }

(* Same fast path, falling back to Π_ℤ over the authenticated substrate.
   The arbitration stays plain phase king (see lib/adaptive), so only the
   fallback's interior BA calls are authenticated. *)
let pi_z_adaptive_auth ?stats_of setup =
  {
    proto_name = "Pi_Z + fault-adaptive fast path (auth fallback)";
    run =
      (fun ctx v ->
        let stats = Option.map (fun f -> f ctx.Ctx.me) stats_of in
        let module B = (val Auth.Auth_ba.substrate setup) in
        Adaptive.agree_int ?stats ~fallback:(module B : Ba.Substrate.S) ctx v);
    solves_ca = true;
  }

(* Fixed-width adapters: these comparators need a public bit-length; the
   caller supplies one large enough for every honest input. Out-of-range
   values — byzantine outliers under Honest_inputs-style placement — are
   clamped to the width, as a fixed-width deployment would. *)
let to_fixed ~bits v =
  let m = Bigint.abs v in
  let m = if Bigint.bit_length m > bits then Bigint.pred (Bigint.pow2 bits) else m in
  Bigint.to_bitstring_fixed ~bits m

let high_cost_ca ~bits =
  {
    proto_name = "HighCostCA [47]";
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map (Convex.agree_high_cost ctx ~bits (to_fixed ~bits v)) Bigint.of_bitstring);
    solves_ca = true;
  }

let broadcast_ca ~bits =
  {
    proto_name = "Broadcast-CA (BC each input)";
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map (Baseline.Broadcast_ca.run ctx ~bits (to_fixed ~bits v)) Bigint.of_bitstring);
    solves_ca = true;
  }

let turpin_coan_ba ~bits =
  {
    proto_name = "Turpin-Coan BA [49] (no convex validity)";
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map
          (Ba.Turpin_coan.run_bytes ctx (Bitstring.to_bytes (to_fixed ~bits v)))
          (fun bytes ->
            match Bitstring.of_bytes ~len:bits bytes with
            | Some b -> Bigint.of_bitstring b
            | None -> Bigint.zero));
    solves_ca = false;
  }

let median_ba ~bits =
  {
    proto_name = "Median-validity BA [47]";
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map (Convex.Median_ba.run ctx ~bits (to_fixed ~bits v)) Bigint.of_bitstring);
    solves_ca = true (* median validity implies range validity *);
  }

let phase_king_ba ~bits =
  {
    proto_name = "Phase-king BA [7] (no convex validity)";
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map
          (Ba.Phase_king.run_bytes ctx (Bitstring.to_bytes (to_fixed ~bits v)))
          (fun bytes ->
            match Bitstring.of_bytes ~len:bits bytes with
            | Some b -> Bigint.of_bitstring b
            | None -> Bigint.zero));
    solves_ca = false;
  }

(** The textbook attack that motivates Convex Agreement: a byzantine party
    that happens to be the king of an early phase injects [payload] while the
    honest parties — whose inputs differ, as real measurements always do —
    are unlocked; they all adopt it, and persistence then carries the
    byzantine value to the output. Sound BA, no honest-range guarantee. *)
let king_injector ~payload =
  let msg = Some (Ba.Phase_king.king_message payload) in
  Adversary.make ~name:"king-injector" (fun view ~sender ~recipient ->
      if view.Adversary.round mod 3 = 0 && (view.Adversary.round / 3) - 1 = sender
      then msg
      else Adversary.prescribed_msg view ~sender ~recipient)

let approx_agreement ~bits ~rounds =
  {
    proto_name = Printf.sprintf "ApproxAgreement [16] (%d iter)" rounds;
    run =
      (fun ctx v ->
        Proto.run @@ Proto.map
          (Baseline.Approx_agreement.run ctx ~bits ~rounds (to_fixed ~bits v))
          Bigint.of_bitstring);
    solves_ca = false (* validity yes, exact agreement no *);
  }
