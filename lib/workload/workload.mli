(** Workload generation and scenario running for the examples, the CLI and
    the benchmark harness: realistic input distributions (the application
    domains from the paper's introduction), adversarial input placement, a
    uniform protocol interface, and a run-report with the Definition 1
    property checks. All generators are deterministic in the supplied
    {!Net.Prng.t}. *)

(** {1 Input distributions} *)

val sensor_readings :
  Net.Prng.t -> n:int -> base:int -> jitter:int -> Bigint.t array
(** Centi-degree readings clustered in [base ± jitter] — the cooling-room
    sensors of the paper's introduction (may be negative). *)

val price_feed :
  Net.Prng.t -> n:int -> base:string -> decimals:int -> spread_ppm:int -> Bigint.t array
(** Fixed-point price observations around [base] within a parts-per-million
    band — the blockchain-oracle application. *)

val timestamps :
  Net.Prng.t -> n:int -> now_ns:string -> skew_ns:int -> Bigint.t array
(** Nanosecond clocks skewed at most [skew_ns] around [now_ns] — the
    transaction-ordering application. *)

val uniform_bits : Net.Prng.t -> n:int -> bits:int -> Bigint.t array
(** Uniform ℓ-bit values with the top bit set. *)

val clustered_bits :
  Net.Prng.t -> n:int -> bits:int -> shared_prefix_bits:int -> Bigint.t array
(** ℓ-bit values sharing a common prefix — controls where FINDPREFIX's
    search bottoms out. *)

(** {1 Adversarial input placement} *)

type input_attack =
  | Honest_inputs  (** corrupted parties keep their generated inputs *)
  | Outlier_high  (** report an absurdly high value (the +100 °C sensor) *)
  | Outlier_low
  | Split_extremes  (** half low, half high — widens both tails *)

val apply_input_attack :
  input_attack -> corrupt:bool array -> Bigint.t array -> Bigint.t array

val input_attacks : input_attack list
(** Every constructor, in declaration order. *)

val input_attack_name : input_attack -> string

(** {1 Scenario running} *)

type report = {
  outputs : Bigint.t list;  (** honest parties' outputs *)
  agreement : bool;
  convex_validity : bool;  (** w.r.t. the honest inputs *)
  honest_bits : int;
  byz_bits : int;
  rounds : int;
  labels : (string * int) list;  (** per-component honest bits *)
}

val spread_corrupt : n:int -> t:int -> bool array
(** Deterministic corrupt-set placement spread across the index space. *)

val random_corrupt : Net.Prng.t -> n:int -> count:int -> bool array
(** [count] distinct parties drawn uniformly from [rng]: one [Prng.int rng n]
    per draw, redrawing an index already taken. *)

val check_ca : corrupt:bool array -> inputs:Bigint.t array -> Bigint.t list -> bool * bool
(** [check_ca ~corrupt ~inputs outputs] is Definition 1's [(agreement,
    convex_validity)] for one run's honest [outputs]: agreement needs at
    least one output and all of them equal; convex validity needs each inside
    the range of the entries of [inputs] whose party is not in [corrupt]. *)

val run_int :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  ?setup:[ `Plain | `Authenticated ] ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  adversary:Net.Adversary.t ->
  inputs:Bigint.t array ->
  (Net.Ctx.t -> Bigint.t -> Bigint.t Net.Proto.t) ->
  report
(** [max_rounds], [obs] and [setup] are handed to the underlying
    {!Net.Sim.run}; [setup] (default [`Plain]) must be [`Authenticated] for
    protocols built on a cryptographic setup ({!pi_z_auth}). *)

(** {1 Protocols under a uniform Bigint interface} *)

type protocol = {
  proto_name : string;
  run : Net.Ctx.t -> Bigint.t -> Bigint.t Net.Proto.t;
  solves_ca : bool;  (** false for plain-BA comparators: no convex validity *)
}

val pi_z : protocol
(** Π_ℤ — this paper. *)

val pi_z_auth : Auth.Setup.t -> protocol
(** Π_ℤ with its BA sub-calls routed through the authenticated t < n/2
    substrate ({!Auth.Auth_ba.substrate}: n parallel Dolev–Strong
    broadcasts and the (t+1)-th smallest of the common view) instead of
    phase king. The surrounding CA machinery keeps its own t < n/3 counting
    arguments, so the composite's resilience is still t < n/3 — this is the
    seam demonstrator, not a resilience upgrade (native t < n/2 CA is
    {!Auth.Auth_ca}). Supply a {!Auth.Setup.t} fresh for this run
    (signers are stateful) with capacity ≥
    [Auth.Auth_ba.required_capacity ~n ~instances:64], and pass
    [~setup:`Authenticated] to {!run_int}. *)

val pi_z_adaptive : ?stats_of:(int -> Adaptive.stats) -> unit -> protocol
(** Π_ℤ behind the fault-adaptive fast path ({!Adaptive.agree_int} over the
    unauthenticated substrate): O(nℓ + n²κ) bits in the zero-fault run,
    preamble + full Π_ℤ otherwise. [stats_of] supplies each party's
    accounting record (one per (party, run) — never share across runs). *)

val pi_z_adaptive_auth :
  ?stats_of:(int -> Adaptive.stats) -> Auth.Setup.t -> protocol
(** The fast path over the authenticated fallback ({!pi_z_auth}'s stack).
    Same setup discipline as {!pi_z_auth}: fresh {!Auth.Setup.t}, capacity ≥
    [required_capacity ~n ~instances:64], run with [~setup:`Authenticated]. *)

val high_cost_ca : bits:int -> protocol
val broadcast_ca : bits:int -> protocol
val median_ba : bits:int -> protocol
val turpin_coan_ba : bits:int -> protocol
val phase_king_ba : bits:int -> protocol
val approx_agreement : bits:int -> rounds:int -> protocol
(** Fixed-width comparators; inputs are clamped to [bits] (magnitudes). *)

val to_fixed : bits:int -> Bigint.t -> Bitstring.t
(** The clamping fixed-width adapter the comparators use. *)

val king_injector : payload:string -> Net.Adversary.t
(** The textbook attack motivating CA: a corrupted early-phase king injects
    the value whose encoding is [payload] (sent as
    {!Ba.Phase_king.king_message}[ payload]) while honest parties (whose inputs differ) are unlocked; plain
    BA then outputs the byzantine value. *)
