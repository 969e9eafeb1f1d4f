(** Authenticated multivalued Byzantine Agreement for t < n/2 — the
    authenticated backend of the Π_BA seam ({!Ba.Substrate.S}).

    n parallel {!Dolev_strong} broadcasts, one per party's input, give every
    honest party the same view; the output is the (t+1)-th smallest
    decodable value of that view, ordered by its canonical encoding. With
    t < n/2 the honest values are a majority of the view, so the output lies
    between two honest inputs: Agreement, Validity, and over a two-value
    domain some honest party's input (Lemma 2). {!Auth_ca} runs the same
    rule on fixed-width values.

    Costs: t + 1 rounds; n Dolev–Strong instances, O(n³) signatures. *)

val common_view :
  Setup.t -> 'v Ba.Substrate.spec -> Net.Ctx.t -> instance:int -> 'v -> 'v Net.Proto.m
(** [run] without its telemetry label: the one rule {!run} and {!Auth_ca.run}
    wrap, each under its own label. *)

val run :
  Setup.t -> 'v Ba.Substrate.spec -> Net.Ctx.t -> instance:int -> 'v -> 'v Net.Proto.m
(** Byzantine Agreement on ['v] at t < n/2, signing with the XMSS keys of
    [setup] (party [i] signs with [Setup.signer setup i] only).  [instance]
    domain-separates signatures across concurrent or sequential invocations
    sharing one [setup]; honest parties must agree on it (it is a protocol
    parameter).  Honest inputs must decode under [spec]; the output is
    [spec.default] only if the view holds fewer than t + 1 decodable values,
    which t corruptions cannot bring about.  Raises [Invalid_argument] if the
    setup size mismatches [ctx] or 2t ≥ n.  Telemetry label: ["auth_ba"]. *)

val rounds : t:int -> int
(** [t + 1]: Dolev–Strong's rounds; the n broadcasts run in parallel. *)

val required_capacity : n:int -> instances:int -> int
(** [instances × 2n]: the per-party XMSS capacity a protocol opening
    [instances] BA instances needs (a party signs at most twice in each of
    an instance's n broadcasts); Π_ℤ over {!substrate} opens one per Π_BA
    call. *)

val substrate : Setup.t -> (module Ba.Substrate.S)
(** The authenticated backend of the Π_BA seam: name ["auth-dolev-strong"],
    assumption [`Authenticated], resilience t < n/2.

    The returned module embeds an instance counter that advances on every
    [run]: honest parties open BA instances in a common order (they branch
    only on agreed data), so tags stay synchronized without an [instance]
    parameter in the seam.  Create the substrate {e per party, inside the
    protocol closure}, from a setup fresh for this run — signers are
    stateful and instance tags restart at 0 per substrate.

    Note the resilience split: plugging this substrate into the functorized
    Π_ℤ stack ([Convex.Ca_int.Make]) makes the BA sub-calls authenticated,
    but the surrounding CA machinery keeps its own t < n/3 counting
    arguments — the composite still requires t < n/3.  Native t < n/2 CA is
    {!Auth_ca}. *)
