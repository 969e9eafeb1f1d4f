(** Authenticated multivalued Byzantine Agreement for t < n/2 — the
    quorum-certificate backend of the Π_BA seam ({!Ba.Substrate.S}).

    A view-by-view leader protocol in the Momose–Ren spirit: signed inputs
    form input certificates, leaders propose values justified by the
    highest-view certificate they know, quorums of signed votes form lock
    certificates, and a final resolution round converges every honest party
    on the highest-view certificate.  With t < n/2 every certificate of
    n − t signatures contains an honest one — the fact that replaces the
    t < n/3 counting arguments of the plain model.

    Costs: 4t + 7 rounds, O(n²) messages per view, each carrying at most a
    quorum of signatures. *)

val run :
  Setup.t -> 'v Ba.Substrate.spec -> Net.Ctx.t -> instance:int -> 'v -> 'v Net.Proto.m
(** Byzantine Agreement on ['v] at t < n/2, signing with the XMSS keys of
    [setup] (party [i] signs with [setup.signers.(i)] only).  [instance]
    domain-separates signatures across concurrent or sequential invocations
    sharing one [setup]; honest parties must agree on it (it is a protocol
    parameter).  If no value is certified in any view the output is
    [spec.default].  Over a two-value domain the output is always some
    honest party's input (the external-validity shape Π_ℤ's bit decisions
    need).  Raises [Invalid_argument] if the setup size mismatches [ctx] or
    2t ≥ n.  Telemetry label: ["auth_ba"]. *)

val rounds : t:int -> int
(** [4t + 7]: 2 input rounds, 4 per view over t+1 views, 1 resolution. *)

val required_capacity : t:int -> instances:int -> int
(** [instances × (t + 2)]: the per-party XMSS capacity a protocol opening
    [instances] BA instances needs; Π_ℤ over {!substrate} opens one per
    Π_BA call. *)

val substrate : Setup.t -> (module Ba.Substrate.S)
(** The authenticated backend of the Π_BA seam: name ["auth-quorum"],
    assumption [`Authenticated], resilience t < n/2.

    The returned module embeds an instance counter that advances on every
    [run]: honest parties open BA instances in a common order (they branch
    only on agreed data), so tags stay synchronized without an [instance]
    parameter in the seam.  Create the substrate {e per party, inside the
    protocol closure}, from a setup fresh for this run — signers are
    stateful and instance tags restart at 0 per substrate.

    Note the resilience split: plugging this substrate into the functorized
    Π_ℤ stack ([Convex.Ca_int.Make]) upgrades the BA sub-calls to quorum
    certificates, but the surrounding CA machinery keeps its own t < n/3
    counting arguments — the composite still requires t < n/3.  Native
    t < n/2 CA is {!Auth_ca}. *)
