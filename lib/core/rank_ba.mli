(** Byzantine Agreement with k-Rank (interval) Validity — the generalization
    of median validity to an arbitrary order statistic, per Melnyk and
    Wattenhofer [36]: the common output lies within t ranks of the k-th
    lowest honest input.

    {b Achievability caveat}: without identical views a king-based protocol
    cannot pin {e extreme} ranks, so the target rank is clamped to the sound
    regime [t+1, (n−t)−t]; for ranks inside it the output lies in
    [h_(rank−t), h_(rank+t)], and more extreme requests degrade gracefully
    toward the median's guarantee.  k = ⌈(n−t)/2⌉ is {!Median_ba}, which
    runs on this window.

    Built on {!High_cost_ca.run_custom}: O(ℓ·n³) bits, 2 + 4(t+1) rounds. *)

val rank_window :
  rank:int -> sorted:Bitstring.t array -> k:int -> t:int -> Bitstring.t * Bitstring.t
(** The trusted interval a party derives from its [sorted] received values
    ([k] of which may be byzantine): [(low, high)] sitting inside
    [h_(r−t), h_(r+t)] for the clamped rank r, and containing h_r itself —
    so all honest trusted intervals share a common point, the precondition
    the king search needs.  Exposed for the property tests. *)

val run : Net.Ctx.t -> bits:int -> rank:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** [run ctx ~bits ~rank v] — [rank] is 1-indexed among the honest inputs
    and must be the same public value at every honest party; all honest
    parties join with [bits]-bit values.  Raises [Invalid_argument] if
    [rank < 1].  Telemetry label: ["rank_ba"]. *)

val validity_bounds :
  Bitstring.t list -> rank:int -> t:int -> Bitstring.t -> bool
(** [validity_bounds honest_inputs ~rank ~t output]: does [output] satisfy
    the promised window [h_(r−t), h_(r+t)] for the clamped rank r?  For
    tests and monitors.  Raises [Invalid_argument] on an empty input list. *)
