(** Byzantine Agreement with Median Validity (Stolz–Wattenhofer [47]) — the
    protocol HIGHCOSTCA was adjusted from. Identical king-based search, but
    the trusted interval is a rank window around the honest median, giving:

    {b t-Median Validity}: the common output lies within
    [h_(m−t), h_(m+t)] for h_1 ≤ ... ≤ h_(n−t) the sorted honest inputs and
    m = ⌈(n−t)/2⌉. (A byzantine value may be output, but only with rank
    within t of the honest median — unavoidable per [47].)

    Same complexity as HIGHCOSTCA: O(ℓ·n³) bits, 2 + 4(t+1) rounds. *)

val run : Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m

val validity_bounds : Bitstring.t list -> t:int -> Bitstring.t -> bool
(** [validity_bounds honest_inputs ~t output]: does [output] satisfy
    t-median validity with respect to [honest_inputs]? For tests and
    monitors. Raises [Invalid_argument] on an empty input list. *)
