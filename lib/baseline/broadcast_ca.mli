(** The introduction's "straightforward approach" to CA: every party
    broadcasts its input via synchronous Byzantine Broadcast — giving all
    parties an identical view of the n claimed inputs — then a deterministic
    choice function (the median of the t-trimmed common view) yields a valid
    common output.

    Optimal resilience and conceptually simple, but communication-heavy:
    with BC realized as send + phase-king BA each broadcast costs O(ℓn²t)
    bits and the total is O(ℓn³t), O(ℓn⁴) at t ≈ n/3 (O(ℓn²) would itself
    require extension-protocol machinery). The main baseline of experiments
    T1/T2/F1. *)

val run : Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** All honest parties must join with values of width [bits]; the common
    output lies within the honest inputs' range. The n broadcasts run
    sequentially: O(n²) rounds. *)
