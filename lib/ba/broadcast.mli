(** Synchronous Byzantine Broadcast (BC) for [t < n/3], by the classical
    reduction to BA: the designated sender sends its value to everyone, then
    all parties run Π_BA on what they received.

    Guarantees: Termination and Agreement always; if the sender is honest,
    every honest party outputs the sender's value (Validity). The output for
    a byzantine sender is an arbitrary — but common — value.

    This is the primitive behind the introduction's "trivial" CA construction
    (broadcast every input, then apply a deterministic choice function),
    implemented as [Baseline.Broadcast_ca]. Cost for an ℓ-bit value: O(ℓn)
    for the send plus BITS_ℓ(Π_BA) — with the phase-king Π_BA, O(ℓn² + n³)
    when the honest parties received the same value and up to O(ℓn³) when
    corrupt kings keep their values changing. *)

val run :
  'v Phase_king.spec -> Net.Ctx.t -> sender:int -> 'v -> 'v Net.Proto.m
(** [run spec ctx ~sender v]: every party joins; only [sender]'s input is
    meaningful (other parties may pass anything, e.g. [spec.default]).
    Raises [Invalid_argument] on an out-of-range sender. *)

val run_bytes : Net.Ctx.t -> sender:int -> string -> string Net.Proto.m
