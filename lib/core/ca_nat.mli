(** Π_ℕ (Section 5, Theorem 5): the final CA protocol for natural numbers of
    a priori {e unknown} length. One binary Π_BA splits the run into the
    short (≤ n² bits: probe ℓ_EST by powers of two, run FIXEDLENGTHCA) and
    long (agree on a block size with HIGHCOSTCA, run FIXEDLENGTHCABLOCKS)
    regimes.

    Communication O(ℓn + κ·n²·log²n) + O(log n)·BITS_κ(Π_BA); rounds
    O(n) + O(log n)·ROUNDS_κ(Π_BA). *)

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> Bigint.t -> Bigint.t Net.Proto.m
  (** [run ctx v] joins Π_ℕ with input [v >= 0]; the honest parties obtain a
      common natural within their inputs' range. Raises [Invalid_argument]
      on a negative input. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
