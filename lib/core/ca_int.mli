(** Π_ℤ (Section 6, Corollaries 1–2): Convex Agreement over the integers —
    the paper's headline protocol. One binary Π_BA agrees on a sign (always
    some honest party's sign, so 0 is a valid stand-in for out-voted
    parties), then Π_ℕ runs on the magnitudes.

    With the repository's deterministic Π_BA: communication
    O(ℓn + κ·n²·log²n)·(1 + o(1)) and rounds O(n log n) — Corollary 2, up to
    the Π_BA substitution recorded in DESIGN.md. *)

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> Bigint.t -> Bigint.t Net.Proto.t
  (** [run ctx v] joins Π_ℤ with input [v]; honest parties obtain a common
      integer within their inputs' range (Definition 1).  [B] fills the
      paper's Π_BA position throughout the stack (sign BA, length probes,
      Π_BA+ roots, ADDLASTBIT, GETOUTPUT).  Returns the reified protocol,
      which the round loop runs and timing layers wrap; a protocol that
      runs Π_ℤ inside its own [let*] chain uses {!Net.Proto.lift}. *)

  val cost_estimate :
    Net.Ctx.t -> value_bits:int -> f:int -> Ba.Substrate.cost
  (** f-sensitive cost model for one Π_ℤ run, composed from the sign BA,
      Π_ℕ's length probes and the FINDPREFIX search — reports (f, bits,
      rounds) and inherits whatever f-adaptivity [B]'s
      {!Ba.Substrate.S.cost} has.  Order-of-magnitude, for planning and
      ledgers.  It charges the bit search's ⌈log₂(ℓ+1)⌉ iterations at every
      ℓ, although Π_ℕ runs the block search once ℓ > n²: at n=13, ℓ=2^13 it
      charges 14 iterations (896 of 1121 rounds) where the run takes 8 (558
      rounds). [test_convex.ml] pins this gap. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
