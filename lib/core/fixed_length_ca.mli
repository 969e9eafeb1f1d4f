(** FIXEDLENGTHCA (Section 3, Theorem 2) and FIXEDLENGTHCABLOCKS (Section 4,
    Theorem 4): Convex Agreement for ℕ inputs of a publicly known bit-length
    ℓ.

    FINDPREFIX agrees on a valid prefix; if it is full-width the parties
    already share a valid value, otherwise ADDLASTBIT (ADDLASTBLOCK) extends
    it past the honest disagreement point and GETOUTPUT resolves the
    completion.

    Bit version: communication O(ℓn + κ·n²·log n·log ℓ) +
    O(log ℓ)·BITS_κ(Π_BA); rounds O(log ℓ)·ROUNDS_κ(Π_BA). Block version, for
    very long inputs: communication O(ℓn + κ·n²·log²n) + O(log n)·BITS_κ(Π_BA);
    rounds O(n) + O(log n)·ROUNDS_κ(Π_BA). *)

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
  (** FIXEDLENGTHCA. All honest parties must join with the same [bits] and
      valid [bits]-bit values; they obtain a common output within the honest
      inputs' range. Every Π_BA position runs on the substrate [B]; note the
      composite protocol's counting arguments still require [t < n/3]
      regardless of [B.max_t]. *)

  val run_blocks : Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
  (** FIXEDLENGTHCABLOCKS: as {!run}, with [bits] a positive multiple of n². *)

  val add_last_bit :
    Net.Ctx.t ->
    bits:int ->
    prefix_star:Bitstring.t ->
    Bitstring.t ->
    Bitstring.t Net.Proto.m
  (** ADDLASTBIT (Lemma 2): [prefix_star] extended by the bit one binary
      Π_BA on [B] agrees on — always an honest party's bit. Preconditions:
      all honest parties share [prefix_star], [|prefix_star| < bits], and
      hold valid [bits]-bit values [v] extending it. Raises
      [Invalid_argument] on length misuse. *)

  val add_last_block :
    Net.Ctx.t ->
    bits:int ->
    prefix_star:Bitstring.t ->
    Bitstring.t ->
    Bitstring.t Net.Proto.m
  (** ADDLASTBLOCK (Lemma 5): [prefix_star] extended by one block of
      [bits]/n² bits agreed with HIGHCOSTCA — O(ℓn) bits, O(n) rounds.
      Preconditions: [bits] a multiple of n²; all honest parties share
      [prefix_star] (a strict block multiple) and hold valid [bits]-bit
      values extending it. Raises [Invalid_argument] otherwise. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
