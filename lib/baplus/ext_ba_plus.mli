(** Π_ℓBA+ (Section 7, Theorem 1): Byzantine Agreement for {e long} values
    with Intrusion Tolerance and Bounded Pre-Agreement, at communication cost
    [O(ℓn + κ·n²·log n) + BITS_κ(Π_BA)].

    Construction: each party Reed–Solomon-encodes its ℓ-bit input into [n]
    codewords of O(ℓ/n) bits, commits to them with a Merkle tree, and runs
    Π_BA+ on the κ-bit root [z]. On a non-⊥ root [z*], parties holding the
    matching value ship codeword [j] (with its Merkle witness) to party [j];
    every party then republishes its own authenticated codeword to everyone,
    and [n−t] verified codewords reconstruct the value by erasure decoding.

    Merkle verification makes corrupted codewords detectable, so decoding
    never sees a wrong share; Intrusion Tolerance of Π_BA+ guarantees the
    committed value is an honest input, so reconstruction is consistent. *)

val harvest :
  n:int ->
  checker:Merkle.checker ->
  into:(int, string * string) Hashtbl.t ->
  string option array ->
  unit
(** One distribution round's collection (step 3a or 3b): adds to [into],
    as [index -> (codeword, raw tuple)], each tuple of the inbox whose index
    is in [0, n), not yet in [into], and whose witness [checker] accepts.
    Exposed so the tests can bound its allocation. *)

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> string -> string option Net.Proto.m
  (** [run ctx v] joins Π_ℓBA+ with input [v] (arbitrary bytes). Output
      [None] is ⊥. All honest outputs are equal; a non-⊥ output is an honest
      input (Intrusion Tolerance); ⊥ implies fewer than [n−2t] honest parties
      shared an input (Bounded Pre-Agreement).  The inner Π_BA+ runs on the
      substrate [B]. *)

  val cost_estimate :
    Net.Ctx.t -> value_bits:int -> f:int -> Ba.Substrate.cost
  (** f-sensitive cost model for one Π_ℓBA+ instance: the inner Π_BA+ on the
      κ-bit root plus the two codeword-distribution rounds.  Composes
      {!Ba_plus.Make.cost_estimate}, so a fault-adaptive substrate's early
      stopping propagates.  A planning model, not an accounting identity. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated}. *)
