(** Π_BA+ (Section 7, Theorem 6): Byzantine Agreement for short (κ-bit)
    values with two extra properties needed by the CA construction:

    - {b Intrusion Tolerance} (Definition 3): the common output is an honest
      party's input or ⊥ — byzantine parties cannot smuggle in a value of
      their own.
    - {b Bounded Pre-Agreement} (Definition 4): the output is ⊥ only if fewer
      than [n − 2t] honest parties share the same input.

    Communication: O(κn²) for the two exchange rounds plus at most four
    invocations of the assumed Π_BA (two on κ-bit values, two on bits).

    The intended inputs are κ-bit hash digests, but any byte values work. *)

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> string -> string option Net.Proto.m
  (** [run ctx v] joins Π_BA+ with input [v]; [None] is the paper's ⊥.  The
      four inner agreement instances run on the substrate [B]. *)

  val run_with_inputs :
    Net.Ctx.t -> string -> (string option array * string option) Net.Proto.m
  (** [run_with_inputs ctx v] is [run ctx v] that also returns what step 1
      delivered: slot [s] holds the input party [s] broadcast ([None] if it
      sent none), slot [me] the party's own. {!Ext_ba_plus} reads the
      parties' Merkle roots from it. Same messages, rounds and output as
      [run]. *)

  val cost_estimate :
    Net.Ctx.t -> value_bits:int -> f:int -> Ba.Substrate.cost
  (** f-sensitive cost model for one Π_BA+ instance: the two value exchanges
      plus two option and two bit instances of [B]'s own {!Ba.Substrate.S.cost}
      — so a fault-adaptive substrate's early stopping propagates through the
      functor seam.  A planning model, not an accounting identity. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
