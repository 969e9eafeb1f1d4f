(** GETOUTPUT (Section 3, Lemma 3): given an agreed prefix of a valid value,
    decide between its minimal completion MIN_ℓ (pad with zeros) and maximal
    completion MAX_ℓ (pad with ones).

    At least t+1 honest parties hold valid values [v_bot] not extending
    [prefix_star]; each announces on which side its value falls. The majority
    announcement bit a party receives was necessarily sent by an honest
    party, and a final binary Π_BA makes the choice common.

    Cost: one announcement round (O(n²) bits) + one bit-BA. *)

module Make (B : Ba.Substrate.S) : sig
  val run :
    Net.Ctx.t ->
    bits:int ->
    prefix_star:Bitstring.t ->
    Bitstring.t ->
    Bitstring.t Net.Proto.m
  (** [run ctx ~bits ~prefix_star v_bot] returns the common valid output.
      Preconditions (Lemma 3): all honest parties share [prefix_star], a
      prefix of some valid value; t+1 honest parties' [v_bot] do not extend
      it. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
