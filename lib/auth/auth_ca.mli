(** Convex Agreement in the authenticated setting, t < n/2 — the classical
    (communication-heavy) baseline for the regime the paper's conclusion
    leaves open.

    Every party broadcasts its input via {!Dolev_strong}; the common view's
    (t+1)-th smallest entry is the output — with n > 2t at most t entries
    sit below the smallest honest input and at least t+1 sit at or below the
    largest, so the choice is inside the honest range, and identical views
    give identical outputs (Definition 1 at t < n/2).

    Cost: n Dolev–Strong instances — O(ℓn³ + n³·t·σ) bits, O(n·t) rounds.
    Closing this gap to O(ℓn) at t < n/2 is the open problem. *)

val run :
  Setup.t -> Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** Requires a [ctx] satisfying the authenticated bound
    ({!Net.Ctx.make_authenticated}) and [bits]-wide honest inputs. The n
    broadcasts run sequentially: O(n·t) rounds. *)

val run_parallel :
  Setup.t -> Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** [run] with the n Dolev–Strong instances composed by
    {!Net.Proto.parallel}: identical outputs, t+1 rounds. *)
