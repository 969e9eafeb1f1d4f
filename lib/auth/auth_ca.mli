(** Convex Agreement in the authenticated setting, t < n/2 — the classical
    (communication-heavy) baseline for the regime the paper's conclusion
    leaves open.

    {!Auth_ba}'s rule over [bits]-wide values: every party broadcasts its
    input via {!Dolev_strong}, the n instances in parallel, and the common
    view's (t+1)-th smallest entry is the output — with n > 2t at most t
    entries sit below the smallest honest input and at least t+1 sit at or
    below the largest, so the choice is inside the honest range, and
    identical views give identical outputs (Definition 1 at t < n/2).

    Cost: n Dolev–Strong instances — O(ℓn³ + n³·t·σ) bits, t+1 rounds.
    Closing this gap to O(ℓn) at t < n/2 is the open problem. *)

val run :
  Setup.t -> Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** Requires a [ctx] satisfying the authenticated bound
    ({!Net.Ctx.make_authenticated}), the {!Setup} whose PKI all parties
    share, and [bits]-wide honest inputs. Telemetry label: ["auth_ca"]. *)
