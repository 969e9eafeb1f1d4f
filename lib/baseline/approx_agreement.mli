(** Synchronous Approximate Agreement [16]: iterated trimmed averaging — the
    historical root of honest-range validity and the natural comparison
    point for CA (Section 1.1).

    Guarantees for t < n/3: outputs stay within the honest inputs' range
    (each iteration trims the t lowest/highest received values, so every
    survivor is bracketed by honest values); the honest diameter contracts
    geometrically, reaching ε-agreement in O(log(diameter/ε)) iterations —
    but never {e exact} Agreement, which is what separates AA from CA (see
    the clock-ordering example).

    Communication: O(rounds · ℓ · n²). *)

val run :
  Net.Ctx.t -> bits:int -> rounds:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** [run ctx ~bits ~rounds v] performs [rounds] averaging iterations on
    [bits]-wide values. [rounds = 0] returns the input unchanged. *)
