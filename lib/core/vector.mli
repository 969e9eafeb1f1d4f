(** Coordinate-wise Convex Agreement on integer vectors: Π_ℤ once per
    dimension, under {!Net.Proto.parallel} so the round count is one Π_ℤ's
    worth, not d of them.

    The guarantee is {b box validity}: every coordinate of the common output
    lies within the honest inputs' range in that coordinate — the output is
    inside the honest bounding box.  This is strictly weaker than the
    convex-hull validity of Vaidya–Garg [50] / Mendes–Herlihy [37] (the hull
    sits inside the box); the paper is explicitly uni-dimensional, and box
    validity is exactly what the coordinate-wise trimmed aggregation rules of
    the distributed-learning applications provide, at d × the 1-D cost.

    Communication: d × BITS(Π_ℤ); rounds: ROUNDS(Π_ℤ). *)

val agree : Net.Ctx.t -> Bigint.t array -> Bigint.t array Net.Proto.m
(** [agree ctx v]: all honest parties must join with vectors of the same
    publicly-known dimension; they obtain a common vector inside the honest
    bounding box.  Raises [Invalid_argument] on an empty vector (dimension
    is a protocol parameter; a mismatch across honest parties is a caller
    bug, not byzantine behaviour).  Telemetry label: ["vector_ca"]. *)

val in_box : inputs:Bigint.t array list -> Bigint.t array -> bool
(** Box-hull membership: every coordinate of the output within the honest
    per-coordinate range.  For tests and harnesses; [false] on dimension
    mismatches or an empty input list. *)
