(** Convex Agreement over fixed-precision rationals.

    The paper (Section 1) notes that integer inputs are without loss of
    generality: "one could alternatively interpret the inputs being rational
    numbers with some arbitrary pre-defined precision". This module is that
    interpretation, packaged: a value is an integer count of 10^-decimals
    units, precision is a public parameter (like n and t), and agreement is
    Π_ℤ on the unit counts — a monotone bijection, so convexity transfers
    exactly.

    For the measurement-flavoured applications of the paper's introduction:
    temperatures ("-10.04"), prices, coordinates. *)

type t

val of_units : decimals:int -> Bigint.t -> t
(** [of_units ~decimals u] is the rational u·10^-decimals.
    Raises [Invalid_argument] if [decimals < 0]. *)

val of_bigint : decimals:int -> Bigint.t -> t
(** [of_bigint ~decimals v] is the integer [v] at the given precision. *)

val of_string : decimals:int -> string -> t
(** [of_string ~decimals "-10.04"] parses an optionally-signed decimal
    literal. The fractional part is right-padded with zeros to [decimals]
    digits; literals with more fractional digits than [decimals] are
    rejected rather than silently rounded. Raises [Invalid_argument] on
    malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val units : t -> Bigint.t
val decimals : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
(** Arithmetic on matching precisions; mixing precisions raises
    [Invalid_argument] (precision is a protocol parameter, not data). *)

val agree : Net.Ctx.t -> t -> t Net.Proto.m
(** Π_ℤ on the unit counts. All honest parties must join with the same
    [decimals]. *)

val in_convex_hull : inputs:t list -> t -> bool
(** Convex-hull membership at the rational level, for tests/harnesses. *)
