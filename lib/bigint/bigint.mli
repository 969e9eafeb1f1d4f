(** Arbitrary-precision integers, built from scratch (the sealed toolchain has
    no zarith). Used as the value model for the CA protocols' inputs in ℤ and
    by the workload generators (ℓ-bit values with ℓ in the thousands).

    Representation: sign + magnitude; magnitudes are little-endian arrays of
    30-bit limbs. All values are normalized (no leading zero limbs; zero is
    positive). *)

type t

(** {1 Constants and construction} *)

val zero : t
val one : t
val of_int : int -> t

val of_string : string -> t
(** Parses an optionally-signed decimal string, e.g. ["-1234"].
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Decimal rendering: repeated short division by 10^9, O(ℓ²/900) limb
    operations for an ℓ-bit value. *)

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= |r| < |b|], [r]
    carrying the sign of [a] (truncated division). Raises [Division_by_zero].
    Limb-wise long division (Knuth's algorithm D): O(|q|·|b|) limb
    operations, O(|a|) for a one-limb divisor. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift on the magnitude (towards zero for negatives). *)

val pow2 : int -> t
(** [pow2 k] is 2^k, [k >= 0]. *)

val pred : t -> t
val succ : t -> t

val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd 0 0 = 0]. *)

(** {1 Hexadecimal I/O} *)

val to_hex : t -> string
(** Lowercase, no leading zeros, ["-"]-prefixed when negative. O(ℓ), one
    pass over the limbs. *)

val of_hex : string -> t
(** Parses an optionally-signed hexadecimal string (["-dead"; "0Ff"]).
    Raises [Invalid_argument] on malformed input. O(ℓ): nibbles are packed
    straight into limbs. *)


(** {1 Bit-level views (bridge to the protocol's bitstrings)} *)

val bit_length : t -> int
(** Number of bits of the magnitude's minimal representation (paper's
    [|BITS(v)|]); [bit_length zero = 1] matching [Bitstring.of_int 0]. *)

val to_int_opt : t -> int option

val to_bitstring : t -> Bitstring.t
(** Minimal binary representation of the magnitude (BITS(|v|)). O(ℓ). *)

val to_bitstring_fixed : bits:int -> t -> Bitstring.t
(** BITS_bits(|v|). Raises [Invalid_argument] if the magnitude does not fit.
    O(bits): limbs are packed into the bitstring's bytes in one pass. *)

val of_bitstring : Bitstring.t -> t
(** VAL — always non-negative. O(ℓ) with one limb-array allocation: the
    packed bytes are read into 30-bit limbs from the least significant end. *)

val of_sign_magnitude : negative:bool -> t -> t
(** Applies a sign to a non-negative magnitude (the paper's
    [(-1)^SIGN · v^ℕ]). Raises [Invalid_argument] on a negative magnitude. *)
