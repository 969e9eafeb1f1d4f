(** Packed bitstrings with the notation of Section 2 of the paper.

    A value [b : t] is a finite sequence of bits [B1 B2 ... Bk], indexed from 1
    (leftmost / most significant) as in the paper. Bits are packed MSB-first
    into bytes. All operations are pure; the underlying buffer is never
    mutated after construction.

    Costs are stated in ℓ, the length in bits of the operands. The
    structural and comparison kernels work a byte (or an 8-byte word) at a
    time, so their O(ℓ) is ℓ/8 steps; only [init], [get]-driven code and the
    textual conversions touch single bits. *)

type t

(** {1 Construction} *)

val empty : t
(** The empty bitstring. *)

val zero : int -> t
(** [zero len] is [len] zero bits. Raises [Invalid_argument] if [len < 0]. *)

val ones : int -> t
(** [ones len] is [len] one bits. Raises [Invalid_argument] if [len < 0]. *)

val of_bool_list : bool list -> t

val of_string : string -> t
(** [of_string "0101"] parses a textual bitstring. Raises [Invalid_argument]
    on characters other than ['0'] and ['1']. *)

val init : int -> (int -> bool) -> t
(** [init len f] builds the bitstring whose [i]-th bit (1-indexed) is
    [f i]. *)

(** {1 Accessors} *)

val length : t -> int

val get : t -> int -> bool
(** [get b i] is the [i]-th leftmost bit, 1-indexed (paper's [B^i]).
    Raises [Invalid_argument] if [i] is out of range. *)

val is_empty : t -> bool

val to_string : t -> string
(** Textual rendering, e.g. ["0101"]. *)

val pp : Format.formatter -> t -> unit

(** {1 Structure} *)

val append : t -> t -> t
(** Concatenation (paper's [||]). O(ℓ), one allocation; at an unaligned
    boundary the right operand is shifted into place 8 bytes at a time. *)

val append_bit : t -> bool -> t

val sub : t -> pos:int -> len:int -> t
(** [sub b ~pos ~len] is bits [pos .. pos+len-1], 1-indexed.
    Raises [Invalid_argument] if the range is not within [b]. O(len): a byte
    copy, shifted a word at a time when [pos] is not byte-aligned. *)

val range : t -> left:int -> right:int -> t
(** [range b ~left ~right] is bits [B_left || ... || B_right] (inclusive,
    1-indexed), the slice notation used by FINDPREFIX. [left > right] gives
    [empty]. *)

val prefix : t -> int -> t
(** [prefix b k] is the first [k] bits. *)

val is_prefix : prefix:t -> t -> bool
(** [is_prefix ~prefix:p b] holds iff [p] is a prefix of [b]. O(length p):
    a scan for the first differing word, then byte, then bit. *)

val longest_common_prefix : t -> t -> t
(** O(ℓ), the same scan as [is_prefix]. *)

(** {1 Numeric interpretation (paper's BITS / VAL)} *)

val of_int : int -> t
(** [of_int v] is BITS(v): the minimal binary representation of [v >= 0],
    with BITS(0) = "0" (one bit) so that every natural has a representation.
    Raises [Invalid_argument] on negative input. *)

val of_int_fixed : bits:int -> int -> t
(** [of_int_fixed ~bits v] is BITS_bits(v): [v]'s representation left-padded
    with zeros to exactly [bits] bits. Raises [Invalid_argument] if [v] does
    not fit. *)

val to_int : t -> int
(** VAL for values that fit in an OCaml [int]. Raises [Invalid_argument] on
    overflow (more than 62 significant bits). *)

val significant_bits : t -> int
(** Number of bits of the minimal representation of VAL(b): [length b] minus
    leading zeros, and at least 1 when [length b > 0]. [0] for [empty]. *)

val strip_leading_zeros : t -> t
(** Minimal representation of the same value; [empty] stays [empty], an
    all-zero string becomes ["0"]. *)

val pad_to : int -> t -> t
(** [pad_to len b] left-pads with zeros to [len] bits (BITS_len(VAL b)).
    Raises [Invalid_argument] if [significant_bits b > len]. *)

val min_fill : int -> t -> t
(** [min_fill len p] is MIN_len(p): [p] right-padded with zeros to [len]
    bits — the smallest [len]-bit value with prefix [p].
    Raises [Invalid_argument] if [length p > len]. O(len), one allocation:
    [p]'s bytes copied into a zeroed buffer. *)

val max_fill : int -> t -> t
(** [max_fill len p] is MAX_len(p): [p] right-padded with ones. O(len). *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality (length and bits). *)

val compare : t -> t -> int
(** Total order: first by bits lexicographically, then by length. For
    equal-length strings this is exactly the numeric order of VAL. O(ℓ),
    the same scan as [is_prefix]; the result is always -1, 0 or 1. *)

val compare_val : t -> t -> int
(** Numeric order of VAL regardless of length (leading zeros ignored). *)

(** {1 Blocks (Section 4)} *)

val blocks : block_bits:int -> t -> t list
(** [blocks ~block_bits b] splits [b] into consecutive blocks of exactly
    [block_bits] bits. Raises [Invalid_argument] if [length b] is not a
    multiple of [block_bits] or [block_bits <= 0]. *)

val concat : t list -> t
(** O(total length): one allocation, each piece shifted into place. *)

(** {1 Byte conversion (wire format)} *)

val to_bytes : t -> string
(** Packed representation: the bits MSB-first, zero-padded at the end to a
    whole number of bytes. Use together with [length] to round-trip. *)

val of_bytes : len:int -> string -> t option
(** [of_bytes ~len s] reads [len] bits back from [to_bytes] output. [None] if
    [s] is too short, too long, or has nonzero padding bits (defensive
    parsing of untrusted bytes). *)
