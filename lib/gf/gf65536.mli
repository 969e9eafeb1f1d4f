(** The Galois field GF(2^16), the codeword alphabet of the Reed–Solomon
    substrate (Section 7 requires a field with [n <= 2^a - 1]; 16-bit symbols
    support up to 65535 parties).

    Elements are ints in [0, 65535]. Arithmetic uses log/exp tables over the
    primitive polynomial x^16 + x^12 + x^3 + x + 1 (0x1100B) with generator 2;
    primitivity is checked when the tables are built. The tables hold 16-bit
    cells in two [Bytes] (256 KiB of exp, doubled so a sum of two logs needs
    no modulo, and 128 KiB of log), built once at start-up: a quarter of
    what [int array]s would take, small enough to stay in L2, and opaque to
    the major GC's marking. *)

type t = int
(** Invariant: [0 <= x <= 0xffff]. Operations raise [Invalid_argument] on
    out-of-range inputs. *)

val order : int
(** 65536. *)

val zero : t
val one : t
val add : t -> t -> t
(** Also subtraction (characteristic 2). *)

val sub : t -> t -> t
val mul : t -> t -> t
val inv : t -> t
(** Raises [Division_by_zero] on [inv 0]. *)

val div : t -> t -> t
val pow : t -> int -> t
val exp : int -> t
(** [exp i] = generator^i (any int exponent, reduced mod 65535). *)

val log : t -> int
(** Discrete log base the generator. Raises [Invalid_argument] on [log 0]. *)

(** {2 Unchecked hot-loop kernels}

    Inner-loop primitives for the Reed–Solomon codec: no range checks, no
    allocation. Callers must uphold the element invariant themselves; the
    checked API above remains the default. *)

val log_unsafe : t -> int
(** [log a] without range checks, and [-1] for [a = 0]: the zero code of
    {!dot}'s log vectors. Behaviour is undefined outside [0, 0xffff]. *)

val dot : coeff_logs:int array -> pos:int -> ylogs:int array -> k:int -> t
(** Log-domain dot product: XOR over [j < k] of
    [exp (coeff_logs.(pos + j) + ylogs.(j))], where a log of [-1] encodes a
    zero coefficient or a zero symbol and the term is skipped. Taking the
    symbols' logs ({!log_unsafe}) once lets every row of a matrix share
    them. Unchecked: log entries must be [-1] or in [0, 65534], and the
    ranges in bounds. *)
