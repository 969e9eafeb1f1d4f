(** Reed–Solomon erasure codes over GF(2^16) — the paper's RS.ENCODE /
    RS.DECODE with parameters (n, n−t) (Section 7).

    [encode ~n ~k v] splits a value [v] into [n] codewords of
    O(|v|/k) = O(|v|/n) bits each such that any [k] of them reconstruct [v]
    exactly. Encoding is systematic: the first [k] codewords carry the (length
    framed, zero padded) message symbols.

    This is the matrix-form codec. Each parity symbol is 2k reads from
    split-product tables (every product of a Lagrange coefficient with one
    byte of a symbol) held in a per-(n, k) {!ctx} and memoized process-wide.
    Decoding copies every systematic codeword it uses and interpolates only
    the missing message columns, through one log-domain matrix per call
    reused across all stripes. Codewords are bit-identical to the reference
    path {!Reed_solomon_ref} — contexts are deterministic precomputation and
    never change wire bytes.

    Erasure decoding suffices for the protocol: corrupted codewords are
    detected and discarded via Merkle witnesses before decoding, exactly as in
    the paper, so [decode] receives only index-authenticated codewords. *)

type ctx
(** Precomputed codec context for one (n, k): for each parity point and
    message column, the 512 16-bit products of that column's Lagrange
    coefficient with a high or a low symbol byte — (n−k)·k KiB, 36 KiB at
    (13, 9). Immutable and safe to share across threads and sessions. *)

val ctx : n:int -> k:int -> ctx
(** Memoized: the first call per (n, k) builds the tables in O((n−k)·k·512)
    field multiplications; later calls are a list lookup. Raises
    [Invalid_argument] unless [1 <= k <= n < 65536]. *)

val encode_with : ctx -> string -> string array
(** [encode] with an explicit context — the hot-path entry point for callers
    that encode repeatedly at one (n, k). *)

val decode_with : ctx -> (int * string) list -> (string, string) result
(** [decode] with an explicit context: the same choice of shares. *)

val encode : n:int -> k:int -> string -> string array
(** Raises [Invalid_argument] unless [1 <= k <= n < 65536]. All returned
    codewords have equal length [codeword_bytes ~k ~msg_bytes:(length v)].
    Equivalent to [encode_with (ctx ~n ~k)]. *)

val decode : n:int -> k:int -> (int * string) list -> (string, string) result
(** [decode ~n ~k shares] reconstructs the original value from shares
    [(index, codeword)], given in any order. Per index only the first share
    counts; later duplicates and indices outside [0, n-1] are ignored. Of the
    indices held, the [k] lowest are used, and the other shares are ignored
    (they are already authenticated), so the result depends only on those
    [k] codewords. Returns [Error reason] on malformed input: fewer than [k]
    distinct valid indices, unequal lengths among the used codewords, or
    framing that does not parse (possible only if the encoder was
    byzantine). *)

val codeword_bytes : k:int -> msg_bytes:int -> int
(** Size of each codeword produced by [encode] for a [msg_bytes]-byte value. *)
