(** SHA-256 (FIPS 180-4), implemented from scratch — the paper's
    collision-resistant hash function [H_κ] with security parameter κ = 256.

    The toolchain ships no cryptography package. Buffering, padding and the
    streaming interface below are OCaml; the compression function is one
    portable C99 kernel ([sha256_stubs.c]) that reads blocks byte by byte as
    big-endian words, with no intrinsics and no host-specific flags, so it
    gives the same digests on every host. It is C because compression was
    the largest self time left on the Π_ℓBA+ distribution path: a sampled
    profile put the OCaml loop at 31 % of session time on perfbench's
    fault_mix and 33 % on wide_value, and the C kernel compresses about
    twice as many bytes per second (the [sha256] row of
    BENCH_substrate.json). Digests are validated against the NIST test vectors
    and, by a differential test, against [test/sha256_spec.ml], an
    independent OCaml statement of FIPS 180-4. SHA-256 backs the Merkle-tree
    accumulators (Section 7) that Π_ℓBA+ commits every party's codewords
    with, the adaptive preamble's digests and the Lamport/XMSS signatures. *)

val digest_size : int
(** 32 bytes (κ / 8). *)

val digest : string -> string
(** [digest msg] is the 32-byte (binary) SHA-256 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the lowercase hex rendering of [digest msg]. *)

val to_hex : string -> string
(** Hex-encodes an already-computed binary digest (or any string). *)

type ctx
(** Streaming interface. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> string
(** May be called once; the context must not be reused afterwards (except via
    {!reset}). *)

(** {2 Allocation-free hot path}

    Merkle building hashes millions of tiny leaf/node records; these entry
    points let one context be reused across digests with zero per-digest
    allocation: [reset; feed_*; finalize_into]. *)

val reset : ctx -> unit
(** Return a context (finalized or not) to the pristine [init] state. *)

val feed_byte : ctx -> int -> unit
(** Feed one byte (the low 8 bits of the argument). *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Feed [len] bytes of [b] starting at [pos]. The range is validated.
    Whole 64-byte blocks are compressed straight from [b]; only a leading
    top-up of a partial block and the tail are copied into the context. [b]
    is fully consumed before this returns, so the caller may mutate it
    after. Raises [Invalid_argument] on an out-of-range slice. *)

val finalize_into : ctx -> Bytes.t -> pos:int -> unit
(** Write the 32-byte digest at [out.(pos)] without allocating. Same
    single-use contract as {!finalize}; {!reset} re-arms the context. *)
