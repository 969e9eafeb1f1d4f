(** SHA-256 (FIPS 180-4), implemented from scratch — the paper's
    collision-resistant hash function [H_κ] with security parameter κ = 256.

    The toolchain ships no cryptography package. Buffering, padding and the
    streaming interface below are OCaml; the compression function is C
    ([sha256_stubs.c]), in two kernels with one contract:
    - a portable C99 kernel that reads blocks byte by byte as big-endian
      words, with no intrinsics and no host-specific flags, so it runs and
      gives the same digests on every host;
    - a kernel on the x86 SHA extensions ([sha256rnds2], [sha256msg1],
      [sha256msg2]), compiled only for x86-64 under GCC or Clang.

    Which one runs is decided once, when the library initialises: the SHA-NI
    kernel if CPUID reports SHA (leaf 7, EBX bit 29) and SSE4.1 and SSSE3
    (leaf 1), the portable kernel otherwise. There is no switch: no
    environment variable, flag or argument chooses a kernel, and {!kernel}
    only reports the choice. The aarch64 SHA-2 instructions have no kernel:
    no host this is tested on can run them, and an untested path does not
    ship.

    Compression is C because it was the largest self time left on the
    Π_ℓBA+ distribution path: a sampled profile put the OCaml loop at 31 %
    of session time on perfbench's fault_mix and 33 % on wide_value, and
    the portable kernel compresses about twice as many bytes per second
    as that loop did.
    The second kernel reverses the earlier choice of a single one because
    compression was again the largest self time (16 % of fault_mix's
    process CPU under the portable kernel) while the number of compressions
    is fixed by the protocol and the digest format. The SHA-NI kernel
    compresses about five times as many bytes per second (the [sha256] row
    of BENCH_substrate.json times one kernel against the other), and
    perfbench's fault_mix runs about 16 % more sessions per second
    (EXPERIMENTS.md has the paired runs).

    Digests are validated against the NIST test vectors and, by a
    differential test, against [test/sha256_spec.ml], an independent OCaml
    statement of FIPS 180-4; the active kernel is tested against the
    portable one block by block. SHA-256 backs the Merkle-tree accumulators
    (Section 7) that Π_ℓBA+ commits every party's codewords with, the
    adaptive preamble's digests and the Lamport/XMSS signatures. *)

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

(** {2 Compression kernels} *)

val kernel : string
(** The compression kernel every digest above runs: ["sha-ni"] or
    ["portable"]. Fixed when the library initialises. *)

val compress : Bytes.t -> Bytes.t -> pos:int -> unit
(** [compress state src ~pos] compresses the 64-byte block at [src.(pos)]
    into [state], the 32-byte big-endian chaining state H0..H7, with the
    active kernel. Raises [Invalid_argument] if [state] is not 32 bytes or
    the block is not inside [src]. *)

(** The portable kernel, whichever kernel is active: the reference the
    active kernel is tested and timed against. *)
module Portable : sig
  val compress : Bytes.t -> Bytes.t -> pos:int -> unit
  (** As {!Sha256.compress}, with the portable kernel. *)

  val digest : string -> string
  (** As {!Sha256.digest}, with the portable kernel. *)
end
