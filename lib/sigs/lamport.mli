(** Lamport one-time signatures over SHA-256.

    Hash-based signatures need no number theory, so they are the natural
    scheme for this repository's sealed toolchain; the in-simulation
    adversary cannot forge them without inverting SHA-256.

    {b STRICTLY ONE-TIME}: signing two different messages with one key leaks
    enough preimages to forge — use {!Xmss} for a stateful many-time
    scheme. *)

type secret
type public = string
(** 32-byte digest of the 512 public hashes. *)

type signature

val generate : Net.Prng.t -> secret * public
(** Deterministic in the PRNG state (reproducible simulations). *)

val sign : secret -> string -> signature

val verify : public:public -> msg:string -> signature -> bool
(** Total on arbitrary (adversarial) signatures. *)

val signature_bytes : int
(** Encoded size: 2 × 256 × 32 bytes. *)

val encode_signature : signature -> string
val decode_signature : string -> signature option
