(** A stateful many-time signature scheme in the XMSS style: N Lamport
    one-time keys under a Merkle tree; the public key is the root; each
    signature carries its OTS index, the OTS public digest with its
    authentication path, and the Lamport signature.

    This is the "cryptographic setup" the authenticated-setting protocols
    assume ({!Auth.Dolev_strong}, {!Auth.Auth_ca}, {!Auth.Auth_ba}). *)

type signer
(** Stateful: every one-time key is used at most once. *)

type public = string
(** The Merkle root (32 bytes). *)

type signature

val generate : Net.Prng.t -> capacity:int -> signer * public
(** [capacity] one-time keys. Raises [Invalid_argument] if < 1. *)

val remaining : signer -> int

val sign : signer -> string -> signature
(** Raises [Failure] once the key is exhausted. *)

val verify : public:public -> msg:string -> signature -> bool

val encode_signature : signature -> string
val decode_signature : string -> signature option

val signature_bytes : int
(** Upper bound on the encoded signature size for capacities up to 2^20
    one-time keys (the true size varies with capacity and index; see the
    implementation for the breakdown).  This is the figure the authenticated
    backends' cost model quotes. *)
