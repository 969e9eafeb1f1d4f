(** Dolev–Strong authenticated broadcast: Byzantine Broadcast for {e any}
    t < n given a PKI — the classical signature-chain protocol, used here at
    t < n/2 as the substrate of {!Auth_ca}.

    Guarantees: Termination (t+1 rounds); Agreement (all honest parties
    output the same [Some v] or all output [None]); Validity (an honest
    sender's value is delivered by everyone). [None] (⊥) occurs only for a
    misbehaving sender.

    Communication: O(n²·(ℓ + t·σ)) bits per instance with σ-bit signatures —
    σ ≈ 17 KB with the hash-based {!Sigs.Xmss} scheme; the authenticated
    setting is communication-expensive, which T8 quantifies. *)

val run :
  Setup.t ->
  Net.Ctx.t ->
  instance:int ->
  sender:int ->
  string ->
  string option Net.Proto.m
(** [run setup ctx ~instance ~sender v]: [instance] domain-separates
    signatures when several broadcasts run in one execution (as in
    {!Auth_ca}). Only [sender]'s [v] matters. The [ctx] may be built with
    {!Net.Ctx.make_authenticated}. *)

(** {1 Exposed for adversarial harnesses (signed-equivocation attacks)} *)

val signed_bytes : instance:int -> sender:int -> string -> string
(** The exact bytes a chain link signs. *)

val encode_batch : (string * (int * Sigs.Xmss.signature) list) list -> string
(** Encode a round message: a batch of (value, signature chain) entries. *)
