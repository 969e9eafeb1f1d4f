(** Dolev–Strong authenticated broadcast: Byzantine Broadcast for {e any}
    t < n given a PKI — the classical signature-chain protocol, used here at
    t < n/2 under {!Auth_ba.common_view}: n parallel instances give every
    honest party the same view, for {!Auth_ba} and {!Auth_ca} alike.

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
    signatures when several BA instances run in one execution (as in
    {!Auth_ba.substrate}); the signed bytes also carry [sender], so the n
    broadcasts of one instance share its tag. Only [sender]'s [v] matters. The [ctx] may be built with
    {!Net.Ctx.make_authenticated}. *)

(** {1 Exposed for adversarial harnesses (signed-equivocation attacks)} *)

val signed_bytes : instance:int -> sender:int -> string -> string
(** The exact bytes a chain link signs. *)

val encode_batch : (string * (int * Sigs.Xmss.signature) list) list -> string
(** Encode a round message: a batch of (value, signature chain) entries. *)
