(** The "cryptographic setup" of the authenticated setting: every party holds
    a stateful hash-based signing key and all verification keys are public —
    a PKI. Exactly the assumption under which the paper's conclusion asks
    whether t < n/2 CA with optimal communication is possible. *)

type t

val generate : seed:int -> n:int -> capacity:int -> t
(** [capacity] = signatures available per party for the whole run.
    Deterministic in [seed]. Each party's key pair is generated on the first
    {!signer} or {!verify} that needs it, and is the same key
    whichever party is asked for first. A setup is one run's state (signers
    are stateful): never share one between runs, or between domains. *)

val parties : t -> int
(** The number of parties [n] the setup was generated for. *)

val signer : t -> int -> Sigs.Xmss.signer
(** [signer setup i] is party [i]'s signing key; a real deployment hands
    party [i] only its own, and the simulator closure does the same. *)

val verify : t -> party:int -> msg:string -> Sigs.Xmss.signature -> bool
(** Total, including on out-of-range party indices. *)
