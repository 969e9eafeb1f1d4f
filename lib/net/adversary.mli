(** Byzantine adversary interface and a library of generic strategies.

    The simulator runs a protocol instance for {e every} party, corrupted
    ones included; each round the adversary sees all prescribed messages
    (honest parties' actual messages and what corrupted parties would send if
    they were honest) and replaces the corrupted parties' messages
    arbitrarily. Seeing the honest round-[r] messages before choosing the
    Byzantine round-[r] messages makes the adversary {e rushing}.

    The strategies here are protocol-agnostic (byte-level); protocol-aware
    attacks live in [Attacks], and attacks on {e inputs} (outliers etc.) in
    [Workload.apply_input_attack]. [Attacks.registry] names every strategy
    the repository runs by name, these included. *)

type view = {
  round : int;  (** 1-based round number. *)
  n : int;
  t : int;
  corrupt : bool array;
  inbound : string option array array;
      (** [inbound.(r).(s)]: what party [s]'s protocol instance would send
          to [r] this round, recipient-major as the round loop keeps the
          round; columns of terminated parties are all-[None]. The matrix
          is the loop's own and valid only inside [act]: read it there,
          keep no reference to it or its rows. *)
}

type t = {
  name : string;
  act : view -> sender:int -> recipient:int -> string option;
      (** Called once per (corrupted sender, recipient) pair per round; the
          result replaces the prescribed message. *)
}

val make : name:string -> (view -> sender:int -> recipient:int -> string option) -> t

val prescribed_msg : view -> sender:int -> recipient:int -> string option
(** What the sender's instance wanted to send — the "behave honestly"
    building block. *)

(** {1 Strategies} *)

val passive : t
(** Corrupted parties follow the protocol on their own inputs. Combined with
    adversarial inputs this is already the strongest attack on convex
    validity for many protocols. *)

val silent : t
(** Never send anything (fail-stop from round one). *)

val crash : after:int -> t
(** Follow the protocol for [after] rounds, then go silent. *)

val garbage : seed:int -> t
(** Replace every prescribed message with random bytes of the same length. *)

val spammer : seed:int -> max_len:int -> t
(** Send unsolicited random blobs every round, even when the protocol
    prescribes silence. *)

val equivocate : seed:int -> t
(** Honest messages to low-index recipients, corrupted ones to high-index
    recipients — conflicting claims from the same sender. *)

val bitflip : seed:int -> t
(** Flip one bit of every prescribed message, the same flip for all
    recipients (consistent corruption rather than equivocation). *)

val delayer : unit -> t
(** Replay the previous round's prescribed message (desynchronisation). *)
