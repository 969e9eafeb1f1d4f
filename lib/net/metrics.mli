(** Communication accounting of one session.

    [BITS_ℓ(Π)] in the paper is the number of bits sent by honest parties;
    the simulator reports the bits actually sent by honest parties in a run.
    Self-addressed messages are free (the model's "send to all" includes
    remembering your own value). Each message costs [8 × bytes]: the wire is
    byte-aligned, a documented constant-factor deviation (DESIGN.md).
    Byzantine traffic is counted separately and never toward
    [honest_bits].

    The round loop charges each message once, to the sender's innermost
    open span in the session's {!Obs.session} handle, and fills a [t] from
    that handle's totals when the session retires ({!of_obs}). *)

type t = {
  rounds : int;
  honest_bits : int;
  honest_msgs : int;
  byz_bits : int;
  byz_msgs : int;
  label_bits : (string * int) list;  (** see {!labels} *)
}

val of_obs : rounds:int -> Obs.session -> t
(** A session's counts and label table, read from its handle
    ({!Obs.session_counts}, {!Obs.session_label_bits}). *)

val labels : t -> (string * int) list
(** Honest bits by the sending party's innermost {!Proto.with_label} scope
    (["(unlabeled)"] outside any scope) — the basis of the
    component-ablation experiment (T5). Bits descending, ties broken by
    label ascending: fully deterministic. *)
