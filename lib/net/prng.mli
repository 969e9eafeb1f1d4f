(** Deterministic pseudo-randomness (splitmix64) for adversary strategies and
    workload generation. Every experiment in the repository is reproducible
    from its seed; OCaml's global [Random] state is never used. *)

type t

val create : int -> t

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val bool : t -> bool
val bytes : t -> int -> string

val copy : t -> t
(** A second generator at [g]'s current state: it draws what [g] draws
    next. *)

val split : t -> salt:int -> t
(** A fresh generator derived from [g]'s stream and [salt] — lets one master
    seed drive independent sub-streams. *)
