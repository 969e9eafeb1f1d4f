(** Per-party protocol context: the publicly known parameters of a run —
    [n] parties [0 .. n-1], at most [t] corrupted, [me] the index of the
    party running this instance. *)

type t = { n : int; t : int; me : int }

val make : n:int -> t:int -> me:int -> t
(** The plain-model resilience bound: raises [Invalid_argument] unless
    [t < n/3] (and indices are in range). *)

val make_authenticated : n:int -> t:int -> me:int -> t
(** For protocols in the authenticated setting (cryptographic setup), where
    the bound is [t < n/2] — the paper's second open problem, explored by the
    [Auth] library. *)

val quorum : t -> int
(** [n - t]: the minimum number of honest parties — the quorum size used
    throughout the paper. *)
