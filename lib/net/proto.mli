(** A deterministic round-structured protocol, as a resumable computation.

    A protocol alternates local computation with synchronous communication
    rounds: each round every party chooses at most one message per recipient,
    the runtime delivers all round-[r] messages at once, and every party
    resumes with its inbox — exactly the synchronous model of Section 2 of
    the paper.

    Sub-protocols compose by monadic sequencing — running Π_BA inside
    FINDPREFIX is [let* out = Phase_king.run ctx v in ...]; rounds interleave
    in lock-step automatically because honest parties branch only on
    agreed-upon data.

    Values of this type are transport-agnostic: the round loop ({!Loop})
    executes them against a rushing adversary, in memory ({!Sim}, the
    engine's simulator) or over a real socket mesh (the engine's poll
    backend).
    The constructors are exposed because runtimes pattern-match on them;
    protocol code should use the combinators below. *)

type inbox = string option array
(** [inbox.(s)]: the message received from party [s] this round ([None] if
    [s] sent nothing). Senders are authenticated by construction — slot [s]
    only ever holds [s]'s message, the paper's authenticated channels.

    Ownership: the array is {e borrowed} from the runtime — engines reuse it
    across rounds, so a continuation must consume it (or copy what it needs)
    before returning its next [Step]; only the payload strings and option
    boxes, which are immutable, may be retained. Every combinator-built
    protocol satisfies this automatically because OCaml evaluates the
    continuation body strictly up to the next round. See DESIGN.md, "Hot
    path & allocation discipline". *)

type 'a t =
  | Done of 'a
  | Step of (int -> string option) * (inbox -> 'a t)
      (** [Step (out, k)]: send [out recipient] to every recipient, then
          continue with the received inbox. *)
  | Push of string * 'a t
      (** Begin a label scope: the round loop opens a span on the party's
          span stack, which messages are charged to (see {!Metrics.labels}). *)
  | Pop of 'a t  (** End the innermost label scope. *)
  | Probe of string * Bitstring.t * 'a t
      (** Emit an observability data point (key, the party's value);
          consumes no round and sends nothing. An [Obs.t] recorder keeps the
          bitstring and renders it as hex only at export. *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val map : 'a t -> ('a -> 'b) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t

val exchange : (int -> string option) -> inbox t
(** One communication round, sending [out r] to each recipient [r]. *)

val broadcast : string -> inbox t
(** One round sending the same message to every party (self included — the
    paper's "send to all"; self-messages are free in the metrics). *)

val receive_only : unit -> inbox t
(** One round sending nothing. *)

val with_label : string -> 'a t -> 'a t
(** Attribute the communication of a sub-protocol to a label in the metrics
    (the component-ablation experiment, T5). Scopes nest; the innermost
    label wins. *)

val probe : string -> Bitstring.t -> unit t
(** [probe key value] emits an observability data point under [key]; free
    (no round, no traffic) and invisible without a recorder. A recorder
    keeps the bitstring (they are immutable) and renders it as hex only at
    export; the convergence analysis in [Obs] reads it as an unsigned
    integer. *)

val round_count : 'a t -> int
(** Rounds consumed when every inbox is empty — only meaningful for
    protocols whose round structure is input-independent (tests). *)

(** {1 Parallel composition} *)

val parallel : 'a t list -> 'a list t
(** [parallel ps] runs the branches concurrently: each round carries one
    multiplexed message per recipient holding every still-running branch's
    message, each branch receives its slice of the inbox — so the whole
    composition takes [max] rather than [sum] of the branches' rounds. All
    honest parties must compose the same branch count and order (a protocol
    parameter). Labels and probes inside branches are stripped — wrap the
    composition in {!with_label} instead. Raises [Invalid_argument] on an
    empty list. *)

val both : 'a t -> 'b t -> ('a * 'b) t
(** Two-branch {!parallel}. *)
