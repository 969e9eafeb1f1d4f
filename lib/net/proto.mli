(** A deterministic round-structured protocol, as a resumable computation.

    A protocol alternates local computation with synchronous communication
    rounds: each round every party chooses at most one message per recipient,
    the runtime delivers all round-[r] messages at once, and every party
    resumes with its inbox — exactly the synchronous model of Section 2 of
    the paper.

    {b Two forms.} Protocols are {e written} in the continuation-passing
    builder ['a m] and {e executed} in the reified form ['a t]:
    - ['a m] is what every protocol in the library returns. Sub-protocols
      compose by [let*] — running Π_BA inside FINDPREFIX is
      [let* out = Ext.run ctx v in ...] — and rounds interleave in lock-step
      because honest parties branch only on agreed-upon data. A [let*]
      attaches its continuation once, when it runs: a running
      sub-protocol's [Step] reaches the round loop with the whole rest of the
      protocol already inside it, so no enclosing layer touches it per
      round.
    - ['a t] is the data the round loop ({!Loop}) steps: [Step], [Push],
      [Pop], [Probe], [Done]. {!run} turns a builder into it.

    {b Seams that stay ['a t].} A function whose result something outside
    the protocol library consumes or wraps per round returns ['a t]: the
    round loop's protocol argument ([Sim.run], [Loop.session],
    [Engine.session]); the four [run*] entry points of {!Ba.Substrate.S},
    which a backend may wrap (a timing layer matches the constructors);
    [Convex.Ca_int.Make(B).run]/[Convex.agree_int], [Adaptive.agree_int]
    and [Workload]'s protocol [run] fields. A protocol that calls one of
    them inside its own [let*] chain uses {!lift}, which re-wraps each of
    that call's rounds once — the one per-round continuation cost left, one
    wrap per seam.

    Values of either form are transport-agnostic: the round loop executes
    them against a rushing adversary, in memory ({!Sim}, the engine's
    simulator) or over a real socket mesh (the engine's poll backend). *)

type inbox = string option array
(** [inbox.(s)]: the message received from party [s] this round ([None] if
    [s] sent nothing). Senders are authenticated by construction — slot [s]
    only ever holds [s]'s message, the paper's authenticated channels.

    Ownership: the array is {e borrowed} from the runtime — the round loop
    hands over a row of the round's own message matrix, which the next send
    phase overwrites. The round loop passes it to the [Step]'s continuation,
    which in a builder-made protocol is the code after the round's [let*]
    up to the next round; that code must consume the array (or copy what it
    needs) before it reaches its next round — in particular, the next
    round's [out] function must not read it — and may retain only the
    payload strings and option boxes, which are immutable. Every builder-made
    protocol satisfies this because OCaml evaluates that code strictly up to
    the next [Step]. See DESIGN.md, "Hot path & allocation discipline". *)

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

type 'a m = { k : 'r. ('a -> 'r t) -> 'r t } [@@unboxed]
(** A protocol builder: [m.k f] is the reified protocol that runs [m] and
    then the rest of the protocol, [f]. Build values with the combinators
    below rather than this field. *)

val run : 'a m -> 'a t
(** Reify a builder for the round loop (or for a seam that returns ['a t]).
    Runs the protocol's code up to its first round. *)

val lift : 'a t -> 'a m
(** Use a reified protocol inside a builder. Each of its rounds is re-wrapped
    once with the caller's continuation; reserve it for the seams listed
    above. *)

val return : 'a -> 'a m
val ( let* ) : 'a m -> ('a -> 'b m) -> 'b m
val map : 'a m -> ('a -> 'b) -> 'b m
val ( let+ ) : 'a m -> ('a -> 'b) -> 'b m

val exchange : (int -> string option) -> inbox m
(** One communication round, sending [out r] to each recipient [r]. *)

val broadcast : string -> inbox m
(** One round sending the same message to every party (self included — the
    paper's "send to all"; self-messages are free in the metrics). *)

val receive_only : unit -> inbox m
(** One round sending nothing. *)

val with_label : string -> 'a m -> 'a m
(** Attribute the communication of a sub-protocol to a label in the metrics
    (the component-ablation experiment, T5). Scopes nest; the innermost
    label wins. *)

val probe : string -> Bitstring.t -> unit m
(** [probe key value] emits an observability data point under [key]; free
    (no round, no traffic) and invisible without a recorder. A recorder
    keeps the bitstring (they are immutable) and renders it as hex only at
    export; the convergence analysis in [Obs] reads it as an unsigned
    integer. *)

(** {1 Parallel composition} *)

val parallel : 'a m list -> 'a list m
(** [parallel ps] runs the branches concurrently: each round carries one
    multiplexed message per recipient holding every still-running branch's
    message, each branch receives its slice of the inbox — so the whole
    composition takes [max] rather than [sum] of the branches' rounds. All
    honest parties must compose the same branch count and order (a protocol
    parameter). Labels and probes inside branches are stripped — wrap the
    composition in {!with_label} instead. Raises [Invalid_argument] on an
    empty list. *)

val both : 'a m -> 'b m -> ('a * 'b) m
(** Two-branch {!parallel}. *)
