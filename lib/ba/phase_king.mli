(** The assumed BA protocol Π_BA: deterministic multivalued Byzantine
    Agreement for [t < n/3] in the plain model, in the phase-king style of
    Berman–Garay–Perry [7].

    Guarantees (Definition 2): Termination, Agreement, Validity. In addition,
    over a two-element domain the output is always some honest party's input
    (used by ADDLASTBIT / GETOUTPUT / Π_ℤ, cf. Lemma 2): if it were not, all
    honest parties would hold the other value and Validity would force that
    value.

    Complexity: [3(t+1)] rounds; [O(ℓ n² + n³)] bits for ℓ-bit values while
    the honest parties' values do not change: each phase is all-to-all, but
    after phase 1's exchange a party that re-sends a value the receiver
    already holds sends a one-byte back-reference instead ({!back_reference}).
    A phase whose king makes honest values change re-sends them, so a run
    steered by corrupt kings costs up to [O(ℓ n³)]. The paper instantiates
    Π_BA with the quadratic-communication protocol of Coan–Welch [12]; DESIGN.md records
    this substitution — it affects only the additive [poly(n, κ)] term of the
    CA protocols, which experiment T5 measures separately. *)

type 'v spec = {
  equal : 'v -> 'v -> bool;
  default : 'v;  (** Fallback when a (byzantine) king's message is invalid. *)
  encode : 'v -> string;  (** Must be injective on the domain. *)
  decode : string -> 'v option;
      (** Total on arbitrary bytes, and a pure function of them: {!tally}
          decodes each distinct payload of an inbox once and reuses the
          result for every sender that sent the same bytes. *)
}

val run : 'v spec -> Net.Ctx.t -> 'v -> 'v Net.Proto.m
(** [run spec ctx v] joins Π_BA with input [v]. All honest parties obtain the
    same output, equal to [v] if they all joined with [v].

    A round machine: the builder's [k] builds each round's [Proto.Step]
    itself, inside one ["pi_ba"] label scope, so a round costs its
    continuation and its message and no bind closure.

    Messages: phase 1's round-1 message is [spec.encode v]. After it, a
    value-carrying message is either {!back_reference} or full:
    {!king_message}[ (spec.encode v)] in round 1 of later phases and in the
    king's round 3, the [w_opt_bytes] proposal in round 2. In round 1 the
    back-reference means "my last round-1 value", in rounds 2 and 3 "my
    round-1 value of this phase". Each receiver resolves it against what
    that sender sent it before and tallies the resolved inbox; what does
    not resolve (silence, a reference to nothing, a malformed message)
    counts as silence. *)

val back_reference : string
(** The one-byte back-reference. *)

val king_message : string -> string
(** [king_message body] is the full round-3 message (and round-1 message
    after phase 1) carrying the value whose [spec.encode] is [body]. *)

(** {1 Resolving back-references}

    Shared by every king protocol that sends {!back_reference}s (HIGHCOSTCA
    too). A receiver keeps, per sender, the resolved body of that sender's
    latest round-1 message ([one]); each function fills its array in place,
    and [None] stands for silence, a reference to nothing or a malformed
    message. A full message whose bytes an earlier sender in the inbox also
    sent resolves to that sender's body, so each distinct payload is
    resolved once. *)

val resolve_round_one : string option array -> Net.Proto.inbox -> unit
(** [resolve_round_one one inbox]: a round-1 inbox after the run's first
    exchange. A back-reference keeps [one.(i)], a {!king_message} gives its
    body, anything else [None]. *)

val resolve_mine :
  body:(string -> string option) ->
  string option array ->
  string option array ->
  Net.Proto.inbox ->
  unit
(** [resolve_mine ~body one into inbox]: a proposal or vote inbox. A
    back-reference ("MINE") is [one.(i)], any other message [body msg]. *)

val resolve_king : string option array -> Net.Proto.inbox -> int -> string option
(** [resolve_king one inbox king]: the body of the king's round-3 message,
    a back-reference being [one.(king)]. *)

val tally :
  equal:('v -> 'v -> bool) ->
  decode:(string -> 'v option) ->
  string option array ->
  ('v * int) list
(** [tally ~equal ~decode inbox] groups the decodable messages of [inbox] by
    [equal] and counts each group's senders. Groups come in first-seen
    (sender) order, each represented by its first sender's value; absent and
    undecodable messages are ignored. [decode] must be a pure function of its
    bytes: it runs once per distinct payload, not once per sender. [equal]
    must be an equivalence.

    One pass over the senders: each message's bytes are compared with the
    distinct payloads seen so far, and only a new payload's decoded value is
    compared, by [equal], with the groups seen so far. That second step is
    needed because distinct bytes can decode to equal values ([Wire]'s
    varints accept overlong forms). *)

val argmax : 'v spec -> ('v * int) list -> ('v * int) option
(** The entry with the highest count, ties broken by the smallest
    [spec.encode]; [None] on an empty tally. *)

val r_opt_bytes : string option Wire.reader
(** The [r_option (r_bytes ())] reader, hoisted: the combinator closures are
    built once instead of once per decoded message (this decode shape is the
    hottest in the BA layer — proposals, echoes and votes all use it). *)

val w_opt_bytes : string option -> Wire.writer
(** Writer-side counterpart of {!r_opt_bytes}, hoisted for the same reason. *)

val bit_spec : bool spec
val bytes_spec : string spec

val option_spec : string option spec
(** Domain [string option] — [⊥] is a first-class input value (needed by
    Π_BA+, where parties may join the inner agreement with [a = ⊥]). *)

val run_bit : Net.Ctx.t -> bool -> bool Net.Proto.m
val run_bytes : Net.Ctx.t -> string -> string Net.Proto.m
val run_option : Net.Ctx.t -> string option -> string option Net.Proto.m

val rounds : Net.Ctx.t -> int
(** Exact round count: [3 (t+1)]. *)

