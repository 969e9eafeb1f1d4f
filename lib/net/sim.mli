(** Lock-step synchronous execution of [n] protocol instances against a
    rushing Byzantine adversary, with exact communication accounting.

    Every party — corrupted or not — runs its protocol instance; each round
    the adversary sees all prescribed messages (rushing) and substitutes the
    corrupted parties' actual messages (see {!Adversary}). The run ends when
    every honest party's instance has terminated.

    [run] is a one-session run of the round loop ({!Loop.run_core}) over the
    loopback transport — the same code path the session-multiplexing engine
    executes, so a session behaves identically alone and multiplexed.
    Executions are fully deterministic: protocol values are deterministic,
    adversary strategies derive randomness from explicit seeds, and delivery
    is lock-step — a run is reproducible from its inputs. *)

type 'a outcome = {
  outputs : 'a option array;
      (** Per party: [Some] once its instance terminated. Corrupted parties'
          entries reflect their (adversary-ignored) instance and are reported
          for diagnostics only. *)
  metrics : Metrics.t;
}

exception Round_limit_exceeded of int
(** {!Loop.Round_limit_exceeded}: raised when a run exceeds [max_rounds] — a
    non-termination tripwire, not an expected outcome: every protocol in
    this repository terminates. *)

val max_byzantine_bytes : int
(** {!Loop.max_byzantine_bytes}: byzantine messages are truncated to this
    size before delivery, so honest allocations stay bounded regardless of
    the adversary. *)

val run :
  ?max_rounds:int ->
  ?allow_excess_corruptions:bool ->
  ?obs:Obs.t ->
  ?setup:[ `Plain | `Authenticated ] ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  adversary:Adversary.t ->
  (Ctx.t -> 'a Proto.t) ->
  'a outcome
(** [run ~n ~t ~corrupt ~adversary protocol] executes [protocol ctx] for all
    [n] parties. [corrupt.(i)] puts party [i] under the adversary's control;
    at most [t] parties may be corrupted unless [allow_excess_corruptions]
    is set (used only by the beyond-the-bound resilience experiment).
    [obs] attaches a recorder (session 0): label scopes become spans, sent
    messages feed spans, the round timeline and (with
    [Obs.create ~messages:true]) one event per message, [Proto.probe]
    values are recorded, and
    the loop's instruments are filled in ({!Loop.run_core}) — summing the
    recorder's span bits reproduces [metrics.honest_bits] exactly. The
    timeline follows the loop's convention: traffic is filed under the
    0-based engine round, with the live-session count. Raises
    [Invalid_argument] on inconsistent parameters. *)

val corrupt_first : n:int -> int -> bool array
(** [corrupt_first ~n k]: the corruption pattern with parties [0..k-1]
    corrupted. *)

val honest_outputs : corrupt:bool array -> 'a outcome -> 'a list
(** Honest parties' outputs in party order. Raises [Failure] if an honest
    party did not terminate (possible only under [max_rounds] abuse). *)
