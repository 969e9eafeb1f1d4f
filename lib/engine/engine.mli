(** Session-multiplexing agreement engine: the two backends of the round
    loop.

    The loop itself — session specs, per-session results, the aggregate
    transport ledger and the scheduler [run_core] — is {!Net.Loop}, the one
    executor of the paper's synchronous model in this repository (a
    {!Net.Sim.run} is a one-session run of it). This module re-exports it
    and adds its two transports: {!run_sim}, the in-memory loopback, and
    {!run_poll}, a single-process event loop over nonblocking sockets. Both
    are byte-identical in outputs, per-session metrics, aggregate ledger
    and the deterministic obs export, message events included. {!Sampler}
    is the periodic GC/RSS time series their [on_round] hook drives. *)

type 'a spec = 'a Net.Loop.spec = {
  sid : int;
  start_round : int;
  protocol : Net.Ctx.t -> 'a Net.Proto.t;
  adversary : Net.Adversary.t;
  setup : [ `Plain | `Authenticated ];
}
(** See {!Net.Loop.spec}. *)

val session :
  ?start_round:int ->
  ?adversary:Net.Adversary.t ->
  ?setup:[ `Plain | `Authenticated ] ->
  sid:int ->
  (Net.Ctx.t -> 'a Net.Proto.t) ->
  'a spec
(** {!Net.Loop.session}. *)

type 'a session_result = 'a Net.Loop.session_result = {
  r_sid : int;
  r_outputs : 'a option array;
  r_metrics : Net.Metrics.t;
  r_admitted_at : int;
  r_retired_at : int;
}
(** See {!Net.Loop.session_result}. *)

type aggregate = Net.Loop.aggregate = {
  engine_rounds : int;
  sessions_completed : int;
  peak_live : int;
  frames_sent : int;
  naive_frames : int;
  frames_saved : int;
  frame_bytes : int;
  payload_bytes : int;
  honest_bits_total : int;
}
(** See {!Net.Loop.aggregate}. *)

type 'a outcome = 'a Net.Loop.outcome = {
  sessions : 'a session_result list;
  aggregate : aggregate;
}

val run_core :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  ?on_round:(round:int -> live:int -> unit) ->
  transport:Net.Transport.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** {!Net.Loop.run_core} over any transport, with at most [t] corrupted
    parties: raises [Invalid_argument] on more, otherwise as
    {!Net.Loop.run_core}. *)

(** {1 Periodic time-series sampler} *)

module Sampler : sig
  type sample = {
    s_idx : int;  (** Global sample index (dropped samples leave gaps). *)
    s_round : int;
    s_live : int;  (** Live sessions at sample time; [-1] unknown. *)
    s_minor_words : float;
    s_promoted_words : float;
    s_major_words : float;
    s_minor_collections : int;
    s_major_collections : int;
    s_heap_words : int;
    s_compactions : int;
    s_rss_bytes : int;  (** [-1] where [/proc] is unavailable. *)
    s_poll : Net_poll.stats option;
  }

  type t
  (** A bounded ring of samples: recording past capacity drops the oldest. *)

  val create : ?capacity:int -> unit -> t
  (** Default capacity 1024. *)

  val record : t -> round:int -> ?live:int -> ?poll:Net_poll.stats -> unit -> unit
  (** Snapshot [Gc.quick_stat], [Net_poll.rss_bytes] and the given gauges
      into the ring. Everything here is sampled-tier by nature (wall-clock
      and process-level, never byte-identical across runs). *)

  val capacity : t -> int

  val recorded : t -> int
  (** Total samples ever recorded (retained + dropped). *)

  val length : t -> int
  (** Samples currently retained. *)

  val dropped : t -> int
  val samples : t -> sample list
  (** Retained samples, chronological. *)

  val to_jsonl : t -> string
  (** One [sampler] header line (capacity / recorded / dropped), then one
      [sample] line per retained sample, chronological; validated by
      {!Obs.Check.sampler_jsonl}. *)
end


val run_sim :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  ?sampler:Sampler.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** {!run_core} over the in-memory loopback ({!Net.Transport.loopback}):
    the deterministic lock-step simulator, with the per-session rushing
    adversaries controlling the corrupted parties. [sampler] records a
    {!Sampler} snapshot every 16 engine rounds.
    Everything else — [obs], the raised exceptions — is
    as {!run_core}. *)

val run_poll :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  ?sampler:Sampler.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** Execute every session over the single-process event-driven socket mesh
    ({!Net_poll}): nonblocking fds, one [select] loop, each frame written
    from its staged record, and what the kernel does not take parked until
    the fd is writable. Full simulator semantics — per-session adversaries,
    the obs recorder — with the round's bytes actually moving through
    sockets; outputs, per-session metrics, the aggregate ledger and the Det
    obs export are byte-identical to {!run_sim} on the same inputs
    (asserted by [test/test_poll.ml]). The mesh is torn down on every exit
    path.

    [obs] additionally records the mesh's select waits and write stalls in
    the sampled-tier histograms [poll/select_wait_ns] and
    [poll/write_stall_ns]. [sampler] snapshots every 16 engine rounds, with
    the mesh's {!Net_poll.stats} attached. *)

val honest_outputs : corrupt:bool array -> 'a session_result -> 'a list
(** {!Net.Loop.honest_outputs}. *)
