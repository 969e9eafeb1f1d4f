(** Session-multiplexing agreement engine: the two backends of the round
    loop.

    The loop itself — session specs, per-session results, the aggregate
    transport ledger and the scheduler [run_core] — is {!Net.Loop}, the one
    executor of the paper's synchronous model in this repository (a
    {!Net.Sim.run} is a one-session run of it). This module re-exports it
    and adds its two transports: {!run_sim}, the in-memory loopback, and
    {!run_poll}, a single-process event loop over nonblocking sockets. Both
    are byte-identical in outputs, per-session metrics, aggregate ledger
    and the deterministic obs export, message events included. With a
    recorder attached, both also record the run's time series into it
    ({!Obs.sample}). *)

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

val run_sim :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** {!run_core} over the in-memory loopback ({!Net.Transport.loopback}):
    the deterministic lock-step simulator, with the per-session rushing
    adversaries controlling the corrupted parties. Everything else — [obs],
    the raised exceptions — is as {!run_core}, and [obs] also gets a sample
    ({!Obs.sample}) every 16 engine rounds and one when the run ends
    (round [engine_rounds], live 0). Each holds the [Gc.quick_stat]
    counters in words ([minor_words], [promoted_words], [major_words],
    [minor_collections], [major_collections], [heap_words],
    [compactions]) and [rss_bytes] ([-1] without [/proc]). *)

val run_poll :
  ?max_rounds:int ->
  ?obs:Obs.t ->
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

    [obs] gets the samples {!run_sim} records, each also holding the mesh's
    [poll_rounds], [poll_frames], [poll_parked], [poll_max_backlog],
    [select_wait_mean_ns] and [select_wait_max_ns] so far, and after the
    run the mesh's select waits and write stalls in its sampled-tier
    histograms [poll/select_wait_ns] and [poll/write_stall_ns]. *)

val honest_outputs : corrupt:bool array -> 'a session_result -> 'a list
(** {!Net.Loop.honest_outputs}. *)
