(** The synchronous round loop: K concurrent protocol sessions over one
    transport, each against its own rushing Byzantine adversary, with exact
    communication accounting. It is the only executor of the paper's
    Section 2 model in this repository: {!Sim.run} is a one-session run of
    it, and the [Engine] library's [run_sim]/[run_poll] are runs over the
    loopback and socket-mesh transports.

    Every session is an ['a Proto.t] instance executed by the same [n]
    parties. Each engine round, every live session advances by exactly one
    of its own rounds, and all sessions' traffic between an ordered pair of
    parties is coalesced into a single {!Wire.Frame}, so the per-frame
    transport cost is paid once per pair per round regardless of how many
    sessions are live. This is how the deployments from the paper's
    introduction (blockchain oracles, transaction ordering) amortize
    transport cost across thousands of concurrent agreement instances.

    Sessions are admitted from an arrival queue when their [start_round]
    arrives, run at independent round offsets (a session admitted at engine
    round [a] executes its own round [r] during engine round [a + r - 1]),
    and retire as they terminate without perturbing the others.

    Per session, every corrupted or honest party runs its protocol instance;
    each round the session's adversary sees all prescribed messages and the
    session-local round number (rushing) and substitutes the corrupted
    parties' actual messages (see {!Adversary}). Per-session metrics count
    the raw payload bytes, so a multiplexed session's outputs and metrics
    are bit-identical to the same session run alone (asserted against an
    independent reference executor by [test/test_engine.ml] and
    [test/test_sim_spec.ml]). Coalescing is accounted separately, at the
    transport layer. Executions are fully deterministic. *)

type 'a spec = {
  sid : int;  (** Session id carried in frames; distinct, non-negative. *)
  start_round : int;  (** Engine round (0-based) at which to admit. *)
  protocol : Ctx.t -> 'a Proto.t;
  adversary : Adversary.t;
      (** Supply a fresh instance per session — strategies carry PRNG
          state. *)
  setup : [ `Plain | `Authenticated ];
      (** Which context constructor the session's parties get:
          {!Ctx.make} (t < n/3) or {!Ctx.make_authenticated} (t < n/2, for
          protocols on a cryptographic setup such as the [Auth] library's). *)
}

val session :
  ?start_round:int ->
  ?adversary:Adversary.t ->
  ?setup:[ `Plain | `Authenticated ] ->
  sid:int ->
  (Ctx.t -> 'a Proto.t) ->
  'a spec
(** Spec builder; [start_round] defaults to 0, [adversary] to
    {!Adversary.passive}, [setup] to [`Plain]. *)

type 'a session_result = {
  r_sid : int;
  r_outputs : 'a option array;
      (** Per party: [Some] once the party's instance terminated. Corrupted
          parties' entries reflect their (adversary-ignored) instance and
          are reported for diagnostics only. *)
  r_metrics : Metrics.t;
      (** Session-local rounds, honest and byzantine bits, per-label bits. *)
  r_admitted_at : int;  (** Engine round at which the session was admitted. *)
  r_retired_at : int;
      (** Engine round of the session's last step ([= r_admitted_at] for
          zero-round sessions). *)
}

type aggregate = {
  engine_rounds : int;
  sessions_completed : int;
  peak_live : int;  (** Maximum number of concurrently live sessions. *)
  frames_sent : int;  (** Coalesced frames: one per ordered pair per round. *)
  naive_frames : int;
      (** Frames a frame-per-session transport would have sent. *)
  frames_saved : int;  (** [naive_frames - frames_sent]. *)
  frame_bytes : int;
      (** Encoded {!Wire.Frame} bytes on the wire — includes session-id tags
          and byzantine payloads. Each frame is sized by
          {!Wire.Frame.header_bytes} plus {!Wire.Frame.entry_bytes} per
          entry: exactly the body {!Wire.Frame.write_edge} writes. *)
  payload_bytes : int;  (** Raw session payload bytes inside the frames. *)
  honest_bits_total : int;  (** Sum of the sessions' honest bits. *)
}

type 'a outcome = {
  sessions : 'a session_result list;  (** In input order. *)
  aggregate : aggregate;
}

exception Round_limit_exceeded of int
(** Raised when a run would exceed [max_rounds] engine rounds — a
    non-termination tripwire, not an expected outcome: every protocol in
    this repository terminates. *)

val max_byzantine_bytes : int
(** Byzantine messages are truncated to this size before delivery, so honest
    allocations stay bounded regardless of the adversary. *)

val run_core :
  ?max_rounds:int ->
  ?obs:Obs.t ->
  ?on_round:(round:int -> live:int -> unit) ->
  transport:Transport.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** Run every session to completion. [corrupt.(i)] puts party [i] of every
    session under that session's adversary. The loop does not bound the
    number of corruptions — [t] only parameterizes the parties' contexts —
    so that {!Sim.run} can run the beyond-the-bound resilience experiment;
    its callers ({!Sim.run}, [Engine]) enforce at most [t].

    Each engine round has one schedule on every transport. The loop
    computes every live session's sends into slot-indexed matrices (the
    send phase, whose walk over each sender's cells also accounts each
    ordered pair's coalesced frame bytes arithmetically), hands the round's
    slot view ({!Transport.slots}: live count, slot -> sid, message
    matrices) to {!Transport.exchange}, which leaves in each cell what its
    recipient received, and delivers each inbox from those same cells (the
    delivery phase). Frames carry their entries in admission order, which
    is slot order, so both ends place an entry by its slot. Any transport
    that moves the frames faithfully yields bit-identical outputs,
    per-session metrics, aggregate ledger and deterministic observability
    export. Every per-round structure (live set, round matrices, slot view)
    is preallocated at session capacity and reused, so steady-state rounds
    allocate only per-session transients.

    Every session records through one {!Obs.session} handle, made at
    admission, which keeps one stack of open spans per party: label scopes
    push and pop it, and each message is charged once, to the sender's
    innermost open span (one {!Obs.sent} per sender per round); the
    session's {!Metrics} is filled from the handle's totals when it
    retires.

    [obs] attaches the run's {!Obs} recorder, and every session's handle
    then writes into it as the session runs.
    Span plane: each session records spans and probes under its [sid] at
    session-local rounds completed, messages are filed on the timeline under
    the 0-based engine round (and, for a recorder made with
    [~messages:true], as one event each, with its session id and
    session-local round), and the live-session count is recorded once per
    engine round — summing a session's span bits reproduces that session's
    [Metrics.honest_bits] exactly.

    Instruments, deterministic tier (recorded by the loop, never by the
    transport, so identical across transports): histograms
    [engine/frame_bytes] (every coalesced frame's encoded size — the
    histogram sum equals the ledger's [frame_bytes]) and
    [engine/session_rounds] (session lifetimes at retirement), counters
    [engine/rounds], [engine/frames], [engine/sessions], gauges
    [engine/live] and [engine/peak_live]. Sampled tier:
    [engine/round_wall_ns], the wall-clock engine-round latency. [on_round]
    runs after each engine round's retirement with the round number and
    remaining live count.

    Raises [Invalid_argument] on inconsistent parameters (corrupt-array
    size, duplicate or negative sids, negative start rounds, empty session
    list) and
    {!Round_limit_exceeded} past [max_rounds] engine rounds; transport
    failures propagate as the transport's own exceptions. *)

val honest_outputs : corrupt:bool array -> 'a session_result -> 'a list
(** Honest parties' outputs of one session, in party order; raises [Failure]
    if an honest party did not terminate (cannot happen unless [max_rounds]
    was abused). *)
