(** Runtime observability plane: histograms, Chrome trace export, live
    stats endpoint. (The GC/RSS time-series sampler, which also snapshots
    the poll mesh's counters, is [Engine.Sampler].)

    Layered over (not replacing) [lib/telemetry]: telemetry byte-audits
    {e where the bits went}; this module reports {e how the run behaves} —
    latency/size distributions, GC and RSS time series, a loadable
    flamegraph timeline, and an on-demand plain-text stats dump — cheaply
    enough to stay on during soaks and benches (recording allocates
    nothing; export is the cold path).

    Every instrument carries a {!tier}:

    - {!Det}: derived from the deterministic execution (bytes, frames,
      rounds, live-session counts). Byte-identical across the sim, poll and
      multi-domain backends of one scenario — asserted in tests via
      [to_jsonl ~tier:Det] and {!Trace.chrome_trace} (virtual clock).
    - {!Sampled}: wall-clock or process-level measurements (durations, GC,
      RSS). Structurally excluded from identity asserts.

    The registry is single-threaded by design: the round loop
    ([Net.Loop]) records from its sequential sections only, the poll loop
    from its own (only) thread. *)

(** {1 Log-bucketed histograms} *)

module Hist : sig
  type t
  (** A fixed 64-slot, log-bucketed (HDR-style) histogram over [int].
      Bucket [0] holds every value [<= 0]; bucket [i >= 1] holds the values
      with exactly [i] significant bits, i.e. [[2^(i-1), 2^i)]. Recording
      is O(word size) and allocation-free. *)

  val slots : int
  (** Number of buckets: 64. *)

  val create : unit -> t

  val record : t -> int -> unit
  (** Count one observation. No allocation. *)

  val count : t -> int
  val sum : t -> int

  val min_value : t -> int
  (** Smallest recorded value; [0] when empty. *)

  val max_value : t -> int
  (** Largest recorded value; [0] when empty. *)

  val mean : t -> float
  (** [sum / count]; [0.0] when empty. *)

  val bucket_of_value : int -> int
  (** Total over [int]: every value maps to exactly one bucket. *)

  val bucket_lo : int -> int
  (** Inclusive lower bound of a bucket ([min_int] for bucket 0). *)

  val bucket_hi : int -> int
  (** Inclusive upper bound of a bucket ([0] for bucket 0; [max_int] for the
      platform's top bucket). *)

  val quantile_bounds : t -> float -> int * int
  (** [(lo, hi)] of the bucket containing the [q]-quantile (1-based
      [ceil (q * count)] rank over the sorted recordings), clamped to the
      observed [[min, max]] — the true quantile value lies within, so the
      estimate is off by at most one bucket width. [(0, 0)] when empty; [q]
      is clamped to [[0, 1]]. *)

  val quantile : t -> float -> int
  (** Upper edge of {!quantile_bounds}: a conservative estimate that never
      exceeds the recorded maximum. *)

  val counts : t -> int array
  (** Copy of the 64 bucket counts. *)

  val merge : into:t -> t -> unit
  (** Pointwise add; min/max/sum/count combine accordingly. *)
end

(** {1 The instrument registry} *)

type tier =
  | Det  (** Deterministic: identical across backends, identity-asserted. *)
  | Sampled  (** Wall-clock / process-level: excluded from identity asserts. *)

type t
(** A named registry of counters, gauges and histograms. *)

type counter
type gauge

val create : unit -> t

val counter : t -> tier:tier -> string -> counter
(** Get or create. Raises [Invalid_argument] if [name] already exists with
    another tier or kind. *)

val gauge : t -> tier:tier -> string -> gauge
val hist : t -> tier:tier -> string -> Hist.t

val incr : counter -> int -> unit
val counter_value : counter -> int
val set_gauge : gauge -> int -> unit

val max_gauge : gauge -> int -> unit
(** Raise the gauge to [v] if larger (peak tracking). *)

val gauge_value : gauge -> int

val to_jsonl : ?tier:tier -> t -> string
(** Canonical JSONL: counters, then gauges, then histograms, each sorted by
    name; histogram lines carry count/sum/min/max, p50/p90/p99 and the
    non-empty buckets. [?tier] restricts to one tier — [~tier:Det] is the
    deterministic export used in byte-identity asserts. *)

val pp_text : Format.formatter -> t -> unit
(** Human-readable dump: every instrument with histogram quantiles — what
    the live endpoint serves. *)

val render_text : t -> string

(** {1 Chrome trace_event export} *)

module Trace : sig
  val chrome_trace : ?round_us:int -> Telemetry.t -> string
  (** Render the recorder's span trees and round timeline as Chrome
      [trace_event] (catapult) JSON, loadable in [chrome://tracing] or
      Perfetto. The clock is virtual: one engine round is [round_us]
      (default 1000) microseconds, so the trace is a pure function of the
      deterministic execution and byte-identical across backends. Tracks:
      pid = session, tid = party (spans as complete events, duration
      inclusive of the exit round), plus a synthetic [engine] process
      carrying one instant per round and per-round counters (honest
      traffic, live sessions). *)
end

(** {1 Live stats endpoint} *)

module Endpoint : sig
  type t
  (** A Unix-domain listening socket that serves [render ()] to every
      client that connects, one-shot (connect, read to EOF). *)

  val create : path:string -> render:(unit -> string) -> t
  (** Bind and listen on [path] (an existing socket file is replaced),
      nonblocking. Raises [Unix.Unix_error] on bind failure. *)

  val fd : t -> Unix.file_descr
  val path : t -> string

  val service : t -> unit
  (** Accept and answer every pending client, then return. Never raises;
      writes to a stuck client time out (0.5 s) rather than blocking the
      caller — safe to invoke from inside the poll loop. *)

  val close : t -> unit
  (** Close and unlink; idempotent. *)

  val fetch : path:string -> (string, string) result
  (** Client side: connect to [path] and read the dump to EOF ([ca_cli obs]
      uses this). [Error] carries the [Unix] error message. *)
end

(** {1 Export schema checks}

    Self-validation for the three export formats, used by the [obs-smoke]
    make target and tests. Checks structure, not values. *)

module Check : sig
  val registry_jsonl : string -> (int, string) result
  (** Validate a {!to_jsonl} export; [Ok] carries the line count. *)

  val sampler_jsonl : string -> (int, string) result
  (** Validate an [Engine.Sampler.to_jsonl] export (header line
      required). *)

  val chrome_trace : string -> (int, string) result
  (** Validate a {!Trace.chrome_trace} export; [Ok] carries the event
      count. *)
end
