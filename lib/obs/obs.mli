(** The observability plane: one recorder per run.

    A recorder of type {!t} is threaded (optionally) through the round loop
    ([Net.Loop.run_core], and so [Net.Sim.run] and the engine backends) and
    holds two kinds of data:

    - {b the span plane}, a byte audit of {e where the bits went}:
      - {i spans}: every [Proto.Push]/[Proto.Pop] label scope becomes a node
        in a per-(session × party) span tree, carrying its enter/exit round
        (session-local, in rounds completed), the honest bits and messages
        sent while it was the {e innermost} open scope, and its child spans.
        A synthetic root span (labelled ["(run)"]) catches traffic sent
        outside any scope. Each message is charged once, to the sender's
        innermost open span; a closing span's bits join its label's total.
        [Metrics] is filled from these totals, so summing span bits over a
        session reproduces [Metrics.honest_bits] {e exactly}.
      - {i round timeline}: per engine round, honest/byzantine bits and
        message counts plus the number of live sessions.
      - {i probes}: protocol-emitted data points ([Proto.probe]), e.g. the
        convex-hull convergence probes of FINDPREFIX and HIGHCOSTCA. A probe
        keeps the party's (immutable) bitstring; the hex render happens at
        export. Occurrences of the same key at one party are numbered so
        curves can be aligned across parties.
      - {i meta}: free-form key/value pairs describing the run.
      - {i message events} (only with [create ~messages:true]): one per
        sent message, exported as CSV ({!messages_csv}).
    - {b instruments}, a report of {e how the run behaves}: counters, gauges
      and log-bucketed histograms, each carrying a {!tier}.

    Everything exports as one canonical JSONL ({!to_jsonl}), as a Chrome
    trace ({!Trace.chrome_trace}), as a span report ({!pp_report}) and as a
    plain-text stats dump ({!render_text}, what the live {!Endpoint}
    serves).

    A recorder is single-threaded. The round loop gives every session a
    private {!shard} and folds the shards back with {!merge}, in
    session-index order, at every domain count. (The GC/RSS time-series sampler, which also
    snapshots the poll mesh's counters, is [Engine.Sampler].) *)

(** {1 JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val escape : string -> string
  (** Escape a string for inclusion between JSON double quotes. *)

  val parse : string -> (t, string) result
  (** Strict RFC 8259 reader: string escapes are the JSON set only, [\u]
      takes exactly four hex digits, raw control characters and trailing
      input are rejected, and numbers follow the JSON grammar. [Error]
      carries the reason and byte offset. *)
end

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

(** {1 The recorder} *)

type tier =
  | Det
      (** Deterministic: identical across backends, identity-asserted. The
          span plane is Det. *)
  | Sampled  (** Wall-clock / process-level: excluded from identity asserts. *)

type t

val create : ?messages:bool -> unit -> t
(** A recorder that keeps the span plane and instruments. With [~messages:true]
    (default [false]) it also keeps one event per sent message. *)

val shard : t option -> t
(** The recorder the round loop gives one session. [shard (Some parent)]
    keeps what [parent] keeps, for {!merge} into [parent]. [shard None]
    keeps only each party's stack of open spans and the totals they fold
    into ({!counts}, {!label_bits}) — no span tree, timeline, probes or
    events — which is what a session's [Metrics] is filled from. *)

(** {2 Instruments} *)

type counter
type gauge

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

(** {2 The span plane (recorded by the round loop, not by protocols)} *)

val set_meta : t -> string -> string -> unit
(** Attach a key/value describing the run; insertion order is preserved in
    the export. Re-setting a key overwrites its value in place. Meta lines
    are part of the Det export, so they should describe the scenario, not
    the backend that ran it. *)

val push : t -> session:int -> party:int -> round:int -> label:string -> unit
(** Open a child span of the innermost open span. [round] is the
    session-local number of rounds completed. *)

val pop : t -> session:int -> party:int -> round:int -> unit
(** Close the innermost open span; ignored if only the root is open. *)

val probe :
  t ->
  session:int ->
  party:int ->
  round:int ->
  byzantine:bool ->
  key:string ->
  value:Bitstring.t ->
  unit
(** Record a probe data point. The value is kept as is and rendered as
    lowercase hex ([Bigint.to_hex] of [Bigint.of_bitstring]) at export. *)

val message :
  t ->
  session:int ->
  party:int ->
  dst:int ->
  round:int ->
  timeline_round:int ->
  bytes:int ->
  byzantine:bool ->
  unit
(** Account one message ([8 × bytes] bits) sent by [party] to [dst] in
    session-local round [round]. Honest messages are charged to the sender's
    innermost open span; byzantine ones only to the sender's byzantine
    counts and the timeline. [timeline_round] is the engine round the
    traffic occupies — the timeline's key. *)

val message_row :
  t ->
  session:int ->
  party:int ->
  round:int ->
  timeline_round:int ->
  byzantine:bool ->
  string option array ->
  unit
(** [message_row t ... row] accounts every message [party] sends in one
    round: [row.(dst)] is its message to [dst], and [row.(party)] (the self
    slot) is free. The totals, spans and timeline equal one {!message} call
    per [Some] entry, in [dst] order, but the row is charged once; a recorder
    made with [~messages:true] still records one event per message. *)

val live_sessions : t -> round:int -> live:int -> unit
(** Record the number of live sessions during an engine round. *)

val finish : t -> session:int -> party:int -> round:int -> unit
(** Mark a party's instance as finished after [round] session rounds: fixes
    the root span's exit round and closes any span a truncated run left
    open. *)

val merge : into:t -> t -> unit
(** Fold a shard recorder into [into], where each shard recorded a disjoint
    set of (session × party) buckets (the round loop uses one shard per
    session): buckets and message events are adopted wholesale — a bucket
    present in both recorders raises [Invalid_argument] — timeline cells and
    label totals are summed ([live] max-merges, and is normally recorded
    only by the coordinator), and [src] meta keys unknown to [into] are
    appended.
    [src]'s instruments are not merged: in the loop only the coordinator
    records instruments, so shards carry none. Merging
    the shards of a deterministic run into the coordinator's recorder
    reproduces the sequential recorder byte for byte under {!to_jsonl}
    (buckets are re-sorted at export; sums commute). [src] must not be used
    afterwards (its buckets are shared). *)

(** {2 Queries} *)

val sessions : t -> int list
(** Distinct session ids seen, ascending. *)

type counts = { honest_bits : int; honest_msgs : int; byz_bits : int; byz_msgs : int }

val counts : t -> counts
(** Bits and messages sent, honest and byzantine, over every bucket. *)

val honest_bits : t -> session:int -> int
(** Honest bits sent in the session — its span bits summed, which equals
    the session's [Metrics.honest_bits]. *)

val honest_bits_total : t -> int

val label_bits : t -> (string * int) list
(** Honest bits by span label across all sessions and parties, the root
    span reported as ["(unlabeled)"]. A label is listed when some message
    was sent under it. Sorted bits descending, then label ascending — the
    order of [Metrics.labels], which is this list for one session. *)

val probe_keys : t -> session:int -> string list
(** Distinct probe keys recorded in a session, ascending. *)

val convergence : t -> session:int -> key:string -> (Bigint.t * Bigint.t) list
(** Per occurrence index of [key] (ascending), the (min, max) hull of the
    values probed by {e honest} parties at that occurrence. The hull width
    is [max - min]; for the FINDPREFIX / HIGHCOSTCA probes the width curve
    is the measured Bounded Pre-Agreement convergence. *)

(** {2 Export} *)

val to_jsonl : ?tier:tier -> t -> string
(** Canonical JSONL. First the span plane — [meta] lines (insertion order),
    [round] lines (ascending), [span] lines (buckets by (session, party),
    spans pre-order), [probe] lines (same bucket order, emission order), one
    [total] line — omitted when nothing was recorded there. Then the
    instruments: counters, then gauges, then histograms, each sorted by
    name; histogram lines carry count/sum/min/max, p50/p90/p99 and the
    non-empty buckets. [~tier:Det] keeps the span plane and the Det
    instruments — the deterministic export used in byte-identity asserts;
    [~tier:Sampled] keeps only the Sampled instruments. *)

val render_text : t -> string
(** Human-readable dump of every instrument with histogram quantiles — what
    the live endpoint serves. *)

val pp_report : ?top:int -> Format.formatter -> t -> unit
(** Compact span report: totals, aggregated span tree, per-round heatmap,
    top-[top] (default 10) labels, convergence curves (widths printed with
    {!show_value}). *)

val show_value : Bigint.t -> string
(** How reports print a protocol value. Up to 256 bits: decimal. Longer:
    the sign, the leading and the trailing 16 hex digits, the bit length and
    the SHA-256 of the magnitude's big-endian bytes, e.g.
    ["0x8000000000000000...0000000000000001 (1048577 bits, sha256 …)"].
    O(ℓ) time and allocation, where decimal is quadratic in ℓ. *)

(** {2 Message events (recorders made with [~messages:true])} *)

type message = {
  session : int;
  round : int;  (** session-local round, 1-based *)
  src : int;
  dst : int;
  bytes : int;
  byzantine : bool;  (** sender was corrupted *)
  label : string;
      (** the sender's innermost [Proto.with_label] scope; [""] outside
          any scope *)
}

val messages : t -> message list
(** Every recorded message, sorted by (session, round, src, dst). *)

val csv_header : string
(** ["round,src,dst,bytes,byzantine,label,session"]. *)

val messages_csv : t -> string
(** {!csv_header}, then one row per message in {!messages} order. *)

val pp_messages : Format.formatter -> t -> n:int -> unit
(** Message count, the five rounds with the most honest kbits, and bytes
    sent per party [0 .. n-1]. *)

(** {1 Chrome trace_event export} *)

module Trace : sig
  val chrome_trace : t -> string
  (** Render the recorder's span trees and round timeline as Chrome
      [trace_event] (catapult) JSON, loadable in [chrome://tracing] or
      Perfetto. The clock is virtual: one engine round is 1000
      microseconds, so the trace is a pure function of the
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
    make target and tests. Lines are read with the strict {!Json.parse}. *)

module Check : sig
  val registry_jsonl : string -> (int, string) result
  (** Validate a {!to_jsonl} export, every line kind: the required int,
      string and boolean fields are present, instrument tiers are [det] or
      [sampled], and probe values are lowercase hex. [Ok] carries the line
      count. *)

  val sampler_jsonl : string -> (int, string) result
  (** Validate an [Engine.Sampler.to_jsonl] export (header line
      required). *)

  val chrome_trace : string -> (int, string) result
  (** Validate a {!Trace.chrome_trace} export; [Ok] carries the event
      count. *)
end
