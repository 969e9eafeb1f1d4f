(** Deterministic observability for protocol executions.

    A recorder of type {!t} is threaded (optionally) through the round loop
    ([Net.Loop.run_core], and so [Net.Sim.run] and the engine backends),
    which feeds it four kinds of events:

    - {b spans}: every [Proto.Push]/[Proto.Pop] label scope becomes a node in
      a per-(session × party) span tree, carrying its enter/exit round
      (session-local, in rounds completed), the honest bits and messages sent
      while it was the {e innermost} open scope, and its child spans. A
      synthetic root span (labelled {!root_label}) catches traffic sent
      outside any scope, so summing span bits over a session reproduces
      [Metrics.honest_bits] {e exactly} — the ledger-equality invariant the
      tests assert on every backend.
    - {b round timelines}: per engine round, honest/byzantine bits and
      message counts plus the number of live sessions —
      streamed into per-round cells, never retaining message lists.
    - {b probes}: protocol-emitted data points ([Proto.probe]), e.g. the
      convex-hull convergence probes of FINDPREFIX and HIGHCOSTCA. Probe
      values are rendered lazily by the runtime (bare runs never pay), and
      occurrences of the same key at one party are numbered so curves can be
      aligned across parties.
    - {b meta}: free-form key/value pairs describing the run.

    Everything is exported as canonical JSONL ({!to_jsonl}: sorted buckets,
    pre-order spans — byte-identical across runs for a fixed seed) and as a
    compact text report ({!pp_report}: aggregated span tree, per-round
    heatmap, top-k labels, convergence curves).

    The recorder is safe to share across domains (one mutex, uncontended in
    the round loop, which gives domain-parallel sessions private shards and
    merges them with {!merge}) and has no dependencies beyond the in-repo
    [Bigint]. *)

type t

val create : ?probes:bool -> unit -> t
(** [probes] (default [true]) controls whether this recorder captures probe
    data points. Spans and the round timeline are passive byte accounting
    and stay cheap regardless of protocol state size; probes render full
    protocol values ([Bigint.to_hex] of the candidate, so O(ℓ) work per
    probe) and can dominate instrumented wall-clock at large ℓ. Pass
    [~probes:false] for always-on production telemetry; the default keeps
    full fidelity for analysis runs. *)

val capture_probes : t -> bool
(** Whether this recorder captures probes. Runtimes check this {e before}
    forcing a probe's value thunk, so a [~probes:false] recorder skips the
    O(ℓ) value render entirely, not just its storage. *)

val root_label : string
(** Label of the synthetic per-(session × party) root span, ["(run)"]. *)

(** {1 Recording (called by runtimes, not by protocols)} *)

val set_meta : t -> string -> string -> unit
(** Attach a key/value describing the run; insertion order is preserved in
    the export. Re-setting a key overwrites its value in place. *)

val push : t -> session:int -> party:int -> round:int -> label:string -> unit
(** Open a child span of the innermost open span. [round] is the
    session-local number of rounds completed. *)

val pop : t -> session:int -> party:int -> round:int -> unit
(** Close the innermost open span; ignored if only the root is open. *)

val probe_event :
  t ->
  session:int ->
  party:int ->
  round:int ->
  byzantine:bool ->
  key:string ->
  value:string ->
  unit
(** Record a probe data point. Convergence analysis expects [value] to be
    an optionally-signed hexadecimal integer ([Bigint.to_hex]). *)

val message :
  t ->
  session:int ->
  party:int ->
  round:int ->
  timeline_round:int ->
  bytes:int ->
  byzantine:bool ->
  unit
(** Account one sent message ([8 × bytes] bits) in session-local round
    [round]. Honest messages are attributed to the sender's innermost open
    span; byzantine ones only to the timeline. [timeline_round] is the
    engine round the traffic occupies — the timeline's key. *)

val live_sessions : t -> round:int -> live:int -> unit
(** Record the number of live sessions during an engine round. *)

val finish : t -> session:int -> party:int -> round:int -> unit
(** Mark a party's instance as finished after [round] session rounds: fixes
    the root span's exit round (and any span left open by a truncated run). *)

val merge : into:t -> t -> unit
(** Fold a shard recorder into [into], for parallel runs where each shard
    recorded a disjoint set of (session × party) buckets (the engine uses one
    shard per session): buckets are adopted wholesale — a bucket present in
    both recorders raises [Invalid_argument] — timeline cells are summed per
    round ([live] max-merges, and is normally recorded only by the
    coordinator), and [src] meta keys unknown to [into] are appended.
    Merging the shards of a deterministic run into the coordinator's recorder
    reproduces the sequential recorder byte for byte under {!to_jsonl}
    (buckets are re-sorted at export; cell sums commute). [src] must be
    quiescent and must not be used afterwards (its buckets are shared). *)

(** {1 Queries} *)

val sessions : t -> int list
(** Distinct session ids seen, ascending. *)

val honest_bits : t -> session:int -> int
(** Sum of span bits over the session's buckets — equals the session's
    [Metrics.honest_bits] (the ledger-equality invariant). *)

val honest_bits_total : t -> int

val label_bits : t -> (string * int) list
(** Honest bits aggregated by span label across all sessions and parties
    (the root span reported as ["(unlabeled)"], the same name
    [Metrics.no_label] uses); zero-bit labels dropped; sorted bits
    descending, then label ascending — directly comparable to
    [Metrics.labels]. *)

val probe_keys : t -> session:int -> string list
(** Distinct probe keys recorded in a session, ascending. *)

val convergence :
  t -> session:int -> key:string -> (Bigint.t * Bigint.t) list
(** Per occurrence index of [key] (ascending), the (min, max) hull of the
    values probed by {e honest} parties at that occurrence. The hull width
    is [max - min]; for the FINDPREFIX / HIGHCOSTCA probes the width curve
    is the measured Bounded Pre-Agreement convergence. Parties whose value
    does not parse as hex are skipped defensively. *)

(** {1 Structural views}

    Read-only walks over the recorded structure, in the same canonical order
    as {!to_jsonl} — the seam the [lib/obs] Chrome [trace_event] exporter is
    built on, so a trace rendered from a deterministic execution is itself
    byte-identical. Callbacks run under the recorder's mutex: they must not
    re-enter this module on the same recorder. *)

type span_view = {
  v_session : int;
  v_party : int;
  v_depth : int;  (** 0 for the synthetic root span. *)
  v_path : string;  (** Slash-joined label path from the root. *)
  v_label : string;
  v_enter : int;
  v_exit : int;  (** Open spans report the bucket's last recorded round. *)
  v_bits : int;  (** Exclusive of children. *)
  v_msgs : int;
}

val iter_span_views : t -> (span_view -> unit) -> unit
(** Every span of every (session, party) bucket: buckets sorted by
    (session, party), spans pre-order within each bucket — exactly the
    {!to_jsonl} span order. *)

type round_view = {
  r_round : int;
  r_bits : int;
  r_msgs : int;
  r_byz_bits : int;
  r_byz_msgs : int;
  r_live : int;  (** -1 when never recorded for this round. *)
}

val iter_round_views : t -> (round_view -> unit) -> unit
(** Every timeline cell, rounds ascending. *)

(** {1 Export} *)

val to_jsonl : t -> string
(** Canonical JSONL: [meta] lines (insertion order), [round] lines
    (ascending), [span] lines (buckets by (session, party), spans pre-order),
    [probe] lines (same bucket order, emission order), one [total] line.
    Byte-identical across runs of the same deterministic execution. *)

val pp_report : ?top:int -> Format.formatter -> t -> unit
(** Compact human-readable report: totals, aggregated span tree, per-round
    heatmap, top-[top] (default 10) labels, convergence curves. *)
