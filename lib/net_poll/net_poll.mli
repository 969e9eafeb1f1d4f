(** Event-driven transport: a single-process poll loop over nonblocking
    sockets — the round loop's real-socket backend ([Engine.run_poll]).

    It moves the engine's coalesced {!Wire.Frame} traffic with {e zero}
    threads, so one process scales to 10⁴+ concurrent sessions: one
    [Unix.select] loop over a full mesh of nonblocking socket pairs, a
    bounded outbound ring buffer per connection, and the incremental
    {!Wire.Frame.Decoder} on the receive side, resumable across partial
    reads.

    Backpressure is explicit: a connection whose outbound ring is full parks
    its remaining frame bytes instead of blocking anything — the loop keeps
    servicing every other connection and tops the ring up as the kernel
    buffer drains (counted in {!stats}). This is the shape under which the
    paper's communication-optimality is observable at scale: cost is words
    on the wire, not threads or syscalls per session.

    The unit of work is an {e exchange} — one engine round's traffic moved
    between the round loop's slots (see {!Net.Transport}). Within an
    exchange, everything is event-driven; across exchanges the engine keeps
    its lock-step round structure, which is what makes the poll backend
    bit-identical to the simulator.

    The steady-state byte path allocates nothing per message but the
    delivered payload and its [Some]: each frame is
    written straight from the slots into a per-connection reusable buffer
    ({!Wire.Frame.write_edge}), reads feed the decoder by offset from one
    shared scratch ({!Wire.Frame.Decoder.feed_sub}), and each arriving
    frame is parsed straight into the loop's delivery index
    ({!Wire.Frame.edge_sink}). {!stats} reports the discipline:
    [p_frames_encoded_in_place] and [p_minor_words_per_round]. *)

type stats = {
  p_rounds : int;  (** Exchanges completed. *)
  p_frames : int;  (** Frames moved (keep-alive empties included). *)
  p_frame_bytes : int;
      (** Encoded frame bytes, excluding the u32 length prefix — comparable
          with the engine ledger's [frame_bytes]. *)
  p_wire_bytes : int;  (** Bytes written to sockets, prefixes included. *)
  p_reads : int;  (** [read(2)] calls that returned data. *)
  p_writes : int;  (** [write(2)] calls that moved data. *)
  p_polls : int;  (** [select(2)] iterations. *)
  p_parked : int;
      (** Backpressure events: a connection's frame did not fit into its
          outbound ring in one piece and parked for a later top-up. *)
  p_max_backlog : int;
      (** Peak bytes queued behind a single connection (ring + parked). *)
  p_frames_encoded_in_place : int;
      (** Frames written from the slots straight into a connection's
          reusable outbound buffer (the engine-facing path). The direct-call
          string interface below bypasses in-place encoding, so this counts
          only transport-driven frames. *)
  p_minor_words_per_round : float;
      (** Mean minor-heap words allocated per exchange on the engine-facing
          path — the transport's own allocation footprint, delivered
          payloads included, measured around each exchange with
          [Gc.minor_words]. *)
  p_select_wait_max_s : float;
      (** Longest single [select(2)] wait, in seconds (wall clock). *)
  p_select_wait_mean_s : float;
      (** Mean [select(2)] wait per poll, in seconds (wall clock). *)
  p_conn_peak_backlog : int array array;
      (** [m.(src).(dst)]: peak bytes ever queued behind the [src -> dst]
          connection (ring + parked frame remainder), the diagonal zero.
          [p_max_backlog] is the maximum over this matrix. Freshly allocated
          by each {!stats} call. *)
}

type sink = {
  sink_select_wait : float -> unit;
      (** Called once per [select(2)] return with the wait in seconds. *)
  sink_write_stall : float -> unit;
      (** Called when a parked connection fully drains, with the stall
          duration in seconds (first park to empty backlog). *)
}
(** Per-event duration callbacks for an external observer (the [lib/obs]
    sampled-tier histograms). Callbacks run inside the poll loop: they must
    not block, raise, or re-enter this module. *)

type t

val create : ?outbuf:int -> ?max_frame:int -> n:int -> unit -> t
(** Build the nonblocking socket mesh for [n] parties. [outbuf] (default
    64 KiB, minimum 16 bytes) is the per-connection outbound ring capacity —
    shrink it to force parking in tests; [max_frame] (default
    {!Wire.Frame.max_frame_bytes}) bounds accepted frame bodies. Raises
    [Invalid_argument] if [n < 1]. *)

val exchange :
  t -> round:int -> string array array -> (int * string) list array array
(** [exchange t ~round frames] moves [frames.(src).(dst)] (an encoded
    {!Wire.Frame}, the diagonal ignored) to its recipient and returns the
    decoded entry lists, indexed the same way. Every off-diagonal frame is
    sent, empties included. Raises [Failure] on transport violations: a
    frame that decodes to the wrong round, an undecodable or oversized
    stream, or a stalled loop (nothing readable or writable for 30 s —
    cannot happen unless the mesh is externally damaged). Raises
    [Invalid_argument] after {!close} or on a mis-shaped matrix. *)

val stats : t -> stats

val set_sink : t -> sink option -> unit
(** Install (or clear) the duration-event sink. No-op on the byte path when
    unset: the only cost without a sink is the select-wait bookkeeping that
    {!stats} reports anyway. *)

val set_control : t -> (Unix.file_descr * (unit -> unit)) option -> unit
(** Install a control endpoint: [fd] joins every [select] read set inside
    {!exchange}, and [service] runs whenever it is readable — the hook the
    live stats endpoint ([Obs.Endpoint]) uses to answer clients mid-round.
    [service] must leave [fd] unreadable before returning (accept and answer
    every pending client) or the loop will spin on it; it must not block or
    raise. The fd is not closed by {!close}. *)

val transport : t -> Net.Transport.t
(** The {!Net.Transport} view driven by [Engine.run_poll] ([direct = false]):
    each pair's frame is sized with {!Wire.Frame.edge_size} and written from
    the round's slots into the connection's outbound buffer
    ({!Wire.Frame.write_edge}); each frame that arrives is validated, then
    parsed into [delivered] ({!Wire.Frame.edge_sink}), so what the engine
    delivers is only what came off the wire. On top of {!exchange}'s
    violations it raises [Failure] on an entry out of admission order or for
    a session that is not live. [close] closes the mesh. *)

val close : t -> unit
(** Close every socket; idempotent. *)

(** {1 Process memory probes}

    Linux-only helpers (read from [/proc/self]); [None] where unavailable.
    The soak's RSS ceiling and the bench's [rss_bytes] column use these. *)

val rss_bytes : unit -> int option
(** Current resident set size, in bytes. *)

val rss_peak_bytes : unit -> int option
(** Peak resident set size ([VmHWM]), in bytes. Kernels that omit [VmHWM]
    report the last peak observed by this process instead of [None]
    forever. *)

val parse_vm_line : key:string -> string -> int option
(** [parse_vm_line ~key line] parses one [/proc/self/status] line of the
    form ["VmHWM:\t  1234 kB"]: when [line] starts with [key] and carries
    digits, the value in bytes ([kB * 1024]); [None] for other keys or a
    digitless line. Exposed for tests. *)
