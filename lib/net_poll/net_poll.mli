(** Event-driven transport: a single-process poll loop over nonblocking
    sockets — the round loop's real-socket backend ([Engine.run_poll]).

    It moves the engine's coalesced {!Wire.Frame} traffic with {e zero}
    threads, so one process scales to 10⁴+ concurrent sessions: one
    [Unix.select] loop over a full mesh of nonblocking socket pairs, each
    frame written to its socket straight from the connection's staged
    record, and the incremental {!Wire.Frame.Decoder} on the receive side,
    resumable across partial reads.

    Backpressure is explicit: a frame the kernel's send buffer does not take
    in one piece parks its remaining bytes instead of blocking anything —
    the loop keeps servicing every other connection and writes the rest as
    the kernel buffer drains (counted in {!stats}). This is the shape under
    which the paper's communication-optimality is observable at scale: cost
    is words on the wire, not threads or syscalls per session.

    The unit of work is an {e exchange} — one engine round's traffic moved
    between the round loop's slots (see {!Net.Transport}). Within an
    exchange, everything is event-driven; across exchanges the engine keeps
    its lock-step round structure, which is what makes the poll backend
    bit-identical to the simulator.

    The steady-state byte path allocates nothing per message: each frame is
    written straight from the slots into a per-connection reusable record
    with one walk over the slots ({!Wire.Frame.write_edge}), and reads feed
    the decoder by offset from one shared scratch
    ({!Wire.Frame.Decoder.feed_sub}). The connection that writes a
    direction also decodes it, so each arriving body is compared with what
    was written ({!Wire.Frame.edge_receive}): a frame that arrived as
    written is not parsed and leaves the edge's cells of the loop's slots
    as they are; any other frame is validated and parsed into those cells,
    each entry a fresh copy. {!stats} reports the discipline as
    [p_minor_words_per_round]. *)

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
      (** Backpressure events: the kernel did not take a connection's frame
          in one piece, and the rest parked until the fd is writable. *)
  p_max_backlog : int;
      (** Peak bytes of one frame the kernel had not taken. *)
  p_minor_words_per_round : float;
      (** Mean minor-heap words allocated per exchange — the transport's
          own allocation footprint, the entries of frames that differ from
          what was written included, measured around each exchange with
          [Gc.minor_words]. *)
  p_select_wait_max_s : float;
      (** Longest single [select(2)] wait, in seconds (wall clock). *)
  p_select_wait_mean_s : float;
      (** Mean [select(2)] wait per poll, in seconds (wall clock). *)
  p_conn_peak_backlog : int array array;
      (** [m.(src).(dst)]: peak bytes of a [src -> dst] frame the kernel
          had not taken (its parked remainder), the diagonal zero.
          [p_max_backlog] is the maximum over this matrix. Freshly allocated
          by each {!stats} call. *)
}

type t

val create : n:int -> unit -> t
(** Build the nonblocking socket mesh for [n] parties. Accepted frame bodies
    are bounded by {!Wire.Frame.max_frame_bytes}. Raises [Invalid_argument]
    if [n < 1]. *)

val stats : t -> stats

val select_waits : t -> Obs.Hist.t
(** Every [select(2)] wait of the mesh's life, in nanoseconds (wall clock),
    one per poll. {!stats}' [p_select_wait_mean_s] and
    [p_select_wait_max_s] are read from it. *)

val write_stalls : t -> Obs.Hist.t
(** One entry per parked frame once it has drained: the time from the park
    to its last byte written, in nanoseconds. Empty while the kernel takes
    every frame at once. *)

val transport : t -> Net.Transport.t
(** The {!Net.Transport} view driven by [Engine.run_poll], and the mesh's
    one way to move a round. Its exchange sends every off-diagonal pair's
    frame, keep-alive empties included, each written from the round's slots
    into the connection's outbound record in one pass
    ({!Wire.Frame.write_edge}) and from there to the socket, and takes each
    arriving frame back into the slots ({!Wire.Frame.edge_receive}). A frame
    that arrives byte for byte as written leaves its edge's cells as they
    are; any other is validated, then parsed into them as fresh copies of
    the bytes that arrived. Either way what the engine delivers is only
    what came off the wire.

    The exchange raises [Failure] on transport violations: a frame for
    another round (a stale frame left queued by an exchange that raised
    part-way is one), a duplicate frame, an undecodable or oversized
    stream, an entry out of admission order or for a session that is not
    live, or a stalled loop (nothing readable or writable for 30 s — cannot
    happen unless the mesh is externally damaged). It raises
    [Invalid_argument] after {!close}. [close] closes the mesh. *)

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
