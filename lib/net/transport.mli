(** The transport seam between the round loop and the byte-moving layer.

    Each engine round, the round loop ({!Loop}) coalesces every live
    session's traffic between an ordered pair of parties into one
    {!Wire.Frame}; a transport's only job is to move those frames from
    senders to recipients and hand back the decoded entry lists. Two
    transports exist — the in-memory {!loopback} ({!Sim.run} and
    [Engine.run_sim]) and [Net_poll]'s single-process socket event loop
    ([Engine.run_poll]) — and one loop drives both, which makes the
    bit-identity invariant structural: messages, metrics and the
    deterministic obs export are computed identically no matter which
    transport carries the bytes.

    A transport is an {e exchange}: a per-round barrier that accepts the
    round's entry matrix and returns the delivered entries. The engine hands
    over only the {e decoded} form; a byte-moving transport encodes each
    pair's {!Wire.Frame} itself (in place, into its own buffers — see
    [Net_poll]), while an in-memory transport never touches bytes at all.
    Frame-byte accounting lives in the engine, computed from
    {!Wire.Frame.encoded_size}, so the ledger is identical either way.
    Within the exchange a real transport is free to be event-driven
    (nonblocking I/O, partial writes, backpressure) — the engine only
    observes the completed round. *)

type bundles = (int * string) list array array
(** [b.(src).(dst)] is the ordered [(sid, payload)] entry list of the frame
    from [src] to [dst], in admission order; the diagonal is unused. *)

type t = {
  name : string;  (** Backend name, e.g. ["loopback"] or ["poll"]. *)
  direct : bool;
      (** True when [exchange] is the identity on [entries] — delivery needs
          no wire and cannot reorder, drop or rewrite anything. The engine
          exploits this: with a direct transport it fuses each session's send
          and delivery into one parallel phase (one barrier per engine round)
          instead of holding every session at the exchange. The observable
          outcome is bit-identical either way; [direct] only licenses the
          cheaper schedule. *)
  exchange : round:int -> entries:bundles -> bundles;
      (** Move one engine round's traffic. [entries.(s).(d)] is the decoded
          frame content (empty lists included — encoded as the keep-alive
          frames that hold rounds together). The result is indexed like
          [entries]; a lossless transport returns exactly [entries]. The
          returned matrix (and the lists inside it) may be reused by the
          transport on the next exchange — the engine consumes it before
          calling again. Raises [Failure] on transport-level violations
          (undecodable frame, wrong round). *)
  close : unit -> unit;
      (** Release transport resources; idempotent. *)
}

val loopback : unit -> t
(** The in-memory transport: delivery is the identity on [entries], no bytes
    move, [direct = true]. {!Sim.run} and [Engine.run_sim] are the round
    loop over this transport. *)
