(** The transport seam between the round loop and the byte-moving layer.

    Each engine round, the round loop ({!Loop}) coalesces every live
    session's traffic between an ordered pair of parties into one
    {!Wire.Frame}; a transport's only job is to move those frames from
    senders to recipients. Two transports exist — the in-memory {!loopback}
    ({!Sim.run} and [Engine.run_sim]) and [Net_poll]'s single-process socket
    event loop ([Engine.run_poll]) — and one loop drives both, which makes
    the bit-identity invariant structural: messages, metrics and the
    deterministic obs export are computed identically no matter which
    transport carries the bytes.

    A transport is an {e exchange}: a per-round barrier over the round
    loop's own slot-indexed view of the round ({!slots}), which it delivers
    in place. A byte-moving transport writes each pair's frame straight from
    the slots ({!Wire.Frame.write_edge}) and takes what arrives straight
    back into them ({!Wire.Frame.edge_receive}): a frame that arrives as
    written leaves its edge's cells as they are, and any other is parsed
    into them. An in-memory transport never touches bytes at all.
    Frame-byte accounting lives in the loop and is arithmetic over the same
    slots, so the ledger is identical either way. Within the exchange a
    real transport is free to be event-driven (nonblocking I/O, partial
    writes, backpressure) — the loop only observes the completed round. *)

type slots = Wire.Frame.slots = {
  mutable live : int;
      (** Slots [0 .. live-1] are the round's live sessions, in admission
          order — the order every frame carries its entries in. *)
  sids : int array;  (** [sids.(i)]: slot [i]'s session id. *)
  msgs : string option array array array;
      (** [msgs.(i).(dst).(src)]: slot [i]'s traffic on edge [src -> dst],
          [None] when silent — recipient-major, so when [exchange] returns,
          row [msgs.(i).(dst)] is [dst]'s inbox. The diagonal is the
          party's self slot, which no transport touches. When the loop
          hands the round over a cell is what [src] sent; when [exchange]
          returns it is what [dst] received. *)
}
(** One engine round, as the loop keeps it. The loop owns every array and
    reuses them round after round; a transport reads [sids] and writes the
    off-diagonal cells of [msgs] only inside [exchange]. *)

type t = {
  name : string;  (** Backend name, e.g. ["loopback"] or ["poll"]. *)
  exchange : round:int -> entries:slots -> unit;
      (** Move one engine round's traffic — every off-diagonal pair's frame,
          keep-alive empties included — and leave in each off-diagonal cell
          of [entries.msgs] what that recipient received. A lossless
          transport leaves every cell as the loop handed it over. Raises
          [Failure] on transport-level violations: an undecodable frame, a
          wrong round, a duplicate frame, or an entry out of admission order
          or for a session that is not live. *)
  close : unit -> unit;
      (** Release transport resources; idempotent. *)
}

val loopback : unit -> t
(** The in-memory transport: [exchange] does nothing, no bytes move, and
    each recipient receives what was sent. {!Sim.run} and [Engine.run_sim]
    are the round loop over this transport. *)
