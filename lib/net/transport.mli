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
    loop's own slot-indexed view of the round ({!slots}). A byte-moving
    transport writes each pair's frame straight from the slots
    ({!Wire.Frame.write_edge}) and parses what arrives straight back into
    the delivery index ({!Wire.Frame.edge_sink}), while an in-memory
    transport never touches bytes at all. Frame-byte
    accounting lives in the loop and is arithmetic over the same slots, so
    the ledger is identical either way. Within the exchange a real transport
    is free to be event-driven (nonblocking I/O, partial writes,
    backpressure) — the loop only observes the completed round. *)

type slots = Wire.Frame.slots = {
  mutable live : int;
      (** Slots [0 .. live-1] are the round's live sessions, in admission
          order — the order every frame carries its entries in. *)
  sids : int array;  (** [sids.(i)]: slot [i]'s session id. *)
  sent : string option array array array;
      (** [sent.(i).(src).(dst)]: slot [i]'s message on edge [src -> dst]
          this round, [None] when silent; the diagonal is unused. *)
  delivered : string option array array array;
      (** [delivered.(src).(dst).(i)]: the delivery index a wire transport
          fills, [None] wherever nothing arrived. It is borrowed: the loop
          hands it over with every off-diagonal slot [None], reads and
          clears it before the next exchange. Empty ([[||]]) for a direct
          transport, which never fills it. *)
}
(** One engine round, as the loop keeps it. The loop owns every array and
    reuses them round after round; a transport reads [sids] and [sent] and
    writes [delivered] only inside [exchange]. *)

type t = {
  name : string;  (** Backend name, e.g. ["loopback"] or ["poll"]. *)
  direct : bool;
      (** True when delivery needs no wire and cannot reorder, drop or
          rewrite anything: the loop reads each session's inbox straight
          from [sent], and [exchange] only observes the round. The engine
          exploits this: with a direct transport it fuses each session's
          send and delivery into one parallel phase (one barrier per engine
          round) instead of holding every session at the exchange. The
          observable outcome is bit-identical either way; [direct] only
          licenses the cheaper schedule. *)
  exchange : round:int -> entries:slots -> unit;
      (** Move one engine round's traffic: every off-diagonal pair's frame,
          keep-alive empties included, and every entry that arrives into
          [entries.delivered]. A lossless transport leaves [delivered] equal
          to [sent] transposed, slot for slot. Raises [Failure] on
          transport-level violations: an undecodable frame, a wrong round, a
          duplicate frame, or an entry out of admission order or for a
          session that is not live. *)
  close : unit -> unit;
      (** Release transport resources; idempotent. *)
}

val loopback : unit -> t
(** The in-memory transport: [exchange] does nothing, no bytes move,
    [direct = true]. {!Sim.run} and [Engine.run_sim] are the round loop over
    this transport. *)
