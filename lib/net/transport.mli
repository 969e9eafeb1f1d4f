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
    ({!Wire.Frame.write_edge}); a frame that arrives as written only flags
    its edge ({!Wire.Frame.edge_receive}), and any other is parsed straight
    back into the delivery index ({!Wire.Frame.edge_sink}). An in-memory
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
          fills for each edge whose frame it had to parse, [None] wherever
          nothing arrived. It is borrowed: the loop hands it over with every
          off-diagonal slot [None], reads and clears it before the next
          exchange. Empty ([[||]]) for a direct transport, which never fills
          it. *)
  faithful : bool array array;
      (** [faithful.(src).(dst)]: the [src -> dst] frame arrived byte for
          byte as it was written, so the loop delivers that edge straight
          from [sent] and the transport left its delivery index untouched.
          A wire transport clears every flag before it moves a round and
          sets them inside [exchange]. Empty for a direct transport. *)
}
(** One engine round, as the loop keeps it. The loop owns every array and
    reuses them round after round; a transport reads [sids] and [sent] and
    writes [delivered] and [faithful] only inside [exchange]. *)

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
          keep-alive empties included. A frame that arrives as written sets
          its edge's [entries.faithful] flag; every entry of any other frame
          goes into [entries.delivered]. A lossless transport flags every
          edge and leaves [delivered] all [None]; either way, what each
          slot receives ({!Wire.Frame.take}) equals [sent] transposed, slot
          for slot. Raises [Failure] on
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
