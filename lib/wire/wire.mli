(** Defensive binary serialization for protocol messages.

    Byzantine parties can put arbitrary bytes on the wire, so every decoder is
    total: it consumes from a cursor and returns [None] on any malformation
    (truncation, overlong fields, trailing garbage when using [decode_full]).
    Honest nodes treat undecodable messages as absent — the protocols in this
    repository are all designed to tolerate missing messages from corrupted
    senders.

    Encoders produce compact byte strings whose length is the basis of the
    communication-complexity accounting (8 bits per byte). *)

(** {1 Encoding} *)

type writer = Buffer.t -> unit

val encode : writer -> string
(** Runs the writer and returns the encoded bytes. The buffer behind it is a
    per-domain scratch (reused across calls; reentrant calls fall back to a
    fresh buffer), so only the returned string is allocated per message. *)

val varint_size : int -> int
(** Byte length of [w_varint v]'s output, without encoding. Raises
    [Invalid_argument] on negative input, like the writer. *)

val w_u8 : int -> writer
val w_u16 : int -> writer
(** Big-endian. Raises [Invalid_argument] when out of range. *)

val w_varint : int -> writer
(** Unsigned LEB128; non-negative ints only. *)

val w_bool : bool -> writer
val w_bytes : string -> writer
(** Varint length prefix followed by raw bytes. *)

val w_fixed : string -> writer
(** Raw bytes, no length prefix (caller knows the size). *)

val w_option : ('a -> writer) -> 'a option -> writer
val w_list : ('a -> writer) -> 'a list -> writer
val w_pair : ('a -> writer) -> ('b -> writer) -> 'a * 'b -> writer
val w_bits : Bitstring.t -> writer
(** Varint bit-length then packed bits. *)

val seq : writer list -> writer

(** {1 Decoding} *)

type cursor

type 'a reader = cursor -> 'a option

val decode_full : 'a reader -> string -> 'a option
(** Runs the reader and requires that it consumed the whole input. *)

val r_u8 : int reader
val r_u16 : int reader

val r_varint : int reader
(** Rejects encodings longer than 9 bytes (keeps values within [int]). *)

val leading_varint : string -> int
(** The varint at the start of [s], as [r_varint] would read it first; [-1]
    when malformed. Allocates nothing, so a decoder can look at a message's
    leading field before deciding to decode the rest. *)

val r_bool : bool reader

val r_bytes : ?max:int -> unit -> string reader
(** [max] (default 16 MiB) bounds the declared length before any allocation —
    a byzantine sender must not be able to trigger huge allocations. *)

val r_fixed : int -> string reader
val r_option : 'a reader -> 'a option reader

val r_list : ?max:int -> 'a reader -> 'a list reader
(** [max] (default 65536) bounds the element count. *)

val r_pair : 'a reader -> 'b reader -> ('a * 'b) reader

val r_bits : ?max_bits:int -> unit -> Bitstring.t reader
(** Enforces canonical padding via {!Bitstring.of_bytes}. *)

val encode_value : Bitstring.t -> string
(** [encode (w_bits v)]: one fixed-width protocol value as a whole message. *)

val decode_value : bits:int -> string -> Bitstring.t option
(** Inverse of {!encode_value} for values exactly [bits] wide: [None] on
    malformed bytes and on any other width, so a byzantine non-value reads
    as absent. *)

val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
(** Option bind, exposed because hand-written message decoders read better
    with it. *)

(** {1 Session-multiplexed frames}

    The round loop ([Net.Loop], behind [Net.Sim] and [Engine]) coalesces all live
    sessions' round-[r] traffic between one ordered pair of parties into a
    single frame, so per-frame transport cost (syscall, header) is paid once
    per pair per round instead of once per session. A session that is silent
    towards the recipient this round is simply absent from the frame —
    absence decodes as [None] in that session's inbox slot.

    Every frame is read by one parser, {!Frame.parse}: it validates the whole
    body, then hands each entry to a {!Frame.sink} by offset. The list forms
    ({!Frame.decode}, {!Frame.Decoder.next}) and the slot form
    ({!Frame.edge_sink}) are sinks over it. *)

module Frame : sig
  type t = {
    round : int;  (** Engine round the frame belongs to (0-based). *)
    entries : (int * string) list;
        (** [(session id, payload)] for every session with traffic, in the
            engine's admission order. *)
  }

  val max_sessions : int
  (** Bound on entries per frame enforced by the parser. *)

  val max_frame_bytes : int
  (** Bound on an encoded frame's size (16 MiB). [decode] rejects longer
      inputs, and the stream decoder rejects longer declared lengths
      {e before} allocating — a byzantine peer must not be able to trigger
      huge allocations. *)

  val encode : t -> string
  (** The reference encoding; {!write_edge} is tested against it. *)

  type sink = {
    on_round : int -> unit;
        (** Called once per valid frame with its round, before any entry. *)
    on_entry : int -> Bytes.t -> int -> int -> unit;
        (** [on_entry sid buf off len]: one entry, its payload at
            [buf[off .. off+len-1]], in frame order. The bytes are only
            valid during the call. *)
  }
  (** Where {!parse} hands a validated frame. A sink may raise to reject a
      frame; the exception propagates out of the parse. *)

  val parse : sink -> Bytes.t -> int -> int -> bool
  (** [parse sink buf pos limit] reads the frame body [buf[pos .. limit-1]].
      It first validates all of it: varint widths, the {!max_sessions}
      bound, every payload inside the body and the body fully consumed. A
      malformed body returns [false] and reaches no sink callback; a valid
      one goes to [sink.on_round], then to [sink.on_entry] once per entry,
      and returns [true]. Raises [Invalid_argument] only if the range is out
      of [buf]'s bounds; never on the bytes. *)

  val decode : string -> t option
  (** {!parse} into a list. Total: [None] on any malformation. *)

  (** {2 Slot codec}

      The round loop keeps a round slot-indexed, not as per-edge entry
      lists: slot [i] holds the [i]-th live session in admission order.
      These functions write an edge's frame straight from the slots and
      parse one straight back into them. *)

  type slots = {
    mutable live : int;
        (** Slots [0 .. live-1] hold this round's live sessions, in
            admission order. *)
    sids : int array;  (** [sids.(i)]: slot [i]'s session id. *)
    sent : string option array array array;
        (** [sent.(i).(src).(dst)]: slot [i]'s message on edge
            [src -> dst], [None] when silent. *)
    delivered : string option array array array;
        (** [delivered.(src).(dst).(i)]: what arrived for slot [i] on edge
            [src -> dst]. {!edge_sink} fills it; the reader clears it. *)
  }

  val edge_size : slots -> round:int -> src:int -> dst:int -> int
  (** Byte length of the [src -> dst] frame {!write_edge} writes. *)

  val write_edge :
    slots -> round:int -> src:int -> dst:int -> Bytes.t -> int -> int
  (** [write_edge s ~round ~src ~dst buf off] writes the [src -> dst] frame
      at [buf.[off]] and returns the offset one past it. The bytes equal
      [encode] of the edge's [(sid, payload)] entries in slot order. The
      caller sizes [buf] with {!edge_size}. Raises [Invalid_argument] on a
      negative round or sid, like the writers. *)

  val edge_sink :
    slots -> src:int -> dst:int -> on_round:(int -> unit) -> sink
  (** A sink that parses [src -> dst] frames into [delivered.(src).(dst)].
      Each frame's [on_round] runs first. The entries must come in admission
      order: each entry's slot is found by walking on from the previous
      entry's slot. An entry whose sid is not the next live sid on that walk
      (out of order, repeated, or not live) raises [Failure].

      An entry whose bytes equal [sent.(i).(src).(dst)], slot [i]'s payload
      on this edge, is delivered as that same immutable [Some] value, with
      no allocation. An entry whose bytes differ, or one for a slot with no
      [sent] cell ([sent] may be [[||]]), is delivered as a fresh copy of
      the bytes that arrived. [sent] is only read. *)

  type frame := t

  (** Incremental decoding of the length-prefixed frame stream the socket
      transports speak — [u32 big-endian body length] then the encoded frame,
      repeated. Resumable across arbitrary chunk boundaries (feed bytes as
      they arrive, in any split), and total: malformed input moves the
      decoder into a sticky error state, it never raises. *)
  module Decoder : sig
    type t

    val create : ?max_frame:int -> unit -> t
    (** [max_frame] (default {!max_frame_bytes}) bounds the declared body
        length accepted from the stream. *)

    val feed : t -> string -> unit
    (** Append a chunk of stream bytes. Ignored after an error. *)

    val feed_sub : t -> Bytes.t -> int -> int -> unit
    (** [feed_sub d src off len] appends [src[off .. off+len-1]] — {!feed}
        without the intermediate string, for callers that read into a
        reusable scratch buffer (the socket transports). The bytes are
        copied out before returning; [src] may be reused immediately.
        Raises [Invalid_argument] if the range is out of bounds. *)

    val next_with : t -> sink -> (bool, string) result
    (** [Ok true] — one complete frame consumed and {!parse}d into the
        sink; [Ok false] — the buffered bytes are a (possibly empty) prefix
        of a valid frame, feed more; [Error msg] — the stream is malformed
        (oversized declared length or undecodable body); the error is
        sticky. An exception from the sink propagates, with the frame
        consumed. *)

    val next : t -> (frame option, string) result
    (** {!next_with} into a list: [Ok (Some frame)] for a decoded frame,
        [Ok None] to feed more, [Error] as above. *)

    val buffered : t -> int
    (** Bytes fed but not yet consumed by a decoded frame — nonzero at
        end-of-stream means the stream was truncated mid-frame. *)
  end
end
