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
    module-level scratch (reused across calls; reentrant calls fall back to a
    fresh buffer), so only the returned string is allocated per message. *)

val varint_size : int -> int
(** Byte length of [w_varint v]'s output, without encoding. Raises
    [Invalid_argument] on negative input, like the writer. *)

val w_u8 : int -> writer
(** Raises [Invalid_argument] when out of range. *)

val w_varint : int -> writer
(** Unsigned LEB128; non-negative ints only. *)

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

val r_varint : int reader
(** Reads at most ten bytes; [None] when truncated or negative as an [int].
    A tenth byte's value bits are dropped: ["\x80"] × 9 then ["\x01"] reads
    as 0, so distinct byte strings can decode to the same int. *)

val leading_varint : string -> int
(** The varint at the start of [s], as [r_varint] would read it first (a
    tenth byte's value bits dropped); [-1] when malformed. Allocates nothing, so a decoder can look at a message's
    leading field before deciding to decode the rest. *)

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

    The layout, [varint round, varint count, count × (varint sid, varint
    length, payload)], is sized by {!Frame.header_bytes} and
    {!Frame.entry_bytes} and written by {!Frame.write_edge}. A frame has
    one reader, {!Frame.edge_receive}. *)

module Frame : sig
  type t = {
    round : int;  (** Engine round the frame belongs to (0-based). *)
    entries : (int * string) list;
        (** [(session id, payload)] for every session with traffic, in the
            engine's admission order. *)
  }
  (** A frame as a value: the input of the reference writer {!encode}. *)

  val max_frame_bytes : int
  (** Bound on a frame body's size (16 MiB), and on each payload in it. The
      stream {!Decoder} rejects a longer declared length {e before}
      buffering the body — a byzantine peer must not be able to trigger
      huge allocations. *)

  val encode : t -> string
  (** The reference encoding; {!write_edge} is tested against it. *)

  val sid_bytes : int -> int
  val entry_bytes : sid_bytes:int -> int -> int
  (** [entry_bytes ~sid_bytes:(sid_bytes sid) len]: the bytes one entry with
      a [len]-byte payload takes in a frame body — varint sid, varint
      length, payload. A session's [sid_bytes] is computed once. *)

  val header_bytes : round:int -> count:int -> int
  (** The bytes before a frame body's first entry: varint round, varint
      count. A body is its header plus its entries. *)

  (** {2 Slot codec}

      The round loop keeps a round slot-indexed, not as per-edge entry
      lists: slot [i] holds the [i]-th live session in admission order.
      These functions write an edge's frame straight from the slots and
      take one that arrives straight back into them. *)

  type slots = {
    mutable live : int;
        (** Slots [0 .. live-1] hold this round's live sessions, in
            admission order. *)
    sids : int array;  (** [sids.(i)]: slot [i]'s session id. *)
    msgs : string option array array array;
        (** [msgs.(i).(dst).(src)]: slot [i]'s message on edge
            [src -> dst], [None] when silent — recipient-major, so row
            [msgs.(i).(dst)] is [dst]'s inbox. {!write_edge} reads it as
            what [src] sent; {!edge_receive} leaves in it what [dst]
            received. *)
  }

  type staged = {
    mutable bytes : Bytes.t;  (** Grow-only scratch. *)
    mutable first : int;
    mutable stop : int;
        (** The staged record is [bytes.[first .. stop-1]]: a u32
            big-endian body length, then the frame body — one record of the
            stream {!Decoder} reads. *)
  }
  (** One edge's outbound frame, reused round after round. *)

  val staged : unit -> staged
  (** An empty record ([first = stop = 0]) over a small scratch. *)

  val write_edge : slots -> round:int -> src:int -> dst:int -> staged -> unit
  (** [write_edge s ~round ~src ~dst st] stages the [src -> dst] frame in
      [st] with one walk over the slots, growing [st.bytes] only when it is
      full. The body equals [encode] of the edge's [(sid, payload)] entries
      in slot order; keep-alive empties included. Raises [Invalid_argument]
      on a negative round or sid, like the writers. *)

  val edge_receive :
    slots ->
    src:int ->
    dst:int ->
    on_round:(int -> unit) ->
    staged ->
    Bytes.t ->
    int ->
    int ->
    bool
  (** [edge_receive s ~src ~dst ~on_round st] is the acceptor of frame
      bodies [buf[pos .. limit-1]] that arrive on edge [src -> dst], where
      [st] holds what this edge wrote; apply it to [s] once and reuse the
      acceptor. A body equal to [st]'s, compared eight bytes at a time, is
      not parsed and allocates nothing: [on_round] gets its round (and may
      raise), the edge's cells stay as they are, and it returns [true]: its
      entries are the values that were sent. Any other body is validated
      whole first (varint widths, at most 65 536 entries, every payload
      inside the body and within {!max_frame_bytes}, nothing left over). A
      malformed one returns [false] and changes nothing. A valid one runs [on_round] first; then
      the edge's live cells [msgs.(i).(dst).(src)] are cleared to [None]
      and each entry is written into its slot's cell as a fresh copy of
      the bytes that arrived. The entries must come in admission order:
      each entry's slot is found by walking on from the previous entry's
      slot, and an entry whose sid is not the next live sid on that walk
      (out of order, repeated, or not live) raises [Failure], the edge's
      cells part written. Raises [Invalid_argument] if the range is out of
      [buf]'s bounds; never on the bytes. *)

  (** Incremental decoding of the length-prefixed frame stream the socket
      transports speak — [u32 big-endian body length] then the encoded frame,
      repeated. Resumable across arbitrary chunk boundaries (feed bytes as
      they arrive, in any split), and total: malformed input moves the
      decoder into a sticky error state, it never raises. *)
  module Decoder : sig
    type t

    val create : unit -> t
    (** A decoder that accepts declared body lengths up to
        {!max_frame_bytes}. *)

    val feed_sub : t -> Bytes.t -> int -> int -> unit
    (** [feed_sub d src off len] appends the stream bytes
        [src[off .. off+len-1]], for callers that read into a reusable
        scratch buffer (the socket transports). The bytes are copied out
        before returning; [src] may be reused immediately. The decoder's
        buffer grows only with the bytes fed, never with a declared length.
        Ignored after an error. Raises [Invalid_argument] if the range is
        out of bounds. *)

    val next_body : t -> (Bytes.t -> int -> int -> bool) -> (bool, string) result
    (** [next_body d accept]: [Ok true] — one complete frame consumed and
        its body [buf[pos .. limit-1]] handed to [accept buf pos limit]
        (in the program, an {!edge_receive} acceptor), which returned
        [true]; [Ok false] — the buffered bytes are a (possibly empty)
        prefix of a frame, feed more; [Error msg] — an oversized declared
        length, or [accept] returned [false] (the body is undecodable); the
        error is sticky. An exception from [accept] propagates, with the
        frame consumed. The body bytes are only valid during the call. *)

    val buffered : t -> int
    (** Bytes fed but not yet consumed by a decoded frame — nonzero at
        end-of-stream means the stream was truncated mid-frame. *)
  end
end
