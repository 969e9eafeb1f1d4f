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
    towards the recipient this round is simply absent from the entry list —
    absence decodes as [None] in that session's inbox slot. *)

module Frame : sig
  type t = {
    round : int;  (** Engine round the frame belongs to (0-based). *)
    entries : (int * string) list;
        (** [(session id, payload)] for every session with traffic, in the
            engine's admission order. *)
  }

  val max_sessions : int
  (** Bound on entries per frame enforced by the decoder. *)

  val max_frame_bytes : int
  (** Bound on an encoded frame's size (16 MiB). [decode] rejects longer
      inputs, and the stream decoders (incremental and the socket readers)
      reject longer declared lengths {e before} allocating — a byzantine peer
      must not be able to trigger huge allocations. *)

  val encode : t -> string

  val encoded_size : t -> int
  (** Exact byte length of [encode f], computed without encoding — the
      engine's frame-byte ledger accounting is this, so the transport never
      has to materialize a frame just to measure it. *)

  val encode_into : t -> Bytes.t -> int -> int
  (** [encode_into f buf off] writes [encode f]'s bytes into [buf] starting
      at [off] and returns the offset one past the last byte written
      ([off + encoded_size f]). The caller guarantees capacity (size the
      buffer with {!encoded_size}); no intermediate buffer or string is
      allocated. Raises [Invalid_argument] on negative varint fields, like
      the writer-based encoders. *)

  val decode : string -> t option
  (** Total: [None] on any malformation, like every decoder in this module. *)

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

    val next : t -> (frame option, string) result
    (** [Ok (Some frame)] — one complete frame decoded and consumed;
        [Ok None] — the buffered bytes are a (possibly empty) prefix of a
        valid frame, feed more; [Error msg] — the stream is malformed
        (oversized declared length or undecodable body); the error is sticky. *)

    val buffered : t -> int
    (** Bytes fed but not yet consumed by a decoded frame — nonzero at
        end-of-stream means the stream was truncated mid-frame. *)
  end
end
