type writer = Buffer.t -> unit

(* [encode] is called once per protocol message — the hottest allocation site
   in the codebase. A per-domain scratch buffer amortizes the Buffer (and its
   growth copies) across every message a domain ever encodes; the [busy] flag
   catches a writer that itself calls [encode] and falls back to a fresh
   buffer rather than clobbering the outer encoding. The output string is the
   only allocation that escapes. *)
let scratch : (Buffer.t * bool ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Buffer.create 256, ref false))

(* Shrink the scratch back after an outsized message so one huge encoding
   doesn't pin megabytes in every domain for the rest of the process. *)
let scratch_keep = 1 lsl 16

let encode w =
  let buf, busy = Domain.DLS.get scratch in
  if !busy then begin
    let b = Buffer.create 64 in
    w b;
    Buffer.contents b
  end
  else begin
    busy := true;
    (* Hand-rolled [Fun.protect]: this site is hot enough that the protect
       closure pair shows up in the per-message allocation budget. *)
    match
      Buffer.clear buf;
      w buf
    with
    | () ->
        let s = Buffer.contents buf in
        if Buffer.length buf > scratch_keep then Buffer.reset buf;
        busy := false;
        s
    | exception e ->
        if Buffer.length buf > scratch_keep then Buffer.reset buf;
        busy := false;
        raise e
  end

let w_u8 v buf =
  if v < 0 || v > 0xff then invalid_arg "Wire.w_u8";
  Buffer.add_char buf (Char.chr v)

let w_u16 v buf =
  if v < 0 || v > 0xffff then invalid_arg "Wire.w_u16";
  Buffer.add_char buf (Char.chr (v lsr 8));
  Buffer.add_char buf (Char.chr (v land 0xff))

let w_varint v buf =
  if v < 0 then invalid_arg "Wire.w_varint";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let varint_size v =
  if v < 0 then invalid_arg "Wire.varint_size";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let w_bool b buf = Buffer.add_char buf (if b then '\001' else '\000')

let w_fixed s buf = Buffer.add_string buf s

let w_bytes s buf =
  w_varint (String.length s) buf;
  Buffer.add_string buf s

let w_option w = function
  | None -> fun buf -> Buffer.add_char buf '\000'
  | Some v ->
      fun buf ->
        Buffer.add_char buf '\001';
        w v buf

let w_list w items buf =
  w_varint (List.length items) buf;
  List.iter (fun item -> w item buf) items

let w_pair wa wb (a, b) buf =
  wa a buf;
  wb b buf

let w_bits bits buf =
  w_varint (Bitstring.length bits) buf;
  Buffer.add_string buf (Bitstring.to_bytes bits)

let seq ws buf = List.iter (fun w -> w buf) ws

(* Decoding ------------------------------------------------------------------ *)

type cursor = { mutable src : string; mutable pos : int }

type 'a reader = cursor -> 'a option

let ( let* ) = Option.bind

(* One reusable cursor per domain: [decode_full] runs once per received
   message, and the per-call record was the last allocation left on the
   decode path. The [busy] flag covers the re-entrant case (a reader that
   itself calls [decode_full]) by falling back to a fresh cursor; [src] is
   cleared on exit so the scratch never retains a decoded message. *)
let cursor_scratch : (cursor * bool ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ({ src = ""; pos = 0 }, ref false))

let decode_full r s =
  let cur, busy = Domain.DLS.get cursor_scratch in
  if !busy then begin
    let cur = { src = s; pos = 0 } in
    match r cur with
    | Some v when cur.pos = String.length s -> Some v
    | Some _ | None -> None
  end
  else begin
    busy := true;
    cur.src <- s;
    cur.pos <- 0;
    match r cur with
    | res ->
        let ok =
          match res with Some _ -> cur.pos = String.length s | None -> false
        in
        cur.src <- "";
        busy := false;
        if ok then res else None
    | exception e ->
        cur.src <- "";
        busy := false;
        raise e
  end

(* The primitive readers are written in direct style against the cursor:
   every decoded protocol message runs through them, and the natural
   [Option.bind]-per-byte formulation allocates a closure and an option per
   input byte — an order of magnitude more than the decoded values
   themselves. Only results that escape (payload strings, [Some] wrappers)
   are allocated here. *)

let take cur n =
  if n < 0 || cur.pos + n > String.length cur.src then None
  else begin
    let s = String.sub cur.src cur.pos n in
    cur.pos <- cur.pos + n;
    Some s
  end

let r_u8 cur =
  if cur.pos >= String.length cur.src then None
  else begin
    let b = Char.code (String.unsafe_get cur.src cur.pos) in
    cur.pos <- cur.pos + 1;
    Some b
  end

let r_u16 cur =
  if cur.pos + 2 > String.length cur.src then None
  else begin
    let hi = Char.code (String.unsafe_get cur.src cur.pos) in
    let lo = Char.code (String.unsafe_get cur.src (cur.pos + 1)) in
    cur.pos <- cur.pos + 2;
    Some ((hi lsl 8) lor lo)
  end

(* [-1] on malformed input — the int-returning shape keeps the per-varint
   cost at zero allocations; [r_varint] wraps the result for the reader
   interface. The loop is a top-level function: written as an inner [rec]
   it would capture the cursor and allocate a closure per varint. *)
let rec varint_loop cur limit acc shift count pos =
  if count > 9 || pos >= limit then -1
  else
    let b = Char.code (String.unsafe_get cur.src pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then -1
    else if b land 0x80 = 0 then begin
      cur.pos <- pos + 1;
      acc
    end
    else varint_loop cur limit acc (shift + 7) (count + 1) (pos + 1)

let varint_raw cur = varint_loop cur (String.length cur.src) 0 0 0 cur.pos

let r_varint cur =
  match varint_raw cur with -1 -> None | v -> Some v

let r_bool cur =
  if cur.pos >= String.length cur.src then None
  else
    match String.unsafe_get cur.src cur.pos with
    | '\000' ->
        cur.pos <- cur.pos + 1;
        Some false
    | '\001' ->
        cur.pos <- cur.pos + 1;
        Some true
    | _ -> None

let default_max_bytes = 16 * 1024 * 1024

let r_bytes ?(max = default_max_bytes) () cur =
  match varint_raw cur with
  | -1 -> None
  | len -> if len > max then None else take cur len

let r_fixed n cur = take cur n

let r_option r cur =
  if cur.pos >= String.length cur.src then None
  else
    match String.unsafe_get cur.src cur.pos with
    | '\000' ->
        cur.pos <- cur.pos + 1;
        Some None
    | '\001' -> (
        cur.pos <- cur.pos + 1;
        match r cur with None -> None | Some v -> Some (Some v))
    | _ -> None

let r_list ?(max = 65536) r cur =
  match varint_raw cur with
  | -1 -> None
  | count ->
      if count > max then None
      else
        let rec go acc i =
          if i = count then Some (List.rev acc)
          else
            match r cur with
            | None -> None
            | Some v -> go (v :: acc) (i + 1)
        in
        go [] 0

let r_pair ra rb cur =
  match ra cur with
  | None -> None
  | Some a -> (
      match rb cur with None -> None | Some b -> Some (a, b))

let r_bits ?(max_bits = 8 * default_max_bytes) () cur =
  match varint_raw cur with
  | -1 -> None
  | len ->
      if len > max_bits then None
      else (
        match take cur ((len + 7) / 8) with
        | None -> None
        | Some packed -> Bitstring.of_bytes ~len packed)

let encode_value v = encode (w_bits v)

let decode_value ~bits raw =
  match decode_full (r_bits ()) raw with
  | Some v when Bitstring.length v = bits -> Some v
  | Some _ | None -> None

(* Bytes-side varint loop for the in-place frame parser, top-level for the
   same no-closure-per-varint reason as [varint_loop]. [-1] on malformed. *)
let rec varint_bytes_loop buf limit p acc shift count pos =
  if count > 9 || pos >= limit then -1
  else
    let b = Char.code (Bytes.unsafe_get buf pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then -1
    else if b land 0x80 = 0 then begin
      p := pos + 1;
      acc
    end
    else varint_bytes_loop buf limit p acc (shift + 7) (count + 1) (pos + 1)

(* Session-multiplexed frames ------------------------------------------------ *)

(* One coalesced frame carries every live session's round-[r] message between
   an ordered pair of parties:

     frame := varint round, varint count, count x (varint sid, bytes payload)

   Silent sessions are absent; the receiver fills their inbox slot with None. *)
module Frame = struct
  type t = { round : int; entries : (int * string) list }

  let max_sessions = 65536
  let max_frame_bytes = default_max_bytes

  let encode { round; entries } =
    encode (seq [ w_varint round; w_list (w_pair w_varint w_bytes) entries ])

  (* Exact byte length of [encode]'s output, computed without encoding — the
     engine accounts frame bytes from this, and [encode_into] callers size
     their buffers with it. Raises like the writers on negative fields. *)
  let encoded_size { round; entries } =
    List.fold_left
      (fun acc (sid, payload) ->
        let len = String.length payload in
        acc + varint_size sid + varint_size len + len)
      (varint_size round + varint_size (List.length entries))
      entries

  (* Top-level recursion: an inner [rec go] capturing [buf] would allocate a
     closure per varint written — three per frame entry. *)
  let rec put_varint buf pos v =
    if v < 0 then invalid_arg "Wire.w_varint";
    if v < 0x80 then begin
      Bytes.set buf pos (Char.chr v);
      pos + 1
    end
    else begin
      Bytes.set buf pos (Char.chr (0x80 lor (v land 0x7f)));
      put_varint buf (pos + 1) (v lsr 7)
    end

  (* Allocation-free encode: write the frame at [off] in a caller-owned
     buffer (sized with {!encoded_size}) and return the end offset. The bytes
     are identical to [encode]'s — the qcheck differential suite pins this. *)
  let encode_into { round; entries } buf off =
    let pos = put_varint buf off round in
    let pos = put_varint buf pos (List.length entries) in
    List.fold_left
      (fun pos (sid, payload) ->
        let pos = put_varint buf pos sid in
        let len = String.length payload in
        let pos = put_varint buf pos len in
        Bytes.blit_string payload 0 buf pos len;
        pos + len)
      pos entries

  let decode s =
    if String.length s > max_frame_bytes then None
    else
      decode_full
        (fun cur ->
          let* round = r_varint cur in
          let* entries =
            r_list ~max:max_sessions (r_pair r_varint (r_bytes ())) cur
          in
          Some { round; entries })
        s

  (* Decode a frame body in place from [buf[pos, limit)] — the zero-copy
     equivalent of [decode (Bytes.sub_string buf pos (limit - pos))], with
     the same bounds (entry count, per-payload length, varint width, full
     consumption). Only the payload strings, which escape into the decoded
     entries, are allocated. *)
  (* Per-domain (sid, payload offset, payload length) triples from the
     validation pass below — re-walked backwards so the entry list is built
     front-first without the build-reversed-then-[List.rev] second list.
     The busy flag is the check-out discipline of [encode]'s scratch: a
     nested decode on the same domain gets a fresh array instead of
     clobbering the outer one. (The decoder calls no user code, so nothing
     nests today; the flag keeps the scratch safe if that changes.) *)
  let entry_scratch : (int array ref * bool ref) Domain.DLS.key =
    Domain.DLS.new_key (fun () -> (ref (Array.make 96 0), ref false))

  let decode_bytes buf pos limit =
    (* Direct style throughout: this parser runs once per received frame and
       its entry loop once per session message — the option-monad closures
       the natural formulation allocates per varint would dominate the
       decoded entries themselves. Two passes over the entry headers (scan
       and validate into the scratch, then materialize back to front) keep
       the output list cons-cells the only list allocation. Only the payload
       strings, the entry tuples/cells and the frame record escape. *)
    let p = ref pos in
    let read_varint () = varint_bytes_loop buf limit p 0 0 0 !p in
    let round = read_varint () in
    let count = if round < 0 then -1 else read_varint () in
    if count < 0 || count > max_sessions then None
    else begin
      let slot, busy = Domain.DLS.get entry_scratch in
      let owned = not !busy in
      if owned then busy := true;
      let scratch = if owned then slot else ref (Array.make 96 0) in
      if Array.length !scratch < 3 * count then
        scratch := Array.make (max (3 * count) (2 * Array.length !scratch)) 0;
      let offs = !scratch in
      let rec scan i =
        if i = count then !p = limit
        else
          let sid = read_varint () in
          if sid < 0 then false
          else
            let len = read_varint () in
            if len < 0 || len > default_max_bytes || limit - !p < len then false
            else begin
              offs.((3 * i) + 0) <- sid;
              offs.((3 * i) + 1) <- !p;
              offs.((3 * i) + 2) <- len;
              p := !p + len;
              scan (i + 1)
            end
      in
      let result =
        if not (scan 0) then None
        else begin
          let entries = ref [] in
          for i = count - 1 downto 0 do
            let sid = offs.((3 * i) + 0) in
            let off = offs.((3 * i) + 1) in
            let len = offs.((3 * i) + 2) in
            entries := (sid, Bytes.sub_string buf off len) :: !entries
          done;
          Some { round; entries = !entries }
        end
      in
      if owned then busy := false;
      result
    end

  (* Incremental decoding of the length-prefixed frame stream the socket
     transports speak: u32 big-endian body length, then the encoded frame.
     The decoder is resumable across arbitrary chunk boundaries and total —
     malformed input parks it in a sticky error state, it never raises. *)
  module Decoder = struct
    type state = Running | Failed of string

    type t = {
      max_frame : int;
      mutable buf : Bytes.t;  (* [lo, hi) holds the undecoded bytes *)
      mutable lo : int;
      mutable hi : int;
      mutable state : state;
    }

    let create ?(max_frame = max_frame_bytes) () =
      {
        max_frame;
        buf = Bytes.create 4096;
        lo = 0;
        hi = 0;
        state = Running;
      }

    let buffered d = d.hi - d.lo

    (* Make room for [len] more bytes at [d.hi]: compact, growing only when
       the live region itself outgrows the buffer. *)
    let reserve d len =
      if Bytes.length d.buf - d.hi < len then begin
        let need = buffered d + len in
        let cap = max (Bytes.length d.buf) 64 in
        let cap = if need > cap then max need (2 * cap) else cap in
        let buf = if cap > Bytes.length d.buf then Bytes.create cap else d.buf in
        Bytes.blit d.buf d.lo buf 0 (buffered d);
        d.hi <- buffered d;
        d.lo <- 0;
        d.buf <- buf
      end

    let feed d s =
      match d.state with
      | Failed _ -> ()
      | Running ->
          let len = String.length s in
          reserve d len;
          Bytes.blit_string s 0 d.buf d.hi len;
          d.hi <- d.hi + len

    (* [feed] from a caller-owned slice — what the socket read loops use so a
       read lands in the decoder with one blit and no intermediate string. *)
    let feed_sub d src off len =
      if off < 0 || len < 0 || off + len > Bytes.length src then
        invalid_arg "Wire.Frame.Decoder.feed_sub";
      match d.state with
      | Failed _ -> ()
      | Running ->
          reserve d len;
          Bytes.blit src off d.buf d.hi len;
          d.hi <- d.hi + len

    let fail d msg =
      d.state <- Failed msg;
      Error msg

    (* [Ok (Some frame)] — one frame decoded and consumed; [Ok None] — the
       buffered bytes are a (possibly empty) prefix of a valid frame, feed
       more; [Error] — the stream is malformed (sticky). *)
    let next d =
      match d.state with
      | Failed msg -> Error msg
      | Running ->
          if buffered d < 4 then Ok None
          else begin
            let b i = Char.code (Bytes.get d.buf (d.lo + i)) in
            let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
            if len > d.max_frame then
              fail d
                (Printf.sprintf "frame length %d exceeds max %d" len d.max_frame)
            else if buffered d < 4 + len then Ok None
            else begin
              (* Decode the body in place — no [Bytes.sub_string] copy; only
                 the payload strings escape. A custom [max_frame] above the
                 protocol bound still rejects oversized bodies, as the
                 copying path did via [decode]. *)
              let body_pos = d.lo + 4 in
              let frame =
                if len > max_frame_bytes then None
                else decode_bytes d.buf body_pos (body_pos + len)
              in
              d.lo <- d.lo + 4 + len;
              if d.lo = d.hi then begin
                d.lo <- 0;
                d.hi <- 0
              end;
              match frame with
              | Some frame -> Ok (Some frame)
              | None -> fail d "undecodable frame body"
            end
          end
  end
end
