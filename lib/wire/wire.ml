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

(* [varint_loop] over a bare string, for a caller that only peeks: with no
   cursor to move, nothing is allocated. *)
let rec leading_loop s acc shift count pos =
  if count > 9 || pos >= String.length s then -1
  else
    let b = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then -1
    else if b land 0x80 = 0 then acc
    else leading_loop s acc (shift + 7) (count + 1) (pos + 1)

let leading_varint s = leading_loop s 0 0 0 0

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

(* Bytes-side varint loop for the frame parser, top-level for the same
   no-closure-per-varint reason as [varint_loop]. [-1] on malformed. *)
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

  type sink = {
    on_round : int -> unit;
    on_entry : int -> Bytes.t -> int -> int -> unit;
  }

  (* The one frame parser. The first pass validates the whole body (varint
     widths, entry bound, payload bounds, full consumption) without
     allocating; only a valid body reaches the second pass, which re-reads
     the headers and hands each entry to the sink by offset. A malformed
     frame therefore delivers nothing. *)
  let parse sink buf pos limit =
    if pos < 0 || limit < pos || limit > Bytes.length buf then
      invalid_arg "Wire.Frame.parse";
    let p = ref pos in
    let read_varint () = varint_bytes_loop buf limit p 0 0 0 !p in
    let round = read_varint () in
    let count = if round < 0 then -1 else read_varint () in
    let rec valid i =
      if i = count then !p = limit
      else
        let sid = read_varint () in
        sid >= 0
        &&
        let len = read_varint () in
        len >= 0 && len <= default_max_bytes && limit - !p >= len
        &&
        (p := !p + len;
         valid (i + 1))
    in
    if count < 0 || count > max_sessions || not (valid 0) then false
    else begin
      sink.on_round round;
      p := pos;
      ignore (read_varint () : int);
      ignore (read_varint () : int);
      for _ = 1 to count do
        let sid = read_varint () in
        let len = read_varint () in
        let off = !p in
        p := off + len;
        sink.on_entry sid buf off len
      done;
      true
    end

  (* A sink that collects one frame as a list: the reference form that
     [decode] and [Decoder.next] return. *)
  let list_sink () =
    let round = ref 0 and rev = ref [] in
    ( {
        on_round = (fun r -> round := r);
        on_entry =
          (fun sid buf off len ->
            rev := (sid, Bytes.sub_string buf off len) :: !rev);
      },
      fun () -> { round = !round; entries = List.rev !rev } )

  let decode s =
    if String.length s > max_frame_bytes then None
    else
      let sink, frame = list_sink () in
      if parse sink (Bytes.unsafe_of_string s) 0 (String.length s) then
        Some (frame ())
      else None

  (* The slot codec: frames written from and parsed into the round loop's
     slot-indexed round. *)
  type slots = {
    mutable live : int;
    sids : int array;
    sent : string option array array array;
    delivered : string option array array array;
  }

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

  let edge_size s ~round ~src ~dst =
    let count = ref 0 and body = ref 0 in
    for i = 0 to s.live - 1 do
      match s.sent.(i).(src).(dst) with
      | None -> ()
      | Some m ->
          let len = String.length m in
          incr count;
          body := !body + varint_size s.sids.(i) + varint_size len + len
    done;
    varint_size round + varint_size !count + !body

  let write_edge s ~round ~src ~dst buf off =
    let count = ref 0 in
    for i = 0 to s.live - 1 do
      match s.sent.(i).(src).(dst) with None -> () | Some _ -> incr count
    done;
    let pos = ref (put_varint buf (put_varint buf off round) !count) in
    for i = 0 to s.live - 1 do
      match s.sent.(i).(src).(dst) with
      | None -> ()
      | Some m ->
          let len = String.length m in
          let p = put_varint buf (put_varint buf !pos s.sids.(i)) len in
          Bytes.blit_string m 0 buf p len;
          pos := p + len
    done;
    !pos

  (* First slot at or after [i] that holds [sid]; [-1] when none does. *)
  let rec slot_from sids live sid i =
    if i >= live then -1
    else if sids.(i) = sid then i
    else slot_from sids live sid (i + 1)

  (* [buf[off .. off+i]] equals [m.[0 .. i]]; top-level so the comparison
     allocates no closure. The caller has checked both lengths. *)
  let rec same_prefix buf off m i =
    i < 0
    || Bytes.unsafe_get buf (off + i) = String.unsafe_get m i
       && same_prefix buf off m (i - 1)

  (* What to deliver for slot [i]'s entry at [buf[off .. off+len-1]]: the
     value sent on this edge when the bytes match it, so a faithful edge
     delivers without allocating; any other entry (or a slot with no sent
     cell) gets a fresh copy of exactly the bytes that arrived. *)
  let arrived s ~src ~dst i buf off len =
    match if i < Array.length s.sent then s.sent.(i).(src).(dst) else None with
    | Some m as sent
      when String.length m = len && same_prefix buf off m (len - 1) ->
        sent
    | Some _ | None -> Some (Bytes.sub_string buf off len)

  (* Entries arrive in admission order, so each one's slot is found by
     walking on from the previous entry's: O(live) per frame in total, and a
     sid that is out of order or not live runs off the end. *)
  let edge_sink s ~src ~dst ~on_round =
    let next = ref 0 in
    {
      on_round =
        (fun r ->
          next := 0;
          on_round r);
      on_entry =
        (fun sid buf off len ->
          match slot_from s.sids s.live sid !next with
          | -1 ->
              failwith
                (Printf.sprintf
                   "Wire.Frame: session %d on edge %d->%d is not the next \
                    live session"
                   sid src dst)
          | i ->
              s.delivered.(src).(dst).(i) <- arrived s ~src ~dst i buf off len;
              next := i + 1);
    }

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

    (* [Ok true] — one frame parsed into [sink] and consumed; [Ok false] —
       the buffered bytes are a (possibly empty) prefix of a valid frame,
       feed more; [Error] — the stream is malformed (sticky). *)
    let next_with d sink =
      match d.state with
      | Failed msg -> Error msg
      | Running ->
          if buffered d < 4 then Ok false
          else begin
            let b i = Char.code (Bytes.get d.buf (d.lo + i)) in
            let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
            if len > d.max_frame then
              fail d
                (Printf.sprintf "frame length %d exceeds max %d" len d.max_frame)
            else if buffered d < 4 + len then Ok false
            else begin
              (* Consume first, then parse the body where it lies: the bytes
                 stay put until the next [feed], so the sink reads them in
                 place. A custom [max_frame] above the protocol bound still
                 rejects oversized bodies, as [decode] does. *)
              let body_pos = d.lo + 4 in
              d.lo <- d.lo + 4 + len;
              if d.lo = d.hi then begin
                d.lo <- 0;
                d.hi <- 0
              end;
              if len <= max_frame_bytes && parse sink d.buf body_pos (body_pos + len)
              then Ok true
              else fail d "undecodable frame body"
            end
          end

    let next d =
      let sink, frame = list_sink () in
      match next_with d sink with
      | Ok true -> Ok (Some (frame ()))
      | Ok false -> Ok None
      | Error msg -> Error msg
  end
end
