type writer = Buffer.t -> unit

(* [encode] is called once per protocol message — the hottest allocation site
   in the codebase. One module-level scratch buffer amortizes the Buffer (and
   its growth copies) across every message the process encodes; the [busy]
   flag catches a writer that itself calls [encode] and falls back to a fresh
   buffer rather than clobbering the outer encoding. The output string is the
   only allocation that escapes. *)
let scratch = Buffer.create 256
let busy = ref false

(* Shrink the scratch back after an outsized message so one huge encoding
   doesn't pin megabytes for the rest of the process. *)
let scratch_keep = 1 lsl 16

let encode w =
  let buf = scratch in
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

(* One reusable cursor: [decode_full] runs once per received message, and
   the per-call record was the last allocation left on the decode path. The
   [cursor_busy] flag covers the re-entrant case (a reader that itself calls
   [decode_full]) by falling back to a fresh cursor; [src] is cleared on
   exit so the scratch never retains a decoded message. *)
let cursor_scratch = { src = ""; pos = 0 }
let cursor_busy = ref false

let decode_full r s =
  let cur = cursor_scratch and busy = cursor_busy in
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

(* The one varint decoding loop: the varint at [buf.[pos]], read no further
   than [limit]; [-1] on malformed input (truncated, past ten bytes, or
   negative as an [int]). The int-returning shape keeps the per-varint cost
   at zero allocations: the end of the varint goes to [varint_stop], and a
   string is read through [Bytes.unsafe_of_string]. The loop is top-level:
   written as an inner [rec] it would capture its arguments and allocate a
   closure per varint. *)
let varint_stop = ref 0

let rec varint_loop buf limit acc shift pos =
  if shift > 63 || pos >= limit then -1
  else
    let b = Char.code (Bytes.unsafe_get buf pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then -1
    else if b land 0x80 = 0 then begin
      varint_stop := pos + 1;
      acc
    end
    else varint_loop buf limit acc (shift + 7) (pos + 1)

let varint_at buf limit pos = varint_loop buf limit 0 0 pos

let varint_raw cur =
  let v = varint_at (Bytes.unsafe_of_string cur.src) (String.length cur.src) cur.pos in
  if v >= 0 then cur.pos <- !varint_stop;
  v

let r_varint cur = match varint_raw cur with -1 -> None | v -> Some v

let leading_varint s = varint_at (Bytes.unsafe_of_string s) (String.length s) 0

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

let r_value = r_bits ()

let decode_value ~bits raw =
  match decode_full r_value raw with
  | Some v when Bitstring.length v = bits -> Some v
  | Some _ | None -> None

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

  (* The layout's sizes: what the round loop's frame-byte ledger adds up,
     and what [write_edge] reserves and backfills. *)
  let sid_bytes = varint_size
  let entry_bytes ~sid_bytes len = sid_bytes + varint_size len + len
  let header_bytes ~round ~count = varint_size round + varint_size count

  (* The slot codec: frames written from and taken back into the round
     loop's slot-indexed round. *)
  type slots = {
    mutable live : int;
    sids : int array;
    msgs : string option array array array;
  }

  (* Top-level recursion: an inner [rec go] capturing [buf] would allocate a
     closure per varint written — two per frame entry. *)
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

  type staged = { mutable bytes : Bytes.t; mutable first : int; mutable stop : int }

  let staged () = { bytes = Bytes.create 256; first = 0; stop = 0 }

  (* Room for [need] more bytes at [pos], keeping [bytes.[0 .. pos-1]]:
     grow-only, at least doubling, so a steady round size stops growing. *)
  let reserve st pos need =
    let cap = Bytes.length st.bytes in
    if pos + need > cap then begin
      let b = Bytes.create (max (pos + need) (2 * cap)) in
      Bytes.blit st.bytes 0 b 0 pos;
      st.bytes <- b
    end

  (* One walk over the slots. The entries go after a header reserved at its
     widest: the count is at most [live]. Once the count is known, the
     prefix, round and count are backfilled right before the first entry,
     so the record starts at [first] and its bytes are exactly the
     reference encoding. *)
  let write_edge s ~round ~src ~dst st =
    if round < 0 then invalid_arg "Wire.w_varint";
    let widest = header_bytes ~round ~count:s.live in
    reserve st 0 (4 + widest);
    let pos = ref (4 + widest) and count = ref 0 in
    for i = 0 to s.live - 1 do
      match s.msgs.(i).(dst).(src) with
      | None -> ()
      | Some m ->
          let len = String.length m in
          (* Two varints of a non-negative int take at most 18 bytes. *)
          reserve st !pos (18 + len);
          let b = st.bytes in
          let p = put_varint b (put_varint b !pos s.sids.(i)) len in
          Bytes.blit_string m 0 b p len;
          pos := p + len;
          incr count
    done;
    let first = widest - header_bytes ~round ~count:!count in
    let body = !pos - first - 4 in
    let b = st.bytes in
    Bytes.set_int32_be b first (Int32.of_int body);
    ignore (put_varint b (put_varint b (first + 4) round) !count : int);
    st.first <- first;
    st.stop <- !pos

  (* First slot at or after [i] that holds [sid]; [-1] when none does. *)
  let rec slot_from sids live sid i =
    if i >= live then -1
    else if sids.(i) = sid then i
    else slot_from sids live sid (i + 1)

  (* [a[apos .. apos+len-1]] = [b[bpos .. bpos+len-1]], eight bytes at a
     time, then the tail byte by byte. *)
  let equal_sub a apos b bpos len =
    let i = ref 0 in
    while
      !i + 8 <= len
      && (Bytes.get_int64_ne a (apos + !i) : int64) = Bytes.get_int64_ne b (bpos + !i)
    do
      i := !i + 8
    done;
    while !i < len && Bytes.get a (apos + !i) = Bytes.get b (bpos + !i) do
      incr i
    done;
    !i = len

  (* The frame reader's two passes over the [count] entries at [pos] of a
     body ending at [limit], each top-level so that a parse allocates
     nothing but the payload copies. The first checks that they fill the
     body exactly: varint widths, each payload within the bound and inside
     the body. *)
  let rec entries_fit buf limit pos count =
    if count = 0 then pos = limit
    else
      let sid = varint_at buf limit pos in
      sid >= 0
      &&
      let len = varint_at buf limit !varint_stop in
      let off = !varint_stop in
      len >= 0 && len <= max_frame_bytes && limit - off >= len
      && entries_fit buf limit (off + len) (count - 1)

  (* The second writes each entry, a fresh copy of its bytes, into the cell
     of its slot, found by walking on from the previous entry's slot
     [next]: entries arrive in admission order, so a frame costs O(live)
     in total, and a sid that is out of order or not live runs off the
     end. *)
  let rec deliver s ~src ~dst buf limit pos count next =
    if count > 0 then begin
      let sid = varint_at buf limit pos in
      let len = varint_at buf limit !varint_stop in
      let off = !varint_stop in
      match slot_from s.sids s.live sid next with
      | -1 ->
          failwith
            (Printf.sprintf
               "Wire.Frame: session %d on edge %d->%d is not the next live session"
               sid src dst)
      | i ->
          s.msgs.(i).(dst).(src) <- Some (Bytes.sub_string buf off len);
          deliver s ~src ~dst buf limit (off + len) (count - 1) (i + 1)
    end

  (* A body that differs from the staged one: validated whole, and only
     then delivered, so a malformed body changes nothing. *)
  let parse_into s ~src ~dst ~on_round buf pos limit =
    let round = varint_at buf limit pos in
    let count = if round < 0 then -1 else varint_at buf limit !varint_stop in
    let first = !varint_stop in
    if count < 0 || count > max_sessions || not (entries_fit buf limit first count)
    then false
    else begin
      on_round round;
      for i = 0 to s.live - 1 do
        s.msgs.(i).(dst).(src) <- None
      done;
      deliver s ~src ~dst buf limit first count 0;
      true
    end

  (* The one frame reader. A body equal to the staged one is compared, not
     parsed, and leaves the edge's cells as they are: its entries are the
     values that were sent. *)
  let edge_receive s ~src ~dst ~on_round st buf pos limit =
    if pos < 0 || limit < pos || limit > Bytes.length buf then
      invalid_arg "Wire.Frame.edge_receive";
    let len = limit - pos in
    if len = st.stop - st.first - 4 && equal_sub buf pos st.bytes (st.first + 4) len
    then begin
      on_round (varint_at buf limit pos);
      true
    end
    else parse_into s ~src ~dst ~on_round buf pos limit

  (* Incremental decoding of the length-prefixed frame stream the socket
     transports speak: u32 big-endian body length, then the encoded frame.
     The decoder is resumable across arbitrary chunk boundaries and total —
     malformed input parks it in a sticky error state, it never raises. *)
  module Decoder = struct
    type state = Running | Failed of string

    type t = {
      mutable buf : Bytes.t;  (* [lo, hi) holds the undecoded bytes *)
      mutable lo : int;
      mutable hi : int;
      mutable state : state;
    }

    let create () = { buf = Bytes.create 4096; lo = 0; hi = 0; state = Running }

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

    (* A read lands in the decoder with one blit from the caller's buffer
       and no intermediate string. *)
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

    (* [Ok true] — one frame body handed to [accept], which took it, and
       consumed; [Ok false] — the buffered bytes are a (possibly empty)
       prefix of a frame, feed more; [Error] — the declared length is over
       the bound or [accept] refused the body (sticky). *)
    let next_body d accept =
      match d.state with
      | Failed msg -> Error msg
      | Running ->
          if buffered d < 4 then Ok false
          else begin
            let len = Int32.to_int (Bytes.get_int32_be d.buf d.lo) land 0xffff_ffff in
            if len > max_frame_bytes then
              fail d
                (Printf.sprintf "frame length %d exceeds max %d" len max_frame_bytes)
            else if buffered d < 4 + len then Ok false
            else begin
              (* Consume first, then hand over the body where it lies: the
                 bytes stay put until the next [feed_sub], so [accept]
                 reads them in place. *)
              let body_pos = d.lo + 4 in
              d.lo <- d.lo + 4 + len;
              if d.lo = d.hi then begin
                d.lo <- 0;
                d.hi <- 0
              end;
              if accept d.buf body_pos (body_pos + len) then Ok true
              else fail d "undecodable frame body"
            end
          end
  end
end
