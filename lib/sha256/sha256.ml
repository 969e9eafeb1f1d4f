(* SHA-256 per FIPS 180-4. Words are kept in OCaml ints masked to 32 bits;
   on 64-bit platforms this is exact and avoids Int32 boxing. *)

let digest_size = 32
let mask = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  block : Bytes.t; (* 64-byte buffer for a partial block and the padding *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed so far *)
  mutable finished : bool;
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

let reset ctx =
  ctx.h0 <- 0x6a09e667;
  ctx.h1 <- 0xbb67ae85;
  ctx.h2 <- 0x3c6ef372;
  ctx.h3 <- 0xa54ff53a;
  ctx.h4 <- 0x510e527f;
  ctx.h5 <- 0x9b05688c;
  ctx.h6 <- 0x1f83d9ab;
  ctx.h7 <- 0x5be0cd19;
  ctx.fill <- 0;
  ctx.total <- 0;
  ctx.finished <- false

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    finished = false;
    w = Array.make 64 0;
  }

(* Σ0, Σ1, σ0 and σ1 rotate a doubled word: for a 32-bit [v] and
   [x = v lor (v lsl 32)], bits n..n+31 of [x] are rotr n of [v]. That is
   exact on 63-bit ints for every rotation up to 31 (SHA-256's largest is
   25). The results are left unmasked: the bits above 31 are garbage that
   only ever flows upward through the [+] and [lxor] that consume them, and
   every word is masked once where it is stored. *)
let[@inline] big_sigma0 a =
  let x = a lor (a lsl 32) in
  (x lsr 2) lxor (x lsr 13) lxor (x lsr 22)

let[@inline] big_sigma1 e =
  let x = e lor (e lsl 32) in
  (x lsr 6) lxor (x lsr 11) lxor (x lsr 25)

let[@inline] small_sigma0 w =
  let x = w lor (w lsl 32) in
  (x lsr 7) lxor (x lsr 18) lxor (w lsr 3)

let[@inline] small_sigma1 w =
  let x = w lor (w lsl 32) in
  (x lsr 17) lxor (x lsr 19) lxor (w lsr 10)

(* The two halves of a round, T1 without [k + w] and T2, with Ch and Maj in
   their three-operation forms. *)
let[@inline] t1 e f g h = h + big_sigma1 e + (g lxor (e land (f lxor g)))
let[@inline] t2 a b c = big_sigma0 a + ((a land b) lor (c land (a lor b)))

let[@inline] kw w i = Array.unsafe_get k i + Array.unsafe_get w i

(* Compress the 64-byte block at [src.(off)] into the chaining state. Whole
   blocks of the caller's buffer are compressed in place, so [src] is either
   that buffer or [ctx.block]. *)
let compress_at ctx src off =
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be src (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + small_sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + small_sigma1 (Array.unsafe_get w (t - 2)))
      land mask)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  (* Eight rounds per iteration. A round writes only the d and h of its
     roles, and the next round sees the eight words one role further on, so
     no round shuffles a..h. *)
  for j = 0 to 7 do
    let i = 8 * j in
    let x = t1 !e !f !g !h + kw w i in
    d := (!d + x) land mask;
    h := (x + t2 !a !b !c) land mask;
    let x = t1 !d !e !f !g + kw w (i + 1) in
    c := (!c + x) land mask;
    g := (x + t2 !h !a !b) land mask;
    let x = t1 !c !d !e !f + kw w (i + 2) in
    b := (!b + x) land mask;
    f := (x + t2 !g !h !a) land mask;
    let x = t1 !b !c !d !e + kw w (i + 3) in
    a := (!a + x) land mask;
    e := (x + t2 !f !g !h) land mask;
    let x = t1 !a !b !c !d + kw w (i + 4) in
    h := (!h + x) land mask;
    d := (x + t2 !e !f !g) land mask;
    let x = t1 !h !a !b !c + kw w (i + 5) in
    g := (!g + x) land mask;
    c := (x + t2 !d !e !f) land mask;
    let x = t1 !g !h !a !b + kw w (i + 6) in
    f := (!f + x) land mask;
    b := (x + t2 !c !d !e) land mask;
    let x = t1 !f !g !h !a + kw w (i + 7) in
    e := (!e + x) land mask;
    a := (x + t2 !b !c !d) land mask
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask;
  ctx.h1 <- (ctx.h1 + !b) land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask;
  ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask;
  ctx.h5 <- (ctx.h5 + !f) land mask;
  ctx.h6 <- (ctx.h6 + !g) land mask;
  ctx.h7 <- (ctx.h7 + !h) land mask

(* Top up a partial [ctx.block] first; then compress whole blocks straight
   from [b]; buffer only the tail. *)
let feed_bytes ctx b ~pos ~len =
  if ctx.finished then invalid_arg "Sha256.feed: finalized context";
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes: out of range";
  ctx.total <- ctx.total + len;
  let pos = ref pos and left = ref len in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) len in
    Bytes.blit b !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    left := !left - take;
    if ctx.fill = 64 then begin
      compress_at ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !left >= 64 do
    compress_at ctx b !pos;
    pos := !pos + 64;
    left := !left - 64
  done;
  if !left > 0 then begin
    Bytes.blit b !pos ctx.block 0 !left;
    ctx.fill <- !left
  end

let feed ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let feed_byte ctx b =
  if ctx.finished then invalid_arg "Sha256.feed: finalized context";
  ctx.total <- ctx.total + 1;
  Bytes.unsafe_set ctx.block ctx.fill (Char.unsafe_chr (b land 0xff));
  ctx.fill <- ctx.fill + 1;
  if ctx.fill = 64 then begin
    compress_at ctx ctx.block 0;
    ctx.fill <- 0
  end

let finalize_into ctx out ~pos =
  if ctx.finished then invalid_arg "Sha256.finalize: finalized context";
  if pos < 0 || pos + 32 > Bytes.length out then
    invalid_arg "Sha256.finalize_into: out of range";
  ctx.finished <- true;
  (* Padding: 0x80, zeros, 64-bit big-endian length in bits. *)
  let block = ctx.block in
  Bytes.unsafe_set block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.unsafe_fill block ctx.fill (64 - ctx.fill) '\000';
    compress_at ctx block 0;
    ctx.fill <- 0
  end;
  Bytes.unsafe_fill block ctx.fill (56 - ctx.fill) '\000';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total * 8));
  compress_at ctx block 0;
  Bytes.set_int32_be out pos (Int32.of_int ctx.h0);
  Bytes.set_int32_be out (pos + 4) (Int32.of_int ctx.h1);
  Bytes.set_int32_be out (pos + 8) (Int32.of_int ctx.h2);
  Bytes.set_int32_be out (pos + 12) (Int32.of_int ctx.h3);
  Bytes.set_int32_be out (pos + 16) (Int32.of_int ctx.h4);
  Bytes.set_int32_be out (pos + 20) (Int32.of_int ctx.h5);
  Bytes.set_int32_be out (pos + 24) (Int32.of_int ctx.h6);
  Bytes.set_int32_be out (pos + 28) (Int32.of_int ctx.h7)

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex s = to_hex (digest s)
