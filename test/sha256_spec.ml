(* Reference specification of SHA-256: the compression loop [Sha256] had
   before its allocation-free kernel, frozen. It shares no code with
   lib/sha256, so test_sha256.ml compares the production kernel against an
   independent statement of FIPS 180-4 rather than against itself: a
   byte-at-a-time schedule load, a rotate built from two shifts, the
   textbook Ch/Maj, a per-round a..h shuffle, and a block buffer every input
   byte is blitted through. Never edit it to make a differential test pass. *)

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
  block : Bytes.t; (* 64-byte working block *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed so far *)
  mutable finished : bool;
  w : int array; (* 64-entry message schedule, reused across blocks *)
}

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

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let compress ctx =
  let w = ctx.w in
  let b = ctx.block in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code (Bytes.unsafe_get b (4 * t)) lsl 24)
      lor (Char.code (Bytes.unsafe_get b ((4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b ((4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b ((4 * t) + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref ctx.h0
  and bb = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land !g) in
    let t1 = (!h + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !bb lxor (!a land !c) lxor (!bb land !c) in
    let t2 = (s0 + maj) land mask in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !bb;
    bb := !a;
    a := (t1 + t2) land mask
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask;
  ctx.h1 <- (ctx.h1 + !bb) land mask;
  ctx.h2 <- (ctx.h2 + !c) land mask;
  ctx.h3 <- (ctx.h3 + !d) land mask;
  ctx.h4 <- (ctx.h4 + !e) land mask;
  ctx.h5 <- (ctx.h5 + !f) land mask;
  ctx.h6 <- (ctx.h6 + !g) land mask;
  ctx.h7 <- (ctx.h7 + !h) land mask

let feed_bytes ctx b ~pos ~len =
  if ctx.finished then invalid_arg "Sha256.feed: finalized context";
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes: out of range";
  ctx.total <- ctx.total + len;
  let pos = ref pos and left = ref len in
  while !left > 0 do
    let take = min (64 - ctx.fill) !left in
    Bytes.blit b !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    left := !left - take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize_into ctx out ~pos =
  if ctx.finished then invalid_arg "Sha256.finalize: finalized context";
  if pos < 0 || pos + 32 > Bytes.length out then
    invalid_arg "Sha256.finalize_into: out of range";
  ctx.finished <- true;
  let total_bits = ctx.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.block (56 + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx;
  let put i v =
    Bytes.set out (pos + (4 * i)) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (pos + (4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (pos + (4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (pos + (4 * i) + 3) (Char.chr (v land 0xff))
  in
  put 0 ctx.h0;
  put 1 ctx.h1;
  put 2 ctx.h2;
  put 3 ctx.h3;
  put 4 ctx.h4;
  put 5 ctx.h5;
  put 6 ctx.h6;
  put 7 ctx.h7

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx
