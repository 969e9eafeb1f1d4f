(* SHA-256 per FIPS 180-4: buffering, padding and the streaming interface in
   OCaml around a C compression kernel (sha256_stubs.c), chosen once below. *)

let digest_size = 32

(* The initial H0..H7 as eight big-endian 32-bit words, the layout of
   [ctx.state]. *)
let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  state : Bytes.t; (* 32-byte chaining state; [unsafe_compress] updates it in place *)
  block : Bytes.t; (* 64-byte buffer for a partial block and the padding *)
  mutable fill : int; (* bytes currently buffered in [block] *)
  mutable total : int; (* total message bytes fed so far *)
  mutable finished : bool;
}

(* Reads CPUID and fixes the kernel [unsafe_compress] runs from then on. *)
external select_kernel : unit -> string = "caml_sha256_select_kernel"

let kernel = select_kernel ()

(* Compress the 64-byte block at [src.(off)] into [state] with the selected
   kernel. The kernel does no bounds check: every call below passes a block
   inside [src]. Whole blocks of the caller's buffer are compressed in
   place, so [src] is either that buffer or [ctx.block]. *)
external unsafe_compress : Bytes.t -> Bytes.t -> (int[@untagged]) -> unit
  = "caml_sha256_compress_byte" "caml_sha256_compress"
[@@noalloc]

external unsafe_compress_portable : Bytes.t -> Bytes.t -> (int[@untagged]) -> unit
  = "caml_sha256_compress_portable_byte" "caml_sha256_compress_portable"
[@@noalloc]

let checked name f state src ~pos =
  if Bytes.length state <> 32 || pos < 0 || pos > Bytes.length src - 64 then
    invalid_arg name;
  f state src pos

let compress = checked "Sha256.compress: out of range" unsafe_compress

let reset ctx =
  Bytes.blit_string iv 0 ctx.state 0 32;
  ctx.fill <- 0;
  ctx.total <- 0;
  ctx.finished <- false

let init () =
  {
    state = Bytes.of_string iv;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    finished = false;
  }

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
      unsafe_compress ctx.state ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !left >= 64 do
    unsafe_compress ctx.state b !pos;
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
    unsafe_compress ctx.state ctx.block 0;
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
    unsafe_compress ctx.state block 0;
    ctx.fill <- 0
  end;
  Bytes.unsafe_fill block ctx.fill (56 - ctx.fill) '\000';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total * 8));
  unsafe_compress ctx.state block 0;
  Bytes.blit ctx.state 0 out pos 32

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

module Portable = struct
  let compress = checked "Sha256.Portable.compress: out of range" unsafe_compress_portable

  (* Whole blocks straight from [s], then the tail and the padding in one
     or two blocks, as [feed_bytes] and [finalize_into] split a message. *)
  let digest s =
    let len = String.length s and src = Bytes.unsafe_of_string s in
    let state = Bytes.of_string iv in
    let whole = len - (len mod 64) in
    let pos = ref 0 in
    while !pos < whole do
      unsafe_compress_portable state src !pos;
      pos := !pos + 64
    done;
    let tail = len - whole in
    let last = Bytes.make (if tail < 56 then 64 else 128) '\000' in
    Bytes.blit_string s whole last 0 tail;
    Bytes.set last tail '\x80';
    Bytes.set_int64_be last (Bytes.length last - 8) (Int64.of_int (len * 8));
    unsafe_compress_portable state last 0;
    if Bytes.length last = 128 then unsafe_compress_portable state last 64;
    Bytes.unsafe_to_string state
end
