(* The leaf count is padded to the next power of two with a distinguished
   empty-leaf digest, so every authentication path has the same length
   ceil(log2 n) and verification needs only the index and the path.

   Hot path: levels are flat Bytes arrays of packed 32-byte digests and every
   hash goes through one reused streaming context ([reset] / [feed_*] /
   [finalize_into]), so a build allocates only the level buffers — no
   per-node "\x01" ^ l ^ r concatenations. Digests are bit-identical to the
   seed's string-concat formulation (same "\x00"/"\x01"/"\x02" domain
   separation), which the differential tests assert. *)

type root = string

(* A witness is its wire encoding: a depth byte, then the packed 32-byte
   sibling digests, leaf level first. Encoding is the identity and decoding
   only checks the length. *)
type witness = string

let dsize = Sha256.digest_size

type tree = {
  leaves : int; (* real leaf count *)
  padded : int; (* power of two *)
  levels : Bytes.t array;
      (* levels.(l) packs (padded lsr l) digests; the last holds the root *)
}

let empty_leaf = Sha256.digest "\x02"

(* Per-domain hashing context for [build]: a tree is built once per party
   per Π_ℓBA+ invocation, and the context (message schedule + block buffer)
   was the build's largest single allocation. One context per domain is
   enough: a build runs to completion on its domain (nothing in this repo
   runs protocol code on systhreads), and it cannot re-enter itself — it
   calls only Sha256. *)
let build_ctx : Sha256.ctx Domain.DLS.key = Domain.DLS.new_key Sha256.init

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let build values =
  let leaves = Array.length values in
  if leaves = 0 then invalid_arg "Merkle.build: empty";
  let padded = next_pow2 leaves in
  let depth =
    let rec go d p = if p = 1 then d else go (d + 1) (p / 2) in
    go 0 padded
  in
  let levels = Array.init (depth + 1) (fun l -> Bytes.create ((padded lsr l) * dsize)) in
  let ctx = Domain.DLS.get build_ctx in
  let level0 = levels.(0) in
  for i = 0 to leaves - 1 do
    Sha256.reset ctx;
    Sha256.feed_byte ctx 0x00;
    Sha256.feed ctx values.(i);
    Sha256.finalize_into ctx level0 ~pos:(i * dsize)
  done;
  for i = leaves to padded - 1 do
    Bytes.blit_string empty_leaf 0 level0 (i * dsize) dsize
  done;
  for l = 1 to depth do
    let below = levels.(l - 1) and here = levels.(l) in
    for i = 0 to (padded lsr l) - 1 do
      Sha256.reset ctx;
      Sha256.feed_byte ctx 0x01;
      Sha256.feed_bytes ctx below ~pos:(2 * i * dsize) ~len:(2 * dsize);
      Sha256.finalize_into ctx here ~pos:(i * dsize)
    done
  done;
  { leaves; padded; levels }

let root t = Bytes.to_string t.levels.(Array.length t.levels - 1)
let leaf_count t = t.leaves

let witness t i =
  if i < 0 || i >= t.leaves then invalid_arg "Merkle.witness";
  let depth = Array.length t.levels - 1 in
  let w = Bytes.create (1 + (depth * dsize)) in
  Bytes.set_uint8 w 0 depth;
  for level = 0 to depth - 1 do
    Bytes.blit t.levels.(level) (((i lsr level) lxor 1) * dsize) w (1 + (level * dsize)) dsize
  done;
  Bytes.unsafe_to_string w

(* Per-domain verification scratch: a verify runs once per harvested share
   on the Π_ℓBA+ hot path, and the fresh context + digest buffer were most
   of its allocation. Safe per domain for the same reasons as [build_ctx]. *)
let verify_scratch : (Sha256.ctx * Bytes.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Sha256.init (), Bytes.create dsize))

let verify ~root ~index ~value w =
  if index < 0 then false
  else begin
    (* One context and one scratch digest, reused up the path. *)
    let ctx, h = Domain.DLS.get verify_scratch in
    Sha256.reset ctx;
    Sha256.feed_byte ctx 0x00;
    Sha256.feed ctx value;
    Sha256.finalize_into ctx h ~pos:0;
    let path = Bytes.unsafe_of_string w in
    let idx = ref index in
    for level = 0 to Char.code w.[0] - 1 do
      let sib = 1 + (level * dsize) in
      Sha256.reset ctx;
      Sha256.feed_byte ctx 0x01;
      if !idx land 1 = 0 then begin
        Sha256.feed_bytes ctx h ~pos:0 ~len:dsize;
        Sha256.feed_bytes ctx path ~pos:sib ~len:dsize
      end
      else begin
        Sha256.feed_bytes ctx path ~pos:sib ~len:dsize;
        Sha256.feed_bytes ctx h ~pos:0 ~len:dsize
      end;
      Sha256.finalize_into ctx h ~pos:0;
      idx := !idx lsr 1
    done;
    !idx = 0 && String.equal (Bytes.unsafe_to_string h) root
  end

let witness_size_bits w = 8 * String.length w
let encode_witness w = w

let decode_witness s =
  if String.length s >= 1 && String.length s = 1 + (Char.code s.[0] * dsize) then Some s
  else None
