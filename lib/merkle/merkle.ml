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
   per Π_ℓBA+ invocation, so the context is reused rather than allocated per
   build. One context per domain is enough: a build runs to completion on
   its domain (nothing in this repo runs protocol code on systhreads), and
   it cannot re-enter itself — it calls only Sha256. *)
let build_ctx : Sha256.ctx Domain.DLS.key = Domain.DLS.new_key Sha256.init

let next_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

let depth_of padded =
  let rec go d p = if p = 1 then d else go (d + 1) (p / 2) in
  go 0 padded

let build values =
  let leaves = Array.length values in
  if leaves = 0 then invalid_arg "Merkle.build: empty";
  let padded = next_pow2 leaves in
  let depth = depth_of padded in
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

(* A node's hash input is the inner-node tag and its two children. *)
let pair = 2 * dsize

(* Memo for [check]: one entry per inner node, the child pair last hashed
   there and then its digest. The nodes of level l (1 <= l <= depth) start
   at entry [padded - (padded lsr (l - 1))]. Every entry starts as the
   all-zero pair and that pair's digest, so an entry always holds a pair and
   its true digest: a hit returns exactly what hashing the pair would. *)
let entry = pair + dsize

let zero_pair_digest = Sha256.digest ("\x01" ^ String.make pair '\000')

(* Per-domain walk scratch: the hashing context, and 97 bytes laid out as
   the inner-node tag (byte 0), the node's two children (bytes 1-64) and the
   digest reached so far (bytes 65-96). A walk runs once per harvested share
   on the Π_ℓBA+ hot path; safe per domain for the same reasons as
   [build_ctx]. *)
let walk_scratch : (Sha256.ctx * Bytes.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = Bytes.make (1 + pair + dsize) '\000' in
      Bytes.set_uint8 s 0 0x01;
      (Sha256.init (), s))

(* [len] bytes of [a] at [apos] against [b] at [bpos], eight at a time;
   [len] is a multiple of 8. *)
let equal_sub a apos b bpos len =
  let i = ref 0 in
  while
    !i < len
    && (Bytes.get_int64_ne a (apos + !i) : int64) = Bytes.get_int64_ne b (bpos + !i)
  do
    i := !i + 8
  done;
  !i >= len

(* The one path walk, for [verify] and [check]. With [padded > 0], [memo] is
   a checker's memo for a tree of [padded] leaves whose depth the witness
   has; with [padded = 0] every node is hashed. *)
let walk ~memo ~padded ~root ~index ~value w =
  let ctx, s = Domain.DLS.get walk_scratch in
  let cur = 1 + pair in
  Sha256.reset ctx;
  Sha256.feed_byte ctx 0x00;
  Sha256.feed ctx value;
  Sha256.finalize_into ctx s ~pos:cur;
  let path = Bytes.unsafe_of_string w in
  let idx = ref index in
  for level = 0 to Char.code w.[0] - 1 do
    let odd = !idx land 1 in
    Bytes.blit s cur s (1 + (odd * dsize)) dsize;
    Bytes.blit path (1 + (level * dsize)) s (1 + ((1 - odd) * dsize)) dsize;
    idx := !idx lsr 1;
    let e = (padded - (padded lsr level) + !idx) * entry in
    if padded > 0 && equal_sub memo e s 1 pair then Bytes.blit memo (e + pair) s cur dsize
    else begin
      Sha256.reset ctx;
      Sha256.feed_bytes ctx s ~pos:0 ~len:(1 + pair);
      Sha256.finalize_into ctx s ~pos:cur;
      if padded > 0 then Bytes.blit s 1 memo e entry
    end
  done;
  !idx = 0
  && String.length root = dsize
  && equal_sub s cur (Bytes.unsafe_of_string root) 0 dsize

let verify ~root ~index ~value w =
  index >= 0 && walk ~memo:Bytes.empty ~padded:0 ~root ~index ~value w

type checker = { c_root : root; c_padded : int; c_depth : int; memo : Bytes.t }

let checker ~root ~leaves =
  if leaves < 1 then invalid_arg "Merkle.checker";
  let padded = next_pow2 leaves in
  let memo = Bytes.make ((padded - 1) * entry) '\000' in
  for i = 0 to padded - 2 do
    Bytes.blit_string zero_pair_digest 0 memo ((i * entry) + pair) dsize
  done;
  { c_root = root; c_padded = padded; c_depth = depth_of padded; memo }

let check c ~index ~value w =
  if index >= 0 && index < c.c_padded && Char.code w.[0] = c.c_depth then
    walk ~memo:c.memo ~padded:c.c_padded ~root:c.c_root ~index ~value w
  else verify ~root:c.c_root ~index ~value w

let witness_size_bits w = 8 * String.length w
let encode_witness w = w

let decode_witness s =
  if String.length s >= 1 && String.length s = 1 + (Char.code s.[0] * dsize) then Some s
  else None
