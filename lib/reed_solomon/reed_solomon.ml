(* Systematic RS over GF(2^16) with evaluation points 0..n-1, matrix form.

   Same framing as [Reed_solomon_ref] (32-bit big-endian length prefix, zero
   padding to a multiple of 2k bytes, row-major 16-bit symbols) and
   bit-identical codewords — the differential suite in test_reed_solomon
   enforces this. The speed comes from hoisting all polynomial work out of
   the per-stripe loop:

   - [encode]: a per-(n, k) context holds split-product tables, memoized
     process-wide. Parity point i = k + p takes column j's symbol y with the
     Lagrange coefficient c = L_j(i); since multiplication is GF(2)-linear,
     c·y = c·(hi ≪ 8) ⊕ c·lo for y's two bytes, and the context lists all 256
     products of each kind for every (p, j): 1 KiB of 16-bit cells, (n−k)·k
     KiB per context (36 KiB at (13, 9)). A parity symbol is then 2k table
     reads XORed together, with no log lookup into the field's 384 KiB.
     Systematic symbols are straight copies.

   - [decode]: the first share per index counts, and the k lowest indices
     held are used. A held systematic column is copied straight into the
     frame; only the missing columns are interpolated, through one
     log-domain matrix (log L_j(col) over the used indices, for each missing
     column) computed once per call and reused across every stripe. *)

module Gf = Gf65536

(* Native-endian 16-bit cells, as in [Gf65536]: the split-product tables are
   written and read in this process only, and a symbol copied through one
   cell keeps its byte order. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external sget16 : string -> int -> int = "%caml_string_get16u"

let header_bytes = 4

let codeword_bytes ~k ~msg_bytes =
  let framed = header_bytes + msg_bytes in
  let stripes = (framed + (2 * k) - 1) / (2 * k) in
  2 * stripes

let check_params ~n ~k =
  if k < 1 || n < k || n >= 65536 then invalid_arg "Reed_solomon: bad (n, k)"

let inverse_weights xs k =
  Array.init k (fun j ->
      let prod = ref Gf.one in
      for m = 0 to k - 1 do
        if m <> j then prod := Gf.mul !prod (Gf.sub xs.(j) xs.(m))
      done;
      Gf.inv !prod)

(* Write L_j(x) for j < k into [row.(pos + j)], where L_j is the Lagrange
   basis over the nodes [xs] (with precomputed inverse weights [ws]) and [x]
   is not a node. *)
let basis_at ~xs ~ws ~k x row pos =
  let full = ref Gf.one in
  for m = 0 to k - 1 do
    full := Gf.mul !full (Gf.sub x xs.(m))
  done;
  for j = 0 to k - 1 do
    row.(pos + j) <- Gf.mul ws.(j) (Gf.div !full (Gf.sub x xs.(j)))
  done

(* Bytes per (p, j) table: 256 products c·(b ≪ 8), then 256 products c·b,
   each a 16-bit cell indexed by the byte b. *)
let table_bytes = 1024

type ctx = {
  ctx_n : int;
  ctx_k : int;
  (* For parity row p and column j, the table at ((p * k) + j) *
     [table_bytes], with c = L_j(k + p). *)
  split : Bytes.t;
}

let make_ctx ~n ~k =
  let xs = Array.init k (fun j -> j) in
  let ws = inverse_weights xs k in
  let coeffs = Array.make k 0 in
  let split = Bytes.create ((n - k) * k * table_bytes) in
  for p = 0 to n - k - 1 do
    basis_at ~xs ~ws ~k (k + p) coeffs 0;
    for j = 0 to k - 1 do
      let t = ((p * k) + j) * table_bytes in
      for b = 0 to 255 do
        set16 split (t + (2 * b)) (Gf.mul coeffs.(j) (b lsl 8));
        set16 split (t + 512 + (2 * b)) (Gf.mul coeffs.(j) b)
      done
    done
  done;
  { ctx_n = n; ctx_k = k; split }

(* Process-wide (n, k) -> ctx memo: contexts are deterministic functions of
   (n, k). *)
let memo : ((int * int) * ctx) list ref = ref []

let ctx ~n ~k =
  check_params ~n ~k;
  match List.assoc_opt (n, k) !memo with
  | Some c -> c
  | None ->
      let c = make_ctx ~n ~k in
      memo := ((n, k), c) :: !memo;
      c

let put_symbol buf pos v =
  Bytes.unsafe_set buf pos (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr (v land 0xff))

let get_symbol s pos =
  (Char.code (String.unsafe_get s pos) lsl 8) lor Char.code (String.unsafe_get s (pos + 1))

let byte_at buf pos = Char.code (Bytes.unsafe_get buf pos)

let encode_with c msg =
  let n = c.ctx_n and k = c.ctx_k and split = c.split in
  let msg_bytes = String.length msg in
  let cw_bytes = codeword_bytes ~k ~msg_bytes in
  let stripes = cw_bytes / 2 in
  (* Framed + padded message, laid out exactly as the reference reads it:
     symbol (stripe r, col j) at byte 2 * (r * k + j). *)
  let framed = Bytes.make (2 * stripes * k) '\000' in
  Bytes.set framed 0 (Char.chr ((msg_bytes lsr 24) land 0xff));
  Bytes.set framed 1 (Char.chr ((msg_bytes lsr 16) land 0xff));
  Bytes.set framed 2 (Char.chr ((msg_bytes lsr 8) land 0xff));
  Bytes.set framed 3 (Char.chr (msg_bytes land 0xff));
  Bytes.blit_string msg 0 framed header_bytes msg_bytes;
  let out = Array.init n (fun _ -> Bytes.create cw_bytes) in
  for j = 0 to k - 1 do
    let o = out.(j) in
    for r = 0 to stripes - 1 do
      set16 o (2 * r) (get16 framed (2 * ((r * k) + j)))
    done
  done;
  (* One parity row at a time, so its k tables (k KiB) stay in L1. *)
  for p = 0 to n - k - 1 do
    let o = out.(k + p) and row = p * k * table_bytes in
    for r = 0 to stripes - 1 do
      let base = 2 * r * k in
      let acc = ref 0 in
      for j = 0 to k - 1 do
        let t = row + (j * table_bytes) and y = base + (2 * j) in
        acc :=
          !acc
          lxor get16 split (t + (2 * byte_at framed y))
          lxor get16 split (t + 512 + (2 * byte_at framed (y + 1)))
      done;
      put_symbol o (2 * r) !acc
    done
  done;
  Array.map Bytes.unsafe_to_string out

let encode ~n ~k msg = encode_with (ctx ~n ~k) msg

(* Marks an index no share was given for; every real share's index is in
   [0, n). *)
let no_share = (-1, "")

let decode_with c shares =
  let n = c.ctx_n and k = c.ctx_k in
  (* The first share per valid index; later ones and out-of-range ones are
     ignored. *)
  let held = Array.make n no_share in
  List.iter
    (fun ((i, _) as share) ->
      if i >= 0 && i < n && fst (Array.unsafe_get held i) < 0 then held.(i) <- share)
    shares;
  (* The k lowest indices held, in increasing order. *)
  let xs = Array.make k 0 and used = ref 0 and i = ref 0 in
  while !used < k && !i < n do
    if fst held.(!i) >= 0 then begin
      xs.(!used) <- !i;
      incr used
    end;
    incr i
  done;
  if !used < k then Error "too few distinct shares"
  else
    let cws = Array.map (fun i -> snd held.(i)) xs in
    let cw_bytes = String.length cws.(0) in
    if cw_bytes = 0 || cw_bytes mod 2 <> 0 then Error "bad codeword length"
    else if Array.exists (fun s -> String.length s <> cw_bytes) cws then
      Error "inconsistent codeword lengths"
    else begin
      let stripes = cw_bytes / 2 in
      let framed = Bytes.create (2 * stripes * k) in
      (* Columns below k that are held are among the k lowest: copy them.
         [held_sys] counts them; they are xs.(0 .. held_sys - 1). *)
      let held_sys = ref 0 in
      while !held_sys < k && xs.(!held_sys) < k do
        let col = xs.(!held_sys) and cw = cws.(!held_sys) in
        for r = 0 to stripes - 1 do
          set16 framed (2 * ((r * k) + col)) (sget16 cw (2 * r))
        done;
        incr held_sys
      done;
      let missing = k - !held_sys in
      if missing > 0 then begin
        (* Interpolation matrix for the missing columns: row m lists
           log L_j(col) over the used indices, computed once for all
           stripes; -1 encodes a zero coefficient. *)
        let ws = inverse_weights xs k in
        let cols = Array.make missing 0 and dec_logs = Array.make (missing * k) 0 in
        let m = ref 0 in
        for col = 0 to k - 1 do
          if fst held.(col) < 0 then begin
            cols.(!m) <- col;
            basis_at ~xs ~ws ~k col dec_logs (!m * k);
            incr m
          end
        done;
        for e = 0 to (missing * k) - 1 do
          dec_logs.(e) <- Gf.log_unsafe dec_logs.(e)
        done;
        let ylogs = Array.make k (-1) in
        for r = 0 to stripes - 1 do
          for j = 0 to k - 1 do
            ylogs.(j) <- Gf.log_unsafe (get_symbol cws.(j) (2 * r))
          done;
          for m = 0 to missing - 1 do
            put_symbol framed
              (2 * ((r * k) + cols.(m)))
              (Gf.dot ~coeff_logs:dec_logs ~pos:(m * k) ~ylogs ~k)
          done
        done
      end;
      if Bytes.length framed < header_bytes then Error "short frame"
      else
        let len =
          (Char.code (Bytes.get framed 0) lsl 24)
          lor (Char.code (Bytes.get framed 1) lsl 16)
          lor (Char.code (Bytes.get framed 2) lsl 8)
          lor Char.code (Bytes.get framed 3)
        in
        if len > Bytes.length framed - header_bytes then Error "bad length header"
        else Ok (Bytes.sub_string framed header_bytes len)
    end

let decode ~n ~k shares = decode_with (ctx ~n ~k) shares
