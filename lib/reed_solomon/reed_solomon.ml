(* Systematic RS over GF(2^16) with evaluation points 0..n-1, matrix form.

   Same framing as [Reed_solomon_ref] (32-bit big-endian length prefix, zero
   padding to a multiple of 2k bytes, row-major 16-bit symbols) and
   bit-identical codewords — the differential suite in test_reed_solomon
   enforces this. The speed comes from hoisting all polynomial work out of
   the per-stripe loop:

   - [encode]: a per-(n, k) context holds the log-domain Lagrange *encoding
     matrix* — row i-k lists log L_j(i) for each parity point i — computed
     once and memoized process-wide, so each parity symbol is a k-term
     table-driven dot product ({!Gf65536.dot}) instead of a barycentric
     evaluation. Systematic symbols are straight copies. A stripe's symbol
     logs are looked up once and shared by every parity row.

   - [decode]: the interpolation matrix for the selected share set (log
     L_j(col) over the share abscissae, for each message column) is computed
     once per call, then reused across every stripe. *)

module Gf = Gf65536

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

(* Write log L_j(x) for j < k into [row.(pos + j)], where L_j is the Lagrange
   basis over the nodes [xs] (with precomputed inverse weights [ws]); -1
   encodes the zero coefficient. At a node, the row is a unit vector. *)
let coeff_logs_at ~xs ~ws ~k x row pos =
  let direct = ref (-1) in
  for j = 0 to k - 1 do
    if xs.(j) = x then direct := j
  done;
  if !direct >= 0 then begin
    Array.fill row pos k (-1);
    row.(pos + !direct) <- 0
  end
  else begin
    let full = ref Gf.one in
    for m = 0 to k - 1 do
      full := Gf.mul !full (Gf.sub x xs.(m))
    done;
    for j = 0 to k - 1 do
      let c = Gf.mul ws.(j) (Gf.div !full (Gf.sub x xs.(j))) in
      row.(pos + j) <- (if c = 0 then -1 else Gf.log c)
    done
  end

type ctx = {
  ctx_n : int;
  ctx_k : int;
  (* enc_logs.(((i - k) * k) + j) = log L_j(i) for parity point i in [k, n). *)
  enc_logs : int array;
}

let make_ctx ~n ~k =
  let xs = Array.init k (fun j -> j) in
  let ws = inverse_weights xs k in
  let enc_logs = Array.make ((n - k) * k) (-1) in
  for i = k to n - 1 do
    coeff_logs_at ~xs ~ws ~k i enc_logs ((i - k) * k)
  done;
  { ctx_n = n; ctx_k = k; enc_logs }

(* Process-wide (n, k) -> ctx memo. Lock-free CAS on an immutable list: a
   losing race recomputes an identical context, which is harmless — contexts
   are deterministic functions of (n, k). *)
let memo : ((int * int) * ctx) list Atomic.t = Atomic.make []

let rec ctx ~n ~k =
  check_params ~n ~k;
  let cached = Atomic.get memo in
  match List.assoc_opt (n, k) cached with
  | Some c -> c
  | None ->
      let c = make_ctx ~n ~k in
      if Atomic.compare_and_set memo cached (((n, k), c) :: cached) then c
      else ctx ~n ~k

let put_symbol buf pos v =
  Bytes.unsafe_set buf pos (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr (v land 0xff))

let get_symbol buf pos =
  (Char.code (Bytes.unsafe_get buf pos) lsl 8)
  lor Char.code (Bytes.unsafe_get buf (pos + 1))

let encode_with c msg =
  let n = c.ctx_n and k = c.ctx_k in
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
  let ylogs = Array.make k (-1) in
  for r = 0 to stripes - 1 do
    let base = 2 * r * k in
    for j = 0 to k - 1 do
      let y = get_symbol framed (base + (2 * j)) in
      put_symbol out.(j) (2 * r) y;
      ylogs.(j) <- Gf.log_unsafe y
    done;
    for i = k to n - 1 do
      put_symbol out.(i) (2 * r)
        (Gf.dot ~coeff_logs:c.enc_logs ~pos:((i - k) * k) ~ylogs ~k)
    done
  done;
  Array.map Bytes.unsafe_to_string out

let encode ~n ~k msg = encode_with (ctx ~n ~k) msg

let decode_with c shares =
  let n = c.ctx_n and k = c.ctx_k in
  (* Keep the first share per distinct valid index, up to k of them. *)
  let seen = Hashtbl.create 16 in
  let selected =
    List.filter
      (fun (i, _) ->
        if i < 0 || i >= n || Hashtbl.mem seen i then false
        else begin
          Hashtbl.add seen i ();
          Hashtbl.length seen <= k
        end)
      shares
  in
  if List.length selected < k then Error "too few distinct shares"
  else
    let selected = Array.of_list selected in
    let cw_bytes = String.length (snd selected.(0)) in
    if cw_bytes = 0 || cw_bytes mod 2 <> 0 then Error "bad codeword length"
    else if Array.exists (fun (_, s) -> String.length s <> cw_bytes) selected
    then Error "inconsistent codeword lengths"
    else begin
      let stripes = cw_bytes / 2 in
      let xs = Array.map fst selected in
      let ws = inverse_weights xs k in
      (* Interpolation matrix for this share set: row col lists log L_j(col)
         over the share abscissae, computed once for all stripes. *)
      let dec_logs = Array.make (k * k) (-1) in
      for col = 0 to k - 1 do
        coeff_logs_at ~xs ~ws ~k col dec_logs (col * k)
      done;
      let cws = Array.map snd selected in
      let ylogs = Array.make k (-1) in
      let framed = Bytes.create (2 * stripes * k) in
      for r = 0 to stripes - 1 do
        for j = 0 to k - 1 do
          ylogs.(j) <- Gf.log_unsafe (get_symbol (Bytes.unsafe_of_string cws.(j)) (2 * r))
        done;
        for col = 0 to k - 1 do
          put_symbol framed
            (2 * ((r * k) + col))
            (Gf.dot ~coeff_logs:dec_logs ~pos:(col * k) ~ylogs ~k)
        done
      done;
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
