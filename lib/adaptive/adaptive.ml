(* Fault-adaptive fast path: communication scaling with the actual number of
   corruptions f instead of the bound t.  See adaptive.mli for the protocol
   and its arguments; the load-bearing facts are repeated inline where the
   code depends on them.

   The wrapper has one shape: an O(1)-round optimistic preamble, a bit-BA
   arbitration of "my certificate formed", and a branch on the arbitration's
   agreed output — never on local state, so honest parties consume identical
   round counts in the lock-step monad.  The arbitration is plain phase king
   (t < n/3, ~n²·3(t+1)·17 bits): over the two-element domain its output is
   always some honest party's input (Lemma 2), so a [true] outcome proves an
   honest certificate witness. *)

open Net

let ( let* ) = Proto.( let* )

type stats = {
  mutable fast_taken : int;
  mutable fallbacks : int;
  mutable f_observed : int;
}

let stats () = { fast_taken = 0; fallbacks = 0; f_observed = 0 }

let bump_fast = Option.iter (fun s -> s.fast_taken <- s.fast_taken + 1)
let bump_fallback = Option.iter (fun s -> s.fallbacks <- s.fallbacks + 1)

let record_observed stats observed =
  Option.iter (fun s -> s.f_observed <- max s.f_observed observed) stats

let count_true a =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 a

(* ------------------------------------------------------------------ *)
(* Value codec: canonical sign + minimal-magnitude encoding.  Injective on
   ℤ (the −0 form is rejected), so equal digests mean equal values under
   collision resistance.  R3 verification hashes the *raw received bytes*
   before decoding, so all honest parties that accept a value decoded the
   byte-identical preimage — canonicality of byzantine re-encodings never
   matters. *)

let encode_value v =
  Wire.encode
    (Wire.seq
       [
         Wire.w_u8 (if Bigint.sign v < 0 then 1 else 0);
         Wire.w_bits (Bigint.to_bitstring (Bigint.abs v));
       ])

let decode_value raw =
  Wire.decode_full
    (fun cur ->
      let ( let* ) = Wire.( let* ) in
      let* sgn = Wire.r_u8 cur in
      if sgn > 1 then None
      else
        let* bits = Wire.r_bits () cur in
        let m = Bigint.of_bitstring bits in
        if sgn = 1 && Bigint.is_zero m then None
        else Some (Bigint.of_sign_magnitude ~negative:(sgn = 1) m))
    raw

(* ------------------------------------------------------------------ *)
(* The R1 order key: (sign class, bit length, top 128 magnitude bits).
   Monotone non-strict in the value — key(v) < key(w) implies v < w — so the
   rank-⌊n/2⌋ party in (key, id) order holds a value with ≥ ⌈n/2⌉ ≥ t+1
   parties on each side whenever the top-128-bit truncation is collision
   free (always, for values up to 128 bits; with probability 1 − O(n²·2⁻¹²⁸)
   for the random workloads).  Correctness never depends on this: the key
   only selects the fast path's candidate, validity comes from the R4
   witness thresholds. *)

let key_bytes = 16
let key_top_bits = 8 * key_bytes

type key = { k_sign : int; k_bits : int; k_top : string }

let key_of v =
  let s = Bigint.sign v in
  if s = 0 then { k_sign = 1; k_bits = 0; k_top = String.make key_bytes '\000' }
  else
    let m = Bigint.abs v in
    let bits = Bigint.bit_length m in
    let top = Bigint.shift_right m (max 0 (bits - key_top_bits)) in
    {
      k_sign = (if s < 0 then 0 else 2);
      k_bits = bits;
      k_top = Bitstring.to_bytes (Bigint.to_bitstring_fixed ~bits:key_top_bits top);
    }

let equal_key a b =
  a.k_sign = b.k_sign && a.k_bits = b.k_bits && String.equal a.k_top b.k_top

(* Numeric order: sign classes ascend (negative < zero < positive); within
   the positives larger (bits, top) is larger, within the negatives the
   magnitude order reverses. *)
let compare_key a b =
  if a.k_sign <> b.k_sign then compare a.k_sign b.k_sign
  else if a.k_sign = 1 then 0
  else
    let c = compare a.k_bits b.k_bits in
    let c = if c <> 0 then c else String.compare a.k_top b.k_top in
    if a.k_sign = 0 then -c else c

let w_entry key digest =
  Wire.seq
    [
      Wire.w_u8 key.k_sign;
      Wire.w_varint key.k_bits;
      Wire.w_fixed key.k_top;
      Wire.w_fixed digest;
    ]

let decode_entry raw =
  Wire.decode_full
    (fun cur ->
      let ( let* ) = Wire.( let* ) in
      let* k_sign = Wire.r_u8 cur in
      if k_sign > 2 then None
      else
        let* k_bits = Wire.r_varint cur in
        let* k_top = Wire.r_fixed key_bytes cur in
        let* digest = Wire.r_fixed Sha256.digest_size cur in
        Some ({ k_sign; k_bits; k_top }, digest))
    raw

(* Digest of a whole inbox, with presence tags and length framing so slot
   boundaries are unambiguous.  Two parties share this hash iff they share
   the R1 view byte for byte. *)
let hash_inbox inbox =
  let c = Sha256.init () in
  Array.iter
    (function
      | None -> Sha256.feed c "\x00"
      | Some raw ->
          Sha256.feed c "\x01";
          Sha256.feed c (Wire.encode (Wire.w_bytes raw)))
    inbox;
  Sha256.finalize c

(* The median party of a fully decoded R1 view: rank ⌊n/2⌋ in (key, id)
   order.  Identical at every party with the identical view. *)
let median_of r1 =
  let n = Array.length r1 in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ka, _ = Option.get r1.(a) and kb, _ = Option.get r1.(b) in
      let c = compare_key ka kb in
      if c <> 0 then c else compare a b)
    idx;
  idx.(n / 2)

let fast_path_rounds (ctx : Ctx.t) = 4 + Ba.Phase_king.rounds ctx

(* ------------------------------------------------------------------ *)
(* The CA wrapper: 4-round preamble + arbitration + full Π_ℤ fallback.    *)

let agree ?stats ~fallback (ctx : Ctx.t) v =
  let n = ctx.Ctx.n and t = ctx.Ctx.t in
  let module B = (val fallback : Ba.Substrate.S) in
  let module CA = Convex.Ca_int.Make (B) in
  let enc = encode_value v in
  let deviant = Array.make n false in
  let* fast_in, candidate =
    Proto.with_label "adaptive_fast"
      ((* R1: order key + input digest. *)
       let key = key_of v in
       let digest = Sha256.digest enc in
       let* inbox1 = Proto.broadcast (Wire.encode (w_entry key digest)) in
       let view_hash = hash_inbox inbox1 in
       let r1 =
         Array.init n (fun j -> Option.bind inbox1.(j) decode_entry)
       in
       Array.iteri (fun j e -> if e = None then deviant.(j) <- true) r1;
       let all1 = Array.for_all Option.is_some r1 in
       (* R2: view-consistency echo.  If every echo I receive equals my own
          view hash, every *honest* party's R1 view is byte-identical to
          mine (honest echoes are truthful and arrive unmodified), so all
          honest parties compute the same median party and committed
          digest. *)
       let* inbox2 = Proto.broadcast view_hash in
       let echoes_ok = ref true in
       Array.iteri
         (fun j slot ->
           match slot with
           | Some h when String.equal h view_hash -> ()
           | _ ->
               echoes_ok := false;
               deviant.(j) <- true)
         inbox2;
       let consistent = all1 && !echoes_ok in
       (* R3: the median party publishes its full input; everyone verifies
          the raw bytes against the R1 commitment (digest first, then the
          decoded value's key). *)
       let med = if all1 then Some (median_of r1) else None in
       let i_am_med = med = Some ctx.Ctx.me in
       let* inbox3 =
         if i_am_med then Proto.broadcast enc else Proto.receive_only ()
       in
       let candidate =
         match med with
         | None -> None
         | Some m -> (
             let _, med_digest = Option.get r1.(m) in
             let med_key, _ = Option.get r1.(m) in
             match inbox3.(m) with
             | Some raw when String.equal (Sha256.digest raw) med_digest -> (
                 match decode_value raw with
                 | Some u when equal_key (key_of u) med_key -> Some u
                 | _ -> None)
             | _ -> None)
       in
       (* R4: one comparison byte against the verified candidate — 0 for
          "no candidate", else sign of (v − u).  t+1 claims of v ≤ u and
          t+1 of v ≥ u each contain an honest witness, pinning u inside the
          honest hull exactly (over ℤ the hull is the interval). *)
       let cmp_byte =
         match candidate with
         | None -> 0
         | Some u -> (
             match Bigint.compare v u with
             | c when c < 0 -> 1
             | 0 -> 2
             | _ -> 3)
       in
       let* inbox4 = Proto.broadcast (String.make 1 (Char.chr cmp_byte)) in
       let all_got = ref true and low = ref 0 and high = ref 0 in
       Array.iteri
         (fun j slot ->
           let c =
             match slot with
             | Some s when String.length s = 1 -> Char.code s.[0]
             | _ -> -1
           in
           if c < 0 || c > 3 then begin
             all_got := false;
             deviant.(j) <- true
           end
           else if c = 0 then all_got := false
           else begin
             if c <= 2 then incr low;
             if c >= 2 then incr high
           end)
         inbox4;
       let fast_in =
         consistent
         && Option.is_some candidate
         && !all_got
         && !low >= t + 1
         && !high >= t + 1
       in
       Proto.return (fast_in, candidate))
  in
  record_observed stats (count_true deviant);
  (* Arbitration: agreed [true] proves an honest party i* held the full
     certificate.  i*'s all-slots-got condition covers every honest party's
     truthful R4 byte, so every honest party verified a candidate; i*'s
     consistency implies they all verified the *same* one. *)
  let* fast = Ba.Phase_king.run_bit ctx fast_in in
  if fast then begin
    bump_fast stats;
    (* [candidate] is Some at every honest party when the arbitration lands
       true (see above); the default keeps the match total. *)
    Proto.return (Option.value candidate ~default:v)
  end
  else begin
    bump_fallback stats;
    Proto.lift (CA.run ctx v)
  end

(* Reified: callers hand it to the round loop or wrap it per round. *)
let agree_int ?stats ~fallback ctx v = Proto.run (agree ?stats ~fallback ctx v)

let wrapper_cost (ctx : Ctx.t) ~value_bits ~fallback ~f =
  let n = ctx.Ctx.n in
  let kappa = 8 * Sha256.digest_size in
  let entry_bits = 8 * (1 + 3 + key_bytes + Sha256.digest_size) in
  let preamble =
    (n * n * entry_bits) (* R1 *)
    + (n * n * kappa) (* R2 *)
    + (n * (value_bits + 16)) (* R3: one broadcast of the full value *)
    + (n * n * 8) (* R4 *)
    (* the phase-king arbitration instance on one bit *)
    + Ba.Substrate.Unauthenticated.bits_estimate ctx ~value_bits:1
  in
  if f = 0 then
    { Ba.Substrate.c_f = 0; c_bits = preamble; c_rounds = fast_path_rounds ctx }
  else
    let module B = (val fallback : Ba.Substrate.S) in
    let module CA = Convex.Ca_int.Make (B) in
    let fb = CA.cost_estimate ctx ~value_bits ~f in
    {
      Ba.Substrate.c_f = f;
      c_bits = preamble + fb.Ba.Substrate.c_bits;
      c_rounds = fast_path_rounds ctx + fb.Ba.Substrate.c_rounds;
    }
