(* Sign-magnitude arbitrary precision integers over 30-bit limbs.

   Invariants: [mag] has no trailing (most-significant) zero limbs; the empty
   array is zero; [neg] is false for zero. Limb base 2^30 keeps every
   intermediate product within 62 bits, so plain [int] arithmetic is exact on
   64-bit platforms. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { neg : bool; mag : int array }

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make neg mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then { neg = false; mag } else { neg; mag }

let zero = { neg = false; mag = [||] }
let is_zero a = Array.length a.mag = 0
let sign a = if is_zero a then 0 else if a.neg then -1 else 1

(* A 63-bit int has at most three 30-bit limbs, so each case is one literal
   array: no sizing pass, no list, no [caml_make_vect] call. [v mod base] is
   negative for negative [v] and each limb's absolute value is taken on its
   own, so [min_int] never overflows. *)
let of_int v =
  if v = 0 then zero
  else
    let neg = v < 0 in
    let l0 = Stdlib.abs (v mod base) and v = v / base in
    if v = 0 then { neg; mag = [| l0 |] }
    else
      let l1 = Stdlib.abs (v mod base) and v = v / base in
      if v = 0 then { neg; mag = [| l0; l1 |] }
      else { neg; mag = [| l0; l1; Stdlib.abs v |] }

let one = of_int 1

(* Magnitude primitives ----------------------------------------------------- *)

(* The limbs are annotated [int array] so that every comparison below is an
   integer compare, never the polymorphic [caml_compare]. The loops are
   [while] loops: a local recursive function would allocate its closure on
   every call. *)
let mag_compare (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && Array.unsafe_get a !i = Array.unsafe_get b !i do
      decr i
    done;
    if !i < 0 then 0 else Int.compare (Array.unsafe_get a !i) (Array.unsafe_get b !i)
  end

(* Whether [a + b] carries out of [a]'s top limb, for |a| >= |b|. Decided
   from the top down: a limb-sum above the mask carries, one below it
   absorbs any carry from below, and only an all-ones sum passes the
   question down. Almost always settled at the top limb. *)
let carries_out (a : int array) (b : int array) =
  let lb = Array.length b in
  let i = ref (Array.length a - 1) and s = ref limb_mask in
  while !i >= 0 && !s = limb_mask do
    s := a.(!i) + if !i < lb then b.(!i) else 0;
    decr i
  done;
  !s > limb_mask

(* Precondition: |a| >= |b|. Normalized inputs give a normalized sum,
   sized exactly: one allocation. *)
let mag_add_sorted (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (if carries_out a b then la + 1 else la) 0 in
  let carry = ref 0 in
  for i = 0 to lb - 1 do
    let s = Array.unsafe_get a i + Array.unsafe_get b i + !carry in
    Array.unsafe_set out i (s land limb_mask);
    carry := s lsr limb_bits
  done;
  for i = lb to la - 1 do
    let s = Array.unsafe_get a i + !carry in
    Array.unsafe_set out i (s land limb_mask);
    carry := s lsr limb_bits
  done;
  if !carry <> 0 then out.(la) <- !carry;
  out

let mag_add a b =
  if Array.length a >= Array.length b then mag_add_sorted a b else mag_add_sorted b a

(* Precondition: a >= b. The result is sized to the limbs below the top
   limbs [a] and [b] share, which is exact unless the first differing limb
   only absorbs a borrow; only then does [normalize_mag] copy it. *)
let mag_sub (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let h = ref (la - 1) in
  while !h >= 0 && a.(!h) = (if !h < lb then b.(!h) else 0) do
    decr h
  done;
  let n = !h + 1 in
  let out = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = Array.unsafe_get a i - (if i < lb then Array.unsafe_get b i else 0) - !borrow in
    borrow := if d < 0 then 1 else 0;
    Array.unsafe_set out i (d + (!borrow * base))
  done;
  assert (!borrow = 0);
  normalize_mag out

(* Schoolbook only: the callers multiply by a small int or a 10^d scale,
   far below the sizes where a subquadratic method pays. *)
let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; plus out and carry stays < 2^62. *)
        let s = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    out
  end

(* Signed operations -------------------------------------------------------- *)

let neg a = if is_zero a then a else { a with neg = not a.neg }
let abs a = { a with neg = false }

(* [mag_add] and [mag_sub] return normalized magnitudes, so the results
   need no [make]: a sum is zero only when both operands are, and then
   [a.neg] is already false. *)
let add a b =
  if a.neg = b.neg then { neg = a.neg; mag = mag_add a.mag b.mag }
  else
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { neg = a.neg; mag = mag_sub a.mag b.mag }
    else { neg = b.neg; mag = mag_sub b.mag a.mag }

let sub a b = add a (neg b)
let mul a b = make (a.neg <> b.neg) (mag_mul a.mag b.mag)

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Int.compare sa sb
  else if sa = 0 then 0
  else
    let c = mag_compare a.mag b.mag in
    if sa > 0 then c else -c

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Bit-level ----------------------------------------------------------------- *)

(* Width in bits of a limb (0 for 0). *)
let limb_width v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let mag_bit_length mag =
  let n = Array.length mag in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width mag.(n - 1)

let bit_length a = Stdlib.max 1 (mag_bit_length a.mag)

let shift_left a k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let mag = a.mag in
    let la = Array.length mag in
    (* A top limb only when the shifted top bits spill over: exact size. *)
    let spill = limb_width mag.(la - 1) + bits > limb_bits in
    let out = Array.make (la + limbs + if spill then 1 else 0) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (Array.unsafe_get mag i lsl bits) lor !carry in
      Array.unsafe_set out (i + limbs) (v land limb_mask);
      carry := v lsr limb_bits
    done;
    if spill then out.(la + limbs) <- !carry;
    { neg = a.neg; mag = out }
  end

let shift_right a k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a.mag in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.mag.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.mag.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      make a.neg out
    end
  end

let pow2 k =
  if k < 0 then invalid_arg "Bigint.pow2";
  shift_left one k

(* Division: short division by a one-limb divisor, Knuth's algorithm D
   (TAOCP vol. 2, 4.3.1) otherwise; O(|a|·|b|) limb operations. Both return
   normalized magnitudes. *)
let mag_divmod_limb a d =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize_mag q, if !r = 0 then [||] else [| !r |])

(* Precondition: |b| >= 2 limbs and a >= b. *)
let mag_divmod_knuth a b =
  let n = Array.length b and m = Array.length a - Array.length b in
  (* D1: shift both operands so the divisor's top limb has its high bit set;
     the quotient estimate below is then off by at most 2. *)
  let sh = limb_bits - limb_width b.(n - 1) in
  let shifted x len =
    let out = Array.make len 0 and carry = ref 0 in
    Array.iteri
      (fun i limb ->
        let v = (limb lsl sh) lor !carry in
        out.(i) <- v land limb_mask;
        carry := v lsr limb_bits)
      x;
    if Array.length x < len then out.(Array.length x) <- !carry;
    out
  in
  let v = shifted b n and u = shifted a (m + n + 1) in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* D3: estimate the quotient limb from the top two limbs of the running
       remainder, refined with the third. Every product stays below 2^62. *)
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    while
      !rhat < base
      && (!qhat >= base
         || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* D4: u[j..j+n] -= qhat * v. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) in
      let t = u.(i + j) - !borrow - (p land limb_mask) in
      u.(i + j) <- t land limb_mask;
      borrow := (p lsr limb_bits) - (t asr limb_bits)
    done;
    let t = u.(j + n) - !borrow in
    u.(j + n) <- t land limb_mask;
    (* D6: the estimate was one too large; add the divisor back. *)
    if t < 0 then begin
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- sum land limb_mask;
        carry := sum lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land limb_mask
    end;
    q.(j) <- !qhat
  done;
  (* D8: the remainder is u[0..n-1], shifted back. *)
  let r =
    Array.init n (fun i ->
        (u.(i) lsr sh) lor ((u.(i + 1) lsl (limb_bits - sh)) land limb_mask))
  in
  (normalize_mag q, normalize_mag r)

let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else if Array.length b = 1 then mag_divmod_limb a b.(0)
  else mag_divmod_knuth a b

let divmod a b =
  let q_mag, r_mag = mag_divmod a.mag b.mag in
  (make (a.neg <> b.neg) q_mag, make a.neg r_mag)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let succ a = add a one
let pred a = sub a one

(* Decimal I/O ---------------------------------------------------------------
   Chunked by 10^9 to keep the number of bignum operations low. *)

let chunk = 1_000_000_000
let chunk_big_mag = (of_int chunk).mag

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty";
  let negv, start = match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0) in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let i = ref start in
  while !i < n do
    let stop = Stdlib.min n (!i + 9) in
    let width = stop - !i in
    let part = ref 0 in
    for j = !i to stop - 1 do
      match s.[j] with
      | '0' .. '9' -> part := (!part * 10) + (Char.code s.[j] - Char.code '0')
      | _ -> invalid_arg "Bigint.of_string: bad digit"
    done;
    let scale = int_of_float (10. ** float_of_int width) in
    acc := add (mul !acc (of_int scale)) (of_int !part);
    i := stop
  done;
  if negv then neg !acc else !acc

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else
        let q, r = mag_divmod mag chunk_big_mag in
        let r_int =
          Array.to_list r
          |> List.rev
          |> List.fold_left (fun acc limb -> (acc lsl limb_bits) lor limb) 0
        in
        go q (r_int :: acc)
    in
    (match go a.mag [] with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        if a.neg then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

let to_int_opt a =
  if mag_bit_length a.mag > 62 then None
  else begin
    let v =
      Array.to_list a.mag
      |> List.rev
      |> List.fold_left (fun acc limb -> (acc lsl limb_bits) lor limb) 0
    in
    Some (if a.neg then -v else v)
  end

(* Hex digit codecs: a magnitude read or written as a sequence of 4-bit
   digits, digit 0 the least significant, through one bit accumulator — one
   pass and one allocation, O(ℓ) for ℓ bits. *)

(* Packs [count] digits into a normalized magnitude. *)
let mag_of_nibbles ~count digit =
  let mag = Array.make (((count * 4) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and fill = ref 0 and l = ref 0 in
  for i = 0 to count - 1 do
    acc := !acc lor (digit i lsl !fill);
    fill := !fill + 4;
    if !fill >= limb_bits then begin
      mag.(!l) <- !acc land limb_mask;
      incr l;
      acc := !acc lsr limb_bits;
      fill := !fill - limb_bits
    end
  done;
  if !fill > 0 then mag.(!l) <- !acc;
  normalize_mag mag

(* Calls [emit i d] for the low [count] digits of [mag]. *)
let mag_iter_nibbles mag ~count emit =
  let acc = ref 0 and fill = ref 0 and l = ref 0 in
  for i = 0 to count - 1 do
    if !fill < 4 && !l < Array.length mag then begin
      acc := !acc lor (mag.(!l) lsl !fill);
      fill := !fill + limb_bits;
      incr l
    end;
    emit i (!acc land 0xf);
    acc := !acc lsr 4;
    fill := !fill - 4
  done

(* Bitstrings are packed MSB-first with zero padding after the last bit, so
   the packed bytes, read as a big-endian number, are VAL shifted left by the
   padding width. The two byte codecs below move whole 64-bit words between
   those bytes and the limbs, with no call per byte. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] be64 x = if big_endian () then x else bswap64 x
let[@inline] limb_at mag j = if j < Array.length mag then Array.unsafe_get mag j else 0

(* Bits [56c, 56c + 56) of [mag * 2^skip]: chunk [c] of the packed bytes,
   counted from their least significant end. *)
let chunk56 mag ~skip c =
  let mask56 = (1 lsl 56) - 1 in
  let p = (56 * c) - skip in
  if p < 0 then ((limb_at mag 0 lor (limb_at mag 1 lsl limb_bits)) lsl skip) land mask56
  else
    let j = p / limb_bits and o = p mod limb_bits in
    ((limb_at mag j lsr o)
    lor (limb_at mag (j + 1) lsl (limb_bits - o))
    lor (limb_at mag (j + 2) lsl ((2 * limb_bits) - o)))
    land mask56

let to_bitstring_fixed ~bits a =
  let mag = a.mag in
  if mag_bit_length mag > bits then invalid_arg "Bigint.to_bitstring_fixed";
  let nbytes = (bits + 7) / 8 in
  let skip = (8 * nbytes) - bits in
  let buf = Bytes.create nbytes in
  (* Seven bytes per chunk, from the end: each 8-byte store's first byte is
     a zero that the next chunk's store overwrites. The at most seven bytes
     left at the front are written one by one. *)
  let c = ref 0 in
  while nbytes - (7 * !c) - 8 >= 0 do
    set64u buf (nbytes - (7 * !c) - 8) (be64 (Int64.of_int (chunk56 mag ~skip !c)));
    incr c
  done;
  let r = nbytes - (7 * !c) in
  if r > 0 then begin
    let x = chunk56 mag ~skip !c in
    for t = 0 to r - 1 do
      Bytes.unsafe_set buf t (Char.unsafe_chr ((x lsr (8 * (r - 1 - t))) land 0xff))
    done
  end;
  match Bitstring.of_bytes ~len:bits (Bytes.unsafe_to_string buf) with
  | Some b -> b
  | None -> assert false (* the padding bits are the shifted-in zeros *)

let to_bitstring a = to_bitstring_fixed ~bits:(bit_length a) a

let of_bitstring b =
  let data = Bitstring.to_bytes b in
  let nbytes = String.length data in
  (* Leading zero bytes are skipped, so the limb array is sized exactly. *)
  let first = ref 0 in
  while !first < nbytes && String.unsafe_get data !first = '\000' do
    incr first
  done;
  if !first = nbytes then zero
  else begin
    let skip = (8 * nbytes) - Bitstring.length b in
    let top = Char.code (String.unsafe_get data !first) in
    let bits = (8 * (nbytes - 1 - !first)) + limb_width top - skip in
    let mag = Array.make ((bits + limb_bits - 1) / limb_bits) 0 in
    (* Limb [i] is bits [q, q + 30) of the packed bytes read as a number,
       q = 30i + skip: one word load ending at the byte that holds bit q,
       shifted by q's offset in it. Where that word would start before the
       data (the top limb or two), its bytes are gathered one by one. *)
    for i = 0 to Array.length mag - 1 do
      let q = (i * limb_bits) + skip in
      let e = nbytes - 1 - (q lsr 3) in
      let w =
        if e >= 7 then Int64.to_int (be64 (get64u data (e - 7)))
        else begin
          let w = ref 0 in
          for t = 0 to e do
            w := (!w lsl 8) lor Char.code (String.unsafe_get data t)
          done;
          !w
        end
      in
      Array.unsafe_set mag i ((w lsr (q land 7)) land limb_mask)
    done;
    { neg = false; mag }
  end

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a
  else gcd b (rem a b)

(* Hexadecimal I/O ----------------------------------------------------------- *)

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (mag_bit_length a.mag + 3) / 4 in
    let sign = if a.neg then 1 else 0 in
    let buf = Bytes.make (sign + nibbles) '-' in
    mag_iter_nibbles a.mag ~count:nibbles (fun i d ->
        Bytes.unsafe_set buf (sign + nibbles - 1 - i) "0123456789abcdef".[d]);
    Bytes.unsafe_to_string buf
  end

let of_hex s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_hex: empty";
  let negv, start = match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0) in
  if start >= n then invalid_arg "Bigint.of_hex: no digits";
  let nibble i =
    match s.[n - 1 - i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bigint.of_hex: bad digit"
  in
  make negv (mag_of_nibbles ~count:(n - start) nibble)

let of_sign_magnitude ~negative m =
  if sign m < 0 then invalid_arg "Bigint.of_sign_magnitude";
  if negative then neg m else m
