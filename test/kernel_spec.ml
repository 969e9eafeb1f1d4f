(* Frozen copies of the long-value kernels as they were before they were
   rewritten to allocate each result once and to work a byte or a word at a
   time: the polymorphic limb compare, the closure-per-byte digit codecs,
   the spare-limb [mag_add]/[shift_left] with [normalize_mag]'s second copy,
   the list-built [of_int], and the byte-per-iteration bit splicing. The
   differential tests in test_bigint.ml and test_bitstring.ml hold the
   production kernels to these, bit for bit. Never edit them to make a test
   pass. *)

module Bigint_old = struct
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

  let of_int v =
    let neg = v < 0 in
    let rec limbs acc v =
      if v = 0 then List.rev acc
      else limbs ((abs (v mod base)) :: acc) (v / base)
    in
    make neg (Array.of_list (limbs [] v))

  let mag_compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else
      let rec go i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
        else go (i - 1)
      in
      go (la - 1)

  let mag_add a b =
    let la = Array.length a and lb = Array.length b in
    let n = Stdlib.max la lb in
    let out = Array.make (n + 1) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
      out.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    out.(n) <- !carry;
    out

  let mag_sub a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin
        out.(i) <- d + base;
        borrow := 1
      end
      else begin
        out.(i) <- d;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    out

  let neg a = if is_zero a then a else { a with neg = not a.neg }

  let add a b =
    if a.neg = b.neg then make a.neg (mag_add a.mag b.mag)
    else
      let c = mag_compare a.mag b.mag in
      if c = 0 then zero
      else if c > 0 then make a.neg (mag_sub a.mag b.mag)
      else make b.neg (mag_sub b.mag a.mag)

  let sub a b = add a (neg b)

  let compare a b =
    match (sign a, sign b) with
    | sa, sb when sa <> sb -> Stdlib.compare sa sb
    | 0, _ -> 0
    | s, _ ->
        let c = mag_compare a.mag b.mag in
        if s > 0 then c else -c

  let limb_width v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v

  let mag_bit_length mag =
    let n = Array.length mag in
    if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width mag.(n - 1)

  let shift_left a k =
    if k < 0 then invalid_arg "Bigint.shift_left";
    if is_zero a || k = 0 then a
    else begin
      let limbs = k / limb_bits and bits = k mod limb_bits in
      let la = Array.length a.mag in
      let out = Array.make (la + limbs + 1) 0 in
      for i = 0 to la - 1 do
        let v = a.mag.(i) lsl bits in
        out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
        out.(i + limbs + 1) <- v lsr limb_bits
      done;
      make a.neg out
    end

  let mag_of_digits ~width ~skip ~count digit =
    let bits = (count * width) - skip in
    let mag = Array.make ((bits + limb_bits - 1) / limb_bits) 0 in
    let acc = ref 0 and fill = ref 0 and l = ref 0 in
    for i = 0 to count - 1 do
      let drop = if i = 0 then skip else 0 in
      acc := !acc lor ((digit i lsr drop) lsl !fill);
      fill := !fill + width - drop;
      if !fill >= limb_bits then begin
        mag.(!l) <- !acc land limb_mask;
        incr l;
        acc := !acc lsr limb_bits;
        fill := !fill - limb_bits
      end
    done;
    if !fill > 0 then mag.(!l) <- !acc;
    normalize_mag mag

  let mag_iter_digits mag ~width ~skip ~count emit =
    let acc = ref 0 and fill = ref skip and l = ref 0 in
    for i = 0 to count - 1 do
      if !fill < width && !l < Array.length mag then begin
        acc := !acc lor (mag.(!l) lsl !fill);
        fill := !fill + limb_bits;
        incr l
      end;
      emit i (!acc land ((1 lsl width) - 1));
      acc := !acc lsr width;
      fill := !fill - width
    done

  let to_bitstring_fixed ~bits a =
    if mag_bit_length a.mag > bits then invalid_arg "Bigint.to_bitstring_fixed";
    let nbytes = (bits + 7) / 8 in
    let buf = Bytes.create nbytes in
    mag_iter_digits a.mag ~width:8 ~skip:((8 * nbytes) - bits) ~count:nbytes (fun i d ->
        Bytes.unsafe_set buf (nbytes - 1 - i) (Char.unsafe_chr d));
    match Bitstring.of_bytes ~len:bits (Bytes.unsafe_to_string buf) with
    | Some b -> b
    | None -> assert false

  let of_bitstring b =
    let len = Bitstring.length b and data = Bitstring.to_bytes b in
    let nbytes = String.length data in
    {
      neg = false;
      mag =
        mag_of_digits ~width:8 ~skip:((8 * nbytes) - len) ~count:nbytes (fun i ->
            Char.code (String.unsafe_get data (nbytes - 1 - i)));
    }

  let to_hex a =
    if is_zero a then "0"
    else begin
      let nibbles = (mag_bit_length a.mag + 3) / 4 in
      let sign = if a.neg then 1 else 0 in
      let buf = Bytes.make (sign + nibbles) '-' in
      mag_iter_digits a.mag ~width:4 ~skip:0 ~count:nibbles (fun i d ->
          Bytes.unsafe_set buf (sign + nibbles - 1 - i) "0123456789abcdef".[d]);
      Bytes.unsafe_to_string buf
    end
end

(* Bitstrings as they were packed then: [data] MSB-first with zeroed
   padding, the same layout [Bitstring.to_bytes]/[of_bytes] expose. *)
module Bitstring_old = struct
  type t = { len : int; data : string }

  let of_new b = { len = Bitstring.length b; data = Bitstring.to_bytes b }
  let to_new b = Option.get (Bitstring.of_bytes ~len:b.len b.data)
  let empty = { len = 0; data = "" }
  let bytes_needed len = (len + 7) / 8
  let zero len = { len; data = String.make (bytes_needed len) '\000' }
  let top_mask rem = if rem = 0 then 0xff else (0xff lsl (8 - rem)) land 0xff

  let ones len =
    let nbytes = bytes_needed len in
    let buf = Bytes.make nbytes '\xff' in
    if nbytes > 0 then
      Bytes.unsafe_set buf (nbytes - 1) (Char.unsafe_chr (top_mask (len land 7)));
    { len; data = Bytes.unsafe_to_string buf }

  let sub b ~pos ~len =
    if len < 0 || pos < 1 || pos + len - 1 > b.len then invalid_arg "Bitstring.sub";
    if len = b.len then b
    else begin
      let nbytes = bytes_needed len in
      let first = (pos - 1) lsr 3 and shift = (pos - 1) land 7 in
      let buf =
        if shift = 0 then Bytes.sub (Bytes.unsafe_of_string b.data) first nbytes
        else begin
          let buf = Bytes.create nbytes in
          let last = String.length b.data - 1 in
          for k = 0 to nbytes - 1 do
            let j = first + k in
            let hi = Char.code (String.unsafe_get b.data j) lsl shift in
            let lo =
              if j < last then Char.code (String.unsafe_get b.data (j + 1)) lsr (8 - shift)
              else 0
            in
            Bytes.unsafe_set buf k (Char.unsafe_chr ((hi lor lo) land 0xff))
          done;
          buf
        end
      in
      if nbytes > 0 then
        Bytes.unsafe_set buf (nbytes - 1)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get buf (nbytes - 1)) land top_mask (len land 7)));
      { len; data = Bytes.unsafe_to_string buf }
    end

  let blit_into dst off src =
    let first = off lsr 3 and shift = off land 7 in
    let nb = String.length src.data in
    if shift = 0 then Bytes.blit_string src.data 0 dst first nb
    else begin
      let last = Bytes.length dst - 1 in
      for j = 0 to nb - 1 do
        let c = Char.code (String.unsafe_get src.data j) and k = first + j in
        Bytes.unsafe_set dst k
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst k) lor (c lsr shift)));
        if k < last then
          Bytes.unsafe_set dst (k + 1) (Char.unsafe_chr ((c lsl (8 - shift)) land 0xff))
      done
    end

  let concat bs =
    match List.filter (fun b -> b.len > 0) bs with
    | [] -> empty
    | [ b ] -> b
    | bs ->
        let len = List.fold_left (fun acc b -> acc + b.len) 0 bs in
        let buf = Bytes.make (bytes_needed len) '\000' in
        ignore
          (List.fold_left
             (fun off b ->
               blit_into buf off b;
               off + b.len)
             0 bs);
        { len; data = Bytes.unsafe_to_string buf }

  let append a b = concat [ a; b ]

  let min_fill len p =
    if p.len > len then invalid_arg "Bitstring.min_fill";
    append p (zero (len - p.len))

  let max_fill len p =
    if p.len > len then invalid_arg "Bitstring.max_fill";
    append p (ones (len - p.len))
end
