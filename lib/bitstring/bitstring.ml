(* Bits are packed MSB-first: bit i (1-indexed) lives in byte (i-1)/8 at
   in-byte position 7-((i-1) mod 8). The buffer may have up to 7 unused
   trailing bits, which are kept at zero so that structural equality of the
   packed form coincides with bitstring equality. *)

type t = { len : int; data : string }

let empty = { len = 0; data = "" }

(* Unboxed 64-bit loads and stores, unchecked: the callers bound the index.
   [String.get_int64_be] would box an [Int64] per word. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] be64 x = if big_endian () then x else bswap64 x

let bytes_needed len = (len + 7) / 8

let zero len =
  if len < 0 then invalid_arg "Bitstring.zero";
  { len; data = String.make (bytes_needed len) '\000' }

let unsafe_get data i =
  let byte = Char.code (String.unsafe_get data ((i - 1) lsr 3)) in
  byte land (0x80 lsr ((i - 1) land 7)) <> 0

let get b i =
  if i < 1 || i > b.len then invalid_arg "Bitstring.get";
  unsafe_get b.data i

let init len f =
  if len < 0 then invalid_arg "Bitstring.init";
  let buf = Bytes.make (bytes_needed len) '\000' in
  for i = 1 to len do
    if f i then begin
      let j = (i - 1) lsr 3 in
      let cur = Char.code (Bytes.unsafe_get buf j) in
      Bytes.unsafe_set buf j (Char.chr (cur lor (0x80 lsr ((i - 1) land 7))))
    end
  done;
  { len; data = Bytes.unsafe_to_string buf }

(* The [rem]-bit mask over the top of a byte: the bits a string of length
   [8k + rem] uses in its last byte (all of it when [rem = 0]). *)
let top_mask rem = if rem = 0 then 0xff else (0xff lsl (8 - rem)) land 0xff

let ones len =
  if len < 0 then invalid_arg "Bitstring.ones";
  let nbytes = bytes_needed len in
  let buf = Bytes.make nbytes '\xff' in
  if nbytes > 0 then Bytes.unsafe_set buf (nbytes - 1) (Char.unsafe_chr (top_mask (len land 7)));
  { len; data = Bytes.unsafe_to_string buf }

let of_bool_list bits =
  let arr = Array.of_list bits in
  init (Array.length arr) (fun i -> arr.(i - 1))

let of_string s =
  init (String.length s) (fun i ->
      match s.[i - 1] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitstring.of_string")

let length b = b.len
let is_empty b = b.len = 0

let to_string b =
  String.init b.len (fun i -> if unsafe_get b.data (i + 1) then '1' else '0')

let pp fmt b = Format.pp_print_string fmt (to_string b)

let sub b ~pos ~len =
  if len < 0 || pos < 1 || pos + len - 1 > b.len then
    invalid_arg "Bitstring.sub";
  if len = b.len then b
  else begin
    let nbytes = bytes_needed len in
    let first = (pos - 1) lsr 3 and shift = (pos - 1) land 7 in
    let buf =
      if shift = 0 then Bytes.sub (Bytes.unsafe_of_string b.data) first nbytes
      else begin
        (* Unaligned: each output byte straddles two source bytes. One
           big-endian word of source, shifted left, yields seven output
           bytes; its eighth, short of the next source byte, is rewritten
           by the next step. *)
        let buf = Bytes.create nbytes in
        let src = b.data in
        let last = String.length src - 1 in
        let k = ref 0 in
        while !k + 8 <= nbytes && first + !k + 8 <= String.length src do
          let w = be64 (get64u src (first + !k)) in
          set64u buf !k (be64 (Int64.shift_left w shift));
          k := !k + 7
        done;
        for k = !k to nbytes - 1 do
          let j = first + k in
          let hi = Char.code (String.unsafe_get src j) lsl shift in
          let lo =
            if j < last then Char.code (String.unsafe_get src (j + 1)) lsr (8 - shift)
            else 0
          in
          Bytes.unsafe_set buf k (Char.unsafe_chr ((hi lor lo) land 0xff))
        done;
        buf
      end
    in
    (* Clear the padding bits of the last byte. *)
    if nbytes > 0 then
      Bytes.unsafe_set buf (nbytes - 1)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get buf (nbytes - 1)) land top_mask (len land 7)));
    { len; data = Bytes.unsafe_to_string buf }
  end

let range b ~left ~right =
  if left > right then empty else sub b ~pos:left ~len:(right - left + 1)

let prefix b k = sub b ~pos:1 ~len:k

(* ORs the bits of [src] into [dst] from 0-indexed bit [off] on. The bytes of
   [dst] past bit [off] must still be zero: pieces are written left to right. *)
let blit_into dst off src =
  let first = off lsr 3 and shift = off land 7 in
  let data = src.data in
  let nb = String.length data in
  if shift = 0 then Bytes.blit_string data 0 dst first nb
  else begin
    (* Eight source bytes per step: one big-endian word shifted right, with
       the bits that spill from the byte before it ([hi], at first the bits
       already in [dst]) ORed on top, is eight finished destination bytes.
       [dst] is only written here: reading back a word that overlaps the
       previous store would stall the store forwarding. *)
    let j = ref 0 and hi = ref (Char.code (Bytes.unsafe_get dst first)) in
    let dlen = Bytes.length dst in
    while !j + 8 <= nb && first + !j + 8 <= dlen do
      let w = Int64.shift_right_logical (be64 (get64u data !j)) shift in
      set64u dst (first + !j) (be64 (Int64.logor w (Int64.shift_left (Int64.of_int !hi) 56)));
      hi := (Char.code (String.unsafe_get data (!j + 7)) lsl (8 - shift)) land 0xff;
      j := !j + 8
    done;
    (* The byte loop below ORs into the byte it resumes at. *)
    if !j > 0 && first + !j < dlen then Bytes.unsafe_set dst (first + !j) (Char.unsafe_chr !hi);
    let last = dlen - 1 in
    for j = !j to nb - 1 do
      let c = Char.code (String.unsafe_get data j) and k = first + j in
      Bytes.unsafe_set dst k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst k) lor (c lsr shift)));
      (* Past the end only src's zero padding would land. *)
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

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let len = a.len + b.len in
    let buf = Bytes.make (bytes_needed len) '\000' in
    Bytes.blit_string a.data 0 buf 0 (String.length a.data);
    blit_into buf a.len b;
    { len; data = Bytes.unsafe_to_string buf }
  end

let append_bit b bit =
  append b (if bit then { len = 1; data = "\x80" } else { len = 1; data = "\000" })

(* Leading zero bits of a nonzero byte. *)
let leading_zeros8 x =
  let k = ref 0 in
  while x land (0x80 lsr !k) = 0 do
    incr k
  done;
  !k

(* Number of leading bits on which [a] and [b] agree, capped at [n]; both must
   be at least [n] bits long. Whole 8-byte words are skipped first, then the
   first differing byte locates the bit. *)
let mismatch a b n =
  let nbytes = bytes_needed n in
  let i = ref 0 in
  while
    !i + 8 <= nbytes
    && (String.get_int64_ne a.data !i : int64) = String.get_int64_ne b.data !i
  do
    i := !i + 8
  done;
  while !i < nbytes && String.unsafe_get a.data !i = String.unsafe_get b.data !i do
    incr i
  done;
  if !i = nbytes then n
  else
    min n ((8 * !i) + leading_zeros8 (Char.code a.data.[!i] lxor Char.code b.data.[!i]))

let is_prefix ~prefix:p b = p.len <= b.len && mismatch p b p.len = p.len

let longest_common_prefix a b = prefix a (mismatch a b (min a.len b.len))

let of_int v =
  if v < 0 then invalid_arg "Bitstring.of_int";
  let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
  let k = max 1 (width 0 v) in
  init k (fun i -> v land (1 lsl (k - i)) <> 0)

let significant_bits b =
  if b.len = 0 then 0
  else
    (* The padding is zero, so the first nonzero byte holds the first one. *)
    let nbytes = String.length b.data in
    let i = ref 0 in
    while !i < nbytes && String.unsafe_get b.data !i = '\000' do
      incr i
    done;
    if !i = nbytes then 1 (* all zeros: value 0 needs one bit *)
    else b.len - ((8 * !i) + leading_zeros8 (Char.code b.data.[!i]))

let strip_leading_zeros b =
  if b.len = 0 then empty
  else
    let k = significant_bits b in
    sub b ~pos:(b.len - k + 1) ~len:k

let pad_to len b =
  if significant_bits b > len then invalid_arg "Bitstring.pad_to";
  if b.len = len then b
  else if b.len < len then append (zero (len - b.len)) b
  else sub b ~pos:(b.len - len + 1) ~len

let of_int_fixed ~bits v =
  let m = of_int v in
  if significant_bits m > bits then invalid_arg "Bitstring.of_int_fixed";
  pad_to bits m

let to_int b =
  let m = strip_leading_zeros b in
  if m.len > 62 then invalid_arg "Bitstring.to_int";
  let rec go acc i = if i > m.len then acc else go ((acc lsl 1) lor (if unsafe_get m.data i then 1 else 0)) (i + 1) in
  go 0 1

(* [p] followed by [len - p.len] copies of [fill], built in place: [p] is
   byte-aligned at the front, so its bytes are copied and only the byte it
   ends in is merged. *)
let fill_after len p fill =
  let nbytes = bytes_needed len in
  let buf = Bytes.make nbytes (if fill then '\xff' else '\000') in
  let pb = String.length p.data in
  Bytes.blit_string p.data 0 buf 0 pb;
  let rem = p.len land 7 in
  if fill && rem <> 0 then
    Bytes.unsafe_set buf (pb - 1)
      (Char.unsafe_chr (Char.code (String.unsafe_get p.data (pb - 1)) lor (0xff lsr rem)));
  if fill && nbytes > 0 then
    Bytes.unsafe_set buf (nbytes - 1)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf (nbytes - 1)) land top_mask (len land 7)));
  { len; data = Bytes.unsafe_to_string buf }

let min_fill len p =
  if p.len > len then invalid_arg "Bitstring.min_fill";
  if p.len = len then p else fill_after len p false

let max_fill len p =
  if p.len > len then invalid_arg "Bitstring.max_fill";
  if p.len = len then p else fill_after len p true

let equal a b = a.len = b.len && String.equal a.data b.data

let compare a b =
  (* Lexicographic on bits, then shorter < longer. Because trailing padding is
     zeroed we cannot compare buffers directly when lengths differ mod 8. *)
  let n = min a.len b.len in
  let k = mismatch a b n in
  if k = n then Stdlib.compare a.len b.len
  else if unsafe_get a.data (k + 1) then 1
  else -1

let compare_val a b =
  let a = strip_leading_zeros a and b = strip_leading_zeros b in
  (* Both minimal: 0 is "0"; any other value starts with 1, so longer means
     strictly greater, except that "0" must compare below "1...". *)
  let norm x = if x.len = 1 && not (unsafe_get x.data 1) then empty else x in
  let a = norm a and b = norm b in
  if a.len <> b.len then Stdlib.compare a.len b.len else compare a b

let blocks ~block_bits b =
  if block_bits <= 0 then invalid_arg "Bitstring.blocks";
  if b.len mod block_bits <> 0 then invalid_arg "Bitstring.blocks: length not a multiple";
  List.init (b.len / block_bits) (fun k -> sub b ~pos:((k * block_bits) + 1) ~len:block_bits)

let to_bytes b = b.data

let of_bytes ~len s =
  if len < 0 || String.length s <> bytes_needed len then None
  else
    let rem = len land 7 in
    let padding_ok =
      rem = 0 || len = 0
      || Char.code s.[String.length s - 1] land (0xff lsr rem) = 0
    in
    if padding_ok then Some { len; data = s } else None
