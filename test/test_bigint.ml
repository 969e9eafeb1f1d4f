(* Unit and property tests for the arbitrary-precision integer substrate. *)

module Z = Bigint

let z = Alcotest.testable Z.pp Z.equal
let check_z = Alcotest.check z
let bits_t = Alcotest.testable Bitstring.pp Bitstring.equal
let zs = Z.of_string

let test_of_to_string () =
  Alcotest.check Alcotest.string "zero" "0" (Z.to_string Z.zero);
  Alcotest.check Alcotest.string "small" "42" (Z.to_string (Z.of_int 42));
  Alcotest.check Alcotest.string "negative" "-42" (Z.to_string (Z.of_int (-42)));
  let big = "123456789012345678901234567890123456789" in
  Alcotest.check Alcotest.string "big roundtrip" big (Z.to_string (zs big));
  Alcotest.check Alcotest.string "neg big roundtrip" ("-" ^ big) (Z.to_string (zs ("-" ^ big)));
  Alcotest.check Alcotest.string "plus sign" "7" (Z.to_string (zs "+7"));
  Alcotest.check Alcotest.string "leading zeros" "7" (Z.to_string (zs "007"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty") (fun () ->
      ignore (zs ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_string: bad digit") (fun () ->
      ignore (zs "12a4"))

let test_arithmetic () =
  check_z "add" (zs "1000000000000000000000") (Z.add (zs "999999999999999999999") Z.one);
  check_z "sub crossing zero" (Z.of_int (-1)) (Z.sub (Z.of_int 5) (Z.of_int 6));
  check_z "mul" (zs "121932631112635269") (Z.mul (zs "123456789") (zs "987654321"));
  check_z "mul signs" (zs "-6") (Z.mul (Z.of_int 2) (Z.of_int (-3)));
  check_z "neg zero is zero" Z.zero (Z.neg Z.zero);
  check_z "abs" (Z.of_int 9) (Z.abs (Z.of_int (-9)));
  check_z "succ/pred" (Z.of_int 0) (Z.pred (Z.succ Z.zero));
  check_z "min_int safe" (zs (string_of_int min_int)) (Z.of_int min_int)

let test_divmod () =
  let q, r = Z.divmod (zs "1000000000000000000007") (zs "1000000007") in
  check_z "quotient" (zs "999999993000") (q);
  check_z "check identity" (zs "1000000000000000000007")
    (Z.add (Z.mul q (zs "1000000007")) r);
  let q, r = Z.divmod (Z.of_int (-7)) (Z.of_int 2) in
  check_z "trunc q" (Z.of_int (-3)) q;
  check_z "trunc r" (Z.of_int (-1)) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_shift_pow2 () =
  check_z "pow2" (zs "1267650600228229401496703205376") (Z.pow2 100);
  check_z "shl" (Z.of_int 40) (Z.shift_left (Z.of_int 5) 3);
  check_z "shr" (Z.of_int 5) (Z.shift_right (Z.of_int 40) 3);
  check_z "shr to zero" Z.zero (Z.shift_right (Z.of_int 40) 63);
  check_z "shl big" (Z.mul (Z.pow2 61) (Z.of_int 3)) (Z.shift_left (Z.of_int 3) 61)

let test_bits () =
  Alcotest.check Alcotest.int "bit_length 0" 1 (Z.bit_length Z.zero);
  Alcotest.check Alcotest.int "bit_length 1" 1 (Z.bit_length Z.one);
  Alcotest.check Alcotest.int "bit_length 2^100" 101 (Z.bit_length (Z.pow2 100));
  Alcotest.check Alcotest.string "to_bitstring" "110"
    (Bitstring.to_string (Z.to_bitstring (Z.of_int 6)));
  Alcotest.check Alcotest.string "to_bitstring 0" "0"
    (Bitstring.to_string (Z.to_bitstring Z.zero));
  Alcotest.check Alcotest.string "fixed" "00000110"
    (Bitstring.to_string (Z.to_bitstring_fixed ~bits:8 (Z.of_int 6)));
  check_z "of_bitstring" (Z.of_int 6) (Z.of_bitstring (Bitstring.of_string "00110"));
  check_z "roundtrip big" (Z.pow2 200) (Z.of_bitstring (Z.to_bitstring (Z.pow2 200)));
  Alcotest.check (Alcotest.option Alcotest.int) "to_int_opt" (Some (-77))
    (Z.to_int_opt (Z.of_int (-77)));
  Alcotest.check (Alcotest.option Alcotest.int) "to_int_opt overflow" None
    (Z.to_int_opt (Z.pow2 100));
  check_z "sign magnitude" (Z.of_int (-6)) (Z.of_sign_magnitude ~negative:true (Z.of_int 6))

let test_gcd () =
  check_z "gcd basic" (Z.of_int 6) (Z.gcd (Z.of_int 54) (Z.of_int 24));
  check_z "gcd signs" (Z.of_int 6) (Z.gcd (Z.of_int (-54)) (Z.of_int 24));
  check_z "gcd zero" (Z.of_int 7) (Z.gcd Z.zero (Z.of_int 7));
  check_z "gcd both zero" Z.zero (Z.gcd Z.zero Z.zero);
  check_z "gcd coprime" Z.one (Z.gcd (zs "1000000007") (zs "998244353"));
  (* gcd(2^200 * 3, 2^150 * 5) = 2^150. *)
  check_z "gcd big powers" (Z.pow2 150)
    (Z.gcd (Z.mul (Z.pow2 200) (Z.of_int 3)) (Z.mul (Z.pow2 150) (Z.of_int 5)))

let test_hex () =
  Alcotest.check Alcotest.string "zero" "0" (Z.to_hex Z.zero);
  Alcotest.check Alcotest.string "beef" "beef" (Z.to_hex (Z.of_int 0xbeef));
  Alcotest.check Alcotest.string "negative" "-ff" (Z.to_hex (Z.of_int (-255)));
  check_z "of_hex" (Z.of_int 0xdead) (Z.of_hex "dead");
  check_z "of_hex upper" (Z.of_int 0xDEAD) (Z.of_hex "DEAD");
  check_z "of_hex sign" (Z.of_int (-16)) (Z.of_hex "-10");
  check_z "roundtrip big" (Z.pred (Z.pow2 521)) (Z.of_hex (Z.to_hex (Z.pred (Z.pow2 521))));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_hex: bad digit") (fun () ->
      ignore (Z.of_hex "12g4"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_hex: empty") (fun () ->
      ignore (Z.of_hex ""))

let test_multi_limb_products () =
  (* Products of 100- to 5000-bit operands, checked against an independent
     identity: (2^k - 1) * (2^k + 1) = 2^2k - 1. *)
  List.iter
    (fun k ->
      let a = Z.pred (Z.pow2 k) and b = Z.succ (Z.pow2 k) in
      check_z
        (Printf.sprintf "difference of squares k=%d" k)
        (Z.pred (Z.pow2 (2 * k)))
        (Z.mul a b))
    [ 100; 900; 959; 960; 961; 1500; 2048; 5000 ];
  (* And against decimal arithmetic: (10^d - 1)^2 = 10^2d - 2*10^d + 1. *)
  List.iter
    (fun d ->
      let nines = zs (String.make d '9') in
      let expected =
        Z.add (Z.sub (zs ("1" ^ String.make (2 * d) '0')) (zs ("2" ^ String.make d '0'))) Z.one
      in
      check_z (Printf.sprintf "nines squared d=%d" d) expected (Z.mul nines nines))
    [ 280; 300; 600 ]

(* Property tests against OCaml int as the reference model. *)

let arb_small = QCheck.int_range (-1_000_000_000) 1_000_000_000

let binop name f g =
  QCheck.Test.make ~name ~count:500 (QCheck.pair arb_small arb_small) (fun (x, y) ->
      Z.equal (f (Z.of_int x) (Z.of_int y)) (Z.of_int (g x y)))

let prop_add = binop "add matches int" Z.add ( + )
let prop_sub = binop "sub matches int" Z.sub ( - )
let prop_mul = binop "mul matches int" Z.mul ( * )

let prop_compare =
  QCheck.Test.make ~name:"compare matches int" ~count:500 (QCheck.pair arb_small arb_small)
    (fun (x, y) -> Z.compare (Z.of_int x) (Z.of_int y) = compare x y)

let prop_divmod =
  QCheck.Test.make ~name:"divmod matches int" ~count:500 (QCheck.pair arb_small arb_small)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let q, r = Z.divmod (Z.of_int x) (Z.of_int y) in
      Z.equal q (Z.of_int (x / y)) && Z.equal r (Z.of_int (x mod y)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 QCheck.int (fun x ->
      Z.equal (zs (string_of_int x)) (Z.of_int x)
      && String.equal (Z.to_string (Z.of_int x)) (string_of_int x))

let prop_bitstring_roundtrip =
  QCheck.Test.make ~name:"bitstring roundtrip" ~count:300 QCheck.(int_bound max_int)
    (fun x -> Z.equal (Z.of_bitstring (Z.to_bitstring (Z.of_int x))) (Z.of_int x))

let prop_mul_distributivity_large =
  (* Random products of operands over 1000 bits checked via the (a+c)(b+d)
     expansion. *)
  QCheck.Test.make ~name:"mul distributivity (large)" ~count:30
    (QCheck.pair arb_small arb_small) (fun (x, y) ->
      let a = Z.add (Z.mul (Z.of_int (abs x + 1)) (Z.pow2 1100)) (Z.of_int (abs y)) in
      let b = Z.add (Z.mul (Z.of_int (abs y + 1)) (Z.pow2 1050)) (Z.of_int (abs x)) in
      let c = Z.of_int 12345 and d = Z.of_int 67890 in
      let lhs = Z.mul (Z.add a c) (Z.add b d) in
      let rhs =
        Z.add (Z.add (Z.mul a b) (Z.mul a d)) (Z.add (Z.mul c b) (Z.mul c d))
      in
      Z.equal lhs rhs)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:200 (QCheck.pair arb_small arb_small)
    (fun (x, y) ->
      QCheck.assume (x <> 0 || y <> 0);
      let g = Z.gcd (Z.of_int x) (Z.of_int y) in
      Z.sign g > 0
      && Z.is_zero (Z.rem (Z.of_int x) g)
      && Z.is_zero (Z.rem (Z.of_int y) g))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 QCheck.int (fun x ->
      Z.equal (Z.of_hex (Z.to_hex (Z.of_int x))) (Z.of_int x))

let prop_mul_big_identity =
  (* (a+b)^2 = a^2 + 2ab + b^2 over multi-limb values. *)
  QCheck.Test.make ~name:"multi-limb distributivity" ~count:100
    (QCheck.pair arb_small arb_small) (fun (x, y) ->
      let a = Z.mul (Z.of_int x) (Z.pow2 120) and b = Z.of_int y in
      let lhs = Z.mul (Z.add a b) (Z.add a b) in
      let rhs = Z.add (Z.add (Z.mul a a) (Z.shift_left (Z.mul a b) 1)) (Z.mul b b) in
      Z.equal lhs rhs)

let prop_shift_is_pow2_mul =
  QCheck.Test.make ~name:"shift_left = mul pow2" ~count:200
    QCheck.(pair arb_small (int_bound 80))
    (fun (x, k) -> Z.equal (Z.shift_left (Z.of_int x) k) (Z.mul (Z.of_int x) (Z.pow2 k)))

(* Differential tests against the bit-serial reference specs ---------------

   [Spec] holds the original implementations of the word-level codecs, each
   one bit (or one 30-bit chunk, or one nibble) at a time over the public
   arithmetic. They are quadratic, so the sizes below stay moderate. *)

module Spec = struct
  (* Bit [i] of |a|, 0-indexed from the least significant end. *)
  let get_bit a i =
    let y = Z.shift_right (Z.abs a) i in
    not (Z.equal y (Z.shift_left (Z.shift_right y 1) 1))

  let mag_bits a = if Z.is_zero a then 0 else Z.bit_length a

  let to_bitstring_fixed ~bits a =
    if mag_bits a > bits then invalid_arg "Bigint.to_bitstring_fixed";
    Bitstring.init bits (fun i -> get_bit a (bits - i))

  let to_bitstring a = to_bitstring_fixed ~bits:(Z.bit_length a) a

  let of_bitstring b =
    let len = Bitstring.length b in
    let acc = ref Z.zero and i = ref 1 in
    while !i <= len do
      let stop = min len (!i + 29) in
      let part = ref 0 in
      for j = !i to stop do
        part := (!part lsl 1) lor if Bitstring.get b j then 1 else 0
      done;
      acc := Z.add (Z.shift_left !acc (stop - !i + 1)) (Z.of_int !part);
      i := stop + 1
    done;
    !acc

  let to_hex a =
    if Z.is_zero a then "0"
    else
      let nibbles = (mag_bits a + 3) / 4 in
      let digit i =
        (if get_bit a ((4 * i) + 3) then 8 else 0)
        lor (if get_bit a ((4 * i) + 2) then 4 else 0)
        lor (if get_bit a ((4 * i) + 1) then 2 else 0)
        lor if get_bit a (4 * i) then 1 else 0
      in
      (if Z.sign a < 0 then "-" else "")
      ^ String.init nibbles (fun k -> "0123456789abcdef".[digit (nibbles - 1 - k)])

  let of_hex s =
    let negv = s.[0] = '-' in
    let acc = ref Z.zero in
    String.iteri
      (fun i c ->
        if not (i = 0 && (c = '-' || c = '+')) then
          acc := Z.add (Z.shift_left !acc 4) (Z.of_int (int_of_string ("0x" ^ String.make 1 c))))
      s;
    if negv then Z.neg !acc else !acc

end

(* A bitstring of [len] bits: [zeros] leading zeros, then random bits. *)
let gen_bitstring ~max_len =
  QCheck.Gen.(
    int_range 0 (max_len / 8) >>= fun bytes ->
    int_range 0 7 >>= fun r ->
    let len = (8 * bytes) + r in
    int_range 0 (min len 70) >>= fun zeros ->
    bool >>= fun all_zero ->
    list_repeat len bool >>= fun bits ->
    return
      (Bitstring.of_bool_list
         (List.mapi (fun i b -> (not all_zero) && i >= zeros && b) bits)))

let arb_bitstring ~max_len =
  QCheck.make ~print:(fun b -> Printf.sprintf "%d bits" (Bitstring.length b)) (gen_bitstring ~max_len)

(* A signed value of up to [max_bits] bits. *)
let arb_big ~max_bits =
  QCheck.make ~print:Z.to_string
    QCheck.Gen.(
      pair (gen_bitstring ~max_len:max_bits) bool >>= fun (b, negative) ->
      return (Z.of_sign_magnitude ~negative (Spec.of_bitstring b)))

let prop_spec_of_bitstring =
  QCheck.Test.make ~name:"of_bitstring = bit-serial spec (to 4 Kbit)" ~count:120
    (arb_bitstring ~max_len:4200) (fun b -> Z.equal (Z.of_bitstring b) (Spec.of_bitstring b))

let prop_spec_to_bitstring =
  QCheck.Test.make ~name:"to_bitstring(_fixed) = bit-serial spec" ~count:120
    QCheck.(pair (arb_big ~max_bits:2100) (int_bound 20)) (fun (v, extra) ->
      let bits = Spec.mag_bits v + extra in
      Bitstring.equal (Z.to_bitstring v) (Spec.to_bitstring v)
      && Bitstring.equal (Z.to_bitstring_fixed ~bits v) (Spec.to_bitstring_fixed ~bits v)
      && Z.equal (Z.of_bitstring (Z.to_bitstring_fixed ~bits v)) (Z.abs v))

let prop_spec_hex =
  QCheck.Test.make ~name:"to_hex/of_hex = nibble-serial spec" ~count:120 (arb_big ~max_bits:1100)
    (fun v ->
      let h = Z.to_hex v in
      String.equal h (Spec.to_hex v) && Z.equal (Z.of_hex h) (Spec.of_hex h)
      && Z.equal (Z.of_hex (String.uppercase_ascii h)) v)

(* Every length mod 8 at and around 4096 bits, and the all-zero and
   leading-zero shapes, through all three codecs. *)
let test_codec_lengths () =
  for len = 4088 to 4104 do
    let ones = Bitstring.ones len and zeros = Bitstring.zero len in
    let mixed = Bitstring.init len (fun i -> i > 9 && (i * i) mod 7 < 3) in
    List.iter
      (fun (what, b) ->
        let label = Printf.sprintf "%s len=%d" what len in
        let v = Z.of_bitstring b in
        check_z label (Spec.of_bitstring b) v;
        Alcotest.check bits_t (label ^ " fixed") b (Z.to_bitstring_fixed ~bits:len v);
        Alcotest.check bits_t (label ^ " minimal") (Spec.to_bitstring v) (Z.to_bitstring v))
      [ ("ones", ones); ("zeros", zeros); ("mixed", mixed) ]
  done;
  check_z "empty" Z.zero (Z.of_bitstring Bitstring.empty);
  Alcotest.check bits_t "fixed 0 bits" Bitstring.empty (Z.to_bitstring_fixed ~bits:0 Z.zero);
  Alcotest.check_raises "does not fit" (Invalid_argument "Bigint.to_bitstring_fixed") (fun () ->
      ignore (Z.to_bitstring_fixed ~bits:100 (Z.pow2 100)))

(* Truncated division identity: a = q·b + r, |r| < |b|, r has a's sign. *)
let divmod_ok a b =
  let q, r = Z.divmod a b in
  Z.equal a (Z.add (Z.mul q b) r)
  && Z.compare (Z.abs r) (Z.abs b) < 0
  && (Z.sign r = 0 || Z.sign r = Z.sign a)

let prop_divmod_multi_limb =
  QCheck.Test.make ~name:"divmod identity on multi-limb operands" ~count:300
    QCheck.(pair (arb_big ~max_bits:700) (arb_big ~max_bits:400)) (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      divmod_ok a b && divmod_ok b (if Z.is_zero a then Z.one else a))

let test_divmod_edges () =
  let check label a b = Alcotest.(check bool) label true (divmod_ok a b) in
  (* Divisors whose top limb is 1 (maximal normalization shift) or all ones
     (none), quotient limbs that need the add-back correction, b > a. *)
  List.iter
    (fun k ->
      let a = Z.sub (Z.pow2 (k + 200)) (Z.of_int 12345) in
      check (Printf.sprintf "top limb 1, k=%d" k) a (Z.pow2 k);
      check (Printf.sprintf "top limb 1 + 1, k=%d" k) a (Z.succ (Z.pow2 k));
      check (Printf.sprintf "all ones, k=%d" k) a (Z.pred (Z.pow2 k));
      check (Printf.sprintf "b > a, k=%d" k) (Z.pow2 k) (Z.pow2 (k + 1));
      check (Printf.sprintf "a = b, k=%d" k) (Z.pred (Z.pow2 k)) (Z.pred (Z.pow2 k)))
    [ 30; 31; 59; 60; 61; 90; 300 ];
  (* (B^n - 1) / (B^(n/2) + ... ) style operands that push qhat to base. *)
  let b = Z.add (Z.shift_left (Z.pred (Z.pow2 30)) 60) (Z.pred (Z.pow2 60)) in
  check "qhat at base" (Z.pred (Z.pow2 300)) b;
  check "qhat at base, shifted divisor" (Z.pred (Z.pow2 300)) (Z.shift_right b 1);
  (* Operands whose first quotient estimate overshoots after the refinement,
     so the multiply-subtract goes negative and the divisor is added back. *)
  List.iter
    (fun (a, b) -> check ("add-back " ^ b) (Z.of_hex a) (Z.of_hex b))
    [
      ("3ffffffffffffffc1ae015880000002dc422c5", "fffffffffffffffae1e43060000000");
      ("3fffffff00000000000000000000003fffffff800000020000000", "fffffffc0000000fffffffe0c1476c");
      ("fffffffe00000003b4bcad444b0051", "2000000080000003fffffff");
      ("20000000ffffffff0f160fd80000003fffffff", "3ffffffffffffffffffffff");
    ];
  let q, r = Z.divmod (Z.pow2 64) (Z.pow2 128) in
  check_z "b > a quotient" Z.zero q;
  check_z "b > a remainder" (Z.pow2 64) r;
  let q, r = Z.divmod (Z.mul (Z.pred (Z.pow2 500)) (Z.succ (Z.pow2 90))) (Z.succ (Z.pow2 90)) in
  check_z "exact quotient" (Z.pred (Z.pow2 500)) q;
  check_z "exact remainder" Z.zero r

let test_large_io () =
  let v = Z.sub (Z.pow2 32768) (Z.of_string "123456789123456789123456789") in
  let h = Z.to_hex v in
  Alcotest.(check int) "hex digits" 8192 (String.length h);
  check_z "hex roundtrip 2^15 bits" v (Z.of_hex h);
  check_z "negative hex roundtrip 2^15 bits" (Z.neg v) (Z.of_hex (Z.to_hex (Z.neg v)));
  let d = Z.to_string v in
  Alcotest.(check int) "decimal digits" 9865 (String.length d);
  check_z "decimal roundtrip 2^15 bits" v (Z.of_string d);
  check_z "negative decimal roundtrip 2^15 bits" (Z.neg v) (Z.of_string (Z.to_string (Z.neg v)))

(* Differential tests against the pre-rewrite kernels ----------------------

   [Kernel_spec.Bigint_old] is the code the word-level kernels replaced;
   values are compared through [to_hex], whose nibble codec both share in
   substance and [prop_spec_hex] checks on its own. *)

module Old = Kernel_spec.Bigint_old
module Prng = Net.Prng

(* Widths at and around the limb boundaries (29/30/31, 59/60/61, ...), a
   byte-unaligned middle size and the 2^15 top. *)
let kernel_widths =
  [ 1; 2; 7; 8; 9; 29; 30; 31; 59; 60; 61; 89; 90; 91; 119; 120; 121; 1001; 4096;
    32767; 32768 ]

(* A [w]-bit string with its top bit set: random, all ones (a carry chain
   through every limb), a power of two, or all ones but one bit. *)
let shaped rng w shape =
  let hole = 1 + Prng.int rng w in
  Bitstring.init w (fun i ->
      i = 1
      ||
      match shape with
      | 0 -> Prng.bool rng
      | 1 -> true
      | 2 -> false
      | _ -> i <> hole)

(* Operand pairs: independent, sharing a prefix of the same width (so the
   compare walks past the top limbs), equal, and a carry chain against 1. *)
let kernel_pairs rng =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun shape ->
          let a = shaped rng w shape in
          let cut = Prng.int rng (w + 1) in
          let tail = shaped rng (max 1 (w - cut)) 0 in
          let shared =
            if cut >= w then a
            else Bitstring.append (Bitstring.prefix a cut) (Bitstring.sub tail ~pos:1 ~len:(w - cut))
          in
          let other = shaped rng (List.nth kernel_widths (Prng.int rng (List.length kernel_widths))) 0 in
          [ (a, other); (a, shared); (a, a); (a, Bitstring.of_int 1) ])
        [ 0; 1; 2; 3 ])
    kernel_widths

let both b = (Z.of_bitstring b, Old.of_bitstring b)
let negate (z, o) = (Z.neg z, Old.neg o)

let test_limb_kernels_vs_old () =
  let rng = Prng.create 2024 in
  (* The round trip through [of_hex], which normalizes, catches a result
     with a zero top limb: [equal] compares limb counts first. *)
  let same what z o =
    Alcotest.(check string) what (Old.to_hex o) (Z.to_hex z);
    check_z (what ^ " normalized") (Z.of_hex (Z.to_hex z)) z
  in
  List.iter
    (fun (x, y) ->
      List.iter
        (fun (nx, ny) ->
          let za, oa = if nx then negate (both x) else both x
          and zb, ob = if ny then negate (both y) else both y in
          same "add" (Z.add za zb) (Old.add oa ob);
          same "sub" (Z.sub za zb) (Old.sub oa ob);
          same "sub reversed" (Z.sub zb za) (Old.sub ob oa);
          Alcotest.(check int) "compare" (Old.compare oa ob) (Z.compare za zb);
          Alcotest.(check int) "compare reversed" (Old.compare ob oa) (Z.compare zb za);
          List.iter
            (fun k -> same "shift_left" (Z.shift_left za k) (Old.shift_left oa k))
            [ 0; 1; 7; 29; 30; 31; 59; 60; 61; Prng.int rng 200 ])
        [ (false, false); (false, true); (true, false); (true, true) ])
    (kernel_pairs rng)

(* [compare] sits in every session's Definition 1 check: it must not
   allocate, not even a closure for its limb loop. *)
let test_compare_allocation () =
  let rng = Prng.create 2027 in
  let a = shaped rng 32768 0 in
  let b = Bitstring.append (Bitstring.prefix a 16384) (shaped rng 16384 0) in
  let za = Z.of_bitstring a and zb = Z.neg (Z.of_bitstring b) and zc = Z.of_bitstring b in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    acc := !acc + Z.compare za zc + Z.compare zb za + Z.compare zc zc
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.)) "minor words for 300 compares" 0. words

let test_of_int_vs_old () =
  let rng = Prng.create 2025 in
  let edges =
    List.concat_map
      (fun v -> [ v; -v; v - 1; 1 - v; v + 1; -v - 1 ])
      [ 1; 1 lsl 29; 1 lsl 30; 1 lsl 31; 1 lsl 59; 1 lsl 60; 1 lsl 61; max_int ]
  in
  let randoms =
    List.init 1000 (fun _ ->
        let v = Prng.int rng max_int lsr Prng.int rng 62 in
        if Prng.bool rng then v else -v)
  in
  List.iter
    (fun v ->
      Alcotest.(check string) (string_of_int v) (Old.to_hex (Old.of_int v)) (Z.to_hex (Z.of_int v)))
    ((0 :: min_int :: (min_int + 1) :: edges) @ randoms)

let test_byte_codecs_vs_old () =
  let rng = Prng.create 2026 in
  List.iter
    (fun w ->
      List.iter
        (fun shape ->
          let b = shaped rng w shape in
          (* Leading zeros of every length mod 8 reach [of_bitstring]'s
             skip of zero bytes and its top-limb sizing. *)
          List.iter
            (fun pad ->
              let padded = Bitstring.append (Bitstring.zero pad) b in
              Alcotest.(check string) "of_bitstring" (Old.to_hex (Old.of_bitstring padded))
                (Z.to_hex (Z.of_bitstring padded)))
            [ 0; 1; 7; 8; 9; 29; 64; Prng.int rng 100 ];
          let z, o = both b in
          List.iter
            (fun extra ->
              let bits = w + extra in
              Alcotest.check bits_t "to_bitstring_fixed"
                (Old.to_bitstring_fixed ~bits o) (Z.to_bitstring_fixed ~bits z))
            [ 0; 1; 2; 7; 8; 9; 30; 64; Prng.int rng 100 ];
          if w > 1 then
            Alcotest.check_raises "to_bitstring_fixed too narrow"
              (Invalid_argument "Bigint.to_bitstring_fixed") (fun () ->
                ignore (Z.to_bitstring_fixed ~bits:(w - 1) z)))
        [ 0; 1; 2; 3 ])
    kernel_widths;
  List.iter
    (fun len ->
      let b = Bitstring.zero len in
      Alcotest.(check string) "of_bitstring zeros" (Old.to_hex (Old.of_bitstring b))
        (Z.to_hex (Z.of_bitstring b));
      Alcotest.check bits_t "to_bitstring_fixed zero"
        (Old.to_bitstring_fixed ~bits:len Old.zero) (Z.to_bitstring_fixed ~bits:len Z.zero))
    [ 0; 1; 7; 8; 9; 64; 100 ]

let suite =
  [
    Alcotest.test_case "decimal io" `Quick test_of_to_string;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "shift/pow2" `Quick test_shift_pow2;
    Alcotest.test_case "bit views" `Quick test_bits;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "hex io" `Quick test_hex;
    Alcotest.test_case "multi-limb products" `Quick test_multi_limb_products;
    QCheck_alcotest.to_alcotest prop_mul_distributivity_large;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_add;
    QCheck_alcotest.to_alcotest prop_sub;
    QCheck_alcotest.to_alcotest prop_mul;
    QCheck_alcotest.to_alcotest prop_compare;
    QCheck_alcotest.to_alcotest prop_divmod;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitstring_roundtrip;
    QCheck_alcotest.to_alcotest prop_mul_big_identity;
    QCheck_alcotest.to_alcotest prop_shift_is_pow2_mul;
    Alcotest.test_case "codecs at every length mod 8" `Quick test_codec_lengths;
    Alcotest.test_case "divmod edge operands" `Quick test_divmod_edges;
    Alcotest.test_case "hex/decimal io at 2^15 bits" `Quick test_large_io;
    QCheck_alcotest.to_alcotest prop_spec_of_bitstring;
    QCheck_alcotest.to_alcotest prop_spec_to_bitstring;
    QCheck_alcotest.to_alcotest prop_spec_hex;
    QCheck_alcotest.to_alcotest prop_divmod_multi_limb;
    Alcotest.test_case "add/sub/compare/shift_left = pre-rewrite code" `Quick
      test_limb_kernels_vs_old;
    Alcotest.test_case "of_int = pre-rewrite code" `Quick test_of_int_vs_old;
    Alcotest.test_case "compare allocates nothing" `Quick test_compare_allocation;
    Alcotest.test_case "byte codecs = pre-rewrite code" `Quick test_byte_codecs_vs_old;
  ]
