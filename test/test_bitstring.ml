(* Unit and property tests for the Bitstring substrate (Section 2 notation). *)

module B = Bitstring

let bits = Alcotest.testable B.pp B.equal

let check_bits = Alcotest.check bits
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let test_construction () =
  check_int "empty length" 0 (B.length B.empty);
  check_bits "zero" (B.of_string "0000") (B.zero 4);
  check_bits "ones" (B.of_string "111") (B.ones 3);
  check_bits "of_bool_list" (B.of_string "101") (B.of_bool_list [ true; false; true ]);
  check_bits "init" (B.of_string "10101") (B.init 5 (fun i -> i mod 2 = 1));
  Alcotest.check_raises "of_string rejects junk" (Invalid_argument "Bitstring.of_string")
    (fun () -> ignore (B.of_string "01x"))

let test_get () =
  let b = B.of_string "0110" in
  check_bool "bit 1" false (B.get b 1);
  check_bool "bit 2" true (B.get b 2);
  check_bool "bit 3" true (B.get b 3);
  check_bool "bit 4" false (B.get b 4);
  Alcotest.check_raises "get 0" (Invalid_argument "Bitstring.get") (fun () ->
      ignore (B.get b 0));
  Alcotest.check_raises "get past end" (Invalid_argument "Bitstring.get") (fun () ->
      ignore (B.get b 5))

let test_append () =
  check_bits "append" (B.of_string "0110111") (B.append (B.of_string "011") (B.of_string "0111"));
  check_bits "append empty l" (B.of_string "01") (B.append B.empty (B.of_string "01"));
  check_bits "append empty r" (B.of_string "01") (B.append (B.of_string "01") B.empty);
  check_bits "append_bit" (B.of_string "011") (B.append_bit (B.of_string "01") true);
  (* Byte-aligned fast path: left operand of exactly 8 and 16 bits. *)
  let a8 = B.of_string "10110010" in
  check_bits "aligned append" (B.of_string "101100101") (B.append a8 (B.of_string "1"));
  check_bits "concat" (B.of_string "101100") (B.concat [ B.of_string "10"; B.of_string "110"; B.of_string "0" ])

let test_sub_range () =
  let b = B.of_string "110100111010" in
  check_bits "sub middle" (B.of_string "0100") (B.sub b ~pos:3 ~len:4);
  check_bits "sub aligned" (B.of_string "1010") (B.sub b ~pos:9 ~len:4);
  check_bits "sub full" b (B.sub b ~pos:1 ~len:12);
  check_bits "range" (B.of_string "010") (B.range b ~left:3 ~right:5);
  check_bits "range inverted" B.empty (B.range b ~left:5 ~right:4);
  check_bits "prefix" (B.of_string "1101") (B.prefix b 4);
  Alcotest.check_raises "sub out of range" (Invalid_argument "Bitstring.sub") (fun () ->
      ignore (B.sub b ~pos:10 ~len:4))

let test_prefix_predicates () =
  let b = B.of_string "10110" in
  check_bool "is_prefix yes" true (B.is_prefix ~prefix:(B.of_string "101") b);
  check_bool "is_prefix self" true (B.is_prefix ~prefix:b b);
  check_bool "is_prefix empty" true (B.is_prefix ~prefix:B.empty b);
  check_bool "is_prefix no" false (B.is_prefix ~prefix:(B.of_string "100") b);
  check_bool "is_prefix too long" false (B.is_prefix ~prefix:(B.of_string "101101") b);
  check_bits "lcp" (B.of_string "10") (B.longest_common_prefix b (B.of_string "100"));
  check_bits "lcp disjoint" B.empty (B.longest_common_prefix b (B.of_string "01"));
  check_bits "lcp equal" b (B.longest_common_prefix b b)

let test_numeric () =
  check_bits "of_int 0 is '0'" (B.of_string "0") (B.of_int 0);
  check_bits "of_int 1" (B.of_string "1") (B.of_int 1);
  check_bits "of_int 6" (B.of_string "110") (B.of_int 6);
  check_bits "of_int_fixed" (B.of_string "00000110") (B.of_int_fixed ~bits:8 6);
  check_int "to_int roundtrip" 12345 (B.to_int (B.of_int 12345));
  check_int "to_int padded" 6 (B.to_int (B.of_string "00110"));
  check_int "significant_bits" 3 (B.significant_bits (B.of_string "00110"));
  check_int "significant_bits zero" 1 (B.significant_bits (B.of_string "0000"));
  check_int "significant_bits empty" 0 (B.significant_bits B.empty);
  check_bits "strip" (B.of_string "110") (B.strip_leading_zeros (B.of_string "00110"));
  check_bits "strip all-zero" (B.of_string "0") (B.strip_leading_zeros (B.of_string "000"));
  check_bits "pad_to" (B.of_string "000110") (B.pad_to 6 (B.of_string "110"));
  check_bits "pad_to shrinks padded" (B.of_string "0110") (B.pad_to 4 (B.of_string "0000110"));
  Alcotest.check_raises "pad_to too small" (Invalid_argument "Bitstring.pad_to") (fun () ->
      ignore (B.pad_to 2 (B.of_string "110")))

let test_min_max_fill () =
  check_bits "min_fill" (B.of_string "10100") (B.min_fill 5 (B.of_string "101"));
  check_bits "max_fill" (B.of_string "10111") (B.max_fill 5 (B.of_string "101"));
  check_bits "min_fill exact" (B.of_string "101") (B.min_fill 3 (B.of_string "101"));
  (* Remark 1 of the paper: MAX(p||0) + 1 = MIN(p||1). *)
  let p = B.of_string "0110" in
  let mx = B.to_int (B.max_fill 9 (B.append_bit p false)) in
  let mn = B.to_int (B.min_fill 9 (B.append_bit p true)) in
  check_int "Remark 1 adjacency" (mx + 1) mn

let test_compare () =
  let c = B.compare in
  Alcotest.check Alcotest.bool "lex less" true (c (B.of_string "0011") (B.of_string "0100") < 0);
  Alcotest.check Alcotest.bool "shorter prefix less" true (c (B.of_string "01") (B.of_string "011") < 0);
  check_int "equal" 0 (c (B.of_string "0110") (B.of_string "0110"));
  (* compare_val ignores leading zeros. *)
  check_int "val equal across pad" 0 (B.compare_val (B.of_string "00110") (B.of_string "110"));
  Alcotest.check Alcotest.bool "val order" true (B.compare_val (B.of_string "0111") (B.of_string "1000") < 0);
  Alcotest.check Alcotest.bool "val zero lowest" true (B.compare_val (B.of_string "0000") (B.of_string "1") < 0);
  check_int "val zero equal" 0 (B.compare_val (B.of_string "0") (B.of_string "0000"))

let test_blocks () =
  let b = B.of_string "110100111010" in
  let bs = B.blocks ~block_bits:4 b in
  Alcotest.check Alcotest.int "block count" 3 (List.length bs);
  check_bits "block 1" (B.of_string "1101") (List.nth bs 0);
  check_bits "block 3" (B.of_string "1010") (List.nth bs 2);
  check_bits "concat inverts blocks" b (B.concat bs);
  Alcotest.check_raises "non-multiple" (Invalid_argument "Bitstring.blocks: length not a multiple")
    (fun () -> ignore (B.blocks ~block_bits:5 b))

let test_bytes_roundtrip () =
  let b = B.of_string "1101001110" in
  (match B.of_bytes ~len:(B.length b) (B.to_bytes b) with
  | Some b' -> check_bits "roundtrip" b b'
  | None -> Alcotest.fail "roundtrip failed");
  (* Defensive: nonzero padding must be rejected. *)
  Alcotest.check Alcotest.bool "bad padding rejected" true
    (B.of_bytes ~len:4 "\xff" = None);
  Alcotest.check Alcotest.bool "short buffer rejected" true (B.of_bytes ~len:20 "\xff" = None);
  Alcotest.check Alcotest.bool "long buffer rejected" true (B.of_bytes ~len:4 "\xf0\x00" = None);
  Alcotest.check Alcotest.bool "empty ok" true (B.of_bytes ~len:0 "" = Some B.empty)

(* Property tests ----------------------------------------------------------- *)

let gen_bits =
  QCheck.Gen.(
    sized_size (0 -- 200) (fun n ->
        map B.of_bool_list (list_size (return n) bool)))

let arb_bits = QCheck.make ~print:B.to_string gen_bits

let prop_roundtrip_bytes =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 arb_bits (fun b ->
      B.of_bytes ~len:(B.length b) (B.to_bytes b) = Some b)

let prop_append_length =
  QCheck.Test.make ~name:"append length and content" ~count:200
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      let ab = B.append a b in
      B.length ab = B.length a + B.length b
      && B.is_prefix ~prefix:a ab
      && B.equal b (B.range ab ~left:(B.length a + 1) ~right:(B.length ab)))

let prop_val_order_matches_int =
  QCheck.Test.make ~name:"compare_val matches int order" ~count:500
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (x, y) ->
      let c = B.compare_val (B.of_int x) (B.of_int y) in
      (c < 0 && x < y) || (c = 0 && x = y) || (c > 0 && x > y))

let prop_fixed_compare_matches_int =
  QCheck.Test.make ~name:"fixed-width compare matches int order" ~count:500
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (x, y) ->
      let bx = B.of_int_fixed ~bits:20 x and by = B.of_int_fixed ~bits:20 y in
      let c = B.compare bx by in
      (c < 0 && x < y) || (c = 0 && x = y) || (c > 0 && x > y))

let prop_min_max_fill_bounds =
  QCheck.Test.make ~name:"min/max fill bound all completions" ~count:200
    QCheck.(pair (int_bound 4000) (int_bound 10))
    (fun (v, extra) ->
      let p = B.of_int v in
      let len = B.length p + extra in
      let mn = B.min_fill len p and mx = B.max_fill len p in
      B.compare mn mx <= 0
      && B.is_prefix ~prefix:p mn
      && B.is_prefix ~prefix:p mx
      && B.to_int mx - B.to_int mn = (1 lsl extra) - 1)

let prop_strip_preserves_val =
  QCheck.Test.make ~name:"strip_leading_zeros preserves VAL" ~count:200 arb_bits
    (fun b ->
      QCheck.assume (not (B.is_empty b));
      B.compare_val b (B.strip_leading_zeros b) = 0)

let prop_blocks_roundtrip =
  QCheck.Test.make ~name:"blocks/concat roundtrip" ~count:200
    QCheck.(pair (1 -- 12) (1 -- 16))
    (fun (block_bits, count) ->
      let b = B.init (block_bits * count) (fun i -> i * 7 mod 3 = 0) in
      B.equal b (B.concat (B.blocks ~block_bits b))
      && List.length (B.blocks ~block_bits b) = count)

(* Differential tests against the bit-serial reference specs ---------------

   [Spec] is the original one-bit-at-a-time implementation of each byte-wise
   kernel, written against the public [get]/[init] interface. Every kernel
   must agree with it on every bit alignment of every operand. *)

module Spec = struct
  let get = B.get
  let length = B.length

  let append a b =
    let la = length a in
    B.init (la + length b) (fun i -> if i <= la then get a i else get b (i - la))

  let sub b ~pos ~len = B.init len (fun i -> get b (pos + i - 1))

  let compare a b =
    let n = min (length a) (length b) in
    let rec go i =
      if i > n then Stdlib.compare (length a) (length b)
      else
        match (get a i, get b i) with
        | false, true -> -1
        | true, false -> 1
        | _ -> go (i + 1)
    in
    go 1

  let is_prefix ~prefix:p b =
    length p <= length b
    &&
    let rec go i = i > length p || (get p i = get b i && go (i + 1)) in
    go 1

  let longest_common_prefix a b =
    let n = min (length a) (length b) in
    let rec go i = if i > n || get a i <> get b i then i - 1 else go (i + 1) in
    sub a ~pos:1 ~len:(go 1)

  let min_fill len p = append p (B.init (len - length p) (fun _ -> false))
  let max_fill len p = append p (B.init (len - length p) (fun _ -> true))

  let significant_bits b =
    let rec first_one i = if i > length b then length b + 1 else if get b i then i else first_one (i + 1) in
    if length b = 0 then 0
    else
      let f = first_one 1 in
      if f > length b then 1 else length b - f + 1
end

(* Two strings with a long common prefix: both cut from one random string,
   the second with one bit flipped, so mismatches land at every depth and
   every in-byte position. *)
let gen_related =
  QCheck.Gen.(
    int_range 0 300 >>= fun n ->
    list_repeat n bool >>= fun base ->
    int_range 0 n >>= fun la ->
    int_range 0 n >>= fun lb ->
    int_range 0 (max 0 (n - 1)) >>= fun flip ->
    bool >>= fun do_flip ->
    let x = B.of_bool_list base in
    let y =
      B.init n (fun i -> if do_flip && i = flip + 1 then not (B.get x i) else B.get x i)
    in
    return (B.prefix x la, B.prefix y lb))

let arb_related =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%s, %s)" (B.to_string a) (B.to_string b))
    gen_related

let prop_spec_append =
  QCheck.Test.make ~name:"append/concat = bit-serial spec" ~count:300
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      B.equal (B.append a b) (Spec.append a b)
      && B.equal (B.concat [ a; b; a ]) (Spec.append (Spec.append a b) a))

let prop_spec_compare =
  QCheck.Test.make ~name:"compare/is_prefix/lcp = bit-serial spec" ~count:500 arb_related
    (fun (a, b) ->
      B.compare a b = Spec.compare a b
      && B.compare b a = Spec.compare b a
      && B.is_prefix ~prefix:a b = Spec.is_prefix ~prefix:a b
      && B.is_prefix ~prefix:b a = Spec.is_prefix ~prefix:b a
      && B.equal (B.longest_common_prefix a b) (Spec.longest_common_prefix a b))

let prop_spec_sub_fill =
  QCheck.Test.make ~name:"sub/min_fill/max_fill = bit-serial spec" ~count:300
    QCheck.(triple arb_bits small_nat small_nat)
    (fun (b, x, y) ->
      let n = B.length b in
      let pos = if n = 0 then 1 else 1 + (x mod n) in
      let len = if n = 0 then 0 else y mod (n - pos + 2) in
      let fill = n + (x mod 70) in
      B.equal (B.sub b ~pos ~len) (Spec.sub b ~pos ~len)
      && B.equal (B.min_fill fill b) (Spec.min_fill fill b)
      && B.equal (B.max_fill fill b) (Spec.max_fill fill b)
      && B.significant_bits b = Spec.significant_bits b)

(* Exhaustive over small lengths: every pair of operand alignments, every
   sub window, every fill width. *)
let test_spec_alignments () =
  let pattern len seed = B.init len (fun i -> ((i * 7) + seed) mod 5 < 2) in
  for la = 0 to 20 do
    for lb = 0 to 20 do
      let a = pattern la 1 and b = pattern lb 2 in
      let label what = Printf.sprintf "%s la=%d lb=%d" what la lb in
      check_bits (label "append") (Spec.append a b) (B.append a b);
      check_int (label "compare") (Spec.compare a b) (B.compare a b);
      check_bool (label "is_prefix") (Spec.is_prefix ~prefix:a b) (B.is_prefix ~prefix:a b);
      check_bits (label "lcp") (Spec.longest_common_prefix a b) (B.longest_common_prefix a b);
      let ab = B.append a b in
      check_bool (label "is_prefix of append") true (B.is_prefix ~prefix:a ab);
      check_bits (label "lcp with append") a (B.longest_common_prefix a ab)
    done;
    let b = pattern la 3 in
    for pos = 1 to la do
      for len = 0 to la - pos + 1 do
        check_bits
          (Printf.sprintf "sub la=%d pos=%d len=%d" la pos len)
          (Spec.sub b ~pos ~len) (B.sub b ~pos ~len)
      done
    done;
    for len = la to la + 17 do
      check_bits (Printf.sprintf "min_fill %d %d" la len) (Spec.min_fill len b) (B.min_fill len b);
      check_bits (Printf.sprintf "max_fill %d %d" la len) (Spec.max_fill len b) (B.max_fill len b)
    done;
    check_bits (Printf.sprintf "ones %d" la) (B.init la (fun _ -> true)) (B.ones la);
    check_int (Printf.sprintf "significant_bits zeros %d" la) (Spec.significant_bits (B.zero la))
      (B.significant_bits (B.zero la))
  done

(* Differential tests against the pre-rewrite byte-per-iteration splicing
   (Kernel_spec.Bitstring_old), and against the [to_string] bit view, at
   every bit offset mod 8 and at lengths around the 56-bit step and 64-bit
   load of the word loops. *)

module Old = Kernel_spec.Bitstring_old

let word_lengths =
  List.sort_uniq compare
    (List.init 18 Fun.id
    @ List.concat_map
        (fun w -> List.init 19 (fun d -> w - 9 + d))
        [ 56; 64; 112; 128; 168; 192 ]
    @ [ 1000; 4099 ])

let random_bits rng len = B.init len (fun _ -> Net.Prng.bool rng)

let check_view what expected b =
  Alcotest.(check string) what expected (B.to_string b)

let test_splicing_vs_old () =
  let rng = Net.Prng.create 31 in
  List.iter
    (fun la ->
      let a = random_bits rng la in
      let sa = B.to_string a in
      List.iter
        (fun lb ->
          let b = random_bits rng lb in
          let label what = Printf.sprintf "%s la=%d lb=%d" what la lb in
          let ab = B.append a b in
          check_bits (label "append = old") (Old.to_new (Old.append (Old.of_new a) (Old.of_new b))) ab;
          check_view (label "append view") (sa ^ B.to_string b) ab;
          check_bits (label "concat = old")
            (Old.to_new (Old.concat [ Old.of_new a; Old.of_new b; Old.of_new a ]))
            (B.concat [ a; b; a ]);
          let len = la + lb in
          check_bits (label "min_fill = old") (Old.to_new (Old.min_fill len (Old.of_new a)))
            (B.min_fill len a);
          check_view (label "min_fill view") (sa ^ String.make lb '0') (B.min_fill len a);
          check_bits (label "max_fill = old") (Old.to_new (Old.max_fill len (Old.of_new a)))
            (B.max_fill len a);
          check_view (label "max_fill view") (sa ^ String.make lb '1') (B.max_fill len a))
        word_lengths)
    word_lengths

let test_sub_vs_old () =
  let rng = Net.Prng.create 32 in
  List.iter
    (fun n ->
      let b = random_bits rng n in
      let sb = B.to_string b and ob = Old.of_new b in
      (* Every offset mod 8, twice over, and one far in. *)
      List.iter
        (fun off ->
          if off < n then
            List.iter
              (fun len ->
                if off + len <= n then begin
                  let pos = off + 1 in
                  let label = Printf.sprintf "sub n=%d pos=%d len=%d" n pos len in
                  let s = B.sub b ~pos ~len in
                  check_bits label (Old.to_new (Old.sub ob ~pos ~len)) s;
                  check_view label (String.sub sb off len) s
                end)
              (n - off :: word_lengths))
        (List.init 16 Fun.id @ [ Net.Prng.int rng (max 1 n) ]))
    word_lengths

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "get" `Quick test_get;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "sub/range" `Quick test_sub_range;
    Alcotest.test_case "prefix predicates" `Quick test_prefix_predicates;
    Alcotest.test_case "numeric" `Quick test_numeric;
    Alcotest.test_case "min/max fill" `Quick test_min_max_fill;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "blocks" `Quick test_blocks;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_bytes;
    QCheck_alcotest.to_alcotest prop_append_length;
    QCheck_alcotest.to_alcotest prop_val_order_matches_int;
    QCheck_alcotest.to_alcotest prop_fixed_compare_matches_int;
    QCheck_alcotest.to_alcotest prop_min_max_fill_bounds;
    QCheck_alcotest.to_alcotest prop_strip_preserves_val;
    QCheck_alcotest.to_alcotest prop_blocks_roundtrip;
    Alcotest.test_case "kernels = spec at every alignment" `Quick test_spec_alignments;
    QCheck_alcotest.to_alcotest prop_spec_append;
    QCheck_alcotest.to_alcotest prop_spec_compare;
    QCheck_alcotest.to_alcotest prop_spec_sub_fill;
    Alcotest.test_case "append/concat/fill = pre-rewrite code" `Quick test_splicing_vs_old;
    Alcotest.test_case "sub = pre-rewrite code" `Quick test_sub_vs_old;
  ]
