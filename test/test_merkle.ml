(* Merkle accumulator: build/witness/verify, tamper resistance, codecs. *)

let values n = Array.init n (fun i -> Printf.sprintf "codeword-%d" i)

let test_roundtrip () =
  List.iter
    (fun n ->
      let vs = values n in
      let t = Merkle.build vs in
      Alcotest.check Alcotest.int "leaf count" n (Merkle.leaf_count t);
      for i = 0 to n - 1 do
        let w = Merkle.witness t i in
        Alcotest.check Alcotest.bool
          (Printf.sprintf "n=%d i=%d verifies" n i)
          true
          (Merkle.verify ~root:(Merkle.root t) ~index:i ~value:vs.(i) w)
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_rejections () =
  let vs = values 7 in
  let t = Merkle.build vs in
  let root = Merkle.root t in
  let w2 = Merkle.witness t 2 in
  Alcotest.check Alcotest.bool "wrong value" false
    (Merkle.verify ~root ~index:2 ~value:"evil" w2);
  Alcotest.check Alcotest.bool "wrong index" false
    (Merkle.verify ~root ~index:3 ~value:vs.(2) w2);
  Alcotest.check Alcotest.bool "negative index" false
    (Merkle.verify ~root ~index:(-1) ~value:vs.(2) w2);
  Alcotest.check Alcotest.bool "wrong root" false
    (Merkle.verify ~root:(Sha256.digest "nope") ~index:2 ~value:vs.(2) w2);
  Alcotest.check Alcotest.bool "witness for other leaf" false
    (Merkle.verify ~root ~index:2 ~value:vs.(2) (Merkle.witness t 3));
  (* Out-of-tree index with a valid-looking path must fail (padding leaves
     are not provable values). *)
  Alcotest.check Alcotest.bool "padding leaf not provable" false
    (Merkle.verify ~root ~index:7 ~value:"" w2);
  Alcotest.check_raises "witness out of range" (Invalid_argument "Merkle.witness")
    (fun () -> ignore (Merkle.witness t 7));
  Alcotest.check_raises "empty build" (Invalid_argument "Merkle.build: empty") (fun () ->
      ignore (Merkle.build [||]))

let test_distinct_roots () =
  let r1 = Merkle.root (Merkle.build (values 4)) in
  let r2 = Merkle.root (Merkle.build (values 5)) in
  let r3 =
    let vs = values 4 in
    vs.(2) <- "tampered";
    Merkle.root (Merkle.build vs)
  in
  Alcotest.check Alcotest.bool "different sizes differ" false (String.equal r1 r2);
  Alcotest.check Alcotest.bool "different content differs" false (String.equal r1 r3)

let test_leaf_vs_node_domains () =
  (* A leaf containing the encoding of two digests must not verify as the
     parent of those digests (domain separation). *)
  let a = Sha256.digest "a" and b = Sha256.digest "b" in
  let forged = a ^ b in
  let t = Merkle.build [| forged; "x" |] in
  let root = Merkle.root t in
  Alcotest.check Alcotest.bool "no leaf/node confusion" false
    (String.equal root (Sha256.digest ("\x01" ^ Sha256.digest ("\x01" ^ a ^ b) ^ Sha256.digest ("\x00x"))))

let test_witness_codec () =
  let vs = values 9 in
  let t = Merkle.build vs in
  let w = Merkle.witness t 5 in
  (match Merkle.decode_witness (Merkle.encode_witness w) with
  | None -> Alcotest.fail "decode failed"
  | Some w' ->
      Alcotest.check Alcotest.bool "roundtrip verifies" true
        (Merkle.verify ~root:(Merkle.root t) ~index:5 ~value:vs.(5) w'));
  Alcotest.check Alcotest.bool "truncated rejected" true
    (Merkle.decode_witness (String.sub (Merkle.encode_witness w) 0 10) = None);
  Alcotest.check Alcotest.bool "empty rejected" true (Merkle.decode_witness "" = None);
  Alcotest.check Alcotest.bool "size accounted" true (Merkle.witness_size_bits w > 0)

(* ---- differential: Bytes-backed fast path vs the seed string-concat ---- *)

(* The seed Merkle build: per-node string concatenation. The fast path must
   produce bit-identical roots and witnesses. *)
let ref_levels values =
  let hash_leaf v = Sha256.digest ("\x00" ^ v) in
  let hash_node l r = Sha256.digest ("\x01" ^ l ^ r) in
  let empty_leaf = Sha256.digest "\x02" in
  let leaves = Array.length values in
  let padded =
    let rec go p = if p >= leaves then p else go (2 * p) in
    go 1
  in
  let level0 =
    Array.init padded (fun i -> if i < leaves then hash_leaf values.(i) else empty_leaf)
  in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else
      let next =
        Array.init (Array.length level / 2) (fun i ->
            hash_node level.(2 * i) level.((2 * i) + 1))
      in
      up (level :: acc) next
  in
  Array.of_list (up [] level0)

let ref_witness levels i =
  let rec go level idx acc =
    if level >= Array.length levels - 1 then List.rev acc
    else go (level + 1) (idx / 2) (levels.(level).(idx lxor 1) :: acc)
  in
  go 0 i []

(* Reference witness on the wire: depth byte + concatenated 32-byte siblings
   (the format decode_witness accepts). *)
let ref_witness_encoding levels i =
  let path = ref_witness levels i in
  String.concat "" (String.make 1 (Char.chr (List.length path)) :: path)

let prop_fast_path_matches_ref =
  QCheck.Test.make ~name:"fast build = string-concat build (root + witnesses)"
    ~count:100
    QCheck.(pair (1 -- 40) (small_list (string_of_size Gen.(0 -- 60))))
    (fun (n, extra) ->
      (* Random leaf count with a mix of arbitrary and fixed contents. *)
      let vs =
        Array.init n (fun i ->
            match List.nth_opt extra (i mod (List.length extra + 1)) with
            | Some s -> s
            | None -> Printf.sprintf "leaf-%d" i)
      in
      let t = Merkle.build vs in
      let levels = ref_levels vs in
      String.equal (Merkle.root t) levels.(Array.length levels - 1).(0)
      && List.for_all
           (fun i ->
             String.equal
               (Merkle.encode_witness (Merkle.witness t i))
               (ref_witness_encoding levels i))
           (List.init n Fun.id))

let test_fast_path_matches_ref_exhaustive () =
  for n = 1 to 20 do
    let vs = Array.init n (fun i -> Printf.sprintf "codeword-%d-%d" n i) in
    let t = Merkle.build vs in
    let levels = ref_levels vs in
    Alcotest.check Alcotest.string
      (Printf.sprintf "n=%d root" n)
      (Sha256.to_hex levels.(Array.length levels - 1).(0))
      (Sha256.to_hex (Merkle.root t));
    for i = 0 to n - 1 do
      Alcotest.check Alcotest.string
        (Printf.sprintf "n=%d i=%d witness bytes" n i)
        (Sha256.to_hex (ref_witness_encoding levels i))
        (Sha256.to_hex (Merkle.encode_witness (Merkle.witness t i)));
      (* And the reference-built witness verifies against the fast root. *)
      match Merkle.decode_witness (ref_witness_encoding levels i) with
      | Some w ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "n=%d i=%d cross-verifies" n i)
            true
            (Merkle.verify ~root:(Merkle.root t) ~index:i ~value:vs.(i) w)
      | None -> Alcotest.fail "reference witness did not decode"
    done
  done

(* The seed verify over a decoded wire witness: split the siblings into a
   list and walk it, halving the index. *)
let ref_verify ~root ~index ~value encoded =
  let path = List.init (Char.code encoded.[0]) (fun i -> String.sub encoded (1 + (32 * i)) 32) in
  let rec go h idx = function
    | [] -> idx = 0 && String.equal h root
    | sib :: rest ->
        let pair = if idx land 1 = 0 then h ^ sib else sib ^ h in
        go (Sha256.digest ("\x01" ^ pair)) (idx / 2) rest
  in
  index >= 0 && go (Sha256.digest ("\x00" ^ value)) index path

(* Honest, tampered, shortened and lengthened witnesses, each checked at an
   honest, a wrong and an out-of-tree index: decoding accepts exactly the
   well-formed lengths, and [verify] agrees with the seed's list walk. *)
let prop_verify_matches_ref =
  QCheck.Test.make ~name:"decode + verify = seed list walk on tampered witnesses"
    ~count:200
    QCheck.(quad (1 -- 20) small_nat (0 -- 3) (pair small_nat (int_range (-2) 80)))
    (fun (n, i, how, (p, j)) ->
      let i = i mod n in
      let vs = values n in
      let t = Merkle.build vs in
      let root = Merkle.root t in
      let w = Merkle.encode_witness (Merkle.witness t i) in
      let depth = Char.code w.[0] in
      let raw =
        match how with
        | 0 -> w
        | 1 ->
            let b = Bytes.of_string w in
            let p = 1 + (p mod max 1 (String.length w - 1)) in
            if p < String.length w then
              Bytes.set b p (Char.chr (Char.code w.[p] lxor 0x40));
            Bytes.to_string b
        | 2 when depth > 0 ->
            String.make 1 (Char.chr (depth - 1)) ^ String.sub w 1 (32 * (depth - 1))
        | _ -> String.make 1 (Char.chr (depth + 1)) ^ String.sub w 1 (32 * depth) ^ root
      in
      let well_formed = String.length raw = 1 + (32 * Char.code raw.[0]) in
      match Merkle.decode_witness raw with
      | None -> not well_formed
      | Some dw ->
          well_formed
          && String.equal (Merkle.encode_witness dw) raw
          && Merkle.witness_size_bits dw = 8 * String.length raw
          && List.for_all
               (fun (index, value) ->
                 Merkle.verify ~root ~index ~value dw = ref_verify ~root ~index ~value raw)
               [ (i, vs.(i)); (j, vs.(i)); (j, vs.(abs j mod n)); (max_int, vs.(i)) ])

let prop_witness_sound =
  (* A witness never validates a different (index, value) pair. *)
  QCheck.Test.make ~name:"witness soundness" ~count:200
    QCheck.(triple (2 -- 20) small_nat small_nat)
    (fun (n, i, j) ->
      let i = i mod n and j = j mod n in
      let vs = values n in
      let t = Merkle.build vs in
      let w = Merkle.witness t i in
      let ok_self = Merkle.verify ~root:(Merkle.root t) ~index:i ~value:vs.(i) w in
      let cross = Merkle.verify ~root:(Merkle.root t) ~index:j ~value:vs.(j) w in
      ok_self && (i = j || not cross))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "rejections" `Quick test_rejections;
    Alcotest.test_case "distinct roots" `Quick test_distinct_roots;
    Alcotest.test_case "domain separation" `Quick test_leaf_vs_node_domains;
    Alcotest.test_case "witness codec" `Quick test_witness_codec;
    Alcotest.test_case "fast path = reference (n <= 20, exhaustive)" `Quick
      test_fast_path_matches_ref_exhaustive;
    QCheck_alcotest.to_alcotest prop_fast_path_matches_ref;
    QCheck_alcotest.to_alcotest prop_witness_sound;
    QCheck_alcotest.to_alcotest prop_verify_matches_ref;
  ]
