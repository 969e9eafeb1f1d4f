(* SHA-256 against the FIPS 180-4 / NIST CAVP test vectors. *)

let check_hex msg expected input =
  Alcotest.check Alcotest.string msg expected (Sha256.hex input)

let test_nist_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check_hex "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"

let test_million_a () =
  check_hex "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a')

let test_streaming () =
  let whole = Sha256.hex "hello cruel world" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "hello ";
  Sha256.feed ctx "";
  Sha256.feed ctx "cruel";
  Sha256.feed ctx " world";
  Alcotest.check Alcotest.string "chunked = whole" whole (Sha256.to_hex (Sha256.finalize ctx));
  Alcotest.check_raises "no reuse" (Invalid_argument "Sha256.feed: finalized context")
    (fun () -> Sha256.feed ctx "x")

let test_lengths_near_padding_boundary () =
  (* Reference digests for 54..65 byte inputs cross the 55/56 and 64-byte
     boundaries; check streaming equals one-shot for each. *)
  for len = 50 to 70 do
    let s = String.init len (fun i -> Char.chr (i land 0xff)) in
    let ctx = Sha256.init () in
    String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) s;
    Alcotest.check Alcotest.string
      (Printf.sprintf "len %d" len)
      (Sha256.hex s)
      (Sha256.to_hex (Sha256.finalize ctx))
  done

(* ---- allocation-free hot path: reset / feed_byte / feed_bytes /
   finalize_into must agree with the one-shot digest ---- *)

let test_feed_paths_equivalent () =
  let ctx = Sha256.init () in
  let out = Bytes.make 40 '\xff' in
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      (* feed_byte, one byte at a time. *)
      Sha256.reset ctx;
      String.iter (fun c -> Sha256.feed_byte ctx (Char.code c)) s;
      Sha256.finalize_into ctx out ~pos:4;
      Alcotest.check Alcotest.string
        (Printf.sprintf "feed_byte len %d" len)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.sub_string out 4 32));
      (* feed_bytes on a sub-range of a larger buffer. *)
      Sha256.reset ctx;
      let buf = Bytes.of_string ("##" ^ s ^ "##") in
      Sha256.feed_bytes ctx buf ~pos:2 ~len;
      Sha256.finalize_into ctx out ~pos:0;
      Alcotest.check Alcotest.string
        (Printf.sprintf "feed_bytes len %d" len)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.sub_string out 0 32)))
    [ 0; 1; 31; 55; 56; 63; 64; 65; 127; 128; 300 ];
  (* Guard bytes outside the 32-byte window must be untouched. *)
  Alcotest.check Alcotest.string "finalize_into writes exactly 32 bytes"
    "ffffffff"
    (Sha256.to_hex (Bytes.sub_string out 36 4))

let test_reset_reuse () =
  (* One context reused across digests, the Merkle-build pattern. *)
  let ctx = Sha256.init () in
  let out = Bytes.create 32 in
  List.iter
    (fun s ->
      Sha256.reset ctx;
      Sha256.feed ctx s;
      Sha256.finalize_into ctx out ~pos:0;
      Alcotest.check Alcotest.string
        (Printf.sprintf "reused ctx on %S" s)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.to_string out)))
    [ "abc"; ""; "abc"; String.make 200 'q'; "x" ];
  (* reset also revives a context finalized the one-shot way. *)
  Sha256.reset ctx;
  Sha256.feed ctx "spent";
  ignore (Sha256.finalize ctx);
  Sha256.reset ctx;
  Sha256.feed ctx "abc";
  Alcotest.check Alcotest.string "reset after finalize"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_feed_bytes_range_checks () =
  let ctx = Sha256.init () in
  let b = Bytes.create 8 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" pos len)
        (Invalid_argument "Sha256.feed_bytes: out of range")
        (fun () -> Sha256.feed_bytes ctx b ~pos ~len))
    [ (-1, 4); (0, -1); (5, 4); (9, 0) ];
  let out = Bytes.create 32 in
  List.iter
    (fun pos ->
      Alcotest.check_raises
        (Printf.sprintf "finalize_into pos=%d" pos)
        (Invalid_argument "Sha256.finalize_into: out of range")
        (fun () ->
          let c = Sha256.init () in
          Sha256.finalize_into c out ~pos))
    [ -1; 1; 32 ]

let prop_incremental_equals_oneshot =
  QCheck.Test.make ~name:"reset/feed_byte/feed_bytes = one-shot" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.reset ctx;
      String.iter (fun c -> Sha256.feed_byte ctx (Char.code c)) (String.sub s 0 cut);
      let rest = Bytes.of_string s in
      Sha256.feed_bytes ctx rest ~pos:cut ~len:(String.length s - cut);
      let out = Bytes.create 32 in
      Sha256.finalize_into ctx out ~pos:0;
      String.equal (Bytes.to_string out) (Sha256.digest s))

let prop_digest_size =
  QCheck.Test.make ~name:"digest is 32 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32)

let prop_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:100 QCheck.string (fun s ->
      String.equal (Sha256.digest s) (Sha256.digest s))

(* ---- differential: the kernel against the frozen spec (sha256_spec.ml) ---- *)

(* Messages of 0-4 whole blocks plus a 0-63 byte tail, so every test
   crosses the block-at-a-time path and the buffered tail alike. *)
let arb_message =
  QCheck.(
    make
      ~print:(fun s -> Printf.sprintf "<%d bytes> %S" (String.length s) s)
      Gen.(
        let* blocks = int_range 0 4 and* tail = int_range 0 63 in
        string_size ~gen:char (return ((64 * blocks) + tail))))

let prop_spec_oneshot =
  QCheck.Test.make ~name:"digest = spec on 0-4 blocks plus a tail" ~count:300
    arb_message (fun s -> String.equal (Sha256.digest s) (Sha256_spec.digest s))

(* One message fed in pieces, each through [feed], [feed_byte] or
   [feed_bytes]; [feed_bytes] reads at an unaligned [pos] inside a larger
   buffer. *)
let prop_spec_split =
  QCheck.Test.make ~name:"feed/feed_byte/feed_bytes at any split = spec" ~count:300
    QCheck.(pair arb_message (small_list (pair (int_bound 2) small_nat)))
    (fun (s, pieces) ->
      let ctx = Sha256.init () in
      let at = ref 0 in
      let feed_piece (how, len) =
        let len = min len (String.length s - !at) in
        let piece = String.sub s !at len in
        (match how with
        | 0 -> Sha256.feed ctx piece
        | 1 -> String.iter (fun c -> Sha256.feed_byte ctx (Char.code c)) piece
        | _ ->
            let pad = 1 + (len mod 7) in
            let buf = Bytes.of_string (String.make pad '#' ^ piece ^ "##") in
            Sha256.feed_bytes ctx buf ~pos:pad ~len);
        at := !at + len
      in
      List.iter feed_piece pieces;
      feed_piece (2, String.length s - !at);
      String.equal (Sha256.finalize ctx) (Sha256_spec.digest s))

let prop_spec_reset_reuse =
  QCheck.Test.make ~name:"reset reuse = spec" ~count:100 (QCheck.small_list arb_message)
    (fun msgs ->
      let ctx = Sha256.init () and out = Bytes.create 32 in
      List.for_all
        (fun s ->
          Sha256.reset ctx;
          Sha256.feed ctx s;
          Sha256.finalize_into ctx out ~pos:0;
          String.equal (Bytes.to_string out) (Sha256_spec.digest s))
        msgs)

(* The hot path allocates nothing: a Merkle-node-shaped digest (a tag byte
   plus two packed digests, fed from inside a larger buffer) and a
   multi-block leaf, each reset/fed/finalized into a caller's buffer. *)
let test_zero_alloc () =
  let ctx = Sha256.init () and out = Bytes.create 64 in
  let node = Bytes.init 96 (fun i -> Char.chr (i * 5 land 0xff)) in
  let leaf = String.init 821 (fun i -> Char.chr (i * 3 land 0xff)) in
  let digests () =
    for i = 1 to 500 do
      Sha256.reset ctx;
      Sha256.feed_byte ctx 0x01;
      Sha256.feed_bytes ctx node ~pos:(i land 31) ~len:64;
      Sha256.finalize_into ctx out ~pos:0;
      Sha256.reset ctx;
      Sha256.feed ctx leaf;
      Sha256.finalize_into ctx out ~pos:32
    done
  in
  digests ();
  let m0 = Gc.minor_words () in
  let m1 = Gc.minor_words () in
  digests ();
  let m2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words for 1000 digests" 0. (m2 -. m1 -. (m1 -. m0))

let prop_streaming_split =
  QCheck.Test.make ~name:"arbitrary split = whole" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 cut);
      Sha256.feed ctx (String.sub s cut (String.length s - cut));
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

(* ---- the two compression kernels ---- *)

(* Every digest above ran the active kernel. Here the active kernel meets
   the portable one block by block, and the portable kernel meets the spec
   and the NIST vectors on its own, whichever kernel is active. *)

(* A random 32-byte state and a random block at every offset 0-63 of a
   larger buffer: both kernels leave the same state, and neither touches
   the buffer. *)
let kernels_agree_name = "sha-ni kernel = portable kernel at offsets 0-63"

let prop_kernels_agree =
  QCheck.Test.make ~name:kernels_agree_name
    ~count:200
    QCheck.(pair (string_of_size (Gen.return 32)) (string_of_size (Gen.return 127)))
    (fun (state, buf) ->
      let src = Bytes.of_string buf in
      List.for_all
        (fun pos ->
          let active = Bytes.of_string state and portable = Bytes.of_string state in
          Sha256.compress active src ~pos;
          Sha256.Portable.compress portable src ~pos;
          Bytes.equal active portable && Bytes.to_string src = buf)
        (List.init 64 Fun.id))

(* On a host without SHA-NI there is nothing to compare: the case says so
   and is skipped, never passed. *)
let kernels_agree =
  if Sha256.kernel = "sha-ni" then QCheck_alcotest.to_alcotest prop_kernels_agree
  else
    Alcotest.test_case kernels_agree_name `Quick (fun () ->
        Printf.printf "kernel is %s: the SHA-NI comparison was not run\n"
          Sha256.kernel;
        Alcotest.skip ())

let prop_portable_spec =
  QCheck.Test.make ~name:"portable kernel = spec on 0-300 bytes" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 300))
    (fun s -> String.equal (Sha256.Portable.digest s) (Sha256_spec.digest s))

let test_portable_nist () =
  List.iter
    (fun (msg, expected, input) ->
      Alcotest.check Alcotest.string msg expected
        (Sha256.to_hex (Sha256.Portable.digest input)))
    [
      ("empty", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad", "abc");
      ( "two blocks",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq" );
      ( "896-bit message",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
      );
      ( "one million 'a'",
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        String.make 1_000_000 'a' );
    ];
  Alcotest.check_raises "state not 32 bytes"
    (Invalid_argument "Sha256.Portable.compress: out of range") (fun () ->
      Sha256.Portable.compress (Bytes.create 31) (Bytes.create 64) ~pos:0);
  Alcotest.check_raises "block past the end"
    (Invalid_argument "Sha256.compress: out of range") (fun () ->
      Sha256.compress (Bytes.create 32) (Bytes.create 64) ~pos:1)

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
    Alcotest.test_case "million a" `Slow test_million_a;
    Alcotest.test_case "streaming" `Quick test_streaming;
    Alcotest.test_case "padding boundaries" `Quick test_lengths_near_padding_boundary;
    Alcotest.test_case "feed paths equivalent" `Quick test_feed_paths_equivalent;
    Alcotest.test_case "reset + reuse" `Quick test_reset_reuse;
    Alcotest.test_case "feed_bytes range checks" `Quick test_feed_bytes_range_checks;
    QCheck_alcotest.to_alcotest prop_incremental_equals_oneshot;
    QCheck_alcotest.to_alcotest prop_digest_size;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_streaming_split;
    QCheck_alcotest.to_alcotest prop_spec_oneshot;
    QCheck_alcotest.to_alcotest prop_spec_split;
    QCheck_alcotest.to_alcotest prop_spec_reset_reuse;
    Alcotest.test_case "reset/feed/finalize_into allocates nothing" `Quick test_zero_alloc;
    kernels_agree;
    QCheck_alcotest.to_alcotest prop_portable_spec;
    Alcotest.test_case "NIST vectors, portable kernel" `Quick test_portable_nist;
  ]
