(* Reed–Solomon: roundtrips over every erasure pattern family the protocol
   produces, plus defensive decoding. *)

module Rs = Reed_solomon

let msg n = String.init n (fun i -> Char.chr (i * 31 land 0xff))

let decode_exn ~n ~k shares =
  match Rs.decode ~n ~k shares with
  | Ok v -> v
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_systematic_roundtrip () =
  let m = msg 100 in
  let n = 10 and k = 7 in
  let cws = Rs.encode ~n ~k m in
  Alcotest.check Alcotest.int "n codewords" n (Array.length cws);
  Array.iter
    (fun cw ->
      Alcotest.check Alcotest.int "codeword size" (Rs.codeword_bytes ~k ~msg_bytes:100)
        (String.length cw))
    cws;
  (* First k shares (the systematic ones). *)
  let shares = List.init k (fun i -> (i, cws.(i))) in
  Alcotest.check Alcotest.string "systematic decode" m (decode_exn ~n ~k shares)

let test_parity_only_roundtrip () =
  let m = msg 57 in
  let n = 10 and k = 3 in
  let cws = Rs.encode ~n ~k m in
  let shares = [ (9, cws.(9)); (7, cws.(7)); (4, cws.(4)) ] in
  Alcotest.check Alcotest.string "parity decode" m (decode_exn ~n ~k shares)

let test_all_k_subsets_small () =
  let m = msg 23 in
  let n = 6 and k = 4 in
  let cws = Rs.encode ~n ~k m in
  (* Every 4-subset of 6 codewords must reconstruct. *)
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for c = b + 1 to n - 1 do
        for d = c + 1 to n - 1 do
          let shares = [ (a, cws.(a)); (b, cws.(b)); (c, cws.(c)); (d, cws.(d)) ] in
          Alcotest.check Alcotest.string
            (Printf.sprintf "subset %d%d%d%d" a b c d)
            m (decode_exn ~n ~k shares)
        done
      done
    done
  done

let test_edge_sizes () =
  List.iter
    (fun len ->
      let m = msg len in
      let n = 7 and k = 5 in
      let cws = Rs.encode ~n ~k m in
      let shares = List.init k (fun i -> (n - 1 - i, cws.(n - 1 - i))) in
      Alcotest.check Alcotest.string (Printf.sprintf "len %d" len) m
        (decode_exn ~n ~k shares))
    [ 0; 1; 2; 9; 10; 11; 63; 64; 65 ]

let test_k_equals_n () =
  let m = msg 33 in
  let cws = Rs.encode ~n:4 ~k:4 m in
  let shares = List.init 4 (fun i -> (i, cws.(i))) in
  Alcotest.check Alcotest.string "k = n" m (decode_exn ~n:4 ~k:4 shares)

let test_k_equals_one () =
  let m = msg 12 in
  let cws = Rs.encode ~n:5 ~k:1 m in
  Alcotest.check Alcotest.string "k = 1 replication" m
    (decode_exn ~n:5 ~k:1 [ (3, cws.(3)) ])

let test_defensive_decode () =
  let m = msg 40 in
  let n = 8 and k = 5 in
  let cws = Rs.encode ~n ~k m in
  let err = function Error _ -> true | Ok _ -> false in
  Alcotest.check Alcotest.bool "too few" true
    (err (Rs.decode ~n ~k [ (0, cws.(0)); (1, cws.(1)) ]));
  Alcotest.check Alcotest.bool "duplicates don't count" true
    (err (Rs.decode ~n ~k (List.init k (fun _ -> (0, cws.(0))))));
  Alcotest.check Alcotest.bool "out-of-range index" true
    (err
       (Rs.decode ~n ~k
          ((n + 3, cws.(0)) :: List.init (k - 1) (fun i -> (i, cws.(i))))));
  Alcotest.check Alcotest.bool "inconsistent lengths" true
    (err
       (Rs.decode ~n ~k
          ((0, cws.(0) ^ "\000\000") :: List.init (k - 1) (fun i -> (i + 1, cws.(i + 1))))));
  Alcotest.check Alcotest.bool "odd codeword length" true
    (err (Rs.decode ~n ~k (List.init k (fun i -> (i, "\000")))));
  (* Extra shares beyond k are ignored. *)
  Alcotest.check Alcotest.string "extra shares ok" m
    (decode_exn ~n ~k (Array.to_list (Array.mapi (fun i c -> (i, c)) cws)))

let test_params_validation () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Reed_solomon: bad (n, k)") (fun () ->
      ignore (Rs.encode ~n:4 ~k:0 "x"));
  Alcotest.check_raises "k > n" (Invalid_argument "Reed_solomon: bad (n, k)") (fun () ->
      ignore (Rs.encode ~n:4 ~k:5 "x"))

let prop_roundtrip =
  QCheck.Test.make ~name:"random (n,k,msg,subset) roundtrip" ~count:150
    QCheck.(quad (2 -- 20) small_nat (string_of_size Gen.(0 -- 200)) int)
    (fun (n, k0, m, seed) ->
      let k = 1 + (k0 mod n) in
      let cws = Rs.encode ~n ~k m in
      (* Pseudo-random k-subset from the seed. *)
      let idx = Array.init n (fun i -> i) in
      let st = ref (abs seed + 1) in
      for i = n - 1 downto 1 do
        st := (!st * 1103515245) + 12345;
        let j = abs !st mod (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done;
      let shares = List.init k (fun i -> (idx.(i), cws.(idx.(i)))) in
      match Rs.decode ~n ~k shares with Ok m' -> String.equal m m' | Error _ -> false)

(* ---- differential: matrix-form codec vs the seed reference path -------- *)

let test_all_k_subsets_differential () =
  (* Every codeword and every k-subset decode must be bit-identical between
     the matrix codec and Reed_solomon_ref. *)
  let m = msg 37 in
  let n = 7 and k = 4 in
  let codec = Rs.ctx ~n ~k in
  let cws = Rs.encode_with codec m in
  let ref_cws = Reed_solomon_ref.encode ~n ~k m in
  Array.iteri
    (fun i cw ->
      Alcotest.check Alcotest.string (Printf.sprintf "codeword %d" i) ref_cws.(i) cw)
    cws;
  for mask = 0 to (1 lsl n) - 1 do
    let idxs = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    if List.length idxs = k then begin
      let shares = List.map (fun i -> (i, cws.(i))) idxs in
      let fast = Rs.decode_with codec shares in
      let slow = Reed_solomon_ref.decode ~n ~k shares in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "subset %x decodes equally" mask)
        true
        (fast = slow && fast = Ok m)
    end
  done

let test_ctx_paths_agree () =
  let m = msg 64 in
  let n = 9 and k = 6 in
  let codec = Rs.ctx ~n ~k in
  Alcotest.check Alcotest.bool "ctx is memoized" true (codec == Rs.ctx ~n ~k);
  Alcotest.check
    (Alcotest.array Alcotest.string)
    "encode_with = encode" (Rs.encode ~n ~k m) (Rs.encode_with codec m);
  let shares = List.init k (fun i -> (n - 1 - i, (Rs.encode ~n ~k m).(n - 1 - i))) in
  Alcotest.check Alcotest.bool "decode_with = decode" true
    (Rs.decode_with codec shares = Rs.decode ~n ~k shares);
  Alcotest.check_raises "ctx validates params"
    (Invalid_argument "Reed_solomon: bad (n, k)") (fun () ->
      ignore (Rs.ctx ~n:4 ~k:5))

let prop_encode_matches_ref =
  QCheck.Test.make ~name:"matrix encode = reference encode (bit-identical)"
    ~count:200
    QCheck.(triple (2 -- 24) small_nat (string_of_size Gen.(0 -- 300)))
    (fun (n, k0, m) ->
      let k = 1 + (k0 mod n) in
      let fast = Rs.encode ~n ~k m in
      let slow = Reed_solomon_ref.encode ~n ~k m in
      Array.for_all2 String.equal fast slow)

let prop_decode_matches_ref =
  QCheck.Test.make ~name:"matrix decode = reference decode on random k-subset"
    ~count:200
    QCheck.(quad (2 -- 16) small_nat (string_of_size Gen.(0 -- 200)) int)
    (fun (n, k0, m, seed) ->
      let k = 1 + (k0 mod n) in
      let cws = Rs.encode ~n ~k m in
      let idx = Array.init n (fun i -> i) in
      let st = ref (abs seed + 1) in
      for i = n - 1 downto 1 do
        st := (!st * 1103515245) + 12345;
        let j = abs !st mod (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done;
      let shares = List.init k (fun i -> (idx.(i), cws.(idx.(i)))) in
      let fast = Rs.decode ~n ~k shares in
      fast = Reed_solomon_ref.decode ~n ~k shares && fast = Ok m)

(* ---- share choice: first per index, then the k lowest ------------------ *)

(* What [decode] is documented to use: the first share per index in [0, n),
   in increasing index order, the k lowest of them. *)
let k_lowest ~n ~k shares =
  let first = Hashtbl.create 16 in
  List.iter
    (fun (i, cw) -> if i >= 0 && i < n && not (Hashtbl.mem first i) then Hashtbl.add first i cw)
    shares;
  Hashtbl.fold (fun i cw acc -> (i, cw) :: acc) first []
  |> List.sort compare
  |> List.filteri (fun j _ -> j < k)

let prop_share_choice_matches_ref =
  QCheck.Test.make
    ~name:"any order, duplicates, out-of-range = reference on k lowest" ~count:300
    QCheck.(quad (2 -- 16) small_nat (string_of_size Gen.(0 -- 200)) int)
    (fun (n, k0, m, seed) ->
      let k = 1 + (k0 mod n) in
      let cws = Rs.encode ~n ~k m in
      let st = ref (abs seed + 1) in
      let draw bound =
        st := ((!st * 1103515245) + 12345) land 0x3fffffff;
        !st mod bound
      in
      (* A shuffled set of k-1 .. n distinct indices... *)
      let idx = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = draw (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done;
      let count = max 0 (k - 1) + draw (n - k + 2) in
      let shares = List.init (min n count) (fun i -> (idx.(i), cws.(idx.(i)))) in
      (* ...with corrupted duplicates (a flipped byte or a longer codeword)
         and out-of-range indices inserted at random places. *)
      let corrupt cw =
        if draw 2 = 0 then cw ^ "\000\000"
        else String.mapi (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c) cw
      in
      let extras =
        List.init (draw 6) (fun _ ->
            match draw 3 with
            | 0 -> (n + draw 4, cws.(draw n))
            | 1 -> (-1 - draw 4, cws.(draw n))
            | _ ->
                let i = draw n in
                (i, corrupt cws.(i)))
      in
      let shares =
        List.fold_left
          (fun acc e ->
            let at = draw (List.length acc + 1) in
            List.filteri (fun j _ -> j < at) acc @ (e :: List.filteri (fun j _ -> j >= at) acc))
          shares extras
      in
      let used = k_lowest ~n ~k shares in
      let fast = Rs.decode ~n ~k shares in
      fast = Reed_solomon_ref.decode ~n ~k used
      && (List.length used < k
         || List.exists (fun (i, cw) -> not (String.equal cw cws.(i))) used
         || fast = Ok m))

(* Held sets with 0, 1, t = n - k and k systematic columns missing, where
   the code has enough parity for it; shares given highest index first. *)
let test_missing_systematic () =
  List.iter
    (fun (n, k) ->
      let m = msg (37 * k) in
      let cws = Rs.encode ~n ~k m in
      let t = n - k in
      List.iter
        (fun missing ->
          if missing <= t && missing <= k then begin
            (* Drop the systematic columns from (k / 2) onwards, wrapping. *)
            let dropped = List.init missing (fun j -> ((k / 2) + j) mod k) in
            let held =
              List.filter (fun j -> not (List.mem j dropped)) (List.init k Fun.id)
              @ List.init missing (fun j -> n - 1 - j)
            in
            let shares = List.rev_map (fun i -> (i, cws.(i))) held in
            let what = Printf.sprintf "(%d,%d) %d missing" n k missing in
            Alcotest.(check (result string string)) what (Ok m) (Rs.decode ~n ~k shares);
            Alcotest.(check (result string string))
              (what ^ " = reference")
              (Reed_solomon_ref.decode ~n ~k (List.rev shares))
              (Rs.decode ~n ~k shares)
          end)
        [ 0; 1; t; k ])
    [ (13, 9); (13, 5); (7, 5); (7, 3); (10, 4); (4, 2); (5, 1) ]

(* Minor words per [decode_with] call, all-minor sizes, against the
   list-order decoder this one replaced (a Hashtbl of the indices seen, a
   filtered list, a k×k matrix): 519 at (13, 9) with 1 KiB, 191 at (7, 5)
   with 136 B and 104 at (4, 2) with 16 B when handed k shares, and more
   when handed all n. *)
let test_decode_alloc () =
  List.iter
    (fun (n, k, bytes, before) ->
      let m = msg bytes in
      let codec = Rs.ctx ~n ~k in
      let cws = Rs.encode_with codec m in
      List.iter
        (fun (what, shares) ->
          let call () = ignore (Sys.opaque_identity (Rs.decode_with codec shares)) in
          call ();
          let w0 = Gc.minor_words () in
          call ();
          let words = Gc.minor_words () -. w0 in
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d) %d B %s: %.0f minor words <= %d" n k bytes what words
               before)
            true
            (words <= float_of_int before))
        [
          ("parity", List.init k (fun i -> (n - 1 - i, cws.(n - 1 - i))));
          ("systematic", List.init k (fun i -> (i, cws.(i))));
          ("all", Array.to_list (Array.mapi (fun i c -> (i, c)) cws));
        ])
    [ (13, 9, 1024, 519); (7, 5, 136, 191); (4, 2, 16, 104) ]

let prop_codeword_size_linear =
  QCheck.Test.make ~name:"codeword size is O(len/k)" ~count:100
    QCheck.(pair (1 -- 30) (int_bound 5000))
    (fun (k, len) ->
      let b = Rs.codeword_bytes ~k ~msg_bytes:len in
      b >= 2 && b * k <= len + 4 + (2 * k))

let suite =
  [
    Alcotest.test_case "systematic roundtrip" `Quick test_systematic_roundtrip;
    Alcotest.test_case "parity-only roundtrip" `Quick test_parity_only_roundtrip;
    Alcotest.test_case "all k-subsets (n=6,k=4)" `Quick test_all_k_subsets_small;
    Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
    Alcotest.test_case "k = n" `Quick test_k_equals_n;
    Alcotest.test_case "k = 1" `Quick test_k_equals_one;
    Alcotest.test_case "defensive decode" `Quick test_defensive_decode;
    Alcotest.test_case "parameter validation" `Quick test_params_validation;
    Alcotest.test_case "all k-subsets differential (n=7,k=4)" `Quick
      test_all_k_subsets_differential;
    Alcotest.test_case "ctx paths agree" `Quick test_ctx_paths_agree;
    QCheck_alcotest.to_alcotest prop_encode_matches_ref;
    QCheck_alcotest.to_alcotest prop_decode_matches_ref;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_codeword_size_linear;
    QCheck_alcotest.to_alcotest prop_share_choice_matches_ref;
    Alcotest.test_case "0, 1, t and k systematic columns missing" `Quick
      test_missing_systematic;
    Alcotest.test_case "decode allocates no more than the list-order decoder" `Quick
      test_decode_alloc;
  ]
