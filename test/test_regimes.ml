(* Byte-identity pins for the two regimes of Π_ℕ: the bit search with
   ADDLASTBIT and the block search with ADDLASTBLOCK. Each pin is the SHA-256
   and byte length of one case's runs under three adversaries, each run its
   Det JSONL ([Obs.to_jsonl ~tier:Det]: spans, labels, rounds, probes)
   followed by the honest outputs. The values were captured from separate
   bit and block modules (Find_prefix_blocks, Add_last_bit, Add_last_block,
   Fixed_length_ca_blocks) before they were merged into one FINDPREFIX and
   one FIXEDLENGTHCA with a bit and a block entry point each. *)

open Net

let adversaries =
  [ Adversary.passive; Adversary.equivocate ~seed:5; Adversary.garbage ~seed:9 ]

let recorded ~n ~t ~corrupt ~show protocol =
  String.concat "\n"
    (List.map
       (fun adversary ->
         let obs = Obs.create () in
         let outcome = Sim.run ~obs ~n ~t ~corrupt ~adversary protocol in
         String.concat "\n"
           (Obs.to_jsonl ~tier:Obs.Det obs
           :: List.map show (Sim.honest_outputs ~corrupt outcome)))
       adversaries)

let show_search (r : Convex.Find_prefix.result) =
  String.concat " "
    (List.map Bitstring.to_string [ r.prefix_star; r.v; r.v_bot ]
    @ [ string_of_int r.iterations ])

(* n=4 searches and fixed-length CA on clustered ℓ-bit inputs. *)
let fixed_length_cases =
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.concat_map
    (fun bits ->
      let inputs =
        Array.map
          (Bigint.to_bitstring_fixed ~bits)
          (Workload.clustered_bits (Prng.create bits) ~n ~bits
             ~shared_prefix_bits:(bits / 2))
      in
      let case name show run =
        ( Printf.sprintf "%s l=%d" name bits,
          fun () ->
            recorded ~n ~t ~corrupt ~show (fun ctx ->
                Proto.run (run ctx ~bits inputs.(ctx.Ctx.me))) )
      in
      [
        case "find_prefix" show_search Convex.Find_prefix.run;
        case "find_prefix_blocks" show_search Convex.Find_prefix.run_blocks;
        case "agree_fixed_length" Bitstring.to_string Convex.agree_fixed_length;
        case "agree_fixed_length_blocks" Bitstring.to_string
          Convex.agree_fixed_length_blocks;
      ])
    [ 64; 256; 1024 ]

let bigint_case name ~n ~t ~corrupt ~run inputs =
  ( name,
    fun () ->
      recorded ~n ~t ~corrupt ~show:Bigint.to_string (fun ctx ->
          run ctx inputs.(ctx.Ctx.me)) )

(* Π_ℤ at n=7 on both sides of n²=49: ℓ=32 runs the bit search, ℓ=256 the
   block search. *)
let pi_z_cases =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.map
    (fun bits ->
      bigint_case (Printf.sprintf "pi_z n=7 l=%d" bits) ~n ~t ~corrupt
        ~run:Convex.agree_int
        (Workload.clustered_bits (Prng.create bits) ~n ~bits
           ~shared_prefix_bits:(bits / 2)))
    [ 32; 256 ]

(* Π_ℕ's long regime agreeing on block size 1 at n=4: parties 0 and 1 hold
   17 bits, which makes the run long, and the other two fit in n² = 16 bits.
   The run searches n² one-bit blocks under find_prefix_blocks and, when the
   search stops short, extends with HIGHCOSTCA under add_last_block, never
   with ADDLASTBIT. *)
let block_size_one_inputs low =
  Array.map Bigint.of_int [| (1 lsl 16) + 1; (1 lsl 16) + 1; low; 1003 |]

let block_size_one_cases =
  List.map
    (fun (name, low) ->
      bigint_case name ~n:4 ~t:1 ~corrupt:(Sim.corrupt_first ~n:4 1)
        ~run:(fun ctx v -> Proto.run (Convex.agree_nat ctx v))
        (block_size_one_inputs low))
    [ ("pi_n block size 1", 1002); ("pi_n block size 1, add_last_block", 0) ]

let pins =
  [
    ( "find_prefix l=64",
      ("7831ad21157470b0ed781d0f32750c11c76747c728d87f53c424861e473df2c9", 97688) );
    ( "find_prefix_blocks l=64",
      ("e2c1b73a367f7e8d732c3b707207d0723a31b83b1b1d18a3793fbc51f1fca9c0", 65501) );
    ( "agree_fixed_length l=64",
      ("b2afb4f792be164f5140d04e527afb5f5c939013d6ba8f43abb77baee2aa80aa", 106729) );
    ( "agree_fixed_length_blocks l=64",
      ("2863fdb2a140bd7bfd3157fb842b25ff6eb736ec6a6a17a704ec0b3178d10c17", 79941) );
    ( "find_prefix l=256",
      ("0f7871c4d0e4990ebf01f6ec8efdfe65a625573dfa9891c903a420e923512c31", 141494) );
    ( "find_prefix_blocks l=256",
      ("ce166fb1097cb6899cd2a161e7c52821c7d9541c03b2a282c6a40435d1b19b06", 72701) );
    ( "agree_fixed_length l=256",
      ("7766ef913c0ce423ec2737449314fbd48989e538b147f0d7bb59b9c7f5f2cf43", 147922) );
    ( "agree_fixed_length_blocks l=256",
      ("c5798718b2d95babee2bcfcd8e0a99caf6494c5634eb7da6ad7bb4bf8c5ebd65", 84660) );
    ( "find_prefix l=1024",
      ("5e377aa894eb65b2f8055d25caa822f832d79a3429bc3ed73c76f216844ba1e4", 211340) );
    ( "find_prefix_blocks l=1024",
      ("b660b9b2168954122473efffbca6f8b4bb49f01864cf1e676a05330e23950a45", 101501) );
    ( "agree_fixed_length l=1024",
      ("80118e4d8ac25cba060b9f117098dfd904e444db85a19d1caf18fdb1a0b65c18", 202547) );
    ( "agree_fixed_length_blocks l=1024",
      ("677930853e54597a7ae06392b636ee55e717861c56418212e0fccd419fb5be6e", 103584) );
    ( "pi_z n=7 l=32",
      ("1436726814802256e3b0a9b8aa36cc869f554bd937a616a43fd46e580430b10c", 170938) );
    ( "pi_z n=7 l=256",
      ("c5ea2f0f489f43309b46660dde6640638462fec6381ecebe6796b1f0936032c8", 230363) );
    ( "pi_n block size 1",
      ("ad97c59ce48c2424afe001ea996668838690e360dbe5dab43bca0727213b171b", 73521) );
    ( "pi_n block size 1, add_last_block",
      ("6c31f75899f124878f4fd33722fbd5293d5f3dfe86224084a961f2fa1a3473b3", 87615) );
  ]

let cases = fixed_length_cases @ pi_z_cases @ block_size_one_cases

let digest s = (Sha256.hex s, String.length s)

let has_label jsonl label =
  let needle = Printf.sprintf "\"label\":%S" label in
  let m = String.length needle in
  let rec go i =
    i + m <= String.length jsonl && (String.sub jsonl i m = needle || go (i + 1))
  in
  go 0

(* The two block-size-1 runs take the block search; under the passive
   adversary the first agrees on 65408 with a full prefix, and under
   equivocation the second stops short and adds a one-bit block. *)
let test_block_size_one () =
  let corrupt = Sim.corrupt_first ~n:4 1 in
  let check name adversary low ~output ~labels =
    let inputs = block_size_one_inputs low in
    let obs = Obs.create () in
    let outcome =
      Sim.run ~obs ~n:4 ~t:1 ~corrupt ~adversary (fun ctx ->
          Proto.run (Convex.agree_nat ctx inputs.(ctx.Ctx.me)))
    in
    List.iter
      (fun o -> Alcotest.(check string) (name ^ ": output") output (Bigint.to_string o))
      (Sim.honest_outputs ~corrupt outcome);
    let jsonl = Obs.to_jsonl ~tier:Obs.Det obs in
    List.iter
      (fun (label, expected) ->
        Alcotest.(check bool) (name ^ ": " ^ label) expected (has_label jsonl label))
      labels
  in
  check "passive" Adversary.passive 1002 ~output:"65408"
    ~labels:[ ("find_prefix_blocks", true); ("find_prefix", false) ];
  check "equivocate" (Adversary.equivocate ~seed:5) 0 ~output:"1023"
    ~labels:
      [ ("find_prefix_blocks", true); ("add_last_block", true); ("add_last_bit", false) ]

let suite =
  Alcotest.test_case "pi_n block size 1 regime" `Quick test_block_size_one
  :: List.map
       (fun (name, run) ->
         Alcotest.test_case name `Quick (fun () ->
             Alcotest.(check (pair string int))
               (name ^ ": Det JSONL") (List.assoc name pins) (digest (run ()))))
       cases
