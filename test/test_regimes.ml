(* Byte-identity pins for the two regimes of Π_ℕ: the bit search with
   ADDLASTBIT and the block search with ADDLASTBLOCK. Each pin is the SHA-256
   and byte length of one case's runs under three adversaries, each run its
   Det JSONL ([Obs.to_jsonl ~tier:Det]: spans, labels, rounds, probes)
   followed by the honest outputs. The values were captured from separate
   bit and block modules (Find_prefix_blocks, Add_last_bit, Add_last_block,
   Fixed_length_ca_blocks) before they were merged into one FINDPREFIX and
   one FIXEDLENGTHCA with a bit and a block entry point each, and re-taken
   when Π_BA's phase king began sending back-references instead of repeated
   values (bits moved). A second pin per case covers only the round counts
   and honest outputs; it was taken before the back-references and holds
   after them. *)

open Net

(* Fresh per case: the strategies carry PRNG state, so a shared list would
   make each case's record depend on the cases that ran before it. *)
let adversaries () =
  [ Adversary.passive; Adversary.equivocate ~seed:5; Adversary.garbage ~seed:9 ]

(* Each case's record under the three adversaries, twice: with the Det
   JSONL (bits included), and as the round count and honest outputs only. *)
let recorded ~n ~t ~corrupt ~show protocol =
  let runs =
    List.map
      (fun adversary ->
        let obs = Obs.create () in
        let outcome = Sim.run ~obs ~n ~t ~corrupt ~adversary protocol in
        let outputs = List.map show (Sim.honest_outputs ~corrupt outcome) in
        ( String.concat "\n" (Obs.to_jsonl ~tier:Obs.Det obs :: outputs),
          String.concat "\n" (string_of_int outcome.Sim.metrics.Metrics.rounds :: outputs) ))
      (adversaries ())
  in
  (String.concat "\n" (List.map fst runs), String.concat "\n" (List.map snd runs))

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
      ( ("9ab9e40b12c1e577ffcfa4dd251b09e2be688974b3ed75c9fa9f30504cb98bc1", 97382),
        ("24273a4099b0bb6889ffd878412f55d6daa0562cbf81d02c16d817a621d0b200", 1532) ) );
    ( "find_prefix_blocks l=64",
      ( ("451f282da5c02aa5e2bbfa3b99a44c7b635cfa1568f662a2a0a775fe7c6a3532", 65291),
        ("ddbd29bf9757264c1b77d3634b4a9efca13f2f4766fa320624cde7e1e942cd2d", 1493) ) );
    ( "agree_fixed_length l=64",
      ( ("0cfe9effe877906b100dfb197bd15bd985f8ab89bbac2f9eeef693cbc1dde70a", 106398),
        ("19734b779eb0330d71835396b99194c9350f73a65e8d9a012c581ed81d55e48b", 596) ) );
    ( "agree_fixed_length_blocks l=64",
      ( ("d78e1f626293bc051b449b9cb75bb8f32cf7ae19fd531f02b30a1f4d6b02e508", 79723),
        ("f499f1711b9dd3d83e46ecabf2a5dd77bfe0a51ae5410f38f5d812eb6144eb7f", 593) ) );
    ( "find_prefix l=256",
      ( ("0d11fcd6572bb60c1b187a84f8fd35acd4629b9b7aeba8b4b68ca00aefde4b97", 141068),
        ("ce812d2a3b3e8af2472059c72ef1934c39e237d4b6db30b1b555b26f4c0e1226", 5852) ) );
    ( "find_prefix_blocks l=256",
      ( ("1c4b0b9ff3d2248797fcad8f2416c19fcf799285aad0acd71bdb8c36746c32ab", 72491),
        ("3357c8fef0084cdce31d6cf55db4d2edcc4f4049897ffed686df74d9c4b0d070", 5813) ) );
    ( "agree_fixed_length l=256",
      ( ("58dcd4dc265a66973ae07a99f1b5e9cf7139030c3fbee60a9a17a1a59867c33b", 147485),
        ("4fef6f28bc311b1a4f0e79428ee7a9eeb602ec289e1feaa85d72b04e1e88ee2d", 2324) ) );
    ( "agree_fixed_length_blocks l=256",
      ( ("e9d9bd61d8c313890c1d293c199b8ef361a91c317592bb6ef74fb17f04d4c620", 84442),
        ("e7afc5ce48fa6da345c8b9b0f80509aeb208fe80ad0d3d4e2cfe433c83cc4bbc", 2321) ) );
    ( "find_prefix l=1024",
      ( ("2dd5ca3763dc05133ba3278c5dee8f13bb0b0fd3ef8e2551dac45a2500377aca", 210801),
        ("e2248beb825642ce53612545709de07de619309bd91c05a14a6832044f4e0e33", 24665) ) );
    ( "find_prefix_blocks l=1024",
      ( ("f41848085e71839c2c6a078f51b3fb0950f2c1ff0f51b62941bbfd3421e329c6", 101291),
        ("e6a0a0dcfc8101ac088801941c1ea847474f1eec7d03e5229385008a3237f192", 23093) ) );
    ( "agree_fixed_length l=1024",
      ( ("672d37caf8afa67d25520f41405fd9f3f0f7bb9749ccec327253eed3f97beab4", 202005),
        ("d3a7a65316c788239717f3b49202a7f32be74a4097937a1787af73cbd6fabe15", 9236) ) );
    ( "agree_fixed_length_blocks l=1024",
      ( ("192619bc627a946156d560a416d61fbb67011404eec623731302ee1f3458e502", 103362),
        ("8b30e9d7d51d42fbbb180e7f4ac807c4598800e3830d97ebba2ec7cc2a3e5e64", 9233) ) );
    ( "pi_z n=7 l=32",
      ( ("d17b3f7378d15ec2cd9c642a7debdd95d7a3a411786373bf19c74129b4043e34", 170433),
        ("90ab971d61bf50341860aea4979ccdb147663206ee388b601a46da50b93fe53c", 176) ) );
    ( "pi_z n=7 l=256",
      ( ("36f123a47acccea53d02379876d7be1ad6eb75794ea1df74bb067f9a6df450dc", 229961),
        ("385827ef9e178230041b55506db95535e9f5ae4f79ec4d9a7fc287beca7e9d43", 1181) ) );
    ( "pi_n block size 1",
      ( ("93047877c7f5bf0fcc7390264459819f8431f629159440e52ac49d2e95c9e489", 73276),
        ("39d9bc30d3cb71aeafaec3499dbba04365a1dfa4d95c288c221661e536a28e37", 57) ) );
    ( "pi_n block size 1, add_last_block",
      ( ("54131001937d6ed7755132bca8c8e3455d0bdfe78eb8b46044f36088822641f7", 87376),
        ("694f180e9dfde222154f8124d2dc69b262dd0bb0fec2e8b704e13d7e469f8da7", 55) ) );
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
             let det, outcome = run () in
             let det_pin, outcome_pin = List.assoc name pins in
             Alcotest.(check (pair string int)) (name ^ ": Det JSONL") det_pin (digest det);
             Alcotest.(check (pair string int))
               (name ^ ": rounds and outputs") outcome_pin (digest outcome)))
       cases
