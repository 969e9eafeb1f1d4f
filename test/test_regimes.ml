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
   after them. Both were re-taken when FINDPREFIX began agreeing on windows
   of at most κ bits with Π_BA+ itself. Every non-⊥ call on such a window
   skips Π_ℓBA+'s two distribution rounds, so each case's round counts fell
   (find_prefix l=64: 126 → 120 under each adversary; pi_z n=7 l=32: 182 →
   172 passive, 217 → 209 otherwise). Where two windows each had n−2t
   sharers, Π_BA+ now orders them by their bytes rather than by their
   Merkle roots and agrees on the other one, so three passive outputs moved,
   each to another valid value: find_prefix and agree_fixed_length at
   l=1024, pi_z n=7 l=32 (3735977983 → 3735977856) and pi_n block size 1
   (65408 → 1003). The four l=1024 Det pins were re-taken when Π_ℓBA+
   began sending codewords only to the parties whose root differs from
   the agreed one: only the ext_distribute bits moved (find_prefix and
   agree_fixed_length 11 040 → 6 624 per run, the block searches 12 096 →
   0, 2 688 and 4 032), and every rounds-and-outputs pin held. *)

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
      ( ("3a546a1f056b9be69cf87641f3a1e807df6114c73cefee54ab00c8a284698b32", 89987),
        ("aa6abfabf2f7500bb6e28571cee0f2ef5cf9bbee7149af6d33f6297ee4f865fa", 1532) ) );
    ( "find_prefix_blocks l=64",
      ( ("f9abb86b7329a8c4b7a5e8a2b9325f44745030377d65e53f47db770709a6c1dc", 57740),
        ("0d82733164ce566bb785025c0652a4e8f4c3576bfd4aeaeb435e44d9364864be", 1493) ) );
    ( "agree_fixed_length l=64",
      ( ("d9936ae3b40a86a8b015821b3a4576d0b8f717bf3ab5482f21979f5818e8e6a4", 98994),
        ("5fbce7dccc30b06c874e2c45aaeb2783a46f4d2f94eb7ee824a72e284051ebf2", 596) ) );
    ( "agree_fixed_length_blocks l=64",
      ( ("9dfaa0cdb111bb8cff83b8e8f699a8d9b140febb3f99e069040d1e7c30b73da6", 72140),
        ("0d68dfd8b49457ea2225aab74d478615de88cba9da58d31b056096d98cffb125", 593) ) );
    ( "find_prefix l=256",
      ( ("397975160ef83af39cf71bb66af281024e3f42b7f85f1b255180202c0c5a0e7e", 133702),
        ("890780b0ad231420a1069268d075080d8974d1b2319e412c151ee5da4d20c42d", 5852) ) );
    ( "find_prefix_blocks l=256",
      ( ("91a9ec3dfecdc62292fb26e161e7d8cf3121ccbba67f965cc6145c668594d6ac", 64982),
        ("4f08034b0e297483774f3511369016ecfd64faba990ce86713b6092034635df5", 5813) ) );
    ( "agree_fixed_length l=256",
      ( ("c0fabab3f5a92382b236b5fe83dba98d53dcb6bdcc03e60688a8cb4572f1cad3", 140115),
        ("58bff4d2c12ec91533ee482fa6565c8dfa8729fe4daf9385f16f5c7fefc81040", 2324) ) );
    ( "agree_fixed_length_blocks l=256",
      ( ("f0c7f679f052bac9e487730741db876e4e8d3868a0a62e670037b372936b075d", 76901),
        ("71d3cefa404b7df725c9166a304d47b8f72686d8f3767fb0b28da142c56e5a0f", 2321) ) );
    ( "find_prefix l=1024",
      ( ("7e221e3d8c87c99730298de3e350cc235ea98c606e4279ce3593f8f3b91d8af7", 200233),
        ("cd6feecdbc44f888f7f95cc103fbd41ba3423b92bb98d900d93f01669717f9a6", 24665) ) );
    ( "find_prefix_blocks l=1024",
      ( ("993e45f3dd5411be62a1740d0171076d5bcc5a1e71ad85f7b4277e1091fa83f2", 96293),
        ("9d230248bfa49d3c9a3c665e2144f940395eae184711455ecbfc32f6060d5e95", 23093) ) );
    ( "agree_fixed_length l=1024",
      ( ("e66023149223d77ba0738d16077b44fc4a9323e5b67d627aa6ae6b7136438ad6", 191432),
        ("4f160e8fdec667981770fd774eae34fa663645175b28b6280633a91e49267ad3", 9236) ) );
    ( "agree_fixed_length_blocks l=1024",
      ( ("543bea81ae0443b6aafc7b0d017684600b37a4b274fc799e691a0814fb0c5295", 98288),
        ("ace258bf436d37873b422a1cacc87beb4cd069318d31a4a1ede1e6796b4802e4", 9233) ) );
    ( "pi_z n=7 l=32",
      ( ("89d9798718c9f7a3e428ca329b33b4fdbca1c5f5c54f4c296c8dd7215b0a4e05", 153439),
        ("a757fea7385ab2b4cad19f7277b85d1f2e3aeb22b1b541015d4358eaef8da221", 176) ) );
    ( "pi_z n=7 l=256",
      ( ("f56d3e9c22513552a29c4f07947b0991e6da5ff2948a88148bbae92b20eabec6", 217599),
        ("619b737abc0a3933f0f7fb78a3171c7db7e71c1712b136199da9f8175bdd2951", 1181) ) );
    ( "pi_n block size 1",
      ( ("57436e37c24907eb2197c45e678a98cf17d0e7bf9bcab027166b5e2e56de2732", 63271),
        ("c71a5d5b936aad71e6656b8de71631015f54ac279101ed8b250041b7378b35aa", 53) ) );
    ( "pi_n block size 1, add_last_block",
      ( ("1cd3d9db02a6eaf3b554bbd6ae611d499768a9274a4059e7672e1409ec12966f", 80629),
        ("b675cf6c74f99c58ea0fd279b0b0fb85da3d63275233f591a3c9080188b459f0", 55) ) );
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
   adversary the first agrees on 1003 (of the two windows that two parties
   share each, Π_BA+ takes the lower), and under
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
  check "passive" Adversary.passive 1002 ~output:"1003"
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
