(* Reference specification of Π_ℓBA+ ([Baplus.Ext_ba_plus]) as the library
   had it while its distribution went to every party: on a non-⊥ root z*,
   each party holding the committed value sends codeword j to every party j
   (step 3a), and every party republishes its verified codeword to everyone
   (step 3b), whichever roots the parties broadcast. Frozen.
   test_ext_ba_plus.ml runs the library's Π_ℓBA+ against it on a grid of n,
   value lengths, input families and adversaries, and requires the same
   honest outputs and rounds and no more honest bits than this path. Never
   edit this file to make that test pass. *)

open Net

let ( let* ) = Proto.( let* )

let encode_tuple ~index ~codeword ~witness =
  Wire.(
    encode
      (seq [ w_varint index; w_bytes codeword; w_bytes (Merkle.encode_witness witness) ]))

let run (ctx : Ctx.t) input =
  let n = ctx.Ctx.n in
  let codec = Reed_solomon.ctx ~n ~k:(Ctx.quorum ctx) in
  (* Step 1: erasure-code the input and commit to the codewords. *)
  let codewords = Reed_solomon.encode_with codec input in
  let tree = Merkle.build codewords in
  let z = Merkle.root tree in
  (* Step 2: agree on a root. *)
  let* z_agreed = Baplus.Ba_plus.run ctx z in
  match z_agreed with
  | None -> Proto.return None
  | Some z_star ->
      Proto.with_label "ext_distribute"
        (let mine = String.equal z z_star in
         let tuples =
           if mine then
             Array.init n (fun j ->
                 encode_tuple ~index:j ~codeword:codewords.(j)
                   ~witness:(Merkle.witness tree j))
           else [||]
         in
         (* Step 3a: matching parties ship codeword j to party j. *)
         let* inbox_a = Proto.exchange (fun j -> if mine then Some tuples.(j) else None) in
         let shares = Hashtbl.create n in
         let harvest =
           if mine then begin
             Array.iteri (fun j c -> Hashtbl.add shares j (c, tuples.(j))) codewords;
             ignore
           end
           else
             Baplus.Ext_ba_plus.harvest ~n
               ~checker:(Merkle.checker ~root:z_star ~leaves:n)
               ~into:shares
         in
         harvest inbox_a;
         (* Step 3b: republish your own verified codeword to everyone. *)
         let* inbox_b =
           match Hashtbl.find_opt shares ctx.Ctx.me with
           | Some (_, raw) -> Proto.broadcast raw
           | None -> Proto.receive_only ()
         in
         harvest inbox_b;
         (* Step 4: reconstruct from n−t verified codewords; a matching
            party returns its own input. *)
         if mine then Proto.return (Some input)
         else
           let collected =
             Hashtbl.fold (fun index (codeword, _) acc -> (index, codeword) :: acc) shares []
           in
           match Reed_solomon.decode_with codec collected with
           | Ok value -> Proto.return (Some value)
           | Error _ -> Proto.return None)
