(** FIXEDLENGTHCA (Section 3, Theorem 2) and FIXEDLENGTHCABLOCKS (Section 4,
    Theorem 4): FINDPREFIX, then ADDLASTBIT or ADDLASTBLOCK past the honest
    disagreement point, then GETOUTPUT. *)

open Net

let ( let* ) = Proto.( let* )

module Make (B : Ba.Substrate.S) = struct
  module FP = Find_prefix.Make (B)
  module GO = Get_output.Make (B)

  (* ADDLASTBIT (Lemma 2): one binary Π_BA on the next bit of [v]. *)
  let add_last_bit (ctx : Ctx.t) ~bits:len ~prefix_star v =
    let i_star = Bitstring.length prefix_star in
    if i_star >= len then invalid_arg "Add_last_bit.run: prefix already full";
    if Bitstring.length v <> len then invalid_arg "Add_last_bit.run: value length";
    Proto.with_label "add_last_bit"
      (let* bit = Proto.lift (B.run_bit ctx (Bitstring.get v (i_star + 1))) in
       Proto.return (Bitstring.append_bit prefix_star bit))

  (* ADDLASTBLOCK (Lemma 5): HIGHCOSTCA on the next block of [v]. *)
  let add_last_block (ctx : Ctx.t) ~bits:len ~prefix_star v =
    let n2 = ctx.Ctx.n * ctx.Ctx.n in
    if len mod n2 <> 0 then invalid_arg "Add_last_block.run: bits not a multiple of n^2";
    let block_bits = len / n2 in
    let i_star_bits = Bitstring.length prefix_star in
    if i_star_bits mod block_bits <> 0 || i_star_bits >= len then
      invalid_arg "Add_last_block.run: prefix must be a strict block multiple";
    let next_block =
      Bitstring.range v ~left:(i_star_bits + 1) ~right:(i_star_bits + block_bits)
    in
    Proto.with_label "add_last_block"
      (let* block = High_cost_ca.run ctx ~bits:block_bits next_block in
       Proto.return (Bitstring.append prefix_star block))

  let finish (ctx : Ctx.t) ~bits ~add_last search =
    let* { Find_prefix.prefix_star; v; v_bot; iterations = _ } = search in
    if Bitstring.length prefix_star = bits then Proto.return v
    else
      let* prefix_star = add_last ctx ~bits ~prefix_star v in
      GO.run ctx ~bits ~prefix_star v_bot

  let run ctx ~bits v = finish ctx ~bits ~add_last:add_last_bit (FP.run ctx ~bits v)

  let run_blocks ctx ~bits v =
    finish ctx ~bits ~add_last:add_last_block (FP.run_blocks ctx ~bits v)
end

include Make (Ba.Substrate.Unauthenticated)
