(* Reference specification of FINDPREFIX and FINDPREFIXBLOCKS: the search
   as the library had it while every iteration ran Π_ℓBA+
   ([Baplus.Ext_ba_plus]) on its window, however short — Merkle/RS
   distribution included — frozen. test_find_prefix.ml runs
   [Convex.Find_prefix] against it on a grid of n, ℓ, input families and
   adversaries, and requires Definition 1 and Lemma 1 of both and no more
   honest bits than this path. Never edit this file to make that test
   pass. *)

open Net

type result = {
  prefix_star : Bitstring.t;
  v : Bitstring.t;
  v_bot : Bitstring.t;
  iterations : int;
}

let ( let* ) = Proto.( let* )

module Make (B : Ba.Substrate.S) = struct
  module Ext = Baplus.Ext_ba_plus.Make (B)

  let search ~label ~probe ~blocks ~block_bits (ctx : Ctx.t) v_in =
    let len = blocks * block_bits in
    let rec loop ~left ~right ~prefix_star ~v ~v_bot ~iterations =
      let* () = Proto.probe probe v in
      if left = right then Proto.return { prefix_star; v; v_bot; iterations }
      else begin
        let mid = (left + right) / 2 in
        let window =
          Bitstring.range v
            ~left:(((left - 1) * block_bits) + 1)
            ~right:(mid * block_bits)
        in
        let* outcome = Ext.run ctx (Wire.encode_value window) in
        let bits = (mid - left + 1) * block_bits in
        match Option.map (Wire.decode_value ~bits) outcome with
        | None | Some None ->
            loop ~left ~right:mid ~prefix_star ~v ~v_bot:v ~iterations:(iterations + 1)
        | Some (Some agreed_window) ->
            let prefix_star = Bitstring.append prefix_star agreed_window in
            let own_prefix = Bitstring.prefix v (mid * block_bits) in
            let cmp = Bitstring.compare own_prefix prefix_star in
            let v =
              if cmp < 0 then Bitstring.min_fill len prefix_star
              else if cmp > 0 then Bitstring.max_fill len prefix_star
              else v
            in
            loop ~left:(mid + 1) ~right ~prefix_star ~v ~v_bot
              ~iterations:(iterations + 1)
      end
    in
    Proto.with_label label
      (loop ~left:1 ~right:(blocks + 1) ~prefix_star:Bitstring.empty ~v:v_in ~v_bot:v_in
         ~iterations:0)

  let run (ctx : Ctx.t) ~bits:len v_in =
    if Bitstring.length v_in <> len then invalid_arg "Find_prefix.run: input length";
    search ~label:"find_prefix" ~probe:"find_prefix.v" ~blocks:len ~block_bits:1 ctx v_in

  let run_blocks (ctx : Ctx.t) ~bits:len v_in =
    let n2 = ctx.Ctx.n * ctx.Ctx.n in
    if len mod n2 <> 0 || len = 0 then
      invalid_arg "Find_prefix_blocks.run: bits must be a positive multiple of n^2";
    if Bitstring.length v_in <> len then
      invalid_arg "Find_prefix_blocks.run: input length";
    search ~label:"find_prefix_blocks" ~probe:"find_prefix_blocks.v" ~blocks:n2
      ~block_bits:(len / n2) ctx v_in
end

include Make (Ba.Substrate.Unauthenticated)
