(** FINDPREFIXBLOCKS (Section 4, Lemma 4): FINDPREFIX with the binary search
    running over n² blocks of ℓ/n² bits instead of over single bits, which
    cuts the iteration count from O(log ℓ) to O(log n) for very long inputs.

    The pseudocode in the paper initializes the search bound as [n + 1] while
    the surrounding text and Lemma 9 search n² blocks; we follow the text
    ([n² + 1], see DESIGN.md). *)

open Net

type result = {
  prefix_star : Bitstring.t;  (** a whole number of blocks *)
  v : Bitstring.t;
  v_bot : Bitstring.t;
  iterations : int;
}

let ( let* ) = Proto.( let* )

module Make (B : Ba.Substrate.S) = struct
  module Ext = Baplus.Ext_ba_plus.Make (B)

  let run (ctx : Ctx.t) ~bits:len v_in =
  let n2 = ctx.Ctx.n * ctx.Ctx.n in
  if len mod n2 <> 0 || len = 0 then
    invalid_arg "Find_prefix_blocks.run: bits must be a positive multiple of n^2";
  if Bitstring.length v_in <> len then invalid_arg "Find_prefix_blocks.run: input length";
  let block_bits = len / n2 in
  (* Window of blocks [left..right] (1-indexed, inclusive) as a bit range. *)
  let block_range v ~left ~right =
    Bitstring.range v ~left:(((left - 1) * block_bits) + 1) ~right:(right * block_bits)
  in
  let rec loop ~left ~right ~prefix_star ~v ~v_bot ~iterations =
    (* Convergence probe, mirroring {!Find_prefix}: honest candidates only
       snap toward the agreed prefix, so the honest hull width is monotone
       non-increasing over block-search iterations. *)
    let* () = Proto.probe "find_prefix_blocks.v" v in
    if left = right then Proto.return { prefix_star; v; v_bot; iterations }
    else begin
      let mid = (left + right) / 2 in
      let window = block_range v ~left ~right:mid in
      let* outcome = Ext.run ctx (Find_prefix.encode_window window) in
      let expect_bits = (mid - left + 1) * block_bits in
      match Option.map (Find_prefix.decode_window ~expect_bits) outcome with
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
          loop ~left:(mid + 1) ~right ~prefix_star ~v ~v_bot ~iterations:(iterations + 1)
    end
  in
  Proto.with_label "find_prefix_blocks"
    (loop ~left:1 ~right:(n2 + 1) ~prefix_star:Bitstring.empty ~v:v_in ~v_bot:v_in
       ~iterations:0)
end

include Make (Ba.Substrate.Unauthenticated)
