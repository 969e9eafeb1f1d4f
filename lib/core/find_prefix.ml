(** FINDPREFIX (Section 3) and FINDPREFIXBLOCKS (Section 4): binary search
    over equal blocks of the parties' values — ℓ one-bit blocks, or n²
    blocks of ℓ/n² bits — for a prefix of a valid value that is at least as
    long as the honest inputs' longest common prefix.

    Each iteration agrees on the current window of blocks — with Π_ℓBA+ when
    the window is longer than κ = 256 bits, and with Π_BA+ on the window
    itself otherwise (see [agree_window] below):
    - ⊥ (Bounded Pre-Agreement) ⇒ fewer than n−2t honest parties share this
      window, so for {e any} candidate window at least t+1 honest parties
      hold differing values — record the current value as [v_bot] and recurse
      left;
    - a window (Intrusion Tolerance ⇒ an honest party's window) ⇒ extend the
      agreed prefix; parties whose value lies outside the prefix's subtree
      snap to MIN_ℓ / MAX_ℓ of the prefix, which Remark 2 keeps inside the
      honest range — and recurse right.

    The paper's FINDPREFIXBLOCKS pseudocode initializes the search bound as
    [n + 1] while the surrounding text and Lemma 9 search n² blocks; we follow
    the text ([n² + 1], see DESIGN.md). *)

open Net

type result = {
  prefix_star : Bitstring.t;
  v : Bitstring.t;  (** valid, ℓ bits, has [prefix_star] as a prefix *)
  v_bot : Bitstring.t;  (** valid, ℓ bits; see Lemma 1 (ii) *)
  iterations : int;  (** diagnostic: window agreements (Π_BA+ or Π_ℓBA+) used *)
}

let ( let* ) = Proto.( let* )

module Make (B : Ba.Substrate.S) = struct
  module BP = Baplus.Ba_plus.Make (B)
  module Ext = Baplus.Ext_ba_plus.Make (B)

  (* κ, the length of the root Π_ℓBA+ agrees on in place of its value. *)
  let kappa = 8 * Sha256.digest_size

  (* The agreement an iteration runs on a window of [bits] bits. Π_ℓBA+
     replaces its value by a κ-bit Merkle root before Π_BA+ and pays two
     distribution rounds of codewords and witnesses to get it back, which
     only shrinks anything for a window longer than κ. A window of at most κ
     bits goes to Π_BA+ as it is: the same Agreement, Intrusion Tolerance
     and Bounded Pre-Agreement, without needing collision resistance, in
     O(κn²) bits of exchange. [bits] is a function of the agreed search
     bounds, so every honest party takes the same branch. *)
  let agree_window ~bits = if bits <= kappa then BP.run else Ext.run

  (* f-sensitive cost model of the bit search along its longest path, where
     every outcome is ⊥ and the window halves: ⌈log₂(ℓ+1)⌉ iterations, on
     windows of ⌊s/2⌋+1 bits for s = ℓ, ⌊ℓ/2⌋, …, 1. A window of at most κ
     bits is charged as {!Baplus.Ba_plus} on that window; a longer one
     as Π_ℓBA+ on the whole ℓ bits.  Inherits the substrate's f-adaptivity
     through both composed models. *)
  let cost_estimate (ctx : Ctx.t) ~value_bits ~f =
    let ext = Ext.cost_estimate ctx ~value_bits ~f in
    let rec go ~bits ~rounds s =
      if s = 0 then { Ba.Substrate.c_f = f; c_bits = bits; c_rounds = rounds }
      else
        let window = (s / 2) + 1 in
        let c =
          if window <= kappa then BP.cost_estimate ctx ~value_bits:window ~f else ext
        in
        go ~bits:(bits + c.Ba.Substrate.c_bits) ~rounds:(rounds + c.Ba.Substrate.c_rounds)
          (s / 2)
    in
    go ~bits:0 ~rounds:0 (max 1 value_bits)

  (* The search over [blocks] blocks of [block_bits] bits each, under span
     [label]; [probe] names the convergence probe. *)
  let search ~label ~probe ~blocks ~block_bits (ctx : Ctx.t) v_in =
    let len = blocks * block_bits in
    let rec loop ~left ~right ~prefix_star ~v ~v_bot ~iterations =
      (* Convergence probe: the party's current candidate value, once per
         search iteration (and once more on exit). Honest candidates only
         tighten toward the agreed prefix, so the honest hull width is
         monotone non-increasing over iterations. *)
      let* () = Proto.probe probe v in
      if left = right then Proto.return { prefix_star; v; v_bot; iterations }
      else begin
        let mid = (left + right) / 2 in
        (* Blocks [left..mid] (1-indexed, inclusive) as a bit range. *)
        let window =
          Bitstring.range v
            ~left:(((left - 1) * block_bits) + 1)
            ~right:(mid * block_bits)
        in
        let bits = (mid - left + 1) * block_bits in
        let* outcome = agree_window ~bits ctx (Wire.encode_value window) in
        match Option.map (Wire.decode_value ~bits) outcome with
        | None | Some None ->
            (* ⊥ (or a non-window value, impossible for honest inputs but
               handled identically at every honest party): search left. *)
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
