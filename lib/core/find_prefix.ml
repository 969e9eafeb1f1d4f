(** FINDPREFIX (Section 3): binary search, over bit positions, for a prefix
    of a valid value that is at least as long as the honest inputs' longest
    common prefix.

    Each iteration runs Π_ℓBA+ on the current window of the parties' values:
    - ⊥ (Bounded Pre-Agreement) ⇒ fewer than n−2t honest parties share this
      window, so for {e any} candidate window at least t+1 honest parties
      hold differing values — record the current value as [v_bot] and recurse
      left;
    - a window (Intrusion Tolerance ⇒ an honest party's window) ⇒ extend the
      agreed prefix; parties whose value lies outside the prefix's subtree
      snap to MIN_ℓ / MAX_ℓ of the prefix, which Remark 2 keeps inside the
      honest range — and recurse right.

    Lemma 1: on return, all honest parties share [prefix_star]; every honest
    [v] is valid with prefix [prefix_star]; and for every bitstring of
    [|prefix_star| + 1] bits, at least t+1 honest parties hold a valid
    [v_bot] not extending it. *)

open Net

type result = {
  prefix_star : Bitstring.t;
  v : Bitstring.t;  (** valid, ℓ bits, has [prefix_star] as a prefix *)
  v_bot : Bitstring.t;  (** valid, ℓ bits; see Lemma 1 (ii) *)
  iterations : int;  (** diagnostic: Π_ℓBA+ invocations used *)
}

let ( let* ) = Proto.( let* )

let encode_window bits = Wire.encode (Wire.w_bits bits)

let r_window = Wire.r_bits ()

let decode_window ~expect_bits raw =
  match Wire.decode_full r_window raw with
  | Some bits when Bitstring.length bits = expect_bits -> Some bits
  | Some _ | None -> None

module Make (B : Ba.Substrate.S) = struct
  module Ext = Baplus.Ext_ba_plus.Make (B)

  (* f-sensitive cost model: ⌈log₂(ℓ+1)⌉ binary-search iterations, each one
     Π_ℓBA+ instance on a window of at most ℓ bits.  Inherits the
     substrate's f-adaptivity through Ext's composed model. *)
  let cost_estimate (ctx : Ctx.t) ~value_bits ~f =
    let iterations =
      let rec go acc p = if p > value_bits then acc else go (acc + 1) (2 * p) in
      max 1 (go 0 1)
    in
    let ext = Ext.cost_estimate ctx ~value_bits ~f in
    {
      Ba.Substrate.c_f = f;
      c_bits = iterations * ext.Ba.Substrate.c_bits;
      c_rounds = iterations * ext.Ba.Substrate.c_rounds;
    }

  let run (ctx : Ctx.t) ~bits:len v_in =
  if Bitstring.length v_in <> len then invalid_arg "Find_prefix.run: input length";
  let rec loop ~left ~right ~prefix_star ~v ~v_bot ~iterations =
    (* Convergence probe: the party's current candidate value, once per
       search iteration (and once more on exit). Honest candidates only
       tighten toward the agreed prefix, so the honest hull width is monotone
       non-increasing over iterations. *)
    let* () = Proto.probe "find_prefix.v" v in
    if left = right then
      Proto.return { prefix_star; v; v_bot; iterations }
    else begin
      let mid = (left + right) / 2 in
      let window = Bitstring.range v ~left ~right:mid in
      let* outcome = Ext.run ctx (encode_window window) in
      match Option.map (decode_window ~expect_bits:(mid - left + 1)) outcome with
      | None | Some None ->
          (* ⊥ (or a non-window value, impossible for honest inputs but
             handled identically at every honest party): search left. *)
          loop ~left ~right:mid ~prefix_star ~v ~v_bot:v ~iterations:(iterations + 1)
      | Some (Some agreed_window) ->
          let prefix_star = Bitstring.append prefix_star agreed_window in
          let own_prefix = Bitstring.prefix v mid in
          let cmp = Bitstring.compare own_prefix prefix_star in
          let v =
            if cmp < 0 then Bitstring.min_fill len prefix_star
            else if cmp > 0 then Bitstring.max_fill len prefix_star
            else v
          in
          loop ~left:(mid + 1) ~right ~prefix_star ~v ~v_bot ~iterations:(iterations + 1)
    end
  in
  Proto.with_label "find_prefix"
    (loop ~left:1 ~right:(len + 1) ~prefix_star:Bitstring.empty ~v:v_in ~v_bot:v_in
       ~iterations:0)
end

include Make (Ba.Substrate.Unauthenticated)
