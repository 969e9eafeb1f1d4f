(** Π_ℤ (Section 6, Corollaries 1–2): Convex Agreement over the integers.
    Parties agree on a sign with one binary Π_BA — the agreed sign is some
    honest party's sign, so 0 is a valid stand-in for every party whose sign
    lost — then run Π_ℕ on the (possibly zeroed) magnitudes. *)

open Net

let ( let* ) = Proto.( let* )

module Make (B : Ba.Substrate.S) = struct
  module CN = Ca_nat.Make (B)
  module FP = Find_prefix.Make (B)

  (* f-sensitive cost model for one Π_ℤ run: the sign bit-BA, the ~log ℓ
     length-probe bit-BAs of Π_ℕ's short regime, and the FINDPREFIX search
     that dominates FIXEDLENGTHCA.  Order-of-magnitude, like every model on
     this seam: the point is that a fault-adaptive substrate's f-scaling
     survives the full stack, not bit-exact accounting. *)
  let cost_estimate (ctx : Ctx.t) ~value_bits ~f =
    let bit = B.cost ctx ~value_bits:1 ~f in
    let probes =
      let rec go acc p = if p >= value_bits then acc else go (acc + 1) (2 * p) in
      2 + go 0 1
    in
    let fp = FP.cost_estimate ctx ~value_bits ~f in
    {
      Ba.Substrate.c_f = f;
      c_bits = (probes * bit.Ba.Substrate.c_bits) + fp.Ba.Substrate.c_bits;
      c_rounds = (probes * bit.Ba.Substrate.c_rounds) + fp.Ba.Substrate.c_rounds;
    }

  let run (ctx : Ctx.t) v_in =
    Proto.run
      (let sign_in = Bigint.sign v_in < 0 in
       let* sign_out = Proto.lift (B.run_bit ctx sign_in) in
       let magnitude =
         if Bool.equal sign_out sign_in then Bigint.abs v_in else Bigint.zero
       in
       let* magnitude_out = CN.run ctx magnitude in
       Proto.return (Bigint.of_sign_magnitude ~negative:sign_out magnitude_out))
end

include Make (Ba.Substrate.Unauthenticated)
