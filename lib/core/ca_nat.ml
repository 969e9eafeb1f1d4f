(** Π_ℕ (Section 5, Theorem 5): the final CA protocol for natural numbers of
    {e a priori unknown} length. Parties first agree whether anyone holds a
    "very long" (> n² bits) value; short runs estimate ℓ by binary-BA-probing
    powers of two and use FIXEDLENGTHCA, long runs agree on a block size with
    HIGHCOSTCA and use FIXEDLENGTHCABLOCKS.

    Communication O(ℓn + κ·n²·log²n) + O(log n)·BITS_κ(Π_BA); rounds
    O(n) + O(log n)·ROUNDS_κ(Π_BA). *)

open Net

let ( let* ) = Proto.( let* )

(* Block sizes are exchanged as 64-bit values: the paper allots O(log(ℓ/n²))
   bits; 64 bits covers any input this simulator can hold. *)
let blocksize_bits = 64

let ceil_log2 x =
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  go 0 1

module Make (B : Ba.Substrate.S) = struct
  module FL = Fixed_length_ca.Make (B)

  let run (ctx : Ctx.t) v_in =
  if Bigint.sign v_in < 0 then invalid_arg "Ca_nat.run: negative input";
  let n2 = ctx.Ctx.n * ctx.Ctx.n in
  let len = Bigint.bit_length v_in in
  (* Line 1: long or short regime? *)
  let* long = Proto.lift (B.run_bit ctx (len > n2)) in
  if not long then begin
    (* Short regime: cap overlong values (2^{n²}−1 is then in the honest
       range), probe ℓ_EST = 2^i, and run FIXEDLENGTHCA. *)
    let v = if len > n2 then Bigint.pred (Bigint.pow2 n2) else v_in in
    let rec probe i v =
      if i > ceil_log2 n2 then
        (* Unreachable: by iteration ⌈log₂ n²⌉ every honest party's value
           fits and Validity forces agreement on "fits". Stay total. *)
        let l_est = 1 lsl ceil_log2 n2 in
        FL.run ctx ~bits:l_est (Bigint.to_bitstring_fixed ~bits:l_est v)
      else
        let l_est = 1 lsl i in
        let* fits = Proto.lift (B.run_bit ctx (Bigint.bit_length v <= l_est)) in
        if fits then begin
          let v =
            if Bigint.bit_length v > l_est then Bigint.pred (Bigint.pow2 l_est) else v
          in
          FL.run ctx ~bits:l_est (Bigint.to_bitstring_fixed ~bits:l_est v)
        end
        else probe (i + 1) v
    in
    let* out = probe 0 v in
    Proto.return (Bigint.of_bitstring out)
  end
  else begin
    (* Long regime: agree on a block size, pad/cap to ℓ_EST = blocksize·n²
       and run the blocks protocol. *)
    let blocksize = (len + n2 - 1) / n2 in
    let* blocksize_agreed =
      Proto.with_label "length_estimation"
        (High_cost_ca.run ctx ~bits:blocksize_bits
           (Bitstring.of_int_fixed ~bits:blocksize_bits blocksize))
    in
    (* Beyond t corruptions the agreed size can be any 64-bit value. One
       that no honest length produces (zero, or past max_int / n², where
       ℓ_EST would overflow) reads as 1, so every honest party still runs
       the same ℓ_EST. *)
    let blocksize' =
      if Bitstring.significant_bits blocksize_agreed > 62 then 1
      else
        let b = Bitstring.to_int blocksize_agreed in
        if b < 1 || b > max_int / n2 then 1 else b
    in
    let l_est = blocksize' * n2 in
    let v =
      if Bigint.bit_length v_in > l_est then Bigint.pred (Bigint.pow2 l_est) else v_in
    in
    let* out =
      FL.run_blocks ctx ~bits:l_est (Bigint.to_bitstring_fixed ~bits:l_est v)
    in
    Proto.return (Bigint.of_bitstring out)
  end
end

include Make (Ba.Substrate.Unauthenticated)
