(** The introduction's "straightforward approach": every party broadcasts its
    input via synchronous Byzantine Broadcast, giving all parties an
    identical view of the n claimed inputs; a deterministic choice function
    (the median of the trimmed common view) then yields a valid common
    output.

    This is the classical CA baseline the paper improves on. Optimal in
    resilience and conceptually simple, but communication-heavy: n broadcasts
    of ℓ-bit values. BC here is send + phase-king BA ({!Ba.Broadcast}): 3(t+1)
    all-to-all rounds of ℓ-bit values, O(ℓn²t) bits per broadcast and
    O(ℓn³t) in total — O(ℓn⁴) at t ≈ n/3. (O(ℓn²) would require an
    extension-protocol BC — the very machinery the paper builds); either way
    it is ω(ℓn).

    Correctness of the choice function: the common view contains all n−t
    honest inputs, so at most t entries lie below the smallest honest input
    and at most t above the largest; after discarding the t lowest and t
    highest entries, every survivor — in particular the median — lies in the
    honest inputs' range. *)

open Net

let ( let* ) = Proto.( let* )

(* The deterministic choice on the identical view: drop non-values, trim t
   from each side, take the median of the rest. At least n−t honest
   broadcasts decode, so the trimmed slice is non-empty; guard anyway. *)
let choose ~bits ~t ~fallback view =
  let values =
    List.sort Bitstring.compare (List.filter_map (Wire.decode_value ~bits) view)
  in
  let arr = Array.of_list values in
  let count = Array.length arr in
  if count <= 2 * t then fallback else arr.(t + ((count - (2 * t)) / 2))

let run (ctx : Ctx.t) ~bits v_in =
  if Bitstring.length v_in <> bits then invalid_arg "Broadcast_ca.run: input length";
  let n = ctx.Ctx.n and t = ctx.Ctx.t in
  Proto.with_label "broadcast_ca"
    (let rec gather sender acc =
       if sender = n then Proto.return (List.rev acc)
       else
         let* claimed =
           Ba.Broadcast.run Ba.Phase_king.bytes_spec ctx ~sender (Wire.encode_value v_in)
         in
         gather (sender + 1) (claimed :: acc)
     in
     let* view = gather 0 [] in
     Proto.return (choose ~bits ~t ~fallback:v_in view))
