(** GETOUTPUT (Section 3, Lemma 3): given an agreed prefix of a valid value,
    decide between its minimal and maximal completion.

    At least t+1 honest parties hold valid values [v_bot] that do not extend
    [prefix_star]; each announces whether its value sits below MIN_ℓ (bit 0)
    or above MAX_ℓ (bit 1). Among the m ≥ t+1 announcement bits a party
    receives, the majority bit was necessarily sent by an honest party (a
    minority of ≤ t byzantine bits cannot reach ⌈m/2⌉ once m ≥ 2t+1, and for
    smaller m at least one honest bit is present in every majority — the
    Lemma 3 argument). A final binary Π_BA fixes the common choice. *)

open Net

let ( let* ) = Proto.( let* )

let decode_bit raw =
  match raw with "\000" -> Some false | "\001" -> Some true | _ -> None

module Make (B : Ba.Substrate.S) = struct
  let run (ctx : Ctx.t) ~bits:len ~prefix_star v_bot =
  if Bitstring.length prefix_star > len then invalid_arg "Get_output.run: prefix length";
  if Bitstring.length v_bot <> len then invalid_arg "Get_output.run: value length";
  let low = Bitstring.min_fill len prefix_star in
  let high = Bitstring.max_fill len prefix_star in
  Proto.with_label "get_output"
    (let announce =
       if Bitstring.is_prefix ~prefix:prefix_star v_bot then None
       else Some (Bitstring.compare v_bot low >= 0)
       (* v_bot does not extend prefix_star, so it is either < MIN_ℓ or
          > MAX_ℓ; comparing against [low] distinguishes the two. *)
     in
     let* inbox =
       Proto.exchange (fun _ ->
           Option.map (fun b -> if b then "\001" else "\000") announce)
     in
     let zeros = ref 0 and ones = ref 0 in
     Array.iter
       (function
         | None -> ()
         | Some raw -> (
             match decode_bit raw with
             | Some false -> incr zeros
             | Some true -> incr ones
             | None -> ()))
       inbox;
     let choice = !ones > !zeros in
     let* take_max = Proto.lift (B.run_bit ctx choice) in
     Proto.return (if take_max then high else low))
end

include Make (Ba.Substrate.Unauthenticated)
