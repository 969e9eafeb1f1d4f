(* Π_BA+ follows the Section 7 pseudocode line by line.

   Counting arguments enforced here (n > 3t):
   - a party sees at most two values with n−2t occurrences in step 1
     (3(n−2t) <= n would give n <= 3t), so votes carry at most two values;
   - at most two values can gather n−t votes in step 2 (each party votes for
     at most two values, so 3(n−t) <= 2n would give n <= 3t);
   - if n−2t honest parties share input v, every honest party votes for v and
     the honest (a, b) pairs satisfy v ∈ {a, b} ⊆ {v, v'} for a single v'. *)

open Net

let ( let* ) = Proto.( let* )

(* Hoisted codec halves: building the combinator chains per vote would
   allocate their closures once per message. *)
let w_vote = Wire.w_list Wire.w_bytes
let encode_vote values = Wire.encode (w_vote values)
let r_vote = Wire.r_list ~max:3 (Wire.r_bytes ())

(* A vote is valid only in canonical form: at most two values, strictly
   ascending. Anything else is a malformed byzantine message, dropped. *)
let decode_vote raw =
  match Wire.decode_full r_vote raw with
  | Some ([] as vs) | Some ([ _ ] as vs) -> Some vs
  | Some ([ v1; v2 ] as vs) when String.compare v1 v2 < 0 -> Some vs
  | Some _ | None -> None

(* Values occurring at least [threshold] times in [all], ascending.
   Counted over a flat list (at most 2n values: each sender contributes at
   most two) instead of a per-call Hashtbl — the sorted output makes the
   counting order irrelevant, and the table allocation dominated these tiny
   domains. *)
let values_with_support ~threshold all =
  let rec distinct_with_quorum acc = function
    | [] -> acc
    | v :: rest ->
        let count =
          1 + List.fold_left (fun c w -> if String.equal v w then c + 1 else c) 0 rest
        in
        let seen = List.exists (fun w -> String.equal v w) acc in
        if count >= threshold && not seen then distinct_with_quorum (v :: acc) rest
        else distinct_with_quorum acc rest
  in
  List.sort String.compare (distinct_with_quorum [] all)

(* The values [values_with_support] counts: every payload of a step-1
   inbox, and every value of every valid step-2 vote, in no particular
   order. *)
let payloads inbox =
  Array.fold_left (fun acc -> function None -> acc | Some raw -> raw :: acc) [] inbox

let voted_values inbox =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some raw -> (
          match decode_vote raw with Some vs -> List.rev_append vs acc | None -> acc))
    [] inbox

module Make (B : Ba.Substrate.S) = struct
  (* f-sensitive cost model, composed from the protocol's own structure: two
     all-to-all exchanges of the value plus two option and two bit instances
     of the substrate.  Inherits whatever f-adaptivity B's model has. *)
  let cost_estimate (ctx : Ctx.t) ~value_bits ~f =
    let n = ctx.Ctx.n in
    let exchanges = 2 * n * n * (value_bits + 16) in
    let opt = B.cost ctx ~value_bits ~f in
    let bit = B.cost ctx ~value_bits:1 ~f in
    {
      Ba.Substrate.c_f = f;
      c_bits = exchanges + (2 * opt.Ba.Substrate.c_bits) + (2 * bit.Ba.Substrate.c_bits);
      c_rounds = 2 + (2 * opt.Ba.Substrate.c_rounds) + (2 * bit.Ba.Substrate.c_rounds);
    }

  (* Steps 1 (after its broadcast) to 5, given the step-1 inbox: the rest of
     Π_BA+ once every party has sent its input. *)
  let decide (ctx : Ctx.t) inbox1 =
    let t = ctx.Ctx.t in
    let quorum = Ctx.quorum ctx in
    (* Step 1: find values received from n−2t parties. *)
    let seen =
      values_with_support ~threshold:(ctx.Ctx.n - (2 * t)) (payloads inbox1)
    in
    (* The counting argument caps [seen] at two values; if byzantine
       equivocation could ever break this we must not crash. *)
    let seen = match seen with v1 :: v2 :: _ -> [ v1; v2 ] | vs -> vs in
    (* Step 2: vote for the values seen. *)
    let* inbox2 = Proto.broadcast (encode_vote seen) in
    let supported =
      values_with_support ~threshold:quorum (voted_values inbox2)
    in
    (* Step 3: derive (a, b) with a <= b. *)
    let a, b =
      match supported with
      | [] -> (None, None)
      | [ v ] -> (Some v, Some v)
      | v :: rest -> (Some v, Some (List.nth rest (List.length rest - 1)))
    in
    (* Step 4: try to agree on a. *)
    let* a' = Proto.lift (B.run_option ctx a) in
    let happy_a = match (a, a') with Some x, Some y -> String.equal x y | _ -> false in
    let* agreed_a = Proto.lift (B.run_bit ctx happy_a) in
    if agreed_a then Proto.return a'
    else
      (* Step 5: try to agree on b. *)
      let* b' = Proto.lift (B.run_option ctx b) in
      let happy_b = match (b, b') with Some x, Some y -> String.equal x y | _ -> false in
      let* agreed_b = Proto.lift (B.run_bit ctx happy_b) in
      if agreed_b then Proto.return b' else Proto.return None

  (* Step 1's broadcast of the inputs, then the rest. *)
  let run ctx input =
    Proto.with_label "pi_ba_plus"
      (let* inbox1 = Proto.broadcast input in
       decide ctx inbox1)

  (* The same protocol, also returning the step-1 inbox. The round loop
     lends the inbox only until the next round, so it is copied before
     [decide] runs on. *)
  let run_with_inputs ctx input =
    Proto.with_label "pi_ba_plus"
      (let* inbox1 = Proto.broadcast input in
       let inputs = Array.copy inbox1 in
       Proto.map (decide ctx inbox1) (fun out -> (inputs, out)))
end

include Make (Ba.Substrate.Unauthenticated)
