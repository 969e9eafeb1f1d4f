(** Convex Agreement in the authenticated setting, t < n/2 — the classical
    (communication-heavy) answer to the regime the paper's conclusion leaves
    open ("the same question applies to the synchronous model with t < n/2
    corruptions assuming cryptographic setup").

    Construction: every party broadcasts its input with {!Dolev_strong}
    (sound for any t < n), giving all parties an identical multiset of
    claimed inputs; the (t+1)-th smallest entry of the common view is the
    output. With n > 2t the honest values are a majority of the view, so at
    most t entries lie below the smallest honest input and at least t+1
    entries are ≤ the largest — the (t+1)-th smallest is therefore inside
    the honest inputs' range, and identical views give identical outputs.

    This achieves Definition 1 at t < n/2 — at cost O(ℓn³ + n³·t·σ) bits —
    whereas the paper's O(ℓn) protocol needs t < n/3 and no setup. Closing
    that communication gap at t < n/2 is precisely the open problem; this
    module is the baseline any such result would be measured against. *)

open Net

let ( let* ) = Proto.( let* )

let choose ~bits ~t ~fallback view =
  let values =
    List.sort Bitstring.compare
      (List.filter_map (fun d -> Option.bind d (Wire.decode_value ~bits)) view)
  in
  match List.nth_opt values t with
  | Some v -> v
  | None ->
      (* Fewer than t+1 deliveries is impossible with ≤ t corruptions
         (all n−t ≥ t+1 honest broadcasts deliver); stay total. *)
      fallback

(** [run setup ctx ~bits v]: requires a [ctx] built for the authenticated
    bound ({!Net.Ctx.make_authenticated}, t < n/2; contexts with t < n/3
    work a fortiori) and the {!Setup} whose PKI all parties share. All
    honest parties must join with [bits]-wide values. *)
let run (setup : Setup.t) (ctx : Ctx.t) ~bits v_in =
  if Bitstring.length v_in <> bits then invalid_arg "Auth_ca.run: input length";
  let n = ctx.Ctx.n and t = ctx.Ctx.t in
  Proto.with_label "auth_ca"
    (let rec gather sender acc =
       if sender = n then Proto.return (List.rev acc)
       else
         let* delivered =
           Dolev_strong.run setup ctx ~instance:sender ~sender (Wire.encode_value v_in)
         in
         gather (sender + 1) (delivered :: acc)
     in
     let* view = gather 0 [] in
     Proto.return (choose ~bits ~t ~fallback:v_in view))

(** The n Dolev–Strong instances composed by {!Net.Proto.parallel}: t+1
    rounds total instead of n·(t+1). Instance tags keep the signature
    domains separate; the shared stateful signer interleaves safely (each
    signature still uses a fresh one-time key). *)
let run_parallel (setup : Setup.t) (ctx : Ctx.t) ~bits v_in =
  if Bitstring.length v_in <> bits then invalid_arg "Auth_ca.run_parallel: input length";
  let n = ctx.Ctx.n and t = ctx.Ctx.t in
  Proto.with_label "auth_ca"
    (let* view =
       Proto.parallel
         (List.init n (fun sender ->
              Dolev_strong.run setup ctx ~instance:sender ~sender
                (Wire.encode_value v_in)))
     in
     Proto.return (choose ~bits ~t ~fallback:v_in view))
