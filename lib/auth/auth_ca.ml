(** Convex Agreement in the authenticated setting, t < n/2 — the classical
    (communication-heavy) answer to the regime the paper's conclusion leaves
    open ("the same question applies to the synchronous model with t < n/2
    corruptions assuming cryptographic setup").

    Construction: {!Auth_ba.common_view} over fixed-width values — every
    party broadcasts its input with {!Dolev_strong}, the n instances in
    parallel, and the (t+1)-th smallest entry of the identical view is the
    output. With n > 2t at most t entries lie below the smallest honest
    input and at least t+1 are ≤ the largest, so the output is inside the
    honest inputs' range, and identical views give identical outputs.

    This achieves Definition 1 at t < n/2 — at cost O(ℓn³ + n³·t·σ) bits —
    whereas the paper's O(ℓn) protocol needs t < n/3 and no setup. Closing
    that communication gap at t < n/2 is precisely the open problem; this
    module is the baseline any such result would be measured against. *)

open Net

(* Fixed-width values; the encoding sorts as the values do. *)
let value_spec ~bits : Bitstring.t Ba.Substrate.spec =
  {
    equal = Bitstring.equal;
    default = Bitstring.zero bits;
    encode = Wire.encode_value;
    decode = Wire.decode_value ~bits;
  }

let run (setup : Setup.t) (ctx : Ctx.t) ~bits v_in =
  if Bitstring.length v_in <> bits then invalid_arg "Auth_ca.run: input length";
  Proto.with_label "auth_ca"
    (Auth_ba.common_view setup (value_spec ~bits) ctx ~instance:0 v_in)
