(** Authenticated multivalued Byzantine Agreement for t < n/2 — the
    authenticated backend of the Π_BA substrate seam, and the rule
    {!Auth_ca} runs too.

    Every party broadcasts its input with {!Dolev_strong}, the n instances
    composed by {!Net.Proto.parallel}; Dolev–Strong gives every honest party
    the same view for any t < n. Each delivered value is decoded, the
    decodable ones are sorted by their canonical re-encoding, and the entry
    at index t (the (t+1)-th smallest) is the output.

    Why it is correct: every honest sender's value is delivered and decodes,
    so the view holds at least n − t ≥ t + 1 entries and index t exists.
    Identical views give identical outputs (Agreement). At most t entries
    sort below the smallest honest encoding and at least t + 1 sit at or
    below the largest, so the output lies between two honest inputs: under
    honest unanimity it is the common input (Validity), and over a
    two-value domain it is some honest party's input (Lemma 2). Sorting the
    canonical re-encoding, not the delivered bytes, matters: [option_spec]
    decodes overlong varints, so distinct bytes can decode to one value. *)

open Net

let common_view (setup : Setup.t) (spec : 'v Ba.Substrate.spec) (ctx : Ctx.t) ~instance
    input =
  let n = ctx.Ctx.n and t = ctx.Ctx.t in
  if Setup.parties setup <> n then
    invalid_arg "Auth_ba.run: setup size mismatch";
  if 2 * t >= n then invalid_arg "Auth_ba.run: requires t < n/2";
  let encoded = spec.encode input in
  Proto.map
    (Proto.parallel
       (List.init n (fun sender ->
            Dolev_strong.run setup ctx ~instance ~sender encoded)))
    (fun view ->
      let decoded =
        List.filter_map
          (fun delivered ->
            Option.map
              (fun v -> (spec.encode v, v))
              (Option.bind delivered spec.decode))
          view
      in
      match List.nth_opt (List.sort (fun (a, _) (b, _) -> String.compare a b) decoded) t with
      | Some (_, v) -> v
      | None -> spec.default)

let run setup spec ctx ~instance input =
  Proto.with_label "auth_ba" (common_view setup spec ctx ~instance input)

let rounds ~t = t + 1

(* Each of the n Dolev–Strong broadcasts makes a party sign at most twice:
   its own value as sender, or each of the at most two values it relays. *)
let required_capacity ~n ~instances = instances * 2 * n

(* The substrate view: a fresh first-class module per protocol run.  The
   embedded instance counter advances identically at every party — honest
   parties open BA instances in a common order because they branch only on
   agreed data — so signatures stay domain-separated without an instance
   parameter in the seam.  Use one substrate (and one fresh {!Setup}) per
   protocol run; instance tags restart at 0 for each substrate. *)
let substrate (s : Setup.t) : (module Ba.Substrate.S) =
  let next_instance = ref 0 in
  (module struct
    let name = "auth-dolev-strong"
    let assumption = `Authenticated
    let max_t ~n = (n - 1) / 2
    let rounds (ctx : Net.Ctx.t) = rounds ~t:ctx.Net.Ctx.t

    (* n broadcasts; in each, every party relays at most two values to all
       n parties, each with a chain of up to t + 1 signatures.  An
       order-of-magnitude model, not an accounting identity. *)
    let bits_estimate (ctx : Net.Ctx.t) ~value_bits =
      let n = ctx.Net.Ctx.n in
      2 * n * n * n
      * (value_bits + (8 * rounds ctx * Sigs.Xmss.signature_bytes))

    (* Dolev–Strong runs its t + 1 rounds however many corruptions
       materialize: flat in f. *)
    let cost ctx ~value_bits ~f =
      {
        Ba.Substrate.c_f = f;
        c_bits = bits_estimate ctx ~value_bits;
        c_rounds = rounds ctx;
      }

    let run spec ctx v =
      let instance = !next_instance in
      incr next_instance;
      Proto.run (run s spec ctx ~instance v)

    let run_bit ctx b = run Ba.Phase_king.bit_spec ctx b
    let run_bytes ctx v = run Ba.Phase_king.bytes_spec ctx v
    let run_option ctx v = run Ba.Phase_king.option_spec ctx v
  end)
