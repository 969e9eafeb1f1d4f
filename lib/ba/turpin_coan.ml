(** The Turpin–Coan extension protocol [49]: multivalued BA from binary BA
    with O(ℓn²) extra communication, resilient for t < n/3.

    This is the classical "cheap" multivalued BA that the paper's related
    work contrasts with: quadratic in n, and — like any plain BA — offering
    no convex validity. It serves as the O(ℓn²) baseline in the benchmark
    tables (experiments T1/T2/F1).

    Steps (each party):
    1. Send the input value to all.
    2. If some value [w] was received from ≥ n−t parties, set y := w,
       else y := ⊥. Send y to all.
    3. Let z := the most frequent non-⊥ value received, c := its count.
       Join binary Π_BA with input 1 iff c ≥ n−t.
    4. If Π_BA returned 1, output z (any honest party then has c ≥ t+1 for a
       common z); otherwise output the default value.

    The two-honest-proposal argument (two distinct y ≠ ⊥ values would each
    need n−2t honest supporters) makes z common to all honest parties
    whenever the binary agreement returns 1. *)

open Net

let ( let* ) = Proto.( let* )

let run (spec : 'v Phase_king.spec) (ctx : Ctx.t) input =
  let open Phase_king in
  let quorum = Ctx.quorum ctx in
  Proto.with_label "turpin_coan"
    (* Step 1: universal exchange of inputs. *)
    (let* inbox1 = Proto.broadcast (spec.encode input) in
     let y =
       match
         List.find_opt
           (fun (_, c) -> c >= quorum)
           (tally ~equal:spec.equal ~decode:spec.decode inbox1)
       with
       | Some (w, _) -> Some w
       | None -> None
     in
     (* Step 2: universal exchange of candidates. *)
     let encode_y y = Wire.encode (w_opt_bytes (Option.map spec.encode y)) in
     let decode_y raw =
       match Wire.decode_full r_opt_bytes raw with
       | None | Some None -> None
       | Some (Some payload) -> spec.decode payload
     in
     let* inbox2 = Proto.broadcast (encode_y y) in
     let z, c =
       match argmax spec (tally ~equal:spec.equal ~decode:decode_y inbox2) with
       | Some zc -> zc
       | None -> (spec.default, 0)
     in
     (* Step 3: binary agreement on whether a quorum candidate exists. *)
     let* confirmed = Phase_king.run_bit ctx (c >= quorum) in
     (* Step 4. *)
     if confirmed && c >= ctx.Ctx.t + 1 then Proto.return z
     else Proto.return spec.default)

let run_bytes ctx v = run Phase_king.bytes_spec ctx v
