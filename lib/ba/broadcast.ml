(** Synchronous Byzantine Broadcast (BC) for [t < n/3], by the classical
    reduction to BA: the designated sender sends its value to everyone, then
    all parties run Π_BA on what they received.

    Guarantees: Termination and Agreement always; if the sender is honest,
    every honest party outputs the sender's value (Validity). The output for
    a byzantine sender is an arbitrary — but common — value.

    This is the primitive behind the introduction's "trivial" CA construction
    (every party broadcasts its input, then apply a deterministic choice
    function), implemented as a baseline in [Baseline.Broadcast_ca]. Cost for
    an ℓ-bit value: O(ℓn) for the send plus BITS_ℓ(Π_BA) — with the
    phase-king Π_BA, O(ℓn² + n³) when the honest parties received the same
    value and up to O(ℓn³) when corrupt kings keep their values changing. *)

open Net

let ( let* ) = Proto.( let* )

(** [run spec ctx ~sender v]: every party joins; only [sender]'s input is
    meaningful ([v] is ignored for other parties — pass the party's own input
    or [spec.default]). *)
let run (spec : 'v Phase_king.spec) (ctx : Ctx.t) ~sender v =
  if sender < 0 || sender >= ctx.Ctx.n then invalid_arg "Broadcast.run: bad sender";
  let* inbox =
    if ctx.Ctx.me = sender then Proto.broadcast (spec.Phase_king.encode v)
    else Proto.receive_only ()
  in
  let received =
    Option.value ~default:spec.Phase_king.default
      (Option.bind inbox.(sender) spec.Phase_king.decode)
  in
  Phase_king.run spec ctx received

let run_bytes ctx ~sender v = run Phase_king.bytes_spec ctx ~sender v
