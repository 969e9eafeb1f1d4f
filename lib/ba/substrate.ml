(* The Π_BA seam: the CA protocols consume Byzantine Agreement through this
   module type only, so the agreement substrate is a parameter of the stack
   rather than a hard-coded call into Phase_king.  See substrate.mli for the
   contract each backend must satisfy. *)

type 'v spec = 'v Phase_king.spec = {
  equal : 'v -> 'v -> bool;
  default : 'v;
  encode : 'v -> string;
  decode : string -> 'v option;
}

(* One sample of a backend's f-sensitive cost model: expected cost of an
   instance when only f of the t allowed corruptions are actually active.
   Worst-case substrates are flat in f; lib/adaptive's backend is not. *)
type cost = { c_f : int; c_bits : int; c_rounds : int }

module type S = sig
  val name : string
  val assumption : [ `Plain | `Authenticated ]
  val max_t : n:int -> int
  val rounds : Net.Ctx.t -> int
  val bits_estimate : Net.Ctx.t -> value_bits:int -> int
  val cost : Net.Ctx.t -> value_bits:int -> f:int -> cost
  val run : 'v Phase_king.spec -> Net.Ctx.t -> 'v -> 'v Net.Proto.t
  val run_bit : Net.Ctx.t -> bool -> bool Net.Proto.t
  val run_bytes : Net.Ctx.t -> string -> string Net.Proto.t
  val run_option : Net.Ctx.t -> string option -> string option Net.Proto.t
end

(* The default backend: the unauthenticated t < n/3 phase-king stack.  Every
   entry point reifies the [Proto.m] that Phase_king's round machine builds
   (one [Proto.Step] per round) — same code path, same "pi_ba" telemetry
   label, same wire bytes — so the functorized CA protocols
   instantiated with this module are bit-identical to the pre-seam stack
   (pinned by test/test_seam.ml). *)
module Unauthenticated : S = struct
  let name = "phase-king"
  let assumption = `Plain
  let max_t ~n = (n - 1) / 3
  let rounds = Phase_king.rounds

  (* 3(t+1) phases of all-to-all ℓ-bit traffic plus the per-phase king
     proposal: O(ℓ n²) bits per phase, O(ℓ n² t) per instance.  An
     order-of-magnitude model for planning, not an accounting identity —
     measured bits come from the simulator's ledger. *)
  let bits_estimate (ctx : Net.Ctx.t) ~value_bits =
    let n = ctx.Net.Ctx.n in
    Phase_king.rounds ctx * n * n * (value_bits + 16)

  (* Phase king always runs its full t+1 phases: the cost model is flat in
     the actual fault count f (only the echo back to ledgers changes). *)
  let cost ctx ~value_bits ~f =
    { c_f = f; c_bits = bits_estimate ctx ~value_bits; c_rounds = rounds ctx }

  let run spec ctx v = Net.Proto.run (Phase_king.run spec ctx v)
  let run_bit ctx b = Net.Proto.run (Phase_king.run_bit ctx b)
  let run_bytes ctx s = Net.Proto.run (Phase_king.run_bytes ctx s)
  let run_option ctx o = Net.Proto.run (Phase_king.run_option ctx o)
end
