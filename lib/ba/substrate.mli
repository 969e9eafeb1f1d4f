(** The Π_BA seam: a first-class, swappable Byzantine Agreement substrate.

    The source paper treats Π_BA as a black box inside Π_ℤ; this module type
    makes that black box a parameter of the CA stack.  Every CA protocol that
    consumes agreement ([Ba_plus], [Ext_ba_plus], [Find_prefix],
    [Get_output], [Fixed_length_ca], [Ca_nat], [Ca_int])
    exposes a [Make (B : Substrate.S)] functor over this signature, with the
    historical behavior recovered by [include Make (Substrate.Unauthenticated)].

    A conforming backend must provide deterministic multivalued BA with
    Termination, Agreement and Validity (Definition 2), plus the two-element
    domain strengthening used by ADDLASTBIT / GETOUTPUT / Π_ℤ (Lemma 2): over
    a two-value domain the output is always some honest party's input.
    test/test_substrate.ml checks both, with the exact {!S.rounds}, for
    every backend under every generic adversary.

    Note the resilience split: [max_t] bounds the substrate itself, but the
    surrounding CA counting arguments (Π_BA+, FINDPREFIX) independently
    require [t < n/3] — plugging a [t < n/2] backend into Π_ℤ does not lift
    the composite bound.  Native [t < n/2] CA in the authenticated setting
    is [Auth.Auth_ca], Dolev–Strong broadcast per input. *)

type 'v spec = 'v Phase_king.spec = {
  equal : 'v -> 'v -> bool;
  default : 'v;  (** Fallback when agreement lands on no decodable value. *)
  encode : 'v -> string;  (** Must be injective on the domain. *)
  decode : string -> 'v option;  (** Total on arbitrary bytes. *)
}

type cost = {
  c_f : int;  (** The assumed number of {e actual} corruptions the sample
                  was taken at (echoed back for ledgers). *)
  c_bits : int;  (** Modelled honest bits of one instance at [f] faults. *)
  c_rounds : int;  (** Modelled synchronous rounds at [f] faults. *)
}
(** One sample of a backend's f-sensitive cost model: what one agreement
    instance is expected to cost when only [f <= t] of the [t] allowed
    corruptions actually materialize.  Worst-case substrates are flat in
    [f]; the fault-adaptive backend ({!module:Adaptive} in [lib/adaptive])
    collapses to its O(1)-round fast path at [f = 0]. *)

module type S = sig
  val name : string
  (** Stable identifier, used in ledgers and CLI surfaces. *)

  val assumption : [ `Plain | `Authenticated ]
  (** Setup requirement: [`Plain] needs only pairwise authenticated channels;
      [`Authenticated] additionally assumes a PKI ({!Net.Ctx.make_authenticated}). *)

  val max_t : n:int -> int
  (** Largest corruption budget the substrate tolerates at [n] parties. *)

  val rounds : Net.Ctx.t -> int
  (** Exact synchronous round count of one instance. *)

  val bits_estimate : Net.Ctx.t -> value_bits:int -> int
  (** Order-of-magnitude honest-bit cost model for one instance over
      [value_bits]-bit values; for planning and ledgers, not accounting. *)

  val cost : Net.Ctx.t -> value_bits:int -> f:int -> cost
  (** The f-sensitive refinement of [bits_estimate]/[rounds]: modelled cost
      of one instance when [f] corruptions are actually active.  Worst-case
      backends must return a sample consistent with [bits_estimate] and
      [rounds] at every [f]; fault-adaptive backends may return strictly
      smaller figures for small [f].  Like [bits_estimate], a planning
      model — measured bits come from the simulator's ledger. *)

  val run : 'v spec -> Net.Ctx.t -> 'v -> 'v Net.Proto.t
  (** [run spec ctx v] joins one multivalued agreement instance with input
      [v].  All honest parties obtain the same output, equal to [v] if they
      all joined with [v]; the output always decodes under [spec].  The
      four [run*] return the reified protocol so a backend (or a layer
      wrapping one) can see each of its rounds; callers use them inside a
      builder through {!Net.Proto.lift}. *)

  val run_bit : Net.Ctx.t -> bool -> bool Net.Proto.t
  val run_bytes : Net.Ctx.t -> string -> string Net.Proto.t
  val run_option : Net.Ctx.t -> string option -> string option Net.Proto.t
end

module Unauthenticated : S
(** The existing unauthenticated [t < n/3] phase-king stack, reifying the
    [Proto.m] values {!Phase_king}'s round machine builds — same code path,
    same ["pi_ba"] telemetry label, same wire bytes as the pre-seam
    protocols. *)
