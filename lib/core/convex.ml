(** Communication-optimal Convex Agreement — public API.

    This library implements the protocol suite of {e "Communication-Optimal
    Convex Agreement"} (Ghinea, Liu-Zhang, Wattenhofer, PODC 2024): n parties,
    up to t < n/3 byzantine, agree on a value guaranteed to lie within the
    range of the honest parties' inputs, at communication cost
    O(ℓn + poly(n, κ)) for ℓ-bit inputs — the first CA protocol matching the
    Ω(ℓn) lower bound.

    {b Quick start}: give each party a {!Bigint.t} input and run {!agree_int}
    under the simulator:
    {[
      let outcome =
        Net.Sim.run ~n:7 ~t:2 ~corrupt ~adversary:Net.Adversary.passive
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Net.Ctx.me))
    ]}
    Every honest party's output is the same integer, inside the honest
    inputs' range (Definition 1: Termination, Agreement, Convex Validity).

    The intermediate protocols (Sections 3–5 of the paper) are exposed as
    submodules for benchmarks and for users with fixed-width values. *)

(** {1 Top-level protocols} *)

(** Π_ℤ — Convex Agreement on arbitrary integers (Section 6). *)
let agree_int = Ca_int.run

(** Π_ℕ — Convex Agreement on naturals of unknown length (Section 5).
    Raises [Invalid_argument] on a negative input. *)
let agree_nat = Ca_nat.run

(** {1 Fixed-length protocols (Sections 3–4)} *)

(** FIXEDLENGTHCA — CA for values of a publicly known bit-width [bits];
    communication O(ℓn + κ·n²·log n·log ℓ). *)
let agree_fixed_length ctx ~bits v = Fixed_length_ca.run ctx ~bits v

(** FIXEDLENGTHCABLOCKS — the variant for very long values; [bits] must be a
    positive multiple of n². *)
let agree_fixed_length_blocks ctx ~bits v = Fixed_length_ca.run_blocks ctx ~bits v

(** HIGHCOSTCA — the O(ℓn³) king-based CA of [47] (Appendix A.4), used
    internally on short values and as a baseline. *)
let agree_high_cost ctx ~bits v = High_cost_ca.run ctx ~bits v

(** {1 Building blocks} *)

module Find_prefix = Find_prefix
module Get_output = Get_output
module Fixed_length_ca = Fixed_length_ca
module High_cost_ca = High_cost_ca
module Median_ba = Median_ba
module Rank_ba = Rank_ba
module Ca_nat = Ca_nat
module Ca_int = Ca_int
module Fixed_point = Fixed_point
module Vector = Vector

(** Convex Agreement on fixed-precision rationals (the paper's Section 1
    remark) — see {!Fixed_point}. *)
let agree_fixed_point = Fixed_point.agree

(** Coordinate-wise CA on integer vectors ({b box} validity — weaker than
    multidimensional hull validity; see {!Vector}). *)
let agree_vector = Vector.agree

(** {1 Properties (for tests and harnesses)}

    [in_convex_hull ~inputs output] — is [output] within the range of
    [inputs]? With honest inputs only, this is exactly Convex Validity. The
    range is computed once per [~inputs], so [in_convex_hull ~inputs] checks
    many outputs against one fold over the inputs. *)
let in_convex_hull ~inputs =
  match inputs with
  | [] -> fun _ -> false
  | first :: rest ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) v -> (Bigint.min lo v, Bigint.max hi v))
          (first, first) rest
      in
      fun output -> Bigint.compare lo output <= 0 && Bigint.compare output hi <= 0
